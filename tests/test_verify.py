import inspect
from collections import Counter

import pytest

from steinhaus import (
    BitSeq,
    CeilingExceeded,
    CheckRecord,
    VerificationReport,
    Witness,
    check_conjecture,
    level_sets,
    triangle_weight,
    verify_all,
    verify_ek,
    verify_family_weights,
    verify_level,
    verify_s3,
    verify_small_n,
)
from steinhaus import spectrum as spectrum_mod
from steinhaus import verify as verify_mod
from steinhaus.families import LevelPrediction
from steinhaus.verify import PER_N_CHECKS


class TestSmallN:
    def test_all_pass(self):
        records = verify_small_n()
        assert [r.n for r in records] == [1, 2, 3, 4]
        assert all(r.status == "pass" for r in records)


class TestVerifyLevel:
    @pytest.mark.parametrize("n,level,weight", [
        (12, 3, 21),
        (10, "m", 37),
        (13, "m-1", 60),
        (8, 2, 11),
        (9, 3, 13),
        (7, "m", 19),
    ])
    def test_passes_with_weight(self, n, level, weight):
        record = verify_level(n, level)
        assert record.status == "pass"
        assert f"weight {weight}" in record.detail

    @pytest.mark.parametrize("n,level", [(5, 3), (6, 3), (9, "m-1"), (2, 2)])
    def test_uncovered_is_skipped(self, n, level):
        record = verify_level(n, level)
        assert record.status == "skipped"
        assert record.detail

    def test_conjectured_level_reports_conjecture_status(self):
        record = verify_level(11, "m-1")
        assert record.status == "conjecture-confirmed"

    def test_wrong_value_fails_with_sound_witness(self, monkeypatch):
        real = verify_mod.predicted_level

        def wrong(level, n):
            p = real(level, n)
            return LevelPrediction(p.level, p.n, p.value + 1, p.members, p.status)

        monkeypatch.setattr(verify_mod, "predicted_level", wrong)
        record = verify_level(8, 2)
        assert record.status == "fail"
        assert record.witness is not None
        assert triangle_weight(record.witness.sequence) == record.witness.observed

    def test_wrong_set_fails_with_sound_witness(self, monkeypatch):
        real = verify_mod.predicted_level

        def wrong(level, n):
            p = real(level, n)
            return LevelPrediction(p.level, p.n, p.value, p.members[1:], p.status)

        monkeypatch.setattr(verify_mod, "predicted_level", wrong)
        record = verify_level(8, 2)
        assert record.status == "fail"
        assert "member set mismatch" in record.detail
        assert triangle_weight(record.witness.sequence) == record.witness.observed

    def test_level_beyond_a_short_ladder_fails_with_sound_witness(self):
        record = verify_level(8, "3", data=level_sets(2, 3, 2))
        assert record.status == "fail"
        assert record.detail == "ladder has levels 0..1, level 3 undefined"
        assert record.witness == Witness(BitSeq.from_string("01"), 2, 13)
        assert triangle_weight(record.witness.sequence) == record.witness.observed


class TestUnitVectors:
    @pytest.mark.parametrize("n", range(9, 16))
    def test_table_range_passes(self, n):
        assert verify_ek(n).status == "pass"

    def test_bound_only_range_passes(self):
        assert verify_ek(17).status == "pass"

    def test_below_range_skipped(self):
        assert verify_ek(8).status == "skipped"


class TestS3:
    def test_equality_sets_checked(self):
        for n in (4, 5):
            record = verify_s3(n)
            assert record.status == "pass"
            assert "equality set" in record.detail

    def test_bound_holds_at_nine(self):
        record = verify_s3(9)
        assert record.status == "pass"
        assert "max three-row weight 16" in record.detail

    def test_outside_ceiling_skipped(self):
        assert verify_s3(21).status == "skipped"
        assert verify_s3(3).status == "skipped"
        assert verify_s3(21, ceiling=22).status == "pass"


class TestConjecture:
    @pytest.mark.parametrize("n,weight", [(11, 41), (12, 48), (14, 66)])
    def test_confirmed(self, n, weight):
        record = check_conjecture(n)
        assert record.status == "conjecture-confirmed"
        assert f"weight {weight}" in record.detail

    @pytest.mark.parametrize("n", [10, 13, 9])
    def test_precondition(self, n):
        with pytest.raises(ValueError):
            check_conjecture(n)

    def test_size_beyond_the_engine_is_a_ceiling_error(self):
        with pytest.raises(CeilingExceeded):
            check_conjecture(200)

    def test_refutation_is_a_status_not_an_error(self, monkeypatch):
        real = verify_mod.predicted_level

        def wrong(level, n):
            p = real(level, n)
            return LevelPrediction(p.level, p.n, p.value - 1, p.members, p.status)

        monkeypatch.setattr(verify_mod, "predicted_level", wrong)
        record = check_conjecture(11)
        assert record.status == "conjecture-refuted"
        assert record.witness is not None
        assert triangle_weight(record.witness.sequence) == record.witness.observed


class TestVerifyAll:
    def test_range_health(self):
        report = verify_all(4, 9)
        assert report.ok and report.exit_code == 0
        statuses = {r.status for r in report.records}
        assert statuses <= {"pass", "skipped", "conjecture-confirmed"}

    def test_completeness_one_record_per_check_and_n(self):
        report = verify_all(5, 8)
        for n in range(5, 9):
            ids = sorted(r.check for r in report.records if r.n == n)
            assert ids == sorted(PER_N_CHECKS)
        small = [r for r in report.records if r.check == "small-n-ladder"]
        assert [r.n for r in small] == [1, 2, 3, 4]

    def test_records_sorted(self):
        report = verify_all(4, 6)
        keys = [(r.n, r.check) for r in report.records]
        assert keys == sorted(keys)

    def test_idempotent_modulo_timing(self):
        first = verify_all(4, 6)
        second = verify_all(4, 6)
        assert [r.key() for r in first.records] == [r.key() for r in second.records]

    def test_golden_rows_present(self):
        report = verify_all(4, 9)
        by = {(r.check, r.n): r for r in report.records}
        for n in range(4, 9):
            assert by[("golden-level-2", n)].status == "pass"
            assert by[("golden-weight-slice", n)].status == "pass"
        for n in range(4, 10):
            assert by[("golden-top-levels", n)].status == "pass"
            assert by[("golden-second-max-members", n)].status == "pass"
        assert "beyond the stored list" in by[("golden-second-max-members", 9)].detail

    def test_weight_slice_checks_at_10_and_14(self):
        report = verify_all(10, 10)
        by = {(r.check, r.n): r for r in report.records}
        assert by[("weight-2n-3", 10)].status == "pass"
        assert "one orbit" in by[("weight-2n-3", 10)].detail

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            verify_all(6, 5)
        with pytest.raises(ValueError):
            verify_all(1, 99)

    def test_one_enumeration_per_size(self, monkeypatch):
        built = []
        init = spectrum_mod._Kernel.__init__

        def counting_init(self, n, bits=None):
            built.append((n, bits))
            init(self, n, bits)

        monkeypatch.setattr(spectrum_mod._Kernel, "__init__", counting_init)
        assert verify_all(5, 14).ok
        full = Counter(n for n, bits in built if bits is None)
        assert full == Counter(range(1, 15))  # sizes 1..4 come from the small-n ladder
        assert sorted(n for n, bits in built if bits is not None) == list(range(5, 15))

    def test_exit_code_precedence(self):
        witness = Witness(BitSeq.from_string("101"), 4, 5)
        fail = CheckRecord("level-1", 5, "fail", "x", witness)
        refuted = CheckRecord("conjecture", 11, "conjecture-refuted", "x", witness)
        ok = CheckRecord("level-1", 5, "pass", "x")
        assert VerificationReport(5, 5, (ok,)).exit_code == 0
        assert VerificationReport(5, 5, (ok, refuted)).exit_code == 3
        assert VerificationReport(5, 5, (ok, refuted, fail)).exit_code == 1


class TestTimedChecks:
    def test_records_carry_their_time(self):
        records = [verify_level(8, 2), verify_s3(6), check_conjecture(11), *verify_small_n()]
        assert all(r.elapsed > 0 for r in records)

    def test_records_from_the_ladder_carry_their_time(self):
        ran = [r for r in verify_all(9, 11).records if r.status != "skipped"]
        assert ran and all(r.elapsed > 0 for r in ran)

    @pytest.mark.parametrize("check", [verify_level, verify_small_n, verify_ek,
                                       verify_family_weights, verify_s3, check_conjecture])
    def test_wrapped_checks_keep_their_names(self, check):
        assert inspect.isfunction(check)
        assert check.__module__ == "steinhaus.verify"
        assert getattr(verify_mod, check.__name__) is check


class TestCheckTable:
    def test_rows_call_checks_by_module_name(self, monkeypatch):
        calls = Counter()
        for name in ("verify_level", "check_conjecture", "verify_family_weights",
                     "verify_ek", "verify_s3"):
            def counted(*args, _real=getattr(verify_mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(verify_mod, name, counted)
        assert verify_all(10, 11).ok
        # n = 10 checks level m-1 directly; at n = 11 the conjecture check does.
        assert calls == {"verify_level": 9, "check_conjecture": 1,
                         "verify_family_weights": 2, "verify_ek": 2, "verify_s3": 2}
