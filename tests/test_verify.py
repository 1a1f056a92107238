import dataclasses
import inspect
import time
from collections import Counter

import pytest

from steinhaus import (
    BitSeq,
    CeilingExceeded,
    CheckRecord,
    FamilyName,
    LadderEnds,
    VerificationReport,
    WeightSlice,
    Witness,
    check_conjecture,
    ladder_ends,
    level_sets,
    s3,
    three_row_max,
    triangle_weight,
    verify_all,
    verify_ek,
    verify_family_weights,
    verify_level,
    verify_s3,
    verify_small_n,
)
from steinhaus import cli
from steinhaus import families as families_mod
from steinhaus import spectrum as spectrum_mod
from steinhaus import verify as verify_mod
from steinhaus.bitseq import MAX_LEN
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


class TestFamilyPass:
    def test_weights_are_the_scalar_weights(self):
        words = verify_mod._passes(range(1, 65)).families
        assert list(words) == list(range(1, 65))
        for n, rows in words.items():
            assert [row[:3] for row in rows] == families_mod.family_words(n)
            assert [w for *_, w in rows] == \
                [triangle_weight(BitSeq(n, bits)) for _, bits, _, _ in rows], n

    def test_heights_are_the_scalar_heights(self):
        heights = verify_mod._passes(range(1, 12)).heights
        assert list(heights) == list(verify_mod._TOP_SUMMARY_SIZES)
        for n, m in heights.items():
            assert type(m) is int  # a numpy integer would print as np.int64(m)
            assert m == len({triangle_weight(BitSeq(n, x)) for x in range(1 << n)}) - 1

    def test_one_row_steps_call_per_run(self, monkeypatch):
        calls = []
        real = verify_mod.row_steps

        def counted(x, n):
            calls.append(len(x))
            return real(x, n)

        monkeypatch.setattr(verify_mod, "row_steps", counted)
        assert verify_all(10, 24).ok
        assert calls == [sum(len(families_mod.family_words(n)) for n in range(10, 25))]
        # from n = 4 the call also weighs all 2^n generators of n = 4..9
        calls.clear()
        assert verify_all(4, 24).ok
        assert calls == [sum(len(families_mod.family_words(n)) for n in range(4, 25)) + 1008]

    def test_a_lone_check_weighs_only_its_own_words(self, monkeypatch):
        calls = []
        real = verify_mod.row_steps

        def counted(x, n):
            calls.append(len(x))
            return real(x, n)

        monkeypatch.setattr(verify_mod, "row_steps", counted)
        assert verify_s3(9).status == "pass"
        assert calls == []  # it reads the three-row DP alone
        for check, n in ((verify_ek, 20), (verify_family_weights, 9)):
            calls.clear()
            assert check(n).status == "pass"
            assert calls == [len(families_mod.family_words(n))], check

    def test_every_size_has_a_closed_form(self):
        # so family-weights always has a form to check: e0 weighs n at every n
        for n in range(1, MAX_LEN + 1):
            assert any(w is not None for _, _, w in families_mod.family_words(n)), n

    @pytest.mark.parametrize("check", [verify_family_weights, verify_ek])
    def test_a_lone_check_past_the_engine_limit_raises(self, check):
        assert check(64).status == "pass"
        with pytest.raises(CeilingExceeded, match="engine limit of 64"):
            check(65)

    def test_a_wrong_closed_form_fails_with_a_sound_witness(self, monkeypatch):
        real = families_mod._closed_form

        def wrong(f, n):
            w = real(f, n)
            return w + 1 if (str(f), n) == ("b2", 13) else w

        monkeypatch.setattr(families_mod, "_closed_form", wrong)
        report = verify_all(13, 13)
        record = next(r for r in report.records if r.check == "family-weights")
        assert record.status == "fail" and report.exit_code == 1
        assert record.detail == "b2: weight 18 observed, formula gives 19"
        assert record.witness.sequence == families_mod.family_seq(FamilyName("b", 2), 13)
        assert triangle_weight(record.witness.sequence) == record.witness.observed

    def test_a_wrong_unit_vector_table_fails_with_a_sound_witness(self, monkeypatch):
        real = verify_mod._unit_vector_fixture

        def wrong():
            table = real()
            table[12, 5] += 1
            return table

        monkeypatch.setattr(verify_mod, "_unit_vector_fixture", wrong)
        report = verify_all(12, 12)
        record = next(r for r in report.records if r.check == "unit-vector-bound")
        assert record.status == "fail" and report.exit_code == 1
        assert record.detail == "e5: weight 23 observed, table says 24"
        assert record.witness.sequence == BitSeq(12, 1 << 5)
        assert triangle_weight(record.witness.sequence) == record.witness.observed


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

    @pytest.mark.parametrize("stored,witness", [
        (("1101", "0110", "1011", "1001", "0000"), "0000"),  # a stored word too many
        (("0110", "1011", "1001"), "1101"),  # a maximiser missing
    ])
    def test_an_equality_set_mismatch_has_a_sound_witness(self, monkeypatch, stored, witness):
        monkeypatch.setitem(verify_mod._S3_EQUALITY, 4, stored)
        record = verify_s3(4)
        assert record.status == "fail" and "equality set mismatch" in record.detail
        assert str(record.witness.sequence) == witness
        assert s3(record.witness.sequence) == record.witness.observed
        assert record.witness.predicted == 6


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


def seqs(*texts):
    return [BitSeq.from_string(t) for t in texts]


def assert_witness(record, status, detail, at_fault, predicted):
    """The record fails with ``detail``, and its witness is the least of the
    generators ``at_fault`` by text, re-weighed by ``triangle_weight``."""
    assert (record.status, record.detail) == (status, detail)
    x = record.witness.sequence
    assert x in at_fault and x == min(at_fault, key=str)
    assert record.witness == Witness(x, triangle_weight(x), predicted)


class TestFailureWitnesses:
    """Every failure branch of verify, forced. Crafted data gives members a
    weight other than the one the check reads, so a witness that copies the
    engine's or a pass's number instead of re-weighing fails here."""

    @staticmethod
    def small_n(monkeypatch, edit):
        real = verify_mod._level_fixture

        def edited(name):
            rows = dict(real(name))
            if name == "small_n_levels.txt":
                edit(rows)
            return rows

        monkeypatch.setattr(verify_mod, "_level_fixture", edited)
        return verify_small_n()[3]  # n = 4

    def test_small_n_ladder_height(self, monkeypatch):
        record = self.small_n(monkeypatch, lambda rows: rows.pop((4, "4")))
        assert_witness(record, "fail", "ladder height 4 observed, 3 expected",
                       seqs("1011", "1101"), -1)

    def test_small_n_ladder_level_weight(self, monkeypatch):
        def heavier(rows):
            rows[4, "2"] = (6, rows[4, "2"][1])

        record = self.small_n(monkeypatch, heavier)
        assert_witness(record, "fail", "weight 5 observed, 6 predicted",
                       seqs("0010", "0011", "0100", "0101", "1010", "1100"), 6)

    def test_small_n_ladder_weight_zero(self):
        data = ladder_ends(4, 10, 0)  # the whole ladder
        low = [dataclasses.replace(data.low[0], count=2), *data.low[1:-1],
               dataclasses.replace(data.low[-1], weight=99)]
        record = verify_mod._small_n_ladder(4, data._replace(low=low))
        assert_witness(record, "fail", "2 generators of weight 0", seqs("1011", "1101"), -1)

    @pytest.mark.parametrize("members,witness", [
        (None, "00000001"),  # the level's own members, at a weight that is not theirs
        ((), "00000001"),  # no member kept: the predicted set's least
    ])
    def test_level_weight(self, members, witness):
        data = ladder_ends(8, 3, 2)
        level = dataclasses.replace(data.low[1], weight=9)
        if members is not None:
            level = dataclasses.replace(level, members=members, truncated=True)
        record = verify_level(8, 1, data=data._replace(low=[data.low[0], level, *data.low[2:]]))
        assert_witness(record, "fail", "weight 9 observed, 8 predicted",
                       seqs("00000001", "10000000", "11111111"), 8)
        assert str(record.witness.sequence) == witness

    def test_level_beyond_a_short_ladder(self):
        data = ladder_ends(2, 3, 2)
        record = verify_level(8, 3, data=data._replace(
            low=[data.low[0], dataclasses.replace(data.low[1], weight=99)]))
        assert_witness(record, "fail", "ladder has levels 0..1, level 3 undefined",
                       seqs("01", "10", "11"), 13)

    @pytest.mark.parametrize("n,row,detail,predicted", [
        (12, (FamilyName("e", 5), 1 << 5, None, 99), "e5: weight 99 observed, table says 23", 23),
        (16, (FamilyName("e", 4), 1 << 4, None, 14),
         "e4: weight 14 violates bound 29 (strict)", 29),
    ])
    def test_unit_vector(self, n, row, detail, predicted):
        record = verify_ek(n, words=[(FamilyName("e", 0), 1, n, n), row])
        assert_witness(record, "fail", detail, [BitSeq(n, row[1])], predicted)

    def test_family_weight(self):
        record = verify_family_weights(13, words=[(FamilyName("e", 0), 1, 13, 99)])
        assert_witness(record, "fail", "e0: weight 99 observed, formula gives 13",
                       [BitSeq(13, 1)], 13)

    def test_s3_max(self):
        record = verify_s3(4, three_rows=[{}, {}, {}, {0: 99}])
        assert (record.status, record.detail) == ("fail", "max three-row weight 99 exceeds 6")
        x = record.witness.sequence
        assert x in {BitSeq(4, v) for v in three_row_max(4)[1]}
        assert record.witness == Witness(x, s3(x), 6) and s3(x) == 6

    def test_golden_weight_slice(self, monkeypatch):
        w, members = verify_mod._golden_slice(5)
        monkeypatch.setattr(verify_mod, "_golden_slice",
                            lambda n: (w, members | {BitSeq.from_string("00000")}))
        record = verify_mod._golden_weight_slice(5, ladder_ends(5, 3, 2, weights=[w]))
        assert_witness(record, "fail", "6 generators at weight 7 observed, 7 expected",
                       seqs("00000"), 7)

    def test_golden_top(self):
        data = ladder_ends(6, 3, 2)
        second = dataclasses.replace(data.high[1], weight=13)
        record = verify_mod._golden_top(6, data._replace(high=[data.high[0], second]), 5)
        assert_witness(record, "fail", "(m, w, count) = (5, 13, 30) observed, "
                       "(5, 12, 30) expected", second.members, 12)

    @pytest.mark.parametrize("extra,count,detail,witness", [
        ("000000", 30, "30 members observed, 30 expected; 1 listed members missing", "000000"),
        (None, 31, "30 members observed, 31 expected; 0 listed members missing", "001001"),
    ])
    def test_golden_second_members(self, monkeypatch, extra, count, detail, witness):
        rows, summary = verify_mod._level_fixture, verify_mod._top_summary_fixture

        def listed(name):
            table = dict(rows(name))
            if extra is not None and name == "second_largest_members.txt":
                table[6, "m-1"] = (12, table[6, "m-1"][1] | set(seqs(extra)))
            return table

        monkeypatch.setattr(verify_mod, "_level_fixture", listed)
        monkeypatch.setattr(verify_mod, "_top_summary_fixture",
                            lambda: {**summary(), 6: (5, 12, count)})
        data = ladder_ends(6, 3, 2)
        at_fault = seqs(extra) if extra else data.high[1].members
        record = verify_mod._golden_second_members(6, data)
        assert_witness(record, "fail", detail, at_fault, 12)
        assert str(record.witness.sequence) == witness

    def test_weight_2n3_set_at_10(self, monkeypatch):
        stored = ("0000000000", *verify_mod._WEIGHT17_AT_10[1:])
        monkeypatch.setattr(verify_mod, "_WEIGHT17_AT_10", stored)
        record = verify_mod._weight_2n3(10, ladder_ends(10, 3, 2, weights=[17]))
        assert_witness(record, "fail", "6 generators at weight 17 observed, "
                       "the known orbit of 6 expected",
                       seqs("0000000000", verify_mod._WEIGHT17_AT_10[0]), 17)
        assert record.witness.observed == 0

    def test_weight_2n3_orbit_at_10(self, monkeypatch):
        fake = ("0000000000", "0000000001", "0000000011",
                "0000000111", "0000001111", "0000011111")  # not one orbit
        monkeypatch.setattr(verify_mod, "_WEIGHT17_AT_10", fake)
        members = tuple(sorted(seqs(*fake), key=str))
        data = LadderEnds([], [], {17: WeightSlice(10, 17, members, 6, False)}, (0, 0))
        record = verify_mod._weight_2n3(10, data)
        assert_witness(record, "fail", "the six generators do not form a single orbit",
                       members, 17)

    def test_weight_2n3_at_14(self):
        x = BitSeq(14, 1)
        data = LadderEnds([], [], {25: WeightSlice(14, 25, (x,), 1, False)}, (0, 0))
        record = verify_mod._weight_2n3(14, data)
        assert_witness(record, "fail", "1 generators at weight 25 observed, 0 expected", [x], 25)
        assert record.witness.observed == 14

    def test_sizes_start_at_one(self):
        with pytest.raises(ValueError, match="sizes start at 1"):
            verify_all(0, 4)


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

    def test_engine_limit_fails_before_any_sweep(self, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("verify_all swept before checking the engine limit")

        monkeypatch.setattr(verify_mod, "three_row_max", no_sweep)
        monkeypatch.setattr(verify_mod, "_three_row_pass", no_sweep)
        monkeypatch.setattr(verify_mod, "ladder_ends", no_sweep)
        monkeypatch.setattr(verify_mod, "ladder_ends_batch", no_sweep)
        with pytest.raises(CeilingExceeded, match="engine limit of 64"):
            verify_all(63, 65, force=True)
        code = cli.main(["verify", "--from", "63", "--to", "65", "--force"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "engine limit of 64" in captured.err

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
        # No size builds a sweep kernel: every check reads the ladder-end search,
        # asked once for the shared levels of every size and the whole ladders
        # of the small-n ladder, or the three-row DP.
        def no_kernel(*args, **kwargs):
            raise AssertionError("verify built a sweep kernel")

        searched, batches = Counter(), []
        search, batch = verify_mod.ladder_ends, verify_mod.ladder_ends_batch

        def counted(n, low, high, **kwargs):
            searched[n, low, high] += 1
            return search(n, low, high, **kwargs)

        def counted_batch(requests, **kwargs):
            batches.append(len(requests))
            for n, low, high, _ in requests:
                searched[n, low, high] += 1
            return batch(requests, **kwargs)

        monkeypatch.setattr(spectrum_mod._Kernel, "__init__", no_kernel)
        monkeypatch.setattr(verify_mod, "ladder_ends", counted)
        monkeypatch.setattr(verify_mod, "ladder_ends_batch", counted_batch)
        assert verify_all(1, 24, workers=3).ok
        assert batches == [4 + 24]
        assert {n: c for (n, low, high), c in searched.items() if (low, high) == (3, 2)} == \
            {n: 1 for n in range(1, 25)}
        whole = {n: c for (n, low, high), c in searched.items()
                 if (low, high) == (n * (n + 1) // 2, 0)}
        assert whole == Counter(range(1, 5))

    def test_larger_sizes_read_the_search(self, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("verify built a sweep kernel")

        searched = []
        batch = verify_mod.ladder_ends_batch

        def counted(requests, **kwargs):
            searched.extend(n for n, *_ in requests)
            return batch(requests, **kwargs)

        monkeypatch.setattr(spectrum_mod._Kernel, "__init__", no_kernel)
        monkeypatch.setattr(verify_mod, "ladder_ends_batch", counted)
        assert verify_all(15, 18).ok
        assert set(range(15, 19)) <= set(searched)

    def test_worker_count_is_checked(self):
        with pytest.raises(ValueError, match="worker count must be positive"):
            verify_all(4, 5, workers=0)

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

    def test_records_carry_the_shared_search(self, monkeypatch):
        batch = verify_mod.ladder_ends_batch

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return batch(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "ladder_ends_batch", slow)
        for n_max in (9, 11):
            report = verify_all(9, n_max)
            # the checks at n = 9..11 take a few ms each: the search of all
            # sizes, 200 ms, is charged to one record, of the first size
            slowest = max(report.records, key=lambda r: r.elapsed)
            assert slowest.n == 9 and slowest.elapsed >= 0.2
            assert sum(r.elapsed for r in report.records) - slowest.elapsed < 0.2

    @pytest.mark.parametrize("check", [verify_level, verify_small_n, verify_ek,
                                       verify_family_weights, verify_s3, check_conjecture])
    def test_wrapped_checks_keep_their_names(self, check):
        assert inspect.isfunction(check)
        assert check.__module__ == "steinhaus.verify"
        assert getattr(verify_mod, check.__name__) is check
        assert "CheckRecord" in inspect.signature(check).return_annotation

    def test_each_record_is_built_once(self, monkeypatch):
        built = []

        class Counted(CheckRecord):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "CheckRecord", Counted)
        report = verify_all(4, 24)
        # two records take on shared time, by a copy: the first small-n record
        # and the first record of the lowest size
        assert len(built) == len(report.records) + 2
        assert all(type(r) is Counted for r in report.records)


class TestCheckTable:
    @pytest.mark.parametrize("row", verify_mod._CHECKS, ids=PER_N_CHECKS)
    def test_each_row_runs_a_check_of_its_name(self, row):
        n = next(n for n in range(4, 25) if row.applies(n))
        data = ladder_ends(n, 3, 2, weights=[row.weight(n)] if row.weight else ())
        assert row.run(n, data, verify_mod._passes([n])).check == row.name

    def test_lone_calls_return_their_table_names(self):
        lone = {
            "level-1": verify_level(9, 1), "level-2": verify_level(9, "2"),
            "level-3": verify_level(9, "3"), "level-m": verify_level(9, " M "),
            "level-m-1": verify_level(n=10, level="m-1"),
            "conjecture": check_conjecture(11), "family-weights": verify_family_weights(9),
            "unit-vector-bound": verify_ek(9), "s3-bound": verify_s3(9),
        }
        assert set(lone) <= set(PER_N_CHECKS)
        assert {name: r.check for name, r in lone.items()} == {name: name for name in lone}
        assert {r.check for r in verify_small_n()} == {"small-n-ladder"}

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
