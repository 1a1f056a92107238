"""Regression ladder: every closed-form prediction checked against enumeration.

Each check compares a predicted weight (and, where known, the exact generator
set) with what brute-force enumeration finds, and yields one record with a
terminal status. Failures always carry a witness generator whose re-evaluated
weight reproduces the reported observation. Conjecture checks report
``conjecture-confirmed`` / ``conjecture-refuted`` instead of pass/fail, so a
counterexample surfaces as a finding rather than aborting the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .bitseq import BitSeq
from .families import (
    FamilyName,
    FamilyRangeError,
    NoClosedFormError,
    UncoveredLevelError,
    all_families,
    family_seq,
    normalize_level,
    predicted_level,
    predicted_triangle_weight,
)
from .spectrum import (
    CeilingExceeded,
    WeightSlice,
    WeightSpectrum,
    _check_size,
    _Kernel,
    enumeration_ceiling,
    level_sets,
)
from .symmetry import orbit
from .triangle import triangle_weight

S3_CEILING = 20
_GOLDEN_SLICE_SIZES = range(4, 9)  # rows of weight_slice_floor_3n_over_2.txt
_WEIGHT_2N3_SIZES = (10, 14)

PER_N_CHECKS = (
    "level-1",
    "level-2",
    "level-3",
    "level-m",
    "level-m-1",
    "conjecture",
    "family-weights",
    "unit-vector-bound",
    "s3-bound",
    "golden-level-2",
    "golden-weight-slice",
    "golden-top-levels",
    "golden-second-max-members",
    "golden-second-max-sets",
    "weight-2n-3",
)

# Equality sets of the three-row weight bound s3 <= 2n-2 at n = 4 and 5.
_S3_EQUALITY = {
    4: ("1101", "0110", "1011", "1001"),
    5: ("11011", "01101", "10110", "10011", "11001"),
}

# The six equivalent generators of weight 2n-3 = 17 at n = 10.
_WEIGHT17_AT_10 = (
    "0001000000", "0000001100", "0010001000",
    "0000001000", "0011000000", "0001000100",
)


@dataclass(frozen=True)
class Witness:
    """A concrete generator plus the observed/predicted values it separates."""

    sequence: BitSeq
    observed: int
    predicted: int


@dataclass(frozen=True)
class CheckRecord:
    check: str
    n: int
    status: str  # pass | fail | conjecture-confirmed | conjecture-refuted | skipped
    detail: str = ""
    witness: Witness | None = None
    elapsed: float = 0.0

    def key(self) -> tuple:
        """Everything except timing; reports are idempotent modulo elapsed."""
        return (self.check, self.n, self.status, self.detail, self.witness)


@dataclass(frozen=True)
class VerificationReport:
    n_min: int
    n_max: int
    records: tuple[CheckRecord, ...]

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.status == "fail")

    @property
    def refutations(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.status == "conjecture-refuted")

    @property
    def exit_code(self) -> int:
        if self.failures:
            return 1
        if self.refutations:
            return 3
        return 0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


# ---------------------------------------------------------------------------
# fixtures

def _fixture_rows(name: str):
    text = (resources.files(__package__) / "fixtures" / name).read_text()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line.split()


def _level_fixture(name: str) -> dict[tuple[int, str], tuple[int, frozenset[BitSeq]]]:
    out = {}
    for row in _fixture_rows(name):
        n, level, w = int(row[0]), row[1], int(row[2])
        out[(n, level)] = (w, frozenset(BitSeq.from_string(s) for s in row[3:]))
    return out


def _unit_vector_fixture() -> dict[tuple[int, int], int]:
    return {(int(n), int(k)): int(w)
            for n, k, w in _fixture_rows("unit_vector_weights.txt")}


def _top_summary_fixture() -> dict[int, tuple[int, int, int]]:
    return {int(n): (int(m), int(w), int(c))
            for n, m, w, c in _fixture_rows("top_level_summary.txt")}


# ---------------------------------------------------------------------------
# shared per-n enumeration data

@dataclass(frozen=True)
class _EnumData:
    spectrum: WeightSpectrum
    sets: dict[int, tuple[frozenset[BitSeq], int]]  # ladder index -> (members, count)
    slices: dict[int, WeightSlice]  # the exact weights the spot checks read
    golden_slice: tuple[int, frozenset[BitSeq]] | None  # expected golden-weight-slice row

    def at(self, index: int) -> tuple[int, frozenset[BitSeq], int]:
        members, count = self.sets[index]
        return self.spectrum.levels[index], members, count


def _enum_data(n: int, workers: int | None, spot_checks: bool = False) -> _EnumData:
    """Levels 0..3, m-1 and m (clamped to the ladder), plus with ``spot_checks``
    the exact-weight slices those checks read, all from one enumeration of size n."""
    weights, golden = [], None
    if spot_checks and n in _WEIGHT_2N3_SIZES:
        weights.append(2 * n - 3)
    if spot_checks and n in _GOLDEN_SLICE_SIZES:
        golden = _level_fixture("weight_slice_floor_3n_over_2.txt")[(n, "-")]
        weights.append(golden[0])
    sweep = level_sets(n, 3, 2, weights=weights, workers=workers)
    sets = {ls.index: (frozenset(ls.members), ls.count) for ls in sweep.low + sweep.high}
    return _EnumData(sweep.spectrum, sets, sweep.slices, golden)


def _set_witness(observed_w: int, observed: frozenset[BitSeq],
                 predicted_w: int, predicted: frozenset[BitSeq]) -> Witness:
    diff = sorted(observed ^ predicted, key=str) or sorted(observed | predicted, key=str)
    x = diff[0]
    return Witness(x, triangle_weight(x), predicted_w)


def _compare_level(check: str, n: int, t0: float, observed_w: int,
                   observed: frozenset[BitSeq], observed_count: int,
                   predicted_w: int, predicted: frozenset[BitSeq],
                   conjecture: bool = False, note: str = "") -> CheckRecord:
    ok_status = "conjecture-confirmed" if conjecture else "pass"
    bad_status = "conjecture-refuted" if conjecture else "fail"
    if observed_w != predicted_w:
        pick = sorted(observed, key=str)
        witness = Witness(pick[0], observed_w, predicted_w) if pick else \
            _set_witness(observed_w, observed, predicted_w, predicted)
        detail = f"weight {observed_w} observed, {predicted_w} predicted"
        return CheckRecord(check, n, bad_status, detail, witness,
                           time.perf_counter() - t0)
    if observed != predicted or observed_count != len(predicted):
        witness = _set_witness(observed_w, observed, predicted_w, predicted)
        detail = (f"member set mismatch at weight {predicted_w}: "
                  f"{observed_count} observed vs {len(predicted)} predicted")
        return CheckRecord(check, n, bad_status, detail, witness,
                           time.perf_counter() - t0)
    detail = f"weight {predicted_w}, {len(predicted)} generators{note}"
    return CheckRecord(check, n, ok_status, detail, None, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# individual checks

def verify_level(n: int, level, *, workers: int | None = None,
                 data: _EnumData | None = None) -> CheckRecord:
    """Compare one predicted ladder level (weight and set) with enumeration."""
    token = normalize_level(level)
    check = f"level-{token}"
    t0 = time.perf_counter()
    try:
        prediction = predicted_level(token, n)
    except UncoveredLevelError as exc:
        return CheckRecord(check, n, "skipped", str(exc),
                           elapsed=time.perf_counter() - t0)
    if data is None:
        data = _enum_data(n, workers)
    m = data.spectrum.m
    index = {"1": 1, "2": 2, "3": 3, "m": m, "m-1": m - 1}[token]
    if not 0 <= index <= m:
        pick = sorted(data.sets[m][0], key=str)[0]
        return CheckRecord(check, n, "fail",
                           f"ladder has levels 0..{m}, level {token} undefined",
                           Witness(pick, data.spectrum.levels[m], prediction.value),
                           time.perf_counter() - t0)
    observed_w, observed, observed_count = data.at(index)
    return _compare_level(check, n, t0, observed_w, observed, observed_count,
                          prediction.value, prediction.member_set,
                          conjecture=prediction.status == "conjecture")


def verify_small_n(*, workers: int | None = None) -> list[CheckRecord]:
    """Full-ladder equality for n in {1, 2, 3, 4} against the stored ladders."""
    fixture = _level_fixture("small_n_levels.txt")
    records = []
    for n in (1, 2, 3, 4):
        t0 = time.perf_counter()
        expected = {lvl: fixture[(nn, lvl)] for nn, lvl in fixture if nn == n}
        data = _enum_data(n, workers)
        spectrum = data.spectrum
        bad = None
        if spectrum.m != len(expected):
            bad = f"ladder height {spectrum.m} observed, {len(expected)} expected"
        elif spectrum.counts[0] != 1:
            bad = f"{spectrum.counts[0]} generators of weight 0"
        if bad is None:
            for i in range(1, spectrum.m + 1):
                w_exp, set_exp = expected[str(i)]
                observed_w, observed, observed_count = data.at(i)
                rec = _compare_level("small-n-ladder", n, t0, observed_w, observed,
                                     observed_count, w_exp, set_exp)
                if rec.status != "pass":
                    records.append(rec)
                    break
            else:
                records.append(CheckRecord(
                    "small-n-ladder", n, "pass",
                    f"all {spectrum.m} levels match", None,
                    time.perf_counter() - t0))
            continue
        pick = sorted(data.sets[spectrum.m][0], key=str)[0]
        records.append(CheckRecord(
            "small-n-ladder", n, "fail", bad,
            Witness(pick, triangle_weight(pick), -1), time.perf_counter() - t0))
    return records


def verify_ek(n: int) -> CheckRecord:
    """Unit-vector weights: exact table values for 9 <= n <= 15 and the
    2n-3 lower bound (strict for even n) for every central k."""
    t0 = time.perf_counter()
    if n < 9:
        return CheckRecord("unit-vector-bound", n, "skipped",
                           "bound applies for n >= 9",
                           elapsed=time.perf_counter() - t0)
    table = _unit_vector_fixture()
    bound = 2 * n - 3
    checked = 0
    for k in range(4, (n - 1) // 2 + 1):
        x = family_seq(FamilyName("e", k), n)
        w = triangle_weight(x)
        expected = table.get((n, k))
        if expected is not None and w != expected:
            return CheckRecord("unit-vector-bound", n, "fail",
                               f"e{k}: weight {w} observed, table says {expected}",
                               Witness(x, w, expected), time.perf_counter() - t0)
        if w < bound or (n % 2 == 0 and w == bound):
            strict = " (strict)" if n % 2 == 0 else ""
            return CheckRecord("unit-vector-bound", n, "fail",
                               f"e{k}: weight {w} violates bound {bound}{strict}",
                               Witness(x, w, bound), time.perf_counter() - t0)
        checked += 1
    return CheckRecord("unit-vector-bound", n, "pass",
                       f"{checked} unit vectors satisfy the bound", None,
                       time.perf_counter() - t0)


def verify_family_weights(n: int) -> CheckRecord:
    """Every closed-form family weight at this length against direct computation."""
    t0 = time.perf_counter()
    checked = 0
    for f in all_families(n):
        try:
            predicted = predicted_triangle_weight(f, n)
        except (NoClosedFormError, FamilyRangeError):
            continue
        x = family_seq(f, n)
        w = triangle_weight(x)
        if w != predicted:
            return CheckRecord("family-weights", n, "fail",
                               f"{f}: weight {w} observed, formula gives {predicted}",
                               Witness(x, w, predicted), time.perf_counter() - t0)
        checked += 1
    if not checked:
        return CheckRecord("family-weights", n, "skipped",
                           "no closed forms at this length",
                           elapsed=time.perf_counter() - t0)
    return CheckRecord("family-weights", n, "pass",
                       f"{checked} closed forms match", None,
                       time.perf_counter() - t0)


def _s3_scan(n: int):
    """Exhaustive max of the three-row weight, plus its attaining lanes.

    The top three rows are the first 3n-3 packed triangle bits, so the weight
    kernel restricted to those bits gives s3 for a whole block at once.
    """
    kernel = _Kernel(n, bits=3 * n - 3)
    best = 0
    arg: list[int] = []
    for first, s in kernel.weights(0, kernel.blocks):
        top = int(s.max())
        if top > best:
            best, arg = top, []
        if top == best:
            arg.extend((np.flatnonzero(s == best) + first).tolist())
    return best, arg


def verify_s3(n: int, *, ceiling: int = S3_CEILING) -> CheckRecord:
    """Exhaustive bound s3(x) <= 2n-2, with exact equality sets at n in {4, 5}."""
    t0 = time.perf_counter()
    if not 4 <= n <= ceiling:
        return CheckRecord("s3-bound", n, "skipped",
                           f"checked for 4 <= n <= {ceiling}",
                           elapsed=time.perf_counter() - t0)
    best, arg = _s3_scan(n)
    bound = 2 * n - 2
    if best > bound:
        x = BitSeq(n, arg[0])
        return CheckRecord("s3-bound", n, "fail",
                           f"max three-row weight {best} exceeds {bound}",
                           Witness(x, best, bound), time.perf_counter() - t0)
    detail = f"max three-row weight {best} <= {bound}"
    if n in _S3_EQUALITY:
        expected = frozenset(BitSeq.from_string(s) for s in _S3_EQUALITY[n])
        observed = frozenset(BitSeq(n, v) for v in arg)
        if best != bound or observed != expected:
            diff = sorted(observed ^ expected, key=str)[0]
            return CheckRecord(
                "s3-bound", n, "fail",
                f"equality set mismatch: {len(observed)} at {best} observed, "
                f"{len(expected)} at {bound} expected",
                Witness(diff, best, bound), time.perf_counter() - t0)
        detail += f"; equality set of size {len(expected)} matches"
    return CheckRecord("s3-bound", n, "pass", detail, None,
                       time.perf_counter() - t0)


def check_conjecture(n: int, *, workers: int | None = None,
                     data: _EnumData | None = None) -> CheckRecord:
    """Test whether level m-1 equals the conjectured set at weight ceil(n^2/3)."""
    if n < 11 or n % 3 == 1:
        raise ValueError("conjecture applies for n >= 11 with n == 0,2 (mod 3)")
    _check_size(n, False)
    t0 = time.perf_counter()
    prediction = predicted_level("m-1", n)
    if data is None:
        data = _enum_data(n, workers)
    observed_w, observed, observed_count = data.at(data.spectrum.m - 1)
    return _compare_level("conjecture", n, t0, observed_w, observed,
                          observed_count, prediction.value,
                          prediction.member_set, conjecture=True)


# ---------------------------------------------------------------------------
# golden-table checks

def _golden_level2(n: int, data: _EnumData, t0: float) -> CheckRecord:
    fixture = _level_fixture("second_level_sets.txt")
    w_exp, set_exp = fixture[(n, "2")]
    observed_w, observed, observed_count = data.at(2)
    return _compare_level("golden-level-2", n, t0, observed_w, observed,
                          observed_count, w_exp, set_exp)


def _golden_weight_slice(n: int, data: _EnumData, t0: float) -> CheckRecord:
    w, set_exp = data.golden_slice
    got = data.slices[w]
    observed = frozenset(got.members)
    if observed != set_exp or got.count != len(set_exp):
        witness = _set_witness(w, observed, w, set_exp)
        return CheckRecord("golden-weight-slice", n, "fail",
                           f"{got.count} generators at weight {w} observed, "
                           f"{len(set_exp)} expected",
                           witness, time.perf_counter() - t0)
    return CheckRecord("golden-weight-slice", n, "pass",
                       f"{got.count} generators at weight {w}", None,
                       time.perf_counter() - t0)


def _golden_top(n: int, data: _EnumData, t0: float) -> CheckRecord:
    m_exp, w_exp, count_exp = _top_summary_fixture()[n]
    spectrum = data.spectrum
    observed_w, observed, observed_count = data.at(spectrum.m - 1)
    observed_triple = (spectrum.m, observed_w, observed_count)
    if observed_triple != (m_exp, w_exp, count_exp):
        pick = sorted(observed, key=str)[0]
        return CheckRecord("golden-top-levels", n, "fail",
                           f"(m, w, count) = {observed_triple} observed, "
                           f"({m_exp}, {w_exp}, {count_exp}) expected",
                           Witness(pick, observed_w, w_exp),
                           time.perf_counter() - t0)
    return CheckRecord("golden-top-levels", n, "pass",
                       f"(m, w, count) = {observed_triple}", None,
                       time.perf_counter() - t0)


def _golden_second_members(n: int, data: _EnumData, t0: float) -> CheckRecord:
    _, set_exp = _level_fixture("second_largest_members.txt")[(n, "m-1")]
    _, _, count_exp = _top_summary_fixture()[n]
    observed_w, observed, observed_count = data.at(data.spectrum.m - 1)
    missing = set_exp - observed
    if missing or observed_count != count_exp:
        witness_seq = sorted(missing or observed ^ set_exp or observed, key=str)[0]
        return CheckRecord("golden-second-max-members", n, "fail",
                           f"{observed_count} members observed, {count_exp} expected; "
                           f"{len(missing)} listed members missing",
                           Witness(witness_seq, triangle_weight(witness_seq), observed_w),
                           time.perf_counter() - t0)
    note = ""
    extras = sorted(observed - set_exp, key=str)
    if extras:
        note = ("; enumeration found members beyond the stored list: "
                + " ".join(map(str, extras)))
    return CheckRecord("golden-second-max-members", n, "pass",
                       f"all {len(set_exp)} listed members present{note}", None,
                       time.perf_counter() - t0)


def _golden_second_sets(n: int, data: _EnumData, t0: float) -> CheckRecord:
    w_exp, set_exp = _level_fixture("second_largest_sets_11_12.txt")[(n, "m-1")]
    observed_w, observed, observed_count = data.at(data.spectrum.m - 1)
    return _compare_level("golden-second-max-sets", n, t0, observed_w, observed,
                          observed_count, w_exp, set_exp)


def _weight_2n3(n: int, data: _EnumData, t0: float) -> CheckRecord:
    w = 2 * n - 3
    got = data.slices[w]
    if n == 10:
        expected = frozenset(BitSeq.from_string(s) for s in _WEIGHT17_AT_10)
        observed = frozenset(got.members)
        if got.count != 6 or observed != expected:
            witness = _set_witness(w, observed, w, expected)
            return CheckRecord("weight-2n-3", n, "fail",
                               f"{got.count} generators at weight {w} observed, "
                               "the known orbit of 6 expected",
                               witness, time.perf_counter() - t0)
        if frozenset(orbit(got.members[0]).members) != expected:
            return CheckRecord("weight-2n-3", n, "fail",
                               "the six generators do not form a single orbit",
                               Witness(got.members[0], w, w),
                               time.perf_counter() - t0)
        return CheckRecord("weight-2n-3", n, "pass",
                           f"exactly 6 generators at weight {w}, one orbit",
                           None, time.perf_counter() - t0)
    if got.count != 0:
        x = got.members[0]
        return CheckRecord("weight-2n-3", n, "fail",
                           f"{got.count} generators at weight {w} observed, 0 expected",
                           Witness(x, w, w), time.perf_counter() - t0)
    return CheckRecord("weight-2n-3", n, "pass",
                       f"no generator has weight {w}", None,
                       time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# the full ladder

def _skip(check: str, n: int, reason: str, t0: float) -> CheckRecord:
    return CheckRecord(check, n, "skipped", reason,
                       elapsed=time.perf_counter() - t0)


def _per_n_records(n: int, workers: int | None, s3_ceiling: int) -> list[CheckRecord]:
    data = _enum_data(n, workers, spot_checks=True)
    records = []
    for token in ("1", "2", "3", "m"):
        records.append(verify_level(n, token, data=data))
    t0 = time.perf_counter()
    if n >= 11 and n % 3 != 1:
        records.append(_skip("level-m-1", n,
                             "conjectured range; evaluated by the conjecture check", t0))
        records.append(check_conjecture(n, data=data))
    else:
        records.append(verify_level(n, "m-1", data=data))
        records.append(_skip("conjecture", n,
                             "conjecture applies for n >= 11 with n == 0,2 (mod 3)",
                             time.perf_counter()))
    records.append(verify_family_weights(n))
    records.append(verify_ek(n))
    records.append(verify_s3(n, ceiling=s3_ceiling))

    t0 = time.perf_counter()
    if n in _GOLDEN_SLICE_SIZES:
        records.append(_golden_level2(n, data, t0))
        records.append(_golden_weight_slice(n, data, time.perf_counter()))
    else:
        records.append(_skip("golden-level-2", n, "stored rows cover 4 <= n <= 8", t0))
        records.append(_skip("golden-weight-slice", n,
                             "stored rows cover 4 <= n <= 8", time.perf_counter()))
    t0 = time.perf_counter()
    if 4 <= n <= 9:
        records.append(_golden_top(n, data, t0))
        records.append(_golden_second_members(n, data, time.perf_counter()))
    else:
        records.append(_skip("golden-top-levels", n, "stored rows cover 4 <= n <= 9", t0))
        records.append(_skip("golden-second-max-members", n,
                             "stored rows cover 4 <= n <= 9", time.perf_counter()))
    t0 = time.perf_counter()
    if n in (11, 12):
        records.append(_golden_second_sets(n, data, t0))
    else:
        records.append(_skip("golden-second-max-sets", n,
                             "stored rows cover n in {11, 12}", t0))
    t0 = time.perf_counter()
    if n in _WEIGHT_2N3_SIZES:
        records.append(_weight_2n3(n, data, t0))
    else:
        records.append(_skip("weight-2n-3", n,
                             "spot check defined for n in {10, 14}", t0))
    return records


def verify_all(n_min: int, n_max: int, *, workers: int | None = None,
               s3_ceiling: int = S3_CEILING) -> VerificationReport:
    """Run the small-n ladder once plus every applicable check for each n."""
    if n_min > n_max:
        raise ValueError("empty range")
    if n_min < 1:
        raise ValueError("sizes start at 1")
    ceiling = enumeration_ceiling()
    if n_max > ceiling:
        raise CeilingExceeded(f"n_max={n_max} exceeds the enumeration ceiling {ceiling}")
    records = verify_small_n(workers=workers)
    for n in range(n_min, n_max + 1):
        records.extend(_per_n_records(n, workers, s3_ceiling))
    records.sort(key=lambda r: (r.n, r.check))
    return VerificationReport(n_min, n_max, tuple(records))
