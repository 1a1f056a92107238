"""Regression ladder: every closed-form prediction checked against enumeration.

Each check compares a predicted weight (and, where known, the exact generator
set) with what brute-force enumeration finds, and yields one record with a
terminal status. Failures always carry a witness generator whose re-evaluated
weight reproduces the reported observation. Conjecture checks report
``conjecture-confirmed`` / ``conjecture-refuted`` instead of pass/fail, so a
counterexample surfaces as a finding rather than aborting the run.

The per-size checks of ``verify_all`` are one table, ``_CHECKS``: a row names
a check, the sizes it applies to, its skip reason, how it runs on the size's
one ``LevelSweep`` and any exact weight it reads there. Checks read levels by
their offset from an end of the ladder: W_1..W_3 are ``sweep.low[1..3]``, and
W_m and W_{m-1} are ``sweep.high[0]`` and ``sweep.high[1]``, so only a ladder
too short for a level and the stored top-level summary need the height m. The
small-n ladder (n <= 4) sweeps the whole ladder instead. The ``_timed``
decorator stamps each check's wall time on the record it returns.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from importlib import resources
from typing import NamedTuple

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
    LevelSet,
    LevelSweep,
    enumeration_ceiling,
    level_sets,
    three_row_max,
)
from .symmetry import orbit
from .triangle import triangle_weight

S3_CEILING = 20

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

@functools.cache
def _fixture_rows(name: str) -> tuple[tuple[str, ...], ...]:
    text = (resources.files(__package__) / "fixtures" / name).read_text()
    lines = (line.strip() for line in text.splitlines())
    return tuple(tuple(line.split()) for line in lines
                 if line and not line.startswith("#"))


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


def _golden_slice(n: int) -> tuple[int, frozenset[BitSeq]]:
    return _level_fixture("weight_slice_floor_3n_over_2.txt")[(n, "-")]


# ---------------------------------------------------------------------------
# shared per-n enumeration

def _enum_data(n: int, workers: int | None, weights=(), force: bool = False) -> LevelSweep:
    """Levels 0..3, m-1 and m (clamped to the ladder) and the generators of
    each exact weight in ``weights``, all from one enumeration of size n."""
    return level_sets(n, 3, 2, weights=weights, workers=workers, force=force)


def _timed(check):
    """Stamp the wall time of each call on the record the check returns."""
    @functools.wraps(check)
    def timed(*args, **kwargs) -> CheckRecord:
        t0 = time.perf_counter()
        record = check(*args, **kwargs)
        return replace(record, elapsed=time.perf_counter() - t0)
    return timed


def _set_witness(observed_w: int, observed: frozenset[BitSeq],
                 predicted_w: int, predicted: frozenset[BitSeq]) -> Witness:
    x = min(observed ^ predicted or observed | predicted, key=str)
    return Witness(x, triangle_weight(x), predicted_w)


def _compare_level(check: str, n: int, level: LevelSet,
                   predicted_w: int, predicted: frozenset[BitSeq],
                   conjecture: bool = False) -> CheckRecord:
    ok_status = "conjecture-confirmed" if conjecture else "pass"
    bad_status = "conjecture-refuted" if conjecture else "fail"
    observed_w, observed = level.weight, frozenset(level.members)
    if observed_w != predicted_w:
        pick = sorted(observed, key=str)
        witness = Witness(pick[0], observed_w, predicted_w) if pick else \
            _set_witness(observed_w, observed, predicted_w, predicted)
        detail = f"weight {observed_w} observed, {predicted_w} predicted"
        return CheckRecord(check, n, bad_status, detail, witness)
    if observed != predicted or level.count != len(predicted):
        witness = _set_witness(observed_w, observed, predicted_w, predicted)
        detail = (f"member set mismatch at weight {predicted_w}: "
                  f"{level.count} observed vs {len(predicted)} predicted")
        return CheckRecord(check, n, bad_status, detail, witness)
    return CheckRecord(check, n, ok_status,
                       f"weight {predicted_w}, {len(predicted)} generators")


# ---------------------------------------------------------------------------
# individual checks

@_timed
def verify_level(n: int, level, *, workers: int | None = None,
                 data: LevelSweep | None = None) -> CheckRecord:
    """Compare one predicted ladder level (weight and set) with enumeration."""
    token = normalize_level(level)
    check = f"level-{token}"
    try:
        prediction = predicted_level(token, n)
    except UncoveredLevelError as exc:
        return CheckRecord(check, n, "skipped", str(exc))
    if data is None:
        data = _enum_data(n, workers)
    end, offset = {"1": (data.low, 1), "2": (data.low, 2), "3": (data.low, 3),
                   "m": (data.high, 0), "m-1": (data.high, 1)}[token]
    if offset >= len(end):
        top = data.high[0]
        pick = sorted(top.members, key=str)[0]
        return CheckRecord(check, n, "fail",
                           f"ladder has levels 0..{top.index}, level {token} undefined",
                           Witness(pick, top.weight, prediction.value))
    return _compare_level(check, n, end[offset], prediction.value, prediction.member_set,
                          conjecture=prediction.status == "conjecture")


@_timed
def _small_n_ladder(n: int, workers: int | None) -> CheckRecord:
    fixture = _level_fixture("small_n_levels.txt")
    expected = {lvl: row for (nn, lvl), row in fixture.items() if nn == n}
    sweep = level_sets(n, n * (n + 1) // 2, 0, workers=workers)  # the whole ladder
    spectrum = sweep.spectrum
    bad = None
    if spectrum.m != len(expected):
        bad = f"ladder height {spectrum.m} observed, {len(expected)} expected"
    elif spectrum.counts[0] != 1:
        bad = f"{spectrum.counts[0]} generators of weight 0"
    if bad is not None:
        pick = sorted(sweep.low[-1].members, key=str)[0]  # a generator of W_m
        return CheckRecord("small-n-ladder", n, "fail", bad,
                           Witness(pick, triangle_weight(pick), -1))
    for level in sweep.low[1:]:
        record = _compare_level("small-n-ladder", n, level, *expected[str(level.index)])
        if record.status != "pass":
            return record
    return CheckRecord("small-n-ladder", n, "pass", f"all {spectrum.m} levels match")


def verify_small_n(*, workers: int | None = None) -> list[CheckRecord]:
    """Full-ladder equality for n in {1, 2, 3, 4} against the stored ladders."""
    return [_small_n_ladder(n, workers) for n in (1, 2, 3, 4)]


@_timed
def verify_ek(n: int) -> CheckRecord:
    """Unit-vector weights: exact table values for 9 <= n <= 15 and the
    2n-3 lower bound (strict for even n) for every central k."""
    if n < 9:
        return CheckRecord("unit-vector-bound", n, "skipped", "bound applies for n >= 9")
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
                               Witness(x, w, expected))
        if w < bound or (n % 2 == 0 and w == bound):
            strict = " (strict)" if n % 2 == 0 else ""
            return CheckRecord("unit-vector-bound", n, "fail",
                               f"e{k}: weight {w} violates bound {bound}{strict}",
                               Witness(x, w, bound))
        checked += 1
    return CheckRecord("unit-vector-bound", n, "pass",
                       f"{checked} unit vectors satisfy the bound")


@_timed
def verify_family_weights(n: int) -> CheckRecord:
    """Every closed-form family weight at this length against direct computation."""
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
                               Witness(x, w, predicted))
        checked += 1
    if not checked:
        return CheckRecord("family-weights", n, "skipped", "no closed forms at this length")
    return CheckRecord("family-weights", n, "pass", f"{checked} closed forms match")


@_timed
def verify_s3(n: int, *, ceiling: int = S3_CEILING) -> CheckRecord:
    """Exhaustive bound s3(x) <= 2n-2, with exact equality sets at n in {4, 5}.

    ``ceiling`` bounds the sizes scanned, in place of the enumeration ceiling.
    """
    if not 4 <= n <= ceiling:
        return CheckRecord("s3-bound", n, "skipped", f"checked for 4 <= n <= {ceiling}")
    best, arg = three_row_max(n, force=True)
    bound = 2 * n - 2
    if best > bound:
        return CheckRecord("s3-bound", n, "fail",
                           f"max three-row weight {best} exceeds {bound}",
                           Witness(BitSeq(n, arg[0]), best, bound))
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
                Witness(diff, best, bound))
        detail += f"; equality set of size {len(expected)} matches"
    return CheckRecord("s3-bound", n, "pass", detail)


_CONJECTURE_RANGE = "conjecture applies for n >= 11 with n == 0,2 (mod 3)"


def _conjectured(n: int) -> bool:
    """Sizes where level m-1 is conjectured (see ``_CONJECTURE_RANGE``)."""
    return n >= 11 and n % 3 != 1


@_timed
def check_conjecture(n: int, *, workers: int | None = None,
                     data: LevelSweep | None = None) -> CheckRecord:
    """Test whether level m-1 equals the conjectured set at weight ceil(n^2/3)."""
    if not _conjectured(n):
        raise ValueError(_CONJECTURE_RANGE)
    if data is None:
        data = _enum_data(n, workers)
    prediction = predicted_level("m-1", n)
    return _compare_level("conjecture", n, data.high[1],
                          prediction.value, prediction.member_set, conjecture=True)


# ---------------------------------------------------------------------------
# golden-table checks

@_timed
def _golden_level2(n: int, data: LevelSweep) -> CheckRecord:
    return _compare_level("golden-level-2", n, data.low[2],
                          *_level_fixture("second_level_sets.txt")[(n, "2")])


@_timed
def _golden_weight_slice(n: int, data: LevelSweep) -> CheckRecord:
    w, set_exp = _golden_slice(n)
    got = data.slices[w]
    observed = frozenset(got.members)
    if observed != set_exp or got.count != len(set_exp):
        return CheckRecord("golden-weight-slice", n, "fail",
                           f"{got.count} generators at weight {w} observed, "
                           f"{len(set_exp)} expected",
                           _set_witness(w, observed, w, set_exp))
    return CheckRecord("golden-weight-slice", n, "pass",
                       f"{got.count} generators at weight {w}")


@_timed
def _golden_top(n: int, data: LevelSweep) -> CheckRecord:
    m_exp, w_exp, count_exp = _top_summary_fixture()[n]
    second = data.high[1]
    observed_triple = (data.high[0].index, second.weight, second.count)
    if observed_triple != (m_exp, w_exp, count_exp):
        pick = sorted(second.members, key=str)[0]
        return CheckRecord("golden-top-levels", n, "fail",
                           f"(m, w, count) = {observed_triple} observed, "
                           f"({m_exp}, {w_exp}, {count_exp}) expected",
                           Witness(pick, second.weight, w_exp))
    return CheckRecord("golden-top-levels", n, "pass", f"(m, w, count) = {observed_triple}")


@_timed
def _golden_second_members(n: int, data: LevelSweep) -> CheckRecord:
    _, set_exp = _level_fixture("second_largest_members.txt")[(n, "m-1")]
    _, _, count_exp = _top_summary_fixture()[n]
    second = data.high[1]
    observed = frozenset(second.members)
    missing = set_exp - observed
    if missing or second.count != count_exp:
        witness_seq = sorted(missing or observed ^ set_exp or observed, key=str)[0]
        return CheckRecord("golden-second-max-members", n, "fail",
                           f"{second.count} members observed, {count_exp} expected; "
                           f"{len(missing)} listed members missing",
                           Witness(witness_seq, triangle_weight(witness_seq), second.weight))
    extras = " ".join(map(str, sorted(observed - set_exp, key=str)))
    note = f"; enumeration found members beyond the stored list: {extras}" if extras else ""
    return CheckRecord("golden-second-max-members", n, "pass",
                       f"all {len(set_exp)} listed members present{note}")


@_timed
def _golden_second_sets(n: int, data: LevelSweep) -> CheckRecord:
    return _compare_level("golden-second-max-sets", n, data.high[1],
                          *_level_fixture("second_largest_sets_11_12.txt")[(n, "m-1")])


@_timed
def _weight_2n3(n: int, data: LevelSweep) -> CheckRecord:
    w = 2 * n - 3
    got = data.slices[w]
    if n == 10:
        expected = frozenset(BitSeq.from_string(s) for s in _WEIGHT17_AT_10)
        observed = frozenset(got.members)
        if got.count != 6 or observed != expected:
            return CheckRecord("weight-2n-3", n, "fail",
                               f"{got.count} generators at weight {w} observed, "
                               "the known orbit of 6 expected",
                               _set_witness(w, observed, w, expected))
        if frozenset(orbit(got.members[0]).members) != expected:
            return CheckRecord("weight-2n-3", n, "fail",
                               "the six generators do not form a single orbit",
                               Witness(got.members[0], w, w))
        return CheckRecord("weight-2n-3", n, "pass",
                           f"exactly 6 generators at weight {w}, one orbit")
    if got.count != 0:
        return CheckRecord("weight-2n-3", n, "fail",
                           f"{got.count} generators at weight {w} observed, 0 expected",
                           Witness(got.members[0], w, w))
    return CheckRecord("weight-2n-3", n, "pass", f"no generator has weight {w}")


# ---------------------------------------------------------------------------
# the full ladder

class _Check(NamedTuple):
    """A per-size check, run where ``applies(n)`` and skipped with ``skip``
    elsewhere; ``weight(n)`` is an exact weight whose generators it reads."""

    name: str
    applies: Callable[[int], bool]
    skip: str
    run: Callable[[int, LevelSweep], CheckRecord]
    weight: Callable[[int], int] | None = None


def _every(n: int) -> bool:
    return True


# Public checks are called by their global names, so a wrapper installed on
# the module (a tracer, a test double) sees the calls made from this table.
_CHECKS = (
    _Check("level-1", _every, "", lambda n, d: verify_level(n, "1", data=d)),
    _Check("level-2", _every, "", lambda n, d: verify_level(n, "2", data=d)),
    _Check("level-3", _every, "", lambda n, d: verify_level(n, "3", data=d)),
    _Check("level-m", _every, "", lambda n, d: verify_level(n, "m", data=d)),
    _Check("level-m-1", lambda n: not _conjectured(n),
           "conjectured range; evaluated by the conjecture check",
           lambda n, d: verify_level(n, "m-1", data=d)),
    _Check("conjecture", _conjectured, _CONJECTURE_RANGE,
           lambda n, d: check_conjecture(n, data=d)),
    _Check("family-weights", _every, "", lambda n, d: verify_family_weights(n)),
    _Check("unit-vector-bound", _every, "", lambda n, d: verify_ek(n)),
    _Check("s3-bound", _every, "", lambda n, d: verify_s3(n)),
    _Check("golden-level-2", lambda n: 4 <= n <= 8, "stored rows cover 4 <= n <= 8",
           _golden_level2),
    _Check("golden-weight-slice", lambda n: 4 <= n <= 8, "stored rows cover 4 <= n <= 8",
           _golden_weight_slice, lambda n: _golden_slice(n)[0]),
    _Check("golden-top-levels", lambda n: 4 <= n <= 9, "stored rows cover 4 <= n <= 9",
           _golden_top),
    _Check("golden-second-max-members", lambda n: 4 <= n <= 9,
           "stored rows cover 4 <= n <= 9", _golden_second_members),
    _Check("golden-second-max-sets", lambda n: n in (11, 12),
           "stored rows cover n in {11, 12}", _golden_second_sets),
    _Check("weight-2n-3", lambda n: n in (10, 14), "spot check defined for n in {10, 14}",
           _weight_2n3, lambda n: 2 * n - 3),
)

PER_N_CHECKS = tuple(c.name for c in _CHECKS)


def _per_n_records(n: int, workers: int | None, force: bool) -> list[CheckRecord]:
    skipped = [CheckRecord(c.name, n, "skipped", c.skip) for c in _CHECKS if not c.applies(n)]
    run = [c for c in _CHECKS if c.applies(n)]
    data = _enum_data(n, workers, [c.weight(n) for c in run if c.weight], force)
    return skipped + [c.run(n, data) for c in run]


def verify_all(n_min: int, n_max: int, *, workers: int | None = None,
               force: bool = False) -> VerificationReport:
    """Run the small-n ladder once plus every applicable check for each n.

    Sizes above the enumeration ceiling need ``force`` (CLI ``--force``).
    """
    if n_min > n_max:
        raise ValueError("empty range")
    if n_min < 1:
        raise ValueError("sizes start at 1")
    ceiling = enumeration_ceiling()
    if n_max > ceiling and not force:
        raise CeilingExceeded(f"n_max={n_max} exceeds the enumeration ceiling {ceiling}")
    records = verify_small_n(workers=workers)
    for n in range(n_min, n_max + 1):
        records.extend(_per_n_records(n, workers, force))
    records.sort(key=lambda r: (r.n, r.check))
    return VerificationReport(n_min, n_max, tuple(records))
