"""Regression ladder: every closed-form prediction checked against enumeration.

Each check compares a predicted weight (and, where known, the exact generator
set) with what brute-force enumeration finds, and yields one record with a
terminal status. A failure carries a witness, the least generator at fault by
text, whose observed weight is re-weighed by the scalar oracle
(``triangle_weight``, or ``s3`` for the three-row bound), never copied from
the engine or a pass. Conjecture checks report
``conjecture-confirmed`` / ``conjecture-refuted`` instead of pass/fail, so a
counterexample surfaces as a finding rather than aborting the run.

The per-size checks of ``verify_all`` are one table, ``_CHECKS``: a row names
a check, the sizes it applies to, its skip reason, how it runs on the size's
one set of ladder ends and any exact weight it reads there. Checks read levels
by their offset from an end of the ladder: W_1..W_3 are ``data.low[1..3]``,
and W_m and W_{m-1} are ``data.high[0]`` and ``data.high[1]``. Every size
reads them, and its exact-weight slices, from one prefix search of all the
sizes, ``ends.ladder_ends_batch``, which keeps a few thousand prefixes per
size where a sweep weighs 2^n. The small-n ladder (n <= 4), against the
bundled table that ``predicted_level`` serves there, reads whole ladders from
the same batch. The other checks read the run's passes (``_passes``). The
three-row bound reads the max from one forward pass of the window DP for the
run, whose first n entries are the pass of size n, and its generators from
``three_row_max`` only where it reads them (n = 4, 5 or a failure's
witness). One ``triangle.row_steps`` call weighs ``family_words`` of every
size, packed, of which each size gets its rows (closed-form families for
``family-weights``, central unit vectors for ``unit-vector-bound``; a
witness is rebuilt as a sequence only on failure), and all 2^n generators
of each size n <= 9, whose distinct weights give the height m that the
stored top-level summary needs (``golden-top-levels``). No check builds the
sweep kernel: the tests check the search against the sweep. A check returns
its outcome, ``(status, detail)`` or ``(status, detail, witness)``, and its
``_timed`` decorator builds the one record from the check's name, the size,
the outcome and the call's wall time. The search and the passes are one
call each for every size, so their time, and the time spent between the
checks, is added to one record, the first of the lowest size.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .bitseq import BitSeq
from .ends import SEARCH_LIMIT, LadderEnds, ladder_ends, ladder_ends_batch
from .families import (
    FamilyName,
    UncoveredLevelError,
    _fixture_rows,
    _level_fixture,
    conjectured,
    family_words,
    normalize_level,
    predicted_level,
)
from .spectrum import (
    CeilingExceeded,
    WeightSlice,
    _check_size,
    _resolve_workers,
    _three_row_pass,
    enumeration_ceiling,
    three_row_max,
)
from .symmetry import orbit
from .triangle import row_steps, s3, triangle_weight

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

def _unit_vector_fixture() -> dict[tuple[int, int], int]:
    return {(int(n), int(k)): int(w)
            for n, k, w in _fixture_rows("unit_vector_weights.txt")}


def _top_summary_fixture() -> dict[int, tuple[int, int, int]]:
    return {int(n): (int(m), int(w), int(c))
            for n, m, w, c in _fixture_rows("top_level_summary.txt")}


def _golden_slice(n: int) -> tuple[int, frozenset[BitSeq]]:
    return _level_fixture("weight_slice_floor_3n_over_2.txt")[(n, "-")]


def _timed(name: str | Callable[..., str]):
    """Build the record of each call of a check from its name (``name``, or
    ``name`` of the call's arguments), its size n, the outcome it returns,
    ``(status, detail)`` or ``(status, detail, witness)``, and its wall time."""
    def decorate(check: Callable[..., tuple]) -> Callable[..., CheckRecord]:
        @functools.wraps(check)
        def timed(n: int, *args, **kwargs) -> CheckRecord:
            t0 = time.perf_counter()
            outcome = check(n, *args, **kwargs)
            return CheckRecord(name if isinstance(name, str) else name(n, *args, **kwargs), n,
                               *outcome, elapsed=time.perf_counter() - t0)
        timed.__signature__ = inspect.signature(check).replace(return_annotation="CheckRecord")
        return timed
    return decorate


def _witness(seqs: Iterable[BitSeq], predicted: int) -> Witness:
    """The least of ``seqs`` by text, its weight re-weighed by the scalar oracle."""
    x = min(seqs, key=str)
    return Witness(x, triangle_weight(x), predicted)


def _compare_level(level: WeightSlice, predicted_w: int, predicted: frozenset[BitSeq],
                   conjecture: bool = False) -> tuple:
    ok_status = "conjecture-confirmed" if conjecture else "pass"
    bad_status = "conjecture-refuted" if conjecture else "fail"
    observed_w, observed = level.weight, frozenset(level.members)
    if observed_w != predicted_w:
        return (bad_status, f"weight {observed_w} observed, {predicted_w} predicted",
                _witness(observed or predicted, predicted_w))
    if observed != predicted or level.count != len(predicted):
        return (bad_status, f"member set mismatch at weight {predicted_w}: "
                f"{level.count} observed vs {len(predicted)} predicted",
                _witness(observed ^ predicted or observed, predicted_w))
    return ok_status, f"weight {predicted_w}, {len(predicted)} generators"


# ---------------------------------------------------------------------------
# individual checks

@_timed(lambda n, level, **_: f"level-{normalize_level(level)}")
def verify_level(n: int, level, *, data: LadderEnds | None = None) -> tuple:
    """Compare one predicted ladder level (weight and set) with enumeration."""
    token = normalize_level(level)
    try:
        prediction = predicted_level(token, n)
    except UncoveredLevelError as exc:
        return "skipped", str(exc)
    if data is None:
        data = ladder_ends(n, 3, 2)
    end, offset = {"1": (data.low, 1), "2": (data.low, 2), "3": (data.low, 3),
                   "m": (data.high, 0), "m-1": (data.high, 1)}[token]
    if offset >= len(end):  # only the bottom end runs short: then it holds the whole ladder
        return ("fail", f"ladder has levels 0..{len(end) - 1}, level {token} undefined",
                _witness(end[-1].members, prediction.value))
    return _compare_level(end[offset], prediction.value, prediction.member_set,
                          conjecture=prediction.status == "conjecture")


@_timed("small-n-ladder")
def _small_n_ladder(n: int, data: LadderEnds) -> tuple:
    fixture = _level_fixture("small_n_levels.txt")
    expected = {lvl: row for (nn, lvl), row in fixture.items() if nn == n}
    ladder = data.low  # the whole ladder, W_0 first
    m = len(ladder) - 1
    bad = None
    if m != len(expected):
        bad = f"ladder height {m} observed, {len(expected)} expected"
    elif ladder[0].count != 1:
        bad = f"{ladder[0].count} generators of weight 0"
    if bad is not None:
        return "fail", bad, _witness(ladder[-1].members, -1)  # a generator of W_m
    for index, level in enumerate(ladder[1:], 1):
        outcome = _compare_level(level, *expected[str(index)])
        if outcome[0] != "pass":
            return outcome
    return "pass", f"all {m} levels match"


# the whole ladder at each small n, W_0 first
_SMALL_N_REQUESTS = [(n, n * (n + 1) // 2, 0, ()) for n in (1, 2, 3, 4)]


def verify_small_n(ends: list[LadderEnds] | None = None) -> list[CheckRecord]:
    """Full-ladder equality for n in {1, 2, 3, 4} against the stored ladders,
    read off ``ends``, those sizes' whole ladders (by default from one batch)."""
    t0 = time.perf_counter()
    if ends is None:
        ends = ladder_ends_batch(_SMALL_N_REQUESTS)
    searched = time.perf_counter() - t0
    records = [_small_n_ladder(n, data) for (n, *_), data in zip(_SMALL_N_REQUESTS, ends)]
    records[0] = dataclasses.replace(records[0], elapsed=records[0].elapsed + searched)
    return records


# a family word of a pass: tag, packed word, closed-form weight (None where
# there is none) and the word's triangle weight
_FamilyRow = tuple[FamilyName, int, int | None, int]

_TOP_SUMMARY_SIZES = range(4, 10)  # of the stored top-level summary, which reads m


class _Passes(NamedTuple):
    """The passes of a run over all its sizes: the three-row DP, whose first
    n entries are the pass of size n, the family words of each size and the
    ladder height of each size in ``_TOP_SUMMARY_SIZES``."""

    three_rows: list[dict[int, int]]
    families: dict[int, list[_FamilyRow]]
    heights: dict[int, int]


def _weighed(sizes, tops) -> tuple[dict[int, list[_FamilyRow]], dict[int, int]]:
    """``family_words(n)`` of every size n in ``sizes``, each row with its
    word's weight appended, and the height of each size in ``tops``, from the
    distinct weights of its 2^n generators: one ``row_steps`` call weighs all."""
    _check_size(max(sizes), force=True, limit=SEARCH_LIMIT)  # the lengths ``row_steps`` takes
    words = {n: family_words(n) for n in sizes}
    values, lengths = zip(*[(bits, n) for n, rows in words.items() for _, bits, _ in rows],
                          *[(x, n) for n in tops for x in range(1 << n)])
    weights = iter(row_steps(values, lengths)[0].tolist())
    families = {n: [(*row, next(weights)) for row in rows] for n, rows in words.items()}
    return families, {n: len({next(weights) for _ in range(1 << n)}) - 1 for n in tops}


def _passes(sizes) -> _Passes:
    """The passes of ``sizes``: the three-row DP up to the largest size (at
    most ``S3_CEILING``), then ``_weighed`` of them and their top-summary sizes."""
    return _Passes(_three_row_pass(min(max(sizes), S3_CEILING)),
                   *_weighed(sizes, [n for n in sizes if n in _TOP_SUMMARY_SIZES]))


@_timed("unit-vector-bound")
def verify_ek(n: int, *, words: list[_FamilyRow] | None = None) -> tuple:
    """Unit-vector weights: exact table values for 9 <= n <= 15 and the
    2n-3 lower bound (strict for even n) for every central k.

    ``words`` is the size's rows of a family pass (by default of n alone).
    """
    if n < 9:
        return "skipped", "bound applies for n >= 9"
    if words is None:
        words = _weighed([n], [])[0][n]
    table = _unit_vector_fixture()
    bound = 2 * n - 3
    central = [(f.index, bits, w) for f, bits, _, w in words
               if f.group == "e" and 4 <= f.index <= (n - 1) // 2]
    for k, bits, w in central:
        expected = table.get((n, k))
        if expected is not None and w != expected:
            return ("fail", f"e{k}: weight {w} observed, table says {expected}",
                    _witness([BitSeq(n, bits)], expected))
        if w < bound or (n % 2 == 0 and w == bound):
            strict = " (strict)" if n % 2 == 0 else ""
            return ("fail", f"e{k}: weight {w} violates bound {bound}{strict}",
                    _witness([BitSeq(n, bits)], bound))
    return "pass", f"{len(central)} unit vectors satisfy the bound"


@_timed("family-weights")
def verify_family_weights(n: int, *, words: list[_FamilyRow] | None = None) -> tuple:
    """Every closed-form family weight at this length against direct computation.

    ``words`` is the size's rows of a family pass (by default of n alone).
    """
    if words is None:
        words = _weighed([n], [])[0][n]
    checked = 0
    for f, bits, predicted, w in words:
        if predicted is None:
            continue
        if w != predicted:
            return ("fail", f"{f}: weight {w} observed, formula gives {predicted}",
                    _witness([BitSeq(n, bits)], predicted))
        checked += 1
    return "pass", f"{checked} closed forms match"


@_timed("s3-bound")
def verify_s3(n: int, *, three_rows: list[dict[int, int]] | None = None) -> tuple:
    """Exhaustive bound s3(x) <= 2n-2, with exact equality sets at n in {4, 5},
    for 4 <= n <= ``S3_CEILING``.

    ``three_rows`` is a forward pass of the window DP over at least n entries,
    which every size shorter than it reads (by default the pass of n).
    """
    if not 4 <= n <= S3_CEILING:
        return "skipped", f"checked for 4 <= n <= {S3_CEILING}"
    # the members are listed only where read
    best = max((three_rows or _three_row_pass(n))[n - 1].values())
    bound = 2 * n - 2
    if best > bound:
        x = BitSeq(n, three_row_max(n, force=True)[1][0])
        return "fail", f"max three-row weight {best} exceeds {bound}", Witness(x, s3(x), bound)
    detail = f"max three-row weight {best} <= {bound}"
    if n in _S3_EQUALITY:
        expected = frozenset(BitSeq.from_string(s) for s in _S3_EQUALITY[n])
        observed = frozenset(BitSeq(n, v) for v in three_row_max(n, force=True)[1])
        if best != bound or observed != expected:
            diff = min(observed ^ expected, key=str)
            return ("fail", f"equality set mismatch: {len(observed)} at {best} observed, "
                    f"{len(expected)} at {bound} expected", Witness(diff, s3(diff), bound))
        detail += f"; equality set of size {len(expected)} matches"
    return "pass", detail


_CONJECTURE_RANGE = "conjecture applies for n >= 11 with n == 0,2 (mod 3)"


@_timed("conjecture")
def check_conjecture(n: int, *, data: LadderEnds | None = None) -> tuple:
    """Test whether level m-1 equals the conjectured set at weight ceil(n^2/3)."""
    if not conjectured(n):
        raise ValueError(_CONJECTURE_RANGE)
    if data is None:
        data = ladder_ends(n, 3, 2)
    prediction = predicted_level("m-1", n)
    return _compare_level(data.high[1], prediction.value, prediction.member_set,
                          conjecture=True)


# ---------------------------------------------------------------------------
# golden-table checks

@_timed("golden-level-2")
def _golden_level2(n: int, data: LadderEnds) -> tuple:
    return _compare_level(data.low[2], *_level_fixture("second_level_sets.txt")[(n, "2")])


@_timed("golden-weight-slice")
def _golden_weight_slice(n: int, data: LadderEnds) -> tuple:
    w, set_exp = _golden_slice(n)
    got = data.slices[w]
    observed = frozenset(got.members)
    if observed != set_exp or got.count != len(set_exp):
        return ("fail", f"{got.count} generators at weight {w} observed, "
                f"{len(set_exp)} expected", _witness(observed ^ set_exp or observed, w))
    return "pass", f"{got.count} generators at weight {w}"


@_timed("golden-top-levels")
def _golden_top(n: int, data: LadderEnds, m: int) -> tuple:
    m_exp, w_exp, count_exp = _top_summary_fixture()[n]
    second = data.high[1]
    observed_triple = (m, second.weight, second.count)
    if observed_triple != (m_exp, w_exp, count_exp):
        return ("fail", f"(m, w, count) = {observed_triple} observed, "
                f"({m_exp}, {w_exp}, {count_exp}) expected", _witness(second.members, w_exp))
    return "pass", f"(m, w, count) = {observed_triple}"


@_timed("golden-second-max-members")
def _golden_second_members(n: int, data: LadderEnds) -> tuple:
    _, set_exp = _level_fixture("second_largest_members.txt")[(n, "m-1")]
    _, _, count_exp = _top_summary_fixture()[n]
    second = data.high[1]
    observed = frozenset(second.members)
    missing = set_exp - observed
    if missing or second.count != count_exp:
        return ("fail", f"{second.count} members observed, {count_exp} expected; "
                f"{len(missing)} listed members missing",
                _witness(missing or observed ^ set_exp or observed, second.weight))
    extras = " ".join(map(str, sorted(observed - set_exp, key=str)))
    note = f"; enumeration found members beyond the stored list: {extras}" if extras else ""
    return "pass", f"all {len(set_exp)} listed members present{note}"


@_timed("golden-second-max-sets")
def _golden_second_sets(n: int, data: LadderEnds) -> tuple:
    return _compare_level(data.high[1],
                          *_level_fixture("second_largest_sets_11_12.txt")[(n, "m-1")])


@_timed("weight-2n-3")
def _weight_2n3(n: int, data: LadderEnds) -> tuple:
    w = 2 * n - 3
    got = data.slices[w]
    if n == 10:
        expected = frozenset(BitSeq.from_string(s) for s in _WEIGHT17_AT_10)
        observed = frozenset(got.members)
        if got.count != 6 or observed != expected:
            return ("fail", f"{got.count} generators at weight {w} observed, "
                    "the known orbit of 6 expected", _witness(observed ^ expected or observed, w))
        if frozenset(orbit(got.members[0]).members) != expected:
            return "fail", "the six generators do not form a single orbit", _witness(observed, w)
        return "pass", f"exactly 6 generators at weight {w}, one orbit"
    if got.count != 0:
        return ("fail", f"{got.count} generators at weight {w} observed, 0 expected",
                _witness(got.members, w))
    return "pass", f"no generator has weight {w}"


# ---------------------------------------------------------------------------
# the full ladder

class _Check(NamedTuple):
    """A per-size check, run where ``applies(n)`` and skipped with ``skip``
    elsewhere, as ``run(n, data, passes)`` on the size's ``LadderEnds`` and
    the run's ``_Passes``; ``weight(n)`` is an exact weight whose generators
    it reads in ``data.slices``, which the search then reaches."""

    name: str
    applies: Callable[[int], bool]
    skip: str
    run: Callable[[int, LadderEnds, _Passes], CheckRecord]
    weight: Callable[[int], int] | None = None


def _every(n: int) -> bool:
    return True


# Public checks are called by their global names, so a wrapper installed on
# the module (a tracer, a test double) sees the calls made from this table.
_CHECKS = (
    _Check("level-1", _every, "", lambda n, d, _: verify_level(n, "1", data=d)),
    _Check("level-2", _every, "", lambda n, d, _: verify_level(n, "2", data=d)),
    _Check("level-3", _every, "", lambda n, d, _: verify_level(n, "3", data=d)),
    _Check("level-m", _every, "", lambda n, d, _: verify_level(n, "m", data=d)),
    _Check("level-m-1", lambda n: not conjectured(n),
           "conjectured range; evaluated by the conjecture check",
           lambda n, d, _: verify_level(n, "m-1", data=d)),
    _Check("conjecture", conjectured, _CONJECTURE_RANGE,
           lambda n, d, _: check_conjecture(n, data=d)),
    _Check("family-weights", _every, "",
           lambda n, d, p: verify_family_weights(n, words=p.families[n])),
    _Check("unit-vector-bound", _every, "", lambda n, d, p: verify_ek(n, words=p.families[n])),
    _Check("s3-bound", _every, "", lambda n, d, p: verify_s3(n, three_rows=p.three_rows)),
    _Check("golden-level-2", lambda n: 4 <= n <= 8, "stored rows cover 4 <= n <= 8",
           lambda n, d, _: _golden_level2(n, d)),
    _Check("golden-weight-slice", lambda n: 4 <= n <= 8, "stored rows cover 4 <= n <= 8",
           lambda n, d, _: _golden_weight_slice(n, d), lambda n: _golden_slice(n)[0]),
    _Check("golden-top-levels", lambda n: n in _TOP_SUMMARY_SIZES, "stored rows cover 4 <= n <= 9",
           lambda n, d, p: _golden_top(n, d, p.heights[n])),
    _Check("golden-second-max-members", lambda n: n in _TOP_SUMMARY_SIZES,
           "stored rows cover 4 <= n <= 9", lambda n, d, _: _golden_second_members(n, d)),
    _Check("golden-second-max-sets", lambda n: n in (11, 12),
           "stored rows cover n in {11, 12}", lambda n, d, _: _golden_second_sets(n, d)),
    _Check("weight-2n-3", lambda n: n in (10, 14), "spot check defined for n in {10, 14}",
           lambda n, d, _: _weight_2n3(n, d), lambda n: 2 * n - 3),
)

PER_N_CHECKS = tuple(c.name for c in _CHECKS)


def _per_n_records(n: int, data: LadderEnds, passes: _Passes) -> list[CheckRecord]:
    """The records of size n, those of the checks that ran first, from its
    ladder ends ``data`` and the run's passes."""
    return ([c.run(n, data, passes) for c in _CHECKS if c.applies(n)]
            + [CheckRecord(c.name, n, "skipped", c.skip) for c in _CHECKS if not c.applies(n)])


def verify_all(n_min: int, n_max: int, *, workers: int | None = None,
               force: bool = False) -> VerificationReport:
    """Run the small-n ladder once plus every applicable check for each n.

    Sizes above the enumeration ceiling need ``force`` (CLI ``--force``).
    ``workers`` is checked, but unused: no check sweeps all 2^n generators.
    """
    _resolve_workers(workers)
    if n_min > n_max:
        raise ValueError("empty range")
    if n_min < 1:
        raise ValueError("sizes start at 1")
    ceiling = enumeration_ceiling()
    if n_max > ceiling and not force:
        raise CeilingExceeded(f"n_max={n_max} exceeds the enumeration ceiling {ceiling}")
    _check_size(n_max, force=True, limit=SEARCH_LIMIT)  # before any search
    sizes = range(n_min, n_max + 1)
    t0 = time.perf_counter()
    ends = ladder_ends_batch([*_SMALL_N_REQUESTS,
                              *((n, 3, 2, [c.weight(n) for c in _CHECKS if c.weight and c.applies(n)])
                                for n in sizes)], force=force)
    passes = _passes(sizes)
    records = verify_small_n(ends[:len(_SMALL_N_REQUESTS)])
    checked = [r for n, data in zip(sizes, ends[len(_SMALL_N_REQUESTS):])
               for r in _per_n_records(n, data, passes)]
    # the search of all sizes, the run's passes and the time between the
    # checks are booked on one record
    rest = time.perf_counter() - t0 - sum(r.elapsed for r in records + checked)
    checked[0] = dataclasses.replace(checked[0], elapsed=checked[0].elapsed + rest)
    records += checked
    records.sort(key=lambda r: (r.n, r.check))
    return VerificationReport(n_min, n_max, tuple(records))
