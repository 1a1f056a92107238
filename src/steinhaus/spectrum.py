"""Exhaustive enumeration of triangle weights over all 2^n generators.

The difference operator is linear over GF(2), so the triangle of
x = (hi << k) | lo, packed row after row into an n(n+1)/2-bit vector, is
T(hi << k) XOR T(lo). Entry (r, c) of the triangle depends only on
x_c..x_{c+r}, which splits its bits into three classes. Lo-only bits
(c + r < k) form the triangle of lo; their weight is tabulated once for every
k-bit low half. Hi-only bits (c >= k) form the triangle of hi; their weight
is one number per block. Only the k(n-k) mixed bits (c < k <= c + r) are
tabulated as T(lo) for every low half, packed densely into ceil(k(n-k)/64)
uint64 word rows built from the unit-vector triangles by k doubling XORs.
Generators come in blocks of 2^k lanes, one block per high half: the block's
weights are the lo-only weights plus the hi-only weight plus, per mixed word
row, an XOR with the matching word of T(hi << k) and a popcount. T(hi << k)
is updated from the previous block, so memory stays O(2^k) per table word
for every n.

Reversing a generator mirrors its triangle, so both have the same weight,
and the kernel weighs one generator of each mirror pair. A block's lanes run
in bit-reversed order of lo (lane j holds lo = bitrev_k(j), so x_0 is j's top
bit), which puts the lanes that read less than their reversal first. Each
block evaluates only a prefix [0, b) of its lanes: lanes [0, a) count twice,
for themselves and their reversal, and lanes [a, b) c times each (once, or
for a single lane past n = 2k, once or twice). A sweep evaluates about
2^(n-1) lanes.

One sweep gives both the histogram and the members of chosen weights. Each
block's ``bincount``, times the multiplicities, adds to a running histogram;
a rule then names the weights wanted so far (the few smallest and largest
weights seen, plus any fixed weights), and only blocks holding a wanted
weight are scanned for its lanes. A lane gives its generator and, if it
counts twice, the reversal; per weight the ``cap`` least packed values are
kept to bound memory. Block hi evaluates about hi + 1 lanes' worth, so work
splits into contiguous ranges of blocks of about equal work (one per worker,
run on at most one thread per available core). Ranges merge by adding
histograms, applying the rule again and keeping the ``cap`` least members,
so results are identical for any worker count or block width. Every sweep
checks that the histogram totals 2^n, which also checks the multiplicities,
and that the multiplicities scanned at each collected weight match its
count. ``three_row_max`` is one more such sweep, of the kernel over the top
three rows only (also mirror-invariant), with the same self-checks and
thread fan-out.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import symmetry
from .bitseq import BitSeq

DEFAULT_CEILING = 30
CEILING_ENV = "STEINHAUS_MAX_N"
DEFAULT_MEMBER_CAP = 4096
_HARD_LIMIT = 40  # 2^40 generators is already days of work
_BLOCK_BITS = 16  # k: lanes per block 2^k; the (W, 2^k) table stays cache-sized
_THREADED_LANES = 1 << 14  # below this many lanes, threads cost more than they save
_WORD_MASK = (1 << 64) - 1
_REVERSAL = 2  # row of i(x), the reversal, in ``symmetry.images``: r, l, i, r∘i, l∘i
_BYTE_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64)


class CeilingExceeded(ValueError):
    """Requested size is above the enumeration guard."""


def enumeration_ceiling() -> int:
    """Current size guard: STEINHAUS_MAX_N if set, else the default of 30."""
    raw = os.environ.get(CEILING_ENV)
    if not raw:
        return DEFAULT_CEILING
    try:
        ceiling = int(raw)
    except ValueError:
        raise CeilingExceeded(f"{CEILING_ENV}={raw!r} is not an integer") from None
    if ceiling < 1:
        raise CeilingExceeded(f"{CEILING_ENV}={ceiling} must be at least 1")
    return ceiling


def _check_size(n: int, force: bool) -> None:
    if n < 1:
        raise ValueError("enumeration needs n >= 1")
    if n > _HARD_LIMIT:
        raise CeilingExceeded(f"n={n} exceeds the engine limit of {_HARD_LIMIT}")
    ceiling = enumeration_ceiling()
    if n > ceiling and not force:
        raise CeilingExceeded(
            f"n={n} exceeds the enumeration ceiling of {ceiling}; "
            f"pass force=True (CLI --force) or raise {CEILING_ENV}"
        )


def _unit_triangle(n: int, j: int) -> int:
    """Triangle of the j-th unit vector of length n, rows packed one after another."""
    row, packed, offset = 1 << j, 0, 0
    for m in range(n, 0, -1):
        packed |= row << offset
        offset += m
        row = (row ^ row >> 1) & ((1 << (m - 1)) - 1)
    return packed


def _dense(values: list[int], positions: list[int]) -> np.ndarray:
    """Row i: the bits of values[i] at ``positions``, packed densely into uint64 words."""
    words = -(-len(positions) // 64)
    width = max(positions, default=-1) + 1
    rows = []
    for value in values:
        text = bin(value)[:1:-1].ljust(width, "0")  # text[p] is bit p
        packed = int("".join([text[p] for p in positions])[::-1] or "0", 2)
        rows.append([packed >> (64 * w) & _WORD_MASK for w in range(words)])
    return np.array(rows, dtype=np.uint64).reshape(len(values), words)


def _reversed(values, width: int):
    """The low ``width`` bits of each value (an int or an int64 array, each
    below 2^width) in reverse order, one byte at a time."""
    out = _BYTE_REVERSED[values & 255]
    for shift in range(8, width, 8):
        out = out << 8 | _BYTE_REVERSED[values >> shift & 255]
    return out >> -width % 8


def _span(rows: np.ndarray) -> np.ndarray:
    """Column lo: the XOR of rows[j] over the bits j set in lo, by len(rows) doubling XORs."""
    table = np.zeros((rows.shape[1], 1 << len(rows)), dtype=np.uint64)
    for j, row in enumerate(rows):
        table[:, 1 << j:2 << j] = table[:, :1 << j] ^ row[:, None]
    return table


class _Kernel:
    """Weights of the generators of length n, one block of 2^k lanes at a
    time, one generator of each mirror pair.

    Block ``hi`` holds the generators (hi << k) | lo for lo < 2^k in
    bit-reversed order: lane j holds lo = bitrev_k(j), so x_0 is j's top bit.
    Each block evaluates only the prefix of its lanes that ``cover`` names;
    a lane that counts twice stands for its reversal too. Only the first
    ``bits`` packed triangle bits count: all n(n+1)/2 of them give the
    triangle weight, the first 3n-3 the weight of the top three rows; both
    are mirror-invariant.

    Each bit falls in one of three classes, read off the unit triangles: set
    by some low unit only (lo-only), by some high unit only (hi-only), or by
    both (mixed). The lo-only weight of every lane is tabulated once in
    ``base``; the hi-only weight is one number per block; only the mixed bits,
    k(n-k) of them for the full triangle, go through the XOR table, packed
    densely into the uint64 word rows of ``table``.
    """

    def __init__(self, n: int, bits: int | None = None) -> None:
        if bits is None:
            bits = n * (n + 1) // 2
        self.n = n
        self.k = k = min(n, _BLOCK_BITS)
        self.blocks = 1 << (n - k)
        units = [_unit_triangle(n, j) & ((1 << bits) - 1) for j in range(n)]
        lo = functools.reduce(operator.or_, units[:k], 0)
        hi = functools.reduce(operator.or_, units[k:], 0)
        lo_only = [i for i in range(bits) if (lo & ~hi) >> i & 1]
        mixed = [i for i in range(bits) if (lo & hi) >> i & 1]
        # One table: the lo-only bits in the first words, padded with bit
        # ``bits`` (always clear), then the mixed bits. High units have no lo-only bit.
        split = -(-len(lo_only) // 64)
        rows = _dense(units, lo_only + [bits] * (64 * split - len(lo_only)) + mixed)
        table = _span(rows[k - 1::-1])  # column j: T(bitrev_k(j))
        self.base = np.bitwise_count(table[:split]).sum(axis=0, dtype=np.uint16)
        self.table = table[split:]
        self._high = rows[k:, split:]
        self._hi_only = [t & hi & ~lo for t in units[k:]]
        # hi ^ (hi - 1) has exactly bits 0..ctz(hi) set, so by linearity
        # T(hi << k) is T((hi - 1) << k) XOR the high units 0..ctz(hi):
        # _steps holds those prefix XORs on the mixed bits, _hi_steps on the hi-only bits.
        self._steps = np.bitwise_xor.accumulate(self._high, axis=0)
        self._hi_steps = list(itertools.accumulate(self._hi_only, operator.xor))

    def cover(self, hi: int) -> tuple[int, int, int]:
        """(a, b, c): lanes [0, a) of block ``hi`` count twice, lanes [a, b)
        c times each, and the rest not at all, as their reversals count twice.

        Lane j reads x's first k entries with x_0 on top, and hi reads the
        last n-k entries backwards, x_{n-1} on top; x against its reversal
        compares these first. If n <= 2k, lanes below a = hi << (2k - n) read
        less than their reversal. The 2^(2k-n) lanes from a tie, differ only
        in their middle entries and so are closed under reversal: each counts
        once. If n > 2k, only lane a = hi >> (n - 2k) ties, and the middle
        entries decide; hi holds them backwards as mid, so the lane reads less
        if bitrev(mid) < mid (c = 2), is a palindrome if they are equal
        (c = 1), and else reads more (c = 0, and b = a).
        """
        n, k = self.n, self.k
        if n <= 2 * k:
            a = hi << (2 * k - n)
            return a, a + (1 << (2 * k - n)), 1
        a = hi >> (n - 2 * k)
        mid = hi & ((1 << (n - 2 * k)) - 1)
        rmid = int(_reversed(mid, n - 2 * k))
        c = 2 if rmid < mid else 1 if rmid == mid else 0
        return a, a + (c > 0), c

    def packed(self, hi: int, lanes):
        """Generators held by ``lanes`` (an int64 array) of block ``hi``, as packed values."""
        return hi << self.k | _reversed(lanes, self.k)

    def mirrored(self, hi: int, lanes):
        """Reversals of the generators held by ``lanes`` of block ``hi``, as packed values."""
        return lanes << (self.n - self.k) | _reversed(hi, self.n - self.k)

    def _highs(self, start: int, stop: int):
        """Yield (hi, T(hi << k) on the mixed bits as words, its hi-only weight)
        for blocks start..stop-1, ascending. The words array is updated in place."""
        mixed = np.zeros(len(self.table), dtype=np.uint64)
        only = 0
        for j, (row, unit) in enumerate(zip(self._high, self._hi_only)):
            if start >> j & 1:
                mixed ^= row
                only ^= unit
        for hi in range(start, stop):
            if hi > start:
                j = (hi & -hi).bit_length() - 1
                mixed ^= self._steps[j]
                only ^= self._hi_steps[j]
            yield hi, mixed, only.bit_count()

    def weights(self, start: int, stop: int):
        """Yield (hi, a, c, uint16 weights of lanes 0..b-1) for blocks
        start..stop-1, ascending, with (a, b, c) = ``cover(hi)``. The weights
        array is a view of one buffer, overwritten by the next block."""
        lanes = self.base.size
        acc = np.empty(lanes, dtype=np.uint16)
        buf = np.empty(lanes, dtype=np.uint64)
        count = np.empty(lanes, dtype=np.uint8)
        for hi, mixed, hi_weight in self._highs(start, stop):
            a, b, c = self.cover(hi)
            w = np.add(self.base[:b], hi_weight, out=acc[:b])
            for row, word in zip(self.table, mixed):
                np.bitwise_xor(row[:b], word, out=buf[:b])
                np.bitwise_count(buf[:b], out=count[:b])
                w += count[:b]
            yield hi, a, c, w


class _Images:
    """The five ``symmetry.images`` of lanes, in the kernel's lane order. Each map g is
    GF(2)-linear, so g((hi << k) | lo) is g(lo), tabulated from the low unit vectors,
    XOR the images of the high units set in hi."""

    def __init__(self, n: int) -> None:
        self.k = k = min(n, _BLOCK_BITS)
        units = np.array([[y.bits for y in symmetry.images(BitSeq(n, 1 << j))]
                          for j in range(n)], dtype=np.uint64)  # row j: unit vector j
        self.table, self._high = _span(units[k - 1::-1]), units[k:]

    def of(self, first: int, size: int) -> np.ndarray:
        """Images of lanes first .. first + size - 1, all in one block; one row per map."""
        hi, j = divmod(first, 1 << self.k)
        high = np.bitwise_xor.reduce(self._high[(hi >> np.arange(len(self._high))) & 1 == 1])
        return self.table[:, j:j + size] ^ high[:, None]


class _Wanted(NamedTuple):
    """Weights a sweep collects members of, read off a histogram: the
    ``smallest`` least and the ``largest`` greatest weights that occur in it,
    plus every weight marked in ``fixed``."""

    smallest: int
    largest: int
    fixed: np.ndarray  # bool per weight 0..n(n+1)/2

    def any(self) -> bool:
        return bool(self.smallest or self.largest or self.fixed.any())

    def of(self, hist: np.ndarray) -> np.ndarray:
        wanted = self.fixed.copy()
        if self.smallest or self.largest:
            seen = np.flatnonzero(hist)
            wanted[seen[:self.smallest]] = True
            wanted[seen[max(len(seen) - self.largest, 0):]] = True
        return wanted


def _sweep_range(kernel: _Kernel, start: int, stop: int, rule: _Wanted, cap: int):
    """Histogram of blocks [start, stop), and for each weight the rule still
    wants after the last block: its ``cap`` least members and their count.

    Each evaluated lane adds its multiplicity (see ``_Kernel.cover``) to the
    histogram and, when scanned, gives its generator as a member, and the
    reversal too if it counts twice. The weights seen so far only grow, so a
    weight the rule wants at the end was wanted since the first block that
    held it, and one it drops never comes back. Lanes are scanned only in
    blocks that hold a wanted weight.
    """
    size = len(rule.fixed)
    hist = np.zeros(size, dtype=np.int64)
    found: dict[int, tuple[list[int], int]] = {}
    collect = rule.any()
    for hi, a, c, w in kernel.weights(start, stop):
        h = np.bincount(w[a:], minlength=size)
        if c != 1:
            h *= c
        if a:
            h += 2 * np.bincount(w[:a], minlength=size)
        hist += h
        if not collect:
            continue
        wanted = rule.of(hist)
        for wt in [wt for wt in found if not wanted[wt]]:
            del found[wt]
        hits = np.flatnonzero(wanted & (h > 0))
        if not hits.size:
            continue
        lanes = np.flatnonzero(wanted[w])
        twice = lanes if c == 2 else lanes[lanes < a]
        values, value_w = kernel.packed(hi, lanes), w[lanes]
        if twice.size:  # and the reversals, which the block does not evaluate
            values = np.concatenate([values, kernel.mirrored(hi, twice)])
            value_w = np.concatenate([value_w, w[twice]])
        # One sort by weight, then value, per block however many weights are
        # wanted; it puts each weight's least members first.
        order = np.lexsort((values, value_w))
        values, value_w = values[order], value_w[order]
        starts = np.searchsorted(value_w, hits, side="left").tolist()
        stops = np.searchsorted(value_w, hits, side="right").tolist()
        for wt, s, e in zip(hits.tolist(), starts, stops):
            kept, count = found.get(wt, ([], 0))
            kept += values[s:min(e, s + cap)].tolist()
            if len(kept) > cap:
                kept = sorted(kept)[:cap]
            found[wt] = (kept, count + e - s)
    return hist, found


def _reduced_hist_range(kernel: _Kernel, start: int, stop: int, images: _Images) -> np.ndarray:
    """Histogram of blocks [start, stop), adding each orbit's size once: at a
    lane that is the orbit's least packed member, or whose reversal is and
    that counts twice (so the reversal is not evaluated)."""
    n, k = kernel.n, kernel.k
    hist = np.zeros(n * (n + 1) // 2 + 1, dtype=np.int64)
    for hi, a, c, w in kernel.weights(start, stop):
        lanes = np.arange(w.size)
        vals = kernel.packed(hi, lanes).astype(np.uint64)
        mapped = images.of(hi << k, w.size)
        six = np.vstack([vals, mapped])
        least = six.min(axis=0)
        twice = (lanes < a) | (c == 2)
        keep = (vals == least) | (twice & (mapped[_REVERSAL] == least))
        kept = np.sort(six[:, keep], axis=0)
        sizes = 1 + np.count_nonzero(np.diff(kept, axis=0), axis=0)
        np.add.at(hist, w[keep], sizes)
    return hist


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        return _cores()
    if workers < 1:
        raise ValueError("worker count must be positive")
    return workers


def _plan(n: int, blocks: int, workers: int | None) -> tuple[list[tuple[int, int]], int]:
    """Contiguous block ranges of about equal work, one per worker, and the
    threads that run them.

    Threads never exceed the cores this process may use, whatever ``workers``
    asks for; small jobs run serially with the same split and merge.
    """
    parts = max(1, min(_resolve_workers(workers), blocks))
    # Block hi evaluates about hi + 1 lanes' worth (see ``_Kernel.cover``),
    # so blocks [0, e) hold work e^2 / 2: equal shares end at blocks * sqrt(i / parts).
    edges = [math.isqrt(blocks * blocks * i // parts) for i in range(parts + 1)]
    threads = min(parts, _cores()) if (1 << n) >= _THREADED_LANES else 1
    return list(zip(edges, edges[1:])), threads


def _run(kernel: _Kernel, workers: int | None, range_fn, *args) -> list:
    """range_fn(kernel, start, stop, *args) for every planned range, in range order."""
    parts, threads = _plan(kernel.n, kernel.blocks, workers)

    def task(part):
        return range_fn(kernel, *part, *args)

    if threads == 1:
        return [task(p) for p in parts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task, parts))


def _merge_hist(n: int, pieces: list[np.ndarray]) -> np.ndarray:
    total = pieces[0]
    for piece in pieces[1:]:
        total += piece
    if int(total.sum()) != 1 << n:
        raise ValueError(f"histogram of n={n} counts {int(total.sum())} generators, "
                         f"not 2^{n}")
    return total


def _enumerate(kernel: _Kernel, rule: _Wanted, cap: int, workers: int | None):
    """One sweep over all 2^n generators: the histogram, and per weight the
    rule wants from it, the ``cap`` least members in packed order and the count."""
    n = kernel.n
    parts = _run(kernel, workers, _sweep_range, rule, cap)
    hist = _merge_hist(n, [h for h, _ in parts])
    found: dict[int, tuple[list[int], int]] = {}
    for wt in np.flatnonzero(rule.of(hist)).tolist():
        values: list[int] = []
        count = 0
        for _, part in parts:
            kept, scanned = part.get(wt, ((), 0))
            values += kept
            count += scanned
        if count != hist[wt]:
            raise ValueError(f"member scan disagrees with the histogram at n={n}: "
                             f"weight {wt} has {count} generators scanned, "
                             f"{int(hist[wt])} counted")
        found[wt] = (sorted(values)[:cap], count)
    return hist, found


@dataclass(frozen=True)
class WeightSpectrum:
    """Exact histogram of triangle weights over all 2^n generators."""

    n: int
    counts: tuple[int, ...]

    @property
    def levels(self) -> tuple[int, ...]:
        """Weights that occur, ascending; index i is the i-th ladder level."""
        return tuple(w for w, c in enumerate(self.counts) if c)

    @property
    def m(self) -> int:
        """Top ladder index: number of distinct nonzero weights."""
        return len(self.levels) - 1

    def count(self, weight: int) -> int:
        return self.counts[weight] if 0 <= weight < len(self.counts) else 0

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class LevelSet:
    """Generators achieving one ladder level, capped at ``cap`` members."""

    index: int
    weight: int
    members: tuple[BitSeq, ...]
    count: int
    truncated: bool


@dataclass(frozen=True)
class WeightSlice:
    """All generators of one exact triangle weight (members possibly capped)."""

    n: int
    weight: int
    members: tuple[BitSeq, ...]
    count: int
    truncated: bool


def _to_seqs(n: int, values: list[int]) -> tuple[BitSeq, ...]:
    """Generators sorted by text; x_0 leads the text, which is the packed value's
    binary text reversed (with bit n set, so that the '0b1' prefix is cut off)."""
    top = 1 << n
    return tuple(BitSeq(n, v) for v in sorted(values, key=lambda v: bin(v | top)[:2:-1]))


def full_spectrum(n: int, *, workers: int | None = None, force: bool = False) -> WeightSpectrum:
    """Exact weight histogram by direct enumeration of every generator."""
    return level_sets(n, 0, 0, workers=workers, force=force).spectrum


def symmetry_reduced_spectrum(n: int, *, workers: int | None = None,
                              force: bool = False) -> WeightSpectrum:
    """Same histogram, counting each symmetry orbit once: a cross-check, not a speed-up.

    It sweeps all 2^n lanes; a lane counts only if it is the least packed value
    in its orbit, and then adds the orbit's size at its weight. Output is
    identical to ``full_spectrum`` because weight is symmetry-invariant.
    """
    _check_size(n, force)
    hist = _merge_hist(n, _run(_Kernel(n), workers, _reduced_hist_range, _Images(n)))
    return WeightSpectrum(n, tuple(hist.tolist()))


def three_row_max(n: int, *, workers: int | None = None,
                  force: bool = False) -> tuple[int, list[int]]:
    """Exhaustive max of s3, the weight of the top three rows, and the packed
    generators attaining it, ascending.

    For n >= 2 the top three rows are the first 3n-3 packed triangle bits, so
    this is one more sweep of the weight kernel restricted to those bits,
    collecting every member of the largest weight, with the same self-checks.
    """
    _check_size(n, force)
    bits = max(3 * n - 3, 1)  # n = 1 has one row of one bit
    _, found = _enumerate(_Kernel(n, bits), _Wanted(0, 1, np.zeros(bits + 1, dtype=bool)),
                          cap=1 << n, workers=workers)
    [(best, (arg, _))] = found.items()
    return best, arg


@dataclass(frozen=True)
class LevelSweep:
    """What one enumeration of all 2^n generators found (see ``level_sets``)."""

    spectrum: WeightSpectrum
    low: list[LevelSet]  # W_0, W_1, ... upward
    high: list[LevelSet]  # W_m, W_{m-1}, ... downward
    slices: dict[int, WeightSlice]  # requested weight -> its generators


def level_sets(n: int, low: int, high: int, *, weights=(),
               cap: int = DEFAULT_MEMBER_CAP, workers: int | None = None,
               force: bool = False) -> LevelSweep:
    """Histogram, both ends of the ladder and exact-weight slices in one sweep.

    ``low`` asks for W_0 .. W_low (none if 0), ``high`` for the ``high``
    levels from W_m down; both are clamped to the ladder, whose height is
    known only after the sweep. ``weights`` asks for the generators at each
    of those exact weights. Members are the first ``cap`` in packed order.
    """
    if low < 0 or high < 0:
        raise ValueError("level counts must be nonnegative")
    if cap < 0:
        raise ValueError("member cap must be nonnegative")
    _check_size(n, force)
    top = n * (n + 1) // 2
    targets = sorted(set(weights))
    for w in targets:
        if not 0 <= w <= top:
            raise ValueError(f"weight {w} impossible for size {n}")
    fixed = np.zeros(top + 1, dtype=bool)
    fixed[targets] = True
    hist, found = _enumerate(_Kernel(n), _Wanted(low + 1 if low else 0, high, fixed),
                             cap, workers)
    spectrum = WeightSpectrum(n, tuple(hist.tolist()))
    slices = {w: WeightSlice(n, w, _to_seqs(n, values), count, count > len(values))
              for w, (values, count) in found.items()}
    levels = spectrum.levels  # a property that rebuilds the tuple on each access
    m = len(levels) - 1
    return LevelSweep(
        spectrum,
        [_level(i, slices[levels[i]]) for i in range(min(low, m) + 1)] if low else [],
        [_level(m - off, slices[levels[m - off]]) for off in range(min(high, m + 1))],
        {w: slices[w] for w in targets})


def _level(index: int, piece: WeightSlice) -> LevelSet:
    return LevelSet(index, piece.weight, piece.members, piece.count, piece.truncated)


def _check_levels(spectrum: WeightSpectrum, low: int, high: int) -> None:
    """Explicit level counts must fit the ladder; ``level_sets`` only clamps them."""
    m = spectrum.m
    if low > m:
        raise ValueError(f"k={low} exceeds the top level m={m} for n={spectrum.n}")
    if high > m + 1:
        raise ValueError(f"k={high} exceeds the ladder height for n={spectrum.n}")


def _checked_sweep(n: int, low: int, high: int, cap: int, workers: int | None,
                   force: bool) -> LevelSweep:
    """``level_sets`` with its level counts checked."""
    if max(low, high) < 1:
        raise ValueError("need at least one level")
    sweep = level_sets(n, low, high, cap=cap, workers=workers, force=force)
    _check_levels(sweep.spectrum, low, high)
    return sweep


def level_sets_low(n: int, k: int, *, cap: int = DEFAULT_MEMBER_CAP,
                   workers: int | None = None, force: bool = False) -> list[LevelSet]:
    """Level sets W_0 .. W_k with members, from one sweep."""
    return _checked_sweep(n, k, 0, cap, workers, force).low


def level_sets_high(n: int, k: int, *, cap: int = DEFAULT_MEMBER_CAP,
                    workers: int | None = None, force: bool = False) -> list[LevelSet]:
    """Level sets W_m, W_{m-1}, ... down k levels, with members, from one sweep."""
    return _checked_sweep(n, 0, k, cap, workers, force).high


def members_at_weights(n: int, weights, *, cap: int = DEFAULT_MEMBER_CAP,
                       workers: int | None = None,
                       force: bool = False) -> dict[int, WeightSlice]:
    """One sweep returning the generators at each requested weight."""
    return level_sets(n, 0, 0, weights=weights, cap=cap, workers=workers,
                      force=force).slices


def find_weight(n: int, w: int, *, cap: int = DEFAULT_MEMBER_CAP,
                workers: int | None = None, force: bool = False) -> WeightSlice:
    """Every generator whose triangle weight is exactly w (empty is valid)."""
    return members_at_weights(n, [w], cap=cap, workers=workers, force=force)[w]
