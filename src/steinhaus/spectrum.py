"""Exhaustive enumeration of triangle weights over all 2^n generators.

The difference operator is linear over GF(2), so the triangle of
x = (hi << k) | lo, packed row after row into an n(n+1)/2-bit vector, is
T(hi << k) XOR T(lo). The engine tabulates T(lo) for every k-bit low half as
W = ceil(n(n+1)/128) uint64 word rows, built from the unit-vector triangles
by k doubling XORs. Generators then come in blocks of 2^k consecutive lanes,
one block per high half: each word row is XORed with the matching word of
T(hi << k), popcounted and summed, which gives the block's weights in
W XOR/popcount passes instead of n row steps. T(hi << k) is updated from the
previous block, so memory stays O(W * 2^k) for every n.

Work splits into contiguous ranges of blocks (one per worker, run on at most
one thread per available core) whose histograms merge by elementwise
addition, so results are identical for any worker count or block width. A
second pass collects the generators at requested weights in ascending packed
order, capped to bound memory.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitseq import BitSeq

DEFAULT_CEILING = 30
CEILING_ENV = "STEINHAUS_MAX_N"
DEFAULT_MEMBER_CAP = 4096
_HARD_LIMIT = 40  # 2^40 generators is already days of work
_BLOCK_BITS = 16  # k: lanes per block 2^k; the (W, 2^k) table stays cache-sized
_THREADED_LANES = 1 << 14  # below this many lanes, threads cost more than they save
_WORD_MASK = (1 << 64) - 1


class CeilingExceeded(ValueError):
    """Requested size is above the enumeration guard."""


def enumeration_ceiling() -> int:
    """Current size guard: STEINHAUS_MAX_N if set, else the default of 30."""
    raw = os.environ.get(CEILING_ENV)
    return int(raw) if raw else DEFAULT_CEILING


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


class _Kernel:
    """Weights of all generators of length n, one block of 2^k lanes at a time.

    Block ``hi`` holds the generators (hi << k) | lo for lo < 2^k, in order.
    Only the first ``bits`` packed triangle bits count: all n(n+1)/2 of them
    give the triangle weight, the first 3n-3 the weight of the top three rows.
    """

    def __init__(self, n: int, bits: int | None = None) -> None:
        if bits is None:
            bits = n * (n + 1) // 2
        self.n = n
        self.k = k = min(n, _BLOCK_BITS)
        self.blocks = 1 << (n - k)
        units = [_unit_triangle(n, j) & ((1 << bits) - 1) for j in range(n)]
        rows = np.array([[t >> (64 * i) & _WORD_MASK for i in range(-(-bits // 64))]
                         for t in units], dtype=np.uint64)
        self.table = np.zeros((rows.shape[1], 1 << k), dtype=np.uint64)
        for j in range(k):
            self.table[:, 1 << j:2 << j] = self.table[:, :1 << j] ^ rows[j, :, None]
        self._high = rows[k:]
        # hi ^ (hi - 1) has exactly bits 0..ctz(hi) set, so by linearity
        # T(hi << k) = T((hi - 1) << k) ^ _steps[ctz(hi)].
        self._steps = np.bitwise_xor.accumulate(self._high, axis=0)

    def weights(self, start: int, stop: int):
        """Yield (first lane, uint16 weight per lane) for blocks start..stop-1, ascending."""
        lanes = self.table.shape[1]
        buf = np.empty(lanes, dtype=np.uint64)
        count = np.empty(lanes, dtype=np.uint8)
        high = np.zeros(len(self.table), dtype=np.uint64)
        for j, row in enumerate(self._high):
            if start >> j & 1:
                high ^= row
        for hi in range(start, stop):
            if hi > start:
                high ^= self._steps[(hi & -hi).bit_length() - 1]
            acc = np.zeros(lanes, dtype=np.uint16)
            for row, word in zip(self.table, high):
                np.bitwise_xor(row, word, out=buf)
                np.bitwise_count(buf, out=count)
                acc += count
            yield hi << self.k, acc


def _lane_rot_r(vals: np.ndarray, n: int) -> np.ndarray:
    dt = vals.dtype.type
    cur = vals
    out = np.zeros_like(vals)
    for j in range(n):
        m = n - j
        out |= ((cur >> dt(m - 1)) & dt(1)) << dt(j)
        cur = (cur ^ (cur >> dt(1))) & dt((1 << (m - 1)) - 1)
    return out


def _lane_rot_l(vals: np.ndarray, n: int) -> np.ndarray:
    dt = vals.dtype.type
    cur = vals
    out = np.zeros_like(vals)
    for k in range(n):
        out |= (cur & dt(1)) << dt(n - 1 - k)
        cur = (cur ^ (cur >> dt(1))) & dt((1 << (n - 1 - k)) - 1)
    return out


def _lane_reverse(vals: np.ndarray, n: int) -> np.ndarray:
    dt = vals.dtype.type
    out = np.zeros_like(vals)
    for j in range(n):
        out |= ((vals >> dt(j)) & dt(1)) << dt(n - 1 - j)
    return out


def _hist_range(kernel: _Kernel, start: int, stop: int) -> np.ndarray:
    size = kernel.n * (kernel.n + 1) // 2 + 1
    hist = np.zeros(size, dtype=np.int64)
    for _, w in kernel.weights(start, stop):
        hist += np.bincount(w, minlength=size)
    return hist


def _reduced_hist_range(kernel: _Kernel, start: int, stop: int) -> np.ndarray:
    n = kernel.n
    size = n * (n + 1) // 2 + 1
    hist = np.zeros(size, dtype=np.int64)
    for first, w in kernel.weights(start, stop):
        vals = np.arange(first, first + w.size, dtype=np.uint64)
        rev = _lane_reverse(vals, n)
        six = np.stack([vals, _lane_rot_r(vals, n), _lane_rot_l(vals, n),
                        rev, _lane_rot_r(rev, n), _lane_rot_l(rev, n)])
        keep = vals == six.min(axis=0)
        kept = np.sort(six[:, keep], axis=0)
        sizes = 1 + np.count_nonzero(np.diff(kept, axis=0), axis=0)
        np.add.at(hist, w[keep], sizes)
    return hist


def _collect_range(kernel: _Kernel, start: int, stop: int, wanted: np.ndarray, cap: int):
    """Per-weight (values, exact count) for blocks in [start, stop); values capped."""
    found: dict[int, tuple[list[int], int]] = {}
    for first, w in kernel.weights(start, stop):
        lanes = np.flatnonzero(wanted[w])
        for v, wt in zip((lanes + first).tolist(), w[lanes].tolist()):
            values, count = found.setdefault(wt, ([], 0))
            if count < cap:
                values.append(v)
            found[wt] = (values, count + 1)
    return found


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
    """Contiguous block ranges, one per worker, and the threads that run them.

    Threads never exceed the cores this process may use, whatever ``workers``
    asks for; small jobs run serially with the same split and merge.
    """
    parts = max(1, min(_resolve_workers(workers), blocks))
    edges = [blocks * i // parts for i in range(parts + 1)]
    threads = min(parts, _cores()) if (1 << n) >= _THREADED_LANES else 1
    return list(zip(edges, edges[1:])), threads


def _run(n: int, workers: int | None, range_fn, *args) -> list:
    """range_fn(kernel, start, stop, *args) for every planned range, in range order."""
    kernel = _Kernel(n)
    parts, threads = _plan(n, kernel.blocks, workers)

    def task(part):
        return range_fn(kernel, *part, *args)

    if threads == 1:
        return [task(p) for p in parts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task, parts))


def _run_hist(n: int, workers: int | None, range_fn) -> np.ndarray:
    pieces = _run(n, workers, range_fn)
    total = pieces[0]
    for piece in pieces[1:]:
        total += piece
    return total


def _run_collect(n: int, weights, cap: int, workers: int | None) -> dict[int, tuple[list[int], int]]:
    size = n * (n + 1) // 2 + 1
    wanted = np.zeros(size, dtype=bool)
    for w in weights:
        wanted[w] = True
    results = _run(n, workers, _collect_range, wanted, cap)
    merged: dict[int, tuple[list[int], int]] = {w: ([], 0) for w in weights}
    for part in results:  # ranges are ascending, so concatenation stays sorted
        for wt, (values, count) in part.items():
            acc_values, acc_count = merged[wt]
            room = cap - len(acc_values)
            acc_values.extend(values[:room])
            merged[wt] = (acc_values, acc_count + count)
    return merged


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
    return tuple(sorted((BitSeq(n, v) for v in values), key=str))


def full_spectrum(n: int, *, workers: int | None = None, force: bool = False) -> WeightSpectrum:
    """Exact weight histogram by direct enumeration of every generator."""
    _check_size(n, force)
    return WeightSpectrum(n, tuple(_run_hist(n, workers, _hist_range).tolist()))


def symmetry_reduced_spectrum(n: int, *, workers: int | None = None,
                              force: bool = False) -> WeightSpectrum:
    """Same histogram, enumerating one orbit representative and adding orbit sizes.

    A lane contributes only if it is the smallest packed value in its orbit;
    the histogram then gains the orbit's size at that weight. Output is
    identical to ``full_spectrum`` because weight is symmetry-invariant.
    """
    _check_size(n, force)
    return WeightSpectrum(n, tuple(_run_hist(n, workers, _reduced_hist_range).tolist()))


def _level_sets(n: int, indices, spectrum: WeightSpectrum, cap: int,
                workers: int | None) -> list[LevelSet]:
    levels = spectrum.levels
    targets = [levels[i] for i in indices]
    got = _run_collect(n, sorted(set(targets)), cap, workers)
    out = []
    for i, w in zip(indices, targets):
        values, count = got[w]
        if count != spectrum.counts[w]:
            raise ValueError(f"spectrum disagrees with enumeration at n={n}: weight {w} "
                             f"has {count} generators, spectrum says {spectrum.counts[w]}")
        out.append(LevelSet(i, w, _to_seqs(n, values), count, count > len(values)))
    return out


def level_sets_low(n: int, k: int, *, cap: int = DEFAULT_MEMBER_CAP,
                   workers: int | None = None, force: bool = False,
                   spectrum: WeightSpectrum | None = None) -> list[LevelSet]:
    """Level sets W_0 .. W_k with members, via a second collection pass.

    Pass a precomputed ``spectrum`` for the same n to skip the histogram pass.
    """
    if k < 1:
        raise ValueError("need at least one level")
    if spectrum is None:
        spectrum = full_spectrum(n, workers=workers, force=force)
    if k > spectrum.m:
        raise ValueError(f"k={k} exceeds the top level m={spectrum.m} for n={n}")
    return _level_sets(n, range(k + 1), spectrum, cap, workers)


def level_sets_high(n: int, k: int, *, cap: int = DEFAULT_MEMBER_CAP,
                    workers: int | None = None, force: bool = False,
                    spectrum: WeightSpectrum | None = None) -> list[LevelSet]:
    """Level sets W_m, W_{m-1}, ... down k levels, with members."""
    if k < 1:
        raise ValueError("need at least one level")
    if spectrum is None:
        spectrum = full_spectrum(n, workers=workers, force=force)
    if k > spectrum.m + 1:
        raise ValueError(f"k={k} exceeds the ladder height for n={n}")
    indices = [spectrum.m - off for off in range(k)]
    return _level_sets(n, indices, spectrum, cap, workers)


def members_at_weights(n: int, weights, *, cap: int = DEFAULT_MEMBER_CAP,
                       workers: int | None = None,
                       force: bool = False) -> dict[int, WeightSlice]:
    """One collection pass returning the generators at each requested weight."""
    _check_size(n, force)
    targets = sorted(set(weights))
    top = n * (n + 1) // 2
    for w in targets:
        if not 0 <= w <= top:
            raise ValueError(f"weight {w} impossible for size {n}")
    got = _run_collect(n, targets, cap, workers)
    return {w: WeightSlice(n, w, _to_seqs(n, values), count, count > len(values))
            for w, (values, count) in got.items()}


def find_weight(n: int, w: int, *, cap: int = DEFAULT_MEMBER_CAP,
                workers: int | None = None, force: bool = False) -> WeightSlice:
    """Every generator whose triangle weight is exactly w (empty is valid)."""
    return members_at_weights(n, [w], cap=cap, workers=workers, force=force)[w]
