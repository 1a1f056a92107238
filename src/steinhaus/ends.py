"""Both ends of the weight ladder by a split-and-bound search, without a 2^n sweep.

Split a generator of length n at k = floor(n/2), l = n - k, as
x = (hi << k) | lo. Entry (r, c) of the triangle depends on x_c..x_{c+r}
only, so weight(x) = A[lo] + B[hi] + mix(lo, hi): A[lo] is the weight of the
triangle of lo as a generator of length k (the entries with c + r < k), B[hi]
that of hi as a generator of length l (c >= k), and mix the number of ones
among the k*l mixed entries (c < k <= c + r). Those fill a k x l grid under
the difference recurrence, fixed by its boundary, the right edge of T(lo) and
the left edge of T(hi); each edge is a bijective image of its half, so every
boundary occurs and 0 <= mix <= M(k, l), the largest weight of such a grid.

So a generator of weight >= t has A + B >= t - M, and one of weight <= t has
A + B <= t. Each end of the ladder is searched alone: take the pairs (lo, hi)
that pass its test, weigh them exactly and keep the generators of weight past
t. Once those hold enough distinct weights they are the ladder's end levels,
with every member; otherwise t moves inward by 1, 2, 4, ... and the search
runs again. The top starts at t = ceil(n^2/3), the bottom at t = 2n - 3 or
the largest exact weight asked for: guesses that cost time when wrong, never
exactness. With the low halves sorted by A,
each high half's pairs are a prefix of that order: one ``searchsorted`` finds
every prefix and one ``repeat`` expands them, in blocks of about
``_CANDIDATE_BLOCK`` lanes.

M(k, l) is exact for k, l <= 12, read on first use from a bundled brute-force
table (``fixtures/mixed_grid_max.txt``). Past it the search uses the bound
M(a + b, l) <= M(a, l) + M(b, l), and the same in l: the grid's columns
c >= a are the mixed grid of x_a..x_{n-1}, and its columns c < a form an
a x l grid under the same recurrence, which can weigh no more than M(a, l).
So the search is exact by construction at every size the engine takes
(n <= 40). Every level it returns is weighed again member by member by the
scalar ``triangle_weight`` and, unless capped, must be closed under
``rot_r`` and ``invert_i``, which generate the symmetry group.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .families import _fixture_rows
from .spectrum import DEFAULT_MEMBER_CAP, WeightSlice, _check_size, _to_seqs
from .symmetry import invert_i, rot_r
from .triangle import triangle_weight

_EXACT_MIX = 12  # the bundled table holds M(k, l) for 1 <= k, l <= 12
_CANDIDATE_BLOCK = 1 << 16  # lanes weighed at once, whatever the threshold


class LadderEnds(NamedTuple):
    """Levels at both ends of the weight ladder (see ``ladder_ends``)."""

    low: list[WeightSlice]  # W_0, W_1, ... upward
    high: list[WeightSlice]  # W_m, W_{m-1}, ... downward
    slices: dict[int, WeightSlice]  # requested weight -> its generators
    weighed: tuple[int, int]  # candidate lanes weighed for the bottom and the top


def _split_bound(k: int, l: int) -> int:
    """The least sum M(a, l) + M(k - a, l) or M(k, b) + M(k, l - b) over the
    splits of a k x l grid into two."""
    return min([mix_bound(a, l) + mix_bound(k - a, l) for a in range(1, k)]
               + [mix_bound(k, b) + mix_bound(k, l - b) for b in range(1, l)])


@functools.cache
def mix_bound(k: int, l: int) -> int:
    """M(k, l), exact where k, l <= 12 (0 if either is 0), else an upper
    bound on it from the subadditive splits."""
    if not k or not l:
        return 0
    if k <= _EXACT_MIX and l <= _EXACT_MIX:
        return int(_fixture_rows("mixed_grid_max.txt")[k - 1][l - 1])
    return _split_bound(k, l)


def _weights(x: np.ndarray, n: int) -> np.ndarray:
    """Triangle weight of each packed generator of length n in ``x``, by n row steps."""
    x = x.astype(np.uint64)
    w = np.zeros(x.shape, dtype=np.int64)
    for m in range(n - 1, -1, -1):
        w += np.bitwise_count(x)
        x = (x ^ x >> np.uint64(1)) & np.uint64((1 << m) - 1)
    return w


def _blocks(his: np.ndarray, counts: np.ndarray):
    """Runs of ``his`` whose ``counts`` sum to at most ``_CANDIDATE_BLOCK``
    lanes, or a single high half that has more."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(his):
        before = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + _CANDIDATE_BLOCK, "right")))
        yield his[start:stop], counts[start:stop]
        start = stop


def _candidates(k: int, order: np.ndarray, his: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Generators (hi << k) | order[j] for j < counts[i], hi = his[i], packed."""
    starts = np.cumsum(counts) - counts
    lanes = np.arange(int(counts.sum())) - np.repeat(starts, counts)
    return np.repeat(his.astype(np.uint64), counts) << np.uint64(k) | order[lanes]


def _level(n: int, weight: int, values: np.ndarray, cap: int) -> WeightSlice:
    """The slice of ``weight`` from all its generators, after the self-checks."""
    members = _to_seqs(n, np.sort(values)[:cap].tolist())
    piece = WeightSlice(n, weight, members, len(values), len(values) > len(members))
    for y in members:
        if triangle_weight(y) != weight:
            raise ValueError(f"ladder search at n={n}: {y} has weight "
                             f"{triangle_weight(y)}, not {weight}")
    if not piece.truncated:
        held = set(members)
        for y in members:
            if not held.issuperset((rot_r(y), invert_i(y))):
                raise ValueError(f"ladder search at n={n}: the level of weight "
                                 f"{weight} is not closed under the symmetries of {y}")
    return piece


def _thresholds(t: int, floor: int) -> list[int]:
    """t, then toward ``floor`` by steps of 1, 2, 4, ..., ending at ``floor``."""
    return [max(t + 1 - (1 << i), floor) for i in range((t - floor).bit_length() + 1)]


def _end(n: int, k: int, a: np.ndarray, b: np.ndarray, sign: int, slack: int, t: int,
         levels: int, cap: int, weights=()) -> tuple[list[WeightSlice], dict, int]:
    """The ``levels`` levels at one end of the ladder, nearest the end first,
    the slices of ``weights``, and the lanes weighed to find them: the bottom
    end for sign -1, the top for sign +1.

    It works in signed weights: with a = sign * A and b = sign * B, sign * mix
    is at most ``slack`` (M at the top, 0 at the bottom), so every generator
    of sign * weight >= sign * t has a[lo] + b[hi] >= sign * t - slack. The
    threshold moves toward the middle (see ``_thresholds``) until the
    generators past it hold ``levels`` distinct weights, or all generators
    are past it.
    """
    if not levels and not weights:
        return [], {}, 0
    a, b = sign * a, sign * b
    order = np.argsort(-a, kind="stable").astype(np.uint64)  # low halves, best first
    keys = np.sort(-a)
    floor = 0 if sign > 0 else -(n * (n + 1) // 2)  # no generator lies past it
    weighed = 0
    for t in _thresholds(sign * t, floor):
        counts = np.searchsorted(keys, slack - t + b, "right")  # prefix of ``order`` per hi
        his = np.flatnonzero(counts)
        kept = [(np.zeros(0, np.uint64), np.zeros(0, np.int64))]
        for block_his, block_counts in _blocks(his, counts[his]):
            x = _candidates(k, order, block_his, block_counts)
            w = _weights(x, n)
            weighed += len(x)
            keep = sign * w >= t
            kept.append((x[keep], w[keep]))
        x, w = (np.concatenate(arrays) for arrays in zip(*kept))
        found = np.unique(w)
        if len(found) >= levels:
            break
    return ([_level(n, int(wt), x[w == wt], cap) for wt in found[::-sign][:levels]],
            {wt: _level(n, wt, x[w == wt], cap) for wt in weights}, weighed)


def _split_search(n: int, k: int, low: int, high: int, cap: int, weights=()) -> LadderEnds:
    """``ladder_ends`` with a low half of k entries; every 0 <= k <= n gives
    the same result."""
    a = _weights(np.arange(1 << k), k)
    b = _weights(np.arange(1 << n - k), n - k)
    bottom, slices, weighed_low = _end(n, k, a, b, -1, 0, max([2 * n - 3, *weights]),
                                       low + 1 if low else 0, cap, weights)
    top, _, weighed_high = _end(n, k, a, b, 1, mix_bound(k, n - k), -(-n * n // 3), high, cap)
    return LadderEnds(bottom, top, slices, (weighed_low, weighed_high))


def ladder_ends(n: int, low: int, high: int, *, weights=(), cap: int = DEFAULT_MEMBER_CAP,
                force: bool = False) -> LadderEnds:
    """W_0 .. W_low (none if low is 0), the ``high`` levels from W_m down and
    the generators of each exact weight in ``weights``, as
    ``level_sets(n, low, high, weights=weights)`` gives them, clamped to the
    ladder, but from a search of each end rather than a sweep of all 2^n
    generators. A weight costs what a bottom end reaching it costs.

    Members are the first ``cap`` in packed order. Sizes are checked against
    the enumeration ceiling and the engine limit as for a sweep.
    """
    if low < 0 or high < 0:
        raise ValueError("level counts must be nonnegative")
    if cap < 0:
        raise ValueError("member cap must be nonnegative")
    _check_size(n, force)
    weights = sorted(set(weights))
    if weights and not 0 <= weights[0] <= weights[-1] <= n * (n + 1) // 2:
        raise ValueError(f"weights {weights} are not all possible for size {n}")
    return _split_search(n, n // 2, low, high, cap, weights)
