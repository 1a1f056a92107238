"""Both ends of the weight ladder by a prefix search, without a 2^n sweep.

Entry (r, c) of the triangle depends on x_c..x_{c+r} only, so fixing x_0..x_j
fixes every entry with c + r <= j. The search fixes one bit at a time on a
frontier of two numpy arrays, (D, A): A is the weight fixed so far and D the
last diagonal, whose bit r is entry (r, j - r) and which determines the prefix.
The next diagonal, over j + 2 bits, is D' = (x_{j+1} ? ones : 0) ^ (P(D) << 1),
where bit r of P(D), taken by shift-XOR steps, is the XOR of bits 0..r of D.
After the last bit, D is rot_r(x), of the same weight; each level and slice is
closed under rot_r, so its members, count and least values are read off D.

A prefix of length k leaves open the triangle of x_k..x_{n-1}, l = n - k long,
of weight at most W_m(l), and the k*l mixed entries (c < k <= c + r), which
fill a k x l grid under the same recurrence and weigh at most M(k, l). So
each prefix of a generator of weight >= t has A + W_m(l) + M(k, l) >= t. A
nonzero D makes a nonzero D' for either bit, so each of the l diagonals left
holds a one, and each prefix of one of weight <= t has A + l*[D != 0] <= t.
Each end is searched alone; t moves inward by 1, 2, 4, ... until the
generators found hold enough distinct weights to be its levels. The top starts
at t = ceil(n^2/3), the bottom at 2n - 3 or the largest exact weight asked
for: guesses that cost time when wrong, never exactness.

W_m(l) is never assumed: it comes from an exact top search at size l, which
needs only smaller sizes, and every top search records its own, so a run over
increasing n searches each size once. M(k, l) is exact for k, l <= 12, read
on first use from a bundled brute-force table (``fixtures/mixed_grid_max.txt``).
Past it the search uses the bound M(a + b, l) <= M(a, l) + M(b, l), and the
same in l: the grid's columns c >= a are the mixed grid of x_a..x_{n-1}, and
its columns c < a form an a x l grid under the same recurrence, which can
weigh no more than M(a, l). So the search is exact by construction at every
size it takes, n <= 64, the bits of D. Every level it returns is weighed
again member by member by the scalar ``triangle_weight`` and, unless capped,
must be closed under ``rot_r`` and ``invert_i``, which generate the group.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .families import _fixture_rows
from .spectrum import DEFAULT_MEMBER_CAP, WeightSlice, _request, _to_seqs
from .symmetry import invert_i, rot_r
from .triangle import triangle_weight

_EXACT_MIX = 12  # the bundled table holds M(k, l) for 1 <= k, l <= 12
_TOP_WEIGHT: dict[int, int] = {}  # W_m by size, each recorded by a top search
SEARCH_LIMIT = 64  # the bits of a uint64 diagonal


class LadderEnds(NamedTuple):
    """Levels at both ends of the weight ladder (see ``ladder_ends``)."""

    low: list[WeightSlice]  # W_0, W_1, ... upward
    high: list[WeightSlice]  # W_m, W_{m-1}, ... downward
    slices: dict[int, WeightSlice]  # requested weight -> its generators
    weighed: tuple[int, int]  # prefixes kept by the bottom and the top search, W_m chain aside


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


def _top_weight(l: int) -> int:
    """W_m at size l (0 for l = 0), from an exact top search at l the first time."""
    if l and l not in _TOP_WEIGHT:
        _end(l, True, -(-l * l // 3), 1, 1)
    return _TOP_WEIGHT[l] if l else 0


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


def _search(n: int, t: int, top: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The last diagonals rot_r(x) of the generators x of weight >= t (top)
    or <= t (bottom), their weights, and the prefixes kept on the way."""
    d = np.zeros(1, np.uint64)  # last diagonal
    a = np.zeros(1, np.int64)  # weight fixed so far
    kept = 0
    for j in range(n):
        ones = np.uint64((2 << j) - 1)
        for i in range((j - 1).bit_length()):  # P(D) over the j bits of D
            d = d ^ d << np.uint64(1 << i)
        d = d << np.uint64(1) & ones
        d = np.concatenate((d, d ^ ones))
        a = np.concatenate((a, a)) + np.bitwise_count(d)
        l = n - j - 1
        keep = a + _top_weight(l) + mix_bound(j + 1, l) >= t if top else a + l * (d != 0) <= t
        d, a = d[keep], a[keep]
        kept += len(d)
    return d, a, kept


def _end(n: int, top: bool, t: int, levels: int, cap: int,
         weights=()) -> tuple[list[WeightSlice], dict, int]:
    """The ``levels`` levels at one end of the ladder, nearest the end first,
    the slices of ``weights``, and the prefixes kept to find them.

    The threshold moves toward the middle (see ``_thresholds``, in signed
    weights) until the generators past it hold ``levels`` distinct weights,
    or all generators are past it.
    """
    if not levels and not weights:
        return [], {}, 0
    sign = 1 if top else -1
    kept = 0
    for t in _thresholds(sign * t, 0 if top else -(n * (n + 1) // 2)):
        d, w, count = _search(n, sign * t, top)
        kept += count
        found = np.unique(w)
        if len(found) >= levels:
            break
    if top:  # the search reached W_m
        _TOP_WEIGHT[n] = int(found[-1])
    return ([_level(n, int(wt), d[w == wt], cap) for wt in found[::-sign][:levels]],
            {wt: _level(n, wt, d[w == wt], cap) for wt in weights}, kept)


def ladder_ends(n: int, low: int, high: int, *, weights=(), cap: int = DEFAULT_MEMBER_CAP,
                force: bool = False) -> LadderEnds:
    """W_0 .. W_low (none if low is 0), the ``high`` levels from W_m down and
    the generators of each exact weight in ``weights``, as
    ``level_sets(n, low, high, weights=weights)`` gives them, clamped to the
    ladder, but from a search of each end rather than a sweep of all 2^n
    generators. A weight costs what a bottom end reaching it costs.

    Members are the first ``cap`` in packed order. Sizes are checked against
    the enumeration ceiling as for a sweep, and against ``SEARCH_LIMIT``.
    """
    weights = _request(n, low, high, weights, cap, force, limit=SEARCH_LIMIT)
    bottom, slices, kept_low = _end(n, False, max([2 * n - 3, *weights]),
                                    low + 1 if low else 0, cap, weights)
    top, _, kept_high = _end(n, True, -(-n * n // 3), high, cap)
    return LadderEnds(bottom, top, slices, (kept_low, kept_high))
