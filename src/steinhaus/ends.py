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
holds a one, and each prefix of one of weight <= t has A + l*[D != 0] <= t;
D is nonzero exactly where A is, as D determines the prefix.

One frontier serves many searches, or requests (n, t, top): each holds a
contiguous run of it, and each depth fixes the next bit of every request in
the same numpy calls, so a batch pays numpy's per-call cost once per depth, not
once per request and depth. A request leaves at its last bit. A frontier past
``_BATCH_PREFIXES`` splits at its middle, perhaps inside a request's run, and
the halves finish depth first; each request's pieces are joined at the end.

Each end is searched until it holds its levels: t moves inward by 1, 2, 4, ...
until the generators found hold enough distinct weights. The top starts at
t = ceil(n^2/3), the bottom at 2n - 3 or the largest exact weight asked for:
guesses that cost time when wrong, never exactness. The ends of all the sizes
asked for run in waves, each one batch of every end that is ready for its next
threshold.

W_m(l) is never assumed: it comes from an exact top search at size l, which
needs only smaller sizes, and every top search records its own. A top end is
ready once W_m is known at every size below its own, and a size below a top
end that no end of the batch searches gets a top search of its own. So a first
run over increasing n searches each top once, one size per wave, upward, while
the bottoms share the first wave; a later run finds every W_m known and
searches all its ends in one wave. M(k, l) is exact for k, l <= 12, read
on first use from a bundled brute-force table (``fixtures/mixed_grid_max.txt``).
Past it the search uses the bound M(a + b, l) <= M(a, l) + M(b, l), and the
same in l: the grid's columns c >= a are the mixed grid of x_a..x_{n-1}, and
its columns c < a form an a x l grid under the same recurrence, which can
weigh no more than M(a, l). So the search is exact by construction at every
size it takes, n <= 64, the bits of D. Before any level or slice leaves
``_ends``, every member it returns, the W_m chain's included, goes through one
self-check: ``triangle.row_steps`` weighs it again and takes its rot_r and
invert_i images by the row recurrence of ``triangle_weight``, not by the
search's diagonals; each member must have its level's weight, and each level
not capped must hold the images of its members, since rot_r and invert_i
generate the group.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import NamedTuple

import numpy as np

from .bitseq import BitSeq
from .families import _fixture_rows
from .spectrum import DEFAULT_MEMBER_CAP, WeightSlice, _request, _to_seqs
from .triangle import row_steps

_EXACT_MIX = 12  # the bundled table holds M(k, l) for 1 <= k, l <= 12
_TOP_WEIGHT: dict[int, int] = {}  # W_m by size, each recorded by a top search
SEARCH_LIMIT = 64  # the bits of a uint64 diagonal
# A depth costs about 25 us of fixed per-call cost, whatever its frontier, and
# 35 ns a prefix past 2^14 (2 cores, numpy 2.4.6). One half of at most this many
# prefixes waits per depth: at 10 bytes a prefix, 42 MB over 64 depths. A warm
# verify_all(25, 64) took 0.40 s at 2^14, as halves shrank, 0.21 s at 2^16, and
# 0.25 s at 2^17 but with a peak RSS of 45 MB, not 38.
_BATCH_PREFIXES = 1 << 16


class LadderEnds(NamedTuple):
    """Levels at both ends of the weight ladder (see ``ladder_ends``)."""

    low: list[WeightSlice]  # W_0, W_1, ... upward
    high: list[WeightSlice]  # W_m, W_{m-1}, ... downward
    slices: dict[int, WeightSlice]  # requested weight -> its generators
    weighed: tuple[int, int]  # prefixes kept by the bottom and the top search, W_m chain aside


class _End(NamedTuple):
    """One end of the ladder at size n, searched from threshold t (see ``_ends``)."""

    n: int
    top: bool
    t: int
    levels: int
    cap: int
    weights: list[int]


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
        _ends([_End(l, True, -(-l * l // 3), 1, 1, [])])
    return _TOP_WEIGHT[l] if l else 0


def _self_check(levels: list[tuple[int, int, np.ndarray, bool]]) -> None:
    """Raise on the first member of ``levels``, each (n, weight, least members
    ascending, whole), that ``row_steps`` weighs off its level's weight, or,
    in a whole level, whose rot_r or invert_i image is not a member.

    Both maps are injective, so a whole level is closed under one exactly when
    its images, sorted by (level, value), equal its members.
    """
    if not levels:
        return
    ns, weights, members, wholes = zip(*levels)
    tags = np.repeat(np.arange(len(levels)), [len(v) for v in members])
    values = np.concatenate(members)
    weight, *images = row_steps(values, np.array(ns)[tags])
    wrong = np.flatnonzero(weight != np.array(weights)[tags])
    if len(wrong):
        i = wrong[0]
        n, w, *_ = levels[tags[i]]
        raise ValueError(f"ladder search at n={n}: {BitSeq(n, int(values[i]))} has weight "
                         f"{weight[i]}, not {w}")
    whole = np.array(wholes)[tags]
    tags, held = tags[whole], values[whole]
    for image in images:
        image = image[whole]
        off = np.flatnonzero(image[np.lexsort((image, tags))] != held)
        if len(off):
            n, w, least, _ = levels[tags[off[0]]]
            y = least[~np.isin(image[tags == tags[off[0]]], least)][0]
            raise ValueError(f"ladder search at n={n}: the level of weight {w} is not "
                             f"closed under the symmetries of {BitSeq(n, int(y))}")


def _thresholds(t: int, floor: int) -> list[int]:
    """t, then toward ``floor`` by steps of 1, 2, 4, ..., ending at ``floor``."""
    return [max(t + 1 - (1 << i), floor) for i in range((t - floor).bit_length() + 1)]


def _cut(n: int, t: int, top: bool, j: int) -> int:
    """After bit j, the weight fixed so far from which a prefix is kept (top)
    or dropped (bottom): A + l*[A > 0] <= t holds for A <= t - l, and for
    A = 0 alone where 0 <= t <= l."""
    l = n - j - 1
    if top:
        return t - _top_weight(l) - mix_bound(j + 1, l)
    return (t - l if t > l else min(t, 0)) + 1


def _leave(reqs: list, d: np.ndarray, a: np.ndarray, sizes: list[int], j: int,
           out: list) -> tuple[list, np.ndarray, np.ndarray, list[int]]:
    """Add to ``out`` a copy of the run of each request of size j or left empty;
    return the other requests, the one slice that their runs make, and the runs' sizes."""
    starts = [0, *itertools.accumulate(sizes)]
    runs = list(zip(reqs, starts, starts[1:]))
    stay = [(r, lo, hi) for r, lo, hi in runs if hi > lo and r[1] > j]
    for (i, n, *_), lo, hi in runs:
        if hi == lo or n == j:
            out[i].append((d[lo:hi].copy(), a[lo:hi].copy()))
    lo, hi = (stay[0][1], stay[-1][2]) if stay else (0, 0)
    return [r for r, *_ in stay], d[lo:hi], a[lo:hi], [hi - lo for _, lo, hi in stay]


def _search(requests: list[tuple[int, int, bool]]) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """For each request (n, t, top): the last diagonals rot_r(x) of the
    generators x of weight >= t (top) or <= t (bottom), their weights, and the
    prefixes kept on the way.

    The frontier holds the tops by ascending n, then the bottoms by descending
    n, so the requests that leave at a depth sit at its two ends and the rest
    stay one slice. Each request's run is contiguous, so a count per request,
    not a tag per prefix, tells the runs apart, and the pieces of a run that a
    split cuts come in order. Weights, at most 64 * 65 / 2 = 2080, are int16.
    """
    order = sorted(range(len(requests)), key=lambda i: (not requests[i][2],
                   requests[i][0] if requests[i][2] else -requests[i][0]))
    out: list = [[] for _ in requests]
    kept = [0] * len(requests)
    parts = [([(i, *requests[i]) for i in order], np.zeros(len(order), np.uint64),
              np.zeros(len(order), np.int16), [1] * len(order), 0)]
    while parts:
        reqs, d, a, sizes, j = parts.pop()
        while True:
            if 0 in sizes or j in [n for _, n, _, _ in reqs]:
                reqs, d, a, sizes = _leave(reqs, d, a, sizes, j, out)
            if not reqs:
                break
            if len(d) > _BATCH_PREFIXES:  # the first half goes on, a copy of the second waits
                half, ends = len(d) // 2, list(itertools.accumulate(sizes))
                k, m = bisect.bisect_left(ends, half), bisect.bisect_right(ends, half)
                parts.append((reqs[m:], d[half:].copy(), a[half:].copy(),
                              [ends[m] - half, *sizes[m + 1:]], j))
                reqs, d, a = reqs[:k + 1], d[:half], a[:half]
                sizes = [*sizes[:k], half - ends[k] + sizes[k]]
            ones = np.uint64((2 << j) - 1)
            for i in range((j - 1).bit_length()):  # P(D) over the j bits of D
                d ^= d << np.uint64(1 << i)
            d <<= np.uint64(1)
            d &= ones
            # x_j = 0 and x_j = 1 side by side, so each request's run stays contiguous
            pair = np.empty((len(d), 2), np.uint64)
            pair[:, 0] = d
            np.bitwise_xor(d, ones, out=pair[:, 1])
            d = pair.reshape(-1)
            a = a.repeat(2)
            a += np.bitwise_count(d)
            sizes = [2 * size for size in sizes]
            keep = a >= np.array([_cut(n, t, top, j) for _, n, t, top in reqs],
                                 np.int16).repeat(sizes)
            tops = sum(size for (*_, top), size in zip(reqs, sizes) if top)
            if tops < len(keep):  # a bottom keeps what lies below its cut
                np.logical_not(keep[tops:], out=keep[tops:])
            keep = keep.nonzero()[0]  # an index gathers faster than a mask
            ends = keep.searchsorted(list(itertools.accumulate(sizes))).tolist()
            sizes = [hi - lo for lo, hi in zip([0, *ends], ends)]
            for (i, *_), size in zip(reqs, sizes):
                kept[i] += size
            d = d[keep]
            a = a[keep]
            j += 1
    return [(*map(np.concatenate, zip(*pieces)), k) for pieces, k in zip(out, kept)]


def _ends(ends: list[_End]) -> list[tuple[list[WeightSlice], dict, int]]:
    """For each end: its ``levels`` levels, nearest the end first, the slices
    of its ``weights``, and the prefixes kept to find them.

    An end's threshold moves toward the middle (see ``_thresholds``, in signed
    weights) until the generators past it hold ``levels`` distinct weights, or
    all generators are past it. The ends search in waves, each one ``_search``
    of every open end that is ready, at its next threshold. The levels and
    slices of every end, the W_m chain's too, pass one ``_self_check``
    before any is returned.
    """
    searched = {e.n for e in ends if e.top and (e.levels or e.weights)}
    chain = [_End(l, True, -(-l * l // 3), 1, 1, []) for l in range(1, max(searched, default=0))
             if l not in searched and l not in _TOP_WEIGHT]
    ends = [*ends, *chain]
    pieces: list[list[tuple[int, np.ndarray, int]]] = [[] for _ in ends]
    kept = [0] * len(ends)
    todo = {}  # each open end's thresholds to come
    for i, e in enumerate(ends):
        if e.levels or e.weights:
            sign = 1 if e.top else -1
            floor = 0 if e.top else -(e.n * (e.n + 1) // 2)
            todo[i] = [sign * t for t in _thresholds(sign * e.t, floor)]
    while todo:
        unknown = next(l for l in itertools.count(1) if l not in _TOP_WEIGHT)
        ready = [i for i in todo if not ends[i].top or ends[i].n <= unknown]
        for i, (d, w, count) in zip(ready, _search([(ends[i].n, todo[i][0], ends[i].top)
                                                    for i in ready])):
            e, sign = ends[i], 1 if ends[i].top else -1
            kept[i] += count
            # the distinct weights, ascending: np.unique would import numpy.ma
            found = np.flatnonzero(np.bincount(w))
            if e.top and len(found):  # the search reached W_m
                _TOP_WEIGHT[e.n] = int(found[-1])
            del todo[i][0]
            if len(found) >= e.levels or not todo[i]:
                del todo[i]
                wanted = [*found[::-sign][:e.levels].tolist(), *e.weights]
                levels = [d[w == wt] for wt in wanted]
                pieces[i] = [(wt, np.sort(v)[:e.cap], len(v)) for wt, v in zip(wanted, levels)]
    _self_check([(e.n, wt, least, count == len(least))
                 for e, got in zip(ends, pieces) for wt, least, count in got])
    results = []
    for e, got, k in zip(ends[:len(ends) - len(chain)], pieces, kept):
        slices = [WeightSlice(e.n, wt, _to_seqs(e.n, least.tolist()), count, count > len(least))
                  for wt, least, count in got]
        cut = len(slices) - len(e.weights)
        results.append((slices[:cut], dict(zip(e.weights, slices[cut:])), k))
    return results


def ladder_ends_batch(requests, *, cap: int = DEFAULT_MEMBER_CAP,
                      force: bool = False) -> list[LadderEnds]:
    """``ladder_ends(n, low, high, weights=weights, cap=cap, force=force)`` for
    each request (n, low, high, weights), every one checked before any search,
    from one set of waves over the ends of all of them."""
    ends = []
    for n, low, high, weights in requests:
        weights = _request(n, low, high, weights, cap, force, limit=SEARCH_LIMIT)
        ends += [_End(n, False, max([2 * n - 3, *weights]), low + 1 if low else 0, cap, weights),
                 _End(n, True, -(-n * n // 3), high, cap, [])]
    found = _ends(ends)
    return [LadderEnds(bottom, top, slices, (kept_low, kept_high))
            for (bottom, slices, kept_low), (top, _, kept_high) in zip(found[::2], found[1::2])]


def ladder_ends(n: int, low: int, high: int, *, weights=(), cap: int = DEFAULT_MEMBER_CAP,
                force: bool = False) -> LadderEnds:
    """W_0 .. W_low (none if low is 0), the ``high`` levels from W_m down and
    the generators of each exact weight in ``weights``, as
    ``level_sets(n, low, high, weights=weights)`` gives them, clamped to the
    ladder, but from a search of each end rather than a sweep of all 2^n
    generators. A weight costs what a bottom end reaching it costs.

    Members are the first ``cap`` in packed order. Sizes are checked against
    the enumeration ceiling as for a sweep, and against ``SEARCH_LIMIT``. This
    is the one-size case of ``ladder_ends_batch``.
    """
    return ladder_ends_batch([(n, low, high, weights)], cap=cap, force=force)[0]
