"""Exhaustive enumeration of triangle weights over all 2^n generators.

The difference operator is linear over GF(2), so the triangle of
x = (hi << k) | lo, packed row after row into an n(n+1)/2-bit vector, is
T(hi << k) XOR T(lo). Entry (r, c) of the triangle depends only on
x_c..x_{c+r}, which splits its bits into four classes. Lo-only bits
(c + r < k) form the triangle of lo; their weight is tabulated once for every
k-bit low half. Hi-only bits (c >= k) form the triangle of hi; their weight
is one number per block. The k(n-k) mixed bits (c < k <= c + r), l = n - k
in each column c < k, go through an XOR with T(hi << k) and a popcount, and
their T(lo) part reads only x_c..x_{k-1}. Those of the first c* = 64 // l
columns are tabulated for every low half in one uint64 word; the rest, the
periodic bits, read only x_c*..x_{k-1}, which are the low t = k - c* bits of
the lane index j (see below), so their weight is a function of j mod 2^t in
each block. Tables are built from the unit-vector triangles by doubling XORs.
Generators come in blocks of lanes, one block per high half: the block's
weights are the lo-only weights plus the hi-only weight plus one XOR and
popcount of the lane's word against the matching word of T(hi << k), plus
the periodic weight, taken at 2^t lanes and added over every period that
reaches the block's last lane. T(hi << k) is the XOR of the rows of the high
units set in hi, so blocks are taken in chunks of consecutive blocks, in any
ascending order: a few vectorized calls give every block's words of
T(hi << k), its hi-only weight and its periodic weight, and each block then
costs four calls over its lanes (the periodic add, the XOR, the popcount and
the key add). The tables hold one word and one uint16 per lane of a block
for every n; those of the last size are kept for the next sweep.

Two symmetries cut the lanes to about 2^(n-2). T(1^n) is the top row alone,
so T(~x) differs from T(x) in row 0 only, and weight(~x) = weight(x) + n -
2|x|, where |x| counts the ones of x. So the kernel evaluates only
generators with x_0 = 0, and a lane's key is its weight w plus
(n(n+1)/2 + 1) times its ones count p: the key gives the lane's weight and
its complement's, w + n - 2p. A block's lanes run in bit-reversed order of
lo (lane j holds lo = bitrev_k(j), so x_0 is j's top bit and x_{k-1} its bit
0), and the tables hold only lanes j < 2^(k-1), those with x_0 = 0.
Reversing a generator mirrors its triangle, so both have the same weight.
Blocks hi' and hi' ^ (2^l - 1), l = n - k, are evaluated together as one
pair: in the first, x_{n-1} = 0 and a lane z pairs with rev z; in the
partner, x_{n-1} = 1 and z pairs with ~rev z, which also starts with 0. The
lanes that read less than their pair come first, and each pair evaluates a
prefix [0, b) of its lanes in both blocks: lanes [0, a) count twice, for
{z, ~z} and for {rev z, ~rev z}, and lanes [a, b), a tie closed under the
pairing, once. That needs n <= 2k, so past n = 34 a block spans half the
generator, rounded up (see ``_block_width``).

One sweep gives the histogram; the members of chosen weights take a second
pass over only the pairs that can hold them. The kernel writes a pair's keys
as one contiguous intp array over its XOR buffer, once the popcount has read
it, so they are counted where they lie: one ``bincount`` per pair counts all
its lanes, each standing for two generator pairs {z, ~z}, and one
``subtract.at`` takes off its tie lanes, which stand for one. When members
are asked for, the sweep also keeps each pair's least and greatest weight,
the least and greatest of the two weights of the keys it holds (a key's
weight and its complement's). Pair hi' evaluates about hi' + 1 lanes' worth,
so work splits into contiguous ranges of pairs of about equal work, one per
thread: ``workers`` caps the threads at the cores this process may use, and
no count changes the output. Ranges merge by adding key counts and folding
them into the weight histogram once, a key (w, p) adding its count at w and
at w + n - 2p. The weights wanted are then read off that exact histogram
once: the few smallest and largest, plus any fixed weights. The second pass
keys again, in one call on the calling thread, the pairs whose weight range
[least, greatest] spans a wanted weight, and scans them for its lanes. A lane
gives its generator and its complement and, if it counts twice, the reversal
and its complement, each to the weight it has; per weight the ``cap`` least
packed values are kept to bound memory, so results are identical for any
worker count or block width. Every sweep checks that the histogram totals
2^n, which also checks the multiplicities, and that the members scanned at
each collected weight match its count.
``three_row_max`` needs no sweep: it is a max-plus pass over the states
(x_{i-1}, x_i) and a backtrack.
"""
from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .bitseq import BitSeq

DEFAULT_CEILING = 30
CEILING_ENV = "STEINHAUS_MAX_N"
DEFAULT_MEMBER_CAP = 4096
_HARD_LIMIT = 40  # projected 16-18 min on 2 cores: 7.4-8.3 s at n = 33, doubling per size
# k at 17 <= n <= 34: tables of one uint64 word and one uint16 key per lane,
# 2^16 lanes, plus the periodic mixed columns, tabulated at only 2^t lanes
_BLOCK_BITS = 17
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


def _check_size(n: int, force: bool, limit: int = _HARD_LIMIT) -> None:
    if n < 1:
        raise ValueError("enumeration needs n >= 1")
    if n > limit:
        raise CeilingExceeded(f"n={n} exceeds the engine limit of {limit}")
    ceiling = enumeration_ceiling()
    if n > ceiling and not force:
        raise CeilingExceeded(
            f"n={n} exceeds the enumeration ceiling of {ceiling}; "
            f"pass force=True (CLI --force) or raise {CEILING_ENV}"
        )


def _request(n: int, low: int, high: int, weights, cap: int, force: bool,
             limit: int = _HARD_LIMIT) -> list[int]:
    """The distinct ``weights``, ascending, of a request for ``low`` and
    ``high`` levels and those weights' generators at size n, once its level
    counts, member cap, size and weights are checked."""
    if low < 0 or high < 0:
        raise ValueError("level counts must be nonnegative")
    if cap < 0:
        raise ValueError("member cap must be nonnegative")
    _check_size(n, force, limit)
    weights = sorted(set(weights))
    if weights and not 0 <= weights[0] <= weights[-1] <= n * (n + 1) // 2:
        raise ValueError(f"weights {weights} are not all possible for size {n}")
    return weights


def _unit_triangle(n: int, j: int) -> int:
    """Triangle of the j-th unit vector of length n, rows packed one after another."""
    row, packed, offset = 1 << j, 0, 0
    for m in range(n, 0, -1):
        packed |= row << offset
        offset += m
        row = (row ^ row >> 1) & ((1 << (m - 1)) - 1)
    return packed


def _dense(values: list[int], positions: list[int], clear: int) -> np.ndarray:
    """Row i: the bits of values[i] at ``positions``, packed densely into uint64
    words; bit ``clear``, clear in every value, pads the last word."""
    positions = positions + [clear] * (-len(positions) % 64)
    size = max(positions, default=0) // 8 + 1
    raw = np.frombuffer(b"".join([v.to_bytes(size, "little") for v in values]), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(values), size), axis=1, bitorder="little")
    packed = np.packbits(bits.take(positions, axis=1), axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _set_bits(value: int) -> list[int]:
    """Positions of the one bits of ``value``, ascending."""
    return [i for i, bit in enumerate(bin(value)[:1:-1]) if bit == "1"]


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


def _block_width(n: int) -> int:
    """k, the bits of lo in a block: ``_BLOCK_BITS``, or n/2 rounded up if that
    is more, so that n <= 2k; all of n if that is less (one block)."""
    return min(n, max(_BLOCK_BITS, -(-n // 2)))


@functools.lru_cache(maxsize=1)
def _tables(n: int, k: int):
    """The read-only tables of ``_Kernel(n)`` with k-bit blocks; those of the
    last size are kept, as a process sweeps one size after another."""
    bits = n * (n + 1) // 2
    bins = bits + 1
    l = n - k
    units = [_unit_triangle(n, j) for j in range(n)]
    lo = functools.reduce(operator.or_, units[:k], 0)
    hi = functools.reduce(operator.or_, units[k:], 0)
    lo_only, mixed, hi_only = _set_bits(lo & ~hi), _set_bits(lo & hi), _set_bits(hi & ~lo)
    # Each column c < k holds l mixed bits; those of the first c* columns fill
    # one word per lane, and the rest read only x_c*..x_{k-1}.
    periodic_from = min(k, 64 // max(l, 1))
    column = [c for r in range(n) for c in range(n - r)]  # of each packed bit
    lane = [p for p in mixed if column[p] < periodic_from]
    periodic = [p for p in mixed if column[p] >= periodic_from]
    words = -(-len(periodic) // 64)
    # One row per unit: the lo-only bits in the first words, padded with bit
    # ``bits`` (always clear), then one word of the lane's mixed bits, then the
    # periodic ones, then the hi-only ones. Lanes have x_0 = 0, so unit 0 needs
    # no row: rows[j - 1] is unit j. High units have no lo-only bit, and low
    # units no hi-only bit.
    split = -(-len(lo_only) // 64)
    rows = _dense(units[1:], lo_only + [bits] * (64 * split - len(lo_only))
                  + lane + [bits] * (64 - len(lane))
                  + periodic + [bits] * (64 * words - len(periodic)) + hi_only, bits)
    spread = rows[:k - 1][::-1]  # row i: unit k - 1 - i, bit i of lane j
    # uint16 throughout: bitwise_count gives uint8, and bins * uint8 would wrap;
    # the lane indices themselves pass 2^16 from k = 18 on
    base = np.bitwise_count(np.arange(1 << (k - 1))).astype(np.uint16) * bins
    for word in range(split):  # one 2^(k-1)-lane word at a time
        base += np.bitwise_count(_span(spread[:, word:word + 1])[0])
    table = _span(spread[:, split:split + 1])[0]
    # Lane j's low t bits are x_{k-1}..x_{c*}: the periodic words are tabulated
    # for j < 2^t and read at j mod 2^t.
    period = _span(spread[:k - periodic_from, split + 1:split + 1 + words])
    # per high unit, its mixed, periodic and hi-only words: T(hi << k) is the
    # XOR of the rows of the high units set in hi
    steps = rows[k - 1:, split:]
    # Row 0: the weight of a key's generator; row 1: of its complement (a key
    # no lane holds reads some weight in range too).
    key_ones, weight = np.divmod(np.arange((n + 1) * bins), bins)
    key_weights = np.array([weight, (weight + n - 2 * key_ones) % bins])
    for array in (base, table, period, steps, key_weights):
        array.flags.writeable = False  # shared by every kernel built from the cache
    return base, table, period, steps, key_weights


class _Kernel:
    """Keys of the generators of length n with x_0 = 0, one pair of blocks
    at a time from chunks of pairs, one generator of each
    {x, rev x, ~x, ~rev x} class.

    Block ``hi`` holds the generators (hi << k) | lo, k = ``_block_width(n)``,
    in bit-reversed order of lo: lane j holds lo = bitrev_k(j), so x_0 is j's
    top bit and only lanes j < 2^(k-1) are tabulated. Blocks come in pairs
    hi' and hi' ^ (2^l - 1), l = n - k, whose generators are each other's
    complements up to the low half; for n <= k there is one block and no
    partner. Each pair evaluates the prefix of its lanes that ``cover``
    names, both blocks in one (2, b) array.

    A lane's key is its weight w plus ``bins`` times its ones count p, with
    bins = n(n+1)/2 + 1, so a key stays below (n + 1) * bins <= 33661: its
    parts are summed in uint16 for every n <= 40, and the last add writes it
    as intp, which ``bincount`` reads without a copy. Column key of
    ``key_weights`` holds both weights a key gives: the lane's generator's,
    w, and its complement's, w + n - 2p. The tables are built, and those of
    the last size kept, by ``_tables``.

    Each bit falls in one of four classes, read off the unit triangles and
    the columns: set by some low unit only (lo-only), by some high unit only
    (hi-only), or by both (mixed), and mixed bits in the first c* = 64 // l
    columns or in the others (periodic). The lo-only weight plus bins * |lo|
    of every lane is tabulated once in ``base``; the hi-only weight plus
    bins * |hi| is one number per block; the mixed bits of lane j's first c*
    columns are one uint64 word, ``table[j]``, and its periodic bits, which
    read only j's low t bits, are the words of ``period[:, j mod 2^t]``. For
    k(n-k) <= 64, c* = k and t = 0: the periodic table has no word. Row j of
    ``_steps`` holds high unit j's mixed, periodic and hi-only words, whose
    XOR over the units set in hi gives a block's words of T(hi << k) and its
    hi-only weight, for a whole chunk of pairs at once (``_blocks``).
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.k = k = _block_width(n)
        self.l = l = n - k
        self.pairs = 1 << max(l - 1, 0)
        self.bins = n * (n + 1) // 2 + 1
        self.base, self.table, self.period, self._steps, self.key_weights = _tables(n, k)
        self.t = t = self.period.shape[1].bit_length() - 1
        words = len(self.period)
        self._high = self._steps[:, :1 + words]  # the mixed words of each high unit
        # pairs per chunk: as many as let the chunk's periodic XORs, 2^t lanes
        # per word and block, fit the pair buffers' 2^(k-1) lanes per block
        self._chunk = max(1, (1 << (k - 1 - t)) // max(words, 1))
        self._flips = np.array([0, (1 << l) - 1] if l else [0], dtype=np.uint64)
        self._shifts = np.arange(l, dtype=np.uint64)[:, None, None]

    def cover(self, hi: int) -> tuple[int, int]:
        """(a, b): lanes [0, a) of block ``hi`` count twice, lanes [a, b)
        once, and the rest not at all.

        Let τz be rev z if z_{n-1} = 0 and ~rev z otherwise; both z and τz
        have x_0 = 0, and a lane that counts twice stands for τz too. Lane j
        reads x's first k entries with x_0 on top; τz's first n-k entries,
        read the same way, are hi' = hi for the first block of a pair and
        hi ^ (2^l - 1) for its partner, so both blocks get the same a and b.
        As n <= 2k, lanes below a = hi' << (2k - n) read less than τz. The
        2^(2k-n) lanes from a tie, differ only in their middle entries and so
        are closed under τ: each counts once. For n <= k every lane counts
        once: (0, 2^(n-1)).
        """
        n, k, l = self.n, self.k, self.l
        if not l:
            return 0, self.base.size
        flip = (1 << l) - 1 if hi >> (l - 1) else 0  # the partner reads τz complemented
        a = (hi ^ flip) << (2 * k - n)
        return a, a + (1 << (2 * k - n))

    def packed(self, hi, lanes):
        """Generators held by ``lanes`` (an int64 array) of block ``hi`` (an int,
        or an array of one block per lane), as packed values."""
        return hi << self.k | _reversed(lanes, self.k)

    def _blocks(self, pairs: np.ndarray):
        """(blocks, words, consts) of ``pairs``, a uint64 array of pairs hi'.
        Row r of blocks[i] is block hi' and, if l > 0, its partner
        hi' ^ (2^l - 1); words[w, i, r] is word w of T(hi << k) on the mixed
        bits of that block (word 0 matches ``table``, words 1.. the rows of
        ``period``), and consts[i, r] its uint16 hi-only weight plus
        bins * |hi|. T is linear, so T(hi << k) is the XOR of the rows of the
        high units set in hi: one reduce for every block."""
        blocks = pairs[:, None] ^ self._flips
        bits = blocks >> self._shifts & 1  # row j: bit j of every block
        steps = np.bitwise_xor.reduce(self._steps.T[..., None, None] * bits, axis=1)
        mixed = self._high.shape[1]
        consts = np.multiply(np.bitwise_count(blocks), self.bins, dtype=np.uint16)
        consts += np.bitwise_count(steps[mixed:]).sum(axis=0, dtype=np.uint16)
        return blocks, steps[:mixed], consts

    def keys(self, pairs):
        """Yield (blocks, a, keys) for each pair of ``pairs``, ints in
        ascending order: keys is a contiguous (rows, b) intp array, row r
        holding the keys of lanes 0..b-1 of block blocks[r], with (a, b) =
        ``cover(blocks[r])``. It is the pair's XOR buffer, allocated once per
        call, which the last add overwrites once the popcount has read it;
        the next pair overwrites it again.

        Pairs come in chunks of ``_chunk`` consecutive entries of ``pairs``.
        Per chunk, ``_blocks`` gives every block's words and constant, and the
        periodic weight plus the constant, ``once``, is taken for every block
        at lanes j < min(2^t, b) of the chunk's last pair, through the pair
        buffers. Each pair then adds its ``once`` to the base over the periods
        that reach lane b - 1 (2^t divides the 2^(k-1) lanes of ``base``), and
        XORs, popcounts and adds its lane words: four calls over its lanes."""
        t, period = self.t, self.period
        rows, lanes = len(self._flips), self.base.size
        pairs = np.fromiter(pairs, dtype=np.uint64)
        chunk = min(self._chunk, max(len(pairs), 1))
        acc = np.empty((rows, lanes), dtype=np.uint16)
        room = max(rows * lanes, len(period) * chunk * rows << t)
        buf = np.empty(room, dtype=np.uint64)
        count = np.empty(room, dtype=np.uint8)
        once_buf = np.empty((chunk, rows, 1 << t), dtype=np.uint16)
        # lane j at [j >> t, j mod 2^t]: whole periods of 2^t lanes
        base_folded, folded = self.base.reshape(-1, 1 << t), acc.reshape(rows, -1, 1 << t)
        for first in range(0, len(pairs), chunk):
            blocks, words, consts = self._blocks(pairs[first:first + chunk])
            his = blocks.tolist()
            width = min(1 << t, self.cover(his[-1][0])[1])
            shape = (len(period), len(his), rows, width)
            size = math.prod(shape)
            xor, cnt = buf[:size].reshape(shape), count[:size].reshape(shape)
            np.bitwise_xor(period[:, None, None, :width], words[1:, ..., None], out=xor)
            np.bitwise_count(xor, out=cnt)
            once = cnt.sum(axis=0, dtype=np.uint16, out=once_buf[:len(his), :, :width])
            once += consts[..., None]
            for pair, mixed, pair_once in zip(his, words[0, ..., None], once):
                a, b = self.cover(pair[0])
                p, whole = min(b, 1 << t), -(-b >> t)
                np.add(base_folded[:whole, :p], pair_once[:, None, :p], out=folded[:, :whole, :p])
                xor, cnt = buf[:rows * b].reshape(rows, b), count[:rows * b].reshape(rows, b)
                np.bitwise_xor(self.table[:b], mixed, out=xor)
                np.bitwise_count(xor, out=cnt)
                key = xor.view(np.int64)  # intp on 64-bit platforms
                np.add(acc[:, :b], cnt, out=key)
                yield tuple(pair), a, key


class _Images:
    """The five ``symmetry.images`` of lanes, in the kernel's lane order. Each map g is
    GF(2)-linear, so g((hi << k) | lo) is g(lo), tabulated from the low unit vectors,
    XOR the images of the high units set in hi, and g(~x) is g(x) XOR ``ones``, g(1^n).
    As in the kernel, only the lanes with x_0 = 0, j < 2^(k-1), are tabulated."""

    def __init__(self, n: int) -> None:
        from .symmetry import images

        k = _block_width(n)
        units = np.array([[y.bits for y in images(BitSeq(n, 1 << j))]
                          for j in range(n)], dtype=np.uint64)  # row j: unit vector j
        self.table, self._high = _span(units[k - 1:0:-1]), units[k:]
        self.ones = np.bitwise_xor.reduce(units, axis=0)

    def of(self, hi: int, size: int) -> np.ndarray:
        """Images of lanes 0 .. size - 1 of block ``hi``; a row per map."""
        high = np.bitwise_xor.reduce(self._high[(hi >> np.arange(len(self._high))) & 1 == 1])
        return self.table[:, :size] ^ high[:, None]


def _sweep_range(kernel: _Kernel, start: int, stop: int, ends: bool):
    """Key counts of pairs [start, stop), each key's generator pairs
    {z, ~z}, and, if ``ends``, each pair's least and greatest weight over the
    generators its lanes stand for (row 0 the least, row 1 the greatest, a
    column per pair).

    A lane stands for two such pairs, {z, ~z} and {rev z, ~rev z}, unless it
    is one of its pair's tie lanes [a, b) (see ``_Kernel.cover``): so a key
    counts twice its lanes less its tie lanes. Each pair's keys are counted
    together, and its tie lanes taken off where the kernel wrote them."""
    size = (kernel.n + 1) * kernel.bins
    counts = np.zeros(size, dtype=np.int64)
    bounds = np.zeros((2, stop - start), dtype=np.int64)
    # a key gives its lane's weight and its complement's
    least, greatest = kernel.key_weights.min(axis=0), kernel.key_weights.max(axis=0)
    for his, a, keys in kernel.keys(range(start, stop)):
        pair = np.bincount(keys.reshape(-1), minlength=size)
        counts += 2 * pair
        np.subtract.at(counts, keys[:, a:], 1)
        if ends:
            held = pair != 0
            bounds[:, his[0] - start] = least[held].min(), greatest[held].max()
    return counts, bounds


def _collect_range(kernel: _Kernel, pairs: list[int], wanted: np.ndarray,
                   cap: int) -> dict[int, tuple[list[int], int]]:
    """For each ``wanted`` weight, the ``cap`` least members, and the count,
    of the generators the ascending ``pairs`` stand for, keyed by one
    ``keys`` call; each pair's members are merged in, capped, as it is scanned.

    A lane with key (w, p) stands for its generator z, of weight w, and the
    complement ~z, of weight w + n - 2p; if it counts twice (see
    ``_Kernel.cover``), also for rev z and ~rev z, of the same two weights.
    """
    w, wc = kernel.key_weights
    wanted_keys = wanted[w] | wanted[wc]
    hits = np.flatnonzero(wanted)
    full = (1 << kernel.n) - 1
    found: dict[int, tuple[list[int], int]] = {}
    for his, a, keys in kernel.keys(pairs):
        rows, lanes = np.divmod(np.flatnonzero(wanted_keys[keys]), keys.shape[1])
        blocks = np.array(his)[rows]
        z = kernel.packed(blocks, lanes)
        lane_keys = keys[rows, lanes]
        values, value_w = [z, z ^ full], [w[lane_keys], wc[lane_keys]]
        if a:  # and the reversals, which no block evaluates
            two = lanes < a
            r = _reversed(z[two], kernel.n)
            values += [r, r ^ full]
            value_w += [value_w[0][two], value_w[1][two]]
        values, value_w = np.concatenate(values), np.concatenate(value_w)
        # One sort by weight, then value, per pair however many weights are
        # wanted; it puts each weight's least members first.
        order = np.lexsort((values, value_w))
        values, value_w = values[order], value_w[order]
        starts = np.searchsorted(value_w, hits, side="left").tolist()
        stops = np.searchsorted(value_w, hits, side="right").tolist()
        for wt, s, e in zip(hits.tolist(), starts, stops):
            if s == e:
                continue
            kept, count = found.get(wt, ([], 0))
            kept += values[s:min(e, s + cap)].tolist()
            if len(kept) > cap:
                kept = sorted(kept)[:cap]
            found[wt] = (kept, count + e - s)
    return found


def _reduced_hist_range(kernel: _Kernel, start: int, stop: int, images: _Images) -> np.ndarray:
    """Weight histogram of pairs [start, stop), adding each orbit's size once:
    at the generator a lane stands for (z and ~z, and rev z and ~rev z if it
    counts twice, so those are not evaluated) that is the orbit's least
    packed member."""
    hist = np.zeros(kernel.bins, dtype=np.int64)
    full = (1 << kernel.n) - 1
    for his, a, keys in kernel.keys(range(start, stop)):
        lanes = np.arange(keys.shape[1])
        twice = lanes < a
        for hi, row in zip(his, keys):
            vals = kernel.packed(hi, lanes).astype(np.uint64)
            mapped = images.of(hi, lanes.size)
            w, wc = kernel.key_weights[:, row]
            complements = (vals ^ full, mapped ^ images.ones[:, None], wc)
            for v, m, wt in ((vals, mapped, w), complements):
                six = np.vstack([v, m])
                least = six.min(axis=0)
                keep = (v == least) | (twice & (m[_REVERSAL] == least))
                kept = np.sort(six[:, keep], axis=0)
                sizes = 1 + np.count_nonzero(np.diff(kept, axis=0), axis=0)
                np.add.at(hist, wt[keep], sizes)
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


def _plan(pairs: int, workers: int | None) -> list[tuple[int, int]]:
    """Contiguous ranges of block pairs of about equal work, one per thread:
    ``workers`` of them, but no more than the pairs or the cores this process
    may use."""
    parts = max(1, min(_resolve_workers(workers), pairs, _cores()))
    # Pair hi' evaluates (hi' + 1) * 2^(2k-n) lanes per block (see ``_Kernel.cover``),
    # so pairs [0, e) hold work e^2 / 2: equal shares end at pairs * sqrt(i / parts).
    edges = [math.isqrt(pairs * pairs * i // parts) for i in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _run(kernel: _Kernel, workers: int | None, range_fn, *args) -> list:
    """range_fn(kernel, start, stop, *args) for every planned range, in range order."""
    parts = _plan(kernel.pairs, workers)

    def task(part):
        return range_fn(kernel, *part, *args)

    if len(parts) == 1:
        return [task(parts[0])]
    from concurrent.futures import ThreadPoolExecutor  # not loaded by serial runs

    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        return list(pool.map(task, parts))


def _checked(n: int, hist: np.ndarray) -> np.ndarray:
    if int(hist.sum()) != 1 << n:
        raise ValueError(f"histogram of n={n} counts {int(hist.sum())} generators, "
                         f"not 2^{n}")
    return hist


def _merge_hist(kernel: _Kernel, pieces: list[np.ndarray]) -> np.ndarray:
    """The weight histogram from the ranges' key counts: a key (w, p) adds
    its count at w and at w + n - 2p, the complement's weight."""
    counts = sum(pieces)
    keys = counts.nonzero()[0]
    hist = np.zeros(kernel.bins, dtype=np.int64)
    for weights in kernel.key_weights[:, keys]:
        np.add.at(hist, weights, counts[keys])
    return _checked(kernel.n, hist)


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

    It sweeps the lanes ``full_spectrum`` does; of the generators a lane
    stands for, each that is the least packed value in its orbit adds the
    orbit's size at its weight. Output is identical to ``full_spectrum``
    because weight is symmetry-invariant.
    """
    _check_size(n, force)
    hist = _checked(n, sum(_run(_Kernel(n), workers, _reduced_hist_range, _Images(n))))
    return WeightSpectrum(n, tuple(hist.tolist()))


def _three_row_gain(i: int, s: int, x: int) -> int:  # what x_i = x adds after state s
    return x + (s & 1 ^ x) + (s >> 1 ^ x if i > 1 else 0)


def _three_row_pass(n: int) -> list[dict[int, int]]:
    """The forward pass of ``three_row_max``, whose max is best[-1]'s."""
    best = [{0: 0, 1: 1}]  # x_0 alone
    for i in range(1, n):
        best.append({t: max(w + _three_row_gain(i, s, t & 1) for s, w in best[-1].items()
                            if s & 1 == t >> 1) for t in range(4)})
    return best


def three_row_max(n: int, *, force: bool = False) -> tuple[int, list[int]]:
    """Exact max of s3, the weight of the top three rows, over all 2^n
    generators, and the packed generators attaining it, ascending.

    Rows 1 and 2 hold x_i ^ x_{i+1} and x_i ^ x_{i+2}, so x_i adds
    x_i + (x_{i-1} ^ x_i) + (x_{i-2} ^ x_i) to s3, less the terms before x_0.
    best[i][s] is the most x_0..x_i add with s = 2 x_{i-1} + x_i; walking back
    along every predecessor that attains it lists each optimal generator once.
    """
    _check_size(n, force)
    best = _three_row_pass(n)
    top = max(best[-1].values())
    # (state at i, packed x_i..x_{n-1}) of each optimal generator
    paths = [(s, (s & 1) << (n - 1)) for s, w in best[-1].items() if w == top]
    for i in range(n - 1, 0, -1):
        paths = [(p, v | (p & 1) << (i - 1)) for s, v in paths for p in (s >> 1, 2 | s >> 1)
                 if best[i - 1].get(p, -4) + _three_row_gain(i, p, s & 1) == best[i][s]]
    return top, sorted(v for _, v in paths)


@dataclass(frozen=True)
class LevelSweep:
    """What one enumeration of all 2^n generators, and a rescan of the pairs
    holding wanted weights, found (see ``level_sets``)."""

    spectrum: WeightSpectrum
    low: list[LevelSet]  # W_0, W_1, ... upward
    high: list[LevelSet]  # W_m, W_{m-1}, ... downward
    slices: dict[int, WeightSlice]  # requested weight -> its generators


def level_sets(n: int, low: int, high: int, *, weights=(),
               cap: int = DEFAULT_MEMBER_CAP, workers: int | None = None,
               force: bool = False) -> LevelSweep:
    """Histogram, both ends of the ladder and exact-weight slices: one sweep
    for the histogram, then one pass, on the calling thread, over only the
    pairs that can hold a wanted weight.

    ``low`` asks for W_0 .. W_low (none if 0), ``high`` for the ``high``
    levels from W_m down; both are clamped to the ladder, whose height is
    known only after the sweep. ``weights`` asks for the generators at each
    of those exact weights. Members, in text order, are the ``cap`` least in packed order.
    """
    targets = _request(n, low, high, weights, cap, force)
    kernel, collect = _Kernel(n), bool(low or high or targets)
    parts = _run(kernel, workers, _sweep_range, collect)
    hist = _merge_hist(kernel, [counts for counts, _ in parts])
    spectrum = WeightSpectrum(n, tuple(hist.tolist()))
    if not collect:
        return LevelSweep(spectrum, [], [], {})
    # the weights wanted, read off the exact histogram: W_0 .. W_low, the
    # ``high`` greatest and the fixed ones
    seen = np.flatnonzero(hist)
    wanted = np.zeros(kernel.bins, dtype=bool)
    wanted[targets] = True
    wanted[seen[:low + 1 if low else 0]] = True
    wanted[seen[max(len(seen) - high, 0):]] = True
    hits = np.flatnonzero(wanted)
    # a pair is keyed again only if some wanted weight lies in its [least, greatest]
    least, greatest = np.concatenate([bounds for _, bounds in parts], axis=1)
    chosen = np.searchsorted(hits, least) < np.searchsorted(hits, greatest, side="right")
    found = _collect_range(kernel, np.flatnonzero(chosen).tolist(), wanted, cap)
    slices: dict[int, WeightSlice] = {}  # per wanted weight, its ``cap`` least members
    for wt in hits.tolist():
        kept, count = found.get(wt, ([], 0))
        if count != hist[wt]:
            raise ValueError(f"member scan disagrees with the histogram at n={n}: "
                             f"weight {wt} has {count} generators scanned, "
                             f"{int(hist[wt])} counted")
        slices[wt] = WeightSlice(n, wt, _to_seqs(n, kept), count, count > len(kept))
    levels = seen.tolist()
    m = len(levels) - 1
    return LevelSweep(
        spectrum,
        [_level(i, slices[levels[i]]) for i in range(min(low, m) + 1)] if low else [],
        [_level(m - off, slices[levels[m - off]]) for off in range(min(high, m + 1))],
        {w: slices[w] for w in targets})


def _level(index: int, piece: WeightSlice) -> LevelSet:
    return LevelSet(index, piece.weight, piece.members, piece.count, piece.truncated)


def _checked_sweep(n: int, low: int | None, high: int | None, cap: int,
                   workers: int | None, force: bool) -> LevelSweep:
    """``level_sets`` with its level counts checked: a count left None takes its
    default (3 low, 2 high) and is clamped to the ladder; a given one must fit it."""
    if low == high == 0:  # a negative count goes on to ``_request``'s sign check
        raise ValueError("need at least one level")
    sweep = level_sets(n, 3 if low is None else low, 2 if high is None else high,
                       cap=cap, workers=workers, force=force)
    m = sweep.spectrum.m
    if (low or 0) > m:
        raise ValueError(f"k={low} exceeds the top level m={m} for n={n}")
    if (high or 0) > m + 1:
        raise ValueError(f"k={high} exceeds the ladder height for n={n}")
    return sweep


def level_sets_low(n: int, k: int, *, cap: int = DEFAULT_MEMBER_CAP,
                   workers: int | None = None, force: bool = False) -> list[LevelSet]:
    """Level sets W_0 .. W_k with members, from one sweep and a rescan (see ``level_sets``)."""
    return _checked_sweep(n, k, 0, cap, workers, force).low


def level_sets_high(n: int, k: int, *, cap: int = DEFAULT_MEMBER_CAP,
                    workers: int | None = None, force: bool = False) -> list[LevelSet]:
    """Level sets W_m, W_{m-1}, ... down k levels, with members, from one sweep
    and a rescan (see ``level_sets``)."""
    return _checked_sweep(n, 0, k, cap, workers, force).high


def members_at_weights(n: int, weights, *, cap: int = DEFAULT_MEMBER_CAP,
                       workers: int | None = None,
                       force: bool = False) -> dict[int, WeightSlice]:
    """The generators at each requested weight, from one sweep and a rescan
    (see ``level_sets``)."""
    return level_sets(n, 0, 0, weights=weights, cap=cap, workers=workers,
                      force=force).slices


def find_weight(n: int, w: int, *, cap: int = DEFAULT_MEMBER_CAP,
                workers: int | None = None, force: bool = False) -> WeightSlice:
    """Every generator whose triangle weight is exactly w (empty is valid)."""
    return members_at_weights(n, [w], cap=cap, workers=workers, force=force)[w]
