import concurrent.futures
import hashlib
import threading
import tracemalloc
from collections import Counter
from functools import cache

import numpy as np
import pytest

from steinhaus import (
    BitSeq,
    CeilingExceeded,
    enumeration_ceiling,
    find_weight,
    full_spectrum,
    invert_i,
    ladder_ends,
    level_sets,
    level_sets_high,
    level_sets_low,
    members_at_weights,
    orbit,
    rot_l,
    rot_r,
    s3,
    symmetry_reduced_spectrum,
    three_row_max,
    triangle_weight,
)
from steinhaus import spectrum as spectrum_mod
from steinhaus.spectrum import _block_width, _cores, _Images, _Kernel, _plan, _reversed

from conftest import all_seqs, rejection
from weight_table import weight_histogram


def lane_value(k, hi, j):
    """Generator held by lane j of block hi, packed: lo = bitrev_k(j), so x_0 is j's top bit."""
    return hi << k | int(f"{j:0{k}b}"[::-1], 2)


def tau(x):
    """The generator a lane pairs with: rev x, complemented if x ends in 1, so
    that it starts with 0 like x."""
    mirror = invert_i(x)
    return mirror ^ BitSeq.ones(x.n) if x.bit(x.n - 1) else mirror


def kernel_cover(n):
    """(generator, key, multiplicity) of every lane the block kernel evaluates,
    both blocks of each pair."""
    kernel = _Kernel(n)
    for his, a, keys in kernel.keys(range(kernel.pairs)):
        for hi, row in zip(his, keys.tolist()):
            for j, key in enumerate(row):
                yield lane_value(kernel.k, hi, j), key, 2 if j < a else 1


def stood_for(x, key, mult):
    """(generator, weight) of each generator a lane with this key stands for:
    itself and its complement, and if it counts twice rev x and ~rev x."""
    n = x.n
    ones, w = divmod(key, n * (n + 1) // 2 + 1)
    mirror = invert_i(x)
    pairs = [(x, w), (mirror, w)][:mult]
    return [y for s, wt in pairs for y in ((s, wt), (s ^ BitSeq.ones(n), wt + n - 2 * ones))]


def kernel_weights(n):
    """Weights of every generator of length n, in packed order, from the block
    kernel's keys (see ``stood_for``). Fails unless that weighs every generator
    exactly once."""
    out = [None] * (1 << n)
    for x, key, mult in kernel_cover(n):
        assert mult in (1, 2)
        for y, wt in stood_for(BitSeq(n, x), key, mult):
            assert out[y.bits] is None
            out[y.bits] = wt
    assert None not in out
    return np.array(out)


def table_images(n):
    """Images of every generator of length n under the five symmetry tables, in
    packed order, one row per map: those with x_0 = 0 read off the tabulated
    half of every block, their complements as those images XOR ``ones``."""
    kernel, images = _Kernel(n), _Images(n)
    half = 1 << (kernel.k - 1)
    assert images.table.shape == (5, half)
    out = np.zeros((5, 1 << n), dtype=np.uint64)
    full = (1 << n) - 1
    for hi in range(1 << kernel.l):
        got = images.of(hi, half)
        for j in range(half):
            x = lane_value(kernel.k, hi, j)
            out[:, x] = got[:, j]
            out[:, x ^ full] = got[:, j] ^ images.ones
    return out


# Independent oracle for the tables' rows: the scalar maps, composed here.
SCALAR_MAPS = (rot_r, rot_l, invert_i, lambda x: rot_r(invert_i(x)), lambda x: rot_l(invert_i(x)))


@cache
def scalar_weights(n):
    """Independent oracle: the streamed pure-int weight of every generator, in packed order."""
    return tuple(triangle_weight(x) for x in all_seqs(n))


def brute_histogram(n):
    """Independent oracle: one streamed pure-int weight per generator."""
    return Counter(triangle_weight(x) for x in all_seqs(n))


class TestFullSpectrum:
    @pytest.mark.parametrize("n,expected", [
        (1, {0: 1, 1: 1}),
        (3, {0: 1, 3: 4, 4: 3}),
        (4, {0: 1, 4: 3, 5: 6, 6: 4, 7: 2}),
    ])
    def test_small_exact(self, n, expected):
        spec = full_spectrum(n)
        assert {w: c for w, c in enumerate(spec.counts) if c} == expected

    def test_matches_pure_python_oracle(self):
        for n in range(1, 23):
            spec = full_spectrum(n)
            assert spec.counts == tuple(weight_histogram(n).tolist()), n
            if n <= 10:
                assert {w: c for w, c in enumerate(spec.counts) if c} == brute_histogram(n)

    def test_global_invariants(self):
        for n in range(1, 15):
            spec = full_spectrum(n)
            assert spec.total == 1 << n
            assert spec.counts[0] == 1
            assert spec.levels[0] == 0
            if n >= 4:
                assert spec.counts[n] >= 3
            assert spec.levels[-1] == -(-n * (n + 1) // 3)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            full_spectrum(0)
        with pytest.raises(CeilingExceeded):
            full_spectrum(enumeration_ceiling() + 1)
        with pytest.raises(CeilingExceeded):
            full_spectrum(60, force=True)  # beyond the engine's hard limit

    def test_env_ceiling_override(self, monkeypatch):
        monkeypatch.setenv("STEINHAUS_MAX_N", "8")
        assert enumeration_ceiling() == 8
        with pytest.raises(CeilingExceeded):
            full_spectrum(9)
        assert full_spectrum(9, force=True).total == 512
        monkeypatch.setenv("STEINHAUS_MAX_N", "32")
        assert enumeration_ceiling() == 32

    @pytest.mark.parametrize("raw", ["abc", "8.5", "0", "-5"])
    def test_env_ceiling_rejects_non_positive_or_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("STEINHAUS_MAX_N", raw)
        with pytest.raises(CeilingExceeded, match="STEINHAUS_MAX_N"):
            enumeration_ceiling()
        with pytest.raises(CeilingExceeded, match="STEINHAUS_MAX_N"):
            full_spectrum(4)


class TestReducedSpectrum:
    def test_agrees_with_full(self):
        for n in range(1, 21):
            reduced = symmetry_reduced_spectrum(n)
            assert reduced.counts == tuple(weight_histogram(n).tolist()), n
            if n <= 12:
                assert reduced == full_spectrum(n)

    def test_agrees_under_workers(self):
        assert symmetry_reduced_spectrum(10, workers=3) == full_spectrum(10)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_agrees_across_blocks(self, monkeypatch, workers):
        # 8-lane blocks: every image takes the XOR of the high columns set in hi;
        # four cores, so that three workers get three ranges
        expected = [full_spectrum(n) for n in range(1, 14)]
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 3)
        monkeypatch.setattr(spectrum_mod, "_cores", lambda: 4)
        for n, spec in enumerate(expected, start=1):
            assert symmetry_reduced_spectrum(n, workers=workers) == spec


class TestLanePrimitives:
    """The vector engine must agree with the scalar reference implementations."""

    def test_weights_rotations_and_reversal(self, monkeypatch):
        for n in range(1, 13):
            got_w = kernel_weights(n)
            got_g = [table_images(n)]
            with monkeypatch.context() as m:  # many blocks: T(hi << k) steps between them
                m.setattr(spectrum_mod, "_BLOCK_BITS", 3)
                assert np.array_equal(kernel_weights(n), got_w)
                got_g.append(table_images(n))  # and g(hi << k) XORs the high columns
            for v in range(1 << n):
                x = BitSeq(n, v)
                assert int(got_w[v]) == triangle_weight(x)
                want = [g(x).bits for g in SCALAR_MAPS]
                for images in got_g:
                    assert images[:, v].tolist() == want

    @pytest.mark.parametrize("block_bits", [16, 3])
    def test_images_of_part_of_a_block(self, monkeypatch, block_bits):
        # the lanes 0..size-1 the kernel reports for a short block, and the last block
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        n = 9
        images, k = _Images(n), _block_width(n)
        half, last = 1 << (k - 1), (1 << (n - k)) - 1
        for hi, size in ((0, 7), (0, 2), (last, 4), (last, 1), (last, half)):
            got = images.of(hi, size)
            assert got.shape == (5, size)
            for lane in range(size):
                x = BitSeq(n, lane_value(k, hi, lane))
                assert got[:, lane].tolist() == [g(x).bits for g in SCALAR_MAPS]

    def test_weight_invariance_under_all_symmetries_to_14(self):
        for n in (13, 14):
            w = kernel_weights(n)
            for image in table_images(n):
                assert np.array_equal(w[image], w)

    @pytest.mark.parametrize("n", [33, 40])
    def test_sampled_blocks_beyond_32_bits(self, n, rng):
        kernel = _Kernel(n)
        half = 1 << (kernel.k - 1)  # only lanes with x_0 = 0 are tabulated
        # one word of mixed bits per lane, and the rest at 2^t lanes
        words = -(-kernel.t * (n - kernel.k) // 64)
        assert kernel.table.shape == (half,)
        assert kernel.period.shape == (words, 1 << kernel.t)
        assert kernel._high.shape == (n - kernel.k, 1 + words)  # a row per high unit
        starts = [0, kernel.pairs - 3] + [rng.randrange(kernel.pairs - 2) for _ in range(3)]
        for start in starts:
            for his, a, keys in kernel.keys(range(start, start + 3)):  # also steps between pairs
                for hi, row in zip(his, keys):  # a block and its partner
                    assert (a, row.size) == kernel.cover(hi)
                    # a lane counts twice if it reads less than τ of it and not at
                    # all if it reads more; once if they tie on the first n - k entries
                    ends = [0, a, row.size - 1, half - 1]
                    for j in ends + [rng.randrange(half) for _ in range(20)]:
                        x = BitSeq(n, lane_value(kernel.k, hi, j))
                        text, other = str(x), str(tau(x))
                        if a <= j < row.size:
                            assert text[:n - kernel.k] == other[:n - kernel.k]
                        else:
                            assert (2 if j < a else 0) == (text < other) + (text <= other)
                        if j < row.size:
                            assert int(row[j]) == triangle_weight(x) + kernel.bins * x.weight


class TestComplement:
    """T(1^n) is the top row alone, so by linearity T(~x) differs from T(x) in
    row 0 only: the sweeps read the complement's weight off the lane's key."""

    def test_weight_of_the_complement(self):
        for n in range(1, 13):
            ones = BitSeq.ones(n)
            for x, w in zip(all_seqs(n), scalar_weights(n)):
                assert scalar_weights(n)[(x ^ ones).bits] == w + n - 2 * x.weight
                if n >= 3:
                    assert s3(x ^ ones) == s3(x) + n - 2 * x.weight


class TestMirrorCover:
    """Each pair of blocks evaluates a prefix of its lanes with x_0 = 0; a
    lane stands for its complement, and if it counts twice for rev x and
    ~rev x too, so the sweeps do about a quarter of the lanes."""

    @pytest.mark.parametrize("block_bits", [2, 3, 4, 16])
    def test_lanes_cover_every_generator_once(self, monkeypatch, block_bits):
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        for n in range(1, 14):
            bins = n * (n + 1) // 2 + 1
            covered = Counter()
            for x, key, mult in kernel_cover(n):
                seq = BitSeq(n, x)
                text, other = str(seq), str(tau(seq))
                assert not seq.bit(0)
                # the weight and ones count, with no wrap-around in uint16
                assert key == triangle_weight(seq) + bins * seq.weight
                if mult == 2:  # else a tie lane, closed under τ
                    assert mult == (text < other) + (text <= other)
                covered.update(y.bits for y, _ in stood_for(seq, key, mult))
            assert covered == Counter(range(1 << n)), (block_bits, n)

    @pytest.mark.parametrize("block_bits", [2, 3, 16])
    def test_member_values_of_lanes(self, monkeypatch, block_bits):
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        for n in (1, 5, 9, 12):
            kernel = _Kernel(n)
            lanes = np.arange(1 << kernel.k)
            for hi in range(1 << kernel.l):
                want = [lane_value(kernel.k, hi, j) for j in lanes.tolist()]
                packed = kernel.packed(hi, lanes)
                assert packed.tolist() == want
                assert _reversed(packed, n).tolist() == [
                    invert_i(BitSeq(n, x)).bits for x in want]

    @pytest.mark.parametrize("n", [24, 33])
    def test_about_a_quarter_of_the_lanes_are_evaluated(self, n):
        kernel = _Kernel(n)
        lanes = sum(2 * kernel.cover(hi)[1] for hi in range(kernel.pairs))
        # one per {x, rev x, ~x, ~rev x}, plus the ties
        assert lanes == (1 << (n - 2)) + (1 << (kernel.k - 1))

    def test_blocks_span_at_least_half_the_generator(self):
        for n in range(1, 41):
            k = _block_width(n)
            assert k <= n <= 2 * k, n
            if n <= 34:
                assert k == min(n, 17)


class TestKernelSplit:
    """Lo-only bits come from ``base``, hi-only bits from one number per block,
    and only the k(n-k) mixed bits from the XOR table; each against the scalar
    oracle, in keys: weight plus bins times the ones count."""

    @staticmethod
    def lanes(size, rng):
        return [0, 1, size - 1] + [rng.randrange(size) for _ in range(40)]

    def test_base_is_the_low_half_weight(self, rng):
        kernel = _Kernel(20)
        k = kernel.k
        assert k == 17 and kernel.base.dtype == np.uint16
        assert kernel.base.shape == (1 << (k - 1),)
        for j in self.lanes(1 << (k - 1), rng):
            lo = BitSeq(k, lane_value(k, 0, j))
            assert int(kernel.base[j]) == triangle_weight(lo) + kernel.bins * lo.weight

    @pytest.mark.parametrize("n", [17, 20, 24])
    def test_block_scalar_is_the_high_half_weight(self, monkeypatch, n):
        # at least one high bit, so that blocks come in pairs (k = 16 at n = 17)
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", min(spectrum_mod._BLOCK_BITS, n - 1))
        kernel = _Kernel(n)
        k, bins = kernel.k, kernel.bins
        blocks_of, chunks = _Kernel._blocks, []

        def recorded(self, pairs):
            got = blocks_of(self, pairs)
            chunks.append((pairs.tolist(), *got))
            return got

        monkeypatch.setattr(_Kernel, "_blocks", recorded)
        starts = {0, 1, max(kernel.pairs // 2 - 1, 0)}
        gapped = range(1, kernel.pairs, 2)  # blocks that differ in one or more high bits
        for chunk in (kernel._chunk, 1, 3):  # one chunk; and chunks with a ragged last one
            kernel._chunk = chunk
            runs = [range(start, min(start + 16, kernel.pairs)) for start in starts]
            for pairs in runs + [gapped]:
                chunks.clear()
                assert [his[0] for his, _, _ in kernel.keys(pairs)] == list(pairs)
                assert [p for got, *_ in chunks for p in got] == list(pairs)
                sizes = [len(got) for got, *_ in chunks]
                assert set(sizes[:-1]) <= {chunk} and all(0 < size <= chunk for size in sizes[-1:])
                for got, blocks, words, consts in chunks:
                    assert blocks.shape == consts.shape == (len(got), 2)
                    assert words.shape == (1 + len(kernel.period), len(got), 2)
                    for pair, row, const in zip(got, blocks.tolist(), consts.tolist()):
                        assert row == [pair, pair ^ ((1 << (n - k)) - 1)]  # and the partner
                        for hi, weight in zip(row, const):
                            high = BitSeq(n - k, hi)
                            assert weight == triangle_weight(high) + bins * high.weight

    # (block bits, n): 16 pairs with one mixed word; 256 pairs with a periodic word (t = 2)
    @pytest.mark.parametrize("block_bits, n", [(3, 10), (9, 18)])
    def test_gapped_pairs_key_as_one_pair_calls(self, monkeypatch, block_bits, n):
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        kernel = _Kernel(n)
        assert kernel.l >= 3
        last = kernel.pairs - 1
        for pairs in ([1, 2, 5, 11, 12], [0, 3, 4, 6, last - 2, last]):
            got = [(his, a, keys.copy()) for his, a, keys in kernel.keys(pairs)]
            assert [his[0] for his, _, _ in got] == pairs
            for (his, a, keys), p in zip(got, pairs):
                (one_his, one_a, one_keys), = kernel.keys([p])
                assert (his, a) == (one_his, one_a) and np.array_equal(keys, one_keys)

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_sampled_lanes_match_the_scalar_weight(self, n, rng):
        kernel = _Kernel(n)
        k = kernel.k
        # k(n - k) <= 64 mixed bits: all in the lane's word, and no periodic table
        assert kernel.table.shape == (1 << (k - 1),) and kernel.period.shape == (0, 1)
        for his, _, keys in kernel.keys(range(kernel.pairs)):
            for hi, row in zip(his, keys):  # both blocks of the pair
                for j in self.lanes(row.size, rng):
                    x = BitSeq(n, lane_value(k, hi, j))
                    assert int(row[j]) == triangle_weight(x) + kernel.bins * x.weight

    def test_small_sizes_are_the_base_alone(self):
        kernel = _Kernel(12)
        # no mixed bits: the lane's word is zero and the periodic table empty
        assert kernel.table.shape == (1 << 11,) and not kernel.table.any()
        assert kernel.period.shape == (0, 1)
        # one block, no partner, each lane counted once (for itself and its complement)
        (his, a, keys), = kernel.keys([0])
        assert (his, a) == ((0,), 0) and np.array_equal(keys, kernel.base[None])
        assert not np.shares_memory(keys, kernel.base)

    # SHA-256 of repr(full_spectrum(n).counts), recorded for n <= 22 from the
    # one-table kernel that tabulated every packed bit, and for n >= 23 from
    # the kernel that tabulated every mixed bit per lane in 2^16-lane blocks.
    # One 2^17-lane block at n = 17, several from n = 18 on.
    GOLDEN = {
        17: "c3ada221a6cc70b54815b0f45f4c86c74806625901a938635846725b12237314",
        18: "c7c0863ca51829a6ebdb66a45e34b3b72674237d14006fa6cf9862dd77b9cd7e",
        19: "3718ba3df20c8bd40ca3be4ead0e22d9f883752eb3b9e74eaebfbf700f56523c",
        20: "9a2198b0a7f7cafcc58f2daa4cff5408186a89a9fd41df1fad0bfbc327648ae8",
        21: "60dee6cf3a9f70afb828b078fb51af6cdb913095de88764373399db46b397c15",
        22: "f5f763fa42cfb181f37f9f84b75ae7b88baa4c9041f8837f4367068955254656",
        23: "3043d75bc42d45a31338b6cdca7aaa51eeda7dd598d4f876f6ead0601988d699",
        24: "14a65f17ab815f5beca2609df7175d82227d6224ea2f83aba7d722815561d9dc",
        25: "e39e31f68fec0e398a5abd41d152fb28b7e0d20508bddd5ccc809024f073c3c7",
        26: "8cabf6335a6af87d86dae73f983d704b3591f3ea21b914b72de11ee162bbf44d",
    }

    @pytest.mark.parametrize("n", sorted(GOLDEN))
    def test_multi_block_spectra_pinned(self, n):
        counts = full_spectrum(n).counts
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == self.GOLDEN[n]


class TestTableCache:
    """Kernels share the read-only tables of the last size and block width built."""

    def test_one_size_shares_its_tables(self, monkeypatch):
        first, second = _Kernel(20), _Kernel(20)
        assert second.table is first.table and not first.table.flags.writeable
        assert _Kernel(21).table is not first.table  # another size replaces them
        again = _Kernel(20)
        assert again.table is not first.table and np.array_equal(again.table, first.table)
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 12)
        narrow = _Kernel(20)  # same size, another block width: tables of its own
        assert narrow.k == 12 and narrow.base.shape == narrow.table.shape == (1 << 11,)
        assert _Kernel(20).table is narrow.table

    def test_spectrum_unchanged_as_sizes_alternate(self, monkeypatch):
        golden = TestKernelSplit.GOLDEN

        def digest(n):
            return hashlib.sha256(repr(full_spectrum(n).counts).encode()).hexdigest()

        for n in (20, 21, 20, 19, 20):
            assert digest(n) == golden[n], n
        with monkeypatch.context() as m:
            m.setattr(spectrum_mod, "_BLOCK_BITS", 12)
            assert digest(20) == golden[20]
        assert digest(20) == golden[20]


class TestPeriodicColumns:
    """Each column c < k of mixed bits holds l = n - k of them and reads only
    x_c..x_{k-1} of the low half. The first c* = 64 // l columns fill one word
    per lane; the rest read only the low t = k - c* bits of lane j, so their
    weight is taken once per block at lanes j < min(2^t, b) and read at
    j mod 2^t, over every period that reaches lane b - 1, the last one
    possibly cut short."""

    def test_one_table_word_per_lane(self):
        for n in range(17, 41):
            kernel = _Kernel(n)
            k, l, t = kernel.k, kernel.l, kernel.t
            assert kernel.table.shape == (1 << (k - 1),) and kernel.table.dtype == np.uint64
            assert t == k - min(k, 64 // max(l, 1))
            assert kernel.period.shape == (-(-t * l // 64), 1 << t)
            # every mixed bit is set by a high unit: c* l in the lane's word, t l periodic
            bits = np.bitwise_count(np.bitwise_or.reduce(kernel._high, axis=0)).tolist()
            assert bits[0] == (k - t) * l <= 64 and sum(bits) == k * l, n

    @staticmethod
    def check_pair(kernel, hi, rng):
        """Both blocks of pair ``hi`` against the scalar oracle, at the ends of
        the first period, of the whole periods and of a last period cut
        short, and at a few lanes drawn at random."""
        n, k, period = kernel.n, kernel.k, 1 << kernel.t
        (his, a, keys), = kernel.keys([hi])
        b = keys.shape[1]
        assert (a, b) == kernel.cover(hi)
        tail = b - b % period
        lanes = {0, min(b, period) - 1, tail - 1, tail, b - 1}
        lanes |= {rng.randrange(b) for _ in range(6)}
        for block, row in zip(his, keys):
            for j in sorted(lanes & set(range(b))):
                x = BitSeq(n, lane_value(k, block, j))
                assert int(row[j]) == triangle_weight(x) + kernel.bins * x.weight, (n, block, j)

    @pytest.mark.parametrize("n", range(21, 27))
    def test_periodic_lanes_match_the_scalar_weight(self, n, rng):
        kernel = _Kernel(n)
        period = 1 << kernel.t
        sizes = [kernel.cover(hi)[1] for hi in range(kernel.pairs)]
        short = [hi for hi, b in enumerate(sizes) if b < period]
        ragged = [hi for hi, b in enumerate(sizes) if b > period and b % period]
        # 2^(2k-n) lanes per pair step: below a period only at n = 26 (k = 17)
        assert bool(short) == bool(ragged) == (n == 26)
        for hi in {0, 1, *short[:3], *ragged[:3], kernel.pairs - 1}:
            self.check_pair(kernel, hi, rng)

    def test_short_blocks_read_the_period(self, monkeypatch, rng):
        # 2^9-lane blocks at n = 18: t = 2, and pair hi' evaluates b = hi' + 1 lanes
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 9)
        kernel = _Kernel(18)
        assert (kernel.k, kernel.t) == (9, 2)
        assert [kernel.cover(hi) for hi in range(256)] == [(hi, hi + 1) for hi in range(256)]
        for hi in range(kernel.pairs):
            self.check_pair(kernel, hi, rng)
        counts = full_spectrum(18).counts
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == TestKernelSplit.GOLDEN[18]


class TestLevelSets:
    def test_low_at_eight(self):
        w0, w1, w2 = level_sets_low(8, 2)
        assert (w0.weight, w0.count) == (0, 1)
        assert {str(m) for m in w1.members} == {"11111111", "10000000", "00000001"}
        assert w2.weight == 11
        assert {str(m) for m in w2.members} == {
            "10101010", "01000000", "00000011", "01010101", "11000000", "00000010"}

    def test_low_at_seven(self):
        levels = level_sets_low(7, 2)
        assert levels[2].weight == 9
        assert {str(m) for m in levels[2].members} == {
            "0100000", "0001000", "0000010", "0101010"}

    def test_low_full_ladder_at_four(self):
        levels = level_sets_low(4, 4)
        got = {ls.index: (ls.weight, {str(m) for m in ls.members}) for ls in levels}
        assert got == {
            0: (0, {"0000"}),
            1: (4, {"1111", "1000", "0001"}),
            2: (5, {"0100", "0010", "1100", "1010", "0101", "0011"}),
            3: (6, {"1001", "0110", "1110", "0111"}),
            4: (7, {"1101", "1011"}),
        }

    def test_high_at_nine(self):
        top, second = level_sets_high(9, 2)
        assert top.weight == 30
        assert {str(m) for m in top.members} == {
            "110110110", "011011011", "101101101"}
        assert (second.weight, second.count) == (27, 22)

    def test_high_at_seven(self):
        top, second = level_sets_high(7, 2)
        assert (top.weight, top.count) == (19, 2)
        assert (second.weight, [str(m) for m in second.members]) == (18, ["0110110"])

    def test_high_at_four(self):
        top, second = level_sets_high(4, 2)
        assert (top.weight, {str(m) for m in top.members}) == (7, {"1101", "1011"})
        assert (second.weight, second.count) == (6, 4)

    def test_counts_match_histogram(self):
        spec = full_spectrum(9)
        for ls in level_sets_low(9, 3) + level_sets_high(9, 2):
            assert ls.count == spec.counts[ls.weight]
            assert not ls.truncated
            assert len(ls.members) == ls.count

    def test_level_bounds_checked(self):
        with pytest.raises(ValueError, match="exceeds the top level"):
            level_sets_low(4, 5)
        with pytest.raises(ValueError, match="ladder height"):
            level_sets_high(4, 6)
        with pytest.raises(ValueError):
            level_sets_low(4, 0)

    def test_member_cap_and_truncation(self):
        levels = level_sets_low(10, 1, cap=2)
        w1 = levels[1]
        assert w1.count == 3 and len(w1.members) == 2 and w1.truncated
        # capped members are the first in packed order: 1000000000 packs
        # lowest (bit 0 set? no: '1000000000' has x_0=1 -> value 1)
        assert {str(m) for m in w1.members} == {"1000000000", "0000000001"}

    def test_untruncated_levels_are_unions_of_orbits(self):
        for n in range(4, 15):
            sweep = level_sets(n, 3, 2)
            for piece in sweep.low + sweep.high:
                if piece.truncated:
                    continue
                rest = set(piece.members)
                while rest:
                    members = set(orbit(next(iter(rest))).members)
                    assert members <= rest, (n, piece.index)
                    rest -= members

    def test_closed_under_symmetries(self):
        for n in range(1, 13):
            spec = full_spectrum(n)
            slices = members_at_weights(n, spec.levels)
            for piece in slices.values():
                members = set(piece.members)
                for x in members:
                    assert rot_r(x) in members
                    assert rot_l(x) in members
                    assert invert_i(x) in members


class TestOneSweep:
    """Histogram, both ladder ends and fixed-weight slices from a single sweep."""

    @staticmethod
    def expected(n, low, high, weights, cap):
        ws = scalar_weights(n)
        levels = sorted(set(ws))
        m = len(levels) - 1

        def members(w):
            lanes = [v for v, wv in enumerate(ws) if wv == w]
            first = sorted((BitSeq(n, v) for v in lanes[:cap]), key=str)
            return w, tuple(first), len(lanes), len(lanes) > cap

        low_sets = [(i, *members(levels[i])) for i in range(min(low, m) + 1)] if low else []
        high_sets = [(m - off, *members(levels[m - off])) for off in range(min(high, m + 1))]
        return (Counter(ws), low_sets, high_sets, {w: members(w) for w in weights})

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_matches_scalar_oracle(self, monkeypatch, workers):
        # 8-lane blocks: a part that does not start at lane 0 sees other
        # weights first, so its local ends differ from the global ones.
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 3)
        for n in range(1, 13):
            ws = scalar_weights(n)
            common = Counter(ws).most_common(1)[0][0]
            absent = next((w for w in range(n * (n + 1) // 2 + 1) if w not in set(ws)), 0)
            weights = sorted({common, absent, max(ws)})
            for cap in (1, 2):
                for low, high in ((3, 2), (5, 4), (0, 1), (1, 6)):
                    got = level_sets(n, low, high, weights=weights, cap=cap, workers=workers)
                    hist, low_sets, high_sets, slices = self.expected(n, low, high, weights, cap)
                    assert {w: c for w, c in enumerate(got.spectrum.counts) if c} == hist
                    for sets, want in ((got.low, low_sets), (got.high, high_sets)):
                        assert [(ls.index, ls.weight, ls.members, ls.count, ls.truncated)
                                for ls in sets] == want
                    assert {w: (s.weight, s.members, s.count, s.truncated)
                            for w, s in got.slices.items()} == slices

    # the sweep and the search reject a request with the same error
    @pytest.mark.parametrize("entry", [level_sets, ladder_ends], ids=lambda f: f.__name__)
    def test_negative_counts_rejected(self, entry):
        for low, high in ((-1, 2), (3, -1)):
            assert rejection(lambda: entry(5, low, high)) == \
                (ValueError, "level counts must be nonnegative")

    @pytest.mark.parametrize("entry", [level_sets, ladder_ends], ids=lambda f: f.__name__)
    def test_negative_cap_rejected(self, entry):
        for call in (lambda: entry(5, 3, 2, cap=-1),
                     lambda: level_sets_low(5, 1, cap=-1),
                     lambda: members_at_weights(5, [3], cap=-1),
                     lambda: find_weight(5, 3, cap=-1)):
            assert rejection(call) == (ValueError, "member cap must be nonnegative")

    def test_cap_zero_keeps_counts_only(self):
        got = level_sets(8, 3, 2, weights=[10], cap=0)
        for piece in got.low + got.high + list(got.slices.values()):
            assert piece.members == () and piece.truncated == (piece.count > 0)
            assert piece.count == got.spectrum.count(piece.weight)

    def test_lost_lane_breaks_histogram_total(self, monkeypatch):
        keys = _Kernel.keys

        def lose_a_lane(self, pairs):
            for his, a, row_keys in keys(self, pairs):
                yield his, a, row_keys[:, :-1] if his[0] == 0 else row_keys

        # 32-lane blocks at n = 9 (k = 5, n/2 rounded up): pair 0 evaluates two
        # tie lanes, once each, in block 0 and in its partner 15; the last ones
        # hold 000010000 and 000011111, each standing for its complement too
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 3)
        monkeypatch.setattr(_Kernel, "keys", lose_a_lane)
        # Orbit counting loses the two orbits of size 3 whose least packed
        # members those lanes stand for, 000010000 and 111100000.
        for call, total in ((lambda: full_spectrum(9), 508), (lambda: level_sets(9, 3, 2), 508),
                            (lambda: symmetry_reduced_spectrum(9), 506)):
            with pytest.raises(ValueError, match=rf"counts {total} generators, not 2\^9"):
                call()

    def test_missed_block_breaks_member_count(self, monkeypatch):
        keys, calls = _Kernel.keys, []

        def skip_first_rescanned(self, pairs):  # the second pass drops its first pair
            calls.append(list(pairs))
            return keys(self, calls[-1][1:] if len(calls) == 2 else calls[-1])

        monkeypatch.setattr(_Kernel, "keys", skip_first_rescanned)
        with pytest.raises(ValueError, match="member scan disagrees with the histogram"):
            level_sets(6, 3, 2, workers=1)
        assert calls == [[0], [0]]  # one block: the sweep, then the rescan

    @pytest.mark.parametrize("workers", [1, 3])
    def test_rescan_keys_the_pairs_holding_wanted_weights(self, monkeypatch, workers):
        keys, keyed = _Kernel.keys, Counter()

        def count_pairs(self, pairs):
            for his, a, row_keys in keys(self, pairs):
                keyed[his[0]] += 1
                yield his, a, row_keys

        # 8-lane blocks: 4 pairs at n = 6, 32 at n = 12
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 3)
        monkeypatch.setattr(_Kernel, "keys", count_pairs)
        for n in range(6, 13):
            ws, kernel, full = scalar_weights(n), _Kernel(n), (1 << n) - 1
            levels = sorted(set(ws))
            held = []  # per pair, the weights of the generators its lanes stand for
            for pair in range(kernel.pairs):
                weights = set()
                for hi in (pair, pair ^ ((1 << kernel.l) - 1)):
                    a, b = kernel.cover(hi)
                    for j in range(b):
                        z = BitSeq(n, lane_value(kernel.k, hi, j))
                        for y in (z, tau(z))[:2 if j < a else 1]:
                            weights |= {ws[y.bits], ws[y.bits ^ full]}
                held.append(weights)
            absent = next(w for w in range(n * (n + 1) // 2 + 1) if w not in levels)
            for low, high, fixed in ((3, 2, ()), (0, 1, ()), (1, 0, ()), (5, 4, ()),
                                     (0, 0, (levels[len(levels) // 2], absent)),
                                     (2, 1, (levels[3],))):
                wanted = set(levels[:low + 1] if low else ()) | set(levels[len(levels) - high:])
                holding = {p for p, weights in enumerate(held) if weights & (wanted | set(fixed))}
                keyed.clear()
                level_sets(n, low, high, weights=fixed, workers=workers)
                assert set(keyed.values()) <= {1, 2} and len(keyed) == kernel.pairs
                rekeyed = {p for p, times in keyed.items() if times == 2}
                if fixed:  # a pair's weight range may span a fixed weight it lacks
                    assert rekeyed >= holding, (n, low, high, fixed)
                else:
                    assert rekeyed == holding, (n, low, high)


class TestFoldedCounts:
    """A range's sweep returns one count array: of each key, the generator
    pairs {z, ~z} its lanes stand for, two per lane that counts twice and one
    per tie lane."""

    @staticmethod
    def expected(kernel):
        """Key counts of every pair, 2 * twice + once from the (twice, once)
        counts of its lanes, and each pair's [least, greatest] weight over the
        generators its lanes stand for, from ``cover`` and the scalar weights
        of each lane and its complement."""
        n, bins = kernel.n, kernel.bins
        counts = np.zeros((2, (n + 1) * bins), dtype=np.int64)
        bounds = []
        for pair in range(kernel.pairs):
            weights = []
            for hi in (pair, pair ^ ((1 << kernel.l) - 1))[:2 if kernel.l else 1]:
                a, b = kernel.cover(hi)
                for j in range(b):
                    x = BitSeq(n, lane_value(kernel.k, hi, j))
                    w = triangle_weight(x)
                    counts[0 if j < a else 1, w + bins * x.weight] += 1
                    weights += [w, triangle_weight(x ^ BitSeq.ones(n))]
            bounds.append((min(weights), max(weights)))
        twice, once = counts
        return 2 * twice + once, np.array(bounds).T

    # (block bits, n, lanes in a tie): one block with every lane a tie, n = 2k
    # with one tie lane per block, and 2k - n = 2 and 3
    @pytest.mark.parametrize("block_bits, n, tie", [(8, 7, None), (3, 6, 1), (4, 8, 1),
                                                    (5, 8, 4), (6, 9, 8)])
    def test_rows_and_bounds_match_the_scalar_weight(self, monkeypatch, block_bits, n, tie):
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        kernel = _Kernel(n)
        covers = [kernel.cover(hi) for hi in range(1 << kernel.l)]
        if tie is None:  # n <= k: every lane counts once
            assert kernel.l == 0 and covers == [(0, 1 << (n - 1))]
        else:
            assert {b - a for a, b in covers} == {tie} and any(a for a, _ in covers)
        counts, bounds = self.expected(kernel)
        monkeypatch.setattr(spectrum_mod, "_cores", lambda: 4)
        for parts in ([(0, kernel.pairs)], _plan(kernel.pairs, 3)):
            got = [spectrum_mod._sweep_range(kernel, start, stop, True) for start, stop in parts]
            assert np.array_equal(sum(c for c, _ in got), counts)
            assert np.array_equal(np.concatenate([b for _, b in got], axis=1), bounds)
        # without bounds the counts are the same
        got, _ = spectrum_mod._sweep_range(kernel, 0, kernel.pairs, False)
        assert np.array_equal(got, counts)


class TestRescanRuns:
    """The rescan keys the chosen pairs, gaps and all, with one
    ``_Kernel.keys`` call on the calling thread, whatever ranges the sweep
    ran on."""

    @staticmethod
    def merged(parts, cap):
        out = {}
        for found in parts:
            for wt, (kept, count) in found.items():
                values, total = out.get(wt, ([], 0))
                out[wt] = (sorted(values + kept)[:cap], total + count)
        return out

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_chosen_pair_is_keyed_once(self, monkeypatch, workers):
        # 16 pairs of 32-lane blocks at n = 10; the picked pairs reach into
        # every range the sweep plans: [0, 11) [11, 16) at two workers and
        # [0, 9) [9, 13) [13, 16) at three
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 3)
        n, cap = 10, 3
        kernel = _Kernel(n)
        assert kernel.pairs == 16
        picked = [0, 1, 2, 5, 7, 8, 9, 10, 11, 12, 15]
        wanted = np.ones(kernel.bins, dtype=bool)
        monkeypatch.setattr(spectrum_mod, "_cores", lambda: 4)
        parts = _plan(kernel.pairs, workers)
        assert len(parts) == workers
        assert all(any(start <= p < stop for p in picked) for start, stop in parts)
        keys, calls, keyed = _Kernel.keys, [], Counter()

        def recorded(self, pairs):
            pairs = list(pairs)
            calls.append(pairs)
            for his, a, row_keys in keys(self, pairs):
                keyed[his[0]] += 1
                yield his, a, row_keys

        one = [spectrum_mod._collect_range(kernel, [p], wanted, cap)
               for p in picked]  # a call per pair, as the oracle
        monkeypatch.setattr(_Kernel, "keys", recorded)
        found = spectrum_mod._collect_range(kernel, picked, wanted, cap)
        assert keyed == Counter(picked)
        assert calls == [picked]  # one call that holds them all
        # the merge caps as it goes: each weight keeps the ``cap`` least
        assert {wt: (sorted(kept), count) for wt, (kept, count) in found.items()} \
            == self.merged(one, cap)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_member_pass_runs_on_the_calling_thread(self, monkeypatch, workers):
        # 16 pairs at n = 10: two or three ranges, a thread each
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 3)
        want = level_sets(10, 3, 2, workers=1)
        monkeypatch.setattr(spectrum_mod, "_cores", lambda: 4)
        keys, pools, callers = _Kernel.keys, [], []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        def recorded(self, pairs):
            callers.append(threading.get_ident())
            return keys(self, pairs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(_Kernel, "keys", recorded)
        got = level_sets(10, 3, 2, workers=workers)
        assert len(pools) == 1  # the sweep's
        *sweep, rescan = callers
        assert len(sweep) == workers and threading.get_ident() not in sweep
        assert rescan == threading.get_ident()
        assert got == want


class TestChunkEdges:
    """``_Kernel.keys`` works out the words and constants of a chunk of pairs
    at once; keys, key counts, bounds and rescanned members must not depend
    on where its chunks begin and end."""

    @staticmethod
    def keyed(kernel, pairs):
        return [(his, a, keys.copy()) for his, a, keys in kernel.keys(pairs)]

    # (block bits, n, natural chunk, tie lanes): t = 2 and one periodic word,
    # 256 pairs; t = 6 and two periodic words, 1024 pairs; t = 6 and one
    # periodic word, 256 pairs whose tie lanes outnumber the histogram's keys
    @pytest.mark.parametrize("block_bits, n, natural, ties", [(9, 18, 64, 512),
                                                              (11, 22, 8, 2048),
                                                              (13, 22, 64, 8192)])
    def test_results_do_not_depend_on_chunk_edges(self, monkeypatch, block_bits, n, natural,
                                                  ties):
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        kernel = _Kernel(n)
        assert kernel._chunk == natural and kernel.pairs % natural == 0
        a, b = kernel.cover(0)
        assert 2 * (b - a) * kernel.pairs == ties
        assert (ties > (n + 1) * kernel.bins) == (block_bits == 13)
        monkeypatch.setattr(spectrum_mod, "_cores", lambda: 4)
        parts = [(0, kernel.pairs)] + _plan(kernel.pairs, 3)
        assert any(start % natural for start, _ in parts)  # a range starts mid-chunk
        last = kernel.pairs - 1
        runs = [range(natural - 2, natural + 13), [0, 3, 4, 9, 10, 11, 40, last - 5, last],
                list(range(1, 2 * natural + 7, 3))]  # consecutive pairs and gapped lists
        chosen = [1, 2, 5, natural - 1, natural, natural + 4, last - 1]
        wanted = np.ones(kernel.bins, dtype=bool)

        def results():
            keys = [self.keyed(kernel, pairs) for pairs in runs]
            swept = [spectrum_mod._sweep_range(kernel, start, stop, True) for start, stop in parts]
            found = [spectrum_mod._collect_range(kernel, [p for p in chosen if start <= p < stop],
                                                 wanted, 2)
                     for start, stop in parts]
            return keys, swept, found

        want_keys, want_swept, want_found = results()
        hist = spectrum_mod._merge_hist(kernel, [want_swept[0][0]])
        digest = hashlib.sha256(repr(tuple(hist.tolist())).encode()).hexdigest()
        assert digest == TestKernelSplit.GOLDEN[n]
        for chunk in (1, 2, 5, natural - 1, natural + 3):
            kernel._chunk = chunk
            got_keys, got_swept, got_found = results()
            for got, want in zip(got_keys, want_keys):
                assert [(his, a) for his, a, _ in got] == [(his, a) for his, a, _ in want]
                assert all(np.array_equal(g, w) for (*_, g), (*_, w) in zip(got, want)), chunk
            for (counts, bounds), (want_counts, want_bounds) in zip(got_swept, want_swept):
                assert np.array_equal(counts, want_counts) and np.array_equal(bounds, want_bounds)
            assert got_found == want_found, chunk


class TestThreeRowMax:
    @pytest.mark.parametrize("block_bits", [16, 3])
    def test_matches_scalar_oracle(self, monkeypatch, block_bits):
        # the DP must not depend on the sweep's block width
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        for n in range(1, 15):
            # below length 3 every row is among the top three
            top = [(s3 if n >= 3 else triangle_weight)(BitSeq(n, v)) for v in range(1 << n)]
            best = max(top)
            assert three_row_max(n) == (best, [v for v in range(1 << n) if top[v] == best])

    @pytest.mark.parametrize("n,best,count", [(20, 38, 97), (30, 58, 714), (40, 78, 5245)])
    def test_argmax_counts_pinned(self, n, best, count):
        got, arg = three_row_max(n, force=True)
        assert (got, len(arg)) == (best, count)
        assert arg == sorted(set(arg)) and all(0 <= v < 1 << n for v in arg)
        for v in arg[:3] + arg[-3:]:
            assert s3(BitSeq(n, v)) == best

    def test_ceiling(self):
        with pytest.raises(CeilingExceeded):
            three_row_max(41)
        with pytest.raises(CeilingExceeded):
            three_row_max(41, force=True)
        with pytest.raises(ValueError):
            three_row_max(0)


class TestFindWeight:
    def test_known_orbit_at_ten(self):
        got = find_weight(10, 17)
        assert got.count == 6 and not got.truncated
        assert {str(m) for m in got.members} == {
            "0001000000", "0000001100", "0010001000",
            "0000001000", "0011000000", "0001000100"}

    def test_empty_slices(self):
        assert find_weight(14, 25).count == 0
        assert find_weight(6, 9).count == 0
        assert find_weight(6, 9).members == ()

    def test_counts_match_histogram_everywhere(self):
        for n in (6, 10, 12):
            spec = full_spectrum(n)
            slices = members_at_weights(n, range(len(spec.counts)), cap=1)
            for w, c in enumerate(spec.counts):
                assert slices[w].count == c

    def test_impossible_weight_rejected(self):
        with pytest.raises(ValueError):
            find_weight(4, 11)
        with pytest.raises(ValueError):
            find_weight(4, -1)


class TestDeterminism:
    def test_spectra_identical_across_worker_counts(self):
        base = full_spectrum(11, workers=1)
        for workers in (2, 3, 8):
            assert full_spectrum(11, workers=workers) == base

    def test_members_identical_across_worker_counts(self):
        base = find_weight(11, 16, workers=1)
        for workers in (2, 5):
            assert find_weight(11, 16, workers=workers) == base

    def test_chunk_size_immaterial(self, monkeypatch):
        base = full_spectrum(9)
        members = find_weight(9, 13)
        big = full_spectrum(14)
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 3)
        monkeypatch.setattr(spectrum_mod, "_cores", lambda: 4)
        for workers in (1, 3):  # 64 blocks of 8 lanes, ragged three-way split
            assert full_spectrum(9, workers=workers) == base
            assert find_weight(9, 13, workers=workers) == members
        assert full_spectrum(14, workers=3) == big  # threaded, 2048 blocks

    def test_thread_plan_is_clamped(self, monkeypatch):
        assert _Kernel(26).pairs == 1 << 8  # the unit of work is a pair of blocks
        parts = _plan(1 << 10, 100000)
        assert 1 <= len(parts) <= _cores()  # one range per thread
        assert parts[0][0] == 0 and parts[-1][1] == 1 << 10
        monkeypatch.setattr(spectrum_mod, "_cores", lambda: 4)
        assert len(_plan(1 << 10, 100000)) == 4
        parts = _plan(1 << 10, 3)
        # pair hi evaluates about hi + 1 lanes' worth: equal shares of 1024 * 1025 / 2
        assert parts == [(0, 591), (591, 836), (836, 1024)]
        work = [sum(hi + 1 for hi in range(*part)) for part in parts]
        assert max(work) - min(work) <= 1024
        assert _plan(1, 100000) == [(0, 1)]

    def test_worker_count_does_not_set_memory(self, monkeypatch):
        # a range keeps a count array until the merge, so a count far past
        # the cores must hold no more of them than one range per core
        monkeypatch.setattr(spectrum_mod, "_cores", lambda: 2)
        full_spectrum(26, workers=2)  # tables built outside the trace

        def peak(workers):
            tracemalloc.start()
            try:
                full_spectrum(26, workers=workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10 ** 6) <= 1.5 * peak(2)

    def test_truncated_capture_deterministic(self):
        base = level_sets_low(9, 2, cap=3, workers=1)
        for workers in (2, 4):
            assert level_sets_low(9, 2, cap=3, workers=workers) == base

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            full_spectrum(5, workers=0)
