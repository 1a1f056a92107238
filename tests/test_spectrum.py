import hashlib
from collections import Counter
from functools import cache

import numpy as np
import pytest

from steinhaus import (
    BitSeq,
    CeilingExceeded,
    WeightSpectrum,
    enumeration_ceiling,
    find_weight,
    full_spectrum,
    invert_i,
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
from steinhaus.spectrum import _cores, _Images, _Kernel, _plan

from conftest import all_seqs


def kernel_weights(n):
    """Weights of every generator of length n, in packed order, from the block kernel."""
    kernel = _Kernel(n)
    return np.concatenate([w for _, w in kernel.weights(0, kernel.blocks)])


def table_images(n):
    """Images of every generator of length n under the five symmetry tables, in
    packed order, one row per map, read off block by block."""
    kernel, images = _Kernel(n), _Images(n)
    return np.hstack([images.of(first, w.size) for first, w in kernel.weights(0, kernel.blocks)])


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
        for n in range(1, 11):
            spec = full_spectrum(n)
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
        for n in range(1, 13):
            assert symmetry_reduced_spectrum(n) == full_spectrum(n)

    def test_agrees_under_workers(self):
        assert symmetry_reduced_spectrum(10, workers=3) == full_spectrum(10)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_agrees_across_blocks(self, monkeypatch, workers):
        # 8-lane blocks: every image takes the XOR of the high columns set in hi.
        expected = [full_spectrum(n) for n in range(1, 14)]
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", 3)
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
        # a block the kernel reports short, starting past its first lane
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        n = 9
        images = _Images(n)
        for first, size in ((1, 7), (5, 2), (8 * 37 + 3, 4), (511, 1)):
            got = images.of(first, size)
            assert got.shape == (5, size)
            for lane in range(size):
                x = BitSeq(n, first + lane)
                assert got[:, lane].tolist() == [g(x).bits for g in SCALAR_MAPS]

    def test_weight_invariance_under_all_symmetries_to_14(self):
        for n in (13, 14):
            w = kernel_weights(n)
            for image in table_images(n):
                assert np.array_equal(w[image], w)

    @pytest.mark.parametrize("n", [33, 40])
    def test_sampled_blocks_beyond_32_bits(self, n, rng):
        kernel = _Kernel(n)
        words = -(-kernel.k * (n - kernel.k) // 64)  # only the mixed bits are tabulated
        assert kernel.table.shape == (words, 1 << kernel.k)
        assert kernel._steps.shape == (n - kernel.k, words)
        starts = [0, kernel.blocks - 3] + [rng.randrange(kernel.blocks - 2) for _ in range(3)]
        for start in starts:
            for first, w in kernel.weights(start, start + 3):  # also steps between blocks
                assert w.shape == (1 << kernel.k,)
                for lo in [0, w.size - 1] + [rng.randrange(w.size) for _ in range(20)]:
                    assert int(w[lo]) == triangle_weight(BitSeq(n, first + lo))


class TestKernelSplit:
    """Lo-only bits come from ``base``, hi-only bits from one number per block,
    and only the k(n-k) mixed bits from the XOR table; each against the scalar oracle."""

    @staticmethod
    def lanes(size, rng):
        return [0, 1, size - 1] + [rng.randrange(size) for _ in range(40)]

    def test_base_is_the_low_half_weight(self, rng):
        kernel = _Kernel(20)
        k = kernel.k
        assert k == 16 and kernel.base.dtype == np.uint16 and kernel.base.shape == (1 << k,)
        for lo in self.lanes(1 << k, rng):
            assert int(kernel.base[lo]) == triangle_weight(BitSeq(k, lo))

    @pytest.mark.parametrize("n", [17, 20, 24])
    def test_block_scalar_is_the_high_half_weight(self, n):
        kernel = _Kernel(n)
        k = kernel.k
        for start in (0, 1, kernel.blocks // 2 - 1):
            stop = min(start + 16, kernel.blocks)
            his = [(hi, weight) for hi, _, weight in kernel._highs(start, stop)]
            assert [hi for hi, _ in his] == list(range(start, stop))
            for hi, weight in his:
                assert weight == triangle_weight(BitSeq(n - k, hi))

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_sampled_lanes_match_the_scalar_weight(self, n, rng):
        kernel = _Kernel(n)
        k = kernel.k
        assert kernel.table.shape == (-(-k * (n - k) // 64), 1 << k)
        for first, w in kernel.weights(0, kernel.blocks):
            for lo in self.lanes(w.size, rng):
                assert int(w[lo]) == triangle_weight(BitSeq(n, first + lo))

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_sampled_lanes_of_the_top_three_rows_match_s3(self, n, rng):
        kernel = _Kernel(n, bits=3 * n - 3)
        for first, w in kernel.weights(0, kernel.blocks):
            for lo in self.lanes(w.size, rng):
                assert int(w[lo]) == s3(BitSeq(n, first + lo))

    def test_small_sizes_are_the_base_alone(self):
        kernel = _Kernel(12)
        assert kernel.table.shape == (0, 1 << 12)
        (first, w), = kernel.weights(0, 1)
        assert first == 0 and np.array_equal(w, kernel.base)
        assert w is not kernel.base

    # SHA-256 of repr(full_spectrum(n).counts), recorded from the one-table
    # kernel that tabulated every packed bit; several 2^16-lane blocks each.
    GOLDEN = {
        17: "c3ada221a6cc70b54815b0f45f4c86c74806625901a938635846725b12237314",
        18: "c7c0863ca51829a6ebdb66a45e34b3b72674237d14006fa6cf9862dd77b9cd7e",
        19: "3718ba3df20c8bd40ca3be4ead0e22d9f883752eb3b9e74eaebfbf700f56523c",
        20: "9a2198b0a7f7cafcc58f2daa4cff5408186a89a9fd41df1fad0bfbc327648ae8",
        21: "60dee6cf3a9f70afb828b078fb51af6cdb913095de88764373399db46b397c15",
        22: "f5f763fa42cfb181f37f9f84b75ae7b88baa4c9041f8837f4367068955254656",
    }

    @pytest.mark.parametrize("n", sorted(GOLDEN))
    def test_multi_block_spectra_pinned(self, n):
        counts = full_spectrum(n).counts
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == self.GOLDEN[n]


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

    def test_mismatched_spectrum_rejected(self):
        good = full_spectrum(6)
        counts = list(good.counts)
        counts[good.levels[1]] += 1
        with pytest.raises(ValueError, match="disagrees with enumeration"):
            level_sets_low(6, 1, spectrum=WeightSpectrum(6, tuple(counts)))

    def test_matching_spectrum_gives_the_same_sets(self):
        spec = full_spectrum(9)
        assert level_sets_low(9, 3, spectrum=spec) == level_sets_low(9, 3)
        assert level_sets_high(9, 2, spectrum=spec) == level_sets_high(9, 2)
        counts = list(spec.counts)
        counts[spec.levels[-1]] += 1
        with pytest.raises(ValueError, match="disagrees with enumeration"):
            level_sets_high(9, 1, spectrum=WeightSpectrum(9, tuple(counts)))

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

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            level_sets(5, -1, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            level_sets(5, 3, -1)

    def test_negative_cap_rejected(self):
        for call in (lambda: level_sets(5, 3, 2, cap=-1),
                     lambda: level_sets_low(5, 1, cap=-1),
                     lambda: members_at_weights(5, [3], cap=-1),
                     lambda: find_weight(5, 3, cap=-1)):
            with pytest.raises(ValueError, match="cap must be nonnegative"):
                call()

    def test_cap_zero_keeps_counts_only(self):
        got = level_sets(8, 3, 2, weights=[10], cap=0)
        for piece in got.low + got.high + list(got.slices.values()):
            assert piece.members == () and piece.truncated == (piece.count > 0)
            assert piece.count == got.spectrum.count(piece.weight)

    def test_lost_lane_breaks_histogram_total(self, monkeypatch):
        weights = _Kernel.weights

        def skip_first_lane(self, start, stop):
            for first, w in weights(self, start, stop):
                yield first + 1, w[1:]

        monkeypatch.setattr(_Kernel, "weights", skip_first_lane)
        for call in (lambda: full_spectrum(9), lambda: level_sets(9, 3, 2),
                     lambda: symmetry_reduced_spectrum(9), lambda: three_row_max(9)):
            with pytest.raises(ValueError, match=r"counts 511 generators, not 2\^9"):
                call()

    def test_missed_block_breaks_member_count(self, monkeypatch):
        wanted = spectrum_mod._Wanted.of
        calls = []

        def blind_first_block(self, hist):  # as if a wanted weight dropped out and came back
            calls.append(None)
            return wanted(self, hist) & (len(calls) > 1)

        monkeypatch.setattr(spectrum_mod._Wanted, "of", blind_first_block)
        for call in (lambda: level_sets(6, 3, 2, workers=1), lambda: three_row_max(6)):
            calls.clear()
            with pytest.raises(ValueError, match="member scan disagrees with the histogram"):
                call()


class TestThreeRowMax:
    @pytest.mark.parametrize("block_bits", [16, 3])
    def test_matches_scalar_oracle(self, monkeypatch, block_bits):
        monkeypatch.setattr(spectrum_mod, "_BLOCK_BITS", block_bits)
        for n in range(1, 12):
            # below length 3 every row is among the top three
            top = {v: (s3 if n >= 3 else triangle_weight)(BitSeq(n, v)) for v in range(1 << n)}
            best = max(top.values())
            assert three_row_max(n) == (best, [v for v in range(1 << n) if top[v] == best])

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
        for workers in (1, 3):  # 64 blocks of 8 lanes, ragged three-way split
            assert full_spectrum(9, workers=workers) == base
            assert find_weight(9, 13, workers=workers) == members
        assert full_spectrum(14, workers=3) == big  # threaded, 2048 blocks

    def test_thread_plan_is_clamped(self):
        parts, threads = _plan(26, 1 << 10, 100000)
        assert len(parts) == 1 << 10
        assert parts[0] == (0, 1) and parts[-1] == (1023, 1024)
        assert 1 <= threads <= _cores()
        parts, threads = _plan(26, 1 << 10, 3)
        assert parts == [(0, 341), (341, 682), (682, 1024)]
        assert threads == min(3, _cores())
        assert _plan(10, 1, 100000) == ([(0, 1)], 1)

    def test_truncated_capture_deterministic(self):
        base = level_sets_low(9, 2, cap=3, workers=1)
        for workers in (2, 4):
            assert level_sets_low(9, 2, cap=3, workers=workers) == base

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            full_spectrum(5, workers=0)
