import numpy as np
import pytest

from steinhaus import (
    BitSeq,
    build,
    render,
    s3,
    subtriangle_generator,
    triangle_weight,
)

from steinhaus.symmetry import invert_i, rot_r
from steinhaus.triangle import row_steps

from conftest import all_seqs

FIGURE_ROWS = ["0001001", "001101", "01011", "1110", "001", "01", "1"]


class TestBuild:
    def test_figure_rows(self):
        t = build(BitSeq.from_string("0001001"))
        assert [str(r) for r in t.rows] == FIGURE_ROWS
        assert t.weight == 14

    def test_single_bit(self):
        assert [str(r) for r in build(BitSeq.from_string("1")).rows] == ["1"]

    def test_length(self):
        assert build(BitSeq.from_string("0001001")).n == 7

    def test_two_zeros(self):
        assert [str(r) for r in build(BitSeq.from_string("00")).rows] == ["00", "0"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build(BitSeq(0, 0))

    def test_row_invariant(self, rng):
        t = build(BitSeq(20, rng.getrandbits(20)))
        for i in range(len(t.rows) - 1):
            assert t.rows[i + 1] == t.rows[i].derivative()
        assert sum(r.n for r in t.rows) == 20 * 21 // 2


class TestTriangleWeight:
    @pytest.mark.parametrize("text,expected", [
        ("1011", 7),
        ("0110", 6),
        ("00000", 0),
        ("0001001", 14),
        ("001000", 8),  # single one in third place at n = 6
    ])
    def test_examples(self, text, expected):
        assert triangle_weight(BitSeq.from_string(text)) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            triangle_weight(BitSeq(0, 0))

    def test_streamed_matches_materialized_exhaustive(self):
        for n in range(1, 15):
            top = n * (n + 1) // 2
            for x in all_seqs(n):
                w = triangle_weight(x)
                assert w == build(x).weight
                assert 0 <= w <= top


class TestRowSteps:
    def test_matches_the_scalar_functions_at_every_length(self, rng):
        # zero, all ones, the top bit alone and random words: the shifts reach 63 at n = 64
        seqs = [BitSeq(n, v) for n in range(1, 65)
                for v in (0, (1 << n) - 1, 1 << n - 1, *(rng.getrandbits(n) for _ in range(8)))]
        weight, rot, rev = row_steps([x.bits for x in seqs], [x.n for x in seqs])
        assert weight.tolist() == [triangle_weight(x) for x in seqs]
        assert rot.tolist() == [rot_r(x).bits for x in seqs]
        assert rev.tolist() == [invert_i(x).bits for x in seqs]

    @pytest.mark.parametrize("n", [1, 9, 63, 64])
    def test_one_length_for_all(self, rng, n):
        seqs = [BitSeq(n, rng.getrandbits(n)) for _ in range(50)]
        weight, rot, rev = row_steps(np.array([x.bits for x in seqs], np.uint64), n)
        assert weight.tolist() == [triangle_weight(x) for x in seqs]
        assert rot.tolist() == [rot_r(x).bits for x in seqs]
        assert rev.tolist() == [invert_i(x).bits for x in seqs]

    def test_every_word_of_a_small_length(self):
        for n in range(1, 9):
            seqs = list(all_seqs(n))
            assert row_steps([x.bits for x in seqs], n)[0].tolist() == \
                [triangle_weight(x) for x in seqs]

    def test_empty_input(self):
        assert all(len(a) == 0 for a in row_steps([], []))

    @pytest.mark.parametrize("n", [0, 65, [3, 0], [64, 65]])
    def test_lengths_outside_the_shifts_rejected(self, n):
        with pytest.raises(ValueError, match="lengths 1..64"):
            row_steps(np.zeros(np.shape(n), np.uint64), n)


class TestSubtriangle:
    def test_whole_triangle(self):
        x = BitSeq.from_string("0001001")
        assert subtriangle_generator(x, 0, 0, 7) == x

    def test_inner_rows(self):
        x = BitSeq.from_string("0110")
        assert str(subtriangle_generator(x, 1, 0, 3)) == "101"
        assert triangle_weight(subtriangle_generator(x, 1, 0, 3)) == 4

    def test_fixed_size_slices_share_weight(self):
        # both generators below have all size-2 subtriangles of weight 2
        # and all size-3 subtriangles of weight 4, yet different totals
        for text in ("1011", "0110"):
            x = BitSeq.from_string(text)
            for k, expected in ((2, 2), (3, 4)):
                for j in range(x.n - k + 1):
                    for start in range(x.n - j - k + 1):
                        sub = subtriangle_generator(x, j, start, k)
                        assert triangle_weight(sub) == expected

    @pytest.mark.parametrize("j,start,k", [(7, 0, 1), (0, 0, 8), (1, 6, 1), (0, 0, 0), (0, -1, 2)])
    def test_out_of_range(self, j, start, k):
        with pytest.raises(IndexError):
            subtriangle_generator(BitSeq.from_string("0001001"), j, start, k)


class TestS3:
    def test_period_three_families_hit_the_bound(self):
        for n in range(3, 21):
            for pattern in ("110", "011", "101"):
                assert s3(BitSeq.from_pattern(pattern, n)) == 2 * n - 2

    def test_known_maximizer(self):
        assert s3(BitSeq.from_string("11011")) == 8

    def test_zeros(self):
        assert s3(BitSeq.zeros(5)) == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            s3(BitSeq.from_string("10"))

    def test_bound_exhaustive_small(self):
        for n in range(4, 13):
            assert max(s3(x) for x in all_seqs(n)) == 2 * n - 2

    def test_equality_sets_small(self):
        hits4 = {str(x) for x in all_seqs(4) if s3(x) == 6}
        assert hits4 == {"1101", "0110", "1011", "1001"}
        hits5 = {str(x) for x in all_seqs(5) if s3(x) == 8}
        assert hits5 == {"11011", "01101", "10110", "10011", "11001"}


class TestRender:
    def test_single(self):
        assert render(BitSeq.from_string("1")) == "1"

    def test_two_rows(self):
        assert render(BitSeq.from_string("10")) == "1 .\n 1"

    def test_figure_pyramid(self):
        expected = "\n".join([
            ". . . 1 . . 1",
            " . . 1 1 . 1",
            "  . 1 . 1 1",
            "   1 1 1 .",
            "    . . 1",
            "     . 1",
            "      1",
        ])
        assert render(BitSeq.from_string("0001001")) == expected

    def test_zero_character_flag(self):
        assert render(BitSeq.from_string("10"), zero="0") == "1 0\n 1"
