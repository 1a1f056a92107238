import re

import pytest

from steinhaus import MAX_LEN, BitSeq, row_entry

from conftest import all_seqs, random_seq


class TestFromString:
    def test_figure_sequence(self):
        x = BitSeq.from_string("0001001")
        assert x.n == 7
        assert [x.bit(j) for j in range(7)] == [0, 0, 0, 1, 0, 0, 1]

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError, match="bit index 2 out of range for length 2"):
            BitSeq.from_string("01").bit(2)

    def test_empty(self):
        assert BitSeq.from_string("") == BitSeq(0, 0)

    def test_rejects_bad_character(self):
        # int(text, 2) would take '_', '+', whitespace and non-ASCII digits;
        # the error names the first bad character in text order
        for text, bad in [("10X1", "X"), ("1_0", "_"), ("+10", "+"), ("-1", "-"), (" 01", " "),
                          ("01\n", "\n"), ("0\u0661", "\u0661"), ("\uff11", "\uff11"),
                          ("0b1", "b"), ("1x0_", "x")]:
            with pytest.raises(ValueError, match=f"invalid character {re.escape(repr(bad))} "):
                BitSeq.from_string(text)

    def test_text_both_ways_matches_the_bits(self, rng):
        for n in (0, 1, 7, 64, 128):
            x = random_seq(rng, n)
            text = "".join(str(x.bits >> j & 1) for j in range(n))
            assert str(x) == text and BitSeq.from_string(text) == x

    def test_rejects_overlong(self):
        BitSeq.from_string("1" * MAX_LEN)
        with pytest.raises(ValueError):
            BitSeq.from_string("1" * (MAX_LEN + 1))

    def test_round_trip(self, rng):
        for n in (0, 1, 5, 64, 128):
            x = random_seq(rng, n)
            assert BitSeq.from_string(str(x)) == x


class TestFromPattern:
    @pytest.mark.parametrize("pattern,n,expected", [
        ("100", 4, "1001"),
        ("100", 5, "10010"),
        ("100", 6, "100100"),
        ("1", 0, ""),
        ("01", 7, "0101010"),
    ])
    def test_examples(self, pattern, n, expected):
        assert str(BitSeq.from_pattern(pattern, n)) == expected

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            BitSeq.from_pattern("", 3)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BitSeq.from_pattern("01", -1)

    def test_entries_follow_pattern_by_index(self):
        # direct index check, independent of concat
        for pattern in ("1", "10", "110", "0011", "10010"):
            for n in (0, 1, 4, 9, 17, 64):
                x = BitSeq.from_pattern(pattern, n)
                for j in range(n):
                    assert x.bit(j) == int(pattern[j % len(pattern)])


class TestConcat:
    def test_example(self):
        a = BitSeq.from_string("101")
        b = BitSeq.from_string("01")
        assert str(a.concat(b)) == "10101"

    def test_empty_identity(self):
        x = BitSeq.from_string("1101")
        empty = BitSeq.from_string("")
        assert x.concat(empty) == x
        assert empty.concat(x) == x
        assert empty.concat(empty) == empty

    def test_overflow(self):
        a = BitSeq.ones(100)
        with pytest.raises(ValueError, match="maximum length"):
            a.concat(BitSeq.zeros(29))


class TestWeight:
    def test_examples(self):
        assert BitSeq.from_string("0001001").weight == 2
        assert BitSeq.zeros(9).weight == 0
        assert BitSeq.from_pattern("110", 8).weight == 6

    def test_period_three_weight_formula(self):
        for n in range(1, 40):
            assert BitSeq.from_pattern("110", n).weight == -(-2 * n // 3)


class TestDerivative:
    def test_figure_row(self):
        assert str(BitSeq.from_string("0001001").derivative()) == "001101"

    def test_kernel_members(self):
        assert str(BitSeq.from_string("1111").derivative()) == "000"
        assert str(BitSeq.from_string("10").derivative()) == "1"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BitSeq(0, 0).derivative()

    def test_linearity_random_pairs(self, rng):
        for n in list(range(1, 20)) + [32, 47, 64]:
            for _ in range(20):
                a, b = random_seq(rng, n), random_seq(rng, n)
                assert (a ^ b).derivative() == a.derivative() ^ b.derivative()

    def test_kernel_exhaustive(self):
        for n in range(1, 17):
            kernel = [x for x in all_seqs(n) if n == 1 or x.derivative().bits == 0]
            assert kernel == [BitSeq.zeros(n), BitSeq.ones(n)]


class TestDerivativeK:
    def test_identity(self):
        x = BitSeq.from_string("0001001")
        assert x.derivative_k(0) == x

    def test_figure_rows(self):
        x = BitSeq.from_string("0001001")
        assert str(x.derivative_k(2)) == "01011"
        assert str(x.derivative_k(6)) == "1"
        assert x.derivative_k(7) == BitSeq(0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            BitSeq.from_string("101").derivative_k(4)

    def test_matches_iterated_derivative(self, rng):
        for _ in range(50):
            x = random_seq(rng, 33)
            cur = x
            for k in range(x.n + 1):
                assert x.derivative_k(k) == cur
                if k < x.n:
                    cur = cur.derivative()


class TestPrimitives:
    def test_forced_small_case(self):
        lo, hi = BitSeq.from_string("11").primitives()
        assert (str(lo), str(hi)) == ("010", "101")
        assert lo.derivative() == BitSeq.from_string("11")

    def test_all_ones_gives_alternating(self):
        for n in (5, 8, 13):
            lo, hi = BitSeq.ones(n - 1).primitives()
            assert lo == BitSeq.from_pattern("01", n)
            assert hi == BitSeq.from_pattern("10", n)

    def test_alternating_gives_period_four(self):
        for n in (6, 9, 12):
            lo, hi = BitSeq.from_pattern("01", n - 1).primitives()
            assert lo == BitSeq.from_pattern("0011", n)
            assert hi == BitSeq.from_pattern("1100", n)

    def test_inverse_law_exhaustive(self):
        for n in range(0, 13):
            for y in all_seqs(n):
                lo, hi = y.primitives()
                assert lo.derivative() == y
                assert hi.derivative() == y
                assert lo.bit(0) == 0
                assert (lo ^ hi) == BitSeq.ones(n + 1)

    def test_overflow(self):
        with pytest.raises(ValueError):
            BitSeq.zeros(MAX_LEN).primitives()

    def test_empty(self):
        lo, hi = BitSeq(0, 0).primitives()
        assert (str(lo), str(hi)) == ("0", "1")


class TestRowEntry:
    def test_row_zero_is_the_sequence(self):
        x = BitSeq.from_string("0001001")
        assert row_entry(x, 0, 3) == 1
        assert row_entry(x, 0, 0) == 0

    def test_third_row_entry(self):
        assert row_entry(BitSeq.from_string("0001001"), 2, 1) == 1

    def test_apex_matches_iterated_derivative(self, rng):
        for n in range(1, 20):
            x = random_seq(rng, n)
            assert row_entry(x, n - 1, 0) == x.derivative_k(n - 1).bit(0)

    def test_out_of_range(self):
        x = BitSeq.from_string("1010")
        with pytest.raises(IndexError):
            row_entry(x, 4, 0)
        with pytest.raises(IndexError):
            row_entry(x, 2, 2)

    def test_matches_rows_exhaustive_small(self):
        for n in range(1, 10):
            for x in all_seqs(n):
                rows = [x.derivative_k(j) for j in range(n)]
                for j in range(n):
                    for l in range(n - j):
                        assert row_entry(x, j, l) == rows[j].bit(l)


class TestValueSemantics:
    def test_lengths_distinguish(self):
        assert BitSeq.from_string("0") != BitSeq.from_string("00")

    def test_hashable(self):
        assert len({BitSeq.from_string("01"), BitSeq.from_string("01")}) == 1

    def test_repr_and_len(self):
        x = BitSeq.from_string("0110")
        assert repr(x) == "BitSeq('0110')" and len(x) == 4
        assert repr(BitSeq(0, 0)) == "BitSeq('')" and len(BitSeq(0, 0)) == 0

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            BitSeq(2, 0b100)
        with pytest.raises(ValueError):
            BitSeq(MAX_LEN + 1, 0)

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            BitSeq.ones(3) ^ BitSeq.ones(4)
