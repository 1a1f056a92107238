import pytest

from steinhaus import (
    BitSeq,
    canonical,
    invert_i,
    orbit,
    rot_l,
    rot_r,
    triangle_weight,
)
from steinhaus.symmetry import images

from conftest import all_seqs, random_seq


def rot_r_by_formula(x):
    """Entry j as the mod-2 binomial sum over the rightmost j+1 entries.

    Independent oracle: uses the subset-bit criterion for odd binomials
    instead of streaming difference rows.
    """
    out = 0
    for j in range(x.n):
        acc, sub = 0, j
        while True:
            acc ^= x.bit(x.n - 1 - j + sub)
            if sub == 0:
                break
            sub = (sub - 1) & j
        out |= acc << j
    return BitSeq(x.n, out)


def rot_l_by_formula(x):
    out = 0
    for j in range(x.n):
        q = x.n - 1 - j
        acc, sub = 0, q
        while True:
            acc ^= x.bit(sub)
            if sub == 0:
                break
            sub = (sub - 1) & q
        out |= acc << j
    return BitSeq(x.n, out)


class TestMaps:
    def test_figure_values(self):
        x = BitSeq.from_string("0001001")
        assert str(rot_r(x)) == "1110111"
        assert str(rot_l(x)) == "1001000"
        assert str(invert_i(x)) == "1001000"

    def test_all_ones_rotations(self):
        for n in (4, 5, 9):
            ones = BitSeq.ones(n)
            assert str(rot_r(ones)) == "1" + "0" * (n - 1)
            assert str(rot_l(ones)) == "0" * (n - 1) + "1"

    def test_single_bit_fixed_point(self):
        one = BitSeq.from_string("1")
        assert rot_r(one) == one and rot_l(one) == one and invert_i(one) == one

    def test_palindrome_reversal(self):
        x = BitSeq.from_string("0110")
        assert invert_i(x) == x

    def test_empty_rejected(self):
        empty = BitSeq(0, 0)
        with pytest.raises(ValueError):
            rot_r(empty)
        with pytest.raises(ValueError):
            rot_l(empty)
        assert invert_i(empty) == empty

    def test_group_laws_exhaustive(self):
        for n in range(1, 13):
            for x in all_seqs(n):
                assert rot_l(rot_r(x)) == x
                assert rot_r(rot_l(x)) == x
                assert invert_i(invert_i(x)) == x
                assert rot_r(rot_r(rot_r(x))) == x
                if n <= 10:  # spectrum._REVERSAL reads index 2: the order is r, l, i, r∘i, l∘i
                    ix = BitSeq.from_string(str(x)[::-1])
                    assert images(x) == (rot_r_by_formula(x), rot_l_by_formula(x), ix,
                                         rot_r_by_formula(ix), rot_l_by_formula(ix))

    def test_rot_r_matches_binomial_formula(self):
        for n in range(1, 11):
            for x in all_seqs(n):
                assert rot_r(x) == rot_r_by_formula(x)

    def test_rot_l_matches_binomial_formula(self):
        for n in range(1, 11):
            for x in all_seqs(n):
                assert rot_l(x) == rot_l_by_formula(x)

    def test_rot_r_on_unit_vectors(self):
        for n in range(1, 13):
            for k in range(n):
                e = BitSeq(n, 1 << k)
                assert rot_r(e) == rot_r_by_formula(e)

    def test_weight_invariance_exhaustive(self):
        for n in range(1, 13):
            for x in all_seqs(n):
                w = triangle_weight(x)
                ix = invert_i(x)
                for y in (rot_r(x), rot_l(x), ix, rot_r(ix), rot_l(ix)):
                    assert triangle_weight(y) == w

    def test_burnside_orbit_count(self):
        # The orbit count is the mean number of fixed points over the group,
        # which holds only if the six maps are closed (e.g. i∘r = l∘i).
        group = (lambda x: x, rot_r, rot_l, invert_i,
                 lambda x: rot_r(invert_i(x)), lambda x: rot_l(invert_i(x)))
        for n in range(1, 11):
            seqs = list(all_seqs(n))
            fixed = sum(g(x) == x for g in group for x in seqs)
            assert 6 * len({canonical(x) for x in seqs}) == fixed, n


class TestOrbit:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sequence has no orbit"):
            orbit(BitSeq(0, 0))

    def test_all_ones_class(self):
        n = 6
        got = {str(m) for m in orbit(BitSeq.ones(n)).members}
        assert got == {"1" * n, "1" + "0" * (n - 1), "0" * (n - 1) + "1"}

    def test_period_three_classes_at_residue_one(self):
        # for n = 1 (mod 3) the 110-repeat and 101-repeat are each other's
        # reversal and both rotation-fixed; the 011-repeat is a palindrome
        for n in (7, 10, 13):
            z1 = BitSeq.from_pattern("110", n)
            z2 = BitSeq.from_pattern("011", n)
            z3 = BitSeq.from_pattern("101", n)
            assert rot_r(z1) == z1 and rot_l(z1) == z1
            assert invert_i(z1) == z3
            assert orbit(z1).members == tuple(sorted((z1, z3), key=str))
            assert orbit(z2).members == (z2,)

    def test_weight_seventeen_class_at_ten(self):
        got = {str(m) for m in orbit(BitSeq.from_string("0001000000")).members}
        assert got == {"0001000000", "0000001100", "0010001000",
                       "0000001000", "0011000000", "0001000100"}

    def test_sizes_and_partition_exhaustive(self):
        for n in range(1, 15):
            seen_orbit_total = 0
            for x in all_seqs(n):
                orb = orbit(x)
                assert orb.size in (1, 2, 3, 6)
                assert 6 % orb.size == 0
                if x == min(orb.members, key=lambda s: s.bits):
                    seen_orbit_total += orb.size
            assert seen_orbit_total == 1 << n

    def test_closed_under_maps(self, rng):
        for n in (5, 9, 14):
            for _ in range(30):
                orb = orbit(random_seq(rng, n))
                members = set(orb.members)
                for y in members:
                    assert rot_r(y) in members
                    assert rot_l(y) in members
                    assert invert_i(y) in members

    def test_members_share_weight(self, rng):
        for _ in range(50):
            orb = orbit(random_seq(rng, 16))
            weights = {triangle_weight(m) for m in orb.members}
            assert len(weights) == 1


class TestCanonical:
    def test_all_ones_class_minimum(self):
        for n in (4, 7, 11):
            expected = BitSeq.from_string("0" * (n - 1) + "1")
            assert canonical(BitSeq.ones(n)) == expected
            assert canonical(BitSeq(n, 1)) == expected
            assert canonical(expected) == expected

    def test_idempotent(self, rng):
        for _ in range(50):
            x = random_seq(rng, 12)
            assert canonical(canonical(x)) == canonical(x)

    def test_self_canonical_singleton(self):
        x = BitSeq.from_string("0110")
        assert orbit(x).members == (x,)
        assert canonical(x) == x

    def test_is_lexicographic_minimum_of_members(self, rng):
        for _ in range(50):
            orb = orbit(random_seq(rng, 13))
            assert str(orb.canonical) == min(str(m) for m in orb.members)
