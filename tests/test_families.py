from importlib import resources

import pytest

from steinhaus import (
    BitSeq,
    FamilyName,
    FamilyRangeError,
    NoClosedFormError,
    UncoveredLevelError,
    all_families,
    family_seq,
    invert_i,
    orbit,
    predicted_level,
    predicted_triangle_weight,
    rot_l,
    rot_r,
    triangle_weight,
)
from steinhaus import families as families_mod
from steinhaus.bitseq import MAX_LEN
from steinhaus.families import family_words


def seq(tag, n):
    return family_seq(FamilyName.parse(tag), n)


class TestFamilyName:
    def test_parse_case_insensitive(self):
        assert str(FamilyName.parse("B3")) == "b3"
        assert FamilyName.parse("e13") == FamilyName("e", 13)

    @pytest.mark.parametrize("bad", ["q3", "a", "a0", "a4", "b7", "z9", "u10", "e-1", "3b"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FamilyName.parse(bad)


class TestFamilySeq:
    @pytest.mark.parametrize("tag,n,expected", [
        ("b1", 8, "10101010"),
        ("c4", 8, "11001100"),
        ("z2", 7, "0110110"),
        ("u7", 12, "010010010010"),
        ("a2", 5, "10000"),
        ("a3", 5, "00001"),
        ("b3", 6, "000011"),
        ("c2", 7, "1010000"),
        ("v1", 11, "10010010010"),
        ("e0", 4, "1000"),
        ("e3", 8, "00010000"),
    ])
    def test_examples(self, tag, n, expected):
        assert str(seq(tag, n)) == expected

    def test_b_symmetries_even(self):
        for n in (8, 12):
            b1, b4 = seq("b1", n), seq("b4", n)
            assert seq("b2", n) == rot_r(b1)
            assert seq("b3", n) == rot_l(b1)
            assert b4 == invert_i(b1)
            assert seq("b5", n) == rot_r(b4)
            assert seq("b6", n) == rot_l(b4)

    def test_b_symmetries_odd(self):
        for n in (9, 13):
            b1, b4 = seq("b1", n), seq("b4", n)
            assert seq("b5", n) == rot_r(b1)
            assert seq("b3", n) == rot_l(b1)
            assert seq("b2", n) == rot_r(b4)
            assert seq("b6", n) == rot_l(b4)

    def test_c_symmetries_mod4(self):
        for n in (8, 12):  # n = 0 (mod 4)
            c1, c4 = seq("c1", n), seq("c4", n)
            assert seq("c2", n) == rot_r(c1)
            assert seq("c3", n) == rot_l(c1)
            assert c4 == invert_i(c1)
            assert seq("c5", n) == rot_r(c4)
            assert seq("c6", n) == rot_l(c4)
        for n in (10, 14):  # n = 2 (mod 4)
            c1, c4 = seq("c1", n), seq("c4", n)
            assert seq("c5", n) == rot_r(c1)
            assert seq("c3", n) == rot_l(c1)
            assert seq("c2", n) == rot_r(c4)
            assert seq("c6", n) == rot_l(c4)

    def test_z_symmetries_by_residue(self):
        for n in (9, 12):  # n = 0 (mod 3)
            assert seq("z2", n) == rot_r(seq("z1", n))
            assert seq("z3", n) == rot_l(seq("z1", n))
        for n in (11, 14):  # n = 2 (mod 3)
            assert seq("z2", n) == rot_l(seq("z1", n))
            assert seq("z3", n) == rot_r(seq("z1", n))
        for n in (7, 13):  # n = 1 (mod 3): rotation-fixed, mirror-paired
            for i in ("z1", "z2", "z3"):
                assert rot_r(seq(i, n)) == seq(i, n)
                assert rot_l(seq(i, n)) == seq(i, n)
            assert seq("z3", n) == invert_i(seq("z1", n))

    def test_z_derivative_cycle(self):
        for n in (6, 10, 17):
            assert seq("z1", n).derivative() == seq("z2", n - 1)
            assert seq("z2", n).derivative() == seq("z3", n - 1)
            assert seq("z3", n).derivative() == seq("z1", n - 1)

    def test_u_displays_match_symmetries(self):
        for n in (12, 15, 21):
            u1, u4, u7 = seq("u1", n), seq("u4", n), seq("u7", n)
            assert seq("u2", n) == rot_r(u1)
            assert seq("u3", n) == rot_l(u1)
            assert u4 == invert_i(u1)
            assert seq("u5", n) == rot_r(u4)
            assert seq("u6", n) == rot_l(u4)
            assert invert_i(u7) == u7
            assert seq("u8", n) == rot_r(u7)
            assert seq("u9", n) == rot_l(u7)
            assert u1.derivative() == seq("z3", n - 1)
            assert u7.derivative() == seq("z1", n - 1)

    def test_v_displays_match_symmetries(self):
        for n in (11, 14, 20):
            v1, v4 = seq("v1", n), seq("v4", n)
            assert seq("v2", n) == rot_r(v1)
            assert seq("v3", n) == rot_l(v1)
            assert v4 == invert_i(v1)
            assert seq("v5", n) == rot_r(v4)
            assert seq("v6", n) == rot_l(v4)
            assert v1.derivative() == seq("z3", n - 1)

    def test_b_pair_derives_to_all_ones(self):
        for n in (5, 8):
            assert seq("b1", n).derivative() == BitSeq.ones(n - 1)
            assert seq("b4", n).derivative() == BitSeq.ones(n - 1)

    @pytest.mark.parametrize("tag,n,message", [
        ("u1", 13, "0 \\(mod 3\\)"),
        ("u1", 9, "n >= 12"),
        ("v1", 12, "2 \\(mod 3\\)"),
        ("v1", 8, "n >= 11"),
        ("e5", 4, "n >= 6"),
        ("b1", 1, "n >= 2"),
        ("c1", 2, "n >= 3"),
        ("a1", 0, "n >= 1"),
        ("z1", 1, "n >= 2"),
    ])
    def test_range_errors_name_condition(self, tag, n, message):
        with pytest.raises(FamilyRangeError, match=message):
            seq(tag, n)

    def test_every_tag_refused_above_the_length_limit(self):
        n = MAX_LEN + 1
        tags = [FamilyName(g, i) for g, (_, _, members) in families_mod._GROUPS.items()
                for i in range(1, len(members) + 1)]
        for f in tags + [FamilyName("e", k) for k in range(n)]:
            with pytest.raises(FamilyRangeError, match=str(MAX_LEN)):
                family_seq(f, n)
        assert all_families(n) == []
        assert str(all_families(MAX_LEN)[-1]) == f"e{MAX_LEN - 1}"

    def test_all_families_listing(self):
        tags = [str(f) for f in all_families(12)]
        assert "u1" in tags and "v1" not in tags
        assert tags.count("e0") == 1 and "e11" in tags and "e12" not in tags
        tags11 = [str(f) for f in all_families(11)]
        assert "v6" in tags11 and "u1" not in tags11

    @pytest.mark.parametrize("n,expected", [
        (1, "a1 a2 a3 e0"),
        (2, "a1 a2 a3 b1 b2 b3 b4 b5 b6 z1 z2 z3 e0 e1"),
        (3, "a1 a2 a3 b1 b2 b3 b4 b5 b6 c1 c2 c3 c4 c5 c6 z1 z2 z3 e0 e1 e2"),
    ])
    def test_all_families_at_the_least_lengths(self, n, expected):
        assert " ".join(str(f) for f in all_families(n)) == expected

    def test_groups_are_unions_of_symmetry_orbits(self):
        # Each group lists whole orbits; c does so at even n only.
        for n in range(1, 65):
            groups: dict[str, set[BitSeq]] = {}
            for f in all_families(n):
                if f.group != "e":
                    groups.setdefault(f.group, set()).add(family_seq(f, n))
            for group, members in groups.items():
                closure = set().union(*(orbit(x).members for x in members))
                assert (closure == members) == (group != "c" or n % 2 == 0), (group, n)


def text_word(f, n):
    """The word of ``f`` at length n built from text, the way ``family_seq`` once
    built it, or the message of the FamilyRangeError it raised: the oracle of the
    packed words."""
    if n > MAX_LEN:
        return f"families are defined for n <= {MAX_LEN}"
    if f.group == "e":
        if f.index > n - 1:
            return f"e{f.index} requires n >= {f.index + 1}"
        return BitSeq.from_string("0" * f.index + "1" + "0" * (n - 1 - f.index))
    least, residue, members = families_mod._GROUPS[f.group]
    if residue is not None and n % 3 != residue:
        return f"{f.group} family requires n == {residue} (mod 3)"
    if n < least:
        return f"{f.group} family requires n >= {least}"
    head, pattern, tail = (str(word) for word in members[f.index - 1][:3])
    middle = n - len(head) - len(tail)
    return BitSeq.from_string(head + (pattern * middle)[:middle] + tail)


class TestPackedWords:
    TAGS = [FamilyName(g, i) for g, (_, _, members) in families_mod._GROUPS.items()
            for i in range(1, len(members) + 1)] + [FamilyName("e", k) for k in range(MAX_LEN)]

    def test_words_and_range_errors_match_the_text_construction(self):
        for n in range(1, MAX_LEN + 2):
            for f in self.TAGS:
                expected = text_word(f, n)
                if isinstance(expected, str):
                    with pytest.raises(FamilyRangeError) as info:
                        family_seq(f, n)
                    assert str(info.value) == expected, (str(f), n)
                else:
                    assert family_seq(f, n) == expected, (str(f), n)

    def test_family_words_are_the_sequences_packed(self):
        for n in range(1, MAX_LEN + 1):
            rows = families_mod.family_words(n)
            assert [f for f, _, _ in rows] == all_families(n)
            assert [BitSeq(n, bits) for _, bits, _ in rows] == \
                [text_word(f, n) for f, _, _ in rows], n


class TestPredictedTriangleWeight:
    @pytest.mark.parametrize("tag,n,expected", [
        ("e2", 6, 8),
        ("a1", 9, 9),
        ("a2", 17, 17),
        ("c1", 10, 16),
        ("c2", 10, 18),
        ("c4", 12, 21),
        ("z2", 7, 18),
        ("z1", 7, 19),
        ("z1", 9, 30),
        ("v1", 11, 41),
        ("u5", 12, 48),
        ("b1", 8, 11),
        ("b1", 9, 13),
        ("b2", 9, 12),
        ("e0", 30, 30),
        ("e1", 10, 14),
        ("e3", 11, 18),
        ("e3", 7, 9),
        ("e6", 8, 11),  # mirror of e1
    ])
    def test_examples(self, tag, n, expected):
        assert predicted_triangle_weight(FamilyName.parse(tag), n) == expected

    def test_no_closed_form_for_central_unit_vectors(self):
        with pytest.raises(NoClosedFormError, match="2n-3"):
            predicted_triangle_weight(FamilyName.parse("e4"), 9)

    def test_no_closed_form_for_odd_period_four(self):
        with pytest.raises(NoClosedFormError):
            predicted_triangle_weight(FamilyName.parse("c1"), 7)

    def test_closed_forms_match_computation_up_to_64(self):
        for n in range(2, 65):
            for f in all_families(n):
                try:
                    predicted = predicted_triangle_weight(f, n)
                except (NoClosedFormError, FamilyRangeError):
                    continue
                assert predicted == triangle_weight(family_seq(f, n)), (str(f), n)

    def test_family_weights_none_exactly_without_a_closed_form(self):
        for n in range(1, 65):
            rows = family_words(n)
            assert [f for f, _, _ in rows] == all_families(n)
            for f, bits, predicted in rows:
                assert BitSeq(n, bits) == family_seq(f, n)
                try:
                    expected = predicted_triangle_weight(f, n)
                except ValueError:
                    expected = None
                assert predicted == expected, (str(f), n)

    def test_family_weights_builds_each_sequence_once(self, monkeypatch):
        # ``_bits`` builds every family word; nothing else does
        built = []
        real = families_mod._bits

        def counted(f, n):
            built.append(str(f))
            return real(f, n)

        monkeypatch.setattr(families_mod, "_bits", counted)
        for n in (4, 12, 24):
            built.clear()
            tags = [str(f) for f, _, _ in family_words(n)]
            assert built == tags, n

    def test_central_unit_vector_bound(self):
        for n in range(9, 25):
            for k in range(4, (n - 1) // 2 + 1):
                w = triangle_weight(family_seq(FamilyName("e", k), n))
                if n % 2 == 0:
                    assert w > 2 * n - 3, (n, k)
                else:
                    assert w >= 2 * n - 3, (n, k)


class TestPredictedLevel:
    def test_small_n_ladders_served_verbatim(self):
        p = predicted_level(1, 3)
        assert p.value == 3
        assert {str(m) for m in p.members} == {"111", "100", "001", "010"}
        p = predicted_level("m", 4)
        assert p.value == 7
        assert {str(m) for m in p.members} == {"1101", "1011"}
        p = predicted_level("m-1", 4)
        assert p.value == 6 and len(p.members) == 4

    def test_small_n_levels_are_the_bundled_rows(self):
        # Rows "<n> <level> <weight> <members...>": every level 1..m at n <= 4 (level 0 is
        # the zero word), and level 2 alone at n = 4..8.
        def table(name):
            text = (resources.files("steinhaus") / "fixtures" / name).read_text()
            return [line.split() for line in text.splitlines() if line and line[0] != "#"]

        second = table("second_level_sets.txt")
        assert [(int(r[0]), r[1]) for r in second] == [(n, "2") for n in range(4, 9)]
        for r in second:
            p = predicted_level("2", int(r[0]))
            assert (p.value, {str(x) for x in p.members}) == (int(r[2]), set(r[3:])), r[0]
            assert p.status == "theorem"
        rows = table("small_n_levels.txt")
        for n in range(1, 5):
            ladder = [(0, {"0" * n})] + [(int(r[2]), set(r[3:])) for r in rows if r[0] == str(n)]
            m = len(ladder) - 1
            for token, index in (("1", 1), ("2", 2), ("3", 3), ("m", m), ("m-1", m - 1)):
                if index > m:
                    with pytest.raises(UncoveredLevelError):
                        predicted_level(token, n)
                    continue
                p = predicted_level(token, n)
                assert (p.value, {str(x) for x in p.members}) == ladder[index], (token, n)
                assert p.status == "theorem"
        assert [str(x) for x in predicted_level("m-1", 1).members] == ["0"]
        assert [str(x) for x in predicted_level("m-1", 2).members] == ["00"]

    def test_bundled_table_is_parsed_once(self, monkeypatch):
        families_mod._level_fixture.cache_clear()
        parsed = []
        rows = families_mod._fixture_rows

        def counted(name):
            parsed.append(name)
            return rows(name)

        monkeypatch.setattr(families_mod, "_fixture_rows", counted)
        first = predicted_level("2", 6)
        for n in (5, 6, 7, 8, 6):
            predicted_level("2", n)
        assert parsed == ["second_level_sets.txt"]
        assert predicted_level("2", 6) == first
        table = families_mod._level_fixture("second_level_sets.txt")
        with pytest.raises(TypeError):
            table[(6, "2")] = (0, frozenset())  # shared by every caller, so read-only

    def test_level_weights_are_family_weights(self):
        # Every named family inside a covered level has the level's weight as its closed form.
        for n in range(5, MAX_LEN + 1):
            tagged = [(f, family_seq(f, n)) for f in all_families(n)]
            for token in ("1", "2", "3", "m", "m-1"):
                try:
                    p = predicted_level(token, n)
                except UncoveredLevelError:
                    continue
                members = p.member_set
                inside = [f for f, x in tagged if x in members]
                assert inside, (token, n)
                for f in inside:
                    assert predicted_triangle_weight(f, n) == p.value, (token, n, str(f))

    def test_level_two_at_eight(self):
        p = predicted_level(2, 8)
        assert p.value == 11 and len(p.members) == 6
        assert {str(m) for m in p.members} == {
            "10101010", "01000000", "00000011", "01010101", "11000000", "00000010"}

    def test_level_two_extra_classes(self):
        assert {str(m) for m in predicted_level(2, 5).members} == \
            {"01000", "00010", "01010"}
        six = {str(m) for m in predicted_level(2, 6).members}
        assert {"001000", "000100", "001100"} <= six and len(six) == 9
        seven = {str(m) for m in predicted_level(2, 7).members}
        assert seven == {"0100000", "0101010", "0000010", "0001000"}

    def test_level_three_cases(self):
        p = predicted_level(3, 10)
        assert p.value == 16
        assert {str(m) for m in p.members} == {"0011001100", "0000000100", "0010000000"}
        p = predicted_level(3, 8)
        assert p.value == 13 and len(p.members) == 12
        p = predicted_level(3, 9)
        assert p.value == 13 and len(p.members) == 3
        p = predicted_level(3, 12)
        assert p.value == 21 and len(p.members) == 6

    def test_top_levels(self):
        p = predicted_level("m", 7)
        assert p.value == 19
        assert {str(m) for m in p.members} == {"1101101", "1011011"}
        p = predicted_level("m", 9)
        assert p.value == 30 and len(p.members) == 3
        p = predicted_level("m-1", 7)
        assert (p.value, p.status) == (18, "theorem")
        assert [str(m) for m in p.members] == ["0110110"]
        p = predicted_level("m-1", 13)
        assert (p.value, p.status) == (60, "theorem")

    def test_conjectured_levels(self):
        p = predicted_level("m-1", 11)
        assert (p.value, p.status) == (41, "conjecture") and len(p.members) == 6
        p = predicted_level("m-1", 12)
        assert (p.value, p.status) == (48, "conjecture") and len(p.members) == 9

    @pytest.mark.parametrize("level,n", [
        (3, 5), (3, 6), ("m-1", 5), ("m-1", 6), ("m-1", 8), ("m-1", 9), (2, 2), (3, 2),
    ])
    def test_uncovered(self, level, n):
        with pytest.raises(UncoveredLevelError):
            predicted_level(level, n)

    def test_bad_level_token(self):
        with pytest.raises(ValueError, match="expected 1, 2, 3, m or m-1"):
            predicted_level("m-2", 12)

    def test_members_are_distinct_and_sized(self):
        for level in (1, 2, 3, "m", "m-1"):
            for n in range(1, 30):
                try:
                    p = predicted_level(level, n)
                except UncoveredLevelError:
                    continue
                assert len(set(p.members)) == len(p.members)
                assert all(m.n == n for m in p.members)
                assert p.members  # nonempty

    def test_duplicate_members_rejected(self):
        x = BitSeq.from_string("0110")
        with pytest.raises(ValueError, match="lists a generator twice"):
            families_mod._prediction("m-1", 4, 6, [x, BitSeq.from_string("1001"), x])
