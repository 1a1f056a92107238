"""Named generator families and closed-form predictions for extreme triangle weights.

Seven groups of sequences are constructible by tag: the all-ones class (a),
the period-2 class (b), the period-4 class (c), the period-3 maximizers (z),
the period-3 near-maximizers (u for lengths divisible by 3, v for lengths
congruent to 2 mod 3), and the unit vectors (e). Groups a to v are one table,
``_GROUPS``: each states its least length n, the residue of n mod 3 it
requires (if any), and its members in tag order as packed (head, pattern,
tail) words. Member i at length n is its head, then its periodic pattern
repeated to fill the middle, then its tail; each member keeps its pattern
repeated over ``MAX_LEN`` bits, so a word is built by a mask and shifts. Unit
vector e_k has a single one at position k. For each family, the exact
triangle weight is known in closed form on a stated range of lengths, as are
the bottom of the weight ladder (levels 1-3) and its top (the maximum level
and the one below it): each such level is a union of families and weighs
their closed form. Whether a family is defined at a length, and whether its
formula covers it, is read off those ranges; the errors are built only to be
raised. ``family_words`` lists every family at one length with its packed
word and closed form, for callers that weigh many words at once. Two bundled
tables instead give the whole ladder at n <= 4 (``fixtures/small_n_levels.txt``)
and level 2 at n <= 8 (``fixtures/second_level_sets.txt``).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .bitseq import MAX_LEN, BitSeq


class FamilyRangeError(ValueError):
    """The requested family is not defined at this length."""


class NoClosedFormError(ValueError):
    """No exact weight formula is available for this family/length pair."""


class UncoveredLevelError(ValueError):
    """No closed-form description of this level exists at this length."""


def _member(head: str, pattern: str, tail: str) -> tuple[BitSeq, BitSeq, BitSeq, int]:
    """A member's head, pattern and tail words, packed, and its fill: the
    pattern repeated over MAX_LEN bits by one multiply, by a one at the start
    of each period."""
    head_seq, pattern_seq, tail_seq = map(BitSeq.from_string, (head, pattern, tail))
    starts = sum(1 << j for j in range(0, MAX_LEN, len(pattern)))
    return head_seq, pattern_seq, tail_seq, pattern_seq.bits * starts


# group -> (least n, required n mod 3 or None, members in tag order as
# packed (head, pattern, tail) words with the pattern's fill).
_GROUPS: dict[str, tuple[int, int | None, tuple[tuple[BitSeq, BitSeq, BitSeq, int], ...]]] = {
    g: (least, residue, tuple(_member(*words) for words in members))
    for g, (least, residue, members) in {
        "a": (1, None, (("", "1", ""), ("1", "0", ""), ("", "0", "1"))),
        "b": (2, None, (("", "10", ""), ("01", "0", ""), ("", "0", "11"),
                        ("", "01", ""), ("11", "0", ""), ("", "0", "10"))),
        "c": (3, None, (("", "0011", ""), ("101", "0", ""), ("", "0", "100"),
                        ("", "1100", ""), ("001", "0", ""), ("", "0", "101"))),
        "z": (2, None, (("", "110", ""), ("", "011", ""), ("", "101", ""))),
        "u": (12, 0, (("", "100", ""), ("0", "011", ""), ("", "110", "1"),
                      ("", "001", ""), ("1", "110", ""), ("", "101", "0"),
                      ("", "010", ""), ("0", "101", ""), ("", "011", "0"))),
        "v": (11, 2, (("", "100", ""), ("0", "101", ""), ("", "101", "1"),
                      ("", "010", ""), ("1", "110", ""), ("", "110", "0"))),
    }.items()
}

# the least n of each group's weight formula; c has one at even n only
_FORMULA_LEAST = {"a": 4, "b": 4, "c": 4, "z": 3}


@dataclass(frozen=True)
class FamilyName:
    """A tag like a1, b3, z2, u7 or e13 (group letter plus index)."""

    group: str
    index: int

    def __post_init__(self) -> None:
        if self.group == "e":
            if self.index < 0:
                raise ValueError("unit-vector index must be nonnegative")
        elif self.group in _GROUPS:
            size = len(_GROUPS[self.group][2])
            if not 1 <= self.index <= size:
                raise ValueError(f"family group {self.group!r} has members 1..{size}")
        else:
            raise ValueError(f"unknown family group {self.group!r}")

    @classmethod
    def parse(cls, text: str) -> "FamilyName":
        """Parse a case-insensitive tag such as 'B3' or 'e13'."""
        t = text.strip().lower()
        if len(t) < 2 or not t[1:].isdigit():
            raise ValueError(f"malformed family tag {text!r}")
        return cls(t[0], int(t[1:]))

    def __str__(self) -> str:
        return f"{self.group}{self.index}"


# every tag of each group a to v, in display order, and of the unit vectors
_GROUP_TAGS = {g: tuple(FamilyName(g, i) for i in range(1, len(members) + 1))
               for g, (_, _, members) in _GROUPS.items()}
_UNIT_TAGS = tuple(FamilyName("e", k) for k in range(MAX_LEN))


def _group_range_error(g: str, n: int) -> str | None:
    """Why group ``g`` (a to v) is not defined at length n, or None where it is."""
    least, residue, _ = _GROUPS[g]
    if residue is not None and n % 3 != residue:
        return f"{g} family requires n == {residue} (mod 3)"
    if n < least:
        return f"{g} family requires n >= {least}"
    return None


def _range_error(f: FamilyName, n: int) -> str | None:
    """Why family ``f`` is not defined at length n, or None where it is."""
    if n > MAX_LEN:
        return f"families are defined for n <= {MAX_LEN}"
    if f.group == "e":
        return f"e{f.index} requires n >= {f.index + 1}" if f.index > n - 1 else None
    return _group_range_error(f.group, n)


def _bits(f: FamilyName, n: int) -> int:
    """The packed word of family ``f``, defined at length n: its head, then its
    pattern's fill cut to the middle, then its tail."""
    if f.group == "e":
        return 1 << f.index
    head, _, tail, fill = _GROUPS[f.group][2][f.index - 1]
    middle = n - head.n - tail.n
    return head.bits | (fill & (1 << middle) - 1) << head.n | tail.bits << n - tail.n


def family_seq(f: FamilyName, n: int) -> BitSeq:
    """The defining sequence of family ``f`` at length n."""
    why = _range_error(f, n)
    if why is not None:
        raise FamilyRangeError(why)
    return BitSeq(n, _bits(f, n))


def predicted_triangle_weight(f: FamilyName, n: int) -> int:
    """Closed-form triangle weight of ``family_seq(f, n)`` where one exists."""
    why = _range_error(f, n)
    if why is not None:
        raise FamilyRangeError(why)
    w = _closed_form(f, n)
    if w is None:
        raise _no_closed_form(f, n)
    return w


def _closed_form(f: FamilyName, n: int) -> int | None:
    """``predicted_triangle_weight`` of a family known to be defined at length
    n, or None outside its formula's stated range."""
    g, i = f.group, f.index
    if g == "e":  # reduced by the mirror symmetry e_{n-1-k} <-> e_k
        k = min(i, n - 1 - i)
        if k == 0:
            return n
        if k == 1:
            return (3 * n - 2) // 2
        if k == 2:
            return 2 * n - 4 if n % 4 == 2 else 2 * n - 3
        if k == 3:
            return (9 * n - 27) // 4 if n % 4 == 3 else (9 * n - 20) // 4
        return None
    if n < _FORMULA_LEAST.get(g, 0):
        return None
    if g == "a":
        return n
    if g == "b":
        if n % 2 == 0:
            return (3 * n - 2) // 2
        return (3 * n - 1) // 2 if i in (1, 3, 5) else (3 * n - 3) // 2
    if g == "c":
        if n % 2:
            return None
        if n % 4 == 0:
            return 2 * n - 3
        return 2 * n - 4 if i in (1, 3, 5) else 2 * n - 2
    if g == "z":
        if n % 3 != 1:
            return n * (n + 1) // 3
        base = (n - 1) * (n + 2) // 3
        return base + 1 if i in (1, 3) else base
    return -(-n * n // 3)  # u and v


def _no_closed_form(f: FamilyName, n: int) -> ValueError:
    """The error saying why ``_closed_form(f, n)`` is None."""
    g = f.group
    if g == "e":
        return NoClosedFormError(
            f"no exact formula for e{f.index} at n={n}; only the lower bound 2n-3 is known")
    if n < _FORMULA_LEAST[g]:
        return FamilyRangeError(f"{g}-family weight formula requires n >= {_FORMULA_LEAST[g]}")
    return NoClosedFormError("c-family weights have closed forms for even n only")


def all_families(n: int) -> list[FamilyName]:
    """Every family tag constructible at length n, in stable display order."""
    if not 0 < n <= MAX_LEN:
        return []
    return [f for g, tags in _GROUP_TAGS.items() if _group_range_error(g, n) is None
            for f in tags] + list(_UNIT_TAGS[:n])


def family_words(n: int) -> list[tuple[FamilyName, int, int | None]]:
    """Every family at length n, in stable display order, with its packed word
    and its closed-form weight, or None where no closed form exists."""
    return [(f, _bits(f, n), _closed_form(f, n)) for f in all_families(n)]


@functools.cache
def _fixture_rows(name: str) -> tuple[tuple[str, ...], ...]:
    """Rows of a bundled table under ``fixtures/``, split on whitespace."""
    from importlib import resources

    text = (resources.files(__package__) / "fixtures" / name).read_text()
    lines = (line.strip() for line in text.splitlines())
    return tuple(tuple(line.split()) for line in lines
                 if line and not line.startswith("#"))


@functools.cache
def _level_fixture(name: str) -> Mapping[tuple[int, str], tuple[int, frozenset[BitSeq]]]:
    """A table of ``<n> <level> <weight> <members...>`` rows, keyed by (n, level),
    parsed once per file and read-only, since every caller shares it."""
    out = {}
    for row in _fixture_rows(name):
        n, level, w = int(row[0]), row[1], int(row[2])
        out[(n, level)] = (w, frozenset(BitSeq.from_string(s) for s in row[3:]))
    return MappingProxyType(out)


def conjectured(n: int) -> bool:
    """Whether level m-1 at length n is conjectured rather than proven."""
    return n >= 11 and n % 3 != 1


# Extra third-level class at n = 8 beyond the c sequences.
_LEVEL3_EXTRA_8 = ["11110000", "00001000", "00010001", "00001111", "10001000", "00010000"]


@dataclass(frozen=True)
class LevelPrediction:
    """Predicted weight and full generator set for one ladder level."""

    level: str
    n: int
    value: int
    members: tuple[BitSeq, ...]
    status: str  # "theorem" or "conjecture"

    @property
    def member_set(self) -> frozenset[BitSeq]:
        return frozenset(self.members)


def normalize_level(level) -> str:
    """Canonical token for a ladder level: '1', '2', '3', 'm' or 'm-1'."""
    token = str(level).strip().lower()
    if token in ("1", "2", "3", "m", "m-1"):
        return token
    raise ValueError(f"unknown level {level!r}; expected 1, 2, 3, m or m-1")


def _prediction(level: str, n: int, value: int, seqs, status: str = "theorem") -> LevelPrediction:
    members = tuple(sorted(seqs, key=str))
    if len(set(members)) != len(members):
        raise ValueError(f"predicted level {level} at n={n} lists a generator twice")
    return LevelPrediction(level, n, value, members, status)


def _family_prediction(level: str, n: int, group: str, indices, extra=(),
                       status: str = "theorem") -> LevelPrediction:
    """Members ``indices`` of ``group`` plus ``extra`` words, weighed by the first's
    closed form (whose range check is the group's)."""
    tags = [_GROUP_TAGS[group][i - 1] for i in indices]
    value = predicted_triangle_weight(tags[0], n)
    seqs = [BitSeq(n, _bits(f, n)) for f in tags] + [BitSeq.from_string(s) for s in extra]
    return _prediction(level, n, value, seqs, status)


def _bundled_prediction(level: str, n: int) -> LevelPrediction:
    """A bundled table's level: any at n <= 4 (level 0 is the zero word), level 2 at n <= 8."""
    if n > 4:
        return _prediction(level, n, *_level_fixture("second_level_sets.txt")[(n, level)])
    ladder = _level_fixture("small_n_levels.txt")
    top = sum(nn == n for nn, _ in ladder)
    idx = int(level) if level.isdigit() else {"m": top, "m-1": top - 1}[level]
    if idx > top:
        raise UncoveredLevelError(f"n={n} has levels 0..{top} only")
    w, seqs = ladder[(n, str(idx))] if idx else (0, [BitSeq.zeros(n)])
    return _prediction(level, n, w, seqs)


def predicted_level(level, n: int) -> LevelPrediction:
    """Weight and member set for a ladder level, where covered.

    Levels 1-3 count from the bottom of the ladder; "m" is the maximum level
    and "m-1" the one below it. The ladder at n <= 4 and level 2 at n <= 8
    are bundled tables; any other level is a union of named families (plus
    six words at n = 8, level 3) and weighs their closed form. Raises
    UncoveredLevelError outside the ranges where an exact description is known.
    """
    token = normalize_level(level)
    if n < 1:
        raise ValueError("length must be positive")
    if n <= 4 or (token == "2" and n <= 8):
        return _bundled_prediction(token, n)
    if token == "1":
        return _family_prediction(token, n, "a", (1, 2, 3))
    if token == "2":
        return _family_prediction(token, n, "b", (2, 4, 6) if n % 2 else range(1, 7))

    if token == "3":
        if n % 2 == 1:
            if n < 7:
                raise UncoveredLevelError("level 3 for odd lengths is described only for n >= 7")
            return _family_prediction(token, n, "b", (1, 3, 5))
        if n < 10 and n != 8:
            raise UncoveredLevelError(
                "level 3 for even lengths is described only for n = 8 and n >= 10"
            )
        return _family_prediction(token, n, "c", (1, 3, 5) if n % 4 else range(1, 7),
                                  _LEVEL3_EXTRA_8 if n == 8 else ())

    if token == "m":
        return _family_prediction(token, n, "z", (1, 3) if n % 3 == 1 else (1, 2, 3))

    # token == "m-1"; n == 1 (mod 3) means n >= 7 here
    if n % 3 == 1:
        return _family_prediction(token, n, "z", (2,))
    if not conjectured(n):
        raise UncoveredLevelError("level m-1 for n == 0,2 (mod 3) is conjectured only for n >= 11")
    group = "u" if n % 3 == 0 else "v"
    return _family_prediction(token, n, group, range(1, len(_GROUPS[group][2]) + 1),
                              status="conjecture")
