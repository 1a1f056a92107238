"""The six-element symmetry group acting on triangle generators.

``rot_r`` and ``rot_l`` are the 120- and 240-degree rotations of the triangle
(read off the right side top-down, resp. the left side bottom-up), ``invert_i``
the mirror reflection (sequence reversal). ``rot_r`` and ``invert_i`` generate
the group: ``rot_l`` is ``rot_r`` twice. Triangle weight is invariant under
all six compositions, which the enumeration engine exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitseq import BitSeq


def rot_r(x: BitSeq) -> BitSeq:
    """Entry j is the last entry of row j: stream rows, harvest their top bits."""
    if x.n == 0:
        raise ValueError("empty sequence has no rotation")
    bits = x.bits
    out = 0
    m = x.n
    for j in range(x.n):
        out |= (bits >> m - 1 & 1) << j
        m -= 1
        bits = (bits ^ bits >> 1) & (1 << m) - 1
    return BitSeq(x.n, out)


def rot_l(x: BitSeq) -> BitSeq:
    """Entry j is the first entry of row n-1-j; inverse of ``rot_r``, which it applies twice."""
    return rot_r(rot_r(x))


def invert_i(x: BitSeq) -> BitSeq:
    """Reverse the sequence (mirror the triangle)."""
    out = 0
    for j in range(x.n):
        out |= (x.bits >> j & 1) << x.n - 1 - j
    return BitSeq(x.n, out)


@dataclass(frozen=True)
class Orbit:
    """Equivalence class of a generator under the six symmetries.

    ``members`` is sorted in text order, so ``members[0]`` is the canonical
    representative.
    """

    members: tuple[BitSeq, ...]

    @property
    def canonical(self) -> BitSeq:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


def images(x: BitSeq) -> tuple[BitSeq, ...]:
    """x under the five symmetries other than the identity: r(x), l(x), i(x), r(i(x)), l(i(x)),
    read off r = ``rot_r`` and i = ``invert_i``, as l = r∘r, r∘i = i∘l and l∘i = i∘r."""
    r = rot_r(x)
    l = rot_r(r)
    return r, l, invert_i(x), invert_i(l), invert_i(r)


def orbit(x: BitSeq) -> Orbit:
    """The set {x} and its five ``images``, deduplicated."""
    if x.n == 0:
        raise ValueError("empty sequence has no orbit")
    return Orbit(tuple(sorted({x, *images(x)}, key=str)))


def canonical(x: BitSeq) -> BitSeq:
    """Lexicographically least orbit member (comparing the '0'/'1' text)."""
    return orbit(x).canonical
