"""Steinhaus triangles: a sequence together with all its iterated differences.

``triangle_weight`` streams rows with in-place shift-XOR and popcount and never
materializes the triangle; it is the hot loop the enumeration engine relies on.
``row_steps`` runs the same recurrence on arrays of generators, one row of all
of them per step. ``build`` exists for rendering and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitseq import BitSeq


@dataclass(frozen=True)
class Triangle:
    """Rows x, dx, d2x, ... of lengths n, n-1, ..., 1."""

    rows: tuple[BitSeq, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def weight(self) -> int:
        return sum(row.weight for row in self.rows)


def build(x: BitSeq) -> Triangle:
    """Materialize all n rows of the triangle generated by x."""
    if x.n == 0:
        raise ValueError("cannot build a triangle from the empty sequence")
    rows = [x]
    while rows[-1].n > 1:
        rows.append(rows[-1].derivative())
    return Triangle(tuple(rows))


def triangle_weight(x: BitSeq) -> int:
    """Total number of ones across all rows of the triangle generated by x."""
    if x.n == 0:
        raise ValueError("empty sequence generates no triangle")
    bits = x.bits
    m = x.n
    total = 0
    while m:
        total += bits.bit_count()
        m -= 1
        bits = (bits ^ bits >> 1) & (1 << m) - 1
    return total


def row_steps(x, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``triangle_weight``, ``rot_r`` and ``invert_i`` of each packed generator
    in ``x``, of length ``n`` (one length for all, or one each, 1..64), as
    arrays: int64 weights and uint64 images.

    Step r holds row r of every generator, m = n - r long, and adds its ones;
    its last entry, bit m - 1, is entry r of rot_r(x), and x_r is entry
    m - 1 of the reversal. The next row is row ^ row >> 1 less that last
    entry. A finished generator's row is 0, so its steps add nothing, and
    every shift stays at most 63.
    """
    x = np.asarray(x, np.uint64)
    n = np.asarray(n, np.int64)
    if n.size and not 1 <= n.min() <= n.max() <= 64:
        raise ValueError("row steps take lengths 1..64")
    row, one = x.copy(), np.uint64(1)
    weight = np.zeros(x.shape, np.int64)
    rot, rev = np.zeros_like(x), np.zeros_like(x)
    # m - 1 at each step r, one row per step, 0 once a generator is done
    lasts = np.maximum(n - np.arange(1, int(n.max(initial=0)) + 1)[:, None], 0).astype(np.uint64)
    for r, last in enumerate(lasts):
        weight += np.bitwise_count(row)
        top = row >> last & one
        rot |= top << np.uint64(r)
        rev |= (x >> np.uint64(r) & one) << last
        row ^= row >> one
        row ^= top << last
    return weight, rot, rev


def subtriangle_generator(x: BitSeq, j: int, start: int, k: int) -> BitSeq:
    """The k consecutive entries of row j beginning at ``start``.

    That word generates the size-k subtriangle sitting inside the triangle
    of x.
    """
    if not 0 <= j <= x.n - 1:
        raise IndexError(f"row {j} out of range for length {x.n}")
    if k < 1:
        raise IndexError("subtriangle size must be at least 1")
    if start < 0 or start + k > x.n - j:
        raise IndexError(f"entries [{start}, {start + k}) out of range for row {j}")
    row = x.derivative_k(j)
    return BitSeq(k, row.bits >> start & (1 << k) - 1)


def s3(x: BitSeq) -> int:
    """Combined weight of the first three rows."""
    if x.n < 3:
        raise ValueError("first-three-rows weight needs length at least 3")
    d1 = x.derivative()
    d2 = d1.derivative()
    return x.weight + d1.weight + d2.weight


def render(x: BitSeq, zero: str = ".") -> str:
    """ASCII pyramid, one row per line, centered; '1' for ones, ``zero`` for zeros."""
    lines = []
    for i, row in enumerate(build(x).rows):
        cells = " ".join("1" if row.bit(j) else zero for j in range(row.n))
        lines.append(" " * i + cells)
    return "\n".join(lines)
