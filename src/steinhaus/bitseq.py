"""Packed binary sequences and the adjacent-XOR difference calculus on them.

A sequence x = x_0 x_1 ... x_{n-1} over GF(2) is stored in a single int with
bit j = x_j (LSB first), so taking the difference sequence is one shift-XOR.
All operations are pure; ``BitSeq`` values are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_LEN = 128


@dataclass(frozen=True, slots=True)
class BitSeq:
    """A length-n binary sequence, bit j of ``bits`` holding entry x_j."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_LEN:
            raise ValueError(f"length must be in [0, {MAX_LEN}], got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits set outside the sequence length")

    @classmethod
    def from_string(cls, text: str) -> "BitSeq":
        """Parse '0'/'1' text; the leftmost character is x_0."""
        if len(text) > MAX_LEN:
            raise ValueError(f"sequence text longer than {MAX_LEN}")
        # checked first: int() also takes '_', '+', surrounding whitespace and
        # non-ASCII digits; the first character left is the first bad one
        rest = text.lstrip("01")
        if rest:
            raise ValueError(f"invalid character {rest[0]!r} in sequence text")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    @classmethod
    def from_pattern(cls, pattern: str, n: int) -> "BitSeq":
        """First n entries of the infinite repetition of ``pattern``."""
        if not pattern:
            raise ValueError("pattern must be nonempty")
        if n < 0:
            raise ValueError("length must be nonnegative")
        reps = -(-n // len(pattern)) if n else 0
        return cls.from_string((pattern * reps)[:n])

    @classmethod
    def zeros(cls, n: int) -> "BitSeq":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitSeq":
        return cls(n, (1 << n) - 1)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def __repr__(self) -> str:
        return f"BitSeq({str(self)!r})"

    def __len__(self) -> int:
        return self.n

    def bit(self, j: int) -> int:
        """Entry x_j as 0 or 1."""
        if not 0 <= j < self.n:
            raise IndexError(f"bit index {j} out of range for length {self.n}")
        return self.bits >> j & 1

    @property
    def weight(self) -> int:
        """Number of ones."""
        return self.bits.bit_count()

    def concat(self, other: "BitSeq") -> "BitSeq":
        """Entries of self followed by entries of other."""
        if self.n + other.n > MAX_LEN:
            raise ValueError(f"concatenation exceeds maximum length {MAX_LEN}")
        return BitSeq(self.n + other.n, self.bits | other.bits << self.n)

    def __xor__(self, other: "BitSeq") -> "BitSeq":
        if self.n != other.n:
            raise ValueError("XOR requires equal lengths")
        return BitSeq(self.n, self.bits ^ other.bits)

    def derivative(self) -> "BitSeq":
        """The sequence of XORs of adjacent entries; length drops by one."""
        if self.n == 0:
            raise ValueError("empty sequence has no derivative")
        m = self.n - 1
        return BitSeq(m, (self.bits ^ self.bits >> 1) & (1 << m) - 1)

    def derivative_k(self, k: int) -> "BitSeq":
        """k-fold derivative; k = 0 is the identity, k = n gives the empty sequence."""
        if not 0 <= k <= self.n:
            raise ValueError(f"derivative order {k} out of range for length {self.n}")
        bits, m = self.bits, self.n
        for _ in range(k):
            m -= 1
            bits = (bits ^ bits >> 1) & (1 << m) - 1
        return BitSeq(m, bits)

    def primitives(self) -> tuple["BitSeq", "BitSeq"]:
        """The two length-(n+1) sequences whose derivative is this one.

        The first starts with 0 (it is the prefix-XOR sequence); the second is
        its complement. They differ in every position.
        """
        m = self.n + 1
        if m > MAX_LEN:
            raise ValueError(f"primitive would exceed maximum length {MAX_LEN}")
        acc = 0
        low = 0
        for j in range(self.n):
            acc ^= self.bits >> j & 1
            low |= acc << (j + 1)
        return BitSeq(m, low), BitSeq(m, low ^ (1 << m) - 1)


def row_entry(x: BitSeq, j: int, l: int) -> int:
    """Entry l of the j-th difference row, via the mod-2 binomial expansion.

    By Lucas' theorem C(j, k) is odd exactly when k's bits are a subset of
    j's bits, so the entry is the XOR of x_{k+l} over those k. Kept as an
    independent cross-check of ``derivative_k``.
    """
    if not 0 <= j <= x.n - 1:
        raise IndexError(f"row {j} out of range for length {x.n}")
    if not 0 <= l <= x.n - 1 - j:
        raise IndexError(f"entry {l} out of range for row {j}")
    acc = 0
    sub = j
    while True:
        acc ^= x.bits >> (sub + l) & 1
        if sub == 0:
            return acc
        sub = (sub - 1) & j
