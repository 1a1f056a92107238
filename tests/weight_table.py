"""Triangle weights of every generator from one recurrence, in numpy alone: an
oracle that shares no code with the package (no unit triangle, Lucas row,
symmetry or block table)."""
from functools import cache

import numpy as np


@cache
def weight_table(n):
    """wt_n, the triangle weight of every generator of length n, indexed by
    its packed value x, bit i of x being x_i. Rows 1.. of a triangle are the
    triangle of the derivative x_i ^ x_{i+1}, so
    wt_n[x] = popcount(x) + wt_{n-1}[(x ^ x >> 1) mod 2^(n-1)], and wt_0 = [0]."""
    if not n:
        return np.zeros(1, dtype=np.uint16)
    x = np.arange(1 << n, dtype=np.uint32)
    return np.bitwise_count(x) + weight_table(n - 1)[(x ^ x >> 1) & ((1 << (n - 1)) - 1)]


def weight_histogram(n):
    """How many generators of length n have each weight 0 .. n(n+1)/2."""
    return np.bincount(weight_table(n), minlength=n * (n + 1) // 2 + 1)
