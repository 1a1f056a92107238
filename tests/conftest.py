import random

import pytest

from steinhaus import BitSeq


def all_seqs(n):
    """Every sequence of length n, ascending packed order."""
    return (BitSeq(n, v) for v in range(1 << n))


@pytest.fixture
def rng():
    return random.Random(20240611)


def random_seq(rng, n):
    return BitSeq(n, rng.getrandbits(n) if n else 0)


def rejection(call):
    """The exact type and message of the ValueError that ``call()`` raises."""
    with pytest.raises(ValueError) as info:
        call()
    return info.type, str(info.value)
