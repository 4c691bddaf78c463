import random

import pytest

from genuskit.intlinalg import row_span_solve
from genuskit.primeset import PrimeSet, is_prime


PRIMES_BELOW_100 = [p for p in range(2, 100) if is_prime(p)]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_prime_set(rng, pool=None, max_size=5):
    pool = pool or PRIMES_BELOW_100
    members = rng.sample(pool, rng.randint(0, max_size))
    if rng.random() < 0.5:
        return PrimeSet.all_except(members)
    return PrimeSet.finite(members)


def random_matrix(rng, rows, cols, lo=-10, hi=10):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def lattice_contains(h, v) -> bool:
    """Is the row v in the lattice whose HNF basis is h?"""
    return row_span_solve(h, v) is not None
