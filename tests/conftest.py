from math import gcd

import pytest

from charcond.tables import load_corpus, load_manifest


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def manifest():
    return load_manifest()


@pytest.fixture(scope="session")
def group_primes(manifest):
    """All (group name, prime) pairs covered by the shipped corpus."""
    return [(entry["name"], p)
            for entry in manifest["groups"] for p in entry["primes"]]


def _galois_conductor(a):
    """Least d | a.order, d != 2 mod 4, such that a is fixed by every k = 1
    mod d coprime to a.order: the conductor by Galois descent, independent
    of the stored order except as the ambient field."""
    n = a.order
    for d in range(1, n + 1):
        if n % d == 0 and d % 4 != 2 and all(
                a.galois(k) == a for k in range(1, n + 1, d) if gcd(k, n) == 1):
            return d


@pytest.fixture(scope="session")
def galois_conductor():
    return _galois_conductor
