from fractions import Fraction
from math import gcd

import pytest

from charcond import gendec
from charcond.cyclo import CycloNum
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


@pytest.fixture
def half_gendec_entries(monkeypatch):
    """Both d^u methods return entries 1/2: they agree, but not on integers."""
    def halves(table, chi, sec, p):
        num_ibr = sec.centralizer.brauer(p).num_ibr
        return [CycloNum.from_rational(Fraction(1, 2))] * num_ibr
    monkeypatch.setattr(gendec, "gendec_reciprocity", halves)
    monkeypatch.setattr(gendec, "gendec_solve", halves)
