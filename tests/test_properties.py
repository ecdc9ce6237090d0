"""Seeded bulk property checks on the arithmetic core: 10,000 random
instances across canonical forms, conductors, Galois action and residue
reduction."""

import random
from fractions import Fraction
from math import gcd

from conftest import residue_add, residue_mul

from charcond.cyclo import (CycloNum, conductor, cyclo_to_str, parse_cyclo)
from charcond.residue import build_residue_map, reduce_cyclo

ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16)


def random_cyclo(rng, n, integral=False):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        num = rng.randint(-6, 6)
        den = 1 if integral else rng.randint(1, 4)
        coeffs[rng.randrange(n)] = Fraction(num, den)
    return CycloNum.from_exponents(n, coeffs)


def test_bulk_properties(galois_conductor):
    rng = random.Random(2024)
    checks = 0
    while checks < 10_000:
        n = rng.choice(ORDERS)
        a = random_cyclo(rng, n)
        b = random_cyclo(rng, rng.choice(ORDERS))

        # canonical form round-trips through the string representation
        assert parse_cyclo(cyclo_to_str(a)) == a
        checks += 1

        # canonical order is the conductor and never 2 mod 4
        c = conductor([a])
        assert galois_conductor(a) == a.order == c and c % 4 != 2
        checks += 1

        # conductor is Galois-invariant
        if a.order > 1:
            k = rng.choice([k for k in range(1, a.order)
                            if gcd(k, a.order) == 1])
            assert conductor([a.galois(k)]) == c
            checks += 1

        # ring laws against an independently built sum/product
        assert a + b == b + a
        assert a * b == b * a
        assert a * (a + b) == a * a + a * b
        checks += 3

        # residue reduction is a ring homomorphism on integral elements
        p = rng.choice((2, 3, 5))
        x = random_cyclo(rng, n, integral=True)
        y = random_cyclo(rng, n, integral=True)
        m = build_residue_map(n, p)
        rx, ry = reduce_cyclo(m, x), reduce_cyclo(m, y)
        assert reduce_cyclo(m, x + y) == residue_add(m, rx, ry)
        assert reduce_cyclo(m, x * y) == residue_mul(m, rx, ry)
        checks += 2

    assert checks >= 10_000
