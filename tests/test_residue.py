"""Reduction maps from cyclotomic integers to finite fields."""

import random
from fractions import Fraction

import pytest

from charcond.blocks import central_character
from charcond.cyclo import CycloNum, p_part
from charcond.residue import ResidueError, build_residue_map, reduce_cyclo


def reference_reduce(m, a):
    """The stepping reduction the held zeta-power table replaced: the image
    of zeta_order(a) as a power of the root image, then one power step and
    one field product per term."""
    N = m.ambient_order
    pa = p_part(N, m.p)
    nprime = N // pa
    zeta_n_image = m.one if nprime == 1 else \
        m.root_image ** pow(pa, -1, nprime)
    base = zeta_n_image ** (N // a.order)
    out = [0] * m.field_degree
    power = m.one
    prev_e = 0
    for e, c in a.int_terms(a.order):
        power = power * base ** (e - prev_e)
        prev_e = e
        out = [x + c * y for x, y in zip(out, power.coords)]
    return m._elem(out)


def corpus_maps(corpus):
    return sorted({(ds.ambient, p) for ds in corpus.values()
                   for p in ds.primes})


class TestFieldShape:
    @pytest.mark.parametrize("N,p,f", [
        (5, 2, 4),    # 2 has order 4 mod 5
        (3, 2, 2),
        (7, 2, 3),
        (4, 3, 2),    # prime-to-3 part is 4; 3 has order 2 mod 4
        (8, 7, 2),
        (12, 5, 2),
        (1, 5, 1),
        (9, 3, 1),    # the prime-to-3 part is trivial
    ])
    def test_residue_degree(self, N, p, f):
        m = build_residue_map(N, p)
        assert m.p == p and m.field_degree == f

    def test_modulus_is_the_minimal_polynomial_of_the_root(self, corpus):
        # x is a root of unity of order n' modulo the modulus g, and its f
        # Frobenius conjugates are distinct, so g, of degree f, is the
        # minimal polynomial of x over F_p and irreducible
        for N, p in corpus_maps(corpus) + [(5, 2), (7, 2), (15, 2), (8, 7)]:
            m = build_residue_map(N, p)
            nprime = N // p_part(N, p)
            x = m.root_image
            assert len(m.modulus) == m.field_degree + 1 and m.modulus[-1] == 1
            assert x ** nprime == m.one
            assert all(x ** (nprime // q) != m.one
                       for q in range(2, nprime + 1)
                       if nprime % q == 0)
            conjugates = {x ** p ** i for i in range(m.field_degree)}
            assert len(conjugates) == m.field_degree, (N, p)

    def test_mixed_fields_are_an_error(self):
        a, b = build_residue_map(5, 2).one, build_residue_map(7, 2).one
        with pytest.raises(ResidueError):
            a + b
        with pytest.raises(ResidueError):
            a * b

    def test_deterministic(self):
        a = build_residue_map(20, 3)
        b = build_residue_map(20, 3)
        assert a.modulus == b.modulus and a.root_image == b.root_image


class TestReduction:
    def test_p_power_roots_collapse_to_one(self):
        m = build_residue_map(12, 2)
        assert reduce_cyclo(m, CycloNum.zeta(4)) == m.one

    def test_root_has_right_order(self):
        m = build_residue_map(12, 2)
        img = reduce_cyclo(m, CycloNum.zeta(3))
        assert img != m.one and img * img != m.one and img * img * img == m.one

    def test_rejects_non_integral(self):
        m = build_residue_map(5, 2)
        with pytest.raises(ResidueError):
            reduce_cyclo(m, CycloNum.from_rational(Fraction(1, 2)))

    def test_ring_homomorphism(self):
        rng = random.Random(11)
        for N, p in [(5, 2), (12, 5), (8, 3), (15, 2), (20, 3)]:
            m = build_residue_map(N, p)
            for _ in range(40):
                a = CycloNum.from_exponents(
                    N, {rng.randrange(N): rng.randint(-5, 5) for _ in range(3)})
                b = CycloNum.from_exponents(
                    N, {rng.randrange(N): rng.randint(-5, 5) for _ in range(3)})
                assert reduce_cyclo(m, a + b) == \
                    reduce_cyclo(m, a) + reduce_cyclo(m, b)
                assert reduce_cyclo(m, a * b) == \
                    reduce_cyclo(m, a) * reduce_cyclo(m, b)

    def test_integers_reduce_mod_p(self):
        m = build_residue_map(7, 3)
        assert reduce_cyclo(m, CycloNum.from_rational(10)) == m.one
        assert not reduce_cyclo(m, CycloNum.from_rational(9))


class TestHeldTable:
    """reduce_cyclo by the held zeta-power table against the stepping
    reduction it replaced."""

    def test_corpus_maps(self, corpus):
        assert len(corpus_maps(corpus)) == 13

    def test_seeded_elements_on_every_corpus_map(self, corpus):
        rng = random.Random(5)
        for N, p in corpus_maps(corpus):
            m = build_residue_map(N, p)
            for _ in range(60):
                order = rng.choice([d for d in range(1, N + 1) if N % d == 0])
                a = CycloNum.from_exponents(order, {
                    rng.randrange(order): rng.randint(-40, 40)
                    for _ in range(rng.randint(1, 4))})
                assert reduce_cyclo(m, a) == reference_reduce(m, a), (N, p, a)

    def test_central_character_keys(self, corpus, group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            m = build_residue_map(ds.ambient, p)
            for chi in range(ds.table.num_classes):
                omega = central_character(ds.table, chi)
                assert [reduce_cyclo(m, v) for v in omega] == \
                    [reference_reduce(m, v) for v in omega], (name, p, chi)
