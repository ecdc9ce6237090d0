"""Reduction of cyclotomic integers modulo the radical of p, against the
fixed-prime-ideal map it replaced, and the blocks read off it."""

import io
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd

import pytest

from conftest import all_datasets, residue_add, residue_mul

from charcond import tables
from charcond.blocks import central_character, partition_blocks
from charcond.cli import EXIT_OK, run
from charcond.cyclo import (ONE, CycloError, CycloNum, cyclotomic_poly,
                            euler_phi, hermitian_int, int_rows, p_part,
                            prime_factors)
from charcond.residue import ResidueError, build_residue_map, reduce_cyclo


class FixedIdealMap:
    """The reduction the radical map replaced: Z[zeta_N] -> F_{p^f} =
    F_p[x]/(g), one prime ideal above p, with g the least monic divisor of
    degree f = ord_{n'}(p) of Phi_{n'} mod p, its coefficients read as
    base-p digits, low first.  `zeta_powers[e]`, the image of zeta_N^e, is
    built by field products."""

    def __init__(self, N, p):
        pa = p_part(N, p)
        nprime = N // pa
        self.N, self.p = N, p
        f = next(f for f in count(1) if (p ** f - 1) % nprime == 0)
        self.field_degree = f
        phi = cyclotomic_poly(nprime)
        self.modulus = next(
            g for g in ([code // p ** i % p for i in range(f)] + [1]
                        for code in range(p ** f))
            if not any(self._rem(phi, g)))
        self.one = self.project([1])
        self.root_image = self.project([0, 1])      # the image of zeta_n'
        step = self.power(self.root_image, pow(pa, -1, nprime))
        self.zeta_powers = [self.one]
        for _ in range(N - 1):
            self.zeta_powers.append(self.mul(self.zeta_powers[-1], step))

    def _rem(self, a, g):
        """a mod p and the monic g, as a list of len(g) - 1 coefficients."""
        p, d = self.p, len(g) - 1
        a = [c % p for c in a]
        for i in range(len(a) - 1, d - 1, -1):
            c = a[i]
            for j, gj in enumerate(g):
                a[i - d + j] = (a[i - d + j] - c * gj) % p
        return (a + [0] * d)[:d]

    def project(self, coeffs):
        """A polynomial in x over Z, as an element of F_p[x]/(g)."""
        return tuple(self._rem(list(coeffs), self.modulus))

    def mul(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return self.project(out)

    def power(self, a, e):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def reduce(self, a):
        out = [0] * self.field_degree
        for e, c in a.int_terms(self.N):
            out = [x + c * y for x, y in zip(out, self.zeta_powers[e])]
        return self.project(out)


fixed_ideal_map = lru_cache(maxsize=None)(FixedIdealMap)


def corpus_maps(corpus):
    return sorted({(ds.ambient, p) for ds in corpus.values()
                   for p in ds.primes})


def corpus_pairs(corpus):
    """(dataset, p) for every dataset the corpus loads, section centralizers
    and subgroups included."""
    return [(ds, p) for ds in all_datasets(corpus) for p in ds.primes]


def fixed_ideal_partition(ds, p):
    m = fixed_ideal_map(ds.ambient, p)
    keys = {}
    for chi in range(ds.table.num_classes):
        key = tuple(m.reduce(v) for v in central_character(ds.table, chi))
        keys.setdefault(key, []).append(chi)
    return sorted(keys.values())


def osima_partition(ds, p):
    """The linkage classes of the nonzero entries of sum_s |s^G| chi(s)
    conj(psi(s)) over the p-regular classes s (Osima), which name no prime
    ideal: the p-regular form over all of Irr(G), as integer vectors."""
    table, k = ds.table, ds.table.num_classes
    regular = [c for c, cls in enumerate(table.classes)
               if cls.element_order % p]
    n, rows = int_rows([[row[c] for c in regular]
                        for row in table.irreducibles])
    gram = [[any(vec) for vec in row] for row in hermitian_int(
        n, [table.classes[c].size for c in regular], rows, rows)]
    parts, seen = [], set()
    for start in range(k):
        if start in seen:
            continue
        seen.add(start)
        part, stack = [], [start]
        while stack:
            i = stack.pop()
            part.append(i)
            linked = [j for j in range(k) if gram[i][j] and j not in seen]
            seen.update(linked)
            stack += linked
        parts.append(sorted(part))
    return sorted(parts)


def computed_partition(ds, p):
    return sorted(sorted(b.irr_indices) for b in partition_blocks(ds, p))


def random_integer(rng, order):
    return CycloNum.from_exponents(order, {
        rng.randrange(order): rng.randint(-40, 40)
        for _ in range(rng.randint(1, 4))})


class TestFieldShape:
    """The fixed-ideal reference is a residue field of the radical
    quotient F_p[x]/(Phi_n'), which splits into phi(n')/f fields of
    degree f."""

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
        assert m.p == p and fixed_ideal_map(N, p).field_degree == f
        width = len(reduce_cyclo(m, ONE))
        assert width == euler_phi(m.nprime) and width % f == 0

    def test_modulus_is_the_minimal_polynomial_of_the_root(self, corpus):
        # x is a root of unity of order n' modulo the modulus g, and its f
        # Frobenius conjugates are distinct, so g, of degree f, is the
        # minimal polynomial of x over F_p and irreducible
        for N, p in corpus_maps(corpus) + [(5, 2), (7, 2), (15, 2), (8, 7)]:
            m = fixed_ideal_map(N, p)
            nprime = N // p_part(N, p)
            x = m.root_image
            assert len(m.modulus) == m.field_degree + 1 and m.modulus[-1] == 1
            assert m.power(x, nprime) == m.one
            assert all(m.power(x, nprime // q) != m.one
                       for q in range(2, nprime + 1)
                       if nprime % q == 0)
            conjugates = {m.power(x, p ** i) for i in range(m.field_degree)}
            assert len(conjugates) == m.field_degree, (N, p)

    def test_deterministic(self):
        # 45 = 3^2 * 5: zeta_45 -> x^4, since 4 = 9^-1 mod 5
        assert build_residue_map(45, 3) == build_residue_map(45, 3) == \
            (45, 3, 5, 4)
        assert FixedIdealMap(20, 3).modulus == FixedIdealMap(20, 3).modulus


class TestReduction:
    def test_p_power_roots_collapse_to_one(self):
        m = build_residue_map(12, 2)
        assert reduce_cyclo(m, CycloNum.zeta(4)) == reduce_cyclo(m, ONE) \
            == (1, 0)

    def test_root_has_right_order(self):
        m = build_residue_map(12, 2)
        one, img = (reduce_cyclo(m, x) for x in (ONE, CycloNum.zeta(3)))
        square = residue_mul(m, img, img)
        assert img != one and square != one
        assert residue_mul(m, square, img) == one

    def test_rejects_non_integral(self):
        m = build_residue_map(5, 2)
        with pytest.raises(ResidueError):
            reduce_cyclo(m, CycloNum.from_rational(Fraction(1, 2)))

    def test_rejects_orders_outside_the_ambient_field(self):
        with pytest.raises(CycloError):
            reduce_cyclo(build_residue_map(12, 2), CycloNum.zeta(5))

    def test_ring_homomorphism(self):
        rng = random.Random(11)
        for N, p in [(5, 2), (12, 5), (8, 3), (15, 2), (20, 3)]:
            m = build_residue_map(N, p)
            for _ in range(40):
                a = CycloNum.from_exponents(
                    N, {rng.randrange(N): rng.randint(-5, 5) for _ in range(3)})
                b = CycloNum.from_exponents(
                    N, {rng.randrange(N): rng.randint(-5, 5) for _ in range(3)})
                ra, rb = reduce_cyclo(m, a), reduce_cyclo(m, b)
                assert reduce_cyclo(m, a + b) == residue_add(m, ra, rb)
                assert reduce_cyclo(m, a * b) == residue_mul(m, ra, rb)

    def test_integers_reduce_mod_p(self):
        m = build_residue_map(7, 3)
        assert reduce_cyclo(m, CycloNum.from_rational(10)) == (1, 0, 0, 0, 0, 0)
        assert not any(reduce_cyclo(m, CycloNum.from_rational(9)))

    def test_p_power_ambient_reduces_to_the_prime_field(self):
        # n' = 1: every root of unity of order 8 goes to 1 mod 2
        m = build_residue_map(8, 2)
        assert reduce_cyclo(m, CycloNum.zeta(8, 3) + 2) == (1,)
        assert reduce_cyclo(m, CycloNum.zeta(8) + 1) == (0,)


class TestHeldTable:
    """The fixed-ideal reference, with its held table of zeta-power images,
    factors through the radical map: its image of a is the radical image of
    a read modulo g.  So equal images here are equal images there."""

    def test_corpus_maps(self, corpus):
        assert len(corpus_maps(corpus)) == 13

    def test_seeded_elements_on_every_corpus_map(self, corpus):
        rng = random.Random(5)
        for N, p in corpus_maps(corpus) + [(15, 2), (21, 2), (45, 3)]:
            m, ref = build_residue_map(N, p), fixed_ideal_map(N, p)
            pa = p_part(N, p)
            # p and 1 - zeta_{p^a} lie in every prime above p
            radical = [CycloNum.from_rational(p), 1 - CycloNum.zeta(pa)]
            for _ in range(60):
                order = rng.choice([d for d in range(1, N + 1) if N % d == 0])
                a = random_integer(rng, order)
                assert ref.reduce(a) == ref.project(reduce_cyclo(m, a)), \
                    (N, p, a)
                b = a + rng.choice(radical) * random_integer(rng, N)
                assert reduce_cyclo(m, a) == reduce_cyclo(m, b), (N, p, a, b)
                assert ref.reduce(a) == ref.reduce(b), (N, p, a, b)

    def test_central_character_keys(self, corpus, group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            m, ref = build_residue_map(ds.ambient, p), \
                fixed_ideal_map(ds.ambient, p)
            for chi in range(ds.table.num_classes):
                omega = central_character(ds.table, chi)
                assert [ref.project(reduce_cyclo(m, v)) for v in omega] == \
                    [ref.reduce(v) for v in omega], (name, p, chi)


class TestBlocks:
    """The partition modulo the radical on every (dataset, p) the corpus
    loads."""

    def test_corpus_pairs(self, corpus):
        assert len(corpus_pairs(corpus)) == 74

    def test_equals_the_fixed_ideal_partition(self, corpus):
        for ds, p in corpus_pairs(corpus):
            assert computed_partition(ds, p) == fixed_ideal_partition(ds, p), \
                (ds.name, p)

    def test_equals_the_osima_components(self, corpus):
        for ds, p in corpus_pairs(corpus):
            assert computed_partition(ds, p) == osima_partition(ds, p), \
                (ds.name, p)


def cyclic_dataset(n, p):
    """The dataset of C_n = <g> at a prime p not dividing n: chi_j(g^k) =
    E(n)^(jk), one block of defect 0 per character, and one section, u = 1,
    whose centralizer is C_n again."""
    classes = [{"name": f"c{k}", "size": 1, "order": n // gcd(n, k),
                "powermaps": {str(q): q * k % n for q in prime_factors(n)}}
               for k in range(n)]
    values = [[f"E({n})^{j * k % n}" if j * k % n else "1" for k in range(n)]
              for j in range(n)]
    labels = [f"B{j}" for j in range(n)]
    brauer = {"regular_classes": list(range(n)), "ibr": values,
              "decomposition": [[int(i == j) for j in range(n)]
                                for i in range(n)],
              "block_of_irr": labels, "block_of_ibr": labels}
    table = {"order": n, "exponent": n, "classes": classes,
             "irreducibles": values}
    section = {"u_class": 0,
               "centralizer": {"name": f"C_C{n}(c0)", **table,
                               "primes": {str(p): brauer}},
               "fusion": list(range(n)), "u_in_centralizer": 0,
               "u_times": list(range(n)),
               "correspondent_block": dict(zip(labels, labels))}
    return {"format": 1, "ambient": n, "name": f"C{n}", **table,
            "primes": {str(p): {**brauer, "sections": [section]}}}


def write_corpus(directory, name, data):
    directory.mkdir()
    (directory / f"{name}.json").write_text(json.dumps(data))
    (directory / "manifest.json").write_text(json.dumps(
        {"format": 1, "groups": [{"file": f"{name}.json"}]}))
    return str(directory)


def timed_run(*argv):
    start = time.perf_counter()
    code = run(list(argv), out=io.StringIO())
    return code, time.perf_counter() - start


class TestReproducers:
    """Residue fields of large degree or size: the fixed-ideal map searched
    up to p^f polynomials, 2^28 for C29 at p = 2 and about 10^18 for S3 at
    p = 10^9 + 7.  The radical map has no search."""

    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_c29_at_2(self, tmp_path, command):
        corpus = write_corpus(tmp_path / "data", "C29", cyclic_dataset(29, 2))
        code, seconds = timed_run(command, "--corpus", corpus)
        assert code == EXIT_OK and seconds < 1

    def test_s3_at_a_large_prime(self, tmp_path):
        data = json.loads((tables.default_corpus_dir() / "S3.json").read_text())
        big = "1000000007"
        for holder in [data] + [sec["centralizer"]
                                for sec in data["primes"]["5"]["sections"]]:
            holder["primes"][big] = holder["primes"].pop("5")
        corpus = write_corpus(tmp_path / "data", "S3", data)
        code, seconds = timed_run("validate", "--corpus", corpus)
        assert code == EXIT_OK and seconds < 1
        ds = tables.load_dataset(f"{corpus}/S3.json")
        assert [sorted(b.irr_indices) for b in ds.blocks(int(big))] == \
            [[0], [1], [2]]
