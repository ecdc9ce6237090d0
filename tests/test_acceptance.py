"""Acceptance gate: ten criteria, each printing one pass/fail line.

Every check is exact; no numeric tolerances anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from conftest import residue_add, residue_mul, section_row

from charcond import isometry as iso
from charcond import verify
from charcond.blocks import nu_p, partition_blocks
from charcond.cyclo import (ZERO, CycloNum, conductor, cyclo_to_str,
                            parse_cyclo)
from charcond.gendec import check_second_main, section_values
from charcond.residue import build_residue_map, reduce_cyclo


@contextmanager
def criterion(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {number:2d}: FAIL - {title}")
        raise
    with capsys.disabled():
        print(f"CRITERION {number:2d}: PASS - {title}")


def test_criterion_01_conductor_identity(corpus, group_primes, capsys):
    with criterion(capsys, 1, "conductor identity on all irreducibles and "
                              "200 random virtual characters per block"):
        for name, p in group_primes:
            rep = verify.theorem1_suite(corpus[name], p, samples=200, seed=0)
            assert rep.passed, (name, p)


def test_criterion_02_conductor_maximum(corpus, group_primes, capsys):
    with criterion(capsys, 2, "conductor equals the max single-entry "
                              "conductor, with witness"):
        for name, p in group_primes:
            rep = verify.cor05_suite(corpus[name], p)
            assert rep.passed, (name, p)
            assert all(r.witness is not None for r in rep.records)


def test_criterion_03_method_equivalence(corpus, group_primes, capsys,
                                        reference_gendec):
    with criterion(capsys, 3, "d^u on integers equal reciprocity and linear "
                              "solve; ordinary section reproduces the "
                              "decomposition matrix"):
        for name, p in group_primes:
            ds = corpus[name]
            gm = ds.gendec(p)
            rec, sol = reference_gendec[(name, p)]
            assert gm.entries == rec == sol, (name, p)
            ident = ds.table.identity_class
            for chi in range(ds.table.num_classes):
                want = [CycloNum.from_rational(e) for e in
                        ds.brauer(p).decomposition[chi]]
                assert section_row(gm, chi, ident) == want


def test_criterion_04_round_trip(corpus, group_primes, capsys):
    with criterion(capsys, 4, "sum d^u * phi(s) reproduces every chi(us)"):
        for name, p in group_primes:
            ds = corpus[name]
            gm = ds.gendec(p)
            for sec in ds.sections(p):
                bd = sec.centralizer.brauer(p)
                for chi in range(ds.table.num_classes):
                    d_row = section_row(gm, chi, sec.u_class)
                    want = section_values(ds.table, chi, sec, p)
                    for k in range(len(bd.regular_classes)):
                        got = sum((d_row[j] * bd.ibr[j][k]
                                   for j in range(len(bd.ibr))), start=ZERO)
                        assert got == want[k]


def test_criterion_05_second_main_vanishing(corpus, group_primes, capsys):
    with criterion(capsys, 5, "zero block/defect vanishing violations"):
        for name, p in group_primes:
            assert check_second_main(corpus[name], p) == []
        # named spot checks
        s3, gm = corpus["S3"], corpus["S3"].gendec(2)
        sec = next(s for s in s3.sections(2)
                   if s3.table.classes[s.u_class].element_order == 2)
        assert all(not v for v in section_row(gm, 2, sec.u_class))
        a5, gm = corpus["A5"], corpus["A5"].gendec(5)
        for sec in a5.sections(5):
            if a5.table.classes[sec.u_class].element_order == 5:
                assert all(not v for v in section_row(gm, 4, sec.u_class))


def test_criterion_06_block_partition(corpus, group_primes, capsys):
    with criterion(capsys, 6, "central-character partition matches ingested "
                              "block labels"):
        for name, p in group_primes:
            ds = corpus[name]
            blocks = partition_blocks(ds, p)
            computed = {}
            for b in blocks:
                for i in b.irr_indices:
                    computed[i] = b.id
            want = ds.brauer(p).block_of_irr
            assert [computed[i] for i in sorted(computed)] == list(want)
        assert len(partition_blocks(corpus["S3"], 3)) == 1
        assert len(partition_blocks(corpus["S3"], 2)) == 2
        a5 = partition_blocks(corpus["A5"], 5)
        principal = next(b for b in a5 if 0 in b.irr_indices)
        assert len(principal.irr_indices) == 4 and principal.defect == 1
        assert len(a5) == 2 and min(b.defect for b in a5) == 0


def test_criterion_07_projective_invariance(corpus, group_primes, capsys):
    with criterion(capsys, 7, "projective shifts change neither non-ordinary "
                              "rows nor conductors"):
        for name, p in group_primes:
            rep = verify.projective_invariance_suite(corpus[name], p)
            assert rep.passed, (name, p)


def test_criterion_08_perfect_isometry(corpus, capsys):
    with criterion(capsys, 8, "A5/D10 principal 5-block search: nonempty, "
                              "fully checked, under 5 seconds"):
        src = iso.block_ref(corpus["A5"], 5, "B0")
        tgt = iso.block_ref(corpus["D10"], 5, "B0")
        start = time.monotonic()
        found = iso.search_perfect_isometries(src, tgt)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"search took {elapsed:.2f}s"
        assert found
        for cand in found:
            assert iso.check_isometry(cand)
            assert iso.check_perfection(cand).perfect
            ok, _ = iso.check_conductor_preservation(cand)
            assert ok
            assert iso.check_l0_preservation(cand)


def test_criterion_09_restriction_suite(corpus, capsys):
    with criterion(capsys, 9, "A5 to D10 restriction: triple conductor "
                              "equality, values 1,5,5,1"):
        rep = verify.check_restriction_props(corpus["A5"], 5)
        assert not rep.not_applicable and rep.passed
        ti = {r.character: r for r in rep.records
              if r.check == "restriction-ti"}
        degrees = [1, 3, 3, 4]
        values = [ti[f"chi{i}"].lhs for i in range(4)]
        assert values == [1, 5, 5, 1]
        for i, d in enumerate(degrees):
            table = corpus["A5"].table
            assert table.irreducibles[i][table.identity_class] == \
                CycloNum.from_rational(d)
            assert ti[f"chi{i}"].rhs == (values[i], values[i])


def test_criterion_10_arithmetic_core(capsys, galois_conductor):
    with criterion(capsys, 10, "10,000 seeded arithmetic property checks"):
        rng = random.Random(0)
        orders = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16)

        def rand(n, integral=False):
            return CycloNum.from_exponents(
                n, {rng.randrange(n): Fraction(
                    rng.randint(-6, 6), 1 if integral else rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))})

        checks = 0
        while checks < 10_000:
            n = rng.choice(orders)
            a = rand(n)
            assert parse_cyclo(cyclo_to_str(a)) == a      # canonical round trip
            c = conductor([a])                            # stored order is
            assert galois_conductor(a) == a.order == c    # the conductor
            assert c % 4 != 2                             # and canonical
            if a.order > 1:
                k = rng.choice([k for k in range(1, a.order)
                                if gcd(k, a.order) == 1])
                assert conductor([a.galois(k)]) == c      # Galois invariance
                checks += 1
            p = rng.choice((2, 3, 5))
            x, y = rand(n, True), rand(n, True)
            m = build_residue_map(n, p)
            rx, ry = reduce_cyclo(m, x), reduce_cyclo(m, y)
            assert reduce_cyclo(m, x + y) == \
                residue_add(m, rx, ry)                    # reduce is additive
            assert reduce_cyclo(m, x * y) == \
                residue_mul(m, rx, ry)                    # and multiplicative
            checks += 4
        assert checks >= 10_000
