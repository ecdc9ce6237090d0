"""Verification suites for the conductor identities."""

import copy
import operator
import random
from fractions import Fraction

import pytest
from conftest import conductor_p_int

from charcond import linalg, verify
from charcond.blocks import block_of
from charcond.cyclo import CycloNum, conductor_p, lincomb, lincomb_int, pack
from charcond.tables import char_conductor, load_corpus, virtual_character
from charcond.verify import (check_cor05, check_projective_invariance,
                             check_restriction_props, check_theorem1,
                             cor05_suite, projective_invariance_suite,
                             random_virtual_characters, theorem1_suite)


def unit(table, chi):
    """The Irr coordinates of chi_chi."""
    return [int(i == chi) for i in range(table.num_classes)]


def reference_theorem1(ds, p, coords, label):
    """The CycloNum path the integer records replace: the values of psi =
    sum coords_i chi_i by `virtual_character`, its d^u row by one lincomb
    per column, conductors read off the stored orders."""
    lhs = char_conductor(virtual_character(ds.table, coords), p)
    rhs = conductor_p([lincomb(zip(coords, col))
                       for col in ds.gendec(p).entries.values()], p)
    return label, lhs, rhs, lhs == rhs


def reference_samples(ds, p, count, seed):
    """The sampler the src draw reproduces: one `randint(-3, 3)` per Irr
    coordinate of each block; yields (label, Irr coordinates)."""
    rng = random.Random(seed)
    for b in ds.blocks(p):
        for t in range(count):
            coords = [0] * ds.table.num_classes
            for i in sorted(b.irr_indices):
                coords[i] = rng.randint(-3, 3)
            yield f"{b.id}-rand{t}", coords


def sampled(ds, p, count, seed):
    """`random_virtual_characters` as (label, Irr coordinates) pairs."""
    for irrs, draws in random_virtual_characters(ds, p, count, seed):
        for label, row in draws:
            coords = [0] * ds.table.num_classes
            for i, a in zip(irrs, row):
                coords[i] = a
            yield label, coords


def reference_suite(ds, p, samples, seed):
    table = ds.table
    out = [reference_theorem1(ds, p, unit(table, chi), f"chi{chi}")
           for chi in range(table.num_classes)]
    for label, coords in reference_samples(ds, p, samples, seed):
        out.append(reference_theorem1(ds, p, coords, label))
    return out


def reference_max_conductor_p(columns, coords, p):
    """The per-column path the held level forms replaced: one lincomb_int
    and one conductor_p_int per `_int_columns` column."""
    terms = [(a, i) for i, a in enumerate(coords) if a]
    best = 1
    for n, col in columns:
        if n % p or not any(col[i] for _, i in terms):
            continue
        x = lincomb_int(n, ((a, col[i]) for a, i in terms))
        best = max(best, conductor_p_int(n, x, p))
    return best


def reference_cor05(ds, p, chi):
    """The per-column path the held orders replaced: chi's d^u row by one
    lincomb_int per column (`virtual_gendec_row`), then one conductor_p_int
    per column; as (lhs, rhs, witness, passed)."""
    lhs = char_conductor(ds.table.irreducibles[chi], p)
    best, witness = 1, None
    for col, (n, vec) in verify.virtual_gendec_row(
            ds, p, unit(ds.table, chi)).items():
        c = conductor_p_int(n, vec, p)
        if c > best or witness is None:
            best, witness = c, col
    return lhs, best, witness, lhs == best


def cor05_record(ds, p, chi):
    rec = check_cor05(ds, p, chi)
    return rec.lhs, rec.rhs, rec.witness, rec.passed


def p_parts(ds, p, coords):
    """(Irr, d^u) conductor p-parts of sum coords_i chi_i by one `_p_parts`
    pass on its support."""
    irrs = [i for i, a in enumerate(coords) if a]
    row = [coords[i] for i in irrs]
    return [side[0] for side in
            verify._p_parts(ds, p, irrs, [row], sum(map(abs, row)))]


def level_sides(ds, p, coords):
    """(Irr, d^u) conductor p-parts of sum coords_i chi_i by the held level
    tests, and by the reference."""
    return (p_parts(ds, p, coords),
            [reference_max_conductor_p(cols, coords, p)
             for cols in verify._int_columns(ds, p)])


def records(report):
    return [(r.character, r.lhs, r.rhs, r.passed) for r in report.records]


def reference_projective_invariance(ds, p, chi):
    """The per-chi path the held moved columns replaced: psi's whole d^u row
    against chi's for every projective Phi_j of chi's block."""
    ident = ds.table.identity_class
    base = unit(ds.table, chi)
    base_row = verify.virtual_gendec_row(ds, p, base)
    base_cond = p_parts(ds, p, base)[0]
    for j in sorted(block_of(ds.blocks(p), chi).ibr_indices):
        psi = [a + b for a, b in zip(base, ds.projectives(p)[j])]
        for col, (n, vec) in verify.virtual_gendec_row(ds, p, psi).items():
            if col[0] != ident and vec != base_row[col][1]:
                was, now = (str(CycloNum(n, v))
                            for v in (base_row[col][1], vec))
                return ("projective-invariance", f"chi{chi}", was, now,
                        (j, col), False)
        cond = p_parts(ds, p, psi)[0]
        if cond != base_cond:
            return ("projective-invariance", f"chi{chi}", base_cond, cond, j,
                    False)
    return ("projective-invariance", f"chi{chi}", base_cond, base_cond, None,
            True)


def full_record(rec):
    return (rec.check, rec.character, rec.lhs, rec.rhs, rec.witness,
            rec.passed)


class TestConductorIdentity:
    def test_all_irreducibles(self, corpus, group_primes):
        for name, p in group_primes:
            rep = theorem1_suite(corpus[name], p)
            assert rep.passed, (name, p)

    def test_seeded_virtual_characters(self, corpus):
        ds = corpus["S4"]
        rep = theorem1_suite(ds, 2, samples=20, seed=123)
        assert rep.passed
        assert len(rep.records) > ds.table.num_classes

    def test_sampling_is_deterministic(self, corpus):
        ds = corpus["A5"]

        def values(seed):
            return [virtual_character(ds.table, coords) for _, coords
                    in sampled(ds, 5, 5, seed=seed)]
        a = values(42)
        assert a == values(42)
        assert a != values(43)

    def test_single_character(self, corpus):
        ds = corpus["A5"]
        rec = check_theorem1(ds, 5, unit(ds.table, 1))
        assert rec.passed and rec.lhs == rec.rhs == 5

    @pytest.mark.parametrize("seed", [0, 1, 5, 7, 42, 43, 123,
                                      *range(21, 31)])
    def test_sampler_draws_the_randint_stream(self, corpus, group_primes,
                                              seed):
        for name, p in group_primes:
            ds = corpus[name]
            assert list(sampled(ds, p, 30, seed)) == \
                list(reference_samples(ds, p, 30, seed)), (name, p)


class TestIntegerRecords:
    """theorem1_suite on integers against the CycloNum path it replaced."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_every_corpus_pair(self, corpus, group_primes, seed):
        for name, p in group_primes:
            ds = corpus[name]
            assert records(theorem1_suite(ds, p, samples=50, seed=seed)) == \
                reference_suite(ds, p, 50, seed), (name, p)

    def test_columns_held_once_per_dataset_and_prime(self, monkeypatch):
        calls = []
        real = verify._int_columns
        monkeypatch.setattr(verify, "_int_columns",
                            lambda ds, p: calls.append((id(ds), p))
                            or real(ds, p))
        ds = load_corpus()["A5"]
        for p in (2, 3, 5, 2, 3, 5):
            theorem1_suite(ds, p, samples=2)
            check_theorem1(ds, p, unit(ds.table, 1))
        assert calls == [(id(ds), 2), (id(ds), 3), (id(ds), 5)]

    @pytest.mark.parametrize("name,p", [("A5", 2), ("S4", 3), ("D8", 2)])
    def test_tampered_gendec_entry_fails_like_reference(self, name, p):
        # a non-ordinary d^u entry plus zeta_(p^3) has a larger conductor
        # p-part than any d^u of the corpus; tamper before the first check
        ds = load_corpus()[name]
        gm = ds.gendec(p)
        ident = ds.table.identity_class
        col = next(c for c in gm.columns if c[0] != ident)
        chi = len(gm.entries[col]) - 1
        gm.entries[col][chi] += CycloNum.zeta(p ** 3)
        assert "level tests" not in ds._prime(p).derived
        report = theorem1_suite(ds, p, samples=20, seed=3)
        assert "level tests" in ds._prime(p).derived
        assert not report.passed
        got, want = records(report), reference_suite(ds, p, 20, 3)
        assert got == want
        first = next(r for r in got if not r[3])
        assert first == next(r for r in want if not r[3])
        assert first[2] == p ** 3
        # the sampled records, one pass per block, see the tampering too
        failed = [r for r in got[ds.table.num_classes:] if not r[3]]
        assert failed and all(r[2] == p ** 3 for r in failed)

    def test_block_pass_at_the_packing_bound(self, corpus, group_primes):
        # every coordinate +3 (or -3, or alternating) makes sum |a| equal
        # 3 |Irr(B)|, the weight the block's width is chosen for
        for name, p in group_primes:
            ds = corpus[name]
            k = ds.table.num_classes
            for b in ds.blocks(p):
                irrs = sorted(b.irr_indices)
                draws = [(f"{b.id}-{s}", [a * (-1) ** (i * alt)
                                          for i in range(len(irrs))])
                         for s, (a, alt) in enumerate(
                             [(3, 0), (-3, 0), (3, 1), (-3, 1)])]
                got = [(r.character, r.lhs, r.rhs, r.passed) for r in
                       verify._records(ds, p, irrs, draws, 3 * len(irrs))]
                want = []
                for label, row in draws:
                    coords = [0] * k
                    for i, a in zip(irrs, row):
                        coords[i] = a
                    want.append(reference_theorem1(ds, p, coords, label))
                assert got == want, (name, p, b.id)


def lattice_faults(ds, p):
    """(block, T) for each level threshold T at which Theorem 1 fails on
    some psi in Z Irr(B): "the conductor p-part of psi is below T" is the
    vanishing of psi's Irr coordinates against the test values at every
    level t >= T, on each side, so Theorem 1 for all of Z Irr(B) says the
    two sides' test matrices A (Irr) and B (d^u), cut to the block, have
    one left kernel: rank A = rank B = rank [A | B] over Q."""
    _, sides = verify._level_tests(ds, p)
    thresholds = sorted({t for levels in sides for t, _ in levels})
    faults = []
    for b in ds.blocks(p):
        irrs = sorted(b.irr_indices)
        for threshold in thresholds:
            a, c = ([[Fraction(x) for t, rows in levels if t >= threshold
                      for x in rows[i]] for i in irrs] for levels in sides)
            ranks = {linalg.rank(a), linalg.rank(c),
                     linalg.rank([x + y for x, y in zip(a, c)])}
            if len(ranks) > 1:
                faults.append((b.id, threshold))
    return faults


class TestTheorem1Lattice:
    """Theorem 1 on every generalised character of each block at once."""

    def test_every_corpus_block(self, corpus, group_primes):
        assert len(group_primes) == 19
        for name, p in group_primes:
            assert lattice_faults(corpus[name], p) == [], (name, p)

    def test_du_entry_times_zeta_p_fails(self):
        ds = load_corpus()["A5"]
        gm = ds.gendec(5)
        ident = ds.table.identity_class
        col, chi = next((c, i) for c in gm.columns if c[0] != ident
                        for i, v in enumerate(gm.entries[c]) if v)
        gm.entries[col][chi] = gm.entries[col][chi] * CycloNum.zeta(5)
        assert lattice_faults(ds, 5) == [("B0", 5)]

    def test_galois_twisted_table_value_fails(self):
        # the d^u are taken before the twist, so only the Irr side sees it
        ds = load_corpus()["A5"]
        ds.gendec(5)
        row = ds.table.irreducibles[1]
        c = next(c for c, v in enumerate(row) if v.galois(2) != v)
        row[c] = row[c].galois(2)
        assert lattice_faults(ds, 5) == [("B0", 5)]


class TestLevelForms:
    """Conductor p-parts by `_p_parts` on the held level tests against one
    lincomb_int and one conductor_p_int per column."""

    def test_every_irreducible(self, corpus, group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            for chi in range(ds.table.num_classes):
                coords = [int(i == chi) for i in range(ds.table.num_classes)]
                got, want = level_sides(ds, p, coords)
                assert got == want, (name, p, chi)

    def test_seeded_coordinates(self, corpus, group_primes):
        rng = random.Random(17)
        for name, p in group_primes:
            ds = corpus[name]
            k = ds.table.num_classes
            for size in [1] * 25 + [60] * 25:
                coords = [rng.choice([0, rng.randint(-size, size)])
                          for _ in range(k)]
                got, want = level_sides(ds, p, coords)
                assert got == want, (name, p, coords)

    def test_wide_coordinates(self, corpus, group_primes, monkeypatch):
        widths = []
        monkeypatch.setattr(verify, "pack", lambda fields, width:
                            widths.append(width) or pack(fields, width))
        rng = random.Random(29)
        wide = 0
        for name, p in group_primes:
            widths.clear()
            ds = corpus[name]
            k = ds.table.num_classes
            for _ in range(8):
                small = [rng.randint(-2, 2) for _ in range(k)]
                scale = rng.randint(2 ** 70, 2 ** 80)
                for coords in ([a * scale for a in small],
                               [a * rng.randint(2 ** 70, 2 ** 90)
                                for a in small]):
                    got, want = level_sides(ds, p, coords)
                    assert got == want, (name, p, coords)
            bound, _ = ds._prime(p).derived["level tests"]
            assert not bound or max(widths) > 70, (name, p)
            wide += bool(bound)
        assert wide >= 6

    def test_width_keeps_fields_apart(self):
        # fields 2^16 and -1 cancel when packed 16 bits apart; the width
        # taken from the coefficients must keep them apart
        class Held:
            def _held(self, p, key, compute, *args):
                return tests
        tests = (1, [[(4, [[1, 0], [0, 1]])]])
        coords = [2 ** 16, -1]
        assert p_parts(Held(), 2, coords) == [4]
        narrow = [pack(row, 16) for row in tests[1][0][0][1]]
        assert sum(map(operator.mul, coords, narrow)) == 0

    def test_block_width_keeps_fields_apart(self):
        # at 16 bits, 3 * (2^14 + 0 * 2^16) + (2^14 - 1 * 2^16) = 0; a block
        # of two characters has sum |a| <= 6, so its width must exceed
        # 6 * 2^14 > 2^16
        class Held:
            def _held(self, p, key, compute, *args):
                return tests
        level = [(4, [[2 ** 14, 0], [2 ** 14, -1]])]
        tests = (2 ** 14, [level, level])
        draws = [("psi", [3, 1])]
        rec, = verify._records(Held(), 2, [0, 1], draws, 3 * 2)
        assert (rec.lhs, rec.rhs, rec.passed) == (4, 4, True)
        narrow = [pack(row, 16) for row in level[0][1]]
        assert sum(map(operator.mul, [3, 1], narrow)) == 0

    def test_largest_nonzero_level_wins(self):
        # a test below the conductor reads a slice of x and may be nonzero
        # too; the corpus has at most one level per column, so pin it here
        class Held:
            def _held(self, p, key, compute, *args):
                return tests
        levels = [(25, [[1], [0]]), (5, [[1], [1]])]
        tests = (1, [levels, levels])
        draws = [("a", [1, 0]), ("b", [0, 1]), ("c", [0, 0]), ("d", [1, -1])]
        got = [(r.lhs, r.rhs) for r in
               verify._records(Held(), 5, [0, 1], draws, 3 * 2)]
        assert got == [(25, 25), (5, 5), (1, 1), (25, 25)]
        assert p_parts(Held(), 5, [1, 1]) == [25, 25]


class TestOnePass:
    """Every conductor p-part is one `_p_parts` pass, on level tests that
    are held once and never changed."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        real = verify._p_parts

        def wrapper(ds, p, irrs, rows, weight):
            calls.append((list(irrs), len(rows), weight))
            return real(ds, p, irrs, rows, weight)
        monkeypatch.setattr(verify, "_p_parts", wrapper)
        return calls

    @pytest.mark.parametrize("samples", [0, 5])
    def test_theorem1_suite_passes(self, corpus, group_primes, monkeypatch,
                                   samples):
        calls = self.counted(monkeypatch)
        for name, p in group_primes:
            ds = corpus[name]
            calls.clear()
            theorem1_suite(ds, p, samples=samples, seed=1)
            k = ds.table.num_classes
            # a block with no draws makes no pass
            blocks = [sorted(b.irr_indices) for b in ds.blocks(p)
                      if samples]
            assert calls == [(list(range(k)), k, 1)] + [
                (irrs, samples, 3 * len(irrs)) for irrs in blocks], (name, p)

    def test_projective_invariance_passes(self, corpus, group_primes,
                                          monkeypatch):
        calls = self.counted(monkeypatch)
        for name, p in group_primes:
            ds = corpus[name]
            for chi in range(ds.table.num_classes):
                calls.clear()
                check_projective_invariance(ds, p, chi)
                block = block_of(ds.blocks(p), chi)
                assert [c[:2] for c in calls] == [
                    (sorted(block.irr_indices),
                     1 + len(block.ibr_indices))], (name, p, chi)

    def test_level_tests_are_held_unchanged(self):
        ds = load_corpus()["A5"]
        theorem1_suite(ds, 5)
        held = ds._prime(5).derived["level tests"]
        bound, sides = held
        kept = copy.deepcopy(held)
        theorem1_suite(ds, 5, samples=20, seed=3)
        projective_invariance_suite(ds, 5)
        p_parts(ds, 5, [2 ** 80, -3, 0, 1, 5])
        assert ds._prime(5).derived["level tests"] is held
        assert held == kept and bound and len(sides) == 2


class TestConductorMaximum:
    def test_all_groups(self, corpus, group_primes):
        for name, p in group_primes:
            assert cor05_suite(corpus[name], p).passed, (name, p)

    def test_witness_is_recorded(self, corpus):
        ds = corpus["A5"]
        rec = check_cor05(ds, 5, 1)
        assert rec.passed and rec.witness is not None
        u_class, phi = rec.witness
        assert ds.table.classes[u_class].element_order == 5

    def test_held_orders_match_the_per_column_reference(self, corpus,
                                                         group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            for chi in range(ds.table.num_classes):
                assert cor05_record(ds, p, chi) == \
                    reference_cor05(ds, p, chi), (name, p, chi)

    @pytest.mark.parametrize("name,p", [("A5", 2), ("S4", 3), ("D8", 2)])
    def test_tampered_gendec_entry_fails_like_reference(self, name, p):
        # a non-ordinary d^u entry plus zeta_(p^3), as in TestIntegerRecords,
        # before the reference's integer columns are held
        ds = load_corpus()[name]
        gm = ds.gendec(p)
        col = next(c for c in gm.columns if c[0] != ds.table.identity_class)
        chi = len(gm.entries[col]) - 1
        gm.entries[col][chi] += CycloNum.zeta(p ** 3)
        assert "int columns" not in ds._prime(p).derived
        got, want = cor05_record(ds, p, chi), reference_cor05(ds, p, chi)
        assert got == want
        assert got[1:] == (p ** 3, col, False)


class TestProjectiveInvariance:
    def test_all_groups(self, corpus, group_primes):
        for name, p in group_primes:
            assert projective_invariance_suite(corpus[name], p).passed, \
                (name, p)

    def test_single_character(self, corpus):
        rec = check_projective_invariance(corpus["S3"], 3, 2)
        assert rec.passed

    def test_records_match_the_per_character_reference(self, corpus,
                                                       group_primes):
        for name, p in group_primes:
            ds = corpus[name]
            for chi in range(ds.table.num_classes):
                assert full_record(check_projective_invariance(ds, p, chi)) \
                    == reference_projective_invariance(ds, p, chi), \
                    (name, p, chi)

    def test_tampered_entry_fails_with_the_reference_strings(self):
        # a non-ordinary d^u entry of a character in the support of the
        # first projective, plus 1, before any row is computed
        ds, p, chi = load_corpus()["A5"], 5, 1
        gm = ds.gendec(p)
        j = min(block_of(ds.blocks(p), chi).ibr_indices)
        col = next(c for c in gm.columns if c[0] != ds.table.identity_class)
        i = next(i for i, row in enumerate(ds.brauer(p).decomposition)
                 if row[j])
        gm.entries[col][i] += 1
        rec = check_projective_invariance(ds, p, chi)
        base = unit(ds.table, chi)
        psi = [a + b for a, b in zip(base, ds.projectives(p)[j])]
        want = [str(lincomb(zip(coords, gm.entries[col])))
                for coords in (base, psi)]
        assert not rec.passed and rec.witness == (j, col)
        assert [rec.lhs, rec.rhs] == want and want[0] != want[1]
        for k in range(ds.table.num_classes):
            assert full_record(check_projective_invariance(ds, p, k)) == \
                reference_projective_invariance(ds, p, k), k


class TestRestriction:
    def test_a5_d10_values(self, corpus):
        rep = check_restriction_props(corpus["A5"], 5)
        assert not rep.not_applicable and rep.passed
        ti = {r.character: r for r in rep.records
              if r.check == "restriction-ti"}
        # triple equality values in degree order 1, 3, 3, 4
        assert [ti[f"chi{i}"].lhs for i in range(4)] == [1, 5, 5, 1]
        for i in range(4):
            assert ti[f"chi{i}"].rhs == (ti[f"chi{i}"].lhs,) * 2

    def test_cyclic_defect_bijection(self, corpus):
        rep = check_restriction_props(corpus["A5"], 5)
        recs = [r for r in rep.records if r.check == "cyclic-defect-bijection"]
        assert recs and all(r.passed for r in recs)
        bij = next(r for r in recs if r.character == "gamma-bijective")
        assert bij.lhs == bij.rhs == [0, 1, 2, 3]

    def test_projectivity_is_exact(self):
        # peeling c1 first from v = c2 + c3 leaves (0, 0, 1, 1), from which
        # no column can be peeled
        cols = [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]]
        assert verify._is_projective(cols, [1, 1, 1, 1])
        assert verify._is_projective(cols, [2, 2, 1, 1])
        assert not verify._is_projective(cols, [0, 0, 1, 1])
        assert verify._is_projective(cols, [0, 0, 0, 0])
        assert not verify._is_projective(cols, [0, 1, -1, 0])  # c1 - c2
        assert not verify._is_projective(cols, [1, 0, 0, 0])  # not in the span

    def test_held_restriction_matches_inner_products(self, corpus):
        # the integer matrix the load holds against <Res chi, psi> by one
        # lincomb over CycloNum per pair, on every embedding of the corpus
        embs = [(ds, emb) for ds in corpus.values() for emb in ds.subgroups]
        assert embs
        for ds, emb in embs:
            table, sub = ds.table, emb.subgroup.table
            weights = [Fraction(c.size, sub.group_order) for c in sub.classes]
            for chi, row in enumerate(table.irreducibles):
                values = [row[c] for c in emb.fusion]
                want = [lincomb((w, x * y.conjugate())
                                for w, x, y in zip(weights, values, psi))
                        for psi in sub.irreducibles]
                assert list(emb.restriction[chi]) == want, (emb.name, chi)

    def test_not_applicable_without_subgroup(self, corpus):
        rep = check_restriction_props(corpus["S4"], 2)
        assert rep.not_applicable

    def test_monotonicity_records(self, corpus):
        rep = check_restriction_props(corpus["A5"], 5)
        mono = [r for r in rep.records if r.check == "restriction-monotonic"]
        assert len(mono) == 5 and all(r.passed for r in mono)
