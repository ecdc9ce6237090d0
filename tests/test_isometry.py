"""Perfect isometries: search, perfection conditions, preservation checks
and certificates."""

import functools
import itertools
import json
import operator
import random
from fractions import Fraction
from math import lcm

import pytest
from conftest import load_generator, nullspace

from charcond import isometry as iso
from charcond.blocks import Block, partition_blocks
from charcond.cyclo import (ZERO, CycloNum, euler_phi, int_rows, lincomb,
                            p_part, pack, sum_products_int)
from charcond.residue import build_residue_map, reduce_cyclo
from charcond.tables import (default_corpus_dir, load_corpus, load_dataset,
                             virtual_character)


def signed_matrix(cand):
    """The map as an integer matrix: rows index the source block's
    characters, columns the target block's."""
    n = len(cand.permutation)
    m = [[0] * n for _ in range(n)]
    for k in range(n):
        m[k][cand.permutation[k]] = cand.signs[k]
    return m


def gram_isometry(matrix) -> bool:
    """Gram identity for an integer matrix: the columns are orthonormal,
    so the map preserves the inner product on virtual characters."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return False
    for i in range(n):
        for j in range(i, n):
            dot = sum(matrix[k][i] * matrix[k][j] for k in range(n))
            if dot != (1 if i == j else 0):
                return False
    return True


def reference_isometry(cand):
    """check_isometry by the Gram identity of the candidate's matrix."""
    n = len(cand.source.block.irr_indices)
    if len(cand.target.block.irr_indices) != n:
        raise iso.IsometryError("blocks have different numbers of characters")
    if len(cand.permutation) != n or len(cand.signs) != n \
            or any(not 0 <= x < n for x in cand.permutation):
        return False
    return gram_isometry(signed_matrix(cand))


def value_products(src, tgt):
    """prod[k][j][g][h] = chi_k(g) * psi_j(h), by CycloNum multiplication."""
    s_tab, t_tab = src.dataset.table, tgt.dataset.table
    return [[[[s_tab.irreducibles[i][g] * t_tab.irreducibles[j][h]
               for h in range(t_tab.num_classes)]
              for g in range(s_tab.num_classes)]
             for j in tgt.block.irr_indices]
            for i in src.block.irr_indices]


def reference_perfection(cand, products, collect_witnesses=True):
    """check_perfection on CycloNum values: mu by one lincomb over the
    products, integrality by the denominators of mu / |C(g)| and mu / |C(h)|
    over the power basis at mu's conductor."""
    src, tgt = cand.source, cand.target
    report = iso.PerfectionReport(reference_isometry(cand))
    if not report.is_isometry:
        return report
    s_tab, t_tab = src.dataset.table, tgt.dataset.table

    def local_integer(x, p):
        return all(f.denominator % p for f in x.coeffs())

    for g in range(s_tab.num_classes):
        s_reg = s_tab.classes[g].element_order % src.prime != 0
        for h in range(t_tab.num_classes):
            mu = lincomb((s, products[k][j][g][h]) for k, (j, s)
                         in enumerate(zip(cand.permutation, cand.signs)))
            if s_reg != (t_tab.classes[h].element_order % tgt.prime != 0):
                if not mu:
                    continue
                report.separation_ok, kind = False, "separation"
            elif local_integer(Fraction(1, s_tab.centralizer_order(g)) * mu,
                               src.prime) and local_integer(
                    Fraction(1, t_tab.centralizer_order(h)) * mu, tgt.prime):
                continue
            else:
                report.integrality_ok, kind = False, "integrality"
            if not collect_witnesses:
                return report
            report.witnesses.append((kind, g, h, str(mu)))
    return preservation(report, cand, collect_witnesses)


def preservation(report, cand, collect_witnesses):
    """The report, with the conductor and L0 verdicts and their witnesses
    added when witnesses are collected."""
    if collect_witnesses:
        ok, wits = iso.check_conductor_preservation(cand)
        report.conductor_preserved = ok
        report.witnesses.extend(("conductor",) + w for w in wits)
        report.l0_preserved = iso.check_l0_preservation(cand)
        if not report.l0_preserved:
            report.witnesses.append(("l0",))
    return report


def reference_cell_perfection(cand, collect_witnesses=True):
    """check_perfection one cell at a time on integers, as it was before the
    held views: both blocks' values at their common order N, each product
    chi_k(g) * psi_j(g') reduced on its own, mu(g, g') their signed sum on
    every cell, including those of modulus 1 that do not separate."""
    src, tgt = cand.source, cand.target
    report = iso.PerfectionReport(iso.check_isometry(cand))
    if not report.is_isometry:
        return report
    s_tab, t_tab = src.dataset.table, tgt.dataset.table
    n, s_rows, t_rows = int_rows(
        [s_tab.irreducibles[i] for i in src.block.irr_indices],
        [t_tab.irreducibles[j] for j in tgt.block.irr_indices])
    for g in range(s_tab.num_classes):
        for h in range(t_tab.num_classes):
            products = [sum_products_int(n, ((1, s_rows[k][g], t_rows[j][h]),))
                        for k, j in enumerate(cand.permutation)]
            mu = [sum(map(operator.mul, cand.signs, col))
                  for col in zip(*products)]
            s_reg = s_tab.classes[g].element_order % src.prime != 0
            t_reg = t_tab.classes[h].element_order % tgt.prime != 0
            modulus = lcm(p_part(s_tab.centralizer_order(g), src.prime),
                          p_part(t_tab.centralizer_order(h), tgt.prime))
            if s_reg != t_reg:
                if not any(mu):
                    continue
                report.separation_ok, kind = False, "separation"
            elif any(c % modulus for c in mu):
                report.integrality_ok, kind = False, "integrality"
            else:
                continue
            if not collect_witnesses:
                return report
            report.witnesses.append((kind, g, h, str(CycloNum(n, mu))))
    return preservation(report, cand, collect_witnesses)


def offset(width, count):
    """What `_unpack` adds to a packed sum of count fields: 2^(width-1) in
    every field."""
    return pack([1 << width - 1] * count, width)


def reference_failures(kernel, x):
    """`_PairKernel.failures` with each `_unpack` offset packed per call,
    as before the kernel held them, and every field read and every cell
    sorted per call, as before the kernel held the cells' (g, g') order;
    then each cell decided here, as `check_perfection` decided it before
    the kernel did, keeping the failing ones with their kinds."""
    def unpack(x, count):
        half = 1 << kernel.width - 1
        z = x + offset(kernel.width, count)
        return [(z >> kernel.width * i & 2 * half - 1) - half
                for i in range(count)]

    low = kernel.width * (len(kernel.cells) * kernel.phi
                          - len(kernel._moduli))
    if not x & (1 << low) - 1 and not any(map(
            operator.mod, unpack(x >> low, len(kernel._moduli)),
            kernel._moduli)):
        return []
    fields = unpack(x, len(kernel.cells) * kernel.phi)
    failing = []
    for g, h, separating, modulus, mu in sorted(
            (*c, fields[i * kernel.phi:(i + 1) * kernel.phi])
            for i, c in enumerate(kernel.cells)):
        if separating:
            if any(mu):
                failing.append(("separation", g, h, mu))
        elif any(c % modulus for c in mu):
            failing.append(("integrality", g, h, mu))
    return failing


def reference_kernel(src, tgt, pairs):
    """`_PairKernel`'s cells, packed vectors, width, `_unpack` offsets (for
    the integrality fields, all fields and one cell's) and mask, built as
    before the held value ids: both blocks' values at their common order N
    from the tables, each (k, j) vector flattened over every cell and
    packed field by field, each product reduced once per pair."""
    n, xs, ys = int_rows(*[[ref.dataset.table.irreducibles[i]
                            for i in ref.block.irr_indices]
                           for ref in (src, tgt)])

    def classes(ref):
        table = ref.dataset.table
        return [(cls.element_order % ref.prime != 0,
                 p_part(table.centralizer_order(c), ref.prime))
                for c, cls in enumerate(table.classes)]

    product = functools.cache(
        lambda x, y: sum_products_int(n, ((1, x, y),)))
    cells = sorted(((g, h, s_reg != t_reg, lcm(s_cent, t_cent))
                    for g, (s_reg, s_cent) in enumerate(classes(src))
                    for h, (t_reg, t_cent) in enumerate(classes(tgt))
                    if s_reg != t_reg or s_cent * t_cent > 1),
                   key=lambda cell: not cell[2])
    vectors = {(k, j): [f for g, h, _, _ in cells for f in product(
        tuple(xs[k][g]), tuple(ys[j][h]))] for k, j in pairs}
    width = (len(xs) * max((max(map(abs, v)) for v in vectors.values() if v),
                           default=0)).bit_length() + 1
    phi = euler_phi(n)
    fields = [phi * sum(not c[2] for c in cells), phi * len(cells), phi]
    low = width * (fields[1] - fields[0])
    return (cells, {kj: pack(v, width) for kj, v in vectors.items()}, width,
            [offset(width, count) for count in fields], (1 << low) - 1)


def failure_kinds(kernel, n, cands, rng, count):
    """Check `failures` against `reference_failures` on the signed sum of
    each candidate (perm, signs) of cands and of count seeded signed
    bijections of n characters; the set of whether each had failures."""
    cands = list(cands) + [(tuple(rng.sample(range(n), n)),
                            tuple(rng.choice((1, -1)) for _ in range(n)))
                           for _ in range(count)]
    kinds = set()
    for perm, signs in cands:
        x = sum(s * kernel.packed[kj] for s, kj in zip(signs, enumerate(perm)))
        got = list(kernel.failures(x))
        assert got == reference_failures(kernel, x)
        kinds.add(bool(got))
    return kinds


def kernel_fields(kernel):
    """What `reference_kernel` returns, read off a `_PairKernel`."""
    return (kernel.cells, kernel.packed, kernel.width, kernel._offsets,
            kernel._mask)


def gram_filter(g_src, g_tgt):
    """`_gram_matchings` by brute force: every signed bijection with +1 at
    position 0 that carries g_src onto g_tgt, in the backtrack's order:
    by (permutation[0], sign[0], permutation[1], ...), plus before minus."""
    n = len(g_src)
    found = [(perm, signs) for perm in itertools.permutations(range(n))
             for signs in itertools.product((1,), *[(1, -1)] * (n - 1))
             if all(g_tgt[perm[i]][perm[k]] == signs[i] * signs[k]
                    * g_src[i][k]
                    for i, k in itertools.product(range(n), repeat=2))]
    return sorted(found, key=lambda m: [(j, s < 0) for j, s in zip(*m)])


def brute_force(src, tgt):
    """The search before pruning: every signed bijection, fully checked by
    the reference, in lexicographic (permutation, signs) order."""
    n = len(src.block.irr_indices)
    products = value_products(src, tgt)
    found = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            cand = iso.IsometryCandidate(src, tgt, perm, signs)
            if reference_perfection(cand, products,
                                    collect_witnesses=False).perfect:
                found.append(cand)
    return found


def outcome(report):
    return (report.perfect, report.integrality_ok, report.separation_ok,
            report.conductor_preserved, report.l0_preserved, report.witnesses)


def regular_gram(ref):
    """<chi^0, psi^0> by inner products, one lincomb each, of the characters'
    values with those on p-singular classes set to zero (a truncation is
    not a virtual character)."""
    table = ref.dataset.table
    weights = [Fraction(cls.size, table.group_order) for cls in table.classes]
    restricted = [[v if cls.element_order % ref.prime else ZERO
                   for v, cls in zip(table.irreducibles[i], table.classes)]
                  for i in ref.block.irr_indices]
    return [[lincomb((w, x * y.conjugate()) for w, x, y in zip(weights, a, b))
             for b in restricted] for a in restricted]


def regular_rows(ref):
    """The nonzero power-basis coordinates of the block's characters at each
    p-regular class, one row per coordinate, as integers."""
    table = ref.dataset.table
    rows = []
    for c, cls in enumerate(table.classes):
        if cls.element_order % ref.prime:
            col = [table.irreducibles[i][c] for i in ref.block.irr_indices]
            n = lcm(*[v.order for v in col])
            rows += [[int(x) for x in r]
                     for r in zip(*[v.coeffs(n) for v in col]) if any(r)]
    return rows


def l0_basis(ref):
    """Spanning set of L0(B) as integer coordinate vectors over the block's
    characters: the nullspace of `regular_rows`, denominators cleared."""
    basis = []
    for v in nullspace([[Fraction(x) for x in row]
                        for row in regular_rows(ref)]):
        den = lcm(*[f.denominator for f in v])
        basis.append([int(f * den) for f in v])
    return basis


def reference_l0(cand):
    """check_l0_preservation through CycloNum: each vector of `l0_basis` of
    the source has its image built as a whole virtual character of the
    target group by `virtual_character`, its values read at the target's
    p-regular classes."""
    tgt = cand.target
    t_tab = tgt.dataset.table
    for vec in l0_basis(cand.source):
        coords = [0] * t_tab.num_classes
        for k, a in enumerate(vec):
            j = tgt.block.irr_indices[cand.permutation[k]]
            coords[j] = cand.signs[k] * a
        image = virtual_character(t_tab, coords)
        if any(image[c] for c, cls in enumerate(t_tab.classes)
               if cls.element_order % tgt.prime):
            return False
    return True


def lattice_l0(cand, basis, rows):
    """check_l0_preservation by a basis of L0(source): each basis vector's
    signed image is orthogonal to every row of the target's
    `regular_rows`."""
    for vec in basis:
        image = [0] * len(vec)
        for k, a in enumerate(vec):
            image[cand.permutation[k]] = cand.signs[k] * a
        if any(sum(map(operator.mul, row, image)) for row in rows):
            return False
    return True


def keys(cands):
    return [(c.permutation, c.signs) for c in cands]


@pytest.fixture(scope="module")
def a5_d10(corpus):
    return (iso.block_ref(corpus["A5"], 5, "B0"),
            iso.block_ref(corpus["D10"], 5, "B0"))


@pytest.fixture(scope="module")
def found(a5_d10):
    return iso.search_perfect_isometries(*a5_d10)


def sweep_pairs(corpus, manifest):
    """Every ordered pair of equal-size blocks with nonzero defect within
    the default bound: the 92 pairs of the isometry-sweep benchmark."""
    refs = [iso.BlockRef(corpus[entry["name"]], p, b)
            for entry in manifest["groups"] for p in entry["primes"]
            for b in partition_blocks(corpus[entry["name"]], p)
            if b.defect > 0 and len(b.irr_indices) <= 6]
    return [(s, t) for s in refs for t in refs
            if len(s.block.irr_indices) == len(t.block.irr_indices)]


def searched_leaves(src, tgt, monkeypatch):
    """(candidate, kernel) of every check the search of the pair makes."""
    seen, check = [], iso.check_perfection

    def spy(cand, collect_witnesses=True, kernel=None):
        seen.append((cand, kernel))
        return check(cand, collect_witnesses, kernel)

    monkeypatch.setattr(iso, "check_perfection", spy)
    iso.search_perfect_isometries(src, tgt)
    monkeypatch.setattr(iso, "check_perfection", check)
    return seen


@pytest.fixture(scope="module")
def sweep(corpus, manifest):
    """The sweep's pairs, each with its brute-force certificates."""
    return [(s, t, brute_force(s, t))
            for s, t in sweep_pairs(corpus, manifest)]


@pytest.fixture(scope="module")
def sl23_self(corpus):
    ref = iso.block_ref(corpus["SL(2,3)"], 2, "B0")
    return ref, iso.search_perfect_isometries(ref, ref, bound=7)


class TestGram:
    def test_signed_permutation_matrices(self):
        assert gram_isometry([[1, 0], [0, -1]])
        assert gram_isometry([[0, 1], [-1, 0]])

    def test_repeated_column_rejected(self):
        assert not gram_isometry([[1, 1], [1, 1]])

    def test_non_square_rejected(self):
        assert not gram_isometry([[1, 0, 0], [0, 1, 0]])

    def test_check_isometry_matches_gram_identity(self, corpus):
        """Every signed map at n <= 3, with targets -1..n (out of range and
        repeated ones) and signs -1, 0, 1, 2, and maps of the wrong length:
        the O(n) test agrees with the Gram identity of the matrix."""
        ds = corpus["D10"]
        seen = set()
        for n in range(1, 4):
            ref = iso.BlockRef(ds, 5, Block("X", tuple(range(n)), (), 0))
            maps = list(itertools.product(
                itertools.product(range(-1, n + 1), repeat=n),
                itertools.product((-1, 0, 1, 2), repeat=n)))
            maps += [(tuple(range(m)), (1,) * s)
                     for m in (n - 1, n, n + 1) for s in (n - 1, n, n + 1)]
            for perm, signs in maps:
                cand = iso.IsometryCandidate(ref, ref, perm, signs)
                got = iso.check_isometry(cand)
                assert got == reference_isometry(cand), (perm, signs)
                seen.add(got)
        assert seen == {True, False}

class TestSearch:
    def test_nonempty(self, found):
        assert found

    def test_every_candidate_fully_checked(self, found):
        for cand in found:
            assert iso.check_isometry(cand)
            rep = iso.check_perfection(cand)
            assert rep.perfect
            ok, witnesses = iso.check_conductor_preservation(cand)
            assert ok and not witnesses
            assert iso.check_l0_preservation(cand)

    def test_closed_under_global_sign_flip(self, found):
        keys = {(c.permutation, c.signs) for c in found}
        for perm, signs in list(keys):
            assert (perm, tuple(-s for s in signs)) in keys

    def test_deterministic_order(self, a5_d10, found):
        again = iso.search_perfect_isometries(*a5_d10)
        assert [(c.permutation, c.signs) for c in again] == \
            [(c.permutation, c.signs) for c in found]
        # enumeration order: permutations lexicographic, plus-sign first
        keys = [(c.permutation, tuple(s < 0 for s in c.signs))
                for c in again]
        assert keys == sorted(keys)

    def test_self_search_contains_identity(self, corpus):
        ref = iso.block_ref(corpus["D10"], 5, "B0")
        n = len(ref.block.irr_indices)
        results = iso.search_perfect_isometries(ref, ref)
        assert any(c.permutation == tuple(range(n)) and c.signs == (1,) * n
                   for c in results)

    def test_size_mismatch_refused(self, corpus, a5_d10):
        src, _ = a5_d10
        other = iso.block_ref(corpus["A5"], 5, "B1")
        with pytest.raises(iso.IsometryError):
            iso.search_perfect_isometries(src, other)

    def test_bound_refused_with_count(self, a5_d10):
        with pytest.raises(iso.IsometryError, match="384"):
            iso.search_perfect_isometries(*a5_d10, bound=3)


class TestPrunedSearch:
    def test_equals_brute_force_on_every_sweep_pair(self, sweep):
        assert len(sweep) == 92
        for src, tgt, brute in sweep:
            assert keys(iso.search_perfect_isometries(src, tgt)) == keys(brute)

    def test_gram_form_matches_inner_products(self, sweep):
        # the view's (d, numerators): d the least common denominator of the
        # reference's entries, and each entry numerator / d
        for ref in {id(s): s for s, _, _ in sweep}.values():
            want = [[x.rational_value() for x in row]
                    for row in regular_gram(ref)]
            d, numerators = iso._view(ref).gram
            assert d == lcm(*[x.denominator for row in want for x in row])
            assert [[Fraction(a, d) for a in row]
                    for row in numerators] == want

    def test_kernel_matches_reference_on_every_leaf(self, sweep,
                                                    monkeypatch):
        # every candidate the pruned sweep checks, on the kernel the search
        # built, in both modes, against both references
        leaves = 0
        for src, tgt, _ in sweep:
            products = value_products(src, tgt)
            for cand, kernel in searched_leaves(src, tgt, monkeypatch):
                leaves += 1
                for collect in (False, True):
                    got = outcome(iso.check_perfection(cand, collect, kernel))
                    assert got == outcome(
                        reference_perfection(cand, products, collect))
                    assert got == outcome(
                        reference_cell_perfection(cand, collect))
        assert leaves == 548

    def test_gram_matchings_equal_a_filter_of_every_bijection(self, corpus):
        # every pair of blocks with as many characters, at any primes
        refs = [iso.BlockRef(ds, p, b) for ds in corpus.values()
                for p in ds.primes for b in ds.blocks(p)]
        forms = [iso._view(ref).gram[1] for ref in refs]
        pairs = [(a, b) for a in forms for b in forms if len(a) == len(b)]
        assert len(pairs) == 318
        assert sum(bool(iso._gram_matchings(a, b)) for a, b in pairs) == 266
        for g_src, g_tgt in pairs:
            assert iso._gram_matchings(g_src, g_tgt) == \
                gram_filter(g_src, g_tgt)

    def test_gram_matchings_on_seeded_forms(self):
        # symmetric integer forms with zeros off the diagonal and repeated
        # diagonal entries; g_tgt a signed permutation of g_src, changed
        # in one entry pair in every third
        rng, counts = random.Random(32), set()
        for trial in range(120):
            n = rng.randint(1, 6)
            g_src = [[0] * n for _ in range(n)]
            for i in range(n):
                g_src[i][i] = rng.choice((1, 2, 2))
                for k in range(i):
                    g_src[i][k] = g_src[k][i] = rng.choice((0, 0, 1, -1))
            perm = rng.sample(range(n), n)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            g_tgt = [[0] * n for _ in range(n)]
            for i, k in itertools.product(range(n), repeat=2):
                g_tgt[perm[i]][perm[k]] = signs[i] * signs[k] * g_src[i][k]
            if trial % 3 == 0 and n > 1:
                i, k = rng.sample(range(n), 2)
                g_tgt[i][k] = g_tgt[k][i] = g_tgt[i][k] + 1
            found = iso._gram_matchings(g_src, g_tgt)
            assert found == gram_filter(g_src, g_tgt)
            counts.add(min(len(found), 2))
        assert counts == {0, 1, 2}

    def test_kernel_equals_the_flattened_build_on_every_leaf_pair(
            self, sweep, monkeypatch):
        # the kernel each search builds, on its leaves' (k, j), and one on
        # every (k, j); its failures on the certificates and on seeded
        # signed bijections, as the reference reads them
        rng, built, kinds = random.Random(33), 0, set()
        for src, tgt, brute in sweep:
            kernels = {id(k): k for _, k in searched_leaves(src, tgt,
                                                            monkeypatch)}
            if not kernels:
                continue
            (kernel,) = kernels.values()
            n = len(src.block.irr_indices)
            assert kernel_fields(kernel) == reference_kernel(
                src, tgt, kernel.packed)
            every = list(itertools.product(range(n), repeat=2))
            kernel = iso._PairKernel(src, tgt, every)
            assert kernel_fields(kernel) == reference_kernel(src, tgt, every)
            built += 1
            kinds |= failure_kinds(kernel, n, keys(brute), rng, 10)
        assert built == 40 and kinds == {False, True}

    def test_kernel_equals_the_flattened_build_on_f21(self, tmp_path,
                                                       monkeypatch):
        # the scale corpus's F21 = C_7 x| C_3, at order 21: its principal
        # 7-block against itself
        load_generator(monkeypatch).main(["--out", str(tmp_path),
                                          "--groups", "F21"])
        ref = iso.block_ref(load_corpus(tmp_path)["F21"], 7, "B0")
        every = list(itertools.product(range(5), repeat=2))
        kernel = iso._PairKernel(ref, ref, every)
        assert kernel.order == 21
        assert kernel_fields(kernel) == reference_kernel(ref, ref, every)
        assert failure_kinds(kernel, 5, keys(iso.search_perfect_isometries(
            ref, ref)), random.Random(21), 40) == {False, True}

    def test_leafless_pair_builds_no_kernel(self, sweep, monkeypatch):
        def refuse(*args):
            raise AssertionError("a kernel for a pair without leaves")

        leafless = [(s, t) for s, t, _ in sweep if not searched_leaves(
            s, t, monkeypatch)]
        monkeypatch.setattr(iso, "_PairKernel", refuse)
        assert len(leafless) == 52
        for src, tgt in leafless:
            assert iso.search_perfect_isometries(src, tgt) == []

    def test_one_view_per_block(self, manifest, monkeypatch):
        # a fresh load, so that no view is held yet: the sweep's 92 pairs
        # build one view for each of their 18 distinct blocks
        built = []

        class Counted(iso._BlockView):
            def __init__(self, ref):
                built.append((ref.dataset.name, ref.prime, ref.block.id))
                super().__init__(ref)

        monkeypatch.setattr(iso, "_BlockView", Counted)
        pairs = sweep_pairs(load_corpus(), manifest)
        for src, tgt in pairs:
            iso.search_perfect_isometries(src, tgt)
        assert len(pairs) == 92
        assert len(built) == len(set(built)) == 18

    def test_brute_force_certificates_preserve_gram_form(self, sweep):
        # the pruning rule, checked on every certificate it could have lost
        assert sum(len(brute) for _, _, brute in sweep) == 968
        for src, tgt, brute in sweep:
            g_src, g_tgt = regular_gram(src), regular_gram(tgt)
            for c in brute:
                pi, s = c.permutation, c.signs
                for i, k in itertools.product(range(len(pi)), repeat=2):
                    assert g_tgt[pi[i]][pi[k]] == s[i] * s[k] * g_src[i][k]

    def test_sl23_self_isometries(self, sl23_self):
        ref, found = sl23_self
        n = len(ref.block.irr_indices)
        assert n == 7 and len(found) == 48
        for cand in found:
            rep = iso.check_perfection(cand)
            assert rep.perfect and rep.conductor_preserved \
                and rep.l0_preserved and not rep.witnesses
        got = keys(found)
        assert (tuple(range(n)), (1,) * n) in got
        assert {(p, tuple(-x for x in s)) for p, s in got} == set(got)
        assert got == sorted(got, key=lambda k: (k[0],
                                                 tuple(x < 0 for x in k[1])))

    def test_sl23_refused_at_default_bound(self, sl23_self):
        ref, _ = sl23_self
        with pytest.raises(iso.IsometryError, match="645120"):
            iso.search_perfect_isometries(ref, ref)


class TestPerfection:
    def test_identity_self_isometry(self, corpus):
        ref = iso.block_ref(corpus["D10"], 5, "B0")
        n = len(ref.block.irr_indices)
        cand = iso.IsometryCandidate(ref, ref, tuple(range(n)), (1,) * n)
        rep = iso.check_perfection(cand)
        assert rep.perfect and rep.conductor_preserved and rep.l0_preserved

    def test_scrambled_bijection_fails_with_witness(self, a5_d10):
        src, tgt = a5_d10
        cand = iso.IsometryCandidate(src, tgt, (1, 0, 2, 3), (1, 1, 1, 1))
        rep = iso.check_perfection(cand)
        assert not rep.perfect and rep.witnesses

    def test_kernel_matches_reference_on_every_bijection(self, a5_d10):
        products = value_products(*a5_d10)
        kernel = iso._PairKernel(*a5_d10, itertools.product(range(4),
                                                            repeat=2))
        kinds, bijections = set(), 0
        for perm in itertools.permutations(range(4)):
            for signs in itertools.product((1, -1), repeat=4):
                cand = iso.IsometryCandidate(*a5_d10, perm, signs)
                for collect in (False, True):
                    got = iso.check_perfection(cand, collect, kernel)
                    assert outcome(got) == outcome(
                        reference_perfection(cand, products, collect))
                    assert outcome(got) == outcome(
                        reference_cell_perfection(cand, collect))
                kinds |= {w[0] for w in got.witnesses}
                bijections += 1
        assert bijections == 384
        assert kinds == {"separation", "integrality", "conductor", "l0"}

    def test_non_integral_value_raises(self):
        # the values are read when the block's view is first built and then
        # held, so the mutation goes into a fresh load before any check
        def identity(ds):
            ref = iso.block_ref(ds, 5, "B0")
            n = len(ref.block.irr_indices)
            return iso.IsometryCandidate(ref, ref, tuple(range(n)), (1,) * n)

        assert iso.check_perfection(identity(load_dataset(
            default_corpus_dir() / "D10.json"))).perfect
        ds = load_dataset(default_corpus_dir() / "D10.json")
        cand = identity(ds)
        ds.table.irreducibles[cand.source.block.irr_indices[-1]][0] = \
            CycloNum.from_rational(Fraction(1, 2))
        with pytest.raises(iso.IsometryError, match="1/2 is not an algebraic"):
            iso.check_perfection(cand)

    def test_irrational_gram_form_raises(self):
        ds = load_dataset(default_corpus_dir() / "D10.json")
        ref = iso.block_ref(ds, 5, "B0")
        ds.table.irreducibles[ref.block.irr_indices[-1]][0] = CycloNum.zeta(5)
        with pytest.raises(iso.IsometryError, match="not a rational number"):
            iso.search_perfect_isometries(ref, ref)

    def test_irrational_gram_form_names_its_first_entry(self):
        # the view computes the form when first built, so the mutation goes
        # into a fresh load: chi_1(2a) = -1 times E(3) is still integral,
        # and the first entry in (row, column) order, 10 <chi_0^0, chi_1^0>
        # = 1 + 5 * conj(-E(3)) = 6 + 5 E(3), is not rational
        ds = load_dataset(default_corpus_dir() / "D10.json")
        ref = iso.block_ref(ds, 5, "B0")
        row = ds.table.irreducibles[ref.block.irr_indices[1]]
        row[1] = row[1] * CycloNum.zeta(3)
        with pytest.raises(iso.IsometryError) as exc:
            iso.search_perfect_isometries(ref, ref)
        assert str(exc.value) == \
            "p-regular Gram form: not a rational number: 3/5+1/2*E(3)"

    def test_mu_at_identity_pair(self, found):
        # mu(1,1) passes both integrality divisions for a perfect candidate
        cand = found[0]
        rep = iso.check_perfection(cand)
        assert rep.integrality_ok

    def test_witnesses_equal_a_term_by_term_fold(self, a5_d10):
        """mu summed by one lincomb gives the witnesses a +/- fold gave."""
        src, tgt = a5_d10
        s_tab, t_tab = src.dataset.table, tgt.dataset.table
        products = value_products(src, tgt)
        rng = random.Random(5)

        def local_integer(x):
            return all(f.denominator % 5 for f in x.coeffs())

        checked = 0
        kinds = set()
        while checked < 12:
            perm = tuple(rng.sample(range(4), 4))
            signs = tuple(rng.choice((1, -1)) for _ in range(4))
            cand = iso.IsometryCandidate(src, tgt, perm, signs)
            rep = iso.check_perfection(cand)
            if rep.perfect:
                continue
            checked += 1
            expected = []
            for g in range(s_tab.num_classes):
                for h in range(t_tab.num_classes):
                    mu = ZERO
                    for k in range(4):
                        term = products[k][perm[k]][g][h]
                        mu = mu + term if signs[k] == 1 else mu - term
                    s_reg = s_tab.classes[g].element_order % 5 != 0
                    t_reg = t_tab.classes[h].element_order % 5 != 0
                    if s_reg != t_reg:
                        if mu:
                            expected.append(("separation", g, h, str(mu)))
                    elif not all(
                            local_integer(Fraction(1, tab.centralizer_order(c))
                                          * mu)
                            for tab, c in ((s_tab, g), (t_tab, h))):
                        expected.append(("integrality", g, h, str(mu)))
            _, conductor = iso.check_conductor_preservation(cand)
            expected += [("conductor",) + w for w in conductor]
            if not iso.check_l0_preservation(cand):
                expected.append(("l0",))
            assert rep.witnesses == expected
            kinds |= {w[0] for w in expected}
        assert kinds == {"separation", "integrality", "conductor", "l0"}

    def test_conductor_mismatch_witnessed(self, a5_d10):
        # pair the trivial character (conductor 1) with a conductor-5 one
        src, tgt = a5_d10
        # target positions 2, 3 are the degree-2 characters of conductor 5
        cand = iso.IsometryCandidate(src, tgt, (2, 0, 1, 3), (1, 1, 1, 1))
        ok, witnesses = iso.check_conductor_preservation(cand)
        assert not ok and witnesses


class TestPacking:
    @staticmethod
    def seeded(rng):
        """(signs, vectors, bound): up to 7 signed vectors of one length,
        fields within +-bound, and field 0 at +bound after its sign in every
        vector, so that its sum reaches the bound n * bound."""
        n, length = rng.randint(1, 7), rng.randint(1, 40)
        bound = rng.randint(1, 10 ** rng.randint(0, 6))
        signs = [rng.choice((1, -1)) for _ in range(n)]
        vectors = [[s * bound] + [rng.randint(-bound, bound)
                                  for _ in range(length - 1)] for s in signs]
        return signs, vectors, bound

    @staticmethod
    def packed_sum(signs, vectors, width):
        fields = [sum(map(operator.mul, signs, col)) for col in zip(*vectors)]
        x = sum(s * pack(v, width) for s, v in zip(signs, vectors))
        return fields, iso._unpack(x, width, offset(width, len(fields)))

    def test_sums_at_the_bound_round_trip(self):
        rng = random.Random(29)
        for _ in range(300):
            signs, vectors, bound = self.seeded(rng)
            width = (len(signs) * bound).bit_length() + 1
            want, got = self.packed_sum(signs, vectors, width)
            assert want[0] == len(signs) * bound and got == want

    def test_one_bit_narrower_reads_a_wrong_sum(self):
        rng = random.Random(29)
        for _ in range(300):
            signs, vectors, bound = self.seeded(rng)
            width = (len(signs) * bound).bit_length() + 1 - 1
            want, got = self.packed_sum(signs, vectors, width)
            assert got != want

    def test_kernel_width_is_the_bound_of_its_vectors(self, a5_d10):
        kernel = iso._PairKernel(*a5_d10, itertools.product(range(4),
                                                            repeat=2))
        count = len(kernel.cells) * kernel.phi
        largest = max(max(map(abs, iso._unpack(
            x, kernel.width, offset(kernel.width, count))))
            for x in kernel.packed.values())
        assert kernel.width == (4 * largest).bit_length() + 1

    def test_held_offsets_equal_offsets_packed_per_call(self, corpus,
                                                        a5_d10):
        # seeded signed bijections, passing and failing, on every kernel
        # of the A5/D10 pair and of F20's self-pairs at 2 and 5
        rng, kinds = random.Random(32), set()
        pairs = [a5_d10] + [(iso.block_ref(corpus["F20"], p, "B0"),) * 2
                            for p in (2, 5)]
        for src, tgt in pairs:
            n = len(src.block.irr_indices)
            kernel = iso._PairKernel(src, tgt, itertools.product(range(n),
                                                                 repeat=2))
            kinds |= failure_kinds(kernel, n, keys(
                iso.search_perfect_isometries(src, tgt)), rng, 100)
        assert kinds == {False, True}


class TestL0:
    def test_integer_check_equals_cyclonum_reference(self, corpus, manifest):
        # a seeded sample of the signed bijections between nonzero-defect
        # blocks of at most 4 characters; most of them fail the check
        refs = [iso.BlockRef(corpus[entry["name"]], p, b)
                for entry in manifest["groups"] for p in entry["primes"]
                for b in partition_blocks(corpus[entry["name"]], p)
                if b.defect > 0 and len(b.irr_indices) <= 4]
        cands = [iso.IsometryCandidate(s, t, perm, signs)
                 for s in refs for t in refs
                 if len(s.block.irr_indices) == len(t.block.irr_indices)
                 for perm in itertools.permutations(
                     range(len(s.block.irr_indices)))
                 for signs in itertools.product((1, -1), repeat=len(perm))]
        verdicts = set()
        for cand in random.Random(20).sample(cands, 150):
            verdict = iso.check_l0_preservation(cand)
            assert verdict == reference_l0(cand), cand
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_gram_form_is_the_projection_onto_decomposition_columns(
            self, corpus, group_primes):
        # G = D C^-1 D^T: G^2 = G and G d = d for each column d of D
        blocks = 0
        for name, p in group_primes:
            ds = corpus[name]
            dec = ds.brauer(p).decomposition
            for b in ds.blocks(p):
                irrs = sorted(b.irr_indices)
                d, numerators = iso._view(iso.BlockRef(ds, p, b)).gram
                g = [[Fraction(a, d) for a in row] for row in numerators]
                assert [[sum(map(operator.mul, row, col)) for col in zip(*g)]
                        for row in g] == g, (name, p, b.id)
                for j in b.ibr_indices:
                    col = [dec[i][j] for i in irrs]
                    assert [sum(map(operator.mul, row, col))
                            for row in g] == col, (name, p, b.id, j)
                blocks += 1
        assert blocks == 34

    def test_inclusion_across_defect_ranks_equals_lattice_path(self, corpus):
        # sources of three Brauer characters onto targets of one: no map
        # carries G_S onto G_T, yet some map L0(S) into L0(T)
        sources = [iso.block_ref(corpus[g], 2, "B0") for g in ("A4", "A5")]
        targets = [iso.block_ref(corpus[g], 2, "B0") for g in ("C4", "F20")]
        bases = {id(s): l0_basis(s) for s in sources}
        rows = {id(t): regular_rows(t) for t in targets}
        preserved = checked = 0
        for src, tgt in itertools.product(sources, targets):
            for perm in itertools.permutations(range(4)):
                for signs in itertools.product((1, -1), repeat=4):
                    cand = iso.IsometryCandidate(src, tgt, perm, signs)
                    verdict = iso.check_l0_preservation(cand)
                    assert verdict == lattice_l0(cand, bases[id(src)],
                                                 rows[id(tgt)]), cand
                    preserved += verdict
                    checked += 1
        assert (checked, preserved) == (1536, 576)


class TestCertificates:
    def test_round_trip(self, corpus, found):
        data = json.loads(json.dumps(found[0].to_json()))
        cand = iso.candidate_from_json(data, corpus)
        assert cand.permutation == found[0].permutation
        assert cand.signs == found[0].signs
        assert cand.source.block.id == "B0"

    def test_unknown_group_rejected(self, corpus, found):
        data = found[0].to_json()
        data["source"]["group"] = "M11"
        with pytest.raises(iso.IsometryError):
            iso.candidate_from_json(data, corpus)

    def test_unknown_block_rejected(self, corpus, found):
        data = found[0].to_json()
        data["target"]["block"] = "B9"
        with pytest.raises(iso.IsometryError):
            iso.candidate_from_json(data, corpus)


def test_records_compare_and_hash_by_value(corpus, a5_d10, found):
    # blocks, residues and certificates are values: equal content is equal
    # and hashes equal, across separate computations
    a5 = corpus["A5"]
    first, second = partition_blocks(a5, 5), partition_blocks(a5, 5)
    assert first == second and first[0] is not second[0]
    assert {*first, *second} == set(first)

    m = build_residue_map(20, 5)
    one, zeta5 = (reduce_cyclo(m, x) for x in (CycloNum.from_rational(1),
                                               CycloNum.zeta(5)))
    assert one == zeta5 and hash(one) == hash(zeta5)  # zeta_5 -> 1 at p = 5
    assert one != reduce_cyclo(build_residue_map(10, 5), CycloNum.zeta(5))

    src, tgt = (iso.block_ref(ref.dataset, ref.prime, ref.block.id)
                for ref in a5_d10)
    again = iso.search_perfect_isometries(src, tgt)
    assert again == found and again[0] is not found[0]
    assert {*again, *found} == set(found) and len(set(found)) == len(found)
