import importlib.util
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from charcond import gendec, linalg
from charcond.cyclo import _mul, conductor_tests, lincomb
from charcond.tables import load_corpus, load_manifest, virtual_character

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "generate_corpus.py"


def load_generator(monkeypatch):
    """tools/generate_corpus.py as a module, its sys.path edits undone with
    the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool prepends src/
    spec = importlib.util.spec_from_file_location("generate_corpus", GENERATOR)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


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


def all_datasets(corpus):
    """Every dataset the corpus loads: the groups, their section
    centralizers and their subgroups."""
    out = []
    for ds in corpus.values():
        out.append(ds)
        out += [sec.centralizer for p in ds.primes for sec in ds.sections(p)]
        out += [emb.subgroup for emb in ds.subgroups]
    return out


def nullspace(rows: list[list]) -> list[list]:
    """Basis of the right nullspace by `linalg.rref`, one vector per free
    column c: 1 at c, 0 at the other free columns."""
    ncols = len(rows[0]) if rows else 0
    if not ncols:
        return []
    mat, pivots = linalg.rref(rows)
    zero = rows[0][0] * 0
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [zero] * ncols
        v[c] = zero + 1
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][c]
        basis.append(v)
    return basis


def residue_add(m, a, b):
    """a + b for residues a, b of the map m, in F_p[x]/(Phi_n')."""
    return tuple((x + y) % m.p for x, y in zip(a, b))


def residue_mul(m, a, b):
    """a * b for residues a, b of the map m, in F_p[x]/(Phi_n'): one
    product on the power basis of Z[zeta_n'], then mod p."""
    return tuple(c % m.p for c in _mul(m.nprime, a, 1, b, 1))


def conductor_p_int(n, vec, p):
    """The p-part of the conductor of x = sum vec[j] * z^j in Z[zeta_n], on
    `reduce_int`'s basis: the first level of `conductor_tests` whose test
    is nonzero, or 1."""
    return next((t for t, y in conductor_tests(n, vec, p) if any(y)), 1)


def section_row(gm, chi, u_class):
    """The d^u_{chi,phi} of one section u, in `GendecMatrix.columns` order."""
    return [gm.entries[c][chi] for c in gm.columns if c[0] == u_class]


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
    """The reciprocity sum |C| d^u of the trivial character at the first IBr
    has its first coordinate halved: for S3, whose first section is u = 1
    with |C| = 6, that entry reads 1/2."""
    real = gendec.hermitian_int

    def halved(n, weights, rows, cols):
        sums = real(n, weights, rows, cols)
        sums[0][0][0] //= 2
        return sums
    monkeypatch.setattr(gendec, "hermitian_int", halved)


def inverse_class(table, c):
    """The class of g^-1 for g in class c, g^(order - 1), by walking the
    table's prime power maps one prime factor of the exponent at a time."""
    k, q = table.classes[c].element_order - 1, 2
    while k > 1:
        while k % q == 0:
            c, k = table.classes[c].power_maps[q], k // q
        q += 1
    return c if k else table.identity_class


def reciprocity_reference(table, chi, sec, p):
    """d^u_{chi,.} = (1/|C|) sum_{s in C_p'} |s^C| chi(us) Psi(s^-1), with
    Psi the centralizer's projectives built from their Irr coordinates by
    `virtual_character` and read at s^-1 through the power maps, not by
    conjugation, by one lincomb per phi over CycloNum."""
    cent = sec.centralizer.table
    regular = sec.centralizer.brauer(p).regular_classes
    weights = [Fraction(cent.classes[s].size, cent.group_order)
               for s in regular]
    inverses = [inverse_class(cent, s) for s in regular]
    chi_us = gendec.section_values(table, chi, sec, p)
    psis = [virtual_character(cent, phi)
            for phi in sec.centralizer.projectives(p)]
    return [lincomb((w, val * psi[sinv])
                    for w, val, sinv in zip(weights, chi_us, inverses))
            for psi in psis]


def solve_reference(table, chi, sec, p):
    """Exact solve of chi(us) = sum_phi d_phi phi(s) over C_p'."""
    bd = sec.centralizer.brauer(p)
    rows = [[bd.ibr[j][col] for j in range(len(bd.ibr))]
            for col in range(len(bd.regular_classes))]
    return linalg.solve(rows, gendec.section_values(table, chi, sec, p))


@pytest.fixture(scope="session")
def reference_gendec(corpus, group_primes):
    """(group, p) -> (reciprocity, solve): the d^u of every corpus pair by
    the two CycloNum methods, each keyed like `GendecMatrix.entries`."""
    out = {}
    for name, p in group_primes:
        ds = corpus[name]
        both = ({}, {})
        for sec in ds.sections(p):
            for method, entries in zip((reciprocity_reference,
                                        solve_reference), both):
                rows = [method(ds.table, chi, sec, p)
                        for chi in range(ds.table.num_classes)]
                for phi, col in enumerate(zip(*rows)):
                    entries[(sec.u_class, phi)] = list(col)
        out[(name, p)] = both
    return out


def merge_centralizer_blocks(data):
    """SL(2,3) with its second 3-section's centralizer's two 3-blocks under
    one label, and the correspondence to match."""
    sec = data["primes"]["3"]["sections"][1]
    pdata = sec["centralizer"]["primes"]["3"]
    pdata["block_of_irr"] = ["B0"] * len(pdata["block_of_irr"])
    pdata["block_of_ibr"] = ["B0"] * len(pdata["block_of_ibr"])
    sec["correspondent_block"] = {"B0": "B0"}


def c8_brauer_at_4() -> dict:
    """A C8 dataset whose consistent Brauer data sit under the key "4",
    which is no prime: classes g^k with chi_j(g^k) = E(8)^(jk), regular
    classes g^0 and g^4 with IBr rows (1, 1) and (1, -1), D rows (1, 0)
    for even j and (0, 1) for odd j in blocks B0 and B1, and one section
    per class of order 1 or 4, each with C8 as its centralizer."""
    classes = [{"name": f"g{k}", "size": 1, "order": 8 // gcd(8, k),
                "powermaps": {str(q): k * q % 8 for q in (2, 3, 5, 7)}}
               for k in range(8)]
    table = {"name": "C8", "order": 8, "exponent": 8, "classes": classes,
             "irreducibles": [[f"E(8)^{j * k % 8}" if j * k % 8 else "1"
                               for k in range(8)] for j in range(8)]}
    brauer = {"regular_classes": [0, 4], "ibr": [["1", "1"], ["1", "-1"]],
              "decomposition": [[1 - j % 2, j % 2] for j in range(8)],
              "block_of_irr": [f"B{j % 2}" for j in range(8)],
              "block_of_ibr": ["B0", "B1"]}
    sections = [{"u_class": u, "centralizer": dict(table, primes={"4": brauer}),
                 "fusion": list(range(8)), "u_in_centralizer": u,
                 "u_times": [(u + s) % 8 for s in range(8)],
                 "correspondent_block": {"B0": "B0", "B1": "B1"}}
                for u in range(8) if classes[u]["order"] in (1, 4)]
    return dict(table, format=1, ambient=8,
                primes={"4": dict(brauer, sections=sections)})
