#!/usr/bin/env python3
"""Generate the shipped corpus of group datasets.

Offline tool.  Everything is computed from explicit permutation / matrix
generators: conjugacy classes, power maps, centralizers and fusion by element
arithmetic; character tables by simultaneous eigenvectors of the class-sum
matrices over a large prime field (lifted to exact cyclotomic values);
decomposition matrices as the minimal non-negative vectors of the lattice of
class functions vanishing on p-singular classes; block labels by linkage of
the decomposition matrix (deliberately a different method than the library's
central-character partition, so the two cross-validate); Brauer correspondents
by matching reduced central characters.

The finished files are re-validated with the library loader before writing.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path
from string import ascii_lowercase

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from charcond import linalg                      # noqa: E402
from charcond.cyclo import (CycloNum, cyclo_to_str, nu_p, p_part,  # noqa: E402
                            prime_factors)
from charcond.residue import build_residue_map, reduce_cyclo  # noqa: E402
from charcond.tables import load_dataset         # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "src" / "charcond" / "data"



# ---------------------------------------------------------------------------
# element arithmetic


def perm_mul(a, b):
    return tuple(a[x] for x in b)


def mat_mul3(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 3 for j in range(2))
        for i in range(2)
    )


class Group:
    """A concrete finite group: closed element set plus multiplication."""

    def __init__(self, gens, mul, identity):
        self.mul = mul
        self.identity = identity
        elems = {identity}
        frontier = [identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        self.elements = sorted(elems)
        self.order = len(self.elements)
        self._order_cache = {}
        self._classes = None

    def subgroup(self, gens) -> "Group":
        return Group(gens, self.mul, self.identity)

    def power(self, x, k: int):
        acc = self.identity
        base = x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def element_order(self, x) -> int:
        if x not in self._order_cache:
            n, y = 1, x
            while y != self.identity:
                y = self.mul(y, x)
                n += 1
            self._order_cache[x] = n
        return self._order_cache[x]

    def inverse(self, x):
        return self.power(x, self.element_order(x) - 1)

    @property
    def classes(self):
        """Conjugacy classes sorted by (element order, size, least element)."""
        if self._classes is None:
            seen = set()
            classes = []
            for x in self.elements:
                if x in seen:
                    continue
                orbit = {x}
                frontier = [x]
                while frontier:
                    y = frontier.pop()
                    for g in self.elements:
                        z = self.mul(self.mul(g, y), self.inverse(g))
                        if z not in orbit:
                            orbit.add(z)
                            frontier.append(z)
                seen |= orbit
                classes.append(sorted(orbit))
            classes.sort(key=lambda cl: (self.element_order(cl[0]), len(cl), cl[0]))
            self._classes = classes
        return self._classes

    @property
    def class_of(self):
        return {x: i for i, cl in enumerate(self.classes) for x in cl}

    @property
    def exponent(self) -> int:
        return lcm(*[self.element_order(cl[0]) for cl in self.classes])

    def centralizer(self, u) -> "Group":
        elems = [g for g in self.elements
                 if self.mul(g, u) == self.mul(u, g)]
        sub = Group([], self.mul, self.identity)
        sub.elements = sorted(elems)
        sub.order = len(elems)
        return sub


# ---------------------------------------------------------------------------
# mod-ell linear algebra


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _find_ell(e: int, bound: int) -> int:
    ell = e + 1
    while not (_is_prime(ell) and ell > bound):
        ell += e
    return ell


def _primitive_root(ell: int) -> int:
    qs = prime_factors(ell - 1)
    for g in range(2, ell):
        if all(pow(g, (ell - 1) // q, ell) != 1 for q in qs):
            return g
    raise AssertionError


class GF:
    """An element of F_ell with the +, -, *, truth testing and 1 / x that
    `linalg`'s elimination needs; ints mix in as their residues."""

    __slots__ = ("v", "ell")

    def __init__(self, v: int, ell: int):
        self.v, self.ell = v % ell, ell

    def _new(self, v):
        return GF(v, self.ell)

    def __add__(self, other):
        return self._new(self.v + getattr(other, "v", other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._new(self.v - getattr(other, "v", other))

    def __mul__(self, other):
        return self._new(self.v * getattr(other, "v", other))

    __rmul__ = __mul__

    def __neg__(self):
        return self._new(-self.v)

    def __rtruediv__(self, other):
        return self._new(other * pow(self.v, -1, self.ell))

    def __bool__(self):
        return bool(self.v)


def _gf_rows(mat, ell):
    return [[GF(x, ell) for x in row] for row in mat]


def _nullspace(mat, ell):
    """Basis of the right nullspace of a matrix over F_ell, read off its
    reduced form: one vector per free column c, 1 at c, 0 at the other free
    columns."""
    red, pivots = linalg.rref(_gf_rows(mat, ell))
    basis = []
    for c in range(len(mat[0])):
        if c not in pivots:
            v = [int(j == c) for j in range(len(mat[0]))]
            for i, pc in enumerate(pivots):
                v[pc] = (-red[i][c]).v
            basis.append(v)
    return basis


def _solve_mod(mat, rhs, ell):
    """Unique solution of an n x d system over F_ell (full column rank)."""
    d = len(mat[0])
    red, pivots = linalg.rref(_gf_rows([[*row, b] for row, b in zip(mat, rhs)],
                                       ell))
    assert pivots == list(range(d))
    return [red[i][-1].v for i in range(d)]


# ---------------------------------------------------------------------------
# character table by eigenvectors of the class-sum matrices


def character_table(G: Group):
    """Exact irreducible characters of G, rows sorted (trivial first, then
    by degree and printed values)."""
    classes = G.classes
    class_of = G.class_of
    k = len(classes)
    reps = [cl[0] for cl in classes]
    sizes = [len(cl) for cl in classes]
    e = G.exponent

    # class multiplication coefficients a[i][j][t]
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            counts = [0] * k
            for x in classes[i]:
                for y in classes[j]:
                    counts[class_of[G.mul(x, y)]] += 1
            for t in range(k):
                assert counts[t] % sizes[t] == 0
                a[i][j][t] = counts[t] // sizes[t]

    ell = _find_ell(e, 4 * G.order)
    # simultaneous eigenvectors of the matrices (A_i)_{jt} = a[i][j][t]
    spaces = [[[1 if r == c else 0 for c in range(k)] for r in range(k)]]
    for i in range(1, k):
        if all(len(b) == 1 for b in spaces):
            break
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            d = len(basis)
            images = [[sum(a[i][j][t] * v[t] for t in range(k)) % ell
                       for j in range(k)] for v in basis]
            bt = [[basis[s][j] for s in range(d)] for j in range(k)]
            R = [[0] * d for _ in range(d)]
            for s in range(d):
                col = _solve_mod(bt, images[s], ell)
                for t in range(d):
                    R[t][s] = col[t]
            found = 0
            for lam in range(ell):
                if found == d:
                    break
                shifted = [[(R[r][c] - (lam if r == c else 0)) % ell
                            for c in range(d)] for r in range(d)]
                ns = _nullspace(shifted, ell)
                if ns:
                    sub = [[sum(cvec[s] * basis[s][j] for s in range(d)) % ell
                            for j in range(k)] for cvec in ns]
                    new_spaces.append(sub)
                    found += len(ns)
            assert found == d
        spaces = new_spaces
    assert all(len(b) == 1 for b in spaces) and len(spaces) == k

    ident = class_of[G.identity]
    inv_class = [class_of[G.inverse(reps[j])] for j in range(k)]
    rows_mod = []
    for basis in spaces:
        w = basis[0]
        assert w[ident] % ell
        scale = pow(w[ident], -1, ell)
        w = [x * scale % ell for x in w]
        s = 0
        for j in range(k):
            s = (s + w[j] * w[inv_class[j]] * pow(sizes[j], -1, ell)) % ell
        deg_sq = G.order * pow(s, -1, ell) % ell
        deg = isqrt(deg_sq)
        assert deg * deg == deg_sq and 0 < deg * deg <= G.order
        chi = [deg * w[j] * pow(sizes[j], -1, ell) % ell for j in range(k)]
        rows_mod.append(chi)

    # lift to Q(zeta_e): z is the chosen order-e element of F_ell
    z = pow(_primitive_root(ell), (ell - 1) // e, ell)
    cls_pow = [[class_of[G.power(reps[j], t)] for t in range(e)]
               for j in range(k)]
    e_inv = pow(e, -1, ell)
    z_inv = pow(z, -1, ell)
    rows = []
    for chi in rows_mod:
        values = []
        for j in range(k):
            coeffs = {}
            for m in range(e):
                c = e_inv * sum(chi[cls_pow[j][t]] * pow(z_inv, m * t, ell)
                                for t in range(e)) % ell
                if c:
                    assert c <= isqrt(G.order), "lifted multiplicity too large"
                    coeffs[m] = c
            values.append(CycloNum.from_exponents(e, coeffs))
        rows.append(values)
    assert len({tuple(cyclo_to_str(v) for v in row) for row in rows}) == k
    rows.sort(key=lambda row: (
        0 if all(v == 1 for v in row) else 1,
        int(row[ident].rational_value()),
        tuple(cyclo_to_str(v) for v in row)))
    return rows


# ---------------------------------------------------------------------------
# Brauer data from the lattice of functions vanishing on p-singular classes


def _vanishing_constraints(rows, singular):
    """Integer matrix M with: v has sum v_i chi_i zero on the singular
    classes iff M v = 0 (the cyclotomic conditions expanded over Q)."""
    k = len(rows)
    out = []
    for s in singular:
        col = [rows[i][s] for i in range(k)]
        n = lcm(*[v.order for v in col])
        vecs = [v.coeffs(n) for v in col]
        for r in range(len(vecs[0])):
            row = [vecs[i][r] for i in range(k)]
            if any(row):
                den = lcm(*[f.denominator for f in row])
                out.append([int(f * den) for f in row])
    return out


def _integer_kernel(M, k):
    """Z-basis of {v : M v = 0} by integer column reduction."""
    A = [row[:] for row in M]
    U = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    free = list(range(k))
    for row_idx in range(len(A)):
        live = [c for c in free if A[row_idx][c]]
        while len(live) > 1:
            live.sort(key=lambda c: abs(A[row_idx][c]))
            b, a = live[0], live[1]
            q = A[row_idx][a] // A[row_idx][b]
            for r in range(len(A)):
                A[r][a] -= q * A[r][b]
            for r in range(k):
                U[r][a] -= q * U[r][b]
            live = [c for c in live if A[row_idx][c]]
        if live:
            free.remove(live[0])
    return [[U[r][c] for r in range(k)] for c in free]


def _monoid_indecomposables(candidates, deg_pos):
    """Elements of the candidate set that are not sums of two non-zero
    non-negative integer combinations of candidates."""
    gens = list(dict.fromkeys(candidates))
    memo = {}

    def degree(f) -> Fraction:
        return f[deg_pos].rational_value()

    def in_monoid(f) -> bool:
        if not any(f):
            return True
        if f in memo:
            return memo[f]
        memo[f] = False
        d = degree(f)
        for g in gens:
            if degree(g) <= d:
                h = tuple(x - y for x, y in zip(f, g))
                if degree(h) == 0 and any(h):
                    continue
                if in_monoid(h):
                    memo[f] = True
                    break
        return memo[f]

    out = []
    for x in gens:
        decomposable = False
        for g in gens:
            h = tuple(a - b for a, b in zip(x, g))
            if any(h) and degree(h) >= 0 and in_monoid(h):
                decomposable = True
                break
        if not decomposable:
            out.append(x)
    return out


# Decomposition matrices of the one non-solvable corpus group, rows in the
# (trivial, degree-ascending) order used here; classical data, re-verified
# below by the lattice-span, integrality and vanishing assertions.
A5_DECOMPOSITION = {
    2: [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 0]],
    3: [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 1, 0, 0]],
    5: [[1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]],
}


def brauer_data(rows, class_orders, group_order: int, p: int, hard_D=None):
    """Decomposition matrix, lifted Brauer characters and block labels.

    For p-solvable groups the Brauer characters are found via Fong-Swan:
    they are exactly the monoid-indecomposable restrictions of ordinary
    irreducibles to the p-regular classes.  Non-solvable entries supply
    their decomposition matrix directly (A5_DECOMPOSITION).
    """
    k = len(rows)
    ident = class_orders.index(1)
    degrees = [int(row[ident].rational_value()) for row in rows]
    regular = [i for i in range(k) if class_orders[i] % p != 0]
    singular = [i for i in range(k) if class_orders[i] % p == 0]

    if hard_D is not None:
        D = [row[:] for row in hard_D]
        drows = [[CycloNum.from_rational(x) for x in row] for row in D]
        ibr = [[None] * len(regular) for _ in range(len(D[0]))]
        for col_idx, s in enumerate(regular):
            sol = linalg.solve(drows, [rows[i][s] for i in range(k)])
            assert sol is not None
            for j, val in enumerate(sol):
                ibr[j][col_idx] = val
    else:
        restrictions = [tuple(rows[i][s] for s in regular) for i in range(k)]
        deg_pos = regular.index(ident)
        ibr_vals = _monoid_indecomposables(restrictions, deg_pos)
        ibr = [list(v) for v in ibr_vals]
        mat = [[ibr[j][c] for j in range(len(ibr))] for c in range(len(regular))]
        D = []
        for i in range(k):
            sol = linalg.solve(mat, list(restrictions[i]))
            assert sol is not None
            row = []
            for val in sol:
                q = val.rational_value()
                assert q.denominator == 1 and q >= 0, (i, str(val))
                row.append(int(q))
            D.append(row)
    ncols = len(D[0])
    assert ncols == len(regular), (ncols, len(regular))
    for row in ibr:
        assert all(v.is_algebraic_integer() for v in row)
    assert linalg.rank(ibr) == len(ibr)

    # sort the IBr columns: descending lexicographic decomposition column
    order = sorted(range(ncols),
                   key=lambda j: tuple(D[i][j] for i in range(k)),
                   reverse=True)
    D = [[row[j] for j in order] for row in D]
    ibr = [ibr[j] for j in order]

    # every column must vanish on the singular classes...
    for j in range(ncols):
        for s in singular:
            acc = CycloNum.from_rational(0)
            for i in range(k):
                if D[i][j]:
                    acc = acc + D[i][j] * rows[i][s]
            assert not acc, f"projective column {j} does not vanish"
    # ...and the columns must span the full lattice of virtual characters
    # vanishing there (they are its canonical basis)
    M = _vanishing_constraints(rows, singular)
    kernel = _integer_kernel(M, k) if M else \
        [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    assert len(kernel) == ncols
    dcols_frac = [[Fraction(D[i][j]) for j in range(ncols)] for i in range(k)]
    for v in kernel:
        sol = linalg.solve(dcols_frac, [Fraction(x) for x in v])
        assert sol is not None and all(f.denominator == 1 for f in sol), \
            "decomposition columns do not span the vanishing lattice"
    # blocks: connected components of Irr under shared decomposition columns
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in range(ncols):
        linked = [i for i in range(k) if D[i][j]]
        for i in linked[1:]:
            parent[find(i)] = find(linked[0])
    comps = {}
    for i in range(k):
        comps.setdefault(find(i), []).append(i)

    npg = nu_p(group_order, p)
    ordered = sorted(comps.values(),
                     key=lambda irrs: (-(npg - min(nu_p(degrees[i], p) for i in irrs)),
                                       min(irrs)))
    block_of_irr = [None] * k
    block_of_ibr = [None] * ncols
    for bi, irrs in enumerate(ordered):
        label = f"B{bi}"
        for i in irrs:
            block_of_irr[i] = label
        for j in range(ncols):
            if any(D[i][j] for i in irrs):
                block_of_ibr[j] = label
    assert all(l is not None for l in block_of_irr + block_of_ibr)
    return {
        "regular_classes": regular,
        "ibr": [[cyclo_to_str(v) for v in row] for row in ibr],
        "decomposition": D,
        "block_of_irr": block_of_irr,
        "block_of_ibr": block_of_ibr,
    }


# ---------------------------------------------------------------------------
# dataset assembly


_TABLE_CACHE: dict = {}


def cached_table(G: Group):
    key = tuple(G.elements)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = character_table(G)
    return _TABLE_CACHE[key]


def class_names(G: Group):
    """GAP-style names: the element order, then a letter per class of that
    order, a to z, then a1 to z1, a2, and so on."""
    names = []
    counts = {}
    for cl in G.classes:
        o = G.element_order(cl[0])
        k = counts.get(o, 0)
        names.append(f"{o}{ascii_lowercase[k % 26]}{k // 26 or ''}")
        counts[o] = k + 1
    return names


def classes_json(G: Group):
    class_of = G.class_of
    names = class_names(G)
    # all primes up to the largest element order, so that any g^k (k below
    # the order, e.g. inverses) can be composed from the stored maps
    max_order = max(G.element_order(cl[0]) for cl in G.classes)
    exp_primes = [q for q in range(2, max_order + 1) if _is_prime(q)]
    out = []
    for i, cl in enumerate(G.classes):
        rep = cl[0]
        out.append({
            "name": names[i],
            "size": len(cl),
            "order": G.element_order(rep),
            "powermaps": {str(q): class_of[G.power(rep, q)]
                          for q in exp_primes},
        })
    return out


def table_json(G: Group, name: str, primes):
    rows = cached_table(G)
    class_orders = [G.element_order(cl[0]) for cl in G.classes]
    obj = {
        "name": name,
        "order": G.order,
        "exponent": G.exponent,
        "classes": classes_json(G),
        "irreducibles": [[cyclo_to_str(v) for v in row] for row in rows],
    }
    if primes:
        # A5 is the only non-solvable corpus group, so the only one whose
        # Brauer characters are not covered by the Fong-Swan search
        is_a5 = G.order == 60 and len(G.classes) == 5
        obj["primes"] = {
            str(p): brauer_data(rows, class_orders, G.order, p,
                                A5_DECOMPOSITION[p] if is_a5 else None)
            for p in primes
        }
    return obj


def central_char_residues(rows, G: Group, bd, ambient: int, p: int):
    """Reduced central character per block label, as a tuple over classes."""
    rmap = build_residue_map(ambient, p)
    sizes = [len(cl) for cl in G.classes]
    ident = next(i for i, cl in enumerate(G.classes)
                 if G.element_order(cl[0]) == 1)
    out = {}
    for label in dict.fromkeys(bd["block_of_irr"]):
        i = bd["block_of_irr"].index(label)
        deg = int(rows[i][ident].rational_value())
        omega = [Fraction(sizes[c], deg) * rows[i][c]
                 for c in range(len(sizes))]
        out[label] = [reduce_cyclo(rmap, v) for v in omega]
    return out


def correspondent_blocks(G: Group, g_rows, g_bd, H: Group, h_rows, h_bd,
                         fusion, ambient: int, p: int):
    """For each block b of H, its Brauer correspondent b^G, found by matching
    the induced reduced central character; returns {h_label: g_label}."""
    rmap = build_residue_map(ambient, p)
    g_omegas = central_char_residues(g_rows, G, g_bd, ambient, p)
    h_ident = next(i for i, cl in enumerate(H.classes)
                   if H.element_order(cl[0]) == 1)
    h_sizes = [len(cl) for cl in H.classes]
    out = {}
    for label in dict.fromkeys(h_bd["block_of_irr"]):
        i = h_bd["block_of_irr"].index(label)
        deg = int(h_rows[i][h_ident].rational_value())
        induced = [CycloNum.from_rational(0) for _ in G.classes]
        for c in range(len(H.classes)):
            induced[fusion[c]] += Fraction(h_sizes[c], deg) * h_rows[i][c]
        induced = [reduce_cyclo(rmap, v) for v in induced]
        matches = [gl for gl, om in g_omegas.items()
                   if all(x == y for x, y in zip(om, induced))]
        if len(matches) == 1:
            out[label] = matches[0]
        else:
            assert not matches, f"ambiguous Brauer correspondent for {label}"
    return out


def fusion_map(H: Group, G: Group):
    g_class_of = G.class_of
    return [g_class_of[cl[0]] for cl in H.classes]


def section_json(G: Group, name: str, u_class: int, p: int, ambient: int,
                 g_rows, g_bd):
    u = G.classes[u_class][0]
    C = G.centralizer(u)
    ctable = table_json(C, f"C_{name}({class_names(G)[u_class]})", [p])
    fusion = fusion_map(C, G)
    c_class_of = C.class_of
    u_times = [c_class_of[G.mul(u, cl[0])] for cl in C.classes]
    c_rows = cached_table(C)
    corr = correspondent_blocks(G, g_rows, g_bd, C, c_rows,
                                ctable["primes"][str(p)], fusion, ambient, p)
    return {
        "u_class": u_class,
        "centralizer": ctable,
        "fusion": fusion,
        "u_in_centralizer": c_class_of[u],
        "u_times": u_times,
        "correspondent_block": corr,
    }


def dataset_json(G: Group, name: str, primes, subgroups=()):
    ambient = G.exponent
    obj = table_json(G, name, primes)
    obj = {"format": 1, "ambient": ambient, **obj}
    rows = cached_table(G)
    for p in primes:
        pobj = obj["primes"][str(p)]
        sections = []
        for u_class, cl in enumerate(G.classes):
            o = G.element_order(cl[0])
            if p_part(o, p) == o:
                sections.append(section_json(G, name, u_class, p, ambient,
                                             rows, pobj))
        pobj["sections"] = sections
    subs = []
    for sub_name, sub_group, sub_primes, flags in subgroups:
        stable = table_json(sub_group, sub_name, sub_primes)
        fusion = fusion_map(sub_group, G)
        sub_rows = cached_table(sub_group)
        meta = {}
        for p in sub_primes:
            corr = correspondent_blocks(
                G, rows, obj["primes"][str(p)], sub_group, sub_rows,
                stable["primes"][str(p)], fusion, ambient, p)
            meta[str(p)] = {
                "correspondent_block": {g: h for h, g in corr.items()},
                **flags.get(p, {}),
            }
        subs.append({"name": sub_name, "table": stable,
                     "fusion": fusion, "primes": meta})
    if subs:
        obj["subgroups"] = subs
    return obj


# ---------------------------------------------------------------------------
# the corpus


def affine_group(p: int, m: int) -> Group:
    """F_pm = C_p x| C_m acting on Z/p, generated by x -> x + 1 and
    x -> a x, a the least residue of multiplicative order m mod p; m must
    divide p - 1."""
    a = next(a for a in range(1, p)
             if min(k for k in range(1, p) if pow(a, k, p) == 1) == m)
    points = tuple(range(p))
    return Group([tuple((x + 1) % p for x in points),
                  tuple(a * x % p for x in points)], perm_mul, points)


def named_affine_group(name: str) -> Group | None:
    """The group "F<n>" names: F_pm with p the largest prime factor of n
    and m = n / p, if m divides p - 1; otherwise None."""
    if not (name[:1] == "F" and name[1:].isdigit() and int(name[1:]) > 1):
        return None
    n = int(name[1:])
    p = max(prime_factors(n))
    return affine_group(p, n // p) if (p - 1) % (n // p) == 0 else None


def build_groups():
    I2 = ((1, 0), (0, 1))
    c4 = Group([(1, 2, 3, 0)], perm_mul, tuple(range(4)))
    s3 = Group([(1, 0, 2), (1, 2, 0)], perm_mul, tuple(range(3)))
    d8 = Group([(1, 2, 3, 0), (3, 2, 1, 0)], perm_mul, tuple(range(4)))
    q8 = Group([((0, 2), (1, 0)), ((1, 1), (1, 2))], mat_mul3, I2)
    a4 = Group([(1, 2, 0, 3), (0, 2, 3, 1)], perm_mul, tuple(range(4)))
    sl23 = Group([((1, 1), (0, 1)), ((1, 0), (1, 1))], mat_mul3, I2)
    s4 = Group([(1, 0, 2, 3), (1, 2, 3, 0)], perm_mul, tuple(range(4)))
    a5 = Group([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)], perm_mul, tuple(range(5)))
    d10, f20 = affine_group(5, 2), affine_group(5, 4)
    expected = {"C4": 4, "S3": 6, "D8": 8, "Q8": 8, "A4": 12, "SL(2,3)": 24,
                "S4": 24, "A5": 60, "D10": 10, "F20": 20}
    groups = {"C4": c4, "S3": s3, "D8": d8, "Q8": q8, "A4": a4,
              "SL(2,3)": sl23, "S4": s4, "A5": a5, "D10": d10, "F20": f20}
    for n, g in groups.items():
        assert g.order == expected[n], (n, g.order)
    return groups


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Build the corpus of group datasets and write it, with "
                    "its manifest, to a directory.")
    parser.add_argument("--out", type=Path, default=OUT, metavar="DIR",
                        help="output directory (default: the shipped "
                             "src/charcond/data)")
    parser.add_argument("--groups", nargs="+", metavar="NAME",
                        help="build only these groups, in this order: names "
                             "of the shipped corpus, or F<n> for the affine "
                             "group F_pm = C_p x| C_m, p the largest prime "
                             "factor of n = pm and m dividing p - 1 (F21, "
                             "F42, F55); default: the shipped corpus")
    opts = parser.parse_args(argv)
    groups = build_groups()
    if opts.groups:
        chosen = {name: groups.get(name) or named_affine_group(name)
                  for name in opts.groups}
        unknown = [name for name, G in chosen.items() if G is None]
        if unknown:
            parser.error(f"unknown group {unknown[0]!r}")
        groups = chosen
    out = opts.out
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"format": 1, "groups": []}
    for name, G in groups.items():
        primes = prime_factors(G.order)
        if name == "S3":
            primes = primes + [5]       # exercises a prime not dividing |G|
        subgroups = []
        if name == "A5":
            # D10 = N_A5(P) for P a Sylow 5-subgroup; P is TI in A5
            d10_in_a5 = G.subgroup([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])
            assert d10_in_a5.order == 10
            subgroups.append(("D10", d10_in_a5, [5],
                              {5: {"ti": True, "covers_centralizer": True,
                                   "cyclic_defect": True}}))
        print(f"building {name} (order {G.order}, primes {primes})")
        obj = dataset_json(G, name, primes, subgroups)
        fname = name.replace("(", "").replace(")", "").replace(",", "") + ".json"
        path = out / fname
        path.write_text(json.dumps(obj, indent=1) + "\n")
        ds = load_dataset(path)     # full eager validation
        assert ds.name == name
        manifest["groups"].append({
            "name": name, "file": fname, "order": G.order, "primes": primes,
            "subgroups": [{"name": s[0], "primes": s[2]} for s in subgroups],
        })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest['groups'])} datasets to {out}")


if __name__ == "__main__":
    main()
