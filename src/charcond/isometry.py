"""Perfect isometries between blocks: checking, complete search, and the
conductor / vanishing-lattice preservation consequences.

A candidate is a signed bijection between the irreducible characters of two
blocks.  Perfection is the two standard conditions on the associated
character mu(g, g') = sum chi(g) Phi(chi)(g'): integrality (mu divided by
either centralizer order is p-locally integral) and separation (mu vanishes
when exactly one argument is p-regular).

Both blocks' values lie in Z[zeta_N], N the lcm of their orders, with an
integral power basis: mu(g, g') is a signed sum of integer vectors, tested
for zero (separation) or divisibility by centralizer p-parts (integrality).

The search backtracks over partial assignments and prunes on the p-regular
Gram form G = (<chi^0, psi^0>), held per block on the dataset: separation
makes a perfect isometry commute with restriction to p-regular classes, so
it carries one block's form onto the other's (Broue, Asterisque 181-182, 1990).
Every assignment that survives is still checked in full, so pruning decides
only which candidates are checked, never which pass.

L0(B), the block's virtual characters vanishing on the p-regular classes,
is the kernel of that form G.  With D the block's decomposition matrix and
C = D^T D its Cartan matrix, chi^0 = D IBr and the projectives are dual to
IBr, so IBr's own form is C^-1 and G = D C^-1 D^T: the orthogonal
projection onto the span of D's columns.  Its kernel is the v with
D^T v = 0, the virtual characters vanishing on the p-regular classes, as
IBr is a basis of the class functions there.  So I - G projects onto
L0(B), and a signed bijection M maps L0(S) into L0(T) exactly when
G_T M (I - G_S) = 0: an inclusion, which also holds for some maps that do
not carry G_S onto G_T.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from math import factorial, lcm

from .blocks import Block
from .cyclo import (CycloError, CycloNum, conductor_p, int_rows, p_part,
                    sum_products_int)
from .tables import DatasetError, GroupDataset, _require, _shape_fault


class IsometryError(ValueError):
    pass


class BlockRef(namedtuple("BlockRef", "dataset prime block")):
    """A `Block` of a `GroupDataset` at a prime."""

    __slots__ = ()

    @property
    def irrs(self) -> tuple[int, ...]:
        return tuple(sorted(self.block.irr_indices))


class IsometryCandidate(namedtuple("IsometryCandidate",
                                   "source target permutation signs")):
    """Signed bijection between two `BlockRef`s: source character at
    position k maps to signs[k] times the target character at position
    permutation[k]."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "source": {"group": self.source.dataset.name,
                       "prime": self.source.prime, "block": self.source.block.id},
            "target": {"group": self.target.dataset.name,
                       "prime": self.target.prime, "block": self.target.block.id},
            "permutation": list(self.permutation),
            "signs": list(self.signs),
        }


class PerfectionReport:
    """What `check_perfection` found.  `conductor_preserved` and
    `l0_preserved` stay None unless witnesses are collected."""

    def __init__(self, is_isometry: bool, integrality_ok: bool,
                 separation_ok: bool):
        self.is_isometry = is_isometry
        self.integrality_ok, self.separation_ok = integrality_ok, separation_ok
        self.conductor_preserved: bool | None = None
        self.l0_preserved: bool | None = None
        self.witnesses: list = []

    @property
    def perfect(self) -> bool:
        return self.is_isometry and self.integrality_ok and self.separation_ok


def check_isometry(cand: IsometryCandidate) -> bool:
    """The map's matrix, signs[k] at (k, permutation[k]), has orthonormal
    columns exactly when the permutation is a bijection of range(n) and
    every sign is +1 or -1."""
    n = len(cand.source.irrs)
    if len(cand.target.irrs) != n:
        raise IsometryError("blocks have different numbers of characters")
    return (len(cand.permutation) == n and len(cand.signs) == n
            and set(cand.permutation) == set(range(n))
            and all(s in (1, -1) for s in cand.signs))


class _PairKernel:
    """mu on two blocks over Z[zeta_N].  `cells` are the class pairs (g, g'),
    each with whether mu must vanish there and the modulus that must divide
    it; `slice(k, j)` is chi_k(g) * psi_j(g') on every cell, on first use."""

    def __init__(self, src: BlockRef, tgt: BlockRef):
        s_tab, t_tab = src.dataset.table, tgt.dataset.table
        s_rows = [s_tab.irreducibles[i] for i in src.irrs]
        t_rows = [t_tab.irreducibles[j] for j in tgt.irrs]
        bad = [v for row in s_rows + t_rows for v in row
               if not v.is_algebraic_integer()]
        if bad:
            raise IsometryError(f"value {bad[0]} is not an algebraic integer")
        self.order, self._src, self._tgt = int_rows(s_rows, t_rows)
        s_reg = [c.element_order % src.prime != 0 for c in s_tab.classes]
        t_reg = [c.element_order % tgt.prime != 0 for c in t_tab.classes]
        self.cells = [
            (g, h, s_reg[g] != t_reg[h],
             lcm(p_part(s_tab.centralizer_order(g), src.prime),
                 p_part(t_tab.centralizer_order(h), tgt.prime)))
            for g in range(s_tab.num_classes) for h in range(t_tab.num_classes)]
        self._slices = {}

    def slice(self, k: int, j: int) -> list[list[int]]:
        if (k, j) not in self._slices:
            self._slices[k, j] = [sum_products_int(self.order, ((1, x, y),))
                                  for x in self._src[k] for y in self._tgt[j]]
        return self._slices[k, j]


def check_perfection(cand: IsometryCandidate, collect_witnesses: bool = True,
                     kernel: _PairKernel | None = None) -> PerfectionReport:
    """`kernel`, the pair's `_PairKernel`, may be shared by many candidates."""
    src, tgt = cand.source, cand.target
    report = PerfectionReport(check_isometry(cand), True, True)
    if not report.is_isometry:
        return report
    kernel = kernel or _PairKernel(src, tgt)
    slices = [kernel.slice(k, j) for k, j in enumerate(cand.permutation)]
    for cell, (g, h, separating, modulus) in enumerate(kernel.cells):
        mu = [sum(map(operator.mul, cand.signs, col))
              for col in zip(*[sl[cell] for sl in slices])]
        if separating:
            if not any(mu):
                continue
            report.separation_ok, kind = False, "separation"
        elif any(c % modulus for c in mu):
            report.integrality_ok, kind = False, "integrality"
        else:
            continue
        if not collect_witnesses:
            return report
        value = CycloNum(kernel.order, mu)
        report.witnesses.append((kind, g, h, str(value)))
    if collect_witnesses:
        ok, wits = check_conductor_preservation(cand)
        report.conductor_preserved = ok
        report.witnesses.extend(("conductor",) + w for w in wits)
        report.l0_preserved = check_l0_preservation(cand)
        if not report.l0_preserved:
            report.witnesses.append(("l0",))
    return report


def _integer_grams(src: BlockRef, tgt: BlockRef) -> tuple[int, list, list]:
    """(d, g_src, g_tgt): both blocks' p-regular Gram forms as integers over
    one common denominator d.  Every entry is rational, as G = D C^-1 D^T."""
    try:
        forms = [r.dataset.regular_gram(r.prime, r.block) for r in (src, tgt)]
    except CycloError as exc:
        raise IsometryError(f"p-regular Gram form: {exc}") from None
    den = lcm(*[f.denominator for form in forms for row in form for f in row])
    return (den, *[[[f.numerator * (den // f.denominator) for f in row]
                    for row in form] for form in forms])


def _gram_matchings(g_src, g_tgt, perm=(), signs=()):
    """Extensions of a partial signed bijection, sign +1 at position 0, that
    carry g_src onto g_tgt: g_tgt[perm[i]][perm[k]] = signs[i] * signs[k] *
    g_src[i][k] for all positions i, k.  Yields (perm, signs) pairs."""
    k = len(perm)
    if k == len(g_src):
        yield perm, signs
        return
    for j in range(len(g_tgt)):
        if j in perm or g_tgt[j][j] != g_src[k][k]:
            continue
        for s in (1, -1) if k else (1,):
            if all(g_tgt[pi][j] == s * si * g_src[i][k]
                   for i, (pi, si) in enumerate(zip(perm, signs))):
                yield from _gram_matchings(g_src, g_tgt,
                                           perm + (j,), signs + (s,))


def search_perfect_isometries(src: BlockRef, tgt: BlockRef,
                              bound: int = 6) -> list[IsometryCandidate]:
    """All signed bijections between the two blocks that are perfect
    isometries, in lexicographic (permutation, signs) order, plus before
    minus.  Only bijections that preserve the p-regular Gram form are
    checked, and of each pair {m, -m} only the one with a plus at position 0:
    -mu vanishes and is p-locally integral exactly where mu is."""
    n = len(src.irrs)
    if len(tgt.irrs) != n:
        raise IsometryError(
            f"character counts differ: {n} vs {len(tgt.irrs)}")
    if n > bound:
        raise IsometryError(
            f"search size 2^{n} * {n}! = {2 ** n * factorial(n)} exceeds the "
            f"bound for {n} characters (bound {bound})")
    kernel = _PairKernel(src, tgt)
    found = []
    for perm, signs in _gram_matchings(*_integer_grams(src, tgt)[1:]):
        cand = IsometryCandidate(src, tgt, perm, signs)
        if check_perfection(cand, collect_witnesses=False,
                            kernel=kernel).perfect:
            found += [cand, IsometryCandidate(src, tgt, perm,
                                              tuple(-s for s in signs))]
    found.sort(key=lambda c: (c.permutation, tuple(s < 0 for s in c.signs)))
    return found


def check_conductor_preservation(cand: IsometryCandidate):
    """c(chi)_p = c(image of chi)_p for every chi in the source block, p the
    source's prime."""
    src, tgt = cand.source, cand.target
    witnesses = []
    for k, i in enumerate(src.irrs):
        j = tgt.irrs[cand.permutation[k]]
        lhs = conductor_p(src.dataset.table.irreducibles[i], src.prime)
        rhs = conductor_p(tgt.dataset.table.irreducibles[j], src.prime)
        if lhs != rhs:
            witnesses.append((i, j, lhs, rhs))
    return not witnesses, witnesses


def check_l0_preservation(cand: IsometryCandidate) -> bool:
    """The image of every element of L0(B) vanishes on the p-regular
    classes of the target group: G_T M (I - G_S) = 0, tested on
    `_integer_grams`' integers as g_T M (d I - g_S) = 0."""
    d, g_src, g_tgt = _integer_grams(cand.source, cand.target)
    # g_T M: its column k is signs[k] times column permutation[k] of g_T
    gm = [[s * row[j] for j, s in zip(cand.permutation, cand.signs)]
          for row in g_tgt]
    return not any(d * x - sum(map(operator.mul, row, col))
                   for row in gm for x, col in zip(row, zip(*g_src)))


def block_ref(ds: GroupDataset, p: int, block_id: str) -> BlockRef:
    for b in ds.blocks(p):
        if b.id == block_id:
            return BlockRef(ds, p, b)
    raise IsometryError(f"{ds.name} has no block {block_id} at p={p}")


def candidate_from_json(data, corpus: dict) -> IsometryCandidate:
    """Rebuild a candidate from its certificate, resolving group names
    against a loaded corpus.  A certificate of the wrong shape raises
    DatasetError naming the field path; one naming no block of the corpus,
    IsometryError."""
    fault = _shape_fault(data, dict)
    if fault:
        raise DatasetError(f"certificate{fault}; a certificate is one object "
                           f"from the list that isometry-search --json prints")
    permutation, signs = (_require(data, key, [int], "certificate")
                          for key in ("permutation", "signs"))

    def side(key):
        entry = _require(data, key, dict, "certificate")
        group, prime, block = (
            _require(entry, name, kind, f"certificate.{key}")
            for name, kind in (("group", str), ("prime", int), ("block", str)))
        if group not in corpus:
            raise IsometryError(f"unknown group {group!r}")
        return block_ref(corpus[group], prime, block)

    return IsometryCandidate(side("source"), side("target"),
                             tuple(permutation), tuple(signs))
