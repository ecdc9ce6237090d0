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
What a block contributes is held once per (dataset, p, block), as
`_BlockView`: its distinct values as integer terms at its own order, with
an id per (character, class), each class's p-regularity and centralizer
p-part, and its Gram form below as integers.  A pair's `_PairKernel` keeps
the cells that can fail: a cell that does not separate and whose modulus
is 1 passes for every mu.  It rescales only the distinct values to N,
reduces each distinct product of a source and a target value once, and
packs it once (`cyclo.pack`), a field per coordinate, at a width taken from
the largest coordinate.  Each product chi_k(g) * psi_j(g') over the cells
is then one integer, assembled from those packed products in cell order
by one base-2 read, so that a candidate's mu on every cell is one signed
sum of n integers: the separating cells come first, and separation is a
zero test of the sum's low bits, and only the integrality fields are read
back.  A candidate that fails has its cells read in (g, g') order, which
the kernel holds, each as it is reached; the kernel decides each cell and
yields only the failing ones, each with its kind, so a check that needs no
witnesses stops at the first.  The kernel holds what a read adds to every
field (`_unpack`): for the integrality fields, for all of them and for one
cell.  A block's characters are read in the ascending order of
`Block.irr_indices`: position k of a candidate is its k-th character.

The search backtracks over partial assignments, into one list, and prunes
on the p-regular Gram form G = (<chi^0, psi^0>), which each block's view
computes from its own integer terms and holds as integer numerators over
one denominator: separation makes a perfect isometry commute with
restriction to p-regular classes, so it carries one block's form onto the
other's (Broue, Asterisque 181-182, 1990).
Every assignment that survives, a leaf, is still checked in full, so
pruning decides only which candidates are checked, never which pass; a
pair with no leaf builds no kernel.

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
from math import factorial, gcd, lcm

from .cyclo import (CycloNum, conductor_p, euler_phi, hermitian_int, int_rows,
                    p_part, pack, sum_products_int)
from .tables import DatasetError, GroupDataset, _require, _shape_fault


class IsometryError(ValueError):
    pass


class BlockRef(namedtuple("BlockRef", "dataset prime block")):
    """A `Block` of a `GroupDataset` at a prime; its characters are
    `block.irr_indices`, ascending."""

    __slots__ = ()


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
    """What `check_perfection` found: both conditions hold until a failing
    cell clears one.  `conductor_preserved` and `l0_preserved` stay None
    unless witnesses are collected."""

    def __init__(self, is_isometry: bool):
        self.is_isometry = is_isometry
        self.integrality_ok = self.separation_ok = True
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
    n = len(cand.source.block.irr_indices)
    if len(cand.target.block.irr_indices) != n:
        raise IsometryError("blocks have different numbers of characters")
    return (len(cand.permutation) == n and len(cand.signs) == n
            and set(cand.permutation) == set(range(n))
            and all(s in (1, -1) for s in cand.signs))


class _BlockView:
    """What the search and the perfection check read of one block, held per
    (dataset, p, block): `values`, its distinct values as `int_terms` at
    their own lcm `order`, each mapped to its id, in the order first read,
    and `ids[k][g]`, the id of character k's value at class g; each class's
    p-regularity and centralizer p-part; and its p-regular Gram form as (d,
    integer numerators over d), d the lcm of the entries' denominators.  |G|
    <chi^0, psi^0> = sum_s |s^G| chi(s) conj psi(s) over the p-regular
    classes s is one integer vector each; the form must be rational, so
    only its constant coordinate c may be nonzero, and with g = gcd(|G|,
    every c), d = |G| / g and c / g is the numerator over d."""

    def __init__(self, ref: BlockRef):
        table, p = ref.dataset.table, ref.prime
        rows = [table.irreducibles[i] for i in ref.block.irr_indices]
        bad = [v for row in rows for v in row if not v.is_algebraic_integer()]
        if bad:
            raise IsometryError(f"value {bad[0]} is not an algebraic integer")
        self.order, rows = int_rows(rows)
        self.values = at = {}
        self.ids = [[at.setdefault(tuple(x), len(at)) for x in row]
                    for row in rows]
        self.regular = [c.element_order % p != 0 for c in table.classes]
        self.cent = [p_part(table.centralizer_order(c), p)
                     for c in range(table.num_classes)]
        n, order = self.order, table.group_order
        regular = [c for c, reg in enumerate(self.regular) if reg]
        cut = [[row[c] for c in regular] for row in rows]
        sums = hermitian_int(n, [table.classes[c].size for c in regular],
                             cut, cut)
        for vec in (x for row in sums for x in row):
            if any(vec[1:]):
                raise IsometryError("p-regular Gram form: not a rational "
                                    f"number: {CycloNum(n, vec, order)}")
        g = gcd(order, *[vec[0] for row in sums for vec in row])
        self.gram = order // g, [[vec[0] // g for vec in row] for row in sums]


def _view(ref: BlockRef) -> _BlockView:
    return ref.dataset._held(ref.prime, ("view", ref.block.id), _BlockView,
                             ref)


def _unpack(x: int, width: int, offset: int) -> list[int]:
    """The fields of x = sum v_i * 2^(width * i), each |v_i| < 2^(width-1),
    given `offset`, that sum with every v_i = 2^(width-1): adding it makes
    each field a base-2^width digit.  Its top field is 2^(width-1), so
    its bit length is width times the count of fields."""
    half, digit, z = 1 << width - 1, (1 << width) - 1, x + offset
    return [(z >> shift & digit) - half
            for shift in range(0, offset.bit_length(), width)]


class _PairKernel:
    """mu on two blocks over Z[zeta_N], N the lcm of their orders.  `cells`
    are the class pairs (g, g') where mu can fail, the separating ones
    first, each with whether mu must vanish there and the modulus that must
    divide it: a cell that does not separate, of modulus 1, passes for
    every mu.  `packed[k, j]` is chi_k(g) * psi_j(g') on every cell, its
    phi(N) coordinates per cell packed as fields of `width` bits in `cells`
    order, for each (k, j) in `pairs`; a product of two values is reduced
    and packed once per kernel, however many cells and pairs it fills."""

    def __init__(self, src: BlockRef, tgt: BlockRef, pairs):
        s, t = _view(src), _view(tgt)
        self.order = n = lcm(s.order, t.order)
        self.phi = phi = euler_phi(n)
        xs, ys = ([[(e * (n // v.order), c) for e, c in x] for x in v.values]
                  for v in (s, t))
        grid = [(g, h, s_reg != t_reg, lcm(s.cent[g], t.cent[h]))
                for g, s_reg in enumerate(s.regular)
                for h, t_reg in enumerate(t.regular)
                if s_reg != t_reg or s.cent[g] * t.cent[h] > 1]
        self.cells = [c for c in grid if c[2]] + [c for c in grid if not c[2]]
        # (k, j)'s cells, last cell first, as the ids x * m + y of their
        # value pairs (x, y), m the target's count of values; a block pair's
        # values repeat, so each distinct product is reduced once
        m, rev = len(t.values), self.cells[::-1]
        ids = {(k, j): [s.ids[k][g] * m + t.ids[j][h] for g, h, _, _ in rev]
               for k, j in pairs}
        products = {xy: sum_products_int(n, ((1, xs[xy // m], ys[xy % m]),))
                    for xy in set().union(*ids.values())}
        # each field of a candidate's mu is a signed sum of len(s.ids)
        # fields of these products, so it lies within +-bound, bound =
        # len(s.ids) * top, top the largest |field|, and `_unpack` reads it
        # at the least width w with 2^(w-1) > bound
        top = max((max(map(abs, v)) for v in products.values()), default=0)
        self.width = w = (len(s.ids) * top).bit_length() + 1
        self._moduli = [c[3] for c in grid if not c[2] for _ in range(phi)]
        # `_unpack` offsets, 2^(w-1) in each of c fields as the sum of a
        # geometric series: for the integrality fields, all fields, one cell
        self._offsets = [(1 << w - 1) * ((1 << w * c) - 1) // ((1 << w) - 1)
                         for c in (len(self._moduli), len(grid) * phi, phi)]
        # each product packed, plus 2^(w-1) per field, is phi nonnegative
        # base-2^w digits, written here in base 2 (exempt from int()'s
        # digit limit); a (k, j) vector is its cells' digits read at once,
        # less the offset of all its fields
        blocks = {xy: format(pack(v, w) + self._offsets[2], f"0{w * phi}b")
                  for xy, v in products.items()}
        self.packed = {kj: int("".join(map(blocks.__getitem__, v)) or "0", 2)
                       - self._offsets[1] for kj, v in ids.items()}
        self._low = w * (len(grid) * phi - len(self._moduli))
        self._mask = (1 << self._low) - 1
        # (first bit, cell) of every cell in (g, g') order
        at = {c: i * phi * w for i, c in enumerate(self.cells)}
        self._order = [(at[c], c) for c in grid]

    def failures(self, x: int):
        """Nothing if x, a candidate's signed sum of `packed` vectors,
        vanishes on every separating cell (its low bits are 0: each field
        is less than 2^(width-1) in absolute value) and is divisible by
        every other cell's modulus.  Otherwise each failing cell as (kind,
        g, g', mu), kind "separation" or "integrality", in (g, g') order,
        each read as it is reached."""
        if not x & self._mask and not any(map(operator.mod, _unpack(
                x >> self._low, self.width, self._offsets[0]), self._moduli)):
            return
        z, cell = x + self._offsets[1], self._offsets[2]
        for bit, (g, h, separating, modulus) in self._order:
            mu = _unpack((z >> bit) - cell, self.width, cell)
            if separating and any(mu):
                yield "separation", g, h, mu
            elif not separating and any(c % modulus for c in mu):
                yield "integrality", g, h, mu


def check_perfection(cand: IsometryCandidate, collect_witnesses: bool = True,
                     kernel: _PairKernel | None = None) -> PerfectionReport:
    """`kernel`, the pair's `_PairKernel`, may be shared by many candidates
    whose (k, permutation[k]) pairs it holds."""
    report = PerfectionReport(check_isometry(cand))
    if not report.is_isometry:
        return report
    kernel = kernel or _PairKernel(cand.source, cand.target,
                                   enumerate(cand.permutation))
    x = sum(map(operator.mul, cand.signs,
                map(kernel.packed.__getitem__, enumerate(cand.permutation))))
    for kind, g, h, mu in kernel.failures(x):
        setattr(report, f"{kind}_ok", False)
        if not collect_witnesses:
            return report
        report.witnesses.append((kind, g, h, str(CycloNum(kernel.order, mu))))
    if collect_witnesses:
        report.conductor_preserved, wits = check_conductor_preservation(cand)
        report.witnesses.extend(("conductor",) + w for w in wits)
        report.l0_preserved = check_l0_preservation(cand)
        if not report.l0_preserved:
            report.witnesses.append(("l0",))
    return report


def _gram_matchings(g_src, g_tgt) -> list:
    """The signed bijections, sign +1 at position 0, that carry g_src onto
    g_tgt: g_tgt[perm[i]][perm[k]] = signs[i] * signs[k] * g_src[i][k] for
    all positions i, k.  A list of (perm, signs) pairs, by a backtrack in
    lexicographic order of perm, plus before minus at each position."""
    cols, found = list(zip(*g_tgt)), []

    def extend(perm, signs):
        k = len(perm)
        if k == len(g_src):
            found.append((perm, signs))
            return
        # what column j of g_tgt must hold at the placed rows perm, for
        # sign +1 and for -1 at position k; == stops at the first mismatch
        plus = [si * row[k] for si, row in zip(signs, g_src)]
        wants = ((1, plus), (-1, [-x for x in plus])) if k else ((1, plus),)
        for j, col in enumerate(cols):
            if col[j] == g_src[k][k] and j not in perm:
                got = [col[i] for i in perm]
                for s, want in wants:
                    if got == want:
                        extend(perm + (j,), signs + (s,))

    extend((), ())
    return found


def search_perfect_isometries(src: BlockRef, tgt: BlockRef,
                              bound: int = 6) -> list[IsometryCandidate]:
    """All signed bijections between the two blocks that are perfect
    isometries, in lexicographic (permutation, signs) order, plus before
    minus.  Only bijections that preserve the p-regular Gram form are
    checked, and of each pair {m, -m} only the one with a plus at position 0:
    -mu vanishes and is p-locally integral exactly where mu is."""
    n, m = len(src.block.irr_indices), len(tgt.block.irr_indices)
    if m != n:
        raise IsometryError(f"character counts differ: {n} vs {m}")
    if n > bound:
        raise IsometryError(
            f"search size 2^{n} * {n}! = {2 ** n * factorial(n)} exceeds the "
            f"bound for {n} characters (bound {bound})")
    (d_src, g_src), (d_tgt, g_tgt) = _view(src).gram, _view(tgt).gram
    # a signed bijection carrying one form onto the other keeps the set of
    # its entries' absolute values, and so their common denominator
    leaves = _gram_matchings(g_src, g_tgt) if d_src == d_tgt else []
    if not leaves:
        return []
    kernel = _PairKernel(src, tgt, {kj for perm, _ in leaves
                                    for kj in enumerate(perm)})
    found = []
    for perm, signs in leaves:
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
    for k, i in enumerate(src.block.irr_indices):
        j = tgt.block.irr_indices[cand.permutation[k]]
        lhs = conductor_p(src.dataset.table.irreducibles[i], src.prime)
        rhs = conductor_p(tgt.dataset.table.irreducibles[j], src.prime)
        if lhs != rhs:
            witnesses.append((i, j, lhs, rhs))
    return not witnesses, witnesses


def check_l0_preservation(cand: IsometryCandidate) -> bool:
    """The image of every element of L0(B) vanishes on the p-regular
    classes of the target group: G_T M (I - G_S) = 0, tested on the held
    numerators g = d G of each form as g_T M (d_S I - g_S) = 0."""
    (d, g_src), (_, g_tgt) = _view(cand.source).gram, _view(cand.target).gram
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
