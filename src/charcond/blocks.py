"""p-blocks: central characters, defects, decomposition data, projectives.

Blocks are recovered from central-character residues modulo the radical of
p (`residue`), which pick no prime above p, and cross-checked against the
block labels shipped with each dataset; a mismatch is treated as data
corruption, not a soft failure.  Brauer data is checked against its
validated table, on integers in Z[zeta_n], so IBr independence is a count,
and each of its labels must be one linkage class of the decomposition
matrix.  A `Block` holds its Irr and IBr indices as ascending tuples, in
the order its readers take them.
A projective character is held as its Irr coordinates, a column of the
decomposition matrix.  Callers read `GroupDataset.blocks(p)` and
`.projectives(p)`, which hold these results once per dataset and prime.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cyclo import CycloNum, int_rows, lincomb_int, nu_p
from .residue import build_residue_map, reduce_cyclo


class BlockError(ValueError):
    pass


class BrauerData:
    """Modular character data at a prime p, ingested with the dataset:
    `regular_classes`, the class indices of the p-regular classes; `ibr`,
    rows IBr and columns `regular_classes`; `decomposition`, rows Irr and
    columns IBr; and the block labels of Irr and of IBr."""

    def __init__(self, p: int, regular_classes: list[int],
                 ibr: list[list[CycloNum]], decomposition: list[list[int]],
                 block_of_irr: list[str], block_of_ibr: list[str]):
        self.p, self.regular_classes, self.ibr = p, regular_classes, ibr
        self.decomposition = decomposition
        self.block_of_irr, self.block_of_ibr = block_of_irr, block_of_ibr


class Block(namedtuple("Block", "id irr_indices ibr_indices defect")):
    """A p-block: its label, its Irr and IBr indices as ascending tuples,
    and its defect."""

    __slots__ = ()


def validate_brauer(table, bd: BrauerData, path: str):
    """Eager consistency checks of ingested Brauer data on a valid table."""
    for j, row in enumerate(bd.ibr):
        if len(row) != len(bd.regular_classes):
            raise BlockError(f"{path}.ibr[{j}]: expected "
                             f"{len(bd.regular_classes)} values")
    if len(bd.decomposition) != table.num_classes:
        raise BlockError(f"{path}.decomposition: expected one row per "
                         f"irreducible character")
    # chi(s) = sum_phi D[chi,phi] phi(s) on every p-regular class s, as one
    # integer sum in Z[zeta_n], n the lcm of the value orders at s
    for col, s in enumerate(bd.regular_classes):
        values = [row[col] for row in bd.ibr]
        n, (ibr, chis) = int_rows([values,
                                   [row[s] for row in table.irreducibles]])
        if None in ibr:
            j = ibr.index(None)
            raise BlockError(f"{path}.ibr[{j}][{col}]: value {values[j]} is "
                             f"not an algebraic integer")
        for i, (drow, chi) in enumerate(zip(bd.decomposition, chis)):
            if any(lincomb_int(n, [*zip(drow, ibr), (-1, chi)])):
                raise BlockError(
                    f"{path}: decomposition row {i} does not reproduce the "
                    f"character value on regular class {s}")
    # the valid table X is invertible, so its columns at the r distinct
    # p-regular classes have rank r; they equal D * IBr, so rank IBr = r, and
    # the IBr rows are independent exactly when there are r of them; rank D
    # is r too, so no column of D is zero
    if len(bd.ibr) != len(bd.regular_classes):
        raise BlockError(f"{path}.ibr: rows are linearly dependent")
    # D couples an Irr and an IBr only inside one block
    for i, drow in enumerate(bd.decomposition):
        for j, e in enumerate(drow):
            if e and bd.block_of_irr[i] != bd.block_of_ibr[j]:
                raise BlockError(
                    f"{path}: decomposition entry ({i},{j}) links blocks "
                    f"{bd.block_of_irr[i]!r} and {bd.block_of_ibr[j]!r}")
    # and each label is one linkage class of D, as Brauer's theorem makes
    # the p-blocks: grown from its first Irr through D's nonzero entries,
    # which keep it inside the label, by one Irr at least per round until
    # it is whole
    support = [{j for j, e in enumerate(r) if e} for r in bd.decomposition]
    for label in dict.fromkeys(bd.block_of_irr):
        want = {i for i, l in enumerate(bd.block_of_irr) if l == label}
        reach = {min(want)}
        for _ in want:
            cols = set().union(*(support[i] for i in reach))
            reach = {i for i, row in enumerate(support) if row & cols}
        if reach != want:
            raise BlockError(f"{path}: block {label!r} is not one linkage "
                             f"class of the decomposition matrix (irreducible "
                             f"{min(want - reach)} not linked to {min(want)})")


def central_character(table, chi: int) -> list[CycloNum]:
    """omega_chi: class K -> |K| chi(g) / chi(1); values are algebraic integers."""
    deg = table.degree(chi)
    out = []
    for c in range(table.num_classes):
        val = Fraction(table.classes[c].size, deg) * table.irreducibles[chi][c]
        if not val.is_algebraic_integer():
            raise BlockError(
                f"central character of irreducible {chi} is not integral at "
                f"class {c}; the table is not a character table")
        out.append(val)
    return out


def partition_blocks(ds, p: int) -> list[Block]:
    """Blocks of Irr(G) at p: classes of characters whose central
    characters agree modulo the radical of p.

    The computed partition must agree with the dataset's ingested block
    labels; disagreement raises, since it signals corrupted data.
    """
    table = ds.table
    bd = ds.brauer(p)
    rmap = build_residue_map(ds.ambient, p)
    residues = {}
    for i in range(table.num_classes):
        key = tuple(reduce_cyclo(rmap, v) for v in central_character(table, i))
        residues.setdefault(key, []).append(i)
    groups = sorted(residues.values(), key=min)
    npg = nu_p(table.group_order, p)
    blocks = []
    for irrs in groups:
        ibrs = [j for j in range(len(bd.ibr))
                if any(bd.decomposition[i][j] for i in irrs)]
        # the block of the degree-1 trivial character has defect nu_p(|G|)
        defect = npg - min(nu_p(table.degree(i), p) for i in irrs)
        blocks.append((defect, min(irrs), irrs, ibrs))
    blocks.sort(key=lambda b: (-b[0], b[1]))
    out = []
    for defect, _, irrs, ibrs in blocks:
        labels = {bd.block_of_irr[i] for i in irrs}
        labels |= {bd.block_of_ibr[j] for j in ibrs}
        if len(labels) != 1:
            raise BlockError(
                f"{ds.name} p={p}: computed block {sorted(irrs)} spans the "
                f"ingested labels {sorted(labels)}")
        label = labels.pop()
        if sorted(i for i, l in enumerate(bd.block_of_irr) if l == label) != irrs:
            raise BlockError(
                f"{ds.name} p={p}: ingested label {label!r} covers different "
                f"irreducibles than the central-character partition")
        out.append(Block(label, tuple(irrs), tuple(ibrs), defect))
    return out


def block_of(blocks: list[Block], chi: int) -> Block:
    return next(b for b in blocks if chi in b.irr_indices)


def projective_characters(bd: BrauerData) -> list[tuple[int, ...]]:
    """Psi_phi = sum_chi D[chi,phi] chi, as its Irr coordinates: column phi
    of D, in IBr order.

    Each Psi_phi vanishes on the p-singular classes, with nothing left to
    check once the data has loaded: the table's rows are orthogonal and it
    is square, so its columns are orthogonal too; chi = D * IBr on the
    p-regular classes, with IBr square and so invertible.  For p-singular g
    and each p-regular s, 0 = sum_chi chi(g) conj(chi(s)) = sum_phi
    Psi_phi(g) conj(phi(s)), hence every Psi_phi(g) = 0.
    """
    return list(zip(*bd.decomposition))


def cartan_matrix(bd: BrauerData) -> list[list[int]]:
    """C = D^T D."""
    k = len(bd.ibr)
    return [[sum(row[i] * row[j] for row in bd.decomposition)
             for j in range(k)] for i in range(k)]

