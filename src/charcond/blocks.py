"""p-blocks: central characters, defects, decomposition data, projectives.

Blocks are recovered from central-character residues and cross-checked
against the block labels shipped with each dataset; a mismatch is treated as
data corruption, not a soft failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclo import CycloNum, lincomb
from .residue import build_residue_map, reduce_cyclo


class BlockError(ValueError):
    pass


def nu_p(n: int, p: int) -> int:
    """p-adic valuation of a positive integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass
class BrauerData:
    """Modular character data at a prime p, ingested with the dataset."""

    p: int
    regular_classes: list[int]          # class indices of p-regular classes
    ibr: list[list[CycloNum]]           # rows = IBr, columns = regular_classes
    decomposition: list[list[int]]      # rows = Irr, columns = IBr
    block_of_irr: list[str]
    block_of_ibr: list[str]

    @property
    def num_ibr(self) -> int:
        return len(self.ibr)


@dataclass(frozen=True)
class Block:
    id: str
    irr_indices: frozenset[int]
    ibr_indices: frozenset[int]
    defect: int


def validate_brauer(table, bd: BrauerData, path: str):
    """Eager consistency checks for ingested Brauer data."""
    for j, row in enumerate(bd.ibr):
        if len(row) != len(bd.regular_classes):
            raise BlockError(f"{path}.ibr[{j}]: expected "
                             f"{len(bd.regular_classes)} values")
    if len(bd.decomposition) != table.num_classes:
        raise BlockError(f"{path}.decomposition: expected one row per "
                         f"irreducible character")
    # chi(s) = sum_phi D[chi,phi] phi(s) on every p-regular class
    for i, drow in enumerate(bd.decomposition):
        for col, s in enumerate(bd.regular_classes):
            acc = lincomb((e, ibr_row[col]) for e, ibr_row in zip(drow, bd.ibr))
            if acc != table.irreducibles[i][s]:
                raise BlockError(
                    f"{path}: decomposition row {i} does not reproduce the "
                    f"character value on regular class {s}")
    if linalg.rank(bd.ibr) != len(bd.ibr):
        raise BlockError(f"{path}.ibr: rows are linearly dependent")
    # D couples an Irr and an IBr only inside one block
    for i, drow in enumerate(bd.decomposition):
        for j, e in enumerate(drow):
            if e and bd.block_of_irr[i] != bd.block_of_ibr[j]:
                raise BlockError(
                    f"{path}: decomposition entry ({i},{j}) links blocks "
                    f"{bd.block_of_irr[i]!r} and {bd.block_of_ibr[j]!r}")
    for j in range(bd.num_ibr):
        if not any(drow[j] for drow in bd.decomposition):
            raise BlockError(f"{path}.decomposition: column {j} is zero")


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
    """Blocks of Irr(G) at p via central-character residues.

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
        ibrs = [j for j in range(bd.num_ibr)
                if any(bd.decomposition[i][j] for i in irrs)]
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
        out.append(Block(label, frozenset(irrs), frozenset(ibrs), defect))
    trivial = next(i for i in range(table.num_classes)
                   if all(v == 1 for v in table.irreducibles[i]))
    principal = next(b for b in out if trivial in b.irr_indices)
    if principal.defect != npg:
        raise BlockError(f"{ds.name} p={p}: principal block has defect "
                         f"{principal.defect}, expected {npg}")
    return out


def block_of(blocks: list[Block], chi: int) -> Block:
    return next(b for b in blocks if chi in b.irr_indices)


def projective_characters(table, bd: BrauerData):
    """Psi_phi = sum_chi D[chi,phi] chi; each vanishes off the regular classes."""
    from .tables import virtual_character
    regular = set(bd.regular_classes)
    out = []
    for j in range(bd.num_ibr):
        psi = virtual_character(table, [drow[j] for drow in bd.decomposition])
        for c in range(table.num_classes):
            if c not in regular and psi.values[c]:
                raise BlockError(
                    f"projective character {j} of {table.group_name} does not "
                    f"vanish on the p-singular class {c}")
        out.append(psi)
    return out


def cartan_matrix(bd: BrauerData) -> list[list[int]]:
    """C = D^T D."""
    k = bd.num_ibr
    return [[sum(row[i] * row[j] for row in bd.decomposition)
             for j in range(k)] for i in range(k)]


def block_component(psi, b: Block):
    """Truncate a virtual character to its coordinates inside one block."""
    from .tables import virtual_character
    coords = psi.integer_coords()
    masked = [c if i in b.irr_indices else 0 for i, c in enumerate(coords)]
    return virtual_character(psi.table, masked)
