"""Generalised decomposition numbers, on integers in Z[zeta_N].

For a p-element u with centralizer C = C_G(u) and s running over the
p-regular classes of C, the numbers d^u_{chi,phi} are the unique cyclotomic
integers with chi(us) = sum_phi d^u_{chi,phi} phi(s): IBr(C) is square and
invertible on those classes (`blocks.validate_brauer`).  Each section takes
one integer pass at one order N, the lcm of the orders of its values.
Brauer reciprocity against the projective characters Psi of C gives
|C| d^u_{chi,phi} = sum_s |s^C| chi(us) Psi_phi(s^-1), whose coordinates must
be divisible by |C| (the power basis is an integral basis of Z[zeta_N]).
Psi_phi is a Z>=0-combination of Irr(C), its coordinates a column of C's
decomposition matrix, so it is a character and Psi_phi(s^-1) is
conj Psi_phi(s): Psi_phi is formed at s from C's Irr values and the sums
are `cyclo.hermitian_int`, with no power map read.
The quotients must then reproduce every chi(us) as that product with IBr(C),
an independent check that pins the system's unique solution.  Callers read
`GroupDataset.gendec(p)`, which holds the result once per dataset and prime.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .cyclo import (CycloNum, hermitian_int, int_rows, lincomb_int, nu_p,
                    p_part, sum_products_int)


class GendecError(ValueError):
    pass


class SectionData:
    """One p-section: the class of u, its centralizer dataset (a
    `tables.GroupDataset` for C = C_G(u)) and gluing maps: `fusion`, C-class
    index -> G-class index; `u_in_centralizer`, the class of u in C;
    `u_times`, C-class of s -> C-class of u*s; `correspondent_block`, C-block
    id -> G-block id."""

    def __init__(self, u_class: int, centralizer, fusion: list[int],
                 u_in_centralizer: int, u_times: list[int],
                 correspondent_block: dict[str, str]):
        self.u_class, self.centralizer = u_class, centralizer
        self.fusion, self.u_in_centralizer = fusion, u_in_centralizer
        self.u_times, self.correspondent_block = u_times, correspondent_block


def validate_section(table, sec: SectionData, p: int, path: str):
    from .tables import DatasetError, _validate_fusion
    cent = sec.centralizer.table
    if not 0 <= sec.u_class < table.num_classes:
        raise DatasetError(f"{path}.u_class: bad class index {sec.u_class!r}")
    u_order = table.classes[sec.u_class].element_order
    if p_part(u_order, p) != u_order:
        raise DatasetError(f"{path}.u_class: class {sec.u_class} has order "
                           f"{u_order}, not a power of {p}")
    if cent.group_order * table.classes[sec.u_class].size != table.group_order:
        raise DatasetError(
            f"{path}.centralizer: order {cent.group_order} != "
            f"{table.group_order}/{table.classes[sec.u_class].size}")
    _validate_fusion(cent, table, sec.fusion, f"{path}.fusion")
    uc = sec.u_in_centralizer
    if not (0 <= uc < cent.num_classes) or cent.classes[uc].size != 1:
        raise DatasetError(f"{path}.u_in_centralizer: class {uc} is not "
                           f"central in the centralizer")
    if sec.fusion[uc] != sec.u_class:
        raise DatasetError(f"{path}.u_in_centralizer: fuses to "
                           f"{sec.fusion[uc]}, not u_class {sec.u_class}")
    if len(sec.u_times) != cent.num_classes:
        raise DatasetError(f"{path}.u_times: expected {cent.num_classes} entries")
    regular_images = []
    for s, t in enumerate(sec.u_times):
        if not 0 <= t < cent.num_classes:
            raise DatasetError(f"{path}.u_times[{s}]: bad class index {t}")
        s_order = cent.classes[s].element_order
        if gcd(s_order, p) == 1:
            regular_images.append(t)
            if cent.classes[t].element_order != u_order * s_order:
                raise DatasetError(
                    f"{path}.u_times[{s}]: u*s has order "
                    f"{cent.classes[t].element_order}, expected "
                    f"{u_order * s_order}")
    if len(set(regular_images)) != len(regular_images):
        raise DatasetError(f"{path}.u_times: not injective on p-regular classes")


class GendecMatrix(namedtuple("GendecMatrix", "p columns entries")):
    """All numbers d^u_{chi,phi} at one prime, keyed by (u_class, phi index):
    `columns` lists the (u_class, IBr(C_G(u)) index) keys, and
    entries[(u_class, phi)] is that column over Irr(G)."""

    __slots__ = ()


def section_values(table, chi: int, sec: SectionData, p: int) -> list[CycloNum]:
    """chi(us) for s over the p-regular classes of the centralizer, in the
    order of its Brauer data."""
    return [table.irreducibles[chi][sec.fusion[sec.u_times[s]]]
            for s in sec.centralizer.brauer(p).regular_classes]


def gendec_all(ds, p: int) -> GendecMatrix:
    """Assemble d^u for all p-element classes, one integer pass per section.

    Also asserts that each entry is an algebraic integer in Q(zeta_{order(u)}),
    that the entries reproduce every chi(us), and that the u = 1 block equals
    the ingested decomposition matrix.
    """
    table = ds.table
    sections = ds.sections(p)
    if not sections:
        raise GendecError(f"{ds.name}: no section data at p={p}")
    gm = GendecMatrix(p, [], {})
    ident = table.identity_class
    for sec in sections:
        cent, bd = sec.centralizer.table, sec.centralizer.brauer(p)
        size = cent.group_order
        u_order = table.classes[sec.u_class].element_order
        chi_us = [section_values(table, chi, sec, p)
                  for chi in range(table.num_classes)]
        irr_s = [[row[s] for s in bd.regular_classes]
                 for row in cent.irreducibles]
        n, chi_us, irr_s, ibr = int_rows(chi_us, irr_s, bd.ibr)
        # Psi_phi(s) = sum_chi D[chi,phi] chi(s) over Irr(C)
        psi = [[[(e, c) for e, c in enumerate(lincomb_int(n, zip(coords, x)))
                 if c] for x in zip(*irr_s)]
               for coords in sec.centralizer.projectives(p)]
        weights = [cent.classes[s].size for s in bd.regular_classes]
        rows = []
        for chi, sums in enumerate(hermitian_int(n, weights, chi_us, psi)):
            rows.append([CycloNum(n, vec, size) for vec in sums])
            # the power basis is an integral basis of Z[zeta_n]
            for val in rows[-1]:
                if not val.is_algebraic_integer() or u_order % val.order:
                    raise GendecError(
                        f"{ds.name} p={p}: d^u entry {val} at u_class "
                        f"{sec.u_class} is not an algebraic integer of "
                        f"Q(zeta_{u_order})")
            # IBr(C) is square and invertible on C_p' (`validate_brauer`), so
            # entries reproducing every chi(us) are the system's only solution
            d = [val.int_terms(n) for val in rows[-1]]
            for k, value in enumerate(chi_us[chi]):
                triples = [(1, x, b[k]) for x, b in zip(d, ibr)]
                if any(sum_products_int(n, triples + [(-1, value, [(0, 1)])])):
                    raise GendecError(
                        f"{ds.name} p={p}: the d^u of character {chi} at "
                        f"u_class {sec.u_class} do not reproduce its value on "
                        f"centralizer class {bd.regular_classes[k]}; "
                        f"centralizer data is corrupted")
        for chi, drow in enumerate(ds.brauer(p).decomposition):
            if sec.u_class == ident and rows[chi] != drow:
                raise GendecError(
                    f"{ds.name} p={p}: ordinary decomposition numbers of "
                    f"character {chi} differ from the ingested matrix")
        for phi, col in enumerate(zip(*rows)):
            gm.columns.append((sec.u_class, phi))
            gm.entries[(sec.u_class, phi)] = list(col)
    return gm


def check_second_main(ds, p: int) -> list[tuple]:
    """Vanishing constraints on d^u; returns the list of violations.

    d^u_{chi,phi} must vanish when chi's block is not the correspondent of
    phi's centralizer block, and when order(u) exceeds p^defect of chi's block.
    """
    gm = ds.gendec(p)
    table = ds.table
    block_of_chi = {i: b for b in ds.blocks(p) for i in b.irr_indices}
    violations = []
    for sec in ds.sections(p):
        bd = sec.centralizer.brauer(p)
        u_order = table.classes[sec.u_class].element_order
        for phi in range(len(bd.ibr)):
            cent_block = bd.block_of_ibr[phi]
            g_block = sec.correspondent_block.get(cent_block)
            col = gm.entries[(sec.u_class, phi)]
            for chi, val in enumerate(col):
                if not val:
                    continue
                b = block_of_chi[chi]
                if g_block is not None and b.id != g_block:
                    violations.append((chi, sec.u_class, phi, "block"))
                if nu_p(u_order, p) > b.defect:
                    violations.append((chi, sec.u_class, phi, "defect"))
    return violations
