"""Generalised decomposition numbers, by two independent methods.

For a p-element u with centralizer C = C_G(u) and s running over the
p-regular classes of C, the numbers d^u_{chi,phi} are the unique cyclotomic
integers with chi(us) = sum_phi d^u_{chi,phi} phi(s).  They are computed
both by Brauer reciprocity against the projective characters of C and by an
exact linear solve, and the two results are asserted equal.  Callers read
`GroupDataset.gendec(p)`, which holds the result once per dataset and prime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .cyclo import CycloNum, lincomb, nu_p, p_part


class GendecError(ValueError):
    pass


@dataclass
class SectionData:
    """One p-section: the class of u, its centralizer dataset and gluing maps."""

    u_class: int
    centralizer: "object"               # tables.GroupDataset for C_G(u)
    fusion: list[int]                   # C-class index -> G-class index
    u_in_centralizer: int
    u_times: list[int]                  # C-class of s -> C-class of u*s
    correspondent_block: dict[str, str]  # C-block id -> G-block id


def validate_section(table, sec: SectionData, p: int, path: str):
    from .tables import DatasetError, _validate_fusion
    cent = sec.centralizer.table
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
        if not (0 <= t < cent.num_classes):
            raise DatasetError(f"{path}.u_times[{s}]: bad class index {t!r}")
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


@dataclass
class GendecMatrix:
    """All numbers d^u_{chi,phi} at one prime, keyed by (u_class, phi index)."""

    p: int
    columns: list[tuple[int, int]]             # (u_class, IBr(C_G(u)) index)
    entries: dict[tuple[int, int], list[CycloNum]] = field(default_factory=dict)
    # entries[(u_class, phi)] is the column over Irr(G)

    def section_row(self, chi: int, u_class: int) -> list[CycloNum]:
        cols = [c for c in self.columns if c[0] == u_class]
        return [self.entries[c][chi] for c in cols]


def _regular_classes(sec: SectionData, p: int) -> list[int]:
    cent = sec.centralizer.table
    return [s for s in range(cent.num_classes)
            if cent.classes[s].element_order % p != 0]


def section_values(table, chi: int, sec: SectionData, p: int) -> list[CycloNum]:
    """chi(us) for s over the p-regular classes of the centralizer."""
    return [table.irreducibles[chi][sec.fusion[sec.u_times[s]]]
            for s in _regular_classes(sec, p)]


def gendec_reciprocity(table, chi: int, sec: SectionData, p: int
                       ) -> list[CycloNum]:
    """d^u_{chi,.} = (1/|C|) sum_{s in C_{p'}} chi(us) Psi(s^{-1}), with Psi
    the centralizer's projective characters at p."""
    from .tables import power_class
    cent = sec.centralizer.table
    regular = _regular_classes(sec, p)
    weights = [Fraction(cent.classes[s].size, cent.group_order)
               for s in regular]
    inverses = [power_class(cent, s, cent.classes[s].element_order - 1)
                for s in regular]
    chi_us = section_values(table, chi, sec, p)
    return [lincomb((w, val * psi.values[sinv])
                    for w, val, sinv in zip(weights, chi_us, inverses))
            for psi in sec.centralizer.projectives(p)]


def gendec_solve(table, chi: int, sec: SectionData, p: int) -> list[CycloNum]:
    """Exact solve of chi(us) = sum_phi d_phi phi(s) over the regular classes."""
    bd = sec.centralizer.brauer(p)
    regular = _regular_classes(sec, p)
    if regular != bd.regular_classes:
        raise GendecError("centralizer regular-class ordering disagrees with "
                          "its Brauer data")
    rows = [[bd.ibr[j][col] for j in range(bd.num_ibr)]
            for col in range(len(regular))]
    rhs = section_values(table, chi, sec, p)
    sol = linalg.solve(rows, rhs)
    if sol is None:
        raise GendecError(
            f"section at class {sec.u_class}: the Brauer-character system is "
            f"inconsistent; centralizer data is corrupted")
    return sol


def gendec_all(ds, p: int) -> GendecMatrix:
    """Assemble d^u for all p-element classes; both methods must agree.

    Also asserts the u = 1 block equals the ingested decomposition matrix and
    that every entry is an algebraic integer in Q(zeta_{order(u)}).
    """
    table = ds.table
    sections = ds.sections(p)
    if not sections:
        raise GendecError(f"{ds.name}: no section data at p={p}")
    gm = GendecMatrix(p=p, columns=[])
    ident = table.identity_class
    for sec in sections:
        bd = sec.centralizer.brauer(p)
        u_order = table.classes[sec.u_class].element_order
        cols = [[] for _ in range(bd.num_ibr)]
        for chi in range(table.num_classes):
            rec = gendec_reciprocity(table, chi, sec, p)
            sol = gendec_solve(table, chi, sec, p)
            if rec != sol:
                raise GendecError(
                    f"{ds.name} p={p}: reciprocity and solve disagree at "
                    f"u_class {sec.u_class}, character {chi}")
            for phi, val in enumerate(rec):
                if u_order % val.order or not val.is_algebraic_integer():
                    raise GendecError(
                        f"{ds.name} p={p}: d^u entry {val} at u_class "
                        f"{sec.u_class} is not an algebraic integer of "
                        f"Q(zeta_{u_order})")
                cols[phi].append(val)
        if sec.u_class == ident:
            for chi in range(table.num_classes):
                got = [cols[phi][chi] for phi in range(bd.num_ibr)]
                want = [CycloNum.from_rational(e)
                        for e in ds.brauer(p).decomposition[chi]]
                if got != want:
                    raise GendecError(
                        f"{ds.name} p={p}: ordinary decomposition numbers of "
                        f"character {chi} differ from the ingested matrix")
        for phi in range(bd.num_ibr):
            key = (sec.u_class, phi)
            gm.columns.append(key)
            gm.entries[key] = cols[phi]
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
        for phi in range(bd.num_ibr):
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
