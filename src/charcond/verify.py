"""Executable forms of the conductor identities, with witness reports.

A failing record here is evidence of corrupted dataset ingredients, not a
soft condition: the identities are theorems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .blocks import (block_component, block_of, partition_blocks,
                     projective_characters)
from .cyclo import conductor_p, lincomb, p_part
from .gendec import GendecMatrix, gendec_all
from .tables import (ClassFunction, DatasetError, GroupDataset,
                     SubgroupEmbedding, char_conductor, virtual_character)


@dataclass
class CheckRecord:
    check: str
    character: str
    lhs: object
    rhs: object
    witness: object = None
    passed: bool = True


@dataclass
class VerificationReport:
    check_name: str
    group: str
    prime: int
    records: list[CheckRecord] = field(default_factory=list)
    not_applicable: bool = False

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, rec: CheckRecord):
        self.records.append(rec)


def virtual_gendec_row(gm: GendecMatrix, coords) -> dict:
    """d^u_{psi,phi} for psi = sum coords_i chi_i, extended linearly."""
    return {col: lincomb(zip(coords, gm.entries[col])) for col in gm.columns}


def check_theorem1(ds: GroupDataset, p: int, psi: ClassFunction,
                   gm: GendecMatrix | None = None,
                   label: str = "psi") -> CheckRecord:
    """c(psi)_p equals the conductor p-part of all its d^u values."""
    if gm is None:
        gm = gendec_all(ds, p)
    lhs = char_conductor(psi, p)
    row = virtual_gendec_row(gm, psi.integer_coords())
    rhs = conductor_p(row.values(), p)
    return CheckRecord("conductor-identity", label, lhs, rhs,
                       passed=(lhs == rhs))


def check_cor05(ds: GroupDataset, p: int, psi: ClassFunction,
                gm: GendecMatrix | None = None,
                label: str = "psi") -> CheckRecord:
    """c(psi)_p is the maximum of the single-entry conductors c(d^u_{psi,phi}),
    with a maximising (u_class, phi) witness."""
    if gm is None:
        gm = gendec_all(ds, p)
    lhs = char_conductor(psi, p)
    row = virtual_gendec_row(gm, psi.integer_coords())
    best, witness = 1, None
    for col in gm.columns:
        c = p_part(row[col].order, p)
        if c > best or witness is None:
            best, witness = c, col
    return CheckRecord("conductor-maximum", label, lhs, best, witness,
                       passed=(lhs == best))


def check_projective_invariance(ds: GroupDataset, p: int, chi: int,
                                gm: GendecMatrix | None = None,
                                blocks=None, projectives=None) -> CheckRecord:
    """Adding a projective character of chi's block changes neither the
    non-ordinary d^u rows nor the conductor p-part.  Pass the `blocks` and
    `projectives` of ds at p to share them across characters."""
    if gm is None:
        gm = gendec_all(ds, p)
    table = ds.table
    if blocks is None:
        blocks = partition_blocks(ds, p)
    if projectives is None:
        projectives = projective_characters(table, ds.brauer(p))
    b = block_of(blocks, chi)
    chi_fn = table.irreducible(chi)
    base_row = virtual_gendec_row(gm, chi_fn.integer_coords())
    base_cond = char_conductor(chi_fn, p)
    ident = table.identity_class
    for j in sorted(b.ibr_indices):
        psi = chi_fn + projectives[j]
        row = virtual_gendec_row(gm, psi.integer_coords())
        for col in gm.columns:
            if col[0] != ident and row[col] != base_row[col]:
                return CheckRecord("projective-invariance", f"chi{chi}",
                                   str(base_row[col]), str(row[col]),
                                   witness=(j, col), passed=False)
        if char_conductor(psi, p) != base_cond:
            return CheckRecord("projective-invariance", f"chi{chi}",
                               base_cond, char_conductor(psi, p),
                               witness=j, passed=False)
    return CheckRecord("projective-invariance", f"chi{chi}",
                       base_cond, base_cond)


def restrict(chi: ClassFunction, emb: SubgroupEmbedding) -> ClassFunction:
    """Restriction along the embedding; must decompose integrally over the
    subgroup's irreducible characters."""
    sub = emb.subgroup.table
    values = [chi.values[emb.fusion[c]] for c in range(sub.num_classes)]
    res = ClassFunction(sub, values)
    if not res.is_virtual_character():
        raise DatasetError(
            f"restriction to {emb.name} is not a virtual character; "
            f"fusion data is corrupted")
    return res


def _cyclic_defect_records(ds, p, emb, g_block, h_block, report):
    """Per-character form for cyclic defect: 1_C Res chi = sign * gamma(chi)
    plus a projective of C, with c(gamma(chi))_p = c(chi)_p and gamma a
    bijection Irr(B) -> Irr(C)."""
    table = ds.table
    sub = emb.subgroup
    h_bd = sub.brauer(p)
    pim_cols = [[h_bd.decomposition[i][j] for i in range(sub.table.num_classes)]
                for j in sorted(h_block.ibr_indices)]

    def is_projective(coords) -> bool:
        # greedy peel: subtract projective columns while possible
        cur = list(coords)
        changed = True
        while changed and any(cur):
            changed = False
            for col in pim_cols:
                while all(x >= y for x, y in zip(cur, col)):
                    cur = [x - y for x, y in zip(cur, col)]
                    changed = True
        return not any(cur)

    chis = sorted(g_block.irr_indices)
    options = {}
    for chi in chis:
        res = restrict(table.irreducible(chi), emb)
        comp = block_component(res, h_block)
        coords = comp.integer_coords()
        candidates = []
        for j in sorted(h_block.irr_indices):
            for sign in (1, -1):
                rest = [c - (sign if i == j else 0)
                        for i, c in enumerate(coords)]
                if all(x >= 0 for x in rest) and is_projective(rest):
                    candidates.append((j, sign))
        options[chi] = candidates

    # gamma must be a bijection; pick distinct representatives by backtracking
    def assign(idx, used):
        if idx == len(chis):
            return {}
        for j, sign in options[chis[idx]]:
            if j not in used:
                rest = assign(idx + 1, used | {j})
                if rest is not None:
                    rest[chis[idx]] = (j, sign)
                    return rest
        return None

    gamma = assign(0, set())
    if gamma is None:
        report.add(CheckRecord("cyclic-defect-bijection", "gamma-bijective",
                               {c: opts for c, opts in options.items()},
                               None, passed=False))
        return
    for chi in chis:
        j, sign = gamma[chi]
        lhs = char_conductor(table.irreducible(chi), p)
        rhs = char_conductor(sub.table.irreducible(j), p)
        report.add(CheckRecord("cyclic-defect-bijection", f"chi{chi}",
                               lhs, rhs, witness=(j, sign),
                               passed=(lhs == rhs)))
    report.add(CheckRecord("cyclic-defect-bijection", "gamma-bijective",
                           sorted(j for j, _ in gamma.values()),
                           sorted(h_block.irr_indices),
                           passed=True))


def check_restriction_props(ds: GroupDataset, p: int) -> VerificationReport:
    """Restriction suite: c(chi)_p = c(Res chi)_p = c(1_C Res chi)_p for
    blocks with a trivial-intersection defect group realised inside the
    flagged subgroup, plus the general monotonicity bound."""
    report = VerificationReport("restriction", ds.name, p)
    embs = [e for e in ds.subgroups if p in e.primes]
    if not embs:
        report.not_applicable = True
        return report
    table = ds.table
    g_blocks = partition_blocks(ds, p)
    for emb in embs:
        info = emb.primes[p]
        h_blocks = partition_blocks(emb.subgroup, p)
        h_by_id = {b.id: b for b in h_blocks}
        for chi in range(table.num_classes):
            chi_fn = table.irreducible(chi)
            lhs = char_conductor(chi_fn, p)
            res = restrict(chi_fn, emb)
            mid = char_conductor(res, p)
            report.add(CheckRecord("restriction-monotonic", f"chi{chi}",
                                   mid, lhs, witness=emb.name,
                                   passed=(mid <= lhs)))
            b = block_of(g_blocks, chi)
            target = info.correspondent_block.get(b.id)
            if info.ti and target is not None:
                comp = block_component(res, h_by_id[target])
                rhs = char_conductor(comp, p)
                report.add(CheckRecord(
                    "restriction-ti", f"chi{chi}", lhs, (mid, rhs),
                    witness=(emb.name, target),
                    passed=(lhs == mid == rhs)))
        if info.cyclic_defect:
            for g_id, h_id in info.correspondent_block.items():
                g_block = next(b for b in g_blocks if b.id == g_id)
                if g_block.defect > 0:
                    _cyclic_defect_records(ds, p, emb, g_block,
                                           h_by_id[h_id], report)
    return report


def random_virtual_characters(ds: GroupDataset, p: int, count: int,
                              seed: int = 0):
    """Seeded random elements of ZIrr(B), per block, coordinates in [-3, 3];
    yields (label, ClassFunction)."""
    rng = random.Random(seed)
    table = ds.table
    for b in partition_blocks(ds, p):
        irrs = sorted(b.irr_indices)
        for t in range(count):
            coords = [0] * table.num_classes
            for i in irrs:
                coords[i] = rng.randint(-3, 3)
            yield f"{b.id}-rand{t}", virtual_character(table, coords)


def theorem1_suite(ds: GroupDataset, p: int, samples: int = 0,
                   seed: int = 0,
                   gm: GendecMatrix | None = None) -> VerificationReport:
    if gm is None:
        gm = gendec_all(ds, p)
    report = VerificationReport("conductor-identity", ds.name, p)
    for chi in range(ds.table.num_classes):
        report.add(check_theorem1(ds, p, ds.table.irreducible(chi), gm,
                                  label=f"chi{chi}"))
    if samples:
        for label, psi in random_virtual_characters(ds, p, samples, seed):
            report.add(check_theorem1(ds, p, psi, gm, label=label))
    return report


def cor05_suite(ds: GroupDataset, p: int,
                gm: GendecMatrix | None = None) -> VerificationReport:
    if gm is None:
        gm = gendec_all(ds, p)
    report = VerificationReport("conductor-maximum", ds.name, p)
    for chi in range(ds.table.num_classes):
        report.add(check_cor05(ds, p, ds.table.irreducible(chi), gm,
                               label=f"chi{chi}"))
    return report


def projective_invariance_suite(ds: GroupDataset, p: int,
                                gm: GendecMatrix | None = None
                                ) -> VerificationReport:
    if gm is None:
        gm = gendec_all(ds, p)
    report = VerificationReport("projective-invariance", ds.name, p)
    blocks = partition_blocks(ds, p)
    projectives = projective_characters(ds.table, ds.brauer(p))
    for chi in range(ds.table.num_classes):
        report.add(check_projective_invariance(ds, p, chi, gm, blocks,
                                               projectives))
    return report
