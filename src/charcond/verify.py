"""Executable forms of the conductor identities, with witness reports.

A failing record here is evidence of corrupted dataset ingredients, not a
soft condition: the identities are theorems.  Checks read the blocks,
projectives and d^u a dataset holds per prime (`GroupDataset.blocks` etc.);
every virtual character a check takes (an irreducible, a projective or a
sample) is its Irr coordinates, and a restriction's coordinates come from
the matrix its `SubgroupEmbedding` holds.  Every held value is stored
at its conductor, so Corollary 0.5 reads each d^u entry's p-part off its
order, and a restriction's conductor is that of the fused values.

Theorem 1 records run on integers.  For a column x of algebraic integers,
"the conductor p-part of sum a_i x_i is below t" says that Z-linear tests
of the a_i vanish (`cyclo.conductor_tests`).  So each side, the Irr columns
and the d^u columns, is held per dataset and prime as its test values per
level t and character (`_level_tests`).  Every conductor p-part comes from
one pass of `_p_parts` over some characters: it packs each level's tests of
those characters once, at a width chosen from the coefficients, and a
row's p-part is the largest t at which sum a_i * form_i is nonzero.  The
irreducible records are one pass, and each block's samples one more: each
sampled coordinate lies in [-3, 3], so one width serves the whole block.
The samples are the stream of `random.Random(seed).randint(-3, 3)`.
Projective invariance is one pass per character over its block, for chi
and every chi + Phi_j, on the Irr side only.  d^u is linear: adding Phi_j
keeps a d^u column exactly when Phi_j's own row is zero there, which is
held per dataset and prime; only a failing record's strings are built as
`CycloNum`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

from . import linalg
from .blocks import block_of
from .cyclo import (CycloNum, conductor_p, conductor_tests, int_rows,
                    lincomb_int, p_part, pack)
from .tables import GroupDataset, virtual_character


class CheckRecord:
    """One check of one character: `lhs` against `rhs`, with a witness."""

    def __init__(self, check: str, character: str, lhs, rhs, witness=None,
                 passed: bool = True):
        self.check, self.character = check, character
        self.lhs, self.rhs = lhs, rhs
        self.witness, self.passed = witness, passed


class VerificationReport:
    """The `CheckRecord`s of one suite on one group at one prime."""

    def __init__(self, check_name: str, group: str, prime: int):
        self.check_name, self.group, self.prime = check_name, group, prime
        self.records: list[CheckRecord] = []
        self.not_applicable = False

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, rec: CheckRecord):
        self.records.append(rec)


def _int_columns(ds: GroupDataset, p: int) -> tuple[list, list]:
    """(n, int_terms(n) per character), n the lcm of the value orders, of
    each Irr column and of each d^u column, in `GendecMatrix.columns` order."""
    def column(values):
        n, (col,) = int_rows([values])
        return n, col

    gm = ds.gendec(p)
    return ([column(c) for c in zip(*ds.table.irreducibles)],
            [column(gm.entries[c]) for c in gm.columns])


def virtual_gendec_row(ds: GroupDataset, p: int, coords) -> dict:
    """d^u_{psi,phi} for psi = sum coords_i chi_i, extended linearly, as
    (n, coordinates on the power basis of Z[zeta_n]) per column."""
    terms = [(a, i) for i, a in enumerate(coords) if a]
    columns = ds._held(p, "int columns", _int_columns, ds, p)[1]
    return {key: (n, lincomb_int(n, ((a, col[i]) for a, i in terms)))
            for key, (n, col) in zip(ds.gendec(p).columns, columns)}


def _level_tests(ds: GroupDataset, p: int) -> tuple[int, list]:
    """(largest |value|, per side [(t, test values per character)] in
    descending t): per level t, `conductor_tests` at t of each column that
    has one, on the character's reduced entry, all concatenated."""
    sides, bound = [], 0
    for columns in ds._held(p, "int columns", _int_columns, ds, p):
        levels = {}
        for n, col in columns:
            tests = [conductor_tests(n, lincomb_int(n, [(1, x)]), p)
                     for x in col]
            for level in zip(*tests):  # the same t for every character
                rows = levels.setdefault(level[0][0], [[] for _ in col])
                for row, (_, y) in zip(rows, level):
                    row.extend(y)
                    bound = max(bound, max(map(abs, y), default=0))
        sides.append(sorted(levels.items(), reverse=True))
    return bound, sides


def _p_parts(ds: GroupDataset, p: int, irrs, rows, weight: int):
    """Yields per side, Irr then d^u, the conductor p-part of sum a_i x_i
    for each row of coefficients a on the Irr indices irrs, with sum |a| <=
    weight.  Each level's tests of irrs are packed once, at a width w with
    2^w > weight * (largest |value|): each field of sum a * form_i then lies
    strictly between -2^w and 2^w, so the sum is 0 exactly when every field
    is.  Each level, in ascending t, is taken by every row whose sum is
    nonzero there, so each row keeps the largest."""
    bound, sides = ds._held(p, "level tests", _level_tests, ds, p)
    width = (bound * weight).bit_length()
    for levels in sides:
        parts = [1] * len(rows)
        for t, tests in reversed(levels):
            form = [pack(tests[i], width) for i in irrs]
            if any(form):
                parts = [t if sum(map(mul, row, form)) else c
                         for row, c in zip(rows, parts)]
        yield parts


def _records(ds: GroupDataset, p: int, irrs, draws,
             weight: int) -> list[CheckRecord]:
    """Theorem 1 records of (label, coordinates on the Irr indices irrs)
    draws with sum |a| <= weight, in one `_p_parts` pass: the conductor
    p-part of psi's Irr columns (lhs) against that of its d^u columns
    (rhs)."""
    sides = _p_parts(ds, p, irrs, [row for _, row in draws], weight)
    return [CheckRecord("conductor-identity", label, lhs, rhs,
                        passed=(lhs == rhs))
            for (label, _), lhs, rhs in zip(draws, *sides)]


def check_theorem1(ds: GroupDataset, p: int, coords,
                   label: str = "psi") -> CheckRecord:
    """c(psi)_p equals the conductor p-part of all its d^u values, for psi
    = sum coords_i chi_i, by `_records` on its support."""
    irrs = [i for i, a in enumerate(coords) if a]
    row = [coords[i] for i in irrs]
    return _records(ds, p, irrs, [(label, row)], sum(map(abs, row)))[0]


def check_cor05(ds: GroupDataset, p: int, chi: int) -> CheckRecord:
    """c(chi)_p is the maximum of the single-entry conductors c(d^u_{chi,phi}),
    read off the orders the held entries are stored at, with the first
    maximising (u_class, phi) as witness."""
    lhs = conductor_p(ds.table.irreducibles[chi], p)
    gm = ds.gendec(p)
    best, witness = 1, None
    for col in gm.columns:
        c = p_part(gm.entries[col][chi].order, p)
        if c > best or witness is None:
            best, witness = c, col
    return CheckRecord("conductor-maximum", f"chi{chi}", lhs, best, witness,
                       passed=(lhs == best))


def _moved_columns(ds: GroupDataset, p: int) -> list:
    """Per projective Phi_j in IBr order, its first non-ordinary d^u column
    (in `GendecMatrix.columns` order) with a nonzero entry, or None."""
    ident = ds.table.identity_class
    return [next((col for col, (_, vec) in virtual_gendec_row(
                     ds, p, phi).items()
                  if col[0] != ident and any(vec)), None)
            for phi in ds.projectives(p)]


def check_projective_invariance(ds: GroupDataset, p: int,
                                chi: int) -> CheckRecord:
    """Adding a projective character of chi's block changes neither the
    non-ordinary d^u rows nor the conductor p-part.  d^u is linear, so
    chi + Phi_j keeps a column exactly when Phi_j's row is 0 there; the
    p-parts of chi and of every chi + Phi_j are one pass over the block."""
    block = block_of(ds.blocks(p), chi)
    irrs, js = block.irr_indices, block.ibr_indices
    unit = [int(i == chi) for i in range(ds.table.num_classes)]
    psis = [unit] + [[a + b for a, b in zip(unit, ds.projectives(p)[j])]
                     for j in js]
    # every coordinate is >= 0, so a row's sum is its weight
    base_cond, *conds = next(_p_parts(ds, p, irrs, [
        [psi[i] for i in irrs] for psi in psis], max(map(sum, psis))))
    moved = ds._held(p, "moved columns", _moved_columns, ds, p)
    for j, psi, cond in zip(js, psis[1:], conds):
        if (col := moved[j]) is not None:
            was, now = (str(CycloNum(*virtual_gendec_row(ds, p, c)[col]))
                        for c in (unit, psi))
            return CheckRecord("projective-invariance", f"chi{chi}",
                               was, now, witness=(j, col), passed=False)
        if cond != base_cond:
            return CheckRecord("projective-invariance", f"chi{chi}",
                               base_cond, cond, witness=j, passed=False)
    return CheckRecord("projective-invariance", f"chi{chi}",
                       base_cond, base_cond)


def _block_mask(coords, b) -> list[int]:
    """The coordinates inside one block, the rest set to zero."""
    return [c if i in b.irr_indices else 0 for i, c in enumerate(coords)]


def _is_projective(pim_cols, coords) -> bool:
    """Whether the Irr coordinates are a sum of the columns (each a PIM's
    Irr coordinates) with integer coefficients >= 0.  The columns of one
    block are independent, so the one exact solution decides it."""
    x = linalg.solve([[Fraction(col[i]) for col in pim_cols]
                      for i in range(len(coords))], list(map(Fraction, coords)))
    return x is not None and all(a.denominator == 1 and a >= 0 for a in x)


def _cyclic_defect_records(ds, p, emb, g_block, h_block, report):
    """Per-character form for cyclic defect: 1_C Res chi = sign * gamma(chi)
    plus a projective of C, with c(gamma(chi))_p = c(chi)_p and gamma a
    bijection Irr(B) -> Irr(C)."""
    sub = emb.subgroup
    pim_cols = [sub.projectives(p)[j] for j in h_block.ibr_indices]
    chis = g_block.irr_indices
    options = {}
    for chi in chis:
        coords = _block_mask(emb.restriction[chi], h_block)
        options[chi] = [
            (j, sign) for j in h_block.irr_indices for sign in (1, -1)
            if _is_projective(pim_cols, [c - (sign if i == j else 0)
                                         for i, c in enumerate(coords)])]

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
        lhs = conductor_p(ds.table.irreducibles[chi], p)
        rhs = conductor_p(sub.table.irreducibles[j], p)
        report.add(CheckRecord("cyclic-defect-bijection", f"chi{chi}",
                               lhs, rhs, witness=(j, sign),
                               passed=(lhs == rhs)))
    report.add(CheckRecord("cyclic-defect-bijection", "gamma-bijective",
                           sorted(j for j, _ in gamma.values()),
                           list(h_block.irr_indices),
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
    g_blocks = ds.blocks(p)
    for emb in embs:
        info = emb.primes[p]
        h_by_id = {b.id: b for b in emb.subgroup.blocks(p)}
        for chi, row in enumerate(table.irreducibles):
            lhs = conductor_p(row, p)
            mid = conductor_p([row[c] for c in emb.fusion], p)
            report.add(CheckRecord("restriction-monotonic", f"chi{chi}",
                                   mid, lhs, witness=emb.name,
                                   passed=(mid <= lhs)))
            b = block_of(g_blocks, chi)
            target = info.correspondent_block.get(b.id)
            if info.ti and target is not None:
                comp = virtual_character(emb.subgroup.table, _block_mask(
                    emb.restriction[chi], h_by_id[target]))
                rhs = conductor_p(comp, p)
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
    """Seeded random elements of ZIrr(B), `count` per block B of ds at p:
    yields per block its Irr indices in order and its (label, coordinates on
    those indices).  The coordinates are the stream of
    `random.Random(seed).randint(-3, 3)`, drawn as CPython draws it: one
    getrandbits(3) each, values >= 7 rejected and drawn again."""
    bits = random.Random(seed).getrandbits
    for b in ds.blocks(p):
        irrs, vals = b.irr_indices, []
        size = len(irrs)
        # each value still owed takes at least one draw, so the next
        # count * size - len(vals) draws all belong to the stream
        while len(vals) < count * size:
            vals += [r - 3 for r in map(bits, [3] * (count * size - len(vals)))
                     if r < 7]
        yield irrs, [(f"{b.id}-rand{t}", vals[t * size:(t + 1) * size])
                     for t in range(count)]


def theorem1_suite(ds: GroupDataset, p: int, samples: int = 0,
                   seed: int = 0) -> VerificationReport:
    report = VerificationReport("conductor-identity", ds.name, p)
    k = ds.table.num_classes
    report.records = _records(ds, p, range(k), [
        (f"chi{c}", [int(i == c) for i in range(k)]) for c in range(k)], 1)
    for irrs, draws in random_virtual_characters(ds, p, samples, seed):
        if draws:
            report.records += _records(ds, p, irrs, draws, 3 * len(irrs))
    return report


def cor05_suite(ds: GroupDataset, p: int) -> VerificationReport:
    report = VerificationReport("conductor-maximum", ds.name, p)
    for chi in range(ds.table.num_classes):
        report.add(check_cor05(ds, p, chi))
    return report


def projective_invariance_suite(ds: GroupDataset,
                                p: int) -> VerificationReport:
    report = VerificationReport("projective-invariance", ds.name, p)
    for chi in range(ds.table.num_classes):
        report.add(check_projective_invariance(ds, p, chi))
    return report
