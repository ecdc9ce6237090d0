"""Exact Gaussian elimination over a field.

One kernel, `rref`, serves every exact linear problem in the package.  Its
entries need only +, -, *, truth testing and 1 / x, so the same code runs
over `Fraction` (the projectivity test, the corpus generator), over a prime
field (the generator's eigenspaces) and over `CycloNum` (the test references).
"""

from __future__ import annotations


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination; returns the
    reduced matrix and its pivot columns, in increasing order."""
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def solve(rows: list[list], rhs: list) -> list | None:
    """Solve a (possibly overdetermined) linear system exactly.

    Returns None when inconsistent.  Free columns, if any, are set to the
    field's zero; callers that need uniqueness should check rank first.
    """
    ncols = len(rows[0]) if rows else 0
    mat, pivots = rref([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    sol = [rhs[0] * 0] * ncols if ncols else []
    for i, c in enumerate(pivots):
        sol[c] = mat[i][-1]
    return sol


def rank(rows: list[list]) -> int:
    return len(rref(rows)[1])
