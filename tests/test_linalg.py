"""The elimination kernel, checked against the defining properties of
solutions, rank and nullspace on seeded Fraction and CycloNum matrices; the
nullspace is the tests' own, built on `rref`."""

import random
from fractions import Fraction

import pytest
from conftest import nullspace

from charcond.cyclo import ONE, ZERO, CycloNum
from charcond.linalg import rank, rref, solve


def fraction_entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def cyclo_entry(rng):
    n = rng.choice((1, 3, 4))
    return CycloNum.from_exponents(
        n, {rng.randrange(n): fraction_entry(rng) for _ in range(2)})


# zero, one, random entry
FIELDS = {
    "fraction": (Fraction(0), Fraction(1), fraction_entry),
    "cyclo": (ZERO, ONE, cyclo_entry),
}

# rows, columns, rank
SHAPES = {
    "square": (4, 4, 4),
    "overdetermined": (6, 3, 3),
    "rank-deficient": (5, 5, 3),
    "wide": (2, 5, 2),
}


def matrix_of_rank(rng, field, nrows, ncols, r):
    """A matrix of rank exactly r, and the row index of a row that is a
    combination of others (None when the rows are independent).  The first
    r rows carry an identity block in r of the columns; the rest are random
    combinations of them; rows and columns are then shuffled."""
    zero, one, entry = field
    basis = [[one if j == i else zero for j in range(r)]
             + [entry(rng) for _ in range(ncols - r)] for i in range(r)]
    rows = basis + [
        [sum((c * row[j] for c, row in zip(coeffs, basis)), zero)
         for j in range(ncols)]
        for coeffs in ([entry(rng) for _ in range(r)]
                       for _ in range(nrows - r))]
    cols = rng.sample(range(ncols), ncols)
    order = rng.sample(range(nrows), nrows)
    matrix = [[rows[k][j] for j in cols] for k in order]
    return matrix, (order.index(r) if nrows > r else None)


def matvec(rows, x, zero):
    return [sum((a * b for a, b in zip(row, x)), zero) for row in rows]


@pytest.fixture(params=sorted(FIELDS))
def field(request):
    return FIELDS[request.param]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_solve_reproduces_consistent_rhs(field, shape):
    zero, _, entry = field
    nrows, ncols, r = SHAPES[shape]
    rng = random.Random(f"solve-{shape}")
    for _ in range(3):
        a, _ = matrix_of_rank(rng, field, nrows, ncols, r)
        x = [entry(rng) for _ in range(ncols)]
        b = matvec(a, x, zero)
        sol = solve(a, b)
        assert sol is not None and len(sol) == ncols
        assert matvec(a, sol, zero) == b
        assert all(type(v) is type(zero) for v in sol)
        if r == ncols:
            assert sol == x     # full column rank: the solution is unique


@pytest.mark.parametrize("shape", ["overdetermined", "rank-deficient"])
def test_solve_is_none_exactly_when_inconsistent(field, shape):
    zero, one, entry = field
    nrows, ncols, r = SHAPES[shape]
    rng = random.Random(f"inconsistent-{shape}")
    for _ in range(3):
        a, dependent = matrix_of_rank(rng, field, nrows, ncols, r)
        b = matvec(a, [entry(rng) for _ in range(ncols)], zero)
        assert solve(a, b) is not None
        # the dependent row's equation now contradicts the rows it combines
        b[dependent] = b[dependent] + one
        assert solve(a, b) is None


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rank_counts_pivots_of_a_reduced_form(field, shape):
    zero, one, _ = field
    nrows, ncols, r = SHAPES[shape]
    rng = random.Random(f"rank-{shape}")
    for _ in range(3):
        a, _ = matrix_of_rank(rng, field, nrows, ncols, r)
        mat, pivots = rref(a)
        assert rank(a) == len(pivots) == r
        assert rank([list(col) for col in zip(*a)]) == r     # row = column rank
        assert pivots == sorted(pivots)
        for i, c in enumerate(pivots):
            assert [row[c] for row in mat] == \
                [one if k == i else zero for k in range(nrows)]
        assert all(not x for row in mat[r:] for x in row)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_nullspace_spans_the_kernel(field, shape):
    zero, _, _ = field
    nrows, ncols, r = SHAPES[shape]
    rng = random.Random(f"nullspace-{shape}")
    for _ in range(3):
        a, _ = matrix_of_rank(rng, field, nrows, ncols, r)
        basis = nullspace(a)
        assert len(basis) == ncols - rank(a)
        for v in basis:
            assert matvec(a, v, zero) == [zero] * nrows
        if basis:
            assert rank(basis) == len(basis)


def test_empty_and_zero_matrices(field):
    zero, one, _ = field
    assert rref([]) == ([], [])
    assert solve([], []) == []
    assert rank([]) == 0
    assert nullspace([]) == []
    z = [[zero] * 3 for _ in range(2)]
    assert rank(z) == 0
    assert solve(z, [zero, zero]) == [zero] * 3
    assert all(type(v) is type(zero) for v in solve(z, [zero, zero]))
    assert solve(z, [zero, one]) is None
    assert nullspace(z) == [[one if j == i else zero for j in range(3)]
                            for i in range(3)]
