import random
from fractions import Fraction

import oracles
import pytest

from threewave.gaussian import GaussianRational, gr
from threewave.linalg import linear_solve
from threewave.poly import MultiPoly
from threewave.ratfunc import RationalFn
from threewave.symbols import table
from threewave.uniqueness import build_constraints


@pytest.fixture()
def t():
    return table("alpha1:parameter", "alpha2:parameter")


def _c(t, v):
    return MultiPoly.const(t, v)


def _solve(A, b):
    """Solve A x = b through the homogeneous system [A | -b]: a null vector n
    with n[-1] != 0 (one exists exactly when A x = b is consistent) gives
    x = n[:-1] / n[-1]."""
    sol = linear_solve([list(row) + [-bi] for row, bi in zip(A, b)])
    n = next(n for n in sol.nullspace if not n[-1].is_zero())
    return sol, [c / n[-1] for c in n[:-1]]


def _apply(row, x):
    acc = RationalFn.const(row[0].table, 0)
    for a, v in zip(row, x):
        acc = acc + RationalFn.from_poly(a) * v
    return acc


def test_identity_system(t):
    one, zero = _c(t, 1), _c(t, 0)
    b = [MultiPoly.var(t, "alpha1"), _c(t, 7)]
    sol, x = _solve([[one, zero], [zero, one]], b)
    assert sol.rank == 2 and sol.nullity == 1
    assert x == [RationalFn.from_poly(v) for v in b]


def test_underdetermined_row(t):
    one = _c(t, 1)
    sol = linear_solve([[one, one]])
    assert sol.rank == 1 and sol.nullity == 1
    v = sol.nullspace[0]
    assert v[0] + v[1] == RationalFn.const(t, 0)


def test_parameter_entries(t):
    a1 = MultiPoly.var(t, "alpha1")
    a2 = MultiPoly.var(t, "alpha2")
    one = _c(t, 1)
    # [[a1, 1], [0, a2]] x = (1, a2)  ->  x2 = 1, x1 = 0... checked by residual below
    sol, x = _solve([[a1, one], [_c(t, 0), a2]], [one, a2])
    assert sol.rank == 2
    assert RationalFn.from_poly(a1) * x[0] + x[1] == RationalFn.const(t, 1)
    assert RationalFn.from_poly(a2) * x[1] == RationalFn.from_poly(a2)


def test_random_square_systems_reconstruct(t):
    rng = random.Random(31)
    a1 = MultiPoly.var(t, "alpha1")
    for trial in range(25):
        n = rng.randint(2, 4)
        A = [
            [
                _c(t, gr(Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
                + (a1 if rng.random() < 0.2 else _c(t, 0))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        xs = [_c(t, rng.randint(-3, 3)) for _ in range(n)]
        b = []
        for i in range(n):
            acc = _c(t, 0)
            for j in range(n):
                acc = acc + A[i][j] * xs[j]
            b.append(acc)
        _, x = _solve(A, b)
        # verify A * x == b exactly
        for i in range(n):
            assert _apply(A[i], x) == RationalFn.from_poly(b[i])


def test_nullspace_vectors_solve_homogeneous(t):
    rng = random.Random(17)
    for _ in range(10):
        rows, cols = 2, 4
        A = [[_c(t, rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        sol = linear_solve(A)
        assert sol.rank + sol.nullity == cols
        for vec in sol.nullspace:
            for i in range(rows):
                assert _apply(A[i], vec).is_zero()


def test_state_symbols_rejected():
    t2 = table("x", "alpha1:parameter")
    with pytest.raises(ValueError):
        linear_solve([[MultiPoly.var(t2, "x")]])


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        linear_solve([])


def _random_point(rng, params):
    return {
        p: GaussianRational(Fraction(rng.choice([n for n in range(-40, 41) if n]), rng.randint(1, 7)),
                            rng.choice((0, 0, 1)))
        for p in params
    }


@pytest.mark.parametrize("density", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
@pytest.mark.parametrize("seed", range(5))
def test_solve_agrees_with_dense_oracle_at_random_points(t, density, seed):
    # the generic rank is the rank at a random point, and every null vector
    # specializes into the null space of the matrix at that point
    rng = random.Random(1000 * seed + int(10 * density))
    A = oracles.random_parametric_matrix(rng, t, density)
    sol = linear_solve(A)
    ncols = len(A[0])
    assert sol.rank + sol.nullity == ncols
    for _ in range(3):
        point = _random_point(rng, t.parameters())
        rank, basis = oracles.dense_nullspace(
            [[oracles.naive_evaluate(e, point) for e in row] for row in A])
        assert sol.rank == rank
        for vec in sol.nullspace:
            at = [oracles.naive_evaluate(c.num, point) / oracles.naive_evaluate(c.den, point)
                  for c in vec]
            # a null vector is the combination of the basis with its own
            # entries in the free columns as weights
            combo = [sum((at[fc] * b[k] for fc, b in basis.items()), GaussianRational(0))
                     for k in range(ncols)]
            assert at == combo


@pytest.mark.parametrize("system, rank", [("modified", 29), ("three-wave", 30)])
def test_builtin_constraint_systems(system, rank):
    rows = build_constraints(system).rows
    sol = linear_solve(rows)
    assert (sol.rank, sol.nullity) == (rank, 30 - rank)
    for vec in sol.nullspace:
        for row in rows:
            assert _apply(row, vec).is_zero()
