import random
from fractions import Fraction

import pytest

from threewave.gaussian import gr
from threewave.poly import MultiPoly
from threewave.ratfunc import RationalFn, vanishes
from threewave.roots import find_roots
from threewave.symbols import table


@pytest.fixture()
def ctx():
    t = table("v", "delta:parameter", "gamma:parameter")
    return t, MultiPoly.var(t, "v"), t.get("v")


def test_quadratic_with_gaussian_roots(ctx):
    t, v, var = ctx
    res = find_roots(v * v + 1, var)
    assert res.fully_split()
    assert {r.text() for r in res.roots} == {"i", "-i"}


def test_linear_parameter_root(ctx):
    t, v, var = ctx
    d = MultiPoly.var(t, "delta")
    res = find_roots(2 * v - d, var)
    assert [r.text() for r in res.roots] == ["1/2*delta"]


def test_rational_root_splits_off_cubic(ctx):
    t, v, var = ctx
    p = (v - 1) * (v * v + v + 1)
    res = find_roots(p, var)
    assert [r.text() for r in res.roots] == ["1"]
    assert res.residual == (v * v + v + 1).monic()


def test_multiple_roots_reported_with_multiplicity(ctx):
    t, v, var = ctx
    p = (v + 2) * (v + 4) ** 2
    res = find_roots(p, var)
    assert sorted(r.text() for r in res.roots) == ["-2", "-4", "-4"]
    assert res.fully_split()


def test_monomial_factor_gives_zero_roots(ctx):
    t, v, var = ctx
    res = find_roots(v * v * (v - 3), var)
    assert sorted(r.text() for r in res.roots) == ["0", "0", "3"]


def test_every_root_verifies_exactly(ctx):
    t, v, var = ctx
    rng = random.Random(21)
    for _ in range(30):
        roots = [gr(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        p = MultiPoly.const(t, 1)
        for r in roots:
            p = p * (v - MultiPoly.const(t, r))
        res = find_roots(p, var)
        assert len(res.roots) == len(roots)
        for r in res.roots:
            assert vanishes([p], {var: r}, t)


def test_parameter_affine_root_reconstruction(ctx):
    t, v, var = ctx
    d = MultiPoly.var(t, "delta")
    # (v - (1 + delta/3)) * (v^2 + 3)
    root = MultiPoly.const(t, 1) + d * gr(Fraction(1, 3))
    p = (v - root) * (v * v + 3)
    res = find_roots(p, var)
    texts = {r.text() for r in res.roots}
    assert "1/3*delta+1" in texts
    for r in res.roots:
        assert vanishes([p], {var: r}, t)


def test_discriminant_square_detection_with_parameters(ctx):
    t, v, var = ctx
    d = RationalFn.var(t, "delta")
    # (v - delta)(v + delta): discriminant 4*delta^2 is a perfect square
    dd = MultiPoly.var(t, "delta")
    p = v * v - dd * dd
    res = find_roots(p, var)
    assert res.fully_split()
    assert {r.text() for r in res.roots} == {"delta", "-delta"}
    # v^2 - delta: not a square in the field -> residual
    res2 = find_roots(v * v - dd, var)
    assert not res2.fully_split()
    assert res2.roots == ()


def test_state_symbol_contamination_rejected():
    t = table("v", "w", "delta:parameter")
    v, w = MultiPoly.var(t, "v"), MultiPoly.var(t, "w")
    with pytest.raises(ValueError):
        find_roots(v * w + 1, t.get("v"))


def test_overflowing_numeric_guesses_leave_a_residual(ctx):
    # Durand-Kerner overflows to nan on v^20 + 10^30; such guesses are
    # dropped and the factor comes back unsplit
    t, v, var = ctx
    p = v**20 + 10**30
    res = find_roots(p, var)
    assert res.roots == ()
    assert res.residual == p
