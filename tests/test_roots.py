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


def _certified_roots(monkeypatch):
    """Record, as text, every value the root finder's certificate accepts."""
    import threewave.roots as roots_module

    certified = []

    def recording(polys, bindings, table):
        ok = vanishes(polys, bindings, table)
        if ok:
            certified.extend(r.text() for r in bindings.values())
        return ok

    monkeypatch.setattr(roots_module, "vanishes", recording)
    return certified


def test_every_root_passes_the_certificate(ctx, monkeypatch):
    # closed forms (degree 1, the quadratic formula) are candidates like the
    # numeric guesses: each root is certified before it is divided out; roots
    # at zero come from the monomial factor v**k, divided out exactly
    t, v, var = ctx
    d = MultiPoly.var(t, "delta")
    cases = [
        2 * v - d,
        v * v + 1,
        v * v - d * d,
        (v - 1) * (v * v + v + 1),
        (2 * v - d) ** 2 * (v + 1) * (v * v + 3),
        v * v * (v - 3),
    ]
    for p in cases:
        certified = _certified_roots(monkeypatch)
        res = find_roots(p, var)
        nonzero = [r.text() for r in res.roots if not r.is_zero()]
        assert sorted(nonzero) == sorted(certified), p.text()
        assert len(res.roots) - len(nonzero) == min(p.as_univariate(var))


def _reassembles(p: MultiPoly, var) -> bool:
    """Whether p / (residual * prod(den_r*var - num_r)) is free of var."""
    res = find_roots(p, var)
    x = MultiPoly.var(p.table, var)
    product = res.residual
    for r in res.roots:
        product = product * (r.den * x - r.num)
    return p.exact_divide(product).degree(var) == 0


def test_roots_and_residual_reassemble_a_repeated_parametric_input(ctx):
    t, v, var = ctx
    d = MultiPoly.var(t, "delta")
    p = (2 * v - d) ** 2 * (v + 1) * (v * v + 3)
    res = find_roots(p, var)
    assert [r.text() for r in res.roots] == ["-1", "1/2*delta", "1/2*delta"]
    assert res.residual == v * v + 3
    assert _reassembles(p, var)


def test_roots_and_residual_reassemble_seeded_inputs(ctx):
    t, v, var = ctx
    d, g = MultiPoly.var(t, "delta"), MultiPoly.var(t, "gamma")
    rng = random.Random(32)

    def coefficient():
        return MultiPoly.const(t, gr(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-1, 1)))

    for _ in range(40):
        # non-monic products of linear factors (repeats and parameters
        # included) with a cofactor that may not split, times a content
        p = rng.choice([MultiPoly.const(t, 2), d + 1, d * g, 3 * g - 1])
        for _ in range(rng.randint(1, 4)):
            lead = rng.choice([MultiPoly.const(t, 1), MultiPoly.const(t, 2), d, coefficient()])
            if lead.is_zero():
                lead = d
            p = p * (lead * v - rng.choice([coefficient(), coefficient() + d, d * gr(Fraction(1, 2))]))
        cofactor = v * v + coefficient() * v + coefficient() + rng.choice([0 * d, d])
        p = p * rng.choice([MultiPoly.const(t, 1), cofactor, v])
        assert _reassembles(p, var), p.text()
    for _ in range(40):
        # random polynomials in v and delta, most of them without roots
        p = MultiPoly.zero(t)
        while p.degree(var) < 1:
            p = MultiPoly.zero(t)
            for _ in range(rng.randint(2, 5)):
                p = p + coefficient() * v ** rng.randint(0, 4) * d ** rng.randint(0, 2)
        assert _reassembles(p, var), p.text()
