import random

import pytest

from oracles import differential_maps, naive_substitute, oracle_pushforward, random_ratfn
from threewave import models
from threewave.errors import PoleTooHigh
from threewave.poly import MultiPoly
from threewave.gaussian import gr
from threewave.geometry import (
    Chart,
    ChartMap,
    VectorField,
    identity_map,
    jacobian_determinant,
    log_pole_decomposition,
    power_scaled_chart,
    pushforward,
)
from threewave.parsing import parse_expr
from threewave.ratfunc import RationalFn
from threewave.symbols import table


@pytest.fixture()
def simple():
    t = table("x", "y", "z", "X", "Y", "Z", "mu:parameter")
    src = Chart("S", (t.get("x"), t.get("y"), t.get("z")))
    dst = Chart("D", (t.get("X"), t.get("Y"), t.get("Z")), boundary=t.get("X"))
    return t, src, dst


def _reciprocal_map(t, src, dst):
    x, y, z = (RationalFn.var(t, n) for n in ("x", "y", "z"))
    X, Y, Z = (RationalFn.var(t, n) for n in ("X", "Y", "Z"))
    return ChartMap(src, dst, [1 / x, y / x, z / x], [1 / X, Y / X, Z / X])


def test_chart_map_rejects_non_invertible(simple):
    t, src, dst = simple
    x, y, z = (RationalFn.var(t, n) for n in ("x", "y", "z"))
    X, Y, Z = (RationalFn.var(t, n) for n in ("X", "Y", "Z"))
    with pytest.raises(ValueError):
        ChartMap(src, dst, [x * x, y, z], [X, Y, Z])


def test_pushforward_identity(simple):
    t, src, _ = simple
    v = VectorField(src, [parse_expr(e, t) for e in ("x^2 + y", "y*z", "-z")])
    w = pushforward(v, identity_map(src, t))
    assert w.components == v.components


def test_vector_field_hash_agrees_with_equality(simple):
    # equal fields whose terms were inserted in different orders, or that
    # live in different objects, hash alike and find each other as keys
    t, src, dst = simple
    texts = ("x^2 + y - mu*z + 3", "y*z - x", "-z + mu^2*x*y")
    v = VectorField(src, [parse_expr(e, t) for e in texts])
    flipped = VectorField(src, [
        RationalFn.from_poly(MultiPoly(t, dict(reversed(c.num.terms.items())))) for c in v.components
    ])
    assert [list(c.num.terms) for c in flipped.components] != [list(c.num.terms) for c in v.components]
    assert flipped == v and hash(flipped) == hash(v)
    assert {v: "pushed"}[flipped] == "pushed"
    w, w_flipped = (pushforward(f, _reciprocal_map(t, src, dst)) for f in (v, flipped))
    assert w == w_flipped and hash(w) == hash(w_flipped)
    assert v != VectorField(dst, v.components)


def test_pushforward_reciprocal_first_component(simple):
    t, src, dst = simple
    zero = RationalFn.const(t, 0)
    v = VectorField(src, [parse_expr("x^2", t), zero, zero])
    w = pushforward(v, _reciprocal_map(t, src, dst))
    # d(1/x)/dt = -x'/x^2 = -1
    assert w.components[0] == RationalFn.const(t, -1)


def test_pushforward_functoriality():
    t = table("x", "y", "z", "X", "Y", "Z", "u", "v", "w")
    c0 = Chart("A", (t.get("x"), t.get("y"), t.get("z")))
    c1 = Chart("B", (t.get("X"), t.get("Y"), t.get("Z")))
    c2 = Chart("C", (t.get("u"), t.get("v"), t.get("w")))
    x, y, z = (RationalFn.var(t, n) for n in ("x", "y", "z"))
    X, Y, Z = (RationalFn.var(t, n) for n in ("X", "Y", "Z"))
    u, v_, w_ = (RationalFn.var(t, n) for n in ("u", "v", "w"))
    phi = ChartMap(c0, c1, [x + y * y, y, z - x], [X - Y * Y, Y, Z + X - Y * Y])
    psi = ChartMap(c1, c2, [1 / X, Y, Z * X], [1 / u, v_, w_ * u])
    # psi o phi, written out by hand and verified invertible at construction
    both = ChartMap(c0, c2, [1 / (x + y * y), y, (z - x) * (x + y * y)],
                    [1 / u - v_ * v_, v_, w_ * u + 1 / u - v_ * v_])
    field = VectorField(c0, [x * y, y * z - 1, x + z])
    via_two = pushforward(pushforward(field, phi), psi)
    via_composed = pushforward(field, both)
    assert via_two.components == via_composed.components


def test_jacobian_determinant_examples(simple):
    t, src, dst = simple
    assert jacobian_determinant(identity_map(src, t)) == RationalFn.const(t, 1)
    recip = _reciprocal_map(t, src, dst)
    det = jacobian_determinant(recip)
    x = RationalFn.var(t, "x")
    assert det == -1 / x**4


def test_jacobian_inverse_relation(simple):
    t, src, dst = simple
    cmap = _reciprocal_map(t, src, dst)
    det_fwd = jacobian_determinant(cmap)
    swapped = ChartMap(cmap.target, cmap.source, cmap.inverse, cmap.forward)
    det_inv = jacobian_determinant(swapped)
    # det(J_fwd) * (det(J_inv) o fwd) == 1
    from threewave.ratfunc import substitute

    binding = {cmap.target.vars[k]: cmap.forward[k] for k in range(3)}
    composed = substitute(det_inv, binding, t)
    assert det_fwd * composed == RationalFn.const(t, 1)


def test_resolved_atlas_unit_jacobians():
    for kind in ("three-wave", "modified"):
        for cmap in models.resolved_atlas(kind):
            det = jacobian_determinant(cmap)
            assert det == RationalFn.const(cmap.table, 1), cmap.target.name


def test_log_pole_decomposition_on_projective_chart():
    v = models.three_wave_system()
    u1 = next(m for m in models.atlas("three-wave", "projective") if m.target.name == "U1")
    w = pushforward(v, u1)
    lp = log_pole_decomposition(w)
    assert lp.boundary_part is not None
    # transverse parts restricted to the divisor are the classic factors
    t = w.table
    zero = {t.get("X1"): gr(0)}
    g2 = dict(lp.transverse)[t.get("Y1")].specialize(zero)
    y1 = MultiPoly.var(t, "Y1")
    assert g2 == 2 * y1 * (y1 * y1 + 1)


def test_log_pole_rejects_higher_order(simple):
    t, src, dst = simple
    X, Y = RationalFn.var(t, "X"), RationalFn.var(t, "Y")
    zero = RationalFn.const(t, 0)
    # a double pole along the boundary X = 0, and a pole along Y = 0
    for comp in (1 / X**2, 1 / (X * Y)):
        bad = VectorField(dst, [zero, comp, zero])
        with pytest.raises(PoleTooHigh, match="pole beyond 1/X") as err:
            log_pole_decomposition(bad)
        assert err.value.component == "Y" and err.value.witness == comp.den


def test_log_pole_polynomial_field(simple):
    t, src, dst = simple
    X, Y = RationalFn.var(t, "X"), RationalFn.var(t, "Y")
    v = VectorField(dst, [Y, X * Y, RationalFn.const(t, 1)])
    lp = log_pole_decomposition(v)
    assert lp.boundary_part == Y.num
    got = dict(lp.transverse)
    assert got[t.get("Y")] == (X * X * Y).as_poly()  # X * (X*Y)
    assert got[t.get("Z")] == X.num


def test_power_scaled_chart_round_trip(simple):
    t, src, dst = simple
    cmap = power_scaled_chart(src, t, "D", (t.get("X"), t.get("Y"), t.get("Z")), (1, 0, 2))
    x = RationalFn.var(t, "x")
    assert cmap.forward[0] == 1 / x
    assert cmap.forward[1] == RationalFn.var(t, "y")
    assert cmap.forward[2] == RationalFn.var(t, "z") / x**2


def test_numeric_chain_rule_spot_check():
    # pushforward agrees with the chain rule at random numeric points, to
    # floating-point accuracy (derivatives evaluated exactly, not by FD)
    rng = random.Random(42)
    v = models.three_wave_system(1, 2)
    for chart_name in ("T2-1", "T2-3"):
        cmap = next(
            m for m in models.resolved_atlas("three-wave", [1, 2]) if m.target.name == chart_name
        )
        w = pushforward(v, cmap)
        jac = [[f.derivative(s) for s in cmap.source.vars] for f in cmap.forward]
        for _ in range(5):
            pt = {n: complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)) for n in ("x", "y", "z")}
            img = {s.name: f.eval_complex(pt) for s, f in zip(cmap.target.vars, cmap.forward)}
            vvals = [c.eval_complex(pt) for c in v.components]
            for k in range(3):
                chain = sum(jac[k][j].eval_complex(pt) * vvals[j] for j in range(3))
                got = w.components[k].eval_complex(img)
                assert abs(got - chain) <= 1e-12 * max(1.0, abs(got))


def test_pushforward_matches_oracle_on_atlas_charts():
    v = models.modified_system([1, 0, 2, 0, 1])
    for cmap in models.resolved_atlas("modified", [1, 0, 2, 0, 1]):
        w = pushforward(v, cmap)
        ref = oracle_pushforward(v, cmap)
        assert list(w.components) == ref


def test_pushforward_matches_term_by_term_chain_rule():
    # seeded random rational fields through every built-in map and a blow-up
    # chart: the single-fraction pushforward against sum_j d(f_k)/d(x_j) * v_j
    # accumulated in RationalFn arithmetic, then composed term by term
    rng = random.Random(2024)
    for cmap in differential_maps():
        src = cmap.source.vars
        for _ in range(2):
            comps = [random_ratfn(rng, cmap.table, src) for _ in range(3)]
            comps[rng.randrange(3)] = RationalFn.const(cmap.table, 0)
            v = VectorField(cmap.source, comps)
            inverse = {src[j]: cmap.inverse[j] for j in range(3)}
            want = []
            for fk in cmap.forward:
                acc = RationalFn.const(cmap.table, 0)
                for j in range(3):
                    acc = acc + fk.derivative(src[j]) * comps[j]
                want.append(naive_substitute(acc, inverse))
            assert list(pushforward(v, cmap).components) == want, cmap
