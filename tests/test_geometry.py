import random
from fractions import Fraction

import pytest

from oracles import (
    SINGULAR_COMPOSITE_MODEL, differential_maps, naive_specialize, naive_substitute,
    oracle_pushforward, random_ratfn, singular_map_model_text,
)
from threewave import models, poly, ratfunc
from threewave.errors import DenominatorVanishes, PoleTooHigh
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
from threewave.numerics import compile_values
from threewave.parsing import parse_expr
from threewave.ratfunc import RationalFn, specialize_all, vanishes
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
    with pytest.raises(ValueError, match="inverse o forward gives x\\^2 for x"):
        ChartMap(src, dst, [x * x, y, z], [X, Y, Z])


def test_a_specialized_map_whose_composite_loses_its_denominator_is_refused(simple):
    # z -> (z + mu)/(z + 1) is a Moebius map with determinant 1 - mu: at
    # mu = 1 the forward map is (x, 0, 1), on which the inverse's Y/(Z - 1)
    # has a vanishing denominator, though every component is defined there
    t, src, dst = simple
    x, y, z, mu = (RationalFn.var(t, n) for n in ("x", "y", "z", "mu"))
    X, Y, Z = (RationalFn.var(t, n) for n in ("X", "Y", "Z"))
    cmap = ChartMap(src, dst, [x, y * (mu - 1) / (z + 1), (z + mu) / (z + 1)],
                    [X, Y / (Z - 1), (Z - mu) / (1 - Z)])
    assert cmap.specialize({t.get("mu"): gr(2)}).forward[2] == (z + 2) / (z + 1)
    with pytest.raises(DenominatorVanishes):
        cmap.specialize({t.get("mu"): gr(1)})


def test_the_certificates_take_no_gcd(simple, monkeypatch):
    t, src, dst = simple
    x, y, z, mu = (RationalFn.var(t, n) for n in ("x", "y", "z", "mu"))
    X, Y, Z = (RationalFn.var(t, n) for n in ("X", "Y", "Z"))
    fwd, inv = [1 / x, y / x**2 + mu, z / (x + mu)], [1 / X, (Y - mu) / X**2, Z * (1 + mu * X) / X]
    point = {t.get("x"): (y + mu) / (z - 1), t.get("X"): y * z}
    root = (MultiPoly.var(t, "x") * (z - 1).num - (y + mu).num) * MultiPoly.var(t, "X")
    calls = []
    for module in (poly, ratfunc):
        real = module.poly_gcd
        monkeypatch.setattr(module, "poly_gcd", lambda a, b, real=real: calls.append(1) or real(a, b))
    ChartMap(src, dst, fwd, inv)
    assert vanishes((root,), point, t)
    assert not vanishes((root + 1,), point, t)
    assert calls == []
    with pytest.raises(ValueError, match="not invertible"):  # only a refusal reduces
        ChartMap(src, dst, fwd, [1 / X, Y / X**2, Z])
    assert calls


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
        source, target = [s.name for s in cmap.source.vars], [s.name for s in cmap.target.vars]
        forward, field = compile_values(cmap.forward, source), compile_values(v.components, source)
        jac = [compile_values([f.derivative(s) for s in cmap.source.vars], source)
               for f in cmap.forward]
        pushed = compile_values(w.components, target)
        for _ in range(5):
            pt = [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3)) for _ in range(3)]
            vvals = field(*pt)
            for k, got in enumerate(pushed(*forward(*pt))):
                chain = sum(d * vj for d, vj in zip(jac[k](*pt), vvals))
                assert abs(got - chain) <= 1e-12 * max(1.0, abs(got))


def test_pushforward_matches_oracle_on_atlas_charts():
    v = models.system_field("modified", [1, 0, 2, 0, 1])
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


# -- one composition per object -----------------------------------------------------

_VALUES = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), gr(0, 1), gr(1, -2), None]


def _seeded_bindings(rng, tab, count=4):
    """``count`` bindings of the parameters of ``tab`` to seeded values, each
    parameter left unbound at random."""
    out = []
    for _ in range(count):
        values = {s: rng.choice(_VALUES) for s in tab.parameters()}
        out.append({s: gr(v) for s, v in values.items() if v is not None})
    return out


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # both sides must fail alike
        return f"{type(exc).__name__}: {exc}"


def _check_unchanged_kept(before, after, bindings):
    """A value in which no bound symbol occurs comes back as the same object."""
    for f, g in zip(before, after):
        if not set(f.variables()) & set(bindings):
            assert g is f, f


def test_field_specialization_matches_the_per_component_oracle():
    # each built-in field and each field pushed through a built-in map, at
    # seeded points, against its components specialized one by one
    rng = random.Random(3801)
    for kind in ("three-wave", "modified"):
        m = models.model(kind)
        base = m.fields[m.base.name]
        fields = list(m.fields.values())
        fields += [cm.push(base) for name in ("projective", "resolved")
                   for cm in m.atlas(name)[1:]]
        for bindings in _seeded_bindings(rng, m.table, 6):
            for v in fields:
                want = [naive_specialize(c, bindings) for c in v.components]
                if None in want:
                    with pytest.raises(DenominatorVanishes,
                                       match="^denominator vanishes at the given values$"):
                        v.specialize(bindings)
                    continue
                got = v.specialize(bindings)
                assert list(got.components) == want, (kind, bindings)
                _check_unchanged_kept(v.components, got.components, bindings)
                assert (got is v) == all(g is c for g, c in zip(got.components, v.components))


def _first_refused_composite(cmap, fwd, inv):
    """(name, position, variable, value) of the first composite component of
    the map (fwd, inv), between the charts of ``cmap``, that is not its
    variable when composed term by term; the value is None where the
    composed denominator vanishes."""
    for name, inner, outer, inner_vars, outer_vars in (
        ("inverse o forward", fwd, inv, cmap.target.vars, cmap.source.vars),
        ("forward o inverse", inv, fwd, cmap.source.vars, cmap.target.vars),
    ):
        binding = dict(zip(inner_vars, inner))
        for k, (f, var) in enumerate(zip(outer, outer_vars)):
            try:
                value = naive_substitute(f, binding)
            except ZeroDivisionError:
                return name, k, var, None
            if value != RationalFn.var(cmap.table, var):
                return name, k, var, value
    return None


def _composite_refusal(cmap, name, k, var) -> str:
    """The refusal of ``cmap`` at a point where composite ``name`` loses the
    denominator of its component k."""
    outer, inner = name.split(" o ")
    text = (cmap.inverse if outer == "inverse" else cmap.forward)[k].text()
    return (f"chart map {cmap.source.name}->{cmap.target.name}: {name} for {var.name}: "
            f"the denominator of {outer} component {k + 1} ({text}) vanishes on the image "
            f"of the {inner} map at the given values")


def _maps_with_parameter_denominators(t, src, dst) -> list[ChartMap]:
    """(x, y, mu*z) with its inverse, singular at mu = 0, and a Moebius map
    in z whose composite loses its denominator at mu = 1."""
    x, y, z, mu = (RationalFn.var(t, n) for n in ("x", "y", "z", "mu"))
    X, Y, Z = (RationalFn.var(t, n) for n in ("X", "Y", "Z"))
    return [ChartMap(src, dst, [x, y, mu * z], [X, Y, Z / mu]),
            ChartMap(src, dst, [x, y * (mu - 1) / (z + 1), (z + mu) / (z + 1)],
                     [X, Y / (Z - 1), (Z - mu) / (1 - Z)])]


def test_map_specialization_matches_the_per_component_oracle(simple):
    # every built-in map, three blow-up charts and two maps singular at some
    # values, at seeded points: the one batch of both directions against each
    # component specialized alone, the same map where nothing bound occurs,
    # else the map certified at the point, refused where a composition refuses it
    rng = random.Random(3802)
    cases = [(cmap, _seeded_bindings(rng, cmap.table)) for cmap in differential_maps()]
    mu = simple[0].get("mu")
    cases += [(cmap, [{mu: gr(v)} for v in _VALUES if v is not None])
              for cmap in _maps_with_parameter_denominators(*simple)]
    failures = set()
    for cmap, points in cases:
        fns = cmap.forward + cmap.inverse
        for bindings in points:
            want = [naive_specialize(f, bindings) for f in fns]
            got = _outcome(lambda: cmap.specialize(bindings))
            if None in want:
                k = want.index(None)
                failures.add("component")
                assert got == (
                    f"DenominatorVanishes: chart map {cmap.source.name}->{cmap.target.name}: "
                    f"{('forward', 'inverse')[k // 3]} component {k % 3 + 1} ({fns[k].text()}): "
                    "denominator vanishes at the given values"
                )
                continue
            expected = _outcome(lambda: ChartMap(cmap.source, cmap.target, want[:3], want[3:]))
            if isinstance(expected, str):
                # a composition at the point refuses the map; the certificate
                # names the first composite that term-by-term composition refuses
                failures.add("composite")
                name, k, var, _ = _first_refused_composite(cmap, want[:3], want[3:])
                assert got == f"DenominatorVanishes: {_composite_refusal(cmap, name, k, var)}"
                continue
            assert got.forward + got.inverse == tuple(want), (cmap, bindings)
            _check_unchanged_kept(fns, got.forward + got.inverse, bindings)
            if not any(set(f.variables()) & set(bindings) for f in fns):
                assert got is cmap
    assert failures == {"component", "composite"}


def test_a_map_singular_at_the_point_names_its_component(simple):
    # the message of the map's first vanishing denominator, as when each
    # component was specialized alone
    t, src, dst = simple
    x, y, z, mu = (RationalFn.var(t, n) for n in ("x", "y", "z", "mu"))
    X, Y, Z = (RationalFn.var(t, n) for n in ("X", "Y", "Z"))
    cmap = ChartMap(src, dst, [x, y, mu * z], [X, Y, Z / mu])
    with pytest.raises(DenominatorVanishes) as info:
        cmap.specialize({t.get("mu"): gr(0)})
    assert str(info.value) == (
        "chart map S->D: inverse component 3 (Z/(mu)): denominator vanishes at the given values"
    )
    with pytest.raises(DenominatorVanishes) as info:
        ratfunc.specialize_all([x, y / (mu - 1), Z / mu], {t.get("mu"): gr(0)})
    assert info.value.position == 2


def test_the_verifier_refuses_the_first_wrong_component_as_per_component_composition():
    # each verified map with one component of a direction spoiled: the batch
    # of a direction's three compositions refuses the first component whose
    # composite, composed alone term by term, is not its variable
    rng = random.Random(3803)
    for cmap in differential_maps():
        for _ in range(2):
            fwd, inv = list(cmap.forward), list(cmap.inverse)
            half = rng.choice((fwd, inv))
            k = rng.randrange(3)
            half[k] = half[k] * 2 + rng.choice((0, 1))
            name, _, var, value = _first_refused_composite(cmap, fwd, inv)
            message = f"{name} gives {value.text()} for {var.name}"
            with pytest.raises(ValueError) as info:
                ChartMap(cmap.source, cmap.target, fwd, inv)
            assert str(info.value).endswith(f"is not invertible: {message}"), cmap


def _composes(monkeypatch) -> list:
    real, calls = ratfunc.compose, []
    monkeypatch.setattr(ratfunc, "compose", lambda *args: calls.append(1) or real(*args))
    return calls


def test_each_field_and_map_is_specialized_in_one_composition(monkeypatch):
    calls = _composes(monkeypatch)
    changed = []
    for kind, params in (("three-wave", [1, 2]), ("modified", [1, 2, 3, 4, 5])):
        m = models.model(kind)
        bindings = models.bind_parameters(m, params)
        calls.clear()
        assert m.fields[m.base.name].specialize(bindings) != m.fields[m.base.name]
        assert len(calls) == 1
        for cmap in m.atlas("resolved")[1:]:
            calls.clear()
            got = cmap.specialize(bindings)
            # a map that changed is certified by its specialized certificate,
            # in the same composition as its components: none is composed again
            assert len(calls) == 1, cmap
            changed.append(got is not cmap)
    assert True in changed and False in changed


def _composed_at(cmap: ChartMap, bindings) -> ChartMap:
    """``cmap`` at ``bindings`` by full composition: its components
    specialized, then verified as a new map."""
    fns = specialize_all(cmap.forward + cmap.inverse, bindings)
    return ChartMap(cmap.source, cmap.target, fns[:3], fns[3:])


def _check_certified(cmap: ChartMap, bindings):
    """``cmap.specialize`` against full composition at ``bindings``: both
    refuse, or both give the same components; the certified map or None."""
    got = _outcome(lambda: cmap.specialize(bindings))
    want = _outcome(lambda: _composed_at(cmap, bindings))
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(
            f"DenominatorVanishes: chart map {cmap.source.name}->{cmap.target.name}: "
        ), (cmap, bindings, got, want)
        return None
    assert not isinstance(got, str), (cmap, bindings, got)
    assert got.forward + got.inverse == want.forward + want.inverse, (cmap, bindings)
    return got


# named points of the built-ins, in parameter order; None leaves a parameter symbolic
_NAMED_POINTS = {
    "three-wave": [[0, 0], [0, -1], [1, 0], [2, -1], [gr(0, 1), -1], [0, None], [None, -1], [None, 0]],
    "modified": [[0, 0, 0, 0, 0], [0, 0, 0, 0, 2], [1, 2, 3, 4, 0], [1, 2, 3, 2, 5], [3, -1, 3, -1, 0],
                 [1, Fraction(-1, 2), gr(0, 1), 2, 3], [None, 2, None, 2, None], [0, None, 0, None, 0],
                 [None, None, None, None, 0]],
}


def test_certified_specialization_equals_full_composition():
    # the resolved maps of both built-ins at named and seeded points, and
    # every partial point completed by a second specialization of the map it
    # gave, which reads the carried certificate
    rng = random.Random(4501)
    refused, completed = 0, 0
    for kind, named in _NAMED_POINTS.items():
        m = models.model(kind)
        syms = m.table.parameters()
        points = named + [[rng.choice(_VALUES) for _ in syms] for _ in range(8)]
        for values in points:
            bindings = models.bind_parameters(m, values)
            rest = {s: gr(rng.choice(_VALUES[:-1])) for s in syms if s not in bindings}
            for cmap in m.atlas("resolved")[1:]:
                got = _check_certified(cmap, bindings)
                if got is None:
                    refused += 1
                    continue
                if rest:
                    completed += got is not cmap
                    twice = _check_certified(got, rest)
                    once = _outcome(lambda: cmap.specialize({**bindings, **rest}))
                    assert isinstance(once, str) == (twice is None), (cmap, bindings, rest)
                    if twice is not None:
                        assert twice.forward + twice.inverse == once.forward + once.inverse
    assert refused == 0  # every resolved map of the built-ins is defined at every point
    assert completed  # some partial points changed a map, which carries a certificate


def test_a_certified_map_refuses_a_point_where_it_is_singular(tmp_path):
    # T9 divides by delta, and SINGULAR_COMPOSITE_MODEL's map stays defined at
    # a = 0 but is no longer invertible there: both routes refuse both points
    t9_file, composite_file = tmp_path / "t9.model", tmp_path / "composite.model"
    t9_file.write_text(singular_map_model_text())
    composite_file.write_text(SINGULAR_COMPOSITE_MODEL)
    t9 = models.model(str(t9_file)).atlas("resolved")[-1]
    c1 = models.model(str(composite_file)).atlas("resolved")[-1]
    for cmap, bindings, message in (
        (t9, {t9.table.get("delta"): gr(0)},
         "chart map U0->T9: inverse component 3 (r/(delta)): denominator vanishes at the given values"),
        (c1, {c1.table.get("a"): gr(0)},
         "chart map U0->C1: inverse o forward for y: the denominator of inverse component 2 "
         "(-a/(X-Y)) vanishes on the image of the forward map at the given values"),
    ):
        assert _check_certified(cmap, bindings) is None
        with pytest.raises(DenominatorVanishes) as info:
            cmap.specialize(bindings)
        assert str(info.value) == message
    assert _check_certified(c1, {c1.table.get("a"): gr(1)}) is not None
    # singular where a = b: bound one at a time, the carried certificate refuses
    two_file = tmp_path / "two.model"
    two_file.write_text(SINGULAR_COMPOSITE_MODEL.replace("params a", "params a b")
                        .replace("a/", "(a - b)/"))
    c2 = models.model(str(two_file)).atlas("resolved")[-1]
    a, b = c2.table.get("a"), c2.table.get("b")
    half = _check_certified(c2, {a: gr(1)})
    assert half is not None and _check_certified(half, {b: gr(1)}) is None
    with pytest.raises(DenominatorVanishes) as info:
        half.specialize({b: gr(1)})
    assert str(info.value) == _composite_refusal(half, "inverse o forward", 1, c2.source.vars[1])
    assert _check_certified(half, {b: gr(2)}) is not None
