import random
from fractions import Fraction

import oracles
from threewave import models
from threewave.gaussian import gr
from threewave.geometry import jacobian_determinant
from threewave.parsing import parse_expr
from threewave.ratfunc import RationalFn, substitute


def test_three_wave_specializations():
    v = models.three_wave_system(0, 0)
    t = v.table
    expected = [parse_expr(e, t) for e in ("-2*y^2 + z", "2*x*y", "-2*x*z - 2*z")]
    assert list(v.components) == expected
    # the origin is a fixed point there
    origin = {t.get(n): gr(0) for n in ("x", "y", "z")}
    assert all(c.specialize(origin).constant_value() == gr(0) for c in v.components)


def test_three_wave_symbolic_components():
    v = models.three_wave_system()
    t = v.table
    assert v.components[0] == parse_expr("-2*y^2 + gamma*x + delta*y + z", t)
    assert v.components[1] == parse_expr("2*x*y - delta*x + gamma*y", t)
    assert v.components[2] == parse_expr("-2*x*z - 2*z", t)


def test_modified_specialization_at_zero():
    v = models.modified_system([0, 0, 0, 0, 0])
    t = v.table
    expected = [parse_expr(e, t) for e in ("-2*y^2 + z", "2*x*y", "-2*x*z")]
    assert list(v.components) == expected


def test_modified_symbolic_components_match_display():
    v = models.modified_system()
    t = v.table
    f2 = parse_expr(
        "2*x*y - 2*alpha5*x + i*(alpha1 - alpha3)*y - i*(alpha2 - alpha4 + 2*(alpha1 - alpha3)*alpha5)/2",
        t,
    )
    assert v.components[1] == f2


def test_comparison_with_three_wave_documents_z_difference():
    # at alpha = (0, 0, 0, 0, delta/2) and gamma = 0 the two families differ
    # only in the z-equation, by a linear term
    three = models.three_wave_system(None, 0)
    t = three.table
    alpha5 = models.param_symbols("modified")[4]
    rename = {alpha5: RationalFn.var(t, "delta") / 2}  # also carries the state over
    modified = models.modified_system([0, 0, 0, 0, None])
    diff = [substitute(a, rename, t) - b for a, b in zip(modified.components, three.components)]
    assert [d.text() for d in diff] == ["0", "0", "2*z"]


def test_binding_matches_substitution(tmp_path):
    # specialize-based binding of fields and atlases equals binding by
    # substitution of constants, on both built-ins and a random model file
    rng = random.Random(29)
    path = tmp_path / "random.model"
    path.write_text(oracles.random_model_text(rng))
    values = (None, 0, 1, -2, Fraction(1, 2), gr(1, 1), gr(0, -3))
    for system in ("three-wave", "modified", str(path)):
        n = len(models.param_symbols(system))
        for _ in range(4):
            point = [rng.choice(values) for _ in range(n)]
            assert models.system_field(system, point) == oracles.substituted_field(system, point)
            got = models.atlas(system, "resolved", point)
            want = oracles.substituted_atlas(system, "resolved", point)
            assert [(m.target, m.forward, m.inverse) for m in got] == [
                (m.target, m.forward, m.inverse) for m in want
            ]


def test_unbound_model_returns_its_own_objects():
    m = models.model("modified")
    assert models.system_field("modified") is m.fields["U0"]
    maps = models.resolved_atlas("modified")[1:]
    assert maps and all(a is b for a, b in zip(maps, m.atlas("resolved")[1:]))


def test_atlas_chart_expressions():
    t3 = models.model("modified").table
    chart1 = next(m for m in models.resolved_atlas("modified") if m.target.name == "T3-1")
    assert chart1.forward[1] == parse_expr("-(y - i*x + alpha1)*x", t3)
    t2 = models.model("three-wave").table
    chart3 = next(m for m in models.resolved_atlas("three-wave") if m.target.name == "T2-3")
    assert chart3.forward[2] == parse_expr("z + x^2 + 2*(gamma + 1)*x", t2)
    chart0 = models.resolved_atlas("three-wave")[0]
    assert chart0.source.name == chart0.target.name == "U0"
    assert chart0.forward[0] == RationalFn.var(t2, "x")


def test_chart_one_forward_inverse_compose_to_identity():
    # the composition is checked at construction; assert it explicitly here
    # through the substitution machinery
    cmap = next(m for m in models.resolved_atlas("modified") if m.target.name == "T3-1")
    t = cmap.table
    fwd_binding = {cmap.target.vars[k]: cmap.forward[k] for k in range(3)}
    for k, src in enumerate(cmap.source.vars):
        back = substitute(cmap.inverse[k], fwd_binding, t)
        assert back == RationalFn.var(t, src)


def test_unit_jacobians_everywhere():
    for kind in ("three-wave", "modified"):
        for cmap in models.resolved_atlas(kind):
            assert jacobian_determinant(cmap) == RationalFn.const(cmap.table, 1)


def test_atlas_holomorphy_on_condition_locus():
    v = models.three_wave_system(0, -1)
    verdicts = models.verify_atlas_holomorphy(v, models.resolved_atlas("three-wave", [0, -1]))
    assert all(d["polynomial"] for d in verdicts)
    # gamma = 0, delta symbolic is the other branch
    v2 = models.three_wave_system(None, 0)
    verdicts2 = models.verify_atlas_holomorphy(v2, models.resolved_atlas("three-wave", [None, 0]))
    assert all(d["polynomial"] for d in verdicts2)


def test_atlas_holomorphy_fails_generically_with_witnesses():
    v = models.three_wave_system()
    verdicts = models.verify_atlas_holomorphy(v, models.resolved_atlas("three-wave"))
    bad = [d for d in verdicts if not d["polynomial"]]
    assert [d["chart"] for d in bad] == ["T2-3"]
    assert bad[0]["obstruction_conditions"] == ["delta*gamma", "gamma^2+gamma"]


def test_atlas_holomorphy_fails_on_violating_specialization():
    # an exact parameter pair violating both conditions leaves a genuine pole
    v = models.three_wave_system(1, 1)
    verdicts = models.verify_atlas_holomorphy(v, models.resolved_atlas("three-wave", [1, 1]))
    assert any(not d["polynomial"] for d in verdicts)


def test_modified_atlas_polynomial_for_symbolic_parameters():
    v = models.modified_system()
    verdicts = models.verify_atlas_holomorphy(v, models.resolved_atlas("modified"))
    assert all(d["polynomial"] for d in verdicts)


def test_pi_symmetry_exact():
    gens = models.model("modified").symmetries
    rep = models.verify_symmetry(models.modified_system(), gens["pi"])
    assert rep["invariant"]
    assert rep["residual"] == ["0", "0", "0"]


def test_s_symmetry_exact():
    gens = models.model("modified").symmetries
    rep = models.verify_symmetry(models.modified_system(), gens["s"])
    assert rep["invariant"], rep["residual"]


def test_group_relations():
    rep = models.verify_group_relations("modified")
    assert rep["relations"] == {"s^2": True, "pi^2": True, "(s*pi)^2": True}
    assert rep["all_hold"]


def test_s_fixed_point_numerically():
    # applying s twice returns a random specialized point (the relation made numeric)
    s = models.model("modified").symmetries["s"]
    table = s.table
    alphas = {"alpha1": 0.3, "alpha2": -1.1, "alpha3": 0.7, "alpha4": 2.0, "alpha5": 0.25}
    point = {"x": 0.8 + 0.1j, "y": 1.7 - 0.2j, "z": -0.6 + 0.05j}
    env = dict(alphas)
    env.update(point)
    once = {v.name: comp.eval_complex(env) for v, comp in zip(s.chart.vars, s.state)}
    swapped = dict(alphas)
    swapped["alpha2"], swapped["alpha4"] = alphas["alpha4"], alphas["alpha2"]
    env2 = dict(swapped)
    env2.update(once)
    twice = {v.name: comp.eval_complex(env2) for v, comp in zip(s.chart.vars, s.state)}
    for name in ("x", "y", "z"):
        assert abs(twice[name] - point[name]) < 1e-12


def test_export_model_round_trip():
    from threewave.parsing import parse_model

    for kind in ("three-wave", "modified"):
        text = models.export_model(kind)
        reloaded = parse_model(text)  # chart maps re-verify their inverses on load
        model = models.model(kind)
        assert reloaded.table == model.table
        assert list(reloaded.charts) == list(model.charts)
        assert [(m.source.name, m.target.name) for m in reloaded.maps] == [
            (m.source.name, m.target.name) for m in model.maps
        ]
        assert reloaded.atlases == model.atlases
        assert reloaded.relations == model.relations
        assert reloaded.symmetries == model.symmetries
        orig = model.fields["U0"]
        again = reloaded.fields["U0"]
        assert [c.text() for c in again.components] == [c.text() for c in orig.components]


def test_identity_symmetry_trivially_invariant():
    pi = models.model("modified").symmetries["pi"]
    ident = pi.compose(pi)
    assert ident.is_identity()
    rep = models.verify_symmetry(models.modified_system(), ident)
    assert rep["invariant"]
