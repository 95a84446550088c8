import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from threewave import geometry, models, reports, singular
from threewave.errors import DenominatorVanishes
from threewave.gaussian import GaussianRational, gr
from threewave.geometry import ChartMap, jacobian_determinant, pushforward
from threewave.parsing import parse_expr, render_model
from threewave.numerics import NumericAtlas, TrajectoryPoint, compile_values, integrate
from threewave.ratfunc import RationalFn, specialize_all, substitute


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
    v = models.system_field("modified", [0, 0, 0, 0, 0])
    t = v.table
    expected = [parse_expr(e, t) for e in ("-2*y^2 + z", "2*x*y", "-2*x*z")]
    assert list(v.components) == expected


def test_modified_symbolic_components_match_display():
    v = models.system_field("modified")
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
    modified = models.system_field("modified", [0, 0, 0, 0, None])
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


def _atlas_verdicts(kind, params=None):
    pushed = [models.chart_field(kind, cm, params) for cm in models.model(kind).atlas("resolved")]
    return models.verify_atlas_holomorphy(pushed)


def test_atlas_holomorphy_on_condition_locus():
    assert all(d["polynomial"] for d in _atlas_verdicts("three-wave", [0, -1]))
    # gamma = 0, delta symbolic is the other branch
    assert all(d["polynomial"] for d in _atlas_verdicts("three-wave", [None, 0]))


def test_atlas_holomorphy_fails_generically_with_witnesses():
    verdicts = _atlas_verdicts("three-wave")
    bad = [d for d in verdicts if not d["polynomial"]]
    assert [d["chart"] for d in bad] == ["T2-3"]
    assert bad[0]["obstruction_conditions"] == ["delta*gamma", "gamma^2+gamma"]


def test_atlas_holomorphy_fails_on_violating_specialization():
    # an exact parameter pair violating both conditions leaves a genuine pole
    assert any(not d["polynomial"] for d in _atlas_verdicts("three-wave", [1, 1]))


def test_modified_atlas_polynomial_for_symbolic_parameters():
    assert all(d["polynomial"] for d in _atlas_verdicts("modified"))


def test_pi_symmetry_exact():
    gens = models.model("modified").symmetries
    rep = models.verify_symmetry(models.system_field("modified"), gens["pi"])
    assert rep["invariant"]
    assert rep["residual"] == ["0", "0", "0"]


def test_s_symmetry_exact():
    gens = models.model("modified").symmetries
    rep = models.verify_symmetry(models.system_field("modified"), gens["s"])
    assert rep["invariant"], rep["residual"]


def test_group_relations():
    rep = models.verify_group_relations("modified")
    assert rep["relations"] == {"s^2": True, "pi^2": True, "(s*pi)^2": True}
    assert rep["all_hold"]


def test_s_fixed_point_numerically():
    # applying s twice returns a random specialized point (the relation made numeric)
    s = models.model("modified").symmetries["s"]
    alphas = {"alpha1": "3/10", "alpha2": "-11/10", "alpha3": "7/10", "alpha4": "2", "alpha5": "1/4"}
    swapped = dict(alphas, alpha2=alphas["alpha4"], alpha4=alphas["alpha2"])
    names = [v.name for v in s.chart.vars]

    def s_at(values):
        bindings = {s.table.get(n): GaussianRational(Fraction(q)) for n, q in values.items()}
        return compile_values(specialize_all(s.state, bindings), names)

    point = (0.8 + 0.1j, 1.7 - 0.2j, -0.6 + 0.05j)
    twice = s_at(swapped)(*s_at(alphas)(*point))
    for got, want in zip(twice, point):
        assert abs(got - want) < 1e-12


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
    rep = models.verify_symmetry(models.system_field("modified"), ident)
    assert rep["invariant"]


# -- fields pushed once per model and chart -----------------------------------------


def _differential_points(kind, rng):
    values = (None, 0, 1, -1, Fraction(1, 2), gr(1, 1), gr(0, -3))
    n = len(models.param_symbols(kind))
    points = [[rng.choice(values) for _ in range(n)] for _ in range(4)]
    if kind == "three-wave":
        return points + [[0, -1], [0, 0]]
    return points + [[0] * 5, [rng.choice(values) for _ in range(4)] + [0]]


def _assert_chart_fields_match(m, maps, points):
    # the symbolic push, specialized, against the specialized field pushed
    # through the specialized map, text for text
    for point in points:
        bindings = models.bind_parameters(m, point)
        field = models.system_field(m, point)
        for cm in maps:
            got = models.chart_field(m, cm, point)
            want = pushforward(field.retable(cm.table), cm.specialize(bindings))
            assert got.chart == want.chart, (cm, point)
            assert [c.text() for c in got.components] == [c.text() for c in want.components], (
                cm,
                point,
            )
            jac = jacobian_determinant(cm.specialize(bindings)).text()
            assert models.chart_jacobian(m, cm).specialize(bindings).text() == jac, (cm, point)


def test_chart_field_equals_the_specialized_pushforward(tmp_path):
    rng = random.Random(41)
    for kind in ("three-wave", "modified"):
        path = tmp_path / f"{kind}.model"
        path.write_text(models.export_model(kind))
        points = _differential_points(kind, rng)
        for m in (models.model(kind), models.model(str(path))):
            maps = m.atlas("projective")[1:] + [singular.weighted_chart(m)[1]] + m.atlas("resolved")
            assert [cm.target.name for cm in maps][:4] == ["U1", "U2", "U3", "W"]
            _assert_chart_fields_match(m, maps, points)
    # a random model file whose resolved maps carry the parameters
    path = tmp_path / "random.model"
    path.write_text(oracles.random_model_text(rng))
    m = models.model(str(path))
    values = (None, 0, 1, -2, Fraction(1, 2), gr(1, 1))
    points = [[rng.choice(values), rng.choice(values)] for _ in range(6)]
    _assert_chart_fields_match(m, m.atlas("resolved"), points)


def test_chart_field_of_the_base_chart_is_the_field():
    m = models.model("modified")
    assert models.chart_field(m, m.atlas("resolved")[0]) is m.fields["U0"]
    assert models.atlas(m, "resolved", [1, 2, 3, 4, 5])[0] is m.identity


def test_a_push_through_a_specialized_map_is_freed_with_it(monkeypatch):
    # a field and an atlas bound at one point, compiled: each map is a new
    # specialized map, which keeps its push until it is dropped
    calls = []
    real = geometry.pushforward
    monkeypatch.setattr(geometry, "pushforward", lambda v, cm: calls.append(cm) or real(v, cm))
    m = oracles.fresh_model("modified")
    point = [1, 2, 3, 4, 5]
    v, maps = models.system_field(m, point), models.resolved_atlas(m, point)
    NumericAtlas(v, maps, {})
    assert [cm.target.name for cm in calls] == ["T3-1", "T3-2", "T3-3"]
    assert not set(calls) & set(m.atlas("resolved"))  # each map specialized
    pushed = [weakref.ref(cm.pushed[v]) for cm in maps[1:]]
    del maps, calls[:]
    gc.collect()
    assert [ref() for ref in pushed] == [None, None, None]


def test_results_derived_from_a_model_are_kept_on_it():
    # computed once per parsed model and arguments, whether the model is
    # named or passed; a model parsed again derives its own
    m = oracles.fresh_model("three-wave")
    t21 = m.atlas("resolved")[1]
    assert singular.weighted_chart(m) is singular.weighted_chart(m)
    assert models.chart_jacobian(m, t21) is models.chart_jacobian(m, t21)
    assert singular.weighted_chart("three-wave") is singular.weighted_chart(models.model("three-wave"))
    assert singular.weighted_chart("three-wave") is not singular.weighted_chart(m)
    # they are left out of the model's repr and rendering
    assert "_derived" not in repr(m)
    assert render_model(m) == models.export_model("three-wave")


def test_a_dropped_model_is_freed():
    # nothing outside a parsed model holds it once its reports are made, so
    # it and every result derived from it are freed with it
    m = oracles.fresh_model("modified")
    reports.singularities_report(m)
    reports.uniqueness_report(m)
    reports.index_report(m, None, "P1")
    reports.atlas_report(m)
    reports.pipeline_report(m, [1, 2, 3, 4, 0])
    reports.painleve_report(m)
    # a point scanned at a parameter point, and the model integrated once
    params = [1, 2, 3, 4, 0]
    point = reports.scan_chart(m, params, "U1").points[0]
    v = models.system_field(m, params)
    integrate(v, models.resolved_atlas(m, params), TrajectoryPoint(0j, (0.1, 0.2, 0.3), "U0"),
              [0, 0.5])
    assert m._derived
    derived = [weakref.ref(m), weakref.ref(singular._symbolic_lineage(m)),
               weakref.ref(singular.balance_search(m, None, 2)), weakref.ref(point)]
    del m, point, v
    gc.collect()
    assert [ref() for ref in derived] == [None, None, None, None]


def test_each_parse_derives_its_own_balance_search():
    # the search on the model's symbolic field is kept on the model, not
    # shared by value with another parse of the same text
    m1, m2 = oracles.fresh_model("three-wave"), oracles.fresh_model("three-wave")
    assert singular.balance_search(m1, None, 2) is singular.balance_search(m1, None, 2)
    assert singular.balance_search(m1, None, 2) is not singular.balance_search(m2, None, 2)
    assert singular.balance_search(m1, None, 2) == singular.balance_search(m2, None, 2)
    assert singular.weighted_chart(m1)[0] is not singular.weighted_chart(m2)[0]
    assert any(b is singular.weighted_chart(m1)[0] for b in singular.balance_search(m1, None, 2).balances)


def test_atlas_report_keeps_the_error_of_a_map_singular_at_the_point(tmp_path, monkeypatch):
    # a resolved map dividing by delta is not defined at delta = 0: the
    # report fails with the map's own error, as when the map alone is bound
    path = tmp_path / "singular-map.model"
    path.write_text(oracles.singular_map_model_text())
    m = models.model(str(path))
    t9 = m.atlas("resolved")[-1]
    with pytest.raises(DenominatorVanishes) as want:
        t9.specialize(models.bind_parameters(m, [0, 1]))
    with pytest.raises(DenominatorVanishes) as got:
        reports.atlas_report(m, [0, 1])
    assert str(got.value) == str(want.value)
    # at a point where every map is defined, no map is composed again: T2-1
    # and T2-2 hold no parameter and come back as the maps verified when the
    # model was parsed, and T2-3 and T9 are certified by their certificates
    t21 = m.atlas("resolved")[1]
    assert t21.target.name == "T2-1"
    assert t21.specialize(models.bind_parameters(m, [1, 1])) is t21
    verified = []
    real = ChartMap._verify

    def counting(cmap):
        verified.append(cmap.target.name)
        return real(cmap)

    monkeypatch.setattr(ChartMap, "_verify", counting)
    rep = reports.atlas_report(m, [1, 1])
    assert verified == []
    assert rep["jacobians"][-1]["jacobian_determinant"] == "1"


@pytest.mark.parametrize("module", ["threewave.models", "threewave.numerics"])
def test_models_and_numerics_leave_the_analyses_unloaded(module):
    # the benchmark's set-up child and the continuation workload import only
    # these two; models defers its imports of singular for this reason
    src = str(Path(models.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(sorted(m for m in ('threewave.singular', 'threewave.roots')"
         " if m in sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
