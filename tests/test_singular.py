import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    LEAD_VANISHES, bench_workloads, fresh_model, naive_balance_equations, naive_balance_holds,
    naive_linear_part, naive_specialize, on_branch, random_polynomial_field,
    unpruned_balance_search,
)
from threewave import models, ratfunc, reports, singular
from threewave.errors import AnalysisFailed, PositiveDimensional, VerificationFailed
from threewave.gaussian import gr
from threewave.geometry import (
    Chart, ChartMap, VectorField, det3, log_pole_decomposition, power_scaled_chart, pushforward,
)
from threewave.numerics import compile_triple
from threewave.poly import MultiPoly
from threewave.ratfunc import RationalFn, substitute, value_at
from threewave.singular import (
    blow_up,
    classify_alpha_matrix,
    find_accessible,
    holomorphy_obstructions,
    index_of_linear_part,
    linear_part,
    local_index,
    painleve_leading_orders,
    resolution_pipeline,
    solve_parameter_conditions,
    weighted_balance,
)
from threewave.parsing import parse_expr, parse_model, parse_triple
from threewave.symbols import parameter, table


def _chart_field(kind, chart_name, params=None):
    if chart_name == "W":
        cmap = models.weighted_chart(kind)[1]
    else:
        cmap = next(m for m in models.atlas(kind, "projective") if m.target.name == chart_name)
    return pushforward(models.system_field(kind, params), cmap)


def _scan(v):
    """The accessible points of ``v``, a field made by a test, kept on a
    model parsed afresh for it."""
    return find_accessible(fresh_model("three-wave"), v)


# -- accessible points ---------------------------------------------------------


def test_accessible_points_reciprocal_chart():
    w = _chart_field("three-wave", "U1")
    scan = find_accessible("three-wave", w)
    got = {p.text() for p in scan.points}
    assert got == {"(0, 0, 0)", "(0, i, 0)", "(0, -i, 0)"}
    assert scan.residuals == ()


def test_accessible_points_weighted_chart():
    w = _chart_field("three-wave", "W")
    scan = find_accessible("three-wave", w)
    got = {p.text() for p in scan.points}
    assert got == {"(0, 1/2*delta, 0)", "(0, 1/2*delta, -1)"}


def test_accessible_point_multiplicity_four():
    w = _chart_field("three-wave", "U3")
    scan = find_accessible("three-wave", w)
    assert len(scan.points) == 1
    p = scan.points[0]
    assert p.text() == "(0, 0, 0)"
    assert p.multiplicity == 4


def test_zero_field_positive_dimensional():
    t = table("X", "Y", "Z")
    chart = Chart("C", (t.get("X"), t.get("Y"), t.get("Z")), boundary=t.get("X"))
    zero = RationalFn.const(t, 0)
    v = VectorField(chart, [zero, zero, zero])
    with pytest.raises(PositiveDimensional):
        _scan(v)


def _boundary_x_field(gy, gz):
    """d(X)/dt = X, d(Y)/dt = gy/X, d(Z)/dt = gz/X on a chart with boundary X;
    ``gy`` and ``gz`` are texts in Y, Z and delta."""
    t = table("X", "Y", "Z").extend([parameter("delta")])
    chart = Chart("C", (t.get("X"), t.get("Y"), t.get("Z")), boundary=t.get("X"))
    X = RationalFn.var(t, "X")
    return VectorField(chart, [X] + [parse_expr(g, t) / X for g in (gy, gz)])


@pytest.mark.parametrize(
    "gy, gz",
    [
        ("0", "Y*Z-1"),  # one component zero, the other a curve
        ("Z-1", "(Z-1)*(Z-2)"),  # a common factor in Z only
        ("Y-1", "(Y-1)*Y"),  # a common factor in Y only
        ("(Y+Z)*(Y-1)", "(Y+Z)*(Z-2)"),  # a common factor in Y and Z
        ("(Z-1)*Y", "(Z-1)*(Y-3)"),  # both vanish on the line Z = 1
        ("(Z^2-2)*Y", "(Z^2-2)*(Y-3)"),  # a common factor with no root over Q(i)
    ],
)
def test_degenerate_boundary_pairs_are_positive_dimensional(gy, gz):
    with pytest.raises(PositiveDimensional):
        _scan(_boundary_x_field(gy, gz))


def test_shared_parameter_factor_keeps_the_point():
    scan = _scan(_boundary_x_field("delta*(Y-1)", "delta*(Z-2)"))
    assert [p.text() for p in scan.points] == ["(0, 1, 2)"]
    assert scan.residuals == ()


def test_paper_point_resolves_on_the_model_chart():
    # at delta = 0, gamma = -1 the specialized field's own top balance has
    # orders (1, -2, 2), and on that chart the boundary pair shares the
    # factor ZW+1; the model's chart W, chosen on the symbolic field, keeps
    # two points there, and the pipeline resolves through it
    m = models.model("three-wave")
    v = models.system_field(m, [0, -1])
    assert weighted_balance(painleve_leading_orders(v, 2)).exponents == (1, -2, 2)
    degenerate = power_scaled_chart(m.base, m.table, "W", m.charts["W"].vars, (1, -2, 2))
    with pytest.raises(PositiveDimensional):
        find_accessible(m, pushforward(v, degenerate))
    balance, wmap = models.weighted_chart(m)
    assert balance.exponents == (1, 0, 2)
    _, scan = reports.scan_chart(m, [0, -1], "W")
    rep = resolution_pipeline(m, [0, -1])
    assert rep.fields[0].chart == wmap.target
    assert [p.text() for p, _ in rep.weighted_points] == [p.text() for p in scan.points]
    assert [p.text() for p in scan.points] == ["(0, 0, -1)", "(0, 0, 0)"]
    assert rep.obstruction.is_empty()


def test_chart_without_boundary_is_rejected():
    from threewave.geometry import log_pole_decomposition

    t = table("X", "Y", "Z")
    chart = Chart("C", (t.get("X"), t.get("Y"), t.get("Z")))
    X = RationalFn.var(t, "X")
    v = VectorField(chart, [X, 1 / X, X])
    for analysis in (_scan, holomorphy_obstructions, log_pole_decomposition):
        with pytest.raises(ValueError, match="has no boundary variable"):
            analysis(v)


def test_every_reported_point_satisfies_definition():
    # transverse log-pole parts vanish exactly at every reported point
    for chart_name in ("U1", "U2", "U3", "W"):
        w = _chart_field("three-wave", chart_name)
        from threewave.geometry import log_pole_decomposition

        lp = log_pole_decomposition(w)
        zero = {w.table.get(w.chart.boundary.name): gr(0)}
        for p in find_accessible("three-wave", w).points:
            bindings = {s: p.coords[k] for k, s in enumerate(p.chart.vars)}
            for _, g in lp.transverse:
                val = substitute(RationalFn.from_poly(g.specialize(zero)), bindings, w.table)
                assert val.is_zero()


# -- one solve per distinct boundary pair -------------------------------------------


def _pair_solves(monkeypatch):
    """A list that records the (u, w) names of every call of the unmemoized
    boundary-pair solver; a model parsed afresh starts with no pair solved."""
    calls = []
    real = singular._solve_boundary_pair
    monkeypatch.setattr(singular, "_solve_boundary_pair",
                        lambda m, gu, gw, u, w: calls.append((u.name, w.name))
                        or real(m, gu, gw, u, w))
    return calls


@pytest.mark.parametrize("kind, first, second", [
    ("three-wave", [1, 0], [gr(3, -1), Fraction(2, 7)]),
    ("modified", [1, 2, 3, 4, 5], [gr(0, 2), -1, Fraction(5, 3), 7, gr(1, 1)]),
])
def test_projective_pairs_are_solved_once_per_model(monkeypatch, kind, first, second):
    # on U1-U3 the boundary pair comes from the field's top-degree part, the
    # same at every parameter point, so a second point solves none of them
    calls = _pair_solves(monkeypatch)
    m = fresh_model(kind)
    projective = {s.name for cm in models.atlas(m, "projective") for s in cm.target.vars}
    reports.singularities_report(m, first)
    assert len([c for c in calls if c[0] in projective]) == 3
    calls.clear()
    reports.singularities_report(m, second)
    assert [c for c in calls if c[0] in projective] == []


def test_equal_pairs_on_another_chart_or_table_are_solved_again(monkeypatch):
    calls = _pair_solves(monkeypatch)
    m = fresh_model("three-wave")
    v = _boundary_x_field("delta*(Y-1)", "Z-2")
    scan = find_accessible(m, v)
    assert find_accessible(m, v) == scan and len(calls) == 1
    renamed = Chart("D", v.chart.vars, boundary=v.chart.boundary)
    on_d = find_accessible(m, VectorField(renamed, v.components))
    wider = v.table.extend([parameter("eps")])
    on_wider = find_accessible(m, v.retable(wider))
    assert len(calls) == 3
    assert [p.chart.name for p in on_d.points] == ["D"]
    assert [c.table for p in on_wider.points for c in p.coords] == [wider] * 3
    assert [p.text() for p in on_d.points + on_wider.points] == [p.text() for p in scan.points] * 2


@pytest.mark.parametrize("gu, gw, want", [
    # the eliminant w is spurious: at w = 0 both read as nonzero constants
    ("w*u - 1", "w*u - 2", ([], ())),
    # above the root w = 0 the pair leaves u^2 - 2, which does not split
    ("u^2 - 2 + w", "w", ([], ("w = 0: residual in u: u^2-2",))),
    # one component vanishes and the other is a nonzero constant
    ("0", "3", ([], ())),
])
def test_boundary_pair_without_points(gu, gw, want):
    t = table("u", "w")
    u, w = t.get("u"), t.get("w")
    gu, gw = parse_expr(gu, t).num, parse_expr(gw, t).num
    assert singular._solve_boundary_pair(fresh_model("three-wave"), gu, gw, u, w) == want


def _differential_points():
    """Thirty parameter points of the built-ins: the strata found by hand,
    partial bindings, and seeded random Gaussian rationals."""
    rng = random.Random(2203)

    def value():
        return gr(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    points = [("three-wave", p) for p in ([0, 1], [2, -1], [0, -1], [None, -1], [0, None], None)]
    points += [("modified", p) for p in ([1, 2, 3, 4, 0], [0, 0, 0, 0, 0], [1, 2, 3, 2, 5],
                                         [None, 2, None, 2, None], [None, None, None, None, 0],
                                         [0, gr(0, 1), 0, -1, 3])]
    points += [("three-wave", [value(), value()]) for _ in range(9)]
    points += [("modified", [value() for _ in range(5)]) for _ in range(9)]
    return points


def _census_text(system, params):
    try:
        return json.dumps(reports.singularities_report(system, params), sort_keys=True)
    except PositiveDimensional as exc:
        return f"PositiveDimensional: {exc}"


def test_scans_from_the_memo_equal_cold_scans(monkeypatch):
    # differential: each scan and census read from a warm memo equals the one
    # computed on a model parsed again
    calls = _pair_solves(monkeypatch)
    parsed = {kind: fresh_model(kind) for kind in ("three-wave", "modified")}
    for kind, params in _differential_points():
        m = parsed[kind]
        warm_text = _census_text(m, params)
        fields = [reports.scan_chart(m, params, name)[0] for name in reports.scan_charts(m)]
        calls.clear()
        warm = [find_accessible(m, w) for w in fields]
        assert calls == [], (kind, params)
        cold = [find_accessible(fresh_model(kind), w) for w in fields]
        assert cold == warm, (kind, params)
        assert _census_text(fresh_model(kind), params) == warm_text, (kind, params)


# -- one symbolic scan per model and chart, one census slot per map ----------------------


def _symbolic_reports(kind):
    """The JSON of every report that reads the symbolic scans or the slots."""
    return json.dumps([
        reports.singularities_report(kind),
        reports.index_report(kind, None, "P1"),
        reports.alpha_report(kind),
    ], sort_keys=True)


@pytest.mark.parametrize("kind", ["three-wave", "modified"])
def test_symbolic_scans_are_kept_per_model_and_map(kind):
    m = models.model(kind)
    warm = _symbolic_reports(kind)
    for name, cmap in reports.scan_charts(m).items():
        first = reports.scan_chart(m, None, name)
        none = [None] * len(m.table.parameters())
        assert reports.scan_chart(m, none, name) is first
        assert reports.scan_chart(kind, None, name)[1] is first[1]
        if cmap is not None:
            assert reports.reciprocal_slot(m, cmap) is reports.reciprocal_slot(kind, cmap)
    # a model parsed again scans, slots and reads its linear parts cold
    assert _symbolic_reports(fresh_model(kind)) == warm


def test_a_model_loaded_twice_is_scanned_twice(monkeypatch):
    text = models.export_model("three-wave")
    first, second = (parse_model(text, name) for name in ("first", "second"))
    calls = []
    real = reports.find_accessible
    monkeypatch.setattr(reports, "find_accessible",
                        lambda system, v: calls.append(v.chart.name) or real(system, v))
    scans = [reports.scan_chart(m, None, "U1") for m in (first, second, first)]
    assert calls == ["U1", "U1"]
    assert scans[0] is scans[2] and scans[1] is not scans[0]
    assert [p.text() for p in scans[1][1].points] == [p.text() for p in scans[0][1].points]


def test_a_model_parsed_twice_gets_its_own_points():
    # the boundary solve is kept on each parsed model, not shared by value
    # across parses: the second parse's points sit on its own table
    first, second = fresh_model("three-wave"), fresh_model("three-wave")
    (w1, scan1), (w2, scan2) = (reports.scan_chart(m, [2, 0], "W") for m in (first, second))
    assert [p.text() for p in scan2.points] == [p.text() for p in scan1.points]
    assert w2.table is not w1.table
    assert all(c.table is w2.table for p in scan2.points for c in p.coords)
    first_ids, second_ids = ({id(x) for p in scan.points for x in (p, *p.coords)}
                             for scan in (scan1, scan2))
    assert not first_ids & second_ids


@pytest.mark.parametrize("params", [[1, 0], [gr(3, -1), Fraction(2, 7)], [None, 0]])
def test_a_report_at_a_point_never_reads_the_symbolic_scans(monkeypatch, params):
    def refused(*args):
        raise AssertionError("read the symbolic scans at a parameter point")

    monkeypatch.setattr(reports, "_symbolic_scan", refused)
    reports.singularities_report("three-wave", params)
    reports.index_report("three-wave", params, "P4_2")


# -- one linear part per model and named point -------------------------------------------


def _counted_linear_parts(monkeypatch):
    """A list that records the point of every ``linear_part`` call of the
    reports."""
    calls = []
    real = reports.linear_part
    monkeypatch.setattr(reports, "linear_part", lambda form, p: calls.append(p) or real(form, p))
    return calls


def _point_reports(m):
    """The JSON of the index and alpha reports of every label of ``m`` with
    every parameter symbolic, a refusal as its message."""
    out = []
    for label in reports.POINT_CHARTS:
        for build in (reports.index_report, reports.alpha_report):
            try:
                out.append(build(m, None, label))
            except AnalysisFailed as exc:
                out.append(f"AnalysisFailed: {exc}")
    return json.dumps(out, sort_keys=True)


@pytest.mark.parametrize("kind", ["three-wave", "modified"])
def test_linear_parts_are_kept_per_model_and_label(monkeypatch, kind):
    m = fresh_model(kind)
    calls = _counted_linear_parts(monkeypatch)
    warm = _point_reports(m)
    assert _point_reports(m) == warm
    assert len(calls) == len(reports.POINT_CHARTS)  # one per label, over 24 reports
    none = [None] * len(m.table.parameters())
    for label in reports.POINT_CHARTS:
        first = reports._point_linear_part(models.model(kind), None, label)
        again = reports._point_linear_part(kind, none, label)
        assert all(a is b for a, b in zip(again, first))
    # the built-in, warm or cold, reads the same linear parts
    assert _point_reports(kind) == warm


def test_a_model_loaded_twice_gets_its_own_linear_parts(monkeypatch):
    text = models.export_model("three-wave")
    first, second = (parse_model(text, name) for name in ("first", "second"))
    calls = _counted_linear_parts(monkeypatch)
    parts = [reports._point_linear_part(m, None, "P4_2") for m in (first, second, first)]
    assert len(calls) == 2
    assert parts[0] is parts[2] and parts[1] is not parts[0]
    assert reports.index_report(second, None, "P4_2") == reports.index_report(first, None, "P4_2")
    assert len(calls) == 2


@pytest.mark.parametrize("params", [[1, 0], [gr(3, -1), Fraction(2, 7)], [None, 0]])
def test_a_report_at_a_point_never_reads_the_symbolic_linear_parts(monkeypatch, params):
    def refused(*args):
        raise AssertionError("read the symbolic linear parts at a parameter point")

    monkeypatch.setattr(reports, "_symbolic_linear_part", refused)
    calls = []
    real = reports.linear_part
    monkeypatch.setattr(reports, "linear_part", lambda form, p: calls.append(p) or real(form, p))
    for _ in range(2):
        reports.index_report("three-wave", params, "P4_2")
        reports.alpha_report("three-wave", params, "P4_2")
    assert len(calls) == 4


def test_refused_linear_parts_are_raised_on_every_call(monkeypatch):
    m = fresh_model("three-wave")
    calls = _counted_linear_parts(monkeypatch)
    # the classification refuses; the linear part it read is kept
    for _ in range(2):
        with pytest.raises(AnalysisFailed, match="needs a_11 != 0"):
            reports.alpha_report(m, None, "P1")
    assert len(calls) == 1
    for _ in range(2):
        with pytest.raises(KeyError, match="unknown point 'P9'"):
            reports.index_report(m, None, "P9")
    # a linear part that fails its re-verification is computed and refused again
    failed = []

    def failing(form, p):
        failed.append(p)
        raise VerificationFailed(f"point {p.text()} is not accessible")

    monkeypatch.setattr(reports, "linear_part", failing)
    for _ in range(2):
        with pytest.raises(VerificationFailed, match="is not accessible"):
            reports.index_report(m, None, "P4_2")
    assert len(failed) == 2


# -- linear part / local index ----------------------------------------------------


def _named(system="three-wave"):
    """Every classical label of ``system``, parameters symbolic, with the
    field of its chart and its point."""
    out = {}
    for label in reports.POINT_CHARTS:
        v, _, p = reports._named_point(system, None, label)
        out[label] = (v, p)
    return out


def test_linear_part_matches_tables():
    pts = _named()
    v, p1 = pts["P1"]
    A = linear_part(log_pole_decomposition(v), p1)
    diag = [A[k][k].text() for k in range(3)]
    assert diag == ["0", "2", "-2"]
    v, p42 = pts["P4_2"]
    A = linear_part(log_pole_decomposition(v), p42)
    assert [A[k][k].text() for k in range(3)] == ["1", "2", "2"]
    # sub-diagonal couplings from the expansion at the degenerate point
    assert A[1][0].text() == "1/2*delta*gamma"
    assert A[2][0].text() == "2*gamma+2"


def test_local_index_table():
    pts = _named()
    expected = {
        "P1": ("0", "2", "-2"),
        "P2": ("-2", "-4", "-4"),
        "P3": ("-2", "-4", "-4"),
        "P4_1": ("0", "2", "-2"),
        "P4_2": ("1", "2", "2"),
    }
    for name, eig in expected.items():
        v, p = pts[name]
        idx = local_index(v, p)
        assert tuple(e.text() for e in idx.eigenvalues) == eig, name


def test_local_index_ratios_and_integrality():
    pts = _named()
    v, p2 = pts["P2"]
    idx = local_index(v, p2)
    assert tuple(r.text() for r in idx.ratios) == ("1", "2", "2")
    assert all(idx.integrality)
    v, p41 = pts["P4_1"]
    idx41 = local_index(v, p41)
    assert idx41.ratios is None and idx41.integrality is None


def test_trace_determinant_invariants():
    pts = _named()
    for name, (v, p) in pts.items():
        if name == "P4":  # multiplicity-4 point is analyzed on the weighted chart
            continue
        A = linear_part(log_pole_decomposition(v), p)
        idx = local_index(v, p)
        tr = A[0][0] + A[1][1] + A[2][2]
        assert tr == idx.eigenvalues[0] + idx.eigenvalues[1] + idx.eigenvalues[2]
        det = (
            A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
        )
        assert det == idx.eigenvalues[0] * idx.eigenvalues[1] * idx.eigenvalues[2]


def test_linear_part_rejects_a_point_that_is_not_accessible():
    v, p = _named()["P1"]
    k = next(k for k, s in enumerate(p.chart.vars) if s != p.boundary)
    coords = list(p.coords)
    coords[k] = coords[k] + 1
    moved = singular.AccessiblePoint(p.chart, tuple(coords))
    with pytest.raises(VerificationFailed, match="is not accessible") as info:
        linear_part(log_pole_decomposition(v), moved)
    assert not isinstance(info.value, ValueError)


def test_linear_part_at_a_point_with_parameter_denominators():
    # at Y = 1/delta the Z row's Y coefficient is 2*Y0*(delta*Y0-1) + delta*Y0^2 = 1/delta
    v = _boundary_x_field("delta*Y-1", "Z-2+Y^2*(delta*Y-1)")
    (p,) = _scan(v).points
    assert p.text() == "(0, 1/(delta), 2)"
    A = linear_part(log_pole_decomposition(v), p)
    assert [[e.text() for e in row] for row in A] == [
        ["0", "0", "0"], ["0", "delta", "0"], ["0", "1/(delta)", "1"]
    ]


def test_spectral_ordering_without_a_triangular_permutation():
    t = table("X", "Y", "Z")
    A = [[RationalFn.const(t, c) for c in row] for row in ((1, 0, 0), (0, 0, 1), (0, -1, 0))]
    idx = index_of_linear_part(A, t)
    assert idx.ordering == "spectral"
    assert tuple(e.text() for e in idx.eigenvalues) == ("-i", "1", "i")
    for lam in idx.eigenvalues:
        shifted = [[A[k][j] - lam if j == k else A[k][j] for j in range(3)] for k in range(3)]
        assert det3(shifted).is_zero()


def test_index_invariant_under_transverse_permutation():
    # eigenvalue multiset survives permuting the non-boundary coordinates
    pts = _named()
    v, p = pts["P2"]
    idx = local_index(v, p)
    multiset = sorted(e.text() for e in idx.eigenvalues)
    swapped_chart = Chart(p.chart.name, (p.chart.vars[0], p.chart.vars[2], p.chart.vars[1]), p.chart.boundary)
    swapped_field = VectorField(swapped_chart, (v.components[0], v.components[2], v.components[1]))
    from threewave.singular import AccessiblePoint

    swapped_point = AccessiblePoint(swapped_chart, (p.coords[0], p.coords[2], p.coords[1]))
    idx2 = local_index(swapped_field, swapped_point)
    assert sorted(e.text() for e in idx2.eigenvalues) == multiset


# -- alpha test ---------------------------------------------------------------------


def test_alpha_test_at_degenerate_point():
    pts = _named()
    v, p = pts["P4_2"]
    rep = classify_alpha_matrix(linear_part(log_pole_decomposition(v), p))
    assert tuple(r.text() for r in rep.ratios) == ("1", "2", "2")
    assert rep.single_valued


def test_alpha_toy_non_integer_ratio():
    t = table("a:parameter")
    half = RationalFn.const(t, gr(Fraction(1, 2)))
    one = RationalFn.const(t, 1)
    zero = RationalFn.const(t, 0)
    rep = classify_alpha_matrix([[one, zero, zero], [zero, half, zero], [zero, zero, one]])
    assert not rep.component_single_valued[0]
    assert not rep.single_valued


def test_alpha_toy_logarithm_from_equal_eigenvalues():
    t = table("a:parameter")
    one = RationalFn.const(t, 1)
    zero = RationalFn.const(t, 0)
    rep = classify_alpha_matrix([[one, zero], [one, one]])
    assert rep.log_detected and not rep.single_valued
    # with vanishing coupling the logarithm disappears
    rep2 = classify_alpha_matrix([[one, zero], [zero, one]])
    assert not rep2.log_detected and rep2.single_valued


def test_alpha_verdicts_are_analysis_failures():
    t = table("a:parameter")
    one, zero = RationalFn.const(t, 1), RationalFn.const(t, 0)
    a = RationalFn.var(t, "a")
    with pytest.raises(AnalysisFailed, match="needs a_11 != 0"):
        classify_alpha_matrix([[zero, zero], [zero, one]])
    with pytest.raises(AnalysisFailed, match="depends on parameters"):
        classify_alpha_matrix([[one, zero], [zero, a]])


# -- dominant balances -----------------------------------------------------------------


def _balances(v, bound, keep) -> list:
    """The balances of the search to ``bound`` whose pole orders ``keep``
    accepts, in order."""
    return [b for b in painleve_leading_orders(v, bound).balances if keep(b.exponents)]


def test_painleve_orders_for_three_wave():
    v = models.three_wave_system()
    balances = painleve_leading_orders(v, 2).balances
    by_orders = {b.exponents for b in balances}
    assert (1, 0, 2) in by_orders
    main = next(b for b in balances if b.exponents == (1, 0, 2))
    assert tuple(c.text() for c in main.coefficients) == ("1", "1/2*delta", "-1")
    for b in balances:
        assert naive_balance_holds(v, b)


def test_painleve_riccati_toy():
    t = table("x", "y", "z")
    chart = Chart("C", (t.get("x"), t.get("y"), t.get("z")))
    x = RationalFn.var(t, "x")
    zero = RationalFn.const(t, 0)
    v = VectorField(chart, [x * x, zero, zero])
    balances = painleve_leading_orders(v, 1).balances
    assert any(
        b.exponents[0] == 1 and b.coefficients[0].text() == "-1" for b in balances
    )


def test_painleve_returns_only_verified_balances():
    # a root with a denominator in a later-solved unknown used to yield the
    # (1, 1, 1) "balances" x = y = (-4 +- 2i)/5, z = (1 +- 2i)/5 of this field,
    # which fail its y and z equations; the field has no (1, 1, 1) balance
    t = table("x", "y", "z")
    chart = Chart("C", (t.get("x"), t.get("y"), t.get("z")))
    v = VectorField(chart, parse_triple(
        "x*y - x*z - 1/2*y^2 - 2*z^2 - 2*z - 2 ; 2*x*y - 2*x*z - y^2 + 1/2*y - z ;"
        " 1/2*x*y + 1/2*y*z",
        t,
    ))
    balances = painleve_leading_orders(v, 2).balances
    assert all(b.exponents != (1, 1, 1) for b in balances)
    assert all(naive_balance_holds(v, b) for b in balances)


def test_painleve_report_certifies_each_balance_once(monkeypatch):
    # the report lists the search's balances as they come out of the solver,
    # whose certificate is the only exact check: a cold report makes as many
    # calls to it as the search alone
    calls = []
    vanishes = singular.vanishes

    def counted(*args):
        calls.append(args)
        return vanishes(*args)

    monkeypatch.setattr(singular, "vanishes", counted)
    for kind in models.BUILTINS:
        calls.clear()
        rep = reports.painleve_report(fresh_model(kind))
        in_report = len(calls)
        calls.clear()
        search = painleve_leading_orders(models.system_field(kind), 2)
        assert in_report == len(calls) > 0, kind
        assert len(rep["balances"]) == len(search.balances) > 0, kind


def test_painleve_and_the_weighted_chart_share_one_search(monkeypatch):
    # the search is kept per model and bound: after one report, neither a
    # second report nor the weighted chart's balance solves a triple again
    calls = []
    solve = singular.solve_branches

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(singular, "solve_branches", counted)
    for kind in models.BUILTINS:
        m = fresh_model(kind)
        calls.clear()
        reports.painleve_report(m)
        assert len(calls) > 0, kind
        calls.clear()
        reports.painleve_report(m)
        models.weighted_chart(m)
        assert calls == [], kind


def test_a_balance_search_solves_each_equation_once(monkeypatch):
    # triples share root equations (-2*lead2^2+lead1 and 4*lead2^3+lead2 come
    # up again and again); a cold search solves each once for all its triples
    calls = []
    find_roots = singular.find_roots
    monkeypatch.setattr(singular, "find_roots",
                        lambda p, var: calls.append((p, var)) or find_roots(p, var))
    for kind, bound in [("three-wave", 2), ("modified", 2), ("three-wave", 4)]:
        calls.clear()
        models.balance_search(fresh_model(kind), bound)
        assert len(calls) == len(set(calls)) > 0, kind
        assert "-2*lead2^2+lead1" in {p.text() for p, _ in calls}, kind


def test_branch_whose_back_substitution_vanishes_is_solved_again():
    # a = (c-1)/(b-1) would vanish its denominator at the solution b = c = 1;
    # the solver pins b through its monomial leading coefficient a instead,
    # and every unknown nonzero leaves the single solution a = 2, b = c = 1
    t = table("a:parameter", "b:parameter", "c:parameter")
    a, b, c = (MultiPoly.var(t, n) for n in "abc")
    one = MultiPoly.const(t, 1)
    eqs = [(b - one) * a - (c - one), a * b * c - 2 * c, a * b * c - a * c]
    (sol,) = singular.solve_branches(eqs, tuple(t.get(n) for n in "abc"), t, nonzero=True)
    assert sol.residuals == ()
    assert {s.name: v.text() for s, v in sol.pinned} == {"a": "2", "b": "1", "c": "1"}


def test_painleve_drops_a_branch_with_no_solution_after_the_pin():
    # lead1 = -1/2*lead2^2/(lead3+1) meets lead3 = -1 at pole orders (1, 1, 1);
    # with lead3 = -1 put in first only lead2 = 0 solves, so no balance is left
    t = table("x", "y", "z")
    chart = Chart("C", (t.get("x"), t.get("y"), t.get("z")))
    v = VectorField(chart, parse_triple(FIELD_113, t))
    assert _balances(v, 2, lambda o: o == (1, 1, 1)) == []
    assert all(naive_balance_holds(v, b) for b in painleve_leading_orders(v, 2).balances)


# a random field of the bench's cli workload (seed 113) on which painleve failed
FIELD_113 = (
    "x*z - 2*x + 1/2*y^2 + 2*z ; -1/2*x*z - 2*y^2 - 1/2*y ;"
    " -x^2 + 2*x*y + 2*x*z - 1/2*x + y*z + 2*z^2 - 1/2*z - 1"
)


# a random field of the bench's cli workload (seed 17): its (1, 0, 1) equations
# include lead1*(2*lead3 + 1) = 0, whose root lead3 = -1/2 is lost when the
# equation is solved for lead1 and its content 2*lead3 + 1 dropped
FIELD_17 = (
    "2*x*z - 2*x + 2*y ; 2*x - y^2 + y*z ;"
    " -x^2 + x*y - 2*x + 1/2*y^2 - 2*z^2 + 1/2*z"
)


def test_painleve_finds_a_lead_in_the_content_of_another(tmp_path):
    path = tmp_path / "f17.model"
    path.write_text(f"chart U0 : x y z\nsystem U0 : {FIELD_17}\n")
    rep = reports.painleve_report(str(path))
    found = [b for b in rep["balances"] if b["exponents"] == [1, 0, 1]]
    assert [b["coefficients"] for b in found] == [["-i", "-4*i", "-1/2"], ["i", "4*i", "-1/2"]]
    assert all(b["verified"] and not b["free"] for b in found)


def test_painleve_linear_system_has_no_balance():
    t = table("x", "y", "z")
    chart = Chart("C", (t.get("x"), t.get("y"), t.get("z")))
    x, y, z = (RationalFn.var(t, n) for n in ("x", "y", "z"))
    v = VectorField(chart, [x, 2 * y, -z])
    assert painleve_leading_orders(v, 2).balances == ()


# three points of each built-in off the PositiveDimensional loci delta = 0
# and alpha5 = 0; with the symbolic field, four fields per built-in
BALANCE_POINTS = {
    "three-wave": [None, [1, 0], [2, 3], [Fraction(1, 2), -1]],
    "modified": [None, [1, 2, 3, 4, 5], [0, 1, -1, 2, 1], [Fraction(1, 2), 0, 0, 1, -2]],
}


def test_balance_equations_match_naive_construction():
    # every order triple with |m| <= 2: the re-keyed, weight-bucketed
    # equations against the monomial-by-monomial products, as equal lists
    # in the same order, each equation's terms in the same order too; a
    # triple skipped on its weights has no branch on the naive equations
    rng = random.Random(5)
    fields = [models.system_field(kind, params) for kind, points in BALANCE_POINTS.items()
              for params in points]
    fields += [random_polynomial_field(rng) for _ in range(10)]
    built = skipped = 0
    for v in fields:
        work, leads, components = singular._lead_setup(v)
        for orders in itertools.product(range(-2, 3), repeat=3):
            got = singular._balance_equations(work, leads, components, orders)
            want = naive_balance_equations(v, orders)
            if got is None:
                skipped += 1
                assert singular.solve_branches(want, leads, work, nonzero=True) == [], orders
                continue
            built += 1
            assert got == want, orders
            assert [list(e.terms) for e in got] == [list(e.terms) for e in want], orders
    assert built + skipped == 125 * len(fields) == 125 * 18
    assert built > 100 and skipped > 1000


def test_pipeline_balance_is_the_top_sum_balance():
    # the weighted chart's balance is what max() picks over the balances of
    # every m >= 1 triple in product order
    def pole_in_x(orders):
        return orders[0] >= 1

    for kind, points in BALANCE_POINTS.items():
        for params in points:
            v = models.system_field(kind, params)
            full = _balances(v, 2, pole_in_x)
            want = max(full, key=lambda b: sum(b.exponents))
            assert weighted_balance(painleve_leading_orders(v, 2)) == want, (kind, params)
    # a toy whose top sum 3 has two triples with balances, (1, 1, 1) before
    # (1, 2, 0) in product order: the tie goes to the first
    t = table("x", "y", "z")
    chart = Chart("C", (t.get("x"), t.get("y"), t.get("z")))
    v = VectorField(chart, parse_triple("z^2 - 2*y*z ; -x*y ; -x^2 - 2*y", t))
    top = [b.exponents for b in _balances(v, 2, pole_in_x) if sum(b.exponents) == 3]
    assert top[0] == (1, 1, 1) and (1, 2, 0) in top
    assert weighted_balance(painleve_leading_orders(v, 2)).exponents == (1, 1, 1)


def test_pruned_balance_search_matches_the_unpruned_oracle():
    # the triples skipped on integer weights alone lose nothing: the balances
    # and the residual branches equal those of solving every triple, and every
    # skipped triple has no branch at all; |m| <= 3 on the built-ins, |m| <= 2
    # on 10 random polynomial fields and 50 random fields of the benchmark
    def triples(bound):
        span = range(-bound, bound + 1)
        return [o for o in itertools.product(span, repeat=3) if max(o) >= 1]

    rng = random.Random(29)
    fields = [(models.system_field(kind, params), 3) for kind, points in BALANCE_POINTS.items()
              for params in points]
    fields += [(random_polynomial_field(rng), 2) for _ in range(10)]
    workloads = bench_workloads()
    t = table("x", "y", "z")
    chart = Chart("C", (t.get("x"), t.get("y"), t.get("z")))
    for seed in range(50):
        field = workloads.random_field(random.Random(seed))
        text = " ; ".join(workloads.field_text(field[k]) for k in range(3))
        fields.append((VectorField(chart, parse_triple(text, t)), 2))
    skipped = 0
    for v, bound in fields:
        solved, balances = unpruned_balance_search(v, triples(bound))
        assert all(naive_balance_holds(v, b) for b in balances)
        search = painleve_leading_orders(v, bound)
        assert list(search.balances) == balances
        residual = [(o, b) for o, branches in solved for b in branches if b.residuals]
        assert list(search.residual_branches) == residual
        # no branch is dropped silently: each is a balance or a residual branch
        assert len(balances) + len(residual) == sum(len(bs) for _, bs in solved)
        setup = singular._lead_setup(v)
        for o, branches in solved:
            if singular._balance_equations(*setup, o) is None:
                skipped += 1
                assert branches == [], o
    assert skipped > 5000


def test_painleve_lists_the_euler_top_residual_branch(tmp_path):
    # x' = a*y*z, y' = b*x*z, z' = c*x*y: its (1, 1, 1) balances need
    # lead3^2 = 1/(a*b) and lead2^2 = 1/(a*c), roots outside Q(i)(a, b, c)
    # and outside Q(i) at (2, 3, 5), so the branch is reported as residual
    path = tmp_path / "euler.model"
    path.write_text("params a b c\nchart U0 : x y z\nsystem U0 : a*y*z ; b*x*z ; c*x*y\n")
    cases = {
        None: "{lead1 = -a*lead2*lead3, a*b*lead3^2-1 = 0, a*c*lead2^2-1 = 0}",
        (2, 3, 5): "{lead1 = -2*lead2*lead3, lead3^2-1/6 = 0, lead2^2-1/10 = 0}",
    }
    for params, branch in cases.items():
        rep = reports.painleve_report(str(path), params)
        assert rep["balances"] == []
        assert rep["residual_branches"] == [f"exponents (1, 1, 1): {branch}"]


# -- blow-ups ---------------------------------------------------------------------------


def test_blow_up_directional_charts():
    w = _chart_field("three-wave", "W")
    scan = find_accessible("three-wave", w)
    target = next(p for p in scan.points if p.coords[2].text() == "-1")
    charts = [blow_up(w, target.coords, k) for k in range(3)]
    assert len(charts) == 3
    assert len({c.cmap.target.name for c in charts}) == 3
    boundary_dir = charts[w.chart.var_index(w.chart.boundary)]
    # in the boundary direction the first new variable is the old boundary itself
    fwd = boundary_dir.cmap.forward
    big = fwd[0].table
    assert fwd[0] == RationalFn.var(big, "XW")
    # the k-th new variable cuts out the exceptional divisor in chart k
    for k, c in enumerate(charts):
        assert c.cmap.target.boundary == c.cmap.target.vars[k]
        assert c.field.chart == c.cmap.target


def test_blow_up_names_its_variables_apart():
    # a symbol bu1_2 is not taken for the blow-up's second variable
    t = table("X", "Y", "Z", "bu1_2:parameter")
    chart = Chart("C", (t.get("X"), t.get("Y"), t.get("Z")), boundary=t.get("X"))
    v = VectorField(chart, parse_triple("X ; bu1_2*Y ; Z", t))
    piece = blow_up(v, [0, 0, 0], 0)
    assert [s.name for s in piece.cmap.target.vars] == ["bu1__1", "bu1__2", "bu1__3"]
    assert piece.field.components[1].text() == "bu1_2*bu1__2-bu1__2"


def test_blow_up_of_zero_field_is_zero():
    t = table("X", "Y", "Z")
    chart = Chart("C", (t.get("X"), t.get("Y"), t.get("Z")), boundary=t.get("X"))
    zero = RationalFn.const(t, 0)
    v = VectorField(chart, [zero, zero, zero])
    center = [RationalFn.const(t, 0)] * 3
    for piece in (blow_up(v, center, k) for k in range(3)):
        assert all(c.is_zero() for c in piece.field.components)


def test_blow_up_map_round_trip_numeric():
    w = _chart_field("three-wave", "W", params=[3, 2])
    scan = find_accessible("three-wave", w)
    target = next(p for p in scan.points if p.coords[2].text() == "-1")
    piece = blow_up(w, target.coords, 0)
    cmap = piece.cmap
    assert [s.name for s in cmap.source.vars] == ["XW", "YW", "ZW"]
    pt = (0.37 + 0.1j, 1.9, -0.55)
    forward = compile_triple(cmap.forward, [s.name for s in cmap.source.vars])
    back = compile_triple(cmap.inverse, [s.name for s in cmap.target.vars])(*forward(*pt))
    for value, want in zip(back, pt):
        assert abs(value - want) < 1e-12


# -- obstructions ------------------------------------------------------------------------


def test_pipeline_reproduces_conditions():
    rep = resolution_pipeline("three-wave")
    assert rep.obstruction.texts() == ["delta*gamma", "gamma^2+gamma"]
    assert [b.text() for b in rep.branches] == ["{delta = 0, gamma = -1}", "{gamma = 0}"]
    assert [c.text() for c in rep.centers] == ["(0, -1/2*delta*gamma, -2*gamma-2)"]


def _count_calls(monkeypatch, calls, *targets):
    """Record in ``calls`` the name of every call of each (module, name) in
    ``targets``, with the target chart of a pushforward."""
    for module, name in targets:
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name):
            calls.append(args[1].target.name if _name == "pushforward" else _name)
            return _real(*args)

        monkeypatch.setattr(module, name, counting)


_PIPELINE_STEPS = ((singular, "pushforward"), (models, "pushforward"),
                   (singular, "blow_up"), (singular, "linear_part"))


def test_pipeline_report_refuses_a_wrong_parameter_count():
    with pytest.raises(ValueError, match="expected 2 parameters, got 1"):
        reports.pipeline_report("three-wave", [1])


@pytest.mark.parametrize("system, params", [("three-wave", [1]), ("modified", [1, 2]),
                                            ("no-such-system", None)])
def test_pipeline_refuses_what_its_report_refuses(system, params):
    # the pipeline resolves the model and binds the parameters itself
    with pytest.raises((KeyError, ValueError)) as want:
        reports.pipeline_report(system, params)
    with pytest.raises(want.type) as got:
        resolution_pipeline(system, params)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("params", [None, [1, 2, 3, 2, 5]])
def test_pipeline_report_of_the_exported_model_file(params):
    # the exported built-in, read from its file, resolves as the built-in does
    path = str(Path(__file__).with_name("models") / "modified.model")
    got = reports.pipeline_report(path, params)
    want = reports.pipeline_report("modified", params)
    assert got.pop("system") == path and want.pop("system") == "modified"
    assert got == want


def test_pipeline_pushes_forward_only_along_its_blow_up_charts(monkeypatch):
    # the field on W and the symbolic pipeline are computed once per model,
    # so after a warm-up point a second point whose points all specialize the
    # symbolic ones pushes nothing, blows nothing up and reads no linear part
    reports.pipeline_report("three-wave", [1, 0])
    calls = []
    _count_calls(monkeypatch, calls, *_PIPELINE_STEPS)
    rep = reports.pipeline_report("three-wave", [2, 0])
    assert rep["chart_lineage"][0] == "W"
    assert calls == []
    # a pipeline without a lineage pushes exactly along its blow-up charts
    monkeypatch.setattr(singular, "_symbolic_lineage", lambda m: None)
    own = resolution_pipeline("three-wave", [2, 0])
    pushes = [c for c in calls if c not in ("blow_up", "linear_part")]
    assert pushes == [f.chart.name for f in own.fields[1:]] == rep["chart_lineage"][1:]


def _calls_at_a_second_point(monkeypatch, cls, name, counted=lambda *args: True):
    """Per built-in, the calls of ``cls.name`` that ``counted`` accepts while
    ``pipeline_report`` runs at a second parameter point after a warm-up one."""
    real, calls = getattr(cls, name), []

    def counting(*args):
        if counted(*args):
            calls.append(name)
        return real(*args)

    monkeypatch.setattr(cls, name, counting)
    got = {}
    for kind, warm_up, point in (("three-wave", [1, 0], [2, 0]),
                                 ("modified", [1, 2, 3, 4, 0], [1, 2, 3, 2, 5])):
        reports.pipeline_report(kind, warm_up)
        calls.clear()
        assert len(reports.pipeline_report(kind, point)["chart_lineage"]) == 3
        got[kind] = len(calls)
    return got


def test_pipeline_at_a_second_point_verifies_no_chart_map(monkeypatch):
    # a point that takes the lineage builds no blow-up map, so verifies none
    assert _calls_at_a_second_point(monkeypatch, ChartMap, "_verify") == {
        "three-wave": 0, "modified": 0}


def test_pipeline_at_a_second_point_specializes_the_weighted_field_once(monkeypatch):
    # the weighted field once, then the pushed field of each of the two blow-ups
    got = _calls_at_a_second_point(monkeypatch, VectorField, "specialize",
                                   lambda v, bindings: bool(bindings))
    assert got == {"three-wave": 3, "modified": 3}


def _direct_report(monkeypatch, kind, params):
    """``pipeline_report`` run on the specialized field alone, with no lineage,
    as a report or the error it raises."""
    with monkeypatch.context() as patch:
        patch.setattr(singular, "_symbolic_lineage", lambda m: None)
        return _outcome(kind, params)


def _outcome(kind, params):
    try:
        return reports.pipeline_report(kind, params)
    except Exception as exc:  # both routes must fail alike
        return f"{type(exc).__name__}: {exc}"


def test_pipeline_at_a_point_equals_the_pipeline_on_the_specialized_field(monkeypatch):
    # differential: the specialized symbolic lineage against the pipeline run
    # on the specialized field, at seeded points and the strata found by hand
    rng = random.Random(2110)
    pool = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), gr(0, 1), gr(1, -2), None]
    points = [("three-wave", p) for p in ([0, 1], [0, None], [2, -1], [None, -1], [0, -1],
                                          [Fraction(1, 3), 0], [None, 0])]
    points += [("three-wave", [rng.choice(pool), rng.choice(pool)]) for _ in range(12)]
    points += [("modified", p) for p in ([1, 2, 3, 4, 0], [0, 0, 0, 0, 0], [1, 2, 3, 2, 5],
                                         [None, 2, None, 2, None], [None, None, None, None, 0],
                                         [gr(0, 1), -1, 0, -1, 0])]
    points += [("modified", [rng.choice(pool) for _ in range(5)]) for _ in range(12)]
    reports.pipeline_report("three-wave")  # the symbolic runs, made once per model
    reports.pipeline_report("modified")
    for kind, params in points:
        want = _direct_report(monkeypatch, kind, params)
        calls = []
        with monkeypatch.context() as patch:
            _count_calls(patch, calls, *_PIPELINE_STEPS)
            got = _outcome(kind, params)
        assert got == want, (kind, params)
        assert calls == [], (kind, params)  # every step came from the lineage


def _replaced(record, **changes):
    """A record like ``record`` with ``changes`` to some of its fields, built
    by its constructor."""
    return type(record)(**{**{name: getattr(record, name) for name in record.__slots__}, **changes})


def _doctored_lineages():
    """Lineages handed to the pipeline at (delta, gamma) = (2, 0) as if they
    were the symbolic one, each failing to match there in one way."""
    symbolic = resolution_pipeline("three-wave")
    delta = symbolic.final_field.table.get("delta")

    def pole(fns):
        return [f + 1 / (RationalFn.var(f.table, delta) - 2) for f in fns]

    last = symbolic.final_field
    last = VectorField(last.chart, pole(last.components))
    point, index = symbolic.weighted_points[0]
    moved = _replaced(point, coords=tuple(c + 1 for c in point.coords))
    (row, *rows), *parts = symbolic.linear_parts
    return [
        # a weighted point moved, so the scanned one has no lineage linear part
        ("moved weighted point", _replaced(
            symbolic, weighted_points=((moved, index),) + symbolic.weighted_points[1:])),
        # a linear part has a pole at delta = 2
        ("pole in a linear part", _replaced(
            symbolic, linear_parts=((tuple(pole(row)), *rows), *parts))),
        # the entry point moved
        ("moved entry", _replaced(
            symbolic, entry_point=symbolic.weighted_points[1][0])),
        # the lineage lacks the second blow-up
        ("one blow-up", _replaced(symbolic, centers=(), fields=symbolic.fields[:2])),
        # the composed map has a pole at delta = 2
        ("pole in the composed map", _replaced(
            symbolic, composed_forward=tuple(pole(symbolic.composed_forward)))),
        # the last blow-up's field has a pole at delta = 2, so a route that
        # took the first blow-up from the lineage would compute only one
        ("pole in a field", _replaced(symbolic, fields=symbolic.fields[:-1] + (last,))),
    ]


def test_pipeline_falls_back_where_the_lineage_does_not_match(monkeypatch):
    # no point of the built-ins' grids leaves the symbolic lineage, so a
    # mismatch is forced by handing the pipeline other lineages; a point takes
    # the whole lineage or none of it, so each gives the report of the
    # pipeline on the specialized field alone, every step computed
    want = _direct_report(monkeypatch, "three-wave", [2, 0])
    lineage_charts = want["chart_lineage"]
    for label, lineage in _doctored_lineages():
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(singular, "_symbolic_lineage", lambda m, lineage=lineage: lineage)
            _count_calls(patch, calls, *_PIPELINE_STEPS)
            got = reports.pipeline_report("three-wave", [2, 0])
        assert got == want, label
        assert calls.count("blow_up") == 2, label
        assert calls.count("linear_part") == len(want["weighted_points"]), label
        pushed = [c for c in calls if c.startswith("W.")]
        assert pushed == lineage_charts[1:], label


def test_each_scanned_field_is_decomposed_once(monkeypatch):
    # the scan's log-pole form is the one the linear parts are read from
    reports.pipeline_report("three-wave")  # the symbolic run
    fields = []
    real = singular.log_pole_decomposition
    monkeypatch.setattr(singular, "log_pole_decomposition", lambda v: fields.append(v) or real(v))
    for report in (
        lambda: reports.pipeline_report("three-wave", [2, 0]),
        lambda: _direct_report(monkeypatch, "three-wave", [3, 0]),
        lambda: reports.index_report("three-wave", [2, 0], "P4_2"),
        lambda: reports.alpha_report("three-wave", [2, 0]),
    ):
        fields.clear()
        report()
        assert [v.chart.name for v in fields].count("W") == 1
        assert len(set(fields)) == len(fields)


def test_pipeline_composed_chart_equals_resolved_chart_three():
    # two independent routes to the same coordinate change: the weighted
    # chart followed by the two blow-ups composes to the atlas's third
    # twisted chart, up to flipping the sign of the middle coordinate
    rep = resolution_pipeline("three-wave")
    composed = rep.composed_forward
    big = rep.final_field.table
    t23 = next(m for m in models.resolved_atlas("three-wave") if m.target.name == "T2-3")
    expected = [f.retable(big) for f in t23.forward]
    assert composed[0] == expected[0]
    assert composed[1] == -expected[1]
    assert composed[2] == expected[2]
    # and the final pipeline field is the T2-3 pushforward seen through that sign flip
    w23 = pushforward(models.three_wave_system(), t23)
    renames = dict(zip((s.name for s in w23.chart.vars), rep.final_field.chart.vars))
    # compare componentwise after mapping (x3, y3, z3) -> (u, -v, w)
    bindings = {}
    for old, new in renames.items():
        expr = RationalFn.var(big, new)
        if old == "y3":
            expr = -expr
        bindings[big.get(old)] = expr
    moved = [substitute(c.retable(big), bindings, big) for c in w23.components]
    final = list(rep.final_field.components)
    assert final[0] == moved[0]
    assert final[1] == -moved[1]
    assert final[2] == moved[2]


def test_pipeline_modified_system_resolves_cleanly():
    rep = resolution_pipeline("modified")
    assert rep.obstruction.is_empty()


def _paper_branches(delta, gamma) -> list[str]:
    """The solutions of delta*gamma = gamma*(gamma+1) = 0 with the given
    values bound (None is free), as the report writes them."""
    if delta is None and gamma is None:
        return ["{delta = 0, gamma = -1}", "{gamma = 0}"]
    if gamma is None:
        return ["{gamma = -1}", "{gamma = 0}"] if delta == 0 else ["{gamma = 0}"]
    if gamma * (gamma + 1) != 0 or (delta is not None and delta * gamma != 0):
        return []
    if delta is None and gamma == -1:
        return ["{delta = 0}"]
    return ["{all parameters free}"]


def test_pipeline_follows_the_paper_predicate_on_the_scan_chart():
    # one weighted chart for the scan and the pipeline, at every point of the
    # grid; delta = 0 included, where the specialized field's own top balance
    # would pick a chart meeting the boundary in a curve
    values = [0, 1, -1, Fraction(1, 2), None]
    for params in itertools.product(values, repeat=2):
        rep = reports.pipeline_report("three-wave", list(params))
        want = _paper_branches(*params)
        assert rep["solution_branches"] == want, params
        assert rep["resolvable_without_conditions"] == (want == ["{all parameters free}"]), params
        scan = reports.singularities_report("three-wave", list(params), ["W"])
        assert [p["point"] for p in rep["weighted_points"]] == scan["charts"]["W"]["points"], params


def test_obstruction_specialization_both_directions():
    # the pipeline runs on symbolic parameters; specializing its final field
    # at values satisfying the conditions must give polynomials, and values
    # violating them must leave a genuine pole
    rep = resolution_pipeline("three-wave")
    table = rep.final_field.table
    d, g = table.get("delta"), table.get("gamma")

    for good in ({d: gr(0), g: gr(-1)}, {d: gr(5), g: gr(0)}):
        spec = rep.final_field.specialize(good)
        assert all(c.is_polynomial() for c in spec.components), good
    bad = rep.final_field.specialize({d: gr(1), g: gr(1)})
    assert any(not c.is_polynomial() for c in bad.components)


def test_already_polynomial_field_has_no_obstructions():
    t = table("u", "v", "w", "delta:parameter")
    chart = Chart("C", (t.get("u"), t.get("v"), t.get("w")), boundary=t.get("u"))
    u, v_, w_ = (RationalFn.var(t, n) for n in ("u", "v", "w"))
    field = VectorField(chart, [u * v_, v_ + w_, u])
    obs = holomorphy_obstructions(field)
    assert obs.is_empty()


def test_solve_parameter_conditions_branches():
    t = table("delta:parameter", "gamma:parameter")
    d, g = MultiPoly.var(t, "delta"), MultiPoly.var(t, "gamma")
    branches = solve_parameter_conditions([d * g, g * g + g])
    assert [b.text() for b in branches] == ["{delta = 0, gamma = -1}", "{gamma = 0}"]
    # a lone generic equation whose monomial content leaves a live cofactor
    branches = solve_parameter_conditions([d * g + d])
    assert [b.text() for b in branches] == ["{delta = 0}", "{gamma = -1}"]


def test_solve_parameter_conditions_contradiction_dies():
    t = table("delta:parameter")
    d = MultiPoly.var(t, "delta")
    one = MultiPoly.const(t, 1)
    # delta = 0 together with delta - 1 = 0 has no solution
    branches = solve_parameter_conditions([d, d - one])
    assert branches == []


def test_solve_parameter_conditions_residual_branches():
    t = table("delta:parameter", "gamma:parameter")
    d, g = MultiPoly.var(t, "delta"), MultiPoly.var(t, "gamma")
    one = MultiPoly.const(t, 1)
    # no Gaussian-rational root: the factor stays as a residual constraint
    assert [b.text() for b in solve_parameter_conditions([d * d - one * 2])] == ["{delta^2-2 = 0}"]
    # two parameters in one factor: nothing to pin
    assert [b.text() for b in solve_parameter_conditions([d * g + one])] == ["{delta*gamma+1 = 0}"]
    # a pin turns the next condition into a nonzero constant
    assert solve_parameter_conditions([g, g + one]) == []


def test_solve_parameter_conditions_puts_later_pins_into_earlier_conditions():
    t = table("delta:parameter", "gamma:parameter")
    d, g = MultiPoly.var(t, "delta"), MultiPoly.var(t, "gamma")
    one = MultiPoly.const(t, 1)
    # delta = 0 leaves 1 = 0 and -2 = 0: no solution
    assert solve_parameter_conditions([d * g + one, d]) == []
    assert solve_parameter_conditions([d * d - one * 2, d]) == []
    # delta = +-1 fixes gamma = -1/delta
    branches = solve_parameter_conditions([d * g + one, d * d - one])
    assert [b.text() for b in branches] == ["{delta = -1, gamma = 1}", "{delta = 1, gamma = -1}"]
    # no leading coefficient is invertible: delta = 2 is pinned generically,
    # and the content gamma - 1 it takes as nonzero is a branch of its own
    branches = solve_parameter_conditions([(d - 2) * (g - one), d * g - 3])
    assert [b.text() for b in branches] == ["{delta = 2, gamma = 3/2}", "{delta = 3, gamma = 1}"]


def test_solve_parameter_conditions_keeps_solutions_where_a_generic_lead_vanishes():
    # no leading coefficient is invertible; a is pinned generically to a value
    # with denominator b + c - 1, which vanishes at the solution (-1, -1, 2):
    # the zeros of that leading coefficient are kept as a branch of residuals
    t = table("a:parameter", "b:parameter", "c:parameter")
    conds = [parse_expr(e, t).num for e in LEAD_VANISHES]
    point = {t.get("a"): gr(-1), t.get("b"): gr(-1), t.get("c"): gr(2)}
    assert any(on_branch(b, point, t) for b in solve_parameter_conditions(conds))


def test_generic_pin_whose_denominator_vanishes_is_dropped():
    # b = 1 - 2*a*c is pinned first; the common factor c of what is left gives
    # b = 1, c = 0 with a free, and the generic pin a = 1/(2*c) of the rest
    # makes b = 0 and then meets c = 0, where its denominator vanishes: that
    # branch holds no solution (2*a*c + b - 1 reads -1 there) and is dropped
    t = table("a:parameter", "b:parameter", "c:parameter")
    eqs = [parse_expr(e, t).num for e in ("2*a*c + b - 1", "-b*c", "-b*c - 2*c")]
    branches = singular.solve_branches(eqs, tuple(t.get(n) for n in "abc"), t)
    assert [b.text() for b in branches] == ["{b = 1, c = 0}"]


# -- one composition per object ----------------------------------------------------------


def _lineage_outcomes(lineage, bindings) -> list[bool]:
    """Whether each object a run at ``bindings`` takes from ``lineage`` (each
    weighted point with its linear part, each center, the composed map, each
    pushed field) is defined there, asserting that its one-batch
    specialization equals its values specialized one by one."""
    batches = [(*q.coords, *(x for row in A for x in row))
               for (q, _), A in zip(lineage.weighted_points, lineage.linear_parts)]
    batches += [p.coords for p in (lineage.entry_point, *lineage.centers)]
    batches.append(lineage.composed_forward)
    defined = []
    for values in batches + list(lineage.fields):
        fns = values.components if isinstance(values, VectorField) else values
        want = [naive_specialize(f, bindings) for f in fns]
        if None not in want:
            want = VectorField(values.chart, want) if isinstance(values, VectorField) else tuple(want)
        else:
            want = None
        assert singular._specialized(values, bindings) == want
        defined.append(want is not None)
    return defined


def test_lineage_specializations_match_the_per_component_oracle():
    # the built-ins' lineages at the differential points, and lineages with a
    # pole at delta = 2 at (2, 0)
    defined = []
    for kind, params in _differential_points():
        defined += _lineage_outcomes(resolution_pipeline(kind), models.bind_parameters(kind, params))
    for _, lineage in _doctored_lineages():
        defined += _lineage_outcomes(lineage, models.bind_parameters("three-wave", [2, 0]))
    assert True in defined and False in defined


def _random_boundary_fields():
    """Seeded fields with simple poles along X = 0 whose accessible points
    include (0, a/(c*delta), b): a coordinate with a parameter denominator."""
    rng = random.Random(3805)
    fields = []
    for _ in range(24):
        a, b, c, *r = (rng.choice((-2, -1, 1, 2, 3)) for _ in range(9))
        t = rng.choice(("0", "1", "delta"))
        gy = f"({c}*delta*Y - {a})*({r[0]}*Y + {r[1]}*Z + {t}) + {r[2]}*(Z - {b})"
        gz = f"(Z - {b})*({r[3]}*Y + {r[4]}) + {r[5]}*(delta*Y*{c} - {a})*Y^2"
        fields.append(_boundary_x_field(gy, gz))
    return fields


def test_linear_part_matches_the_per_entry_oracle():
    # the batched linear part against each entry put in alone, at every
    # accessible point of both built-ins' scan charts and of seeded fields;
    # a point moved off the divisor's zeros fails with the per-entry message
    scans = [reports.scan_chart(kind, params, name)
             for kind, params in (("three-wave", None), ("three-wave", [1, 0]), ("modified", None),
                                  ("modified", [1, 2, 3, 2, 5]))
             for name in reports.scan_charts(kind)]
    for v in _random_boundary_fields():
        try:
            scans.append((v, _scan(v)))
        except PositiveDimensional:
            pass
    points = denominators = 0
    for v, scan in scans:
        for p in scan.points:
            assert linear_part(scan.form, p) == naive_linear_part(scan.form, p), p.text()
            points += 1
            denominators += any(not c.is_polynomial() for c in p.coords)
            k = next(k for k, s in enumerate(p.chart.vars) if s != p.boundary)
            coords = list(p.coords)
            coords[k] = coords[k] + 1
            moved = singular.AccessiblePoint(p.chart, tuple(coords))
            table = scan.form.boundary_part.table
            at = dict(zip(p.chart.vars, moved.coords))
            sym, g = next((s, g) for s, g in scan.form.transverse
                          if not value_at(g, at, table).is_zero())
            with pytest.raises(VerificationFailed) as info:
                linear_part(scan.form, moved)
            assert str(info.value) == (f"point {moved.text()} is not accessible: d{sym.name}/dt "
                                       f"has constant part {value_at(g, at, table).text()}")
    assert points > 20 and denominators > 5


def test_linear_part_is_one_composition(monkeypatch):
    real, calls = ratfunc.compose, []
    monkeypatch.setattr(ratfunc, "compose", lambda *args: calls.append(1) or real(*args))
    # another parse of the same text scans the same points first; each
    # parse keeps its own points, on its own table, so none is retabled
    _named(fresh_model("three-wave"))
    for name, (v, p) in _named(fresh_model("three-wave")).items():
        lp = log_pole_decomposition(v)
        calls.clear()
        linear_part(lp, p)
        assert len(calls) == 1, name
