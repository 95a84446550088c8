import cmath
import functools
import math
import random
import re
from fractions import Fraction

import pytest

from oracles import (
    RECIPROCAL_MODEL, UNITS, greedy_split_chain, last_variable_chain, product_chain, reference_fit_pole,
    reference_monodromy, reference_poly, reference_series, reference_taylor, reference_taylor_step,
    reference_triple,
)
from threewave import models, numerics
from threewave.errors import FitAmbiguous, StepUnderflow
from threewave.gaussian import GaussianRational
from threewave.geometry import identity_map
from threewave.numerics import (
    NumericAtlas,
    TrajectoryPoint,
    _taylor_step,
    compile_poly,
    compile_series,
    compile_triple,
    fit_pole,
    integrate,
    monodromy_check,
)
from threewave.parsing import parse_model
from threewave.poly import MultiPoly
from threewave.ratfunc import RationalFn
from threewave.symbols import table as make_table


@pytest.fixture(scope="module")
def modified_zero():
    v = models.system_field("modified", [0, 0, 0, 0, 0])
    maps = models.resolved_atlas("modified", [0, 0, 0, 0, 0])
    return v, maps, NumericAtlas(v, maps, {})


@pytest.fixture(scope="module")
def three_wave_20():
    v = models.three_wave_system(2, 0)
    maps = models.resolved_atlas("three-wave", [2, 0])
    return v, maps, NumericAtlas(v, maps, {})


@pytest.mark.parametrize(
    "kind, params",
    [
        ("modified", {"alpha1": 0.034 - 0.057j, "alpha2": -1.5 + 0.25j, "alpha3": 0.1,
                      "alpha4": 2j, "alpha5": -0.3 + 0.7j}),
        ("three-wave", {"delta": 2.5, "gamma": 0}),  # on the locus: every chart polynomial
    ],
)
def test_numeric_atlas_binds_parameters_exactly(kind, params):
    # NumericAtlas(v, maps, params) on the generic field and maps compiles,
    # value for value, the atlas of the exactly bound field and maps
    rng = random.Random(11)
    exact = [GaussianRational.from_complex(params[s.name]) for s in models.param_symbols(kind)]
    atlas = NumericAtlas(models.system_field(kind), models.resolved_atlas(kind), params)
    bound = NumericAtlas(models.system_field(kind, exact), models.resolved_atlas(kind, exact), {})
    assert atlas.charts() == bound.charts() and atlas.poles.keys() == bound.poles.keys()
    states = [tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
              for _ in range(5)]
    for chart in atlas.charts():
        for state in states:
            assert atlas.series[chart](*state, 6) == bound.series[chart](*state, 6)
            for table in ("to_base", "from_base"):
                assert getattr(atlas, table)[chart](*state) == getattr(bound, table)[chart](*state)
            if chart in atlas.poles:
                for got, want in zip(atlas.poles[chart].terms, bound.poles[chart].terms):
                    assert [(m, c(*state)) for m, c in got] == [(m, c(*state)) for m, c in want]
    with pytest.raises(KeyError, match="no numeric value"):
        NumericAtlas(models.system_field(kind), models.resolved_atlas(kind),
                     dict(list(params.items())[1:]), require_polynomial=False)


MODIFIED_POINT = {"alpha1": 0.034 - 0.057j, "alpha2": -1.5 + 0.25j, "alpha3": 0.1, "alpha4": 2j,
                  "alpha5": -0.3 + 0.7j}


def test_numeric_atlas_rejects_unknown_and_non_finite_parameters():
    v, maps = models.system_field("modified"), models.resolved_atlas("modified")
    with pytest.raises(KeyError, match="'alpah9' is not a parameter"):
        NumericAtlas(v, maps, {**MODIFIED_POINT, "alpah9": 3})
    for bad in (math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 1)):
        with pytest.raises(ValueError, match="parameter 'alpha3' is not finite"):
            NumericAtlas(v, maps, {**MODIFIED_POINT, "alpha3": bad})


def test_numeric_atlas_specializes_the_memoized_push(monkeypatch):
    # the symbolic push of each (field, map) pair is kept on the map and
    # shared with chart_field: a second parameter point, or a point after
    # chart_field, pushes nothing; a model parsed again pushes through its own maps
    calls = []
    real = models.pushforward

    def counting(v, cmap):
        calls.append(cmap.target.name)
        return real(v, cmap)

    monkeypatch.setattr(models, "pushforward", counting)
    second = {name: 2 * value for name, value in MODIFIED_POINT.items()}
    m = parse_model(models.BUILTINS["modified"], "modified")  # its maps are new keys of the memo
    v, maps = m.fields[m.base.name], models.resolved_atlas(m)
    NumericAtlas(v, maps, MODIFIED_POINT)
    assert calls == ["T3-1", "T3-2", "T3-3"]  # the identity chart reads the field itself
    assert all(models.pushed_field(v, cmap) is cmap.pushed[v] for cmap in maps)
    assert models.pushed_field(v, maps[0]) is v
    calls.clear()
    NumericAtlas(v, maps, second)
    assert calls == []
    m = parse_model(models.BUILTINS["modified"], "modified")
    v, maps = m.fields[m.base.name], models.resolved_atlas(m)
    for cmap in maps:
        models.chart_field(m, cmap)
    assert calls == ["T3-1", "T3-2", "T3-3"]
    calls.clear()
    NumericAtlas(v, maps, second)
    assert calls == []


def test_chart_round_trips(modified_zero):
    _, _, atlas = modified_zero
    rng = random.Random(8)
    for _ in range(40):
        state = tuple(
            complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)) for _ in range(3)
        )
        for chart in atlas.charts():
            if chart == atlas.base:
                continue
            there = atlas.transition(state, atlas.base, chart)
            back = atlas.transition(there, chart, atlas.base)
            err = max(abs(a - b) for a, b in zip(state, back))
            assert err <= 1e-12 * max(1.0, max(abs(c) for c in state))


def test_constant_ray_trajectory(modified_zero):
    # with y = z = 0 every component vanishes: dx/dt = -2y^2 + z = 0
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (0.7 + 0j, 0j, 0j), "U0")
    traj = integrate(v, maps, start, [0, 2.0], tol=1e-12, atlas=atlas)
    assert abs(traj.end.state[0] - 0.7) < 1e-12
    assert not traj.events


def test_closed_form_endpoint_through_pole(modified_zero):
    # y == 0 family: x' = z, z' = -2xz  =>  x = coth(t - c), z = 1 - x^2
    v, maps, atlas = modified_zero
    x0 = -2.0
    # x(0) = coth(-c) = x0  =>  c = -artanh(1/x0); the movable pole sits at t = c
    c = -0.5 * math.log((1 + 1 / x0) / (1 - 1 / x0))
    start = TrajectoryPoint(0j, (x0 + 0j, 0j, (1 - x0 * x0) + 0j), "U0")
    traj = integrate(v, maps, start, [0, 1.2], tol=1e-12, atlas=atlas)
    assert traj.events, "expected a chart switch at the movable pole"
    end = atlas.transition(traj.end.state, traj.end.chart, atlas.base)
    x_exact = 1 / math.tanh(1.2 - c)
    assert abs(end[0] - x_exact) < 1e-9
    assert abs(end[2] - (1 - x_exact**2)) < 1e-8


def test_pole_crossing_matches_detour_reference(modified_zero):
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    direct = integrate(v, maps, start, [0, 1.2], tol=1e-12, atlas=atlas)
    assert direct.events, "the direct path should cross the pole region"
    detour = integrate(
        v, maps, start, [0, -0.5j, 1.2 - 0.5j, 1.2], tol=1e-12, atlas=atlas
    )
    e1 = atlas.transition(direct.end.state, direct.end.chart, atlas.base)
    e2 = atlas.transition(detour.end.state, detour.end.chart, atlas.base)
    scale = max(1.0, max(abs(c) for c in e1))
    assert max(abs(a - b) for a, b in zip(e1, e2)) / scale <= 1e-9


def test_first_integrals_are_conserved_through_the_pole():
    # an oracle independent of the integrator: the modified family conserves
    # H1 and K for every alpha, so their drift at each point, read on U0,
    # stays at rounding level across the switches U0 -> T3-3 -> U0
    a1, a2, a3, a4, a5 = alphas = (0.3, -1.7, 0.25, 1.1, 0.6)
    v = models.model("modified").fields["U0"]
    maps = models.resolved_atlas("modified", None)
    atlas = NumericAtlas(v, maps, {f"alpha{k}": a for k, a in enumerate(alphas, 1)})
    integrals = (
        lambda x, y, z: (a2 - a4) * x - 1j * (a2 + a4) * y + 2j * a5 * z - 2j * y * z,  # H1
        lambda x, y, z: x * x + y * y + z + 1j * (a1 - a3) * x + (a1 + a3) * y,  # K
    )
    rng = random.Random(12)
    for _ in range(3):
        state = tuple(complex(c + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for c in (-2, 0.1, -3))
        traj = integrate(v, maps, TrajectoryPoint(0j, state, "U0"), [0, 1.2], tol=1e-12, atlas=atlas)
        assert [(e.from_chart, e.to_chart) for e in traj.events] == [("U0", "T3-3"), ("T3-3", "U0")]
        for h in integrals:
            h0 = h(*state)
            for p in traj.points:
                x, y, z = atlas.transition(p.state, p.chart, "U0")
                assert abs(h(x, y, z) - h0) / (1 + abs(x) ** 2 + abs(y) ** 2 + abs(z)) <= 1e-10


def test_tolerance_scaling(modified_zero):
    # halving the tolerance must not increase the real error; a crude check
    # that the embedded estimate responds the right way
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    ref = integrate(v, maps, start, [0, 0.4], tol=1e-13, atlas=atlas)
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        t = integrate(v, maps, start, [0, 0.4], tol=tol, atlas=atlas)
        errs.append(max(abs(a - b) for a, b in zip(t.end.state, ref.end.state)))
    assert errs[2] <= errs[0] * 1.01
    assert errs[2] <= 1e-8


def test_reintegration_error_estimate_sanity(three_wave_20):
    v, maps, atlas = three_wave_20
    start = TrajectoryPoint(0j, (-1.0 + 0j, 1.3 + 0j, -0.8 + 0j), "U0")
    coarse = integrate(v, maps, start, [0, 1.0], tol=1e-8, atlas=atlas)
    fine = integrate(v, maps, start, [0, 1.0], tol=1e-10, atlas=atlas)
    drift = max(abs(a - b) for a, b in zip(coarse.end.state, fine.end.state))
    assert drift < 10 * max(coarse.error_estimate, 1e-15)


def test_fitted_pole_exponents(three_wave_20):
    v, maps, atlas = three_wave_20
    start = TrajectoryPoint(0j, (-3 + 0j, 1.02 + 0j, -3 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 1.5], tol=1e-12, atlas=atlas)
    fit = fit_pole(traj.points, atlas)
    assert fit.exponents == (1, 0, 2)
    assert fit.residual < 0.05
    # the leading data matches the dominant balance (1, delta/2, -1) at delta=2
    assert abs(fit.leading[0] - 1) < 0.05
    assert abs(fit.leading[1] - 1) < 0.05
    assert abs(fit.leading[2] + 1) < 0.05


def test_pole_read_off_the_resolved_chart(three_wave_20):
    # a second start towards the same kind of pole: the resolved chart gives
    # the exact orders and the leading data (1, delta/2, -1)
    v, maps, atlas = three_wave_20
    start = TrajectoryPoint(0j, (-2.89 + 0j, 1.16 + 0j, -3.16 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 1.5], tol=1e-12, atlas=atlas)
    fit = fit_pole(traj.points, atlas)
    assert fit.exponents == (1, 0, 2)
    for got, want in zip(fit.leading, (1, 1, -1)):
        assert abs(got - want) < 1e-6
    assert fit.residual <= 1e-10


def test_pole_location_is_a_zero_of_the_boundary_coordinate(three_wave_20):
    # an independent adaptive run from the nearest trajectory point in the
    # resolved chart to the located pole lands on x_b = 0
    v, maps, atlas = three_wave_20
    start = TrajectoryPoint(0j, (-2.89 + 0j, 1.16 + 0j, -3.16 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 1.5], tol=1e-12, atlas=atlas)
    fit = fit_pole(traj.points, atlas)
    near = min((p for p in traj.points if p.chart in atlas.poles),
               key=lambda p: abs(p.t - fit.location))
    check = integrate(v, maps, near, [near.t, fit.location], tol=1e-12, atlas=atlas)
    assert check.end.chart == near.chart
    assert abs(check.end.state[atlas.poles[near.chart].slot]) <= 1e-10


def test_pole_of_real_data_is_real(modified_zero):
    # real start, real path and a real field: the pole lies on the real axis
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 1.2], tol=1e-12, atlas=atlas)
    fit = fit_pole(traj.points, atlas)
    assert abs(fit.location.imag) <= 1e-12
    assert fit.exponents == (1, -2, 2)


def test_fit_exponents_match_local_index_at_entry_point(three_wave_20):
    # the (1, *, 2) pole orders agree with the (1, 2, 2) index at the entry
    # point: the boundary eigenvalue gives the x-order, the z-resonance the
    # z-order
    from threewave.reports import _named_point
    from threewave.singular import local_index

    v, maps, atlas = three_wave_20
    start = TrajectoryPoint(0j, (-3 + 0j, 1.02 + 0j, -3 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 1.5], tol=1e-12, atlas=atlas)
    fit = fit_pole(traj.points, atlas)
    vw, _, p42 = _named_point("three-wave", [2, 0], "P4_2")
    idx = local_index(vw, p42)
    assert fit.exponents[0] == int(idx.eigenvalues[0].constant_value().re)
    assert fit.exponents[2] == int(idx.eigenvalues[2].constant_value().re)


def test_fit_pole_rejects_poleless_segment(modified_zero):
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (0.2 + 0j, 0.1 + 0j, 0.3 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 0.5], tol=1e-10, atlas=atlas)
    with pytest.raises(FitAmbiguous):
        fit_pole(traj.points, atlas)


def _assert_same_fit(got, want):
    assert got.exponents == want.exponents
    assert abs(got.location - want.location) <= 1e-14 * max(1.0, abs(want.location))
    for g, w in zip(got.leading, want.leading):
        assert abs(g - w) <= 1e-10 * max(1.0, abs(w))


def _counted_series(monkeypatch, atlas) -> list:
    """The (chart, order) of each series call of ``atlas`` until the test ends."""
    calls = []
    for chart, series in list(atlas.series.items()):
        def counted(*args, chart=chart, series=series):
            calls.append((chart, args[-1]))
            return series(*args)
        monkeypatch.setitem(atlas.series, chart, counted)
    return calls


def test_fit_pole_matches_the_substep_newton_reference(modified_zero, three_wave_20):
    # Newton on one series finds the pole that Newton steps followed by
    # Taylor substeps found, on seeded starts towards poles of both built-ins
    rng = random.Random(43)
    for (v, maps, atlas), base in ((modified_zero, (-2, 0.1, -3)), (three_wave_20, (-3, 1.02, -3))):
        for _ in range(12):
            state = tuple(complex(b * (1 + rng.uniform(-0.1, 0.1)), rng.uniform(-0.1, 0.1)) for b in base)
            traj = integrate(v, maps, TrajectoryPoint(0j, state, "U0"), [0, 1.5], tol=1e-12, atlas=atlas)
            _assert_same_fit(fit_pole(traj.points, atlas), reference_fit_pole(traj.points, atlas))


def test_fit_pole_expands_once_on_criterion_8c(monkeypatch, three_wave_20):
    v, maps, atlas = three_wave_20
    start = TrajectoryPoint(0j, (-3 + 0j, 1.02 + 0j, -3 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 1.5], tol=1e-12, atlas=atlas)
    calls = _counted_series(monkeypatch, atlas)
    assert fit_pole(traj.points, atlas).exponents == (1, 0, 2)
    assert calls == [(traj.end.chart, numerics._FIT_ORDER)]


def test_fit_pole_expands_again_beyond_the_series_reach(monkeypatch, modified_zero):
    # the path stops at t = 0.3, short of the pole near 0.549: the series at
    # the nearest point does not reach the pole, so the expansion moves, twice
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 0.3], tol=1e-12, atlas=atlas)
    near = min((p for p in traj.points if p.chart in atlas.poles),
               key=lambda p: abs(p.state[atlas.poles[p.chart].slot]))
    order = numerics._FIT_ORDER
    disc = numerics._radius(atlas.series[near.chart](*near.state, order),
                            max(1.0, *map(abs, near.state)), math.inf, numerics._FIT_REACH)
    calls = _counted_series(monkeypatch, atlas)
    fit = fit_pole(traj.points, atlas)
    assert abs(fit.location - near.t) > disc
    assert calls == [(near.chart, order)] * 3
    _assert_same_fit(fit, reference_fit_pole(traj.points, atlas))
    assert fit.exponents == (1, -2, 2) and fit.residual <= 1e-15


@pytest.mark.parametrize("field, message", [
    ("0 ; 1 ; 0", "the boundary coordinate of T is stationary at t = (1+0j)"),
    ("1 ; 0 ; 0", "Newton steps on the boundary coordinate of T do not converge"),
], ids=["stationary", "receding"])
def test_fit_pole_refuses_a_boundary_coordinate_without_a_zero(field, message):
    m = parse_model(RECIPROCAL_MODEL.format(field=field), "reciprocal")
    v, maps = models.system_field(m, []), models.resolved_atlas(m, [])
    atlas = NumericAtlas(v, maps, {})
    traj = integrate(v, maps, TrajectoryPoint(0j, (20 + 0j, 0j, 0j), "U0"), [0, 1], atlas=atlas)
    assert traj.end.chart == "T"
    with pytest.raises(FitAmbiguous) as exc:
        fit_pole(traj.points, atlas)
    assert str(exc.value) == message
    with pytest.raises(FitAmbiguous):
        reference_fit_pole(traj.points, atlas)


def test_a_coefficient_too_large_for_a_float_names_its_chart():
    m = parse_model("chart U0 : x y z\nsystem U0 : 1" + "0" * 309 + " ; 0 ; 0\n", "huge")
    with pytest.raises(ValueError) as exc:
        NumericAtlas(models.system_field(m, []), models.resolved_atlas(m, []), {})
    assert str(exc.value) == "chart U0: coefficient 1" + "0" * 309 + " is too large for a float"


def test_monodromy_no_pole(modified_zero):
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0.15 + 0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    # radius 0.1 circle well away from the movable pole near 0.55
    rep = monodromy_check(v, maps, start, 0.05 + 0j, tol=1e-12, atlas=atlas)
    assert rep["deviation"] <= 1e-9


def test_monodromy_around_movable_pole(modified_zero):
    v, maps, atlas = modified_zero
    base = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    lead = integrate(v, maps, base, [0, 1.2], tol=1e-12, atlas=atlas)
    fit = fit_pole(lead.points, atlas)
    start_t = fit.location + 0.35
    approach = integrate(v, maps, base, [0, start_t], tol=1e-12, atlas=atlas)
    start = TrajectoryPoint(approach.end.t, approach.end.state, approach.end.chart)
    rep = monodromy_check(v, maps, start, fit.location, tol=1e-12, atlas=atlas)
    assert rep["deviation"] <= 1e-6


def test_step_underflow_without_resolving_chart():
    # with only the identity chart available the pole cannot be crossed
    v = models.system_field("modified", [0, 0, 0, 0, 0])
    base_only = [identity_map(v.chart, v.table)]
    atlas = NumericAtlas(v, base_only, {})
    start = TrajectoryPoint(0j, (-2 + 0j, 0j, -3 + 0j), "U0")
    with pytest.raises(StepUnderflow) as exc:
        integrate(v, base_only, start, [0, 1.2], tol=1e-10, atlas=atlas)
    # the partial trajectory stops short of the pole, in the only chart
    partial = exc.value.trajectory
    assert partial.points[0] == start
    assert 0 < partial.end.t.real < 1.2 and partial.end.chart == "U0"


# a state so large that no chart of the modified atlas at alpha = 0 takes a
# step as long as the least one: (x, y, z) = (-s, 0, -7 s^2 / 8) with s = 2^60,
# which T3-3 reads as (-1/s, 0, s^2 / 8), seven times smaller
HUGE_STATE = (-(2.0**60) + 0j, 0j, -7 * 2.0**117 + 0j)


def test_step_underflow_tries_a_better_chart_first(modified_zero):
    # the step collapses at once; the state is then moved to the chart where
    # it is smallest, and a step is tried there, before the run gives up
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, HUGE_STATE, "U0")
    with pytest.raises(StepUnderflow, match="step size collapsed") as exc:
        integrate(v, maps, start, [0, 0.01], tol=1e-12, atlas=atlas)
    (event,) = exc.value.trajectory.events
    assert (event.from_chart, event.to_chart) == ("U0", "T3-3")
    assert event.norm_before == 7 * 2.0**117 and event.norm_after == 2.0**117
    # one step tried in U0 and one in T3-3 after the switch: the run went on there
    assert (exc.value.trajectory.steps_accepted, exc.value.trajectory.steps_rejected) == (0, 2)


def test_step_budget_is_enforced(monkeypatch, modified_zero):
    from threewave import numerics

    v, maps, atlas = modified_zero
    monkeypatch.setattr(numerics, "MAX_STEPS", 5)
    start = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    with pytest.raises(StepUnderflow, match="step budget exhausted") as exc:
        integrate(v, maps, start, [0, 1.2], tol=1e-10, atlas=atlas)
    partial = exc.value.trajectory
    assert partial.steps_accepted + partial.steps_rejected == 6


def test_a_step_that_is_not_finite_is_rejected(modified_zero):
    # a field whose last coefficient of the second component is nan, once:
    # the max-norms of the step drop that nan, and the step must still be
    # rejected -- never accepted, with a grown step -- and tried at a tenth
    v, maps, _ = modified_zero
    atlas = NumericAtlas(v, maps, {})
    start = TrajectoryPoint(0j, (0.5 + 0j, 0.1 + 0j, 0.2 + 0j), "U0")
    clean = integrate(v, maps, start, [0, 0.3], tol=1e-10, atlas=atlas)
    series, calls = atlas.series["U0"], []

    def poisoned(a, b, c, n):
        rows = series(a, b, c, n)
        calls.append(n)
        if len(calls) == 1:
            rows[1][-1] = complex(math.nan, 0)
        return rows

    atlas.series["U0"] = poisoned
    traj = integrate(v, maps, start, [0, 0.3], tol=1e-10, atlas=atlas)
    assert (clean.steps_rejected, traj.steps_rejected) == (0, 1)
    assert traj.points[1].t == pytest.approx(0.1 * clean.points[1].t, rel=1e-12)
    assert all(_finite(p.state) and math.isfinite(p.err) for p in traj.points)
    assert traj.end.t == pytest.approx(0.3) and math.isfinite(traj.error_estimate)


def test_best_chart_skips_a_candidate_that_is_not_finite(modified_zero):
    # a transition that returns nan in a component other than the first: its
    # max-norm would drop the nan, and the chart must still not be chosen
    v, maps, _ = modified_zero
    atlas = NumericAtlas(v, maps, {})
    state = (-8 + 0j, 0.001 + 0j, -64 + 0j)
    assert atlas.best_chart(state, "U0")[::2] == ("T3-3", 1 / 8)
    forward = atlas.from_base["T3-3"]
    atlas.from_base["T3-3"] = lambda a, b, c: (forward(a, b, c)[0], complex(0, math.nan), 0j)
    assert atlas.best_chart(state, "U0") == ("U0", state, 64.0)


@pytest.mark.parametrize("start", [
    TrajectoryPoint(0j, (1.5e308 + 1.5e308j, 0j, 0j), "U0"),  # a modulus that overflows
    TrajectoryPoint(0j, (1 + 0j, complex(0, math.nan), 0j), "U0"),
    TrajectoryPoint(0j, (1 + 0j, 0j, complex(-math.inf, 0)), "U0"),
    TrajectoryPoint(complex(math.inf, 1), (1 + 0j, 0j, 0j), "U0"),
    TrajectoryPoint(complex(1.5e308, 1.5e308), (1 + 0j, 0j, 0j), "U0"),
])
def test_a_start_that_is_not_finite_is_refused(modified_zero, start):
    v, maps, atlas = modified_zero
    with pytest.raises(ValueError, match="is not finite"):
        integrate(v, maps, start, [0, 1], atlas=atlas)
    with pytest.raises(ValueError, match="is not finite"):
        monodromy_check(v, maps, start, 0.5, atlas=atlas)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(modified_zero, tol):
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        integrate(v, maps, start, [0, 1], tol=tol, atlas=atlas)


def test_monodromy_reported_for_condition_violating_parameters():
    # parameters violating the resolvability conditions: the atlas cannot
    # carry the trajectory through the singularity (honest underflow), and
    # the loop deviation around it is reported as data (the analysis predicts
    # an obstruction, not a number)
    params = {"delta": 1.0 + 0j, "gamma": 0.5 + 0j}
    v = models.three_wave_system()
    maps = models.resolved_atlas("three-wave")
    atlas = NumericAtlas(v, maps, params, require_polynomial=False)
    base = TrajectoryPoint(0j, (-3 + 0j, 1.1 + 0j, -2.5 + 0j), "U0")
    try:
        lead = integrate(v, maps, base, [0, 2.0], tol=1e-11, atlas=atlas)
    except StepUnderflow as exc:
        t1 = exc.trajectory.end.t
    else:
        t1 = fit_pole(lead.points, atlas).location
    # approach from the near side, then loop around the singular time
    approach = integrate(v, maps, base, [0, t1 - 0.3], tol=1e-12, atlas=atlas)
    start = TrajectoryPoint(approach.end.t, approach.end.state, approach.end.chart)
    rep = monodromy_check(v, maps, start, t1, tol=1e-12, atlas=atlas)
    assert math.isfinite(rep["deviation"])
    # branching is the predicted generic outcome; deviation far above solver noise
    assert rep["deviation"] > 1e-6


def test_multi_segment_path_with_return_switch(modified_zero):
    # a long dog-leg path: out through the pole region in the twisted chart,
    # back to the base chart once its representation is small again; trial
    # steps that overflow must be rejected, not crash (an underflow raises)
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (-2 + 0j, 0.05 + 0j, -3 + 0j), "U0")
    traj = integrate(
        v, maps, start, [0, 0.8, 0.8 + 0.3j, 2.5 + 0.3j, 2.5, 3.5], tol=1e-11, atlas=atlas
    )
    assert len(traj.events) >= 2
    charts_seen = {e.to_chart for e in traj.events}
    assert "T3-3" in charts_seen and "U0" in charts_seen


def test_trajectory_records_format(modified_zero):
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (0.5 + 0j, 0.1 + 0j, 0.2 + 0j), "U0")
    traj = integrate(v, maps, start, [0, 0.3], tol=1e-8, atlas=atlas)
    csv = traj.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "t_re,t_im,chart,x_re,x_im,y_re,y_im,z_re,z_im,err_est"
    assert len(lines) == len(traj.points) + 1
    assert all(line.split(",")[2] == "U0" for line in lines[1:])

# -- the integration loop against the reference loop, bit for bit ---------------------


def _outcome_of_run(run):
    """Every point, every switch, the counts and the error estimate of a run,
    as text, and the message of a ``StepUnderflow`` that ends it (its partial
    trajectory read instead)."""
    try:
        traj, message = run(), None
    except StepUnderflow as exc:
        traj, message = exc.trajectory, str(exc)
    return ([repr(p) for p in traj.points], [repr(e) for e in traj.events],
            traj.steps_accepted, traj.steps_rejected, repr(traj.error_estimate), message)


def _loop_cases():
    """Runs on both built-ins: through a movable pole and back, a step that
    collapses after a switch, through a chart whose field is rational up to the
    singularity it does not resolve, and seeded starts and paths near a pole."""
    rng = random.Random(4040)
    cases = [
        ("modified", (-2, 0.1, -3), [0, 1.2], 1e-12),
        ("three-wave rational", (-3, 1.1, -2.5), [0, 2.0], 1e-11),
        ("modified", (-2, 0.05, -3), [0, 0.8, 0.8 + 0.3j, 2.5 + 0.3j, 2.5, 3.5], 1e-11),
        ("modified", HUGE_STATE, [0, 0.01], 1e-12),
        ("three-wave", (-3, 1.02, -3), [0, 1.5], 1e-12),
    ]
    for kind, near in (("modified", (-2, 0.1, -3)), ("three-wave", (-3, 1.02, -3))):
        for _ in range(3):
            state = tuple(complex(c + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for c in near)
            end = cmath.rect(rng.uniform(1, 2), rng.uniform(-0.5, 0.5))
            cases.append((kind, state, [0, end], 10.0 ** -rng.randint(8, 12)))
    return cases


def test_integration_matches_the_reference_loop(modified_zero, three_wave_20):
    # (delta, gamma) = (1, 1/2) violates the resolvability conditions: T2-3
    # carries a rational field
    v = models.three_wave_system(1, Fraction(1, 2))
    maps = models.resolved_atlas("three-wave", [1, Fraction(1, 2)])
    rational = v, maps, NumericAtlas(v, maps, {}, require_polynomial=False)
    numeric = {"modified": modified_zero, "three-wave": three_wave_20, "three-wave rational": rational}
    outcomes = []
    for kind, state, path, tol in _loop_cases():
        v, maps, atlas = numeric[kind]
        start = TrajectoryPoint(0j, tuple(complex(c) for c in state), "U0")
        got = _outcome_of_run(lambda: integrate(v, maps, start, path, tol=tol, atlas=atlas))
        assert got == _outcome_of_run(lambda: reference_taylor(v, maps, start, path, tol)), \
            (kind, state, path, tol)
        outcomes.append(got)
    # the cases switch charts, reject steps and end in a collapsed step
    assert all(any(o[k] for o in outcomes) for k in (1, 3, 5))
    # with only the base chart the pole cannot be crossed: the partial runs agree
    v, maps, _ = modified_zero
    base_only = maps[:1]
    atlas = NumericAtlas(v, base_only, {})
    start = TrajectoryPoint(0j, (-2 + 0j, 0j, -3 + 0j), "U0")
    got = _outcome_of_run(lambda: integrate(v, base_only, start, [0, 1.2], atlas=atlas))
    assert got == _outcome_of_run(lambda: reference_taylor(v, base_only, start, [0, 1.2]))
    assert got[5].startswith("step size collapsed")


@pytest.mark.parametrize("path, steps", [([5e-15], 0), ([5e-14], 0), ([2e-13], 1),
                                         ([0.1, 0.1 + 5e-14, 0.2], None)])
def test_a_segment_shorter_than_its_least_step_is_skipped(modified_zero, path, steps):
    # one rule skips a segment and bounds its steps from below: a segment
    # shorter than its least step, 1e-13 * max(1, length) or 1e-14 * (1 + |t|)
    # if larger, is skipped, so none is refused for its length alone; its end
    # is recorded with the state unchanged, and the next segment starts there
    v, maps, atlas = modified_zero
    start = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
    got = _outcome_of_run(lambda: integrate(v, maps, start, path, atlas=atlas))
    assert got == _outcome_of_run(lambda: reference_taylor(v, maps, start, path))
    assert got[5] is None
    points = integrate(v, maps, start, path, atlas=atlas).points
    if steps is None:
        (i,) = [i for i, p in enumerate(points) if p.t == path[1]]
        assert points[i] == TrajectoryPoint(path[1], points[i - 1].state, points[i - 1].chart)
        assert integrate(v, maps, points[i], path[2:], atlas=atlas).points == points[i:]
    else:
        assert got[2] == steps and got[3] == 0
        assert points[-1].t == path[-1]


# integrate's true global error: the relative max-norm distance, on U0, of its
# end from that of reference_taylor at tol 1e-16, on the paths of criteria 8b-8d
# (8a integrates nothing) and through and around poles of both built-ins.
# Each bound is about twice the error measured; the Cash-Karp 5(4) integrator
# this one replaced measured, in the same order, 2.8e-10, 2.7e-10, 1.1e-9,
# 6.9e-12, 2.5e-11 and 7.5e-11 at tol 1e-10, and 1.6e-12, 2.5e-12, 1.5e-12,
# 6.7e-14, 6.0e-14 and 8.6e-13 at tol 1e-12.
GLOBAL_ERROR_PATHS = [
    # (system, start, start time, path or loop centre, {tol: bound})
    ("modified", (-2, 0.1, -3), 0, [0, 1.2], {1e-10: 4e-12, 1e-12: 4e-14}),  # 8b, through the pole
    ("modified", (-2, 0.1, -3), 0, [0, -0.5j, 1.2 - 0.5j, 1.2], {1e-10: 5e-12, 1e-12: 1e-14}),  # 8b detour
    ("three-wave", (-3, 1.02, -3), 0, [0, 1.5], {1e-10: 6e-12, 1e-12: 6e-14}),  # 8c, through the pole
    ("modified", (-2, 0.1, -3), 0.15, 0.05, {1e-10: 1e-16, 1e-12: 1e-16}),  # 8d, a loop without a pole
    ("modified", (-2, 0.1, -3), 0.9, 0.55, {1e-10: 2e-12, 1e-12: 4e-14}),  # a loop around the pole
    ("three-wave", (-3, 1.02, -3), 0.3j, 0.5, {1e-10: 4e-12, 1e-12: 4e-14}),  # a loop through poles
]


@pytest.mark.parametrize("kind, state, t0, path, bounds", GLOBAL_ERROR_PATHS)
def test_global_error_at_the_tolerance(modified_zero, three_wave_20, kind, state, t0, path, bounds):
    v, maps, atlas = {"modified": modified_zero, "three-wave": three_wave_20}[kind]
    start = TrajectoryPoint(complex(t0), tuple(complex(c) for c in state), "U0")
    if isinstance(path, list):
        want = reference_taylor(v, maps, start, path, tol=1e-16)
    else:
        want = reference_monodromy(v, maps, start, path, tol=1e-16)[1]
    exact = atlas.transition(want.end.state, want.end.chart, "U0")
    for tol, bound in bounds.items():
        if isinstance(path, list):
            traj = integrate(v, maps, start, path, tol=tol, atlas=atlas)
        else:
            traj = monodromy_check(v, maps, start, path, tol=tol, atlas=atlas)["trajectory"]
        end = atlas.transition(traj.end.state, traj.end.chart, "U0")
        error = max(abs(a - b) for a, b in zip(end, exact)) / max(1.0, max(abs(c) for c in exact))
        assert error <= bound, (tol, error)


def test_monodromy_matches_the_reference_loop(modified_zero, three_wave_20):
    for (v, maps, atlas), base, t0, center in [
        (modified_zero, (-2 + 0j, 0.1 + 0j, -3 + 0j), 0.15 + 0j, 0.05 + 0j),  # no pole inside
        (modified_zero, (-2 + 0j, 0.1 + 0j, -3 + 0j), 0.9 + 0j, 0.55 + 0j),  # around the pole
        (three_wave_20, (-3 + 0j, 1.02 + 0j, -3 + 0j), 0.0 + 0.3j, 0.5 + 0j),
    ]:
        start = TrajectoryPoint(t0, base, "U0")
        rep = monodromy_check(v, maps, start, center, atlas=atlas)
        deviation, traj = reference_monodromy(v, maps, start, center)
        assert repr(rep["deviation"]) == repr(deviation)
        assert _outcome_of_run(lambda: rep["trajectory"]) == _outcome_of_run(lambda: traj)


# -- the generated kernel against the interpreted reference, bit for bit ---------------

# symbol names that are also names inside the generated code: values bind by name
KERNEL_TABLE = make_table("s0", "k0", "a", "p:parameter")
KERNEL_VARS = ("a", "s0", "k0")
PARTS = (0.0, -0.0, 1.0, -0.5, 1e-300, 1e150, 3e200, -1e308, 2.0**-1074, math.inf, -math.inf)
HUGE_COEFFICIENTS = (3e200 - 1e-300j, -2.0**-1074, 1e-300j)


def _random_coefficient(rng, huge=True):
    """A nonzero coefficient, now and then a huge or tiny double."""
    if huge and rng.random() < 0.15:
        return GaussianRational.from_complex(rng.choice(HUGE_COEFFICIENTS))
    return GaussianRational(Fraction(rng.choice((-9, -4, -1, 1, 2, 7)), rng.randint(1, 7)),
                            Fraction(rng.choice((0, 0, rng.randint(-5, 5))), rng.randint(1, 3)))


def _random_sparse_poly(rng, max_terms=6, max_degree=4, huge=True):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_degree) if rng.random() < 0.5 else 0 for _ in range(3))
        terms[e + (0,)] = _random_coefficient(rng, huge)
    return MultiPoly(KERNEL_TABLE, terms)


def _random_triple(rng, max_degree):
    """Three components, about half of them rational (whose reduction must
    leave coefficients a double can hold, so they are small)."""
    rfs = []
    for _ in range(3):
        den = _random_sparse_poly(rng, 3, 2, huge=False)
        if rng.random() < 0.5 and not den.is_zero():
            rfs.append(RationalFn(_random_sparse_poly(rng, 6, max_degree, huge=False), den))
        else:
            rfs.append(RationalFn.from_poly(_random_sparse_poly(rng, 6, max_degree)))
    return rfs


def _random_point(rng):
    def part():
        return rng.choice(PARTS) if rng.random() < 0.5 else rng.uniform(-2, 2)
    return tuple(complex(part(), part()) for _ in range(3))


def _outcome(fn, *args):
    """repr of the result (so that -0.0 counts), or the class of what it raised."""
    try:
        return repr(fn(*args))
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def _same_outcomes(got, want, calls) -> set:
    """Assert that ``got`` and ``want`` have the same outcome on every argument
    tuple of ``calls``; return the kinds met ("value" or an exception class)."""
    kinds = set()
    for args in calls:
        outcome = _outcome(want, *args)
        assert _outcome(got, *args) == outcome, args
        kinds.add(outcome if isinstance(outcome, type) else "value")
    return kinds


def test_compiled_poly_is_bit_identical_to_the_term_loop():
    rng = random.Random(31)
    kinds = set()
    for _ in range(200):
        poly = _random_sparse_poly(rng)
        kinds |= _same_outcomes(compile_poly(poly, KERNEL_VARS), reference_poly(poly, KERNEL_VARS),
                                [_random_point(rng) for _ in range(10)])
    assert kinds == {"value", OverflowError}


def test_compiled_triple_is_bit_identical_to_the_reference():
    rng = random.Random(32)
    kinds = set()
    for _ in range(120):
        rfs = _random_triple(rng, 4)
        kinds |= _same_outcomes(compile_triple(rfs, KERNEL_VARS), reference_triple(rfs, KERNEL_VARS),
                                [_random_point(rng) for _ in range(10)])
    assert kinds == {"value", OverflowError, ZeroDivisionError}


def _kernel_poly(terms):
    """A polynomial from {exponents in ``KERNEL_VARS`` order: coefficient}."""
    return MultiPoly(KERNEL_TABLE, {(s0, k0, a, 0): GaussianRational.from_complex(c)
                                    for (a, s0, k0), c in terms.items()})


def test_each_power_is_computed_once_per_function(monkeypatch):
    # the components, numerators and denominators share a**2, a**3, s0**1 and
    # k0**2: each is raised once, and the values stay bit-identical
    rfs = [
        RationalFn(_kernel_poly({(2, 1, 0): 2, (3, 0, 0): -1j}), _kernel_poly({(2, 0, 0): 1, (0, 1, 0): 3})),
        RationalFn(_kernel_poly({(2, 0, 2): 0.5, (0, 1, 0): -1}), _kernel_poly({(3, 0, 0): 1, (0, 0, 2): 2j})),
        RationalFn.from_poly(_kernel_poly({(2, 1, 2): 1.5, (3, 0, 0): 1, (0, 0, 1): 4})),
    ]
    sources = []
    real = numerics._code
    monkeypatch.setattr(numerics, "_code", lambda source: sources.append(source) or real(source))
    fn = compile_triple(rfs, KERNEL_VARS)
    raised = re.findall(r"\b([abc])\*\*(\d+)", sources[-1])
    assert sorted(raised) == [("a", "2"), ("a", "3"), ("b", "1"), ("c", "1"), ("c", "2")]
    rng = random.Random(37)
    points = [(0j, 0j, 1 + 0j), (complex(math.inf, 0), 1 + 0j, 1 + 0j)]  # a vanishing denominator; an overflow
    kinds = _same_outcomes(fn, reference_triple(rfs, KERNEL_VARS), points + [_random_point(rng) for _ in range(100)])
    assert kinds == {"value", OverflowError, ZeroDivisionError}


def test_a_power_is_raised_where_it_is_first_read():
    # the first component divides by a, which vanishes; the second needs
    # s0**2, which overflows: the division comes first, as in the reference
    rfs = [
        RationalFn(_kernel_poly({(0, 0, 0): 1}), _kernel_poly({(1, 0, 0): 1})),
        RationalFn.from_poly(_kernel_poly({(0, 2, 0): 1})),
        RationalFn.from_poly(_kernel_poly({(0, 0, 0): 1})),
    ]
    point = (0j, 1e200 + 0j, 1 + 0j)
    assert _outcome(reference_triple(rfs, KERNEL_VARS), *point) is ZeroDivisionError
    assert _outcome(compile_triple(rfs, KERNEL_VARS), *point) is ZeroDivisionError


def _finite(value) -> bool:
    """Whether every number in the nested tuples and lists ``value`` is finite."""
    if isinstance(value, (tuple, list)):
        return all(_finite(x) for x in value)
    return cmath.isfinite(value)


def _finiteness(fn, calls) -> set:
    """Whether each value ``fn`` returns on ``calls`` is finite, for the calls
    that do not raise."""
    out = set()
    for args in calls:
        try:
            out.add(_finite(fn(*args)))
        except (OverflowError, ZeroDivisionError):
            pass
    return out


def test_generated_series_is_bit_identical_to_the_reference():
    # random sparse fields, about half of their components rational, at points
    # with signed zeros, infinities and parts that overflow in a product
    rng = random.Random(33)
    kinds, finite = set(), set()
    for _ in range(150):
        rfs = _random_triple(rng, 3)
        series, ref = compile_series(rfs, KERNEL_VARS), reference_series(rfs, KERNEL_VARS)
        calls = [(*_random_point(rng), rng.randint(0, 12)) for _ in range(10)]
        kinds |= _same_outcomes(series, ref, calls)
        finite |= _finiteness(series, calls)
    assert kinds == {"value", ZeroDivisionError} and finite == {True, False}


def test_taylor_step_is_bit_identical_to_the_reference():
    # as above, with steps of every size, some beyond the series' radius
    rng = random.Random(38)
    kinds, finite = set(), set()
    for _ in range(150):
        rfs = _random_triple(rng, 3)
        series, ref = compile_series(rfs, KERNEL_VARS), reference_series(rfs, KERNEL_VARS)
        calls = []
        for _ in range(10):
            order = rng.randint(2, 16)
            calls.append((_random_point(rng), rng.choice((1.0, 2.5, 1e300)),
                          cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
                          rng.choice((rng.uniform(1e-6, 0.5), 0.0, 1e300)), order,
                          numerics.STEP_SAFETY * (10.0 ** -rng.randint(4, 14)) ** (1 / order)))
        step = functools.partial(_taylor_step, series)
        kinds |= _same_outcomes(step, functools.partial(reference_taylor_step, ref), calls)
        finite |= _finiteness(step, calls)
    assert kinds == {"value", ZeroDivisionError} and finite == {True, False}


def test_compiled_code_is_shared_by_structure_and_keeps_its_coefficients():
    # the code object is cached by its source text, which names the
    # coefficients and not their values: polynomials of one monomial structure
    # share it, and each function still evaluates its own coefficients
    rng = random.Random(36)
    for _ in range(60):
        poly = _random_sparse_poly(rng, huge=False)
        other = poly.map_coefficients(lambda c: c * GaussianRational(2, -1))
        f, g = compile_poly(poly, KERNEL_VARS), compile_poly(other, KERNEL_VARS)
        assert f.__code__ is g.__code__
        points = [_random_point(rng) for _ in range(10)]
        _same_outcomes(f, reference_poly(poly, KERNEL_VARS), points)
        _same_outcomes(g, reference_poly(other, KERNEL_VARS), points)
        # so do the series of fields, at every order
        rfs = [RationalFn.from_poly(poly), RationalFn.from_poly(other), RationalFn.from_poly(poly)]
        twice = [rf.num.map_coefficients(lambda c: 2 * c) for rf in rfs]
        f = compile_series(rfs, KERNEL_VARS)
        g = compile_series([RationalFn.from_poly(p) for p in twice], KERNEL_VARS)
        assert f.__code__ is g.__code__
        calls = [(*point, n) for point, n in zip(points, range(10))]
        _same_outcomes(g, reference_series([RationalFn.from_poly(p) for p in twice], KERNEL_VARS), calls)


def test_generated_series_agrees_with_the_last_variable_chain():
    # the same products associated another way, each monomial times one of its
    # variables: the two series differ in their last bits, within rounding of
    # the majorant series (the field's coefficient moduli at the point's moduli)
    rng = random.Random(39)
    differ = 0
    for _ in range(100):
        polys = [_random_sparse_poly(rng, 8, 4, huge=False) for _ in range(3)]
        majorant = [p.map_coefficients(lambda c: GaussianRational.from_complex(abs(complex(c)))) for p in polys]
        point = [cmath.rect(rng.uniform(0, 1), rng.uniform(-math.pi, math.pi)) for _ in range(3)]
        got = compile_series([RationalFn.from_poly(p) for p in polys], KERNEL_VARS)(*point, 12)
        want = reference_series([RationalFn.from_poly(p) for p in polys], KERNEL_VARS,
                                 last_variable_chain)(*point, 12)
        bound = reference_series([RationalFn.from_poly(p) for p in majorant], KERNEL_VARS)(*map(abs, point), 12)
        for xs, ys, ms in zip(got, want, bound):
            assert all(abs(x - y) <= 1e-14 * abs(m) for x, y, m in zip(xs, ys, ms))
            differ += xs != ys
    assert differ


# Cauchy products per order on each chart: the last-variable chain takes 19,
# 19, 18 on T3-1..3 at generic alpha and 18 on each of T2-1..3 at
# (delta, gamma) = (2, 0); an exhaustive search finds 14, 14, 10 on T2-1..3
PRODUCTS = {"modified": {"U0": 3, "T3-1": 14, "T3-2": 14, "T3-3": 14},
            "three-wave": {"U0": 3, "T2-1": 14, "T2-2": 14, "T2-3": 11}}


def test_each_chart_builds_its_monomials_by_the_product_chain(monkeypatch):
    sources = []
    code = numerics._code
    monkeypatch.setattr(numerics, "_code", lambda source: sources.append(source) or code(source))
    rng = random.Random(46)
    alphas = {f"alpha{k}": complex(round(rng.uniform(-0.1, 0.1), 3), round(rng.uniform(-0.1, 0.1), 3))
              for k in range(1, 6)}
    for kind, atlas in (("modified", lambda: NumericAtlas(models.model("modified").fields["U0"],
                                                          models.resolved_atlas("modified", None), alphas)),
                        ("three-wave", lambda: NumericAtlas(models.three_wave_system(2, 0),
                                                            models.resolved_atlas("three-wave", [2, 0]), {}))):
        sources.clear()
        charts = atlas().charts()
        series = [src for src in sources if src.startswith("def ev(a, b, c, n):")]
        assert dict(zip(charts, (len(re.findall(r"^ +p\d+\.append", src, re.M)) for src in series))) \
            == PRODUCTS[kind]


def test_every_product_multiplies_two_series_built_before_it():
    # on random supports: each product is a split e = f + g of two monomials
    # built earlier, every needed monomial is built, the split is the one the
    # reference's rule takes, and no chain is longer than the last-variable one
    rng = random.Random(47)
    greedy_longer = 0
    for _ in range(1000):
        degree = rng.randint(2, 8)
        monomials = {tuple(rng.randint(0, degree) if rng.random() < 0.6 else 0 for _ in range(3))
                     for _ in range(rng.randint(0, 14))}
        chain = numerics._product_chain(monomials)
        built = set(UNITS)
        for e, (f, g) in chain.items():
            assert f in built and g in built and tuple(x + y for x, y in zip(f, g)) == e
            built.add(e)
        assert {e for e in monomials if sum(e) >= 2} <= built
        assert chain == {e: (f, g) for e, f, g in product_chain(monomials)}
        last = len(last_variable_chain(monomials))
        assert len(chain) <= last
        greedy_longer += len(greedy_split_chain(monomials)) > last
    assert greedy_longer  # the greedy split alone is longer now and then


@pytest.mark.parametrize("vanishing", [(5,), (6,), (5, 6)])
def test_vanishing_coefficients_are_left_out_of_the_step(vanishing):
    # a last-two order whose coefficients all vanish (signed zeros included)
    # sets no radius: it must not enter the step as 1 / 0; with both vanishing
    # the step is the one allowed
    def scripted(a, b, c, n):
        rows = [[a], [b], [c]]
        for k in range(1, n + 1):
            zero = k in vanishing
            rows[0].append(-0.0j if zero else (1 + 2j) / k)
            rows[1].append(complex(-0.0, 0.0) if zero else -0.5j * k)
            rows[2].append(0j if zero else 3.0 + 0j)
        return rows

    y, direction = (0.5 - 1j, -0.0 + 2j, 1.25 + 0j), cmath.exp(0.3j)
    want = reference_taylor_step(scripted, y, 1.25, direction, 0.4, 6, 0.1)
    assert repr(_taylor_step(scripted, y, 1.25, direction, 0.4, 6, 0.1)) == repr(want)
    assert _finite(want) and (want[2] == 0.4) == (vanishing == (5, 6))


def _reordered(poly):
    """``poly`` with its terms inserted in reverse order."""
    return MultiPoly(poly.table, dict(reversed(poly.terms.items())))


def test_compiled_functions_do_not_depend_on_term_order():
    # equal polynomials and triples compile to functions that agree bit for
    # bit, however their terms were inserted: terms fold in canonical order
    rng = random.Random(35)
    for _ in range(100):
        poly = _random_sparse_poly(rng, 8, huge=False)
        points = [_random_point(rng) for _ in range(10)]
        assert _reordered(poly) == poly
        _same_outcomes(compile_poly(_reordered(poly), KERNEL_VARS), compile_poly(poly, KERNEL_VARS),
                       points)
        rfs = _random_triple(rng, 4)
        flipped = [RationalFn(_reordered(rf.num), _reordered(rf.den), _reduced=True) for rf in rfs]
        assert flipped == rfs
        _same_outcomes(compile_triple(flipped, KERNEL_VARS), compile_triple(rfs, KERNEL_VARS), points)


def test_long_polynomial_compiles():
    # one statement per term: a thousand terms nest no deeper than one
    rng = random.Random(34)
    terms = {(i, j, k, 0): _random_coefficient(rng)
             for i in range(10) for j in range(10) for k in range(10)}
    poly = MultiPoly(KERNEL_TABLE, terms)
    assert poly.term_count() == 1000
    point = (0.9 - 0.2j, -0.7 + 0.5j, 0.3 + 0.95j)
    assert repr(compile_poly(poly, KERNEL_VARS)(*point)) == repr(reference_poly(poly, KERNEL_VARS)(*point))
    rfs = [RationalFn.from_poly(poly)] * 3
    assert (repr(compile_triple(rfs, KERNEL_VARS)(*point))
            == repr(reference_triple(rfs, KERNEL_VARS)(*point)))
