"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion timings. Every tolerance and time budget is asserted here, not
just eyeballed.
"""

import gc
import json
import random
import time
from fractions import Fraction

import oracles
from threewave import models, reports
from threewave.gaussian import gr
from threewave.geometry import Chart, ChartMap, VectorField, jacobian_determinant, pushforward
from threewave.numerics import NumericAtlas, TrajectoryPoint, fit_pole, integrate, monodromy_check
from threewave.ratfunc import RationalFn, substitute
from threewave.singular import local_index, painleve_leading_orders, resolution_pipeline
from threewave.symbols import table as make_table


def _report(num, desc, budget, fn):
    # the garbage of earlier tests is collected before the clock starts: one
    # full collection over the suite's objects (SymPy is imported when the
    # suite is collected) takes about 80 ms on a 2-vCPU VM, more than most
    # budgets, and would land in whichever body the allocation count picks
    gc.collect()
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL {num}: {desc}")
        raise
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.3f}s)"
    print(f"PASS {num}: {desc} ({dt:.2f}s)")


def test_criterion_1_accessible_points():
    # the symbolic scans are kept on the parsed model: time cold scans, and
    # the pushes and the weighted chart they read, of a model parsed again
    m = oracles.fresh_model("three-wave")

    def body():
        scan1 = reports.scan_chart(m, None, "U1")
        assert {p.text() for p in scan1.points} == {"(0, 0, 0)", "(0, i, 0)", "(0, -i, 0)"}
        assert scan1.residuals == ()
        scanw = reports.scan_chart(m, None, "W")
        assert {p.text() for p in scanw.points} == {"(0, 1/2*delta, 0)", "(0, 1/2*delta, -1)"}
        assert scanw.residuals == ()

    _report(1, "accessible points on U1 and the weighted chart, exact", 0.3, body)


def test_criterion_2_local_index_tables():
    # the symbolic scans are kept on the parsed model: time cold scans of U1,
    # U3 and W, and the pushes they read, of a model parsed again
    m = oracles.fresh_model("three-wave")

    def body():
        expected = {
            "P1": ("0", "2", "-2"),
            "P2": ("-2", "-4", "-4"),
            "P3": ("-2", "-4", "-4"),
            "P4": ("0", "0", "0"),
            "P4_1": ("0", "2", "-2"),
            "P4_2": ("1", "2", "2"),
        }
        for name, eig in expected.items():
            v, _, p = reports._named_point(m, None, name)
            idx = local_index(v, p)
            assert tuple(e.text() for e in idx.eigenvalues) == eig, name

    _report(2, "local index tables for P1..P4(2), exact", 0.1, body)


def test_criterion_3_painleve_exponents():
    def body():
        balances = painleve_leading_orders(models.three_wave_system(), 2).balances
        assert any(b.exponents == (1, 0, 2) for b in balances)

    _report(3, "dominant balance includes pole orders (1, 0, 2)", 0.1, body)


def test_painleve_report_at_bound_4():
    # 279 pole-order triples, most skipped on their integer weights: about
    # 20 ms per built-in once the model is parsed (2-vCPU x86-64 VM)
    for kind in ("three-wave", "modified"):
        m = oracles.fresh_model(kind)  # the search is kept on the model: time a cold one

        def body(m=m):
            rep = reports.painleve_report(m, None, 4)
            assert rep["residual_branches"] == [] and all(b["verified"] for b in rep["balances"])

        _report(f"{kind} painleve", f"painleve_report of {kind} at bound 4", 0.06, body)


def test_criterion_4_obstruction_conditions():
    # the symbolic run is kept on the parsed model: time a cold one, with the
    # balance search and the push it reads, on a model parsed again
    m = oracles.fresh_model("three-wave")

    def body():
        rep = resolution_pipeline(m)
        assert rep.obstruction.texts() == ["delta*gamma", "gamma^2+gamma"]
        assert [b.text() for b in rep.branches] == [
            "{delta = 0, gamma = -1}",
            "{gamma = 0}",
        ]

    _report(4, "blow-up pipeline yields {delta*gamma, gamma*(gamma+1)} and its solutions", 0.3, body)


def test_criterion_5_atlas_verification():
    def body():
        def verdicts(kind, params):
            models.resolved_atlas(kind, params)  # the maps verify at the point
            atlas = models.model(kind).atlas("resolved")
            return models.verify_atlas_holomorphy(
                [models.chart_field(kind, cm, params) for cm in atlas]
            )

        # (delta, gamma) = (0, -1)
        assert all(d["polynomial"] for d in verdicts("three-wave", [0, -1]))
        # symbolic delta, gamma = 0
        assert all(d["polynomial"] for d in verdicts("three-wave", [None, 0]))
        # fully symbolic alphas
        assert all(d["polynomial"] for d in verdicts("modified", None))
        # all six twisted-chart Jacobian determinants are exactly 1
        count = 0
        for atlas in (models.resolved_atlas("three-wave"), models.resolved_atlas("modified")):
            for cmap in atlas:
                if cmap.source.name == cmap.target.name:
                    continue
                assert jacobian_determinant(cmap) == RationalFn.const(cmap.table, 1)
                count += 1
        assert count == 6

    _report(5, "atlas polynomiality on the condition locus; six unit Jacobians", 0.1, body)


def test_criterion_6_symmetry():
    def body():
        rep1 = reports.symmetry_report("modified")
        assert rep1["pi"]["invariant"]
        assert rep1["pi"]["residual"] == ["0", "0", "0"]
        assert rep1["relations"]["relations"] == {
            "s^2": True,
            "pi^2": True,
            "(s*pi)^2": True,
        }
        # the s residual is computed symbolically and reported; expected zero,
        # and its computation must be reproducible byte-for-byte
        rep2 = reports.symmetry_report("modified")
        b1 = json.dumps(rep1, sort_keys=True)
        b2 = json.dumps(rep2, sort_keys=True)
        assert b1 == b2
        assert rep1["s"]["residual"] == ["0", "0", "0"]

    _report(6, "pi-invariance, group relations, reproducible s-residual", 0.3, body)


def test_criterion_7_uniqueness():
    from threewave import uniqueness

    # the rows are kept on the parsed model: time a cold build on a model
    # parsed again, not a memo hit
    m = oracles.fresh_model("modified")

    def body():
        rep = uniqueness.solve_ansatz(uniqueness.build_constraints(m))
        assert rep.normalized_consistent
        assert rep.normalized_nullity == 0
        assert rep.matches_reference
        assert rep.homogeneous_nullity == 1

    _report(7, "30-coefficient holomorphy solve recovers the 5-parameter family", 0.1, body)


def test_criterion_8a_chart_round_trips():
    def body():
        v = models.system_field("modified", [0, 0, 0, 0, 0])
        maps = models.resolved_atlas("modified", [0, 0, 0, 0, 0])
        atlas = NumericAtlas(v, maps, {})
        rng = random.Random(101)
        for _ in range(30):
            state = tuple(
                complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)) for _ in range(3)
            )
            for chart in atlas.charts():
                if chart == atlas.base:
                    continue
                back = atlas.transition(atlas.transition(state, atlas.base, chart), chart, atlas.base)
                rel = max(abs(a - b) for a, b in zip(state, back)) / max(
                    1.0, max(abs(c) for c in state)
                )
                assert rel <= 1e-12

    _report("8a", "chart round-trips within 1e-12 relative", 0.045, body)


def test_criterion_8b_pole_crossing_reentry():
    def body():
        v = models.system_field("modified", [0, 0, 0, 0, 0])
        maps = models.resolved_atlas("modified", [0, 0, 0, 0, 0])
        atlas = NumericAtlas(v, maps, {})
        start = TrajectoryPoint(0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
        direct = integrate(v, maps, start, [0, 1.2], tol=1e-12, atlas=atlas)
        assert direct.events, "no pole crossing happened"
        detour = integrate(v, maps, start, [0, -0.5j, 1.2 - 0.5j, 1.2], tol=1e-12, atlas=atlas)
        e1 = atlas.transition(direct.end.state, direct.end.chart, atlas.base)
        e2 = atlas.transition(detour.end.state, detour.end.chart, atlas.base)
        rel = max(abs(a - b) for a, b in zip(e1, e2)) / max(1.0, max(abs(c) for c in e1))
        assert rel <= 1e-9

    _report("8b", "pole-crossing re-entry matches a detour reference within 1e-9", 0.065, body)


def test_criterion_8c_fitted_pole_exponents():
    def body():
        v = models.three_wave_system(2, 0)
        maps = models.resolved_atlas("three-wave", [2, 0])
        atlas = NumericAtlas(v, maps, {})
        start = TrajectoryPoint(0j, (-3 + 0j, 1.02 + 0j, -3 + 0j), "U0")
        traj = integrate(v, maps, start, [0, 1.5], tol=1e-12, atlas=atlas)
        fit = fit_pole(traj.points, atlas)
        assert fit.exponents == (1, 0, 2)

    _report("8c", "fitted pole exponents equal (1, 0, 2)", 0.055, body)


def test_criterion_8d_no_pole_monodromy():
    def body():
        v = models.system_field("modified", [0, 0, 0, 0, 0])
        maps = models.resolved_atlas("modified", [0, 0, 0, 0, 0])
        atlas = NumericAtlas(v, maps, {})
        start = TrajectoryPoint(0.15 + 0j, (-2 + 0j, 0.1 + 0j, -3 + 0j), "U0")
        rep = monodromy_check(v, maps, start, 0.05 + 0j, tol=1e-12, atlas=atlas)
        assert rep["deviation"] <= 1e-9

    _report("8d", "monodromy around a pole-free region within 1e-9", 0.05, body)


def test_criterion_9_pushforward_oracle_equivalence():
    def body():
        from oracles import oracle_pushforward

        t = make_table("x", "y", "z", "X", "Y", "Z", "delta:parameter", "gamma:parameter")
        src = Chart("S", (t.get("x"), t.get("y"), t.get("z")))
        dst_vars = (t.get("X"), t.get("Y"), t.get("Z"))
        x, y, z = (RationalFn.var(t, n) for n in ("x", "y", "z"))
        X, Y, Z = (RationalFn.var(t, n) for n in ("X", "Y", "Z"))
        rng = random.Random(2024)

        def random_field():
            comps = []
            monos = [
                RationalFn.const(t, 1), x, y, z, x * x, x * y, x * z, y * y, y * z, z * z,
            ]
            for _ in range(3):
                acc = RationalFn.const(t, 0)
                for m in monos:
                    acc = acc + RationalFn.const(t, gr(rng.randint(-3, 3))) * m
                comps.append(acc)
            return VectorField(src, comps)

        def random_chart():
            dst = Chart("D", dst_vars)
            kind = rng.randrange(3)
            if kind == 0:  # reciprocal projective-style chart
                fwd = [1 / x, y / x, z / x]
                inv = [1 / X, Y / X, Z / X]
            elif kind == 1:  # polynomial shear with exact triangular inverse
                a, b, c = (gr(rng.randint(-2, 2)) for _ in range(3))
                fwd = [x + a * y * y, y + b * z * z, z + RationalFn.const(t, c)]
                inv_z = Z - c
                inv_y = substitute(Y - b * z * z, {t.get("z"): inv_z}, t)
                inv_x = substitute(
                    X - a * y * y, {t.get("y"): inv_y, t.get("z"): inv_z}, t
                )
                inv = [inv_x, inv_y, inv_z]
            else:  # weighted reciprocal chart
                fwd = [1 / x, y, z / (x * x)]
                inv = [1 / X, Y, Z / (X * X)]
            return ChartMap(src, dst, fwd, inv)

        for _ in range(20):
            v = random_field()
            cmap = random_chart()
            got = pushforward(v, cmap)
            want = oracle_pushforward(v, cmap)
            assert list(got.components) == want

    _report(9, "pushforward equals the naive chain-rule oracle on 20 random fields", 1.0, body)


def test_pipeline_at_new_points_after_the_symbolic_run():
    # a model's symbolic pipeline is run once (the warm-up); a report at a
    # new parameter point then specializes its steps
    rng = random.Random(2026)

    def value():
        return gr(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    for kind, n, budget in (("three-wave", 2, 0.3), ("modified", 5, 0.3)):
        reports.pipeline_report(kind)
        points = [[value() for _ in range(n)] for _ in range(20)]
        _report(f"{kind} pipeline", f"pipeline_report at 20 new {kind} points", budget,
                lambda: [reports.pipeline_report(kind, p) for p in points])


def test_singularities_at_new_points_after_the_first():
    # each distinct boundary pair is solved once per process: after one
    # report the U1-U3 pairs of a new parameter point are already solved;
    # the reports run on a model parsed again, so its pushes and census
    # slots are timed too
    rng = random.Random(2026)

    def value():
        return gr(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    for kind, n, budget in (("three-wave", 2, 0.2), ("modified", 5, 0.2)):
        reports.singularities_report(kind)
        m = oracles.fresh_model(kind)
        points = [[value() for _ in range(n)] for _ in range(20)]
        _report(f"{kind} singularities", f"singularities_report at 20 new {kind} points",
                budget, lambda: [reports.singularities_report(m, p) for p in points])
