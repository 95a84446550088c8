import json
import random

import oracles
import pytest

from threewave import models, uniqueness
from threewave.gaussian import gr
from threewave.geometry import pushforward
from threewave.linalg import linear_solve
from threewave.parsing import parse_model
from threewave.ratfunc import RationalFn
from threewave.uniqueness import (
    MONOMIAL_EXPONENTS,
    build_constraints,
    reference_coefficients,
    solve_ansatz,
)


@pytest.fixture(scope="module")
def constraints():
    return build_constraints("modified")


@pytest.fixture(scope="module")
def solved(constraints):
    return solve_ansatz(constraints)


def test_ansatz_shape(constraints):
    # the ten monomials are the distinct exponents of degree <= 2, one
    # column per monomial and component, every entry over the model's table
    degree_two = {(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2}
    assert len(MONOMIAL_EXPONENTS) == 10 and set(MONOMIAL_EXPONENTS) == degree_two
    m = models.model("modified")
    assert constraints.model is m
    for row in constraints.rows:
        assert len(row) == 30
        assert all(entry.table is m.table for entry in row)


def test_identity_chart_contributes_nothing(constraints):
    # the ansatz is polynomial on the base chart, so constraints can only
    # come from the twisted charts of the resolved atlas
    m = constraints.model
    charts = {o.split(":")[0] for o in constraints.row_origins}
    assert m.base.name not in charts
    assert charts <= {cmap.target.name for cmap in m.atlas("resolved")[1:]}


def test_constraints_are_nontrivial_and_homogeneous(constraints):
    assert len(constraints.rows) > 0
    charts = {o.split(":")[0] for o in constraints.row_origins}
    assert charts == {"T3-1", "T3-2", "T3-3"}


def test_homogeneous_solution_space_is_a_line(solved):
    assert solved.homogeneous_rank == 29
    assert solved.homogeneous_nullity == 1


def test_normalized_solution_recovers_reference(solved):
    assert solved.normalized_consistent
    assert solved.normalized_nullity == 0
    assert solved.matches_reference
    assert solved.quadratic_part_nonzero


def test_reference_coefficients_solve_every_constraint(constraints):
    m = constraints.model
    ref = reference_coefficients(m)
    zero = RationalFn.const(m.table, 0)
    for row in constraints.rows:
        acc = zero
        for coeff, val in zip(row, ref):
            acc = acc + coeff * val
        assert acc.is_zero()


def test_round_trip_polynomiality(solved):
    # the recovered field really is polynomial in every twisted chart
    recovered = solved.recovered
    for cmap in models.model("modified").atlas("resolved")[1:]:
        w = pushforward(recovered, cmap)
        assert all(c.is_polynomial() for c in w.components), cmap.target.name


def test_specialization_commutes_with_solving(constraints, solved):
    rng = random.Random(77)
    table = constraints.model.table
    alpha_syms = list(models.param_symbols("modified"))
    for _ in range(3):
        values = {s: gr(rng.randint(-3, 3)) for s in alpha_syms}
        spec_rows = [[e.specialize(values) for e in row] for row in constraints.rows]
        norm_index = 7  # y^2 coefficient of the first component
        # the normalized system has one solution exactly when the specialized
        # null space is a line with nonzero y^2 entry
        sol = linear_solve(spec_rows)
        assert sol.nullity == 1
        (n,) = sol.nullspace
        assert not n[norm_index].is_zero()
        got = [c * RationalFn.const(table, -2) / n[norm_index] for c in n]
        for value, sym in zip(got, solved.coefficient_values):
            assert value == sym.specialize(values)


def test_recovered_field_passes_pi_symmetry(solved):
    # the recovered field lives on the model's base chart and table
    m = models.model("modified")
    assert solved.recovered.chart == m.base and solved.recovered.table is m.table
    rep = models.verify_symmetry(solved.recovered, m.symmetries["pi"])
    assert rep["invariant"]


@pytest.fixture(scope="module")
def systems(tmp_path_factory):
    out = {"modified": "modified", "three-wave": "three-wave"}
    for kind in ("modified", "three-wave"):
        path = tmp_path_factory.mktemp("export") / f"{kind}.model"
        path.write_text(models.export_model(kind))
        out[f"{kind} file"] = str(path)
    # a random field on the projective charts, the resolved atlas of a file without one
    workloads = oracles.bench_workloads()
    text = workloads.model_text(workloads.random_field(random.Random(5)))
    out["random"] = parse_model(text, "random")
    return out


@pytest.mark.parametrize(
    "name", ["modified", "three-wave", "modified file", "three-wave file", "random"]
)
def test_rows_equal_the_ansatz_pushforward_rows(systems, name):
    # the same rows as pushing the whole ansatz through each chart; the order
    # rule: chart by chart, component by component, by ascending exponent key
    oracle = oracles.ansatz_pushforward_rows(systems[name])
    expected = [(origin, row) for *_, origin, row in sorted(oracle, key=lambda r: r[:3])]
    cs = build_constraints(systems[name])
    assert list(zip(cs.row_origins, cs.rows)) == expected
    assert len(expected) == {"random": 54}.get(name, 47)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(uniqueness, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(uniqueness, name, counted)
    return calls


def test_second_build_is_the_memoized_one(monkeypatch):
    first = build_constraints("modified")
    subs = _counting(monkeypatch, "substitute")
    jac = _counting(monkeypatch, "jacobian_matrix")
    assert build_constraints("modified") is first
    assert subs == [] and jac == []
    # a fresh model composes again: each map's Jacobian once, and its 9
    # entries and 10 monomials once each
    fresh = build_constraints(parse_model(models.export_model("modified"), "copy"))
    assert fresh is not first
    assert len(jac) == 3 and len(subs) == 3 * 19


def test_the_classification_is_solved_once_per_model(monkeypatch):
    from threewave import reports

    m = oracles.fresh_model("modified")
    solves = _counting(monkeypatch, "linear_solve")
    first = json.dumps(reports.uniqueness_report(m), sort_keys=True)
    assert json.dumps(reports.uniqueness_report(m), sort_keys=True) == first
    assert solves == ["linear_solve"]
    kept = uniqueness.classify(m)
    assert uniqueness.classify(m) is kept
    assert uniqueness.classify("modified") is uniqueness.classify(models.model("modified"))
    # the built-in's report, warm or cold, is the one the cold solve gave
    assert json.dumps(reports.uniqueness_report("modified"), sort_keys=True) == first
    # a model file loaded again is solved again, to the same report
    copy = parse_model(models.export_model("modified"), "copy")
    solves.clear()
    assert uniqueness.classify(copy) is not kept
    assert solves == ["linear_solve"]
    assert json.dumps(reports.uniqueness_report(copy), sort_keys=True) == first
    assert solves == ["linear_solve"]
