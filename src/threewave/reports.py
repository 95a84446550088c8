"""JSON-ready report builders shared by the CLI and the test suite.

Everything here returns plain dicts of strings/numbers/lists in canonical
text form, so serializing with sorted keys gives byte-identical output for
identical inputs. The reports of the singularity analysis are built here;
those of the atlas, symmetry and uniqueness checks, which need none of it,
are built in :mod:`threewave.checks` and re-exported.
"""

from __future__ import annotations

from typing import Sequence

from . import models
from .checks import atlas_report, symmetry_report, uniqueness_report  # re-exported
from .errors import ThreeWaveError
from .geometry import ChartMap, LogPoleForm, VectorField
from .parsing import ModelFile
from .ratfunc import RationalFn
from .singular import (
    AccessiblePoint,
    AccessibleScan,
    classify_alpha_matrix,
    find_accessible,
    index_of_linear_part,
    linear_part,
    painleve_leading_orders,
    resolution_pipeline,
)


def _point_dict(p: AccessiblePoint) -> dict:
    return {
        "chart": p.chart.name,
        "coords": [c.text() for c in p.coords],
        "boundary": p.boundary.name,
        "multiplicity": p.multiplicity,
    }


@models.per_model
def reciprocal_slot(m: ModelFile, cmap: ChartMap) -> int | None:
    """Slot b of the boundary when the chart's inverse is the reciprocal map
    of that slot (base_b = 1/X_b, base_k = X_k/X_b), else None; once per map."""
    target = cmap.target
    if target.boundary is None:
        return None
    b = target.var_index(target.boundary)
    table = cmap.table
    xs = [RationalFn.var(table, s) for s in target.vars]
    want = [1 / xs[b] if k == b else xs[k] / xs[b] for k in range(3)]
    return b if list(cmap.inverse) == want else None


def homogeneous_key(p: AccessiblePoint, slot: int) -> str:
    """Canonical projective representative [w : x : y : z] of a boundary point
    of the reciprocal chart with boundary slot ``slot``."""
    one = RationalFn.const(p.coords[0].table, 1)
    coords = [p.coords[slot]] + [one if k == slot else p.coords[k] for k in range(3)]
    pivot = next(x for x in coords if not x.is_zero())
    return "[" + " : ".join((x / pivot).text() for x in coords) + "]"


def scan_charts(system) -> dict[str, ChartMap | None]:
    """The charts the singularity scan covers: the boundary charts of the
    projective atlas, then ``W`` (mapped to None) when the model declares it."""
    m = models.model(system)
    out = {cm.target.name: cm for cm in m.atlas("projective") if cm.target.boundary is not None}
    if "W" in m.charts:
        out["W"] = None
    return out


def scan_chart(system, params, chart_name: str) -> tuple[VectorField, AccessibleScan]:
    """The system's field on one chart of ``scan_charts`` at ``params``, and
    its accessible points there."""
    m = models.model(system)
    charts = scan_charts(m)
    if chart_name not in charts:
        raise KeyError(f"unknown chart {chart_name!r}; known: {list(charts)}")
    return _scan(m, params, charts[chart_name] or models.weighted_chart(m)[1])


def _scan(system, params, cmap: ChartMap) -> tuple[VectorField, AccessibleScan]:
    """The system's field pushed through ``cmap`` at ``params`` and its
    accessible points. The push runs once per model and chart with the
    parameters symbolic (``models.chart_field``); each point only
    specializes it and scans. With every parameter symbolic the scan too
    is made once per model and chart (``_symbolic_scan``)."""
    if not models.bind_parameters(system, params):
        return _symbolic_scan(system, cmap)
    w = models.chart_field(system, cmap, params)
    return w, find_accessible(system, w)


@models.per_model
def _symbolic_scan(m: ModelFile, cmap: ChartMap) -> tuple[VectorField, AccessibleScan]:
    w = models.chart_field(m, cmap)
    return w, find_accessible(m, w)


def singularities_report(system, params=None, charts: Sequence[str] | None = None) -> dict:
    """Accessible points per chart, plus the deduplicated projective census."""
    m = models.model(system)
    known = scan_charts(m)
    charts = tuple(charts) if charts else tuple(known)
    per_chart = {}
    census: dict[str, dict] = {}
    for name in charts:
        _, scan = scan_chart(m, params, name)
        per_chart[name] = {
            "points": [_point_dict(p) for p in scan.points],
            "residual_branches": list(scan.residuals),
        }
        slot = reciprocal_slot(m, known[name]) if known[name] else None
        if slot is not None:
            for p in scan.points:
                key = homogeneous_key(p, slot)
                entry = census.setdefault(
                    key, {"projective": key, "seen_in": [], "multiplicity": 0}
                )
                entry["seen_in"].append(p.chart.name)
                entry["multiplicity"] = max(entry["multiplicity"], p.multiplicity)
    distinct = sorted(census.values(), key=lambda e: e["projective"])
    total_mult = sum(e["multiplicity"] for e in distinct)
    return {
        "system": m.name,
        "charts": per_chart,
        "projective_census": distinct,
        "distinct_boundary_points": len(distinct),
        "count_with_multiplicity": total_mult,
    }


# the chart each classical label lives on
POINT_CHARTS = {"P1": "U1", "P2": "U1", "P3": "U1", "P4": "U3", "P4_1": "W", "P4_2": "W"}


def _chart_labels(
    system, params, chart: str
) -> dict[str, tuple[VectorField, LogPoleForm, AccessiblePoint]]:
    """The classical labels on one chart of the system's field at ``params``,
    matched by computed coordinates (never hardcoded), each with the field and
    the log-pole form its scan read. W is the model's weighted chart
    (``models.weighted_chart``), whether or not the model declares a chart W;
    U1 and U3 give no label when the model's projective atlas lacks them."""
    if chart == "W":
        cmap = models.weighted_chart(system)[1]
    else:
        cmap = scan_charts(system).get(chart)
        if cmap is None:
            return {}
    v, scan = _scan(system, params, cmap)
    out = {}
    if chart == "U1":
        zeros = [p for p in scan.points if all(c.is_zero() for c in p.coords)]
        others = [p for p in scan.points if p not in zeros]
        if zeros:
            out["P1"] = (v, scan.form, zeros[0])
        # sort the pair off the origin by the sign of the imaginary part (i first)
        others.sort(key=lambda p: p.coords[1].text(), reverse=True)
        for label, p in zip(("P2", "P3"), others):
            out[label] = (v, scan.form, p)
    elif chart == "U3":
        for p in scan.points:
            if all(c.is_zero() for c in p.coords):
                out["P4"] = (v, scan.form, p)
    else:
        for p in scan.points:
            out["P4_1" if p.coords[2].is_zero() else "P4_2"] = (v, scan.form, p)
    return out


def _named_point(system, params, point: str) -> tuple[VectorField, LogPoleForm, AccessiblePoint]:
    """One label, scanning only the chart it lives on (nothing for a label
    that is not one of ``POINT_CHARTS``)."""
    if point not in POINT_CHARTS:
        raise KeyError(f"unknown point {point!r}; known: {sorted(POINT_CHARTS)}")
    m = models.model(system)
    found = _chart_labels(m, params, POINT_CHARTS[point])
    if point not in found:
        known = []
        for chart in dict.fromkeys(POINT_CHARTS.values()):
            try:
                known += _chart_labels(m, params, chart)
            except ThreeWaveError:  # a refused scan says nothing about this label
                pass
        raise KeyError(f"unknown point {point!r}; known: {sorted(known)}")
    return found[point]


def _point_linear_part(system, params, point: str):
    """The field, the point ``point`` and the point's linear part at
    ``params``; with every parameter symbolic, once per model and label
    (``_symbolic_linear_part``)."""
    if not models.bind_parameters(system, params):
        return _symbolic_linear_part(system, point)
    v, form, p = _named_point(system, params, point)
    return v, p, linear_part(form, p)


@models.per_model
def _symbolic_linear_part(m: ModelFile, point: str):
    v, form, p = _named_point(m, None, point)
    return v, p, tuple(map(tuple, linear_part(form, p)))  # rows no caller can change


def index_report(system, params=None, point: str = "P1") -> dict:
    v, p, A = _point_linear_part(system, params, point)
    idx = index_of_linear_part(A, v.table)
    return {
        "point": point,
        "chart": p.chart.name,
        "coords": [c.text() for c in p.coords],
        "linear_part": [[e.text() for e in row] for row in A],
        "eigenvalues": [e.text() for e in idx.eigenvalues],
        "ratios": [r.text() for r in idx.ratios] if idx.ratios else None,
        "integrality": list(idx.integrality) if idx.integrality else None,
        "ordering": idx.ordering,
        "obstructions": [],
    }


def alpha_report(system, params=None, point: str = "P4_2") -> dict:
    _, p, A = _point_linear_part(system, params, point)
    rep = classify_alpha_matrix(A)
    return {
        "point": point,
        "chart": p.chart.name,
        "matrix": [[c.text() for c in row] for row in rep.matrix],
        "triangular": rep.triangular,
        "ratios": [c.text() for c in rep.ratios],
        "component_single_valued": list(rep.component_single_valued),
        "log_detected": rep.log_detected,
        "single_valued": rep.single_valued,
    }


def painleve_report(system, params=None, bound: int = 2) -> dict:
    """The dominant balances to ``bound`` at ``params``; with every
    parameter symbolic, the model's one search (``models.balance_search``)."""
    m = models.model(system)
    if models.bind_parameters(m, params):
        search = painleve_leading_orders(models.system_field(m, params), bound)
    else:
        search = models.balance_search(m, bound)
    return {
        "system": m.name,
        "bound": bound,
        "balances": [
            {
                "exponents": list(b.exponents),
                "coefficients": [c.text() for c in b.coefficients],
                "free": list(b.free),
                "verified": True,  # certified by the search (painleve_leading_orders)
            }
            for b in search.balances
        ],
        "residual_branches": [
            f"exponents {o}: {branch.text()}"
            for o, branch in search.residual_branches
        ],
    }


def pipeline_report(system, params=None) -> dict:
    """The blow-up pipeline at ``params``, specializing the model's run with
    every parameter symbolic wherever it can (``resolution_pipeline``)."""
    m = models.model(system)
    rep = resolution_pipeline(m, params)
    balance = models.weighted_chart(m)[0]
    bindings = models.bind_parameters(m, params)
    return {
        "system": m.name,
        "balance": {
            "exponents": list(balance.exponents),
            "coefficients": [c.specialize(bindings).text() for c in balance.coefficients],
        },
        "weighted_points": [
            {
                "point": _point_dict(p),
                "eigenvalues": [e.text() for e in ix.eigenvalues],
                "ratios": [r.text() for r in ix.ratios] if ix.ratios else None,
            }
            for p, ix in rep.weighted_points
        ],
        "entry_point": _point_dict(rep.entry_point),
        "blowup_centers": [_point_dict(c) for c in rep.centers],
        "chart_lineage": [f.chart.name for f in rep.fields],
        "composed_forward": [f.text() for f in rep.composed_forward],
        "final_chart": rep.final_field.chart.name,
        "final_components": [c.text() for c in rep.final_field.components],
        "obstructions": rep.obstruction.texts(),
        "solution_branches": [b.text() for b in rep.branches],
        "resolvable_without_conditions": rep.obstruction.is_empty(),
    }
