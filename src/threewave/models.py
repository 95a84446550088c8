"""Built-in systems, chart atlases, and symmetries, plus their verifications.

Two model families are provided:

* the two-parameter quadratic interaction system on (x, y, z) with
  parameters (delta, gamma), together with its projective atlas U0-U3 and
  the resolved atlas (the identity chart plus T2-1..T2-3) whose transition
  maps are polynomial-compatible exactly on the parameter locus
  delta*gamma = gamma*(gamma+1) = 0;
* the five-parameter family (alpha1..alpha5) with its resolved atlas (the
  identity chart plus T3-1..T3-3), which is polynomial for all parameter
  values, its two generating symmetries pi and s, and their relations
  s^2 = pi^2 = (s*pi)^2 = 1.

Everything, symmetries included, is built by parsing canonical-syntax
sources, so the model constructors double as round-trip tests of the file
format, and every chart map proves its own invertibility on load. A built-in
is one model file among others: every function taking a ``system`` accepts a
built-in name, a model-file path or a parsed
:class:`~threewave.parsing.ModelFile`.
"""

from __future__ import annotations

import os
from functools import lru_cache, reduce, wraps
from typing import TYPE_CHECKING, Callable, Sequence

from .gaussian import GaussianRational
from .geometry import (
    ChartMap,
    SymmetryMap,
    VectorField,
    jacobian_determinant,
    power_scaled_chart,
    pushforward,
)
from .parsing import ModelFile, load_model, parse_model, render_model
from .ratfunc import RationalFn
from .symbols import Symbol, names_apart, state

if TYPE_CHECKING:
    from .singular import Balance, BalanceSearch

_THREE_WAVE_SRC = """
params delta gamma
chart U0 : x y z
chart U1 : X1 Y1 Z1 @ X1
chart U2 : X2 Y2 Z2 @ Y2
chart U3 : X3 Y3 Z3 @ Z3
chart W : XW YW ZW @ XW
chart T2-1 : x1 y1 z1 @ x1
chart T2-2 : x2 y2 z2 @ x2
chart T2-3 : x3 y3 z3 @ x3
system U0 : -2*y^2 + gamma*x + delta*y + z ; 2*x*y - delta*x + gamma*y ; -2*x*z - 2*z
map U0 U1 : 1/x ; y/x ; z/x | 1/X1 ; Y1/X1 ; Z1/X1
map U0 U2 : x/y ; 1/y ; z/y | X2/Y2 ; 1/Y2 ; Z2/Y2
map U0 U3 : x/z ; y/z ; 1/z | X3/Z3 ; Y3/Z3 ; 1/Z3
map U0 T2-1 : 1/x ; -(y - i*x)*x ; z*x | 1/x1 ; i/x1 - x1*y1 ; x1*z1
map U0 T2-2 : 1/x ; -(y + i*x)*x ; z*x | 1/x2 ; -i/x2 - x2*y2 ; x2*z2
map U0 T2-3 : 1/x ; -((y - delta/2)*x + delta*gamma/2)*x ; z + x^2 + 2*(gamma + 1)*x | 1/x3 ; delta/2 - delta*gamma*x3/2 - x3^2*y3 ; z3 - 1/x3^2 - 2*(gamma + 1)/x3
atlas projective : U1 U2 U3
atlas resolved : T2-1 T2-2 T2-3
"""

_MODIFIED_SRC = """
params alpha1 alpha2 alpha3 alpha4 alpha5
chart U0 : x y z
chart U1 : X1 Y1 Z1 @ X1
chart U2 : X2 Y2 Z2 @ Y2
chart U3 : X3 Y3 Z3 @ Z3
chart W : XW YW ZW @ XW
chart T3-1 : x1 y1 z1 @ x1
chart T3-2 : x2 y2 z2 @ x2
chart T3-3 : x3 y3 z3 @ x3
system U0 : -2*y^2 - (alpha1 + alpha3 - 2*alpha5)*y + z + (alpha2 + alpha4 + 2*(alpha1 + alpha3)*alpha5)/2 ; 2*x*y - 2*alpha5*x + i*(alpha1 - alpha3)*y - i*(alpha2 - alpha4 + 2*(alpha1 - alpha3)*alpha5)/2 ; -2*x*z - (alpha2 + alpha4)*x + i*(alpha2 - alpha4)*y - i*(alpha1 - alpha3)*z + i*(alpha2*alpha3 - alpha1*alpha4)
map U0 U1 : 1/x ; y/x ; z/x | 1/X1 ; Y1/X1 ; Z1/X1
map U0 U2 : x/y ; 1/y ; z/y | X2/Y2 ; 1/Y2 ; Z2/Y2
map U0 U3 : x/z ; y/z ; 1/z | X3/Z3 ; Y3/Z3 ; 1/Z3
map U0 T3-1 : 1/x ; -(y - i*x + alpha1)*x ; (z + alpha2)*x | 1/x1 ; i/x1 - alpha1 - x1*y1 ; x1*z1 - alpha2
map U0 T3-2 : 1/x ; -(y + i*x + alpha3)*x ; (z + alpha4)*x | 1/x2 ; -i/x2 - alpha3 - x2*y2 ; x2*z2 - alpha4
map U0 T3-3 : 1/x ; -((y - alpha5)*x - i*(alpha2 - alpha4)/2)*x ; z + x^2 + i*(alpha1 - alpha3)*x | 1/x3 ; alpha5 + i*(alpha2 - alpha4)*x3/2 - x3^2*y3 ; z3 - 1/x3^2 - i*(alpha1 - alpha3)/x3
atlas projective : U1 U2 U3
atlas resolved : T3-1 T3-2 T3-3
symmetry pi : x ; -y ; z | alpha1 -> -alpha3, alpha2 -> alpha4, alpha3 -> -alpha1, alpha4 -> alpha2, alpha5 -> -alpha5
symmetry s : x - i*(alpha2 - alpha4)/(2*(y - alpha5)) ; y ; (4*y^2*z - 8*alpha5*y*z + 4*i*(alpha2 - alpha4)*x*y - 4*i*(alpha2 - alpha4)*alpha5*x - 2*(alpha1 - alpha3)*(alpha2 - alpha4)*y + 4*alpha5^2*z + (alpha2 - alpha4)*(alpha2 - alpha4 + 2*(alpha1 - alpha3)*alpha5)) / (4*(y - alpha5)^2) | alpha2 -> alpha4, alpha4 -> alpha2
relation s^2
relation pi^2
relation (s*pi)^2
"""

BUILTINS = {"three-wave": _THREE_WAVE_SRC, "modified": _MODIFIED_SRC}

@lru_cache(maxsize=None)
def _builtin(kind: str) -> ModelFile:
    return parse_model(BUILTINS[kind], kind)


def model(system: str | ModelFile) -> ModelFile:
    """The model of a built-in name (parsed once and cached), a model-file
    path, or a ModelFile, which is returned as is."""
    if isinstance(system, ModelFile):
        return system
    if system in BUILTINS:
        return _builtin(system)
    if os.path.isfile(system):
        return load_model(system)
    raise KeyError(f"unknown system {system!r} (not a built-in, not a file)")


def per_model(fn: Callable) -> Callable:
    """``fn(m, *args)`` once per parsed model ``m = model(system)`` and
    arguments, kept in ``m._derived`` under ``(fn, *args)`` for as long as
    the model lives. A raised failure is not kept, so it is raised again."""

    @wraps(fn)
    def memo(system, *args):
        m = model(system)
        key = (fn, *args)
        if key not in m._derived:
            m._derived[key] = fn(m, *args)
        return m._derived[key]

    return memo


def param_symbols(system) -> tuple[Symbol, ...]:
    return model(system).table.parameters()


def bind_parameters(system, values: Sequence | None) -> dict[Symbol, GaussianRational]:
    """Turn user parameter values, in the model's parameter order, into exact
    bindings for ``specialize`` (None, as a whole or per value, leaves the
    parameter symbolic)."""
    syms = param_symbols(system)
    if values is None:
        return {}
    if len(values) != len(syms):
        raise ValueError(f"expected {len(syms)} parameters, got {len(values)}")
    return {sym: GaussianRational(val) for sym, val in zip(syms, values) if val is not None}


def system_field(system, params: Sequence | None = None) -> VectorField:
    """The model's vector field on its base chart, parameters bound."""
    m = model(system)
    return m.fields[m.base.name].specialize(bind_parameters(m, params))


def three_wave_system(delta=None, gamma=None) -> VectorField:
    """The two-parameter interaction system on the base chart U0."""
    return system_field("three-wave", (delta, gamma))


def atlas(system, name: str, params: Sequence | None = None) -> list[ChartMap]:
    """The model's atlas ``name`` (identity chart first), parameters bound."""
    m = model(system)
    maps = m.atlas(name)
    bindings = bind_parameters(m, params)
    return maps[:1] + [cm.specialize(bindings) for cm in maps[1:]]


def chart_field(system, cmap: ChartMap, params: Sequence | None = None) -> VectorField:
    """The model's field pushed through ``cmap``, a map out of its base chart,
    parameters bound.

    The field with every parameter symbolic is pushed once (``pushed_field``)
    and specialized at ``params``: wherever the map is defined there, that is
    the specialized field pushed through the specialized map, since the
    reduced denominators of the symbolic push divide a product of the field's
    and the map's denominators. Whether the map is invertible at ``params``
    is left to ``atlas``: its certificate, the composite denominators D with
    N = x*D, is specialized there, and the map is refused where a D vanishes.
    """
    m = model(system)
    return pushed_field(m.fields[m.base.name], cmap).specialize(bind_parameters(m, params))


@lru_cache(maxsize=64)  # keyed by the field's value and the map's identity
def pushed_field(v: VectorField, cmap: ChartMap) -> VectorField:
    """``pushforward(v, cmap)`` once per field and map (``v`` for an identity map)."""
    coords = tuple(RationalFn.var(cmap.table, s) for s in v.chart.vars)
    if cmap.source == cmap.target == v.chart and cmap.forward == coords:
        return v
    if v.table != cmap.table:  # the target chart's variables may extend it (chart W)
        v = v.retable(cmap.table)
    return pushforward(v, cmap)


@per_model
def chart_jacobian(m: ModelFile, cmap: ChartMap) -> RationalFn:
    """The Jacobian determinant of ``cmap``, a map of the model, with every
    parameter symbolic; a point specializes it like ``chart_field``."""
    return jacobian_determinant(cmap)


def resolved_atlas(system, params: Sequence | None = None) -> list[ChartMap]:
    """The glued-phase-space atlas (identity chart plus the twisted charts)."""
    return atlas(system, "resolved", params)


@per_model
def balance_search(m: ModelFile, bound: int) -> BalanceSearch:
    """The dominant-balance search to ``bound`` on the model's field with
    every parameter symbolic (``singular.painleve_leading_orders``), read by
    the ``painleve`` report without parameter values and, at bound 2, by
    ``weighted_chart``."""
    from .singular import painleve_leading_orders

    return painleve_leading_orders(m.fields[m.base.name], bound)


@per_model
def weighted_chart(m: ModelFile) -> tuple[Balance, ChartMap]:
    """The model's dominant balance with a pole in x, and the weighted chart
    W = (1/x, y/x^n, z/x^p) of its pole orders (m, n, p).

    The balance is picked from the bound-2 ``balance_search``, on the
    model's field with every parameter symbolic, so the singularity scan and
    the blow-up pipeline use one chart at every parameter value. The chart's
    variables are those of the model's chart ``W``; a model without one gets
    fresh variables XW YW ZW on an extension of its table.
    """
    from .singular import weighted_balance

    balance = weighted_balance(balance_search(m, 2))
    table = m.table
    if "W" in m.charts:
        wvars = m.charts["W"].vars
    else:
        names = names_apart(table, lambda pad: [f"{a}W{pad}" for a in "XYZ"])
        table = table.extend(state(n) for n in names)
        wvars = tuple(table.get(n) for n in names)
    return balance, power_scaled_chart(m.base, table, "W", wvars, balance.exponents)


# -- holomorphy verification --------------------------------------------------------


def verify_atlas_holomorphy(pushed: Sequence[VectorField]) -> list[dict]:
    """Per-chart verdict on the system's field already pushed to each chart of
    an atlas (``chart_field``): is it polynomial there?

    Non-polynomial charts report the offending denominators and, when the
    poles sit on the chart's boundary divisor, the parameter conditions
    whose vanishing would make the components polynomial.
    """
    out = []
    for w in pushed:
        witnesses = [c.den.text() for c in w.components if not c.is_polynomial()]
        conditions: list[str] = []
        if witnesses:
            # only a chart that is not polynomial loads the singularity analysis
            from .singular import holomorphy_obstructions

            try:
                conditions = holomorphy_obstructions(w).texts()
            except ValueError:  # no boundary, or a pole off it
                conditions = []
        out.append(
            {
                "chart": w.chart.name,
                "polynomial": not witnesses,
                "witnesses": witnesses,
                "obstruction_conditions": conditions,
                "components": [c.text() for c in w.components],
            }
        )
    return out


# -- symmetries -----------------------------------------------------------------------


def verify_symmetry(v: VectorField, sigma: SymmetryMap) -> dict:
    """Residual of the invariance claim: pushforward under sigma minus the
    field with mapped parameters. A zero triple means exact invariance."""
    cm = sigma.as_chart_map()
    moved = pushforward(v, cm)
    target = VectorField(v.chart, [sigma.map_params(c) for c in v.components])
    residual = [moved.components[k] - target.components[k] for k in range(3)]
    return {
        "symmetry": sigma.name,
        "invariant": all(r.is_zero() for r in residual),
        "residual": [r.text() for r in residual],
        "mapped_field": [c.text() for c in moved.components],
    }


def verify_group_relations(system) -> dict:
    """Check that every relation word of the model (its letters, outermost
    first) composes to the identity, as an exact rational-map identity."""
    m = model(system)
    checks = {
        word: reduce(SymmetryMap.compose, (m.symmetries[n] for n in letters)).is_identity()
        for word, letters in m.relations.items()
    }
    return {"relations": checks, "all_hold": all(checks.values())}


def export_model(kind: str) -> str:
    """Serialize a whole built-in model (every chart, map, atlas, symmetry and
    relation) to the model-file format, so modified copies can be fed back
    through the CLI."""
    return render_model(model(kind))
