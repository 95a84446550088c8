"""Built-in systems, chart atlases, and symmetries, plus their verifications.

Two model families are provided:

* the two-parameter quadratic interaction system on (x, y, z) with
  parameters (delta, gamma), together with its projective atlas U0-U3 and
  the resolved atlas (the identity chart plus T2-1..T2-3) whose transition
  maps are polynomial-compatible exactly on the parameter locus
  delta*gamma = gamma*(gamma+1) = 0;
* the five-parameter family (alpha1..alpha5) with its resolved atlas (the
  identity chart plus T3-1..T3-3), which is polynomial for all parameter
  values, and the two generating symmetries of that family.

Everything is built by parsing canonical-syntax sources, so the model
constructors double as round-trip tests of the file format, and every chart
map proves its own invertibility on load. A built-in is one model file among
others: every function taking a ``system`` accepts a built-in name, a
model-file path or a parsed :class:`~threewave.parsing.ModelFile`.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Mapping, Sequence

from .gaussian import GaussianRational
from .geometry import Chart, ChartMap, VectorField, power_scaled_chart, pushforward
from .parsing import ModelFile, load_model, parse_model, render_model
from .ratfunc import RationalFn, substitute
from .symbols import Symbol, SymbolTable, state

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
"""

BUILTINS = {"three-wave": _THREE_WAVE_SRC, "modified": _MODIFIED_SRC}

_S_STATE_Z = (
    "(4*y^2*z - 8*alpha5*y*z + 4*i*(alpha2 - alpha4)*x*y - 4*i*(alpha2 - alpha4)*alpha5*x"
    " - 2*(alpha1 - alpha3)*(alpha2 - alpha4)*y + 4*alpha5^2*z"
    " + (alpha2 - alpha4)*(alpha2 - alpha4 + 2*(alpha1 - alpha3)*alpha5)) / (4*(y - alpha5)^2)"
)


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


def modified_system(alphas: Sequence | None = None) -> VectorField:
    """The five-parameter family on the base chart U0."""
    return system_field("modified", alphas)


def atlas(system, name: str, params: Sequence | None = None) -> list[ChartMap]:
    """The model's atlas ``name`` (identity chart first), parameters bound."""
    m = model(system)
    maps = m.atlas(name)
    bindings = bind_parameters(m, params)
    return maps[:1] + [cm.specialize(bindings) for cm in maps[1:]]


def resolved_atlas(system, params: Sequence | None = None) -> list[ChartMap]:
    """The glued-phase-space atlas (identity chart plus the twisted charts)."""
    return atlas(system, "resolved", params)


def weighted_chart_map(system, exponents: tuple[int, int, int]) -> ChartMap:
    """Chart (1/x, y/x^n, z/x^p) adapted to pole orders (m, n, p).

    Its variables are those of the model's chart ``W``; a model without one
    gets the fresh variables XW YW ZW on an extension of its table.
    """
    m = model(system)
    table = m.table
    if "W" in m.charts:
        wvars = m.charts["W"].vars
    else:
        names = ("XW", "YW", "ZW")
        table = table.extend(state(n) for n in names if table.get(n) is None)
        wvars = tuple(table.get(n) for n in names)
    return power_scaled_chart(m.base, table, "W", wvars, exponents)


# -- holomorphy verification --------------------------------------------------------


def verify_atlas_holomorphy(v: VectorField, atlas: Sequence[ChartMap]) -> list[dict]:
    """Per-chart verdict: is the pushforward of ``v`` polynomial there?

    Non-polynomial charts report the offending denominators and, when the
    poles sit on the chart's boundary divisor, the parameter conditions
    whose vanishing would make the components polynomial.
    """
    from .singular import holomorphy_obstructions

    out = []
    for cmap in atlas:
        w = pushforward(v, cmap)
        witnesses = [c.den.text() for c in w.components if not c.is_polynomial()]
        conditions: list[str] = []
        if witnesses:
            try:
                conditions = holomorphy_obstructions(w).texts()
            except ValueError:  # no boundary, or a pole off it
                conditions = []
        out.append(
            {
                "chart": cmap.target.name,
                "polynomial": not witnesses,
                "witnesses": witnesses,
                "obstruction_conditions": conditions,
                "components": [c.text() for c in w.components],
            }
        )
    return out


# -- symmetries -----------------------------------------------------------------------


class SymmetryMap:
    """A birational state map combined with a parameter substitution.

    The map acts as (x; alpha) -> (state(x; alpha); param_map(alpha)). Both
    generators of the five-parameter family are involutions in the twisted
    sense: applying the state map with mapped parameters undoes it, which is
    exactly the inverse the underlying ChartMap needs.
    """

    __slots__ = ("name", "chart", "state", "param_map")

    def __init__(
        self,
        name: str,
        chart: Chart,
        state: Sequence[RationalFn],
        param_map: Mapping[Symbol, RationalFn],
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "state", tuple(state))
        object.__setattr__(self, "param_map", dict(param_map))

    def __setattr__(self, name, value):
        raise AttributeError("SymmetryMap is immutable")

    @property
    def table(self) -> SymbolTable:
        return self.state[0].table

    def map_params(self, rf: RationalFn) -> RationalFn:
        return substitute(rf, self.param_map, rf.table)

    def as_chart_map(self, check: bool = True) -> ChartMap:
        inverse = [self.map_params(c) for c in self.state]
        return ChartMap(self.chart, self.chart, self.state, inverse, check=check)

    def compose(self, inner: "SymmetryMap") -> "SymmetryMap":
        """The map self o inner (apply ``inner`` first)."""
        table = self.table
        bindings: dict[Symbol, RationalFn] = {
            self.chart.vars[k]: inner.state[k] for k in range(3)
        }
        bindings.update(inner.param_map)
        new_state = [substitute(c, bindings, table) for c in self.state]
        new_pmap = {
            p: substitute(expr, inner.param_map, table) for p, expr in self.param_map.items()
        }
        return SymmetryMap(f"{self.name}*{inner.name}", self.chart, new_state, new_pmap)

    def is_identity(self) -> bool:
        table = self.table
        for k, s in enumerate(self.chart.vars):
            if self.state[k] != RationalFn.var(table, s):
                return False
        for p, expr in self.param_map.items():
            if expr != RationalFn.var(table, p):
                return False
        return True


def symmetry_generators() -> dict[str, SymmetryMap]:
    """The two generating symmetries of the five-parameter family."""
    m = model("modified")
    table = m.table
    chart = m.base
    a1, a2, a3, a4, a5 = (RationalFn.var(table, p) for p in table.parameters())
    syms = {p.name: p for p in table.parameters()}
    from .parsing import parse_expr

    x, y, z = (RationalFn.var(table, s) for s in chart.vars)

    pi = SymmetryMap(
        "pi",
        chart,
        (x, -y, z),
        {
            syms["alpha1"]: -a3,
            syms["alpha2"]: a4,
            syms["alpha3"]: -a1,
            syms["alpha4"]: a2,
            syms["alpha5"]: -a5,
        },
    )
    i_rf = RationalFn.const(table, GaussianRational(0, 1))
    sx = x - i_rf * (a2 - a4) / (2 * (y - a5))
    sz = parse_expr(_S_STATE_Z, table)
    s = SymmetryMap(
        "s",
        chart,
        (sx, y, sz),
        {
            syms["alpha1"]: a1,
            syms["alpha2"]: a4,
            syms["alpha3"]: a3,
            syms["alpha4"]: a2,
            syms["alpha5"]: a5,
        },
    )
    return {"pi": pi, "s": s}


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


def verify_group_relations(gens: Mapping[str, SymmetryMap] | None = None) -> dict:
    """Check s^2 = pi^2 = (s*pi)^2 = identity as exact rational-map identities."""
    if gens is None:
        gens = symmetry_generators()
    s, pi = gens["s"], gens["pi"]
    spi = s.compose(pi)
    checks = {
        "s^2": s.compose(s).is_identity(),
        "pi^2": pi.compose(pi).is_identity(),
        "(s*pi)^2": spi.compose(spi).is_identity(),
    }
    return {"relations": checks, "all_hold": all(checks.values())}


def export_model(kind: str) -> str:
    """Serialize a whole built-in model (every chart, map and atlas) to the
    model-file format, so modified copies can be fed back through the CLI."""
    return render_model(model(kind))


# -- cross-family comparison ------------------------------------------------------------


def compare_with_three_wave(delta=0) -> dict:
    """Specialize the five-parameter family at alpha = (0,0,0,0,delta/2) and
    subtract the two-parameter system at (delta, 0), documenting the exact
    difference (the z-equations differ by a linear term). With ``delta=None``
    delta stays symbolic and alpha5 becomes delta/2."""
    three = system_field("three-wave", (None, 0))
    t = three.table
    alpha5 = RationalFn.var(t, "delta") / 2
    # renames alpha5 and carries the state over to three-wave's table
    rename = {param_symbols("modified")[4]: alpha5}
    modified = system_field("modified", (0, 0, 0, 0, None))
    modified = [substitute(c, rename, t) for c in modified.components]
    at = bind_parameters("three-wave", (delta, None))
    alpha5 = alpha5.specialize(at)
    diff = [(a - b).specialize(at) for a, b in zip(modified, three.components)]
    return {
        "alpha_specialization": ["0"] * 4 + [alpha5.text()],
        "difference": [c.text() for c in diff],
        "matches": all(c.is_zero() for c in diff),
    }
