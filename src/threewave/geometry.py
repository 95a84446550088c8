"""Charts, vector fields, birational chart maps, and their calculus.

A chart is a named copy of C^3 with three state symbols; all charts of one
analysis session live in a single shared symbol table together with the
parameters. A :class:`ChartMap` carries both directions of a birational map
and *proves itself* at construction by composing them symbolically -- a map
that is not exactly invertible is rejected at load time, not at use time.
The composites' denominators are kept as a certificate, which decides the
map at parameter values without composing again.

A :class:`SymmetryMap` pairs a state map of one chart with an action on the
parameters; it proves itself only when asked, through :meth:`as_chart_map`.

The pushforward of a vector field transforms the components with the chain
rule and re-expresses them in the target coordinates; results stay reduced
rational functions even when they happen to be polynomial (polynomiality is
a separate, cheap query).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DenominatorVanishes, PoleTooHigh, VerificationFailed
from .gaussian import GaussianRational
from .poly import MultiPoly
from .ratfunc import RationalFn, clear_denominators, images, specialize_all, substitute
from .records import Record
from .symbols import Symbol, SymbolTable


class Chart(Record):
    """A named coordinate patch with its three state symbols.

    ``boundary`` marks the local equation of the divisor at infinity (or of
    the exceptional divisor for blow-up charts), when there is one.
    """

    __slots__ = ("name", "vars", "boundary")  # str, three Symbols, Symbol or None

    def __init__(self, name: str, vars: tuple[Symbol, Symbol, Symbol],
                 boundary: Symbol | None = None):
        if len(vars) != 3:
            raise ValueError("charts are three-dimensional")
        if boundary is not None and boundary not in vars:
            raise ValueError("boundary symbol must be one of the chart variables")
        Record.__init__(self, name, vars, boundary)

    def var_index(self, sym: Symbol) -> int:
        return self.vars.index(sym)


class VectorField:
    """An autonomous rational vector field attached to a chart."""

    __slots__ = ("chart", "components", "__weakref__")

    def __init__(self, chart: Chart, components: Sequence[RationalFn]):
        comps = tuple(components)
        if len(comps) != 3:
            raise ValueError("vector fields are three-dimensional")
        table = comps[0].table
        for c in comps:
            if c.table != table:
                raise ValueError("vector-field components must share one symbol table")
        for s in chart.vars:
            if s not in table:
                raise ValueError(f"chart variable {s.name!r} missing from component table")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    @property
    def table(self) -> SymbolTable:
        return self.components[0].table

    def is_polynomial(self) -> bool:
        return all(c.is_polynomial() for c in self.components)

    def specialize(self, bindings: Mapping[Symbol, GaussianRational]) -> "VectorField":
        """The field at exact parameter values, its components specialized in
        one batch (itself when nothing bound occurs)."""
        comps = specialize_all(self.components, bindings)
        if _same(comps, self.components):
            return self
        return VectorField(self.chart, comps)

    def retable(self, new_table: SymbolTable) -> "VectorField":
        return VectorField(self.chart, [c.retable(new_table) for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __hash__(self):
        return hash((self.chart, self.components))

    def __repr__(self):
        comps = ", ".join(c.text() for c in self.components)
        return f"VectorField[{self.chart.name}]({comps})"


class ChartMap:
    """A birational map between charts, verified invertible at construction.

    ``certificate`` holds the six composite denominators D of that
    verification, as polynomial functions (each composite component is x*D
    over D): a specialization that leaves every D nonzero is invertible
    without composing again. ``pushed`` keeps the fields pushed through the
    map (``models.pushed_field``), so they are freed with it.
    """

    __slots__ = ("source", "target", "forward", "inverse", "certificate", "pushed")

    def __init__(
        self,
        source: Chart,
        target: Chart,
        forward: Sequence[RationalFn],
        inverse: Sequence[RationalFn],
    ):
        fwd, inv = tuple(forward), tuple(inverse)
        if len(fwd) != 3 or len(inv) != 3:
            raise ValueError("chart maps are triples")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "pushed", {})
        self._verify()

    def __setattr__(self, name, value):
        raise AttributeError("ChartMap is immutable")

    @property
    def table(self) -> SymbolTable:
        return self.forward[0].table

    def specialize(self, bindings: Mapping[Symbol, GaussianRational]) -> "ChartMap":
        """The map at exact parameter values, both directions and the
        certificate specialized in one batch: itself when nothing bound
        occurs. The composites' identity num = x*D is polynomial, so it holds
        at the values too; where no D vanishes there each composite is x, and
        where one does the map is singular at the values (a composition there
        would refuse it), which raises DenominatorVanishes."""
        fns = self.forward + self.inverse
        try:
            out = specialize_all(fns + self.certificate, bindings)
        except DenominatorVanishes as exc:
            direction, k = ("forward", "inverse")[exc.position // 3], exc.position % 3
            raise DenominatorVanishes(
                f"chart map {self.source.name}->{self.target.name}: {direction} "
                f"component {k + 1} ({fns[exc.position].text()}): {exc}"
            ) from None
        if _same(out[:6], fns):
            return self
        certificate = tuple(out[6:])
        for k, d in enumerate(certificate):
            if d.is_zero():
                name, _, outer, _, outer_vars = self._composites()[k // 3]
                outer_name, inner_name = name.split(" o ")
                raise DenominatorVanishes(
                    f"chart map {self.source.name}->{self.target.name}: {name} for "
                    f"{outer_vars[k % 3].name}: the denominator of {outer_name} component "
                    f"{k % 3 + 1} ({outer[k % 3].text()}) vanishes on the image of the "
                    f"{inner_name} map at the given values"
                )
        cmap = object.__new__(ChartMap)
        values = (self.source, self.target, tuple(out[:3]), tuple(out[3:6]), certificate, {})
        for slot, value in zip(ChartMap.__slots__, values):
            object.__setattr__(cmap, slot, value)
        return cmap

    def _verify(self):
        """Each composite is the identity: every component composed with the
        other direction is a fraction num/den of its variable x, num == x*den.
        The three components of a direction are composed in one batch, which
        puts each fraction over the same nonzero factor more and so decides
        the same. The six den are kept as the map's certificate."""
        table = self.table
        dens = []
        for name, inner, outer, inner_vars, outer_vars in self._composites():
            parts = images([p for f in outer for p in (f.num, f.den)],
                           dict(zip(inner_vars, inner)), table)
            for k, var in enumerate(outer_vars):
                num, den = parts[2 * k], parts[2 * k + 1]
                if den.is_zero():
                    raise DenominatorVanishes("denominator identically zero after composition")
                if num != den.shift_var(var, 1):
                    raise ValueError(
                        f"chart map {self.source.name}->{self.target.name} is not invertible: "
                        f"{name} gives {RationalFn(num, den).text()} for {var.name}"
                    )
                dens.append(RationalFn.from_poly(den))
        object.__setattr__(self, "certificate", tuple(dens))

    def _composites(self):
        """(name, inner, outer, inner variables, outer variables) of the two
        composites, in the order of the certificate."""
        return (
            ("inverse o forward", self.forward, self.inverse, self.target.vars, self.source.vars),
            ("forward o inverse", self.inverse, self.forward, self.source.vars, self.target.vars),
        )

    def __repr__(self):
        return f"ChartMap({self.source.name} -> {self.target.name})"


def _same(new: Sequence, old: Sequence) -> bool:
    """Whether a batch came back as the very objects it was made of."""
    return all(a is b for a, b in zip(new, old))


class SymmetryMap(Record):
    """A birational state map of one chart combined with an action on the
    parameters: (x; alpha) -> (state(x; alpha); param_map(alpha)).

    ``param_map`` names every parameter of the table. A symmetry is a
    twisted involution: the state map with mapped parameters undoes it,
    which is the inverse :meth:`as_chart_map` verifies.
    """

    # str, Chart, three RationalFns, Mapping[Symbol, RationalFn]
    __slots__ = ("name", "chart", "state", "param_map")

    @property
    def table(self) -> SymbolTable:
        return self.state[0].table

    def map_params(self, rf: RationalFn) -> RationalFn:
        return substitute(rf, self.param_map, rf.table)

    def as_chart_map(self) -> ChartMap:
        """The state map with its twisted inverse, verified; a map that is not
        a twisted involution is a failed verification."""
        inverse = [self.map_params(c) for c in self.state]
        try:
            return ChartMap(self.chart, self.chart, self.state, inverse)
        except ValueError as exc:
            raise VerificationFailed(f"symmetry {self.name}: {exc}") from None

    def compose(self, inner: "SymmetryMap") -> "SymmetryMap":
        """The map self o inner (apply ``inner`` first)."""
        table = self.table
        bindings = {**dict(zip(self.chart.vars, inner.state)), **inner.param_map}
        state = tuple(substitute(c, bindings, table) for c in self.state)
        pmap = {p: substitute(e, inner.param_map, table) for p, e in self.param_map.items()}
        return SymmetryMap(f"{self.name}*{inner.name}", self.chart, state, pmap)

    def is_identity(self) -> bool:
        pairs = [*zip(self.chart.vars, self.state), *self.param_map.items()]
        return all(f == RationalFn.var(self.table, s) for s, f in pairs)


def identity_map(chart: Chart, table: SymbolTable) -> ChartMap:
    comps = [RationalFn.var(table, s) for s in chart.vars]
    return ChartMap(chart, chart, comps, comps)


def jacobian_matrix(cmap: ChartMap) -> list[list[RationalFn]]:
    """Partial derivatives d(forward_k)/d(source_j) as reduced fractions."""
    return [[f.derivative(s) for s in cmap.source.vars] for f in cmap.forward]


def det3(m: Sequence[Sequence[RationalFn]]) -> RationalFn:
    """Determinant of a 3x3 matrix by cofactor expansion along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def jacobian_determinant(cmap: ChartMap) -> RationalFn:
    return det3(jacobian_matrix(cmap))


def pushforward(v: VectorField, cmap: ChartMap) -> VectorField:
    """Transform ``v`` by ``cmap``: chain rule, then rewrite in target coords.

    With the field over one common denominator, v = a/c, and forward_k = n/d,
    component k is the single fraction (L(n)*d - n*L(d)) / (c*d^2), where
    L(p) = sum_j dp/dx_j * a_j is polynomial arithmetic. That fraction is
    reduced once and composed with the inverse map, which reduces once more.
    """
    if v.chart != cmap.source:
        raise ValueError(f"field lives on {v.chart.name}, map starts at {cmap.source.name}")
    table = v.table
    c, a = clear_denominators(v.components, table)
    src = cmap.source.vars

    def lie(p: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(table)
        for j in range(3):
            if not a[j].is_zero():
                dp = p.derivative(src[j])
                if not dp.is_zero():
                    out = out + dp * a[j]
        return out

    inv_binding = {src[j]: cmap.inverse[j] for j in range(3)}
    out = []
    for fk in cmap.forward:
        n, d = fk.num, fk.den
        chain = RationalFn(lie(n) * d - n * lie(d), c * d * d)
        out.append(substitute(chain, inv_binding, table))
    return VectorField(cmap.target, out)


class LogPoleForm(Record):
    """Certificate that a field has at worst a simple log pole on its chart's
    boundary divisor: the boundary component is polynomial and every
    transverse component times the boundary variable is polynomial.

    ``boundary_part`` is the MultiPoly g of the boundary variable itself,
    ``transverse`` the (variable, g) pairs of the others."""

    __slots__ = ("boundary_part", "transverse")


def log_pole_decomposition(v: VectorField) -> LogPoleForm:
    """Split ``v`` as d(x1)/dt = g1, d(xk)/dt = gk/x1 with polynomial g's,
    where x1 is the boundary variable of ``v.chart``.

    A transverse component num/x1^d has its pole order d read off its
    Laurent tail (:meth:`RationalFn.laurent`), and gk = num * x1^(1 - d).
    Raises :class:`~threewave.errors.PoleTooHigh`, with the component's
    denominator as witness, when a component has a pole of order >= 2 along
    the boundary or any pole along a different divisor, and ValueError when
    the chart has no boundary variable.
    """
    boundary = v.chart.boundary
    if boundary is None:
        raise ValueError(f"chart {v.chart.name} has no boundary variable")
    bpart = None
    transverse = []
    for sym, comp in zip(v.chart.vars, v.components):
        if sym == boundary:
            if not comp.is_polynomial():
                raise PoleTooHigh(
                    f"boundary component d{sym.name}/dt is not polynomial",
                    component=sym.name,
                    witness=comp.den,
                )
            bpart = comp.as_poly()
            continue
        try:
            order = max(0, -min(comp.laurent(boundary), default=0))
        except ValueError:  # a pole along another divisor
            order = None
        if order is None or order > 1:
            raise PoleTooHigh(
                f"component d{sym.name}/dt has a pole beyond 1/{boundary.name}",
                component=sym.name,
                witness=comp.den,
            )
        transverse.append((sym, comp.num.shift_var(boundary, 1 - order)))
    return LogPoleForm(boundary_part=bpart, transverse=tuple(transverse))


def power_scaled_chart(
    source: Chart,
    table: SymbolTable,
    name: str,
    new_vars: tuple[Symbol, Symbol, Symbol],
    exponents: tuple[int, int, int],
) -> ChartMap:
    """Chart adapted to pole orders (m, n, p): (1/x, y/x^n, z/x^p).

    The first new coordinate is the reciprocal of the first source variable
    regardless of m; the others are scaled by its powers. The first new
    variable is the boundary of the target chart.
    """
    x = RationalFn.var(table, source.vars[0])
    y = RationalFn.var(table, source.vars[1])
    z = RationalFn.var(table, source.vars[2])
    _, n, p = exponents
    fwd = [1 / x, y / x**n, z / x**p]
    nx = RationalFn.var(table, new_vars[0])
    ny = RationalFn.var(table, new_vars[1])
    nz = RationalFn.var(table, new_vars[2])
    inv = [1 / nx, ny / nx**n, nz / nx**p]
    target = Chart(name, new_vars, boundary=new_vars[0])
    return ChartMap(source, target, fwd, inv)
