"""Classification of quadratic polynomial systems by atlas holomorphy.

A general degree <= 2 ansatz (30 unknown coefficients, 10 monomials per
component) in a model's base-chart variables is pushed through every twisted
chart of the model's resolved atlas. Requiring each pushforward to be
polynomial makes every coefficient of a negative boundary power vanish; those
coefficients are linear in the ansatz unknowns with polynomial coefficients
in the model's parameters, so the classification reduces to one exact linear
solve.

Polynomiality is scale invariant (any constant multiple of a solution is a
solution), so a one-dimensional null space is the best possible answer (the
five-parameter family has one). Pinning a single coefficient -- the first
one, in the ansatz order, in which the model's own field is nonzero, to its
value there -- then makes the solution unique, and it is compared with the
model's field. The solve reports the homogeneous rank/nullity as well, so the
scale-freedom claim is checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AnalysisFailed, ThreeWaveError
from .gaussian import ONE
from .geometry import Chart, ChartMap, VectorField, pushforward
from .linalg import linear_solve
from .models import model, system_field
from .poly import MultiPoly
from .ratfunc import RationalFn, substitute
from .singular import negative_power_part
from .symbols import Symbol, SymbolTable, names_apart, parameter

# monomial basis per component: 1, x, y, z, x^2, xy, xz, y^2, yz, z^2
MONOMIAL_EXPONENTS = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (2, 0, 0),
    (1, 1, 0),
    (1, 0, 1),
    (0, 2, 0),
    (0, 1, 1),
    (0, 0, 2),
)


@dataclass(frozen=True)
class AnsatzContext:
    table: SymbolTable
    chart: Chart
    field: VectorField
    coefficients: tuple[Symbol, ...]  # c1..c30, component-major
    atlas: tuple[ChartMap, ...]  # the twisted charts
    reference: VectorField  # the model's own field


@dataclass(frozen=True)
class ConstraintSystem:
    context: AnsatzContext
    rows: tuple[tuple[MultiPoly, ...], ...]
    row_origins: tuple[str, ...]  # chart/component/monomial labels


@dataclass(frozen=True)
class UniquenessReport:
    constraints: int
    homogeneous_rank: int
    homogeneous_nullity: int
    normalized_consistent: bool  # whether the normalization meets the solutions
    normalized_nullity: int  # free directions left after normalizing
    recovered: VectorField | None
    difference: tuple[RationalFn, ...] | None  # recovered minus the model's field
    quadratic_part_nonzero: bool
    coefficient_values: tuple[RationalFn, ...] | None

    @property
    def matches_reference(self) -> bool:
        return self.difference is not None and all(d.is_zero() for d in self.difference)


def ansatz_context(system="modified") -> AnsatzContext:
    """The 30-coefficient quadratic ansatz over a lean symbol table holding
    only the charts of the model's resolved atlas (base chart first), its
    parameters, and the coefficient unknowns, named apart from the model's
    symbols."""
    m = model(system)
    atlas = m.atlas("resolved")
    for cmap in atlas[1:]:
        if cmap.target.boundary is None:
            raise AnalysisFailed(f"chart {cmap.target.name} of the resolved atlas has no boundary")
    states = [s for cmap in atlas for s in cmap.target.vars]
    names = names_apart(m.table, lambda pad: [f"c{pad}{i}" for i in range(1, 31)])
    coeffs = [parameter(n) for n in names]
    table = SymbolTable(tuple(states) + m.table.parameters() + tuple(coeffs))
    chart = m.base
    x, y, z = (MultiPoly.var(table, s) for s in chart.vars)
    monomials = [x**a * y**b * z**c for a, b, c in MONOMIAL_EXPONENTS]
    comps = []
    for k in range(3):
        acc = MultiPoly.zero(table)
        for c, mono in zip(coeffs[10 * k :], monomials):
            acc = acc + MultiPoly.var(table, c) * mono
        comps.append(RationalFn.from_poly(acc))
    twisted = tuple(
        ChartMap(chart, cm.target, [f.retable(table) for f in cm.forward],
                 [g.retable(table) for g in cm.inverse], check=False)
        for cm in atlas[1:]
    )
    reference = system_field(m).retable(table)
    return AnsatzContext(table, chart, VectorField(chart, comps), tuple(coeffs), twisted, reference)


def build_constraints(system="modified") -> ConstraintSystem:
    """Linear conditions in the ansatz coefficients from every twisted chart.

    Each pushforward component is num / boundary^k; every coefficient (in
    the chart variables) of a negative boundary power must vanish. Each such
    coefficient is a linear form in c1..c30, and its row holds the partial
    derivatives in c1..c30, polynomial in the parameters; the identity chart
    contributes nothing.
    """
    context = ansatz_context(system)
    table = context.table
    linear = {c: 1 for c in context.coefficients}
    rows: list[tuple[MultiPoly, ...]] = []
    origins: list[str] = []
    for cmap in context.atlas:
        w = pushforward(context.field, cmap)
        for ci, comp in enumerate(w.components):
            try:
                part = negative_power_part(comp, cmap.target.boundary)
            except ValueError as exc:
                raise AnalysisFailed(f"chart {cmap.target.name}: {exc}") from None
            groups = part.split_by_state_monomial()
            for key, poly in groups.items():
                degrees = poly.split_by_weight(linear)
                if max(degrees) > 1:
                    raise ThreeWaveError("expected a linear form in the ansatz coefficients")
                if 0 in degrees:
                    raise ThreeWaveError("constraint system is not homogeneous in the ansatz")
                rows.append(tuple(poly.derivative(c) for c in context.coefficients))
                monomial = MultiPoly(table, {key: ONE}).text()
                origins.append(f"{cmap.target.name}:component{ci + 1}:{monomial}")
    if not rows:
        raise AnalysisFailed("no chart of the resolved atlas constrains the ansatz")
    return ConstraintSystem(context, tuple(rows), tuple(origins))


def solve_ansatz(constraints: ConstraintSystem) -> UniquenessReport:
    """Solve the holomorphy constraints and compare with the model's field.

    One homogeneous solve gives the solution space (nullity 1 = one field up
    to time rescaling). The normalization x[k] = r[k], at the first index k
    where the model's coefficients r are nonzero, meets it when some null
    vector n has n[k] != 0, leaving nullity - 1 directions; for nullity 1 it
    pins n * r[k] / n[k], which is compared with the model's field.
    """
    ctx = constraints.context
    hom = linear_solve(constraints.rows)
    reference = reference_coefficients(ctx)
    k = next((j for j, r in enumerate(reference) if not r.is_zero()), None)
    consistent = k is not None and any(not n[k].is_zero() for n in hom.nullspace)
    nullity = hom.nullity - 1 if consistent else 0

    recovered = difference = values = None
    quad_ok = False
    if consistent and not nullity:
        (n,) = hom.nullspace
        scale = reference[k] / n[k]
        values = tuple(c * scale for c in n)
        bindings = dict(zip(ctx.coefficients, values))
        recovered = VectorField(ctx.chart, [substitute(c, bindings) for c in ctx.field.components])
        difference = tuple(a - b for a, b in zip(recovered.components, ctx.reference.components))
        # the values depend on the parameters only, so a quadratic state term
        # survives in a numerator exactly when its coefficient is nonzero
        quad_ok = any(c.num.state_degree() == 2 for c in recovered.components)
    return UniquenessReport(
        constraints=len(constraints.rows),
        homogeneous_rank=hom.rank,
        homogeneous_nullity=hom.nullity,
        normalized_consistent=consistent,
        normalized_nullity=nullity,
        recovered=recovered,
        difference=difference,
        quadratic_part_nonzero=quad_ok,
        coefficient_values=values,
    )


def reference_coefficients(context: AnsatzContext) -> tuple[RationalFn, ...]:
    """The 30 coefficient values of the model's own field, in the ansatz
    order (terms of degree above 2 have no slot)."""
    table = context.table
    slots = [table.index(s) for s in context.chart.vars]
    zero = RationalFn.const(table, 0)
    out = []
    for comp in context.reference.components:
        if comp.den.state_degree() > 0:
            raise AnalysisFailed("the model's field is not polynomial in the state variables")
        lookup = {
            tuple(key[s] for s in slots): val
            for key, val in comp.num.split_by_state_monomial().items()
        }
        for exps in MONOMIAL_EXPONENTS:
            val = lookup.get(exps)
            out.append(RationalFn(val, comp.den) if val is not None else zero)
    return tuple(out)
