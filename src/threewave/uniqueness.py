"""Classification of quadratic polynomial systems by atlas holomorphy.

A general degree <= 2 ansatz (30 unknown coefficients, 10 monomials per
component) is pushed through every twisted chart of the five-parameter
resolved atlas. Requiring each pushforward to be polynomial makes every
coefficient of a negative boundary power vanish; those coefficients are
linear in the ansatz unknowns with polynomial coefficients in the five
parameters, so the classification reduces to one exact linear solve.

Polynomiality is scale invariant (any constant multiple of a solution is a
solution), so the homogeneous system has a one-dimensional null space and
pinning a single coefficient -- the y^2 coefficient of the first component
to -2, the value the five-parameter family uses -- makes the solution
unique. The solve reports the homogeneous rank/nullity as well, so the
scale-freedom claim is checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ThreeWaveError
from .geometry import Chart, ChartMap, VectorField, pushforward
from .linalg import linear_solve
from .models import model, modified_system
from .poly import MultiPoly
from .ratfunc import RationalFn, substitute
from .singular import negative_power_part
from .symbols import Symbol, SymbolTable, parameter

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
NORMALIZED_MONOMIAL = (0, 2, 0)  # y^2 in the first component
NORMALIZED_VALUE = -2


@dataclass(frozen=True)
class AnsatzContext:
    table: SymbolTable
    chart: Chart
    field: VectorField
    coefficients: tuple[Symbol, ...]  # c1..c30, component-major
    atlas: tuple[ChartMap, ...]  # the three twisted charts


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
    matches_reference: bool
    quadratic_part_nonzero: bool
    coefficient_values: tuple[RationalFn, ...] | None


def ansatz_context() -> AnsatzContext:
    """The 30-coefficient quadratic ansatz over a lean symbol table holding
    only the base chart, the charts of the resolved atlas, the parameters,
    and the coefficient unknowns."""
    m = model("modified")
    atlas = m.atlas("resolved")
    states = [s for cmap in atlas for s in cmap.target.vars]
    coeffs = [parameter(f"c{i}") for i in range(1, 31)]
    table = SymbolTable(tuple(states) + m.table.parameters() + tuple(coeffs))
    chart = m.base
    comps = []
    idx = 0
    for comp in range(3):
        acc = MultiPoly.zero(table)
        for exps in MONOMIAL_EXPONENTS:
            mono = MultiPoly.const(table, 1)
            for s, e in zip(("x", "y", "z"), exps):
                if e:
                    mono = mono * MultiPoly.var(table, s) ** e
            acc = acc + MultiPoly.var(table, coeffs[idx]) * mono
            idx += 1
        comps.append(RationalFn.from_poly(acc))
    field = VectorField(chart, comps)
    twisted = []
    for cmap in atlas[1:]:
        fwd = [f.retable(table) for f in cmap.forward]
        inv = [g.retable(table) for g in cmap.inverse]
        twisted.append(ChartMap(chart, cmap.target, fwd, inv, check=False))
    return AnsatzContext(table, chart, field, tuple(coeffs), tuple(twisted))


def build_constraints() -> ConstraintSystem:
    """Linear conditions in the ansatz coefficients from every twisted chart.

    Each pushforward component is num / boundary^k; every coefficient (in
    the chart variables) of a negative boundary power must vanish. Each such
    coefficient is a linear form in c1..c30, and its row holds the partial
    derivatives in c1..c30, polynomial in the parameters; the identity chart
    contributes nothing.
    """
    context = ansatz_context()
    table = context.table
    linear = {c: 1 for c in context.coefficients}
    rows: list[tuple[MultiPoly, ...]] = []
    origins: list[str] = []
    for cmap in context.atlas:
        w = pushforward(context.field, cmap)
        for ci, comp in enumerate(w.components):
            groups = negative_power_part(comp, cmap.target.boundary).split_by_state_monomial()
            for key, poly in groups.items():
                degrees = poly.split_by_weight(linear)
                if max(degrees) > 1:
                    raise ThreeWaveError("expected a linear form in the ansatz coefficients")
                if 0 in degrees:
                    raise ThreeWaveError("constraint system is not homogeneous in the ansatz")
                rows.append(tuple(poly.derivative(c) for c in context.coefficients))
                origins.append(f"{cmap.target.name}:component{ci + 1}:{_key_text(key, table)}")
    return ConstraintSystem(context, tuple(rows), tuple(origins))


def _key_text(key: tuple[int, ...], table: SymbolTable) -> str:
    parts = [
        f"{table.symbols[i].name}^{e}" if e > 1 else table.symbols[i].name
        for i, e in enumerate(key)
        if e
    ]
    return "*".join(parts) if parts else "1"


def solve_ansatz(constraints: ConstraintSystem) -> UniquenessReport:
    """Solve the holomorphy constraints and compare with the five-parameter
    family.

    One homogeneous solve gives the solution space (nullity 1 = the family up
    to time rescaling). The scale normalization x[k] = NORMALIZED_VALUE meets
    it when some null vector n has n[k] != 0, leaving nullity - 1 directions;
    for nullity 1 it pins n * NORMALIZED_VALUE / n[k], which is compared
    with the reference system coefficient by coefficient.
    """
    ctx = constraints.context
    table = ctx.table
    hom = linear_solve(constraints.rows)

    # the normalized coefficient lives in component 1 (offset 0)
    k = MONOMIAL_EXPONENTS.index(NORMALIZED_MONOMIAL)
    consistent = any(not n[k].is_zero() for n in hom.nullspace)
    nullity = hom.nullity - 1 if consistent else 0

    recovered = None
    matches = False
    quad_ok = False
    values = None
    if consistent and not nullity:
        (n,) = hom.nullspace
        scale = RationalFn.const(table, NORMALIZED_VALUE) / n[k]
        values = tuple(c * scale for c in n)
        bindings = dict(zip(ctx.coefficients, values))
        recovered = VectorField(ctx.chart, [substitute(c, bindings) for c in ctx.field.components])
        matches = _matches_reference(recovered, table)
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
        matches_reference=matches,
        quadratic_part_nonzero=quad_ok,
        coefficient_values=values,
    )


def _matches_reference(recovered: VectorField, table: SymbolTable) -> bool:
    reference = modified_system()
    ref_comps = [c.retable(table) for c in reference.components]
    return all(r == c for r, c in zip(ref_comps, recovered.components))


def reference_coefficients(table: SymbolTable) -> tuple[RationalFn, ...]:
    """The 30 coefficient values of the five-parameter family itself."""
    reference = modified_system()
    out = []
    state_slots = [table.index(n) for n in ("x", "y", "z")]
    for comp in reference.components:
        poly = comp.retable(table).as_poly()
        groups = poly.split_by_state_monomial()
        lookup = {}
        for key, val in groups.items():
            exps = tuple(key[s] for s in state_slots)
            lookup[exps] = val
        for exps in MONOMIAL_EXPONENTS:
            val = lookup.get(exps)
            out.append(RationalFn.from_poly(val) if val is not None else RationalFn.const(table, 0))
    return tuple(out)
