"""Classification of quadratic polynomial systems by atlas holomorphy.

A general degree <= 2 ansatz (30 unknown coefficients, 10 monomials per
component) in a model's base-chart variables must stay polynomial on every
twisted chart of the model's resolved atlas: every coefficient of a negative
boundary power in its pushforward must vanish. The pushforward is linear in
the field, so those coefficients are read off the images of the 30 single
terms m_j * e_k, each the product of a Jacobian entry of the chart map and a
monomial, both composed with the inverse map once. They are linear in the
ansatz unknowns with polynomial coefficients in the model's parameters and
depend on the model alone, so the rows are built once per model and the
classification reduces to one exact linear solve.

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
from functools import lru_cache

from .errors import AnalysisFailed
from .gaussian import ONE
from .geometry import Chart, ChartMap, VectorField, jacobian_matrix
from .linalg import linear_solve
from .models import model, system_field
from .parsing import ModelFile
from .poly import MultiPoly
from .ratfunc import RationalFn, substitute
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
    size = len(MONOMIAL_EXPONENTS)
    names = names_apart(m.table, lambda pad: [f"c{pad}{i}" for i in range(1, 3 * size + 1)])
    coeffs = [parameter(n) for n in names]
    table = SymbolTable(tuple(states) + m.table.parameters() + tuple(coeffs))
    chart = m.base
    x, y, z = (MultiPoly.var(table, s) for s in chart.vars)
    monomials = [x**a * y**b * z**c for a, b, c in MONOMIAL_EXPONENTS]
    comps = []
    for k in range(3):
        acc = MultiPoly.zero(table)
        for c, mono in zip(coeffs[size * k : size * (k + 1)], monomials):
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
    """Linear conditions in the ansatz coefficients from every twisted chart,
    built once per model (memoized on the parsed model's identity, so a model
    file loaded again gets fresh rows).

    The pushforward is linear in the field, so column (k, j) of component i
    on the chart of phi is the pushforward of the single term m_j * e_k:
    (d phi_i / d x_k o phi^-1) * (m_j o phi^-1), with each Jacobian entry and
    monomial composed with phi^-1 once. Over the component's common
    denominator boundary^K, the numerator terms of the columns' Laurent tails
    carry the pole; the row of a state monomial mu holds each column's
    coefficient of mu, polynomial in the parameters. Rows come chart by
    chart, component by component, and by ascending exponent vector of mu
    in the table's symbol order; the identity chart contributes nothing.
    """
    return _constraints(model(system))


@lru_cache(maxsize=16)  # keyed by identity: each load of a model file is a new key
def _constraints(m: ModelFile) -> ConstraintSystem:
    context = ansatz_context(m)
    table = context.table
    x, y, z = (RationalFn.var(table, s) for s in context.chart.vars)
    monomials = [x**a * y**b * z**c for a, b, c in MONOMIAL_EXPONENTS]
    zero = MultiPoly.zero(table)
    width = len(context.coefficients)
    rows: list[tuple[MultiPoly, ...]] = []
    origins: list[str] = []
    for cmap in context.atlas:
        inverse = dict(zip(cmap.source.vars, cmap.inverse))
        jacobian = [[substitute(d, inverse, table) for d in row] for row in jacobian_matrix(cmap)]
        images = [substitute(mono, inverse, table) for mono in monomials]
        for ci, jac_row in enumerate(jacobian):
            # column n*k + j is the image of the single term m_j * e_k
            columns = {
                len(images) * k + j: d * image
                for k, d in enumerate(jac_row) if not d.is_zero()
                for j, image in enumerate(images)
            }
            try:
                groups = _pole_coefficients(columns, cmap.target.boundary)
            except ValueError as exc:
                raise AnalysisFailed(f"chart {cmap.target.name}: {exc}") from None
            for key in sorted(groups):
                entries = groups[key]
                rows.append(tuple(entries.get(col, zero) for col in range(width)))
                monomial = MultiPoly(table, {key: ONE}).text()
                origins.append(f"{cmap.target.name}:component{ci + 1}:{monomial}")
    if not rows:
        raise AnalysisFailed("no chart of the resolved atlas constrains the ansatz")
    return ConstraintSystem(context, tuple(rows), tuple(origins))


def _pole_coefficients(
    columns: dict[int, RationalFn], boundary: Symbol
) -> dict[tuple[int, ...], dict[int, MultiPoly]]:
    """The pole part of sum_col c_col * columns[col], from each column's
    Laurent tail (a denominator that is not a power of ``boundary`` raises
    ValueError): for each state monomial mu of its numerator over the common
    denominator boundary^K, the coefficient of mu in each column, polynomial
    in the parameters. The tail term c_k * boundary^k sits there times
    boundary^(K + k)."""
    tails = {col: [(k, c) for k, c in f.laurent(boundary).items() if k < 0]
             for col, f in columns.items()}
    order = max((-k for tail in tails.values() for k, _ in tail), default=0)
    groups: dict[tuple[int, ...], dict[int, MultiPoly]] = {}
    for col, tail in tails.items():
        for k, c in tail:
            for key, poly in c.shift_var(boundary, order + k).split_by_state_monomial().items():
                groups.setdefault(key, {})[col] = poly
    return groups


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
