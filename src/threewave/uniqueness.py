"""Classification of quadratic polynomial systems by atlas holomorphy.

A general degree <= 2 ansatz (30 unknown coefficients, 10 monomials per
component) in a model's base-chart variables must stay polynomial on every
twisted chart of the model's resolved atlas: every coefficient of a negative
boundary power in its pushforward must vanish. The pushforward is linear in
the field, so those coefficients are read off the images of the 30 single
terms m_j * e_k, each the product of a Jacobian entry of the chart map and a
monomial, both composed with the inverse map once. They are linear in the
ansatz unknowns with polynomial coefficients in the model's parameters, so
the ansatz is never written down: the rows are built over the model's own
symbol table from its own verified chart maps, and the classification
reduces to one exact linear solve. Both are kept on the parsed model
(``models.per_model``), so each is made once per model.

Polynomiality is scale invariant (any constant multiple of a solution is a
solution), so a one-dimensional null space is the best possible answer (the
five-parameter family has one). Pinning a single coefficient -- the first
one, in the ansatz order, in which the model's own field is nonzero, to its
value there -- then makes the solution unique; the field it gives, the sum
of value * m_j in each component, is compared with the model's field. The
solve reports the homogeneous rank/nullity as well, so the scale-freedom
claim is checked, not assumed.
"""

from __future__ import annotations

from .errors import AnalysisFailed
from .gaussian import ONE
from .geometry import VectorField, jacobian_matrix
from .linalg import linear_solve
from .models import per_model, system_field
from .parsing import ModelFile
from .poly import MultiPoly
from .ratfunc import RationalFn, pole_coefficients, substitute
from .records import Record

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


class ConstraintSystem(Record):
    __slots__ = (
        "model",  # ModelFile
        "rows",  # tuples of MultiPoly over the model's table, 30 columns
        "row_origins",  # chart/component/monomial labels
    )


class UniquenessReport(Record):
    __slots__ = (
        "constraints",  # int
        "homogeneous_rank",  # int
        "homogeneous_nullity",  # int
        "normalized_consistent",  # whether the normalization meets the solutions
        "normalized_nullity",  # free directions left after normalizing
        "recovered",  # VectorField or None
        "difference",  # recovered minus the model's field (RationalFns), or None
        "quadratic_part_nonzero",  # bool
        "coefficient_values",  # RationalFns or None
    )

    @property
    def matches_reference(self) -> bool:
        return self.difference is not None and all(d.is_zero() for d in self.difference)


def _monomials(m: ModelFile) -> list[RationalFn]:
    """The monomials m_j of the base-chart variables, in MONOMIAL_EXPONENTS order."""
    x, y, z = (MultiPoly.var(m.table, s) for s in m.base.vars)
    return [RationalFn.from_poly(x**a * y**b * z**c) for a, b, c in MONOMIAL_EXPONENTS]


@per_model
def build_constraints(m: ModelFile) -> ConstraintSystem:
    """Linear conditions in the ansatz coefficients from every twisted chart,
    built once per parsed model and kept on it (a model file loaded again
    gets fresh rows).

    The pushforward is linear in the field, so column (k, j) of component i
    on the chart of phi is the pushforward of the single term m_j * e_k:
    (d phi_i / d x_k o phi^-1) * (m_j o phi^-1), with each Jacobian entry and
    monomial composed with phi^-1 once. Over the component's common
    denominator boundary^K, the numerator terms of the columns' Laurent tails
    carry the pole; the row of a state monomial mu holds each column's
    coefficient of mu, polynomial in the parameters. Rows come chart by
    chart, component by component, and by ascending exponent vector of mu
    in the model table's symbol order; the identity chart contributes nothing.
    """
    twisted = m.atlas("resolved")[1:]
    for cmap in twisted:
        if cmap.target.boundary is None:
            raise AnalysisFailed(f"chart {cmap.target.name} of the resolved atlas has no boundary")
    table = m.table
    monomials = _monomials(m)
    zero = MultiPoly.zero(table)
    width = 3 * len(monomials)
    rows: list[tuple[MultiPoly, ...]] = []
    origins: list[str] = []
    for cmap in twisted:
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
                groups = pole_coefficients(columns, cmap.target.boundary)
            except ValueError as exc:
                raise AnalysisFailed(f"chart {cmap.target.name}: {exc}") from None
            for key in sorted(groups):
                entries = groups[key]
                rows.append(tuple(entries.get(col, zero) for col in range(width)))
                monomial = MultiPoly(table, {key: ONE}).text()
                origins.append(f"{cmap.target.name}:component{ci + 1}:{monomial}")
    if not rows:
        raise AnalysisFailed("no chart of the resolved atlas constrains the ansatz")
    return ConstraintSystem(m, tuple(rows), tuple(origins))


@per_model
def classify(m: ModelFile) -> UniquenessReport:
    """``solve_ansatz(build_constraints(m))``, solved once per parsed model
    and kept on it, like its rows."""
    return solve_ansatz(build_constraints(m))


def solve_ansatz(constraints: ConstraintSystem) -> UniquenessReport:
    """Solve the holomorphy constraints and compare with the model's field.

    One homogeneous solve gives the solution space (nullity 1 = one field up
    to time rescaling). The normalization x[k] = r[k], at the first index k
    where the model's coefficients r are nonzero, meets it when some null
    vector n has n[k] != 0, leaving nullity - 1 directions; for nullity 1 it
    pins n * r[k] / n[k]; the field sum_j values[10i + j] * m_j in component
    i is compared with the model's field.
    """
    m = constraints.model
    hom = linear_solve(constraints.rows)
    reference = reference_coefficients(m)
    k = next((j for j, r in enumerate(reference) if not r.is_zero()), None)
    consistent = k is not None and any(not n[k].is_zero() for n in hom.nullspace)
    nullity = hom.nullity - 1 if consistent else 0

    recovered = difference = values = None
    quad_ok = False
    if consistent and not nullity:
        (n,) = hom.nullspace
        scale = reference[k] / n[k]
        values = tuple(c * scale for c in n)
        monomials = _monomials(m)
        size = len(monomials)
        zero = RationalFn.const(m.table, 0)
        recovered = VectorField(m.base, [
            sum((c * mono for c, mono in zip(values[size * i : size * (i + 1)], monomials)), zero)
            for i in range(3)
        ])
        difference = tuple(a - b for a, b in zip(recovered.components, system_field(m).components))
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


def reference_coefficients(m: ModelFile) -> tuple[RationalFn, ...]:
    """The 30 coefficient values of the model's own field, in the ansatz
    order (terms of degree above 2 have no slot)."""
    table = m.table
    slots = [table.index(s) for s in m.base.vars]
    zero = RationalFn.const(table, 0)
    out = []
    for comp in system_field(m).components:
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
