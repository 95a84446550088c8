"""Accessible singularities, local indices, scaling-limit classification,
dominant-balance search, and the blow-up engine.

The sequence implemented here mirrors how a degenerate point on the boundary
divisor gets resolved:

1. :func:`find_accessible` locates the points of the divisor where solutions
   can leave it (the transverse components of the log-pole form vanish);
   they are finitely many exactly when those two components share no factor
   in the divisor's coordinates, which one gcd decides; the points depend
   only on the chart and those two components restricted to the divisor,
   so each distinct restriction is solved and certified once per model.
   A field of the model with every parameter symbolic keeps its restricted
   pair, and a parameter point specializes that pair and solves it
   (:func:`scan_at`) without specializing the field; a model chart is
   scanned by one helper, :func:`chart_scan`,
2. :func:`linear_part` reads each point's linear part off the scan's
   log-pole form, and :func:`index_of_linear_part` its eigenvalue data, which
   classifies the point and predicts how many blow-ups are needed,
3. :func:`painleve_leading_orders` searches dominant balances, solving
   only the pole orders that integer weights leave open and certifying each
   balance once, in the solver, and :func:`weighted_balance` picks from a
   bound-2 search the balance whose pole orders fix the weighted chart
   suited to a multiple point (a model chooses it once, on its field with
   every parameter symbolic, and uses it at every parameter value:
   :func:`weighted_chart`),
4. :func:`blow_up` produces the chart of a point blow-up along one
   direction (the pipeline follows the exceptional direction) with the
   transformed field, and
5. ``geometry.holomorphy_obstructions`` reads off the parameter conditions
   under which the final field is polynomial.

:func:`resolution_pipeline` runs steps 1, 2, 4 and 5 on a model's weighted
chart. Its run with every parameter symbolic, like the model's balance
search (:func:`balance_search`), is kept on the parsed model
(``models.per_point``).

Steps 3 and 5 both end in a small polynomial system: the nonzero leading
coefficients of a balance, and the parameter values on which the
obstructions vanish (:func:`solve_parameter_conditions`). One parametric
solver, :func:`solve_branches`, solves both into :class:`ConditionBranch`es.

All computations are exact; every reported point, and every solver branch
without residual factors, is re-verified by substitution before it is
returned.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

from .errors import (
    AnalysisFailed, DenominatorVanishes, PoleTooHigh, PositiveDimensional, ThreeWaveError,
    UnresolvedSpectrum, VerificationFailed,
)
from .gaussian import GaussianRational
from .geometry import (
    Chart, ChartMap, LogPoleForm, VectorField, det3, holomorphy_obstructions,
    log_pole_decomposition, power_scaled_chart, pushforward,
)
from .models import bind_parameters, chart_field, per_model, per_point, system_field
from .parsing import ModelFile
from .poly import MultiPoly, compose, content_in, poly_gcd, resultant
from .ratfunc import RationalFn, images, specialize_all, substitute, value_at, vanishes
from .records import Record
from .roots import find_roots
from .symbols import Symbol, names_apart, parameter, state


class AccessiblePoint(Record):
    # Chart, three RationalFns in chart-variable order, int
    __slots__ = ("chart", "coords", "multiplicity")
    _defaults = {"multiplicity": 1}

    @property
    def boundary(self) -> Symbol:
        return self.chart.boundary

    def text(self) -> str:
        inner = ", ".join(c.text() for c in self.coords)
        return f"({inner})"


class AccessibleScan(Record):
    """Search result: verified points plus any unresolved residual branches."""

    __slots__ = ("points", "residuals")  # AccessiblePoints, strs


def find_accessible(system, v: VectorField) -> AccessibleScan:
    """All points of the chart's boundary divisor where the transverse
    log-pole parts of ``v``, a field of the model ``system``, vanish.

    The two transverse polynomials restricted to the divisor are solved by
    resultant elimination plus exact root extraction; solutions outside the
    Gaussian-rational parameter field are reported as residual branches.
    Raises :class:`PositiveDimensional` when the two polynomials share a factor
    in the divisor's coordinates, so that the solution set contains a curve.
    The points depend only on the chart and that restricted pair, so each
    distinct pair is solved and certified once per model (:func:`_boundary_points`).
    """
    pair = _restricted_pair(v, log_pole_decomposition(v))
    return AccessibleScan(*_boundary_points(system, v.chart, pair))


def _restricted_pair(v: VectorField, lp: LogPoleForm) -> tuple:
    """The transverse polynomials of ``lp``, the log-pole form of ``v``,
    restricted to the boundary divisor, with their variables:
    ((u, gu), (w, gw))."""
    syms, gs = zip(*lp.transverse)
    on_divisor = compose(gs, {v.table.index(v.chart.boundary): GaussianRational(0)}, v.table)
    return tuple(zip(syms, on_divisor))


@per_model
def _kept_form(m: ModelFile, v: VectorField) -> tuple[LogPoleForm, tuple] | None:
    """The log-pole form of ``v``, a field of the model with every parameter
    symbolic, and its restricted pair (:func:`_restricted_pair`); None where
    the form raises (a pole beyond the log pole, or no boundary), so that a
    point computes both from its specialized field."""
    try:
        lp = log_pole_decomposition(v)
    except (PoleTooHigh, ValueError):
        return None
    return lp, _restricted_pair(v, lp)


def scan_at(m: ModelFile, v: VectorField, bindings) -> AccessibleScan:
    """The accessible points of ``v``, a field of the model with every
    parameter symbolic, at ``bindings``: its kept restricted pair
    (:func:`_kept_form`) specialized in one composition and solved.

    Where the symbolic log-pole form exists, its denominators are powers of
    the boundary variable, of order at most 1, so each transverse polynomial
    num * x^(1 - order) specializes to the one the specialized field gives,
    whatever the numerator's order at the boundary there; and restricting to
    the divisor is one more constant put in. The solve is then that of the
    specialized field (:func:`find_accessible`), which is scanned instead
    where no symbolic form exists."""
    kept = _kept_form(m, v)
    if kept is None:
        return find_accessible(m, v.specialize(bindings))
    pair = kept[1]
    if bindings:
        syms, gs = zip(*pair)
        index = v.table.index
        pair = tuple(zip(syms, compose(gs, {index(s): x for s, x in bindings.items()}, v.table)))
    return AccessibleScan(*_boundary_points(m, v.chart, pair))


@per_point
def chart_scan(m: ModelFile, params, cmap: ChartMap) -> AccessibleScan:
    """The accessible points of the model's field pushed through ``cmap`` at
    ``params``. The push runs once per model and chart with the parameters
    symbolic (``models.chart_field``), and each point specializes and solves
    its kept restricted pair (:func:`scan_at`)."""
    return scan_at(m, chart_field(m, cmap), bind_parameters(m, params))


def chart_form(system, params, cmap: ChartMap) -> tuple[VectorField, LogPoleForm]:
    """The model's field pushed through ``cmap`` at ``params`` and its
    log-pole form, which the linear parts at the points of
    :func:`chart_scan` are read from; with every parameter symbolic, the
    form the scan keeps."""
    v = chart_field(system, cmap, params)
    kept = None if bind_parameters(system, params) else _kept_form(system, v)
    return v, kept[0] if kept else log_pole_decomposition(v)


@per_model
def _boundary_points(m: ModelFile, chart: Chart, gs):
    """The accessible points of ``chart`` on which both polynomials of the
    pair ``gs`` = ((u, gu), (w, gw)) vanish, each re-verified by substitution
    and sorted by text, and the residual branches. A raised failure is not
    kept, so it is raised again on every call."""
    (u_sym, gu), (w_sym, gw) = gs
    solutions, residuals = _solve_boundary_pair(gu, gw, u_sym, w_sym)
    zero = RationalFn.const(gu.table, 0)
    points = []
    for sol, mult in solutions:
        coords = tuple(zero if s == chart.boundary else sol[s] for s in chart.vars)
        point = AccessiblePoint(chart, coords, mult)
        if not vanishes((gu, gw), dict(zip(chart.vars, coords)), gu.table):
            raise VerificationFailed(f"candidate point {point.text()} failed exact re-verification")
        points.append(point)
    points.sort(key=lambda p: p.text())
    return tuple(points), residuals


def _solve_boundary_pair(gu: MultiPoly, gw: MultiPoly, u: Symbol, w: Symbol):
    """Common zeros of two polynomials in (u, w) over the parameter field.

    Two polynomials without a common factor in (u, w) meet in finitely many
    points, so one gcd decides finiteness; after it the eliminant in ``w``
    is nonzero and no ``w``-root makes both components vanish.
    """
    g = poly_gcd(gu, gw)
    if g.is_zero() or g.degree(u) > 0 or g.degree(w) > 0:
        raise PositiveDimensional(f"common factor {g.text()} cuts a curve")
    if gu.is_zero() or gw.is_zero():
        return [], ()  # the other component is free of u and w

    residuals: list[str] = []
    elim = resultant(gu, gw, u)
    if elim.is_constant():
        return [], ()
    wroots = find_roots(elim, w)
    if not wroots.fully_split():
        residuals.append(f"eliminant residual in {w.name}: {wroots.residual.text()}")

    solutions = []
    for w0, wmult in Counter(wroots.roots).items():  # with eliminant multiplicity
        # the denominators of the values are parameter-only and root-free
        g = poly_gcd(value_at(gu, {w: w0}, gu.table).num, value_at(gw, {w: w0}, gw.table).num)
        if g.is_constant():
            continue  # spurious eliminant root
        uroots = find_roots(g, u)
        if not uroots.fully_split():
            residuals.append(
                f"{w.name} = {w0.text()}: residual in {u.name}: {uroots.residual.text()}"
            )
        for u0, umult in Counter(uroots.roots).items():
            # distribute the eliminant multiplicity among the points above w0
            mult = max(1, (wmult * umult) // len(uroots.roots))
            solutions.append(({u: u0, w: w0}, mult))
    return solutions, tuple(residuals)


# -- linear part and local index ----------------------------------------------------


def boundary_first_order(chart: Chart, boundary: Symbol) -> tuple[Symbol, ...]:
    return (boundary,) + tuple(s for s in chart.vars if s != boundary)


def linear_part(lp: LogPoleForm, p: AccessiblePoint) -> list[list[RationalFn]]:
    """Degree-1 truncation of the boundary-scaled field at ``p``, read off the
    field's log-pole form ``lp`` (:func:`chart_form`).

    The Jacobian of the log-pole polynomials (the boundary part times the
    boundary variable, then the transverse parts) evaluated at ``p``, in
    boundary-first variable order. Accessibility (the transverse parts
    vanish at ``p``) is re-verified on the way.
    """
    table = lp.boundary_part.table
    order = boundary_first_order(p.chart, p.boundary)
    polys = [MultiPoly.var(table, p.boundary) * lp.boundary_part]
    polys += [g for _, g in lp.transverse]
    # one composition at the point, whose coordinates may carry parameter
    # denominators: each value is an image over the image of 1
    one, *values = images(
        [MultiPoly.const(table, 1), *polys[1:], *(g.derivative(col) for g in polys for col in order)],
        dict(zip(p.chart.vars, p.coords)), table,
    )
    for sym, value in zip(order[1:], values):
        if not value.is_zero():
            raise VerificationFailed(
                f"point {p.text()} is not accessible: d{sym.name}/dt has constant part "
                f"{RationalFn(value, one).text()}"
            )
    entries = [RationalFn(e, one) for e in values[2:]]
    return [entries[k:k + 3] for k in (0, 3, 6)]


class LocalIndex(Record):
    __slots__ = (
        "eigenvalues",  # three RationalFns
        "ratios",  # three RationalFns, or None
        "integrality",  # bools, or None
        "ordering",  # "permutation (i,j,k)" over boundary-first axes, or "spectral"
    )


def _triangular_permutation(A: list[list[RationalFn]]) -> tuple[int, ...] | None:
    n = len(A)
    for perm in itertools.permutations(range(n)):
        if all(A[perm[i]][perm[j]].is_zero() for i in range(n) for j in range(i + 1, n)):
            return perm
    return None


def local_index(v: VectorField, p: AccessiblePoint) -> LocalIndex:
    """Ordered eigenvalue tuple of the linear part, with resonance ratios.

    The order comes from a coordinate permutation making the linear part
    lower triangular (identity-first search, so the chart's own order wins
    when it already is triangular); if no permutation works the spectrum is
    computed from the characteristic polynomial and sorted canonically,
    flagged "spectral".
    """
    return index_of_linear_part(linear_part(log_pole_decomposition(v), p), v.table)


def index_of_linear_part(A: list[list[RationalFn]], table) -> LocalIndex:
    """The :class:`LocalIndex` of a linear part computed by :func:`linear_part`."""
    perm = _triangular_permutation(A)
    if perm is not None:
        eig = tuple(A[perm[k]][perm[k]] for k in range(3))
        ordering = f"permutation {perm}"
    else:
        eig = _spectrum(A, table)
        ordering = "spectral"
    a11 = eig[0]
    if a11.is_zero():
        ratios = None
        integrality = None
    else:
        ratios = (RationalFn.const(table, 1), eig[1] / a11, eig[2] / a11)
        integrality = tuple(r.is_integer() for r in ratios)
    return LocalIndex(eig, ratios, integrality, ordering)


def _spectrum(A: list[list[RationalFn]], table) -> tuple[RationalFn, ...]:
    (name,) = names_apart(table, lambda pad: [f"eigvar{pad}"])
    work = table.extend([parameter(name)])
    A = [[e.retable(work) for e in row] for row in A]
    lam_sym = work.get(name)
    lam = RationalFn.var(work, lam_sym)
    m = [[lam - A[k][j] if j == k else -A[k][j] for j in range(3)] for k in range(3)]
    charpoly = det3(m).num
    roots = find_roots(charpoly, lam_sym)
    if not roots.fully_split():
        raise UnresolvedSpectrum(
            f"characteristic polynomial does not split: residual {roots.residual.text()}"
        )
    return tuple(r.retable(table) for r in roots.roots)


# -- scaling-limit (alpha) test ----------------------------------------------------------


class AlphaTestReport(Record):
    __slots__ = ("matrix", "triangular", "ratios", "component_single_valued", "log_detected",
                 "single_valued")


def classify_alpha_matrix(A) -> AlphaTestReport:
    """Single-valuedness classification of the constant-coefficient reduced
    system d(x_k)/dT = (sum_j a_kj x_j)/x_1, the scaling limit t = t0 +
    alpha*T, x = alpha*X at a point whose :func:`linear_part` is ``A``.

    Component k is single-valued iff a_kk/a_11 is an integer; when
    a_kk == a_11 the explicit solution carries a logarithm unless the
    coupling a_k1 vanishes. Entries may be exact constants or rational
    functions of parameters, but every ratio must come out constant (else a
    specialization is required and AnalysisFailed is raised).
    """
    n = len(A)
    a11 = A[0][0]
    if a11.is_zero():
        raise AnalysisFailed("the scaling-limit classification needs a_11 != 0")
    lower = all(A[i][j].is_zero() for i in range(n) for j in range(i + 1, n))
    ratios = tuple(A[k][k] / a11 for k in range(n))
    for r in ratios:
        if isinstance(r, RationalFn) and not r.is_constant():
            raise AnalysisFailed(
                f"eigenvalue ratio {r.text()} depends on parameters; specialize them"
            )
    verdicts = []
    log_detected = False
    for k in range(1, n):
        ratio = ratios[k]
        ok = ratio.is_integer()
        if A[k][k] == a11 and not A[k][0].is_zero():
            ok = False
            log_detected = True
        verdicts.append(ok)
    return AlphaTestReport(
        matrix=tuple(tuple(row) for row in A),
        triangular=lower,
        ratios=ratios,
        component_single_valued=tuple(verdicts),
        log_detected=log_detected,
        single_valued=all(verdicts),
    )


# -- dominant balance search ------------------------------------------------------------


class Balance(Record):
    # three ints, three RationalFns, the names of leading coefficients left free
    __slots__ = ("exponents", "coefficients", "free")
    _defaults = {"free": ()}


class BalanceSearch(Record):
    """The balances of a pole-order search, and the branches it could not
    settle: each pole-order triple with a branch of :func:`solve_branches`
    that keeps a residual factor, as (triple, ConditionBranch) pairs."""

    __slots__ = ("balances", "residual_branches")


def painleve_leading_orders(v: VectorField, bound: int = 2) -> BalanceSearch:
    """Search integer pole orders (m, n, p), |each| <= bound, max >= 1, with
    nonzero leading coefficients solving the dominant balance.

    The triples are taken in product order, and one is solved only when its
    equations can hold with every leading coefficient nonzero and the
    parameters generic, which the weights of the lead monomials alone decide
    (:func:`_balance_equations` returns None otherwise). The balance
    equations are polynomial in the three leading coefficients and are
    solved exactly by :func:`solve_branches` for nonzero values: a branch
    without residuals is a :class:`Balance`, its unpinned coefficients free,
    and any other a residual branch. The solver certifies each balance by
    putting its coefficients into the balance equations, so every listed
    balance holds exactly. Triples share equations, so the search solves
    each (equation, unknown) once for all of them. A model's search with
    every parameter symbolic is kept on the model (:func:`balance_search`).
    """
    if not v.is_polynomial():
        raise AnalysisFailed("dominant-balance search expects a polynomial field")
    table, leads, components = _lead_setup(v)
    span = range(-bound, bound + 1)
    balances, residuals = [], []
    solved: dict = {}
    for orders in itertools.product(span, repeat=3):
        if max(orders) < 1:
            continue
        eqs = _balance_equations(table, leads, components, orders)
        if eqs is None:
            continue
        for branch in solve_branches(eqs, leads, table, nonzero=True, solved=solved):
            if branch.residuals:
                residuals.append((orders, branch))
                continue
            pins = dict(branch.pinned)
            coeffs = tuple(pins.get(l, RationalFn.var(table, l)) for l in leads)
            balances.append(Balance(orders, coeffs, tuple(l.name for l in leads if l not in pins)))
    return BalanceSearch(tuple(balances), tuple(residuals))


def _lead_setup(v: VectorField):
    """The field's table extended by the leading-coefficient unknowns L_k
    (``lead1..lead3``, named apart from the field's symbols), those unknowns,
    and per component its terms and the distinct lead-exponent vectors a of
    those terms. Each term is the ansatz x_k = L_k * tau^-m_k without the
    powers of tau: its state exponents moved onto the unknowns, in the
    component's order, and tagged with the index of its vector a, whose
    weight -<a, m> is the term's order in tau."""
    names = names_apart(v.table, lambda pad: [f"lead{pad}{k}" for k in (1, 2, 3)])
    table = v.table.extend(parameter(n) for n in names)
    leads = tuple(table.get(n) for n in names)
    bound = {v.table.index(s): (MultiPoly.var(table, l), MultiPoly.const(table, 1))
             for s, l in zip(v.chart.vars, leads)}
    components = []
    for p in compose([c.as_poly() for c in v.components], bound, table):
        terms, vectors = [], {}
        for e, coeff in p.terms.items():
            a = e[-3:]  # the unknowns are the table's last three symbols
            terms.append((vectors.setdefault(a, len(vectors)), e, coeff))
        components.append((tuple(terms), tuple(vectors)))
    return table, leads, tuple(components)


def _balance_equations(table, leads, components, orders) -> list[MultiPoly] | None:
    """Equations forcing the ansatz x_k = L_k * tau^-m_k to balance at the
    lowest orders, or None when the weights -<a, m> of the lead-exponent
    vectors alone show that they have no solution with every leading
    coefficient nonzero and the parameters generic.

    A bucket below the balancing order that holds exactly one distinct lead
    monomial L^a is the equation L^a * P = 0, with P a nonzero polynomial in
    the parameters; and a pole order m_k != 0 whose balancing bucket is
    empty leaves the equation m_k * L_k = 0. Either forces a vanishing
    leading coefficient (or a parameter relation), so the triple has no
    branch. A bucket of two or more lead monomials may cancel, and is left
    to the solver. Buckets come in the order of their first term and keep
    the component's term order.
    """
    eqs = []
    for k, (terms, vectors) in enumerate(components):
        m_k = orders[k]
        nu = -m_k - 1 if m_k != 0 else 0
        weights = [-sum(x * m for x, m in zip(a, orders)) for a in vectors]
        count = Counter(weights)
        if (m_k != 0 and nu not in count) or any(n == 1 for o, n in count.items() if o < nu):
            return None
        buckets = {}
        for i, e, coeff in terms:
            buckets.setdefault(weights[i], {})[e] = coeff
        eqs += [MultiPoly(table, t) for o, t in buckets.items() if o < nu]
        if m_k != 0:
            eqs.append(MultiPoly(table, buckets[nu]) + MultiPoly.var(table, leads[k]) * m_k)
    return eqs


@per_point
def balance_search(m: ModelFile, params: Sequence | None, bound: int) -> BalanceSearch:
    """The dominant-balance search to ``bound`` on the model's field at
    ``params`` (:func:`painleve_leading_orders`), read by the ``painleve``
    report and, with every parameter symbolic at bound 2, by
    :func:`weighted_chart`."""
    return painleve_leading_orders(system_field(m, params), bound)


def weighted_balance(search: BalanceSearch) -> Balance:
    """The dominant balance with a pole in the first variable, whose pole
    orders select the weighted chart: of the balances of a
    :func:`painleve_leading_orders` search to bound 2 with m >= 1, the first
    one with the largest order sum."""
    balances = [b for b in search.balances if b.exponents[0] >= 1]
    if not balances:
        raise AnalysisFailed("no dominant balance with a pole in the first variable")
    return max(balances, key=lambda b: sum(b.exponents))


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
    balance = weighted_balance(balance_search(m, None, 2))
    table = m.table
    if "W" in m.charts:
        wvars = m.charts["W"].vars
    else:
        names = names_apart(table, lambda pad: [f"{a}W{pad}" for a in "XYZ"])
        table = table.extend(state(n) for n in names)
        wvars = tuple(table.get(n) for n in names)
    return balance, power_scaled_chart(m.base, table, "W", wvars, balance.exponents)


# -- blow-ups ---------------------------------------------------------------------------


class BlowUpChart(Record):
    # the ChartMap, and the VectorField on its target, whose boundary is the
    # exceptional divisor
    __slots__ = ("cmap", "field")


def blow_up(v: VectorField, center: Sequence, k: int) -> BlowUpChart:
    """Point blow-up of ``v.chart`` at ``center``, seen in the direction-k chart.

    The k-th new variable is the shifted k-th old one and the others are
    divided by it, so the k-th new variable cuts out the exceptional divisor.
    The chart comes with its verified ChartMap and the pushed-forward field.
    """
    table = v.table
    chart = v.chart
    level = 1
    while table.get(f"bu{level}_1") is not None:
        level += 1
    names = names_apart(table, lambda pad: [f"bu{level}_{pad}{j}" for j in (1, 2, 3)])
    new_table = table.extend(Symbol(n, "state") for n in names)
    center = [
        (c if isinstance(c, RationalFn) else RationalFn.const(table, c)).retable(new_table)
        for c in center
    ]
    tvars = tuple(new_table.get(n) for n in names)
    target = Chart(f"{chart.name}.b{level}{chart.vars[k].name}", tvars, boundary=tvars[k])
    shifted = [RationalFn.var(new_table, s) - c for s, c in zip(chart.vars, center)]
    fwd = [shifted[j] if j == k else shifted[j] / shifted[k] for j in range(3)]
    dk = RationalFn.var(new_table, tvars[k])
    inv = [
        dk + center[j] if j == k else dk * RationalFn.var(new_table, tvars[j]) + center[j]
        for j in range(3)
    ]
    cmap = ChartMap(chart, target, fwd, inv)
    return BlowUpChart(cmap, pushforward(v.retable(new_table), cmap))


# -- parametric solving -------------------------------------------------------------------


class ConditionBranch(Record):
    """One solution branch: unknowns pinned to exact values, in the order the
    unknowns were given; unpinned unknowns are free; factors that do not
    split stay as residual constraints."""

    __slots__ = ("pinned", "residuals")  # (Symbol, RationalFn) pairs, MultiPolys
    _defaults = {"residuals": ()}

    def text(self) -> str:
        parts = [f"{s.name} = {v.text()}" for s, v in self.pinned]
        parts += [f"{r.text()} = 0" for r in self.residuals]
        return "{" + ", ".join(parts) + "}" if parts else "{all parameters free}"


def solve_branches(eqs: Sequence[MultiPoly], unknowns: Sequence[Symbol], table,
                   nonzero: bool = False, solved: dict | None = None) -> list[ConditionBranch]:
    """Every branch of the solutions of ``eqs`` in ``unknowns``: each solution
    lies on one. Any other symbol is a parameter taken generically, so an
    equation free of the unknowns that does not vanish has no solution. With
    ``nonzero`` only solutions where every unknown is nonzero count.

    The equations are taken in order of (variable count, total degree), and
    the first pair (equation, unknown) whose leading coefficient in that
    unknown is invertible (free of the unknowns or, with ``nonzero``, a
    monomial in them) is solved: every unknown of the equation's monomial
    content is a zero-pin branch, every root of the rest from
    :func:`find_roots` a pin branch, and a factor without roots stays pending,
    tried for that unknown. With no invertible pair, two or more equations are
    pinned generically through their first untried pair, whose leading
    coefficient the roots take as nonzero: the zeros of its content in that
    unknown are solved, its monomial factors are zero pins, and the rest is a
    residual beside the live equations. A single equation loses its monomial
    content to zero-pin branches and is solved again, or is a residual when it
    has no such content. Each pin is put into the earlier pins' values, and a
    vanishing denominator there, or a zero value under ``nonzero``, drops the
    branch. A branch without residuals is returned only when its pins solve
    ``eqs`` exactly. The roots are kept in ``solved`` by (equation, unknown),
    so a caller that solves many systems over one table can hand every call
    the same dict.
    """
    unknowns = tuple(unknowns)
    solved = {} if solved is None else solved
    results: list[ConditionBranch] = []

    def keep(pins, residuals):
        branch = ConditionBranch(tuple((s, pins[s]) for s in unknowns if s in pins), residuals)
        if branch not in results and (residuals or vanishes(eqs, pins, table)):
            results.append(branch)

    def live_after(pending, sym=None, value=None):
        """``pending`` with ``sym = value`` put in, less the vanished
        equations; None when one cannot vanish: it is free of the unknowns,
        or with ``nonzero`` a single term."""
        live = []
        for eq in pending:
            vs = eq.variables()
            if sym is not None and sym in vs:
                eq = value_at(eq, {sym: value}, table).num
                vs = eq.variables()
            if eq.is_zero():
                continue
            if not any(s in unknowns for s in vs) or (nonzero and eq.is_monomial()):
                return None  # nonzero whatever the unknowns are
            live.append(eq)
        return live

    def pin(pending, pins, tried, sym, value):
        if nonzero and value.is_zero():
            return
        new = {}
        for s, val in pins.items():
            if sym in val.variables():
                try:
                    val = substitute(val, {sym: value}, table)
                except DenominatorVanishes:
                    return
                if nonzero and val.is_zero():
                    return
            new[s] = val
        new[sym] = value
        if (live := live_after(pending, sym, value)) is not None:
            solve(live, new, tried)

    def split_content(eq, rest, pins, tried):
        """Zero-pin branches for the unknowns of the monomial content of
        ``eq``; returns ``eq`` without that content."""
        content = eq.monomial_content()
        for s in content.variables():
            eq = eq.shift_var(s, -content.degree(s))
            if s in unknowns:
                pin(rest, pins, tried, s, RationalFn.const(table, 0))
        return eq

    def pairs(live, tried):
        """The untried pairs (equation, unknown), equations in order of
        (variable count, total degree)."""
        for q in sorted(live, key=lambda q: (len(q.variables()), q.total_degree())):
            vs = q.variables()
            for s in unknowns:
                if s in vs and not (tried and (q, s) in tried):
                    yield q, s

    def solve(live, pins, tried):
        if not live:
            keep(pins, ())
            return
        choice = next((p for p in pairs(live, tried) if _invertible(*p, unknowns, nonzero)), None)
        generic = choice is None
        if generic:
            if len(live) == 1:
                core = split_content(live[0], [], pins, tried)
                if core is live[0]:  # no monomial content
                    keep(pins, (core.monic(),))
                elif (rest := live_after([core])) is not None:
                    solve(rest, pins, tried)
                return
            choice = next(pairs(live, tried), None)
            if choice is None:
                keep(pins, tuple(q.monic() for q in live))
                return
        eq, sym = choice
        rest = [q for q in live if q is not eq]
        if not nonzero:
            # with nonzero the zero pins die, and find_roots drops the content
            eq = split_content(eq, rest, pins, tried)
        if generic:
            # the roots take the leading coefficient as nonzero: its content in
            # sym is solved, its monomial factors pinned, the rest a residual
            content = content_in(eq, sym)
            if (more := live_after(rest + [content])) is not None:
                solve(more, pins, tried)
            lead = eq.coefficient_of(sym, eq.degree(sym)).exact_divide(content)
            lead = split_content(lead, rest + [eq], pins, tried)
            if any(s in unknowns for s in lead.variables()):
                keep(pins, tuple(q.monic() for q in rest + [eq, lead]))
        if (eq, sym) not in solved:
            solved[eq, sym] = find_roots(eq, sym)
        roots = solved[eq, sym]
        for r in dict.fromkeys(roots.roots):
            pin(rest, pins, tried, sym, r)
        if not roots.fully_split():
            solve(rest + [roots.residual], pins, tried | {(roots.residual, sym)})

    if (live := live_after(eqs)) is not None:
        solve(live, {}, frozenset())
    return results


def _invertible(eq: MultiPoly, sym: Symbol, unknowns, nonzero: bool) -> bool:
    """Whether the leading coefficient of ``eq`` in ``sym`` is free of the
    unknowns or, with ``nonzero``, a monomial in them."""
    lead = eq.coefficient_of(sym, eq.degree(sym))
    content = lead.monomial_content()
    return all(lead.degree(u) == (content.degree(u) if nonzero else 0) for u in unknowns)


def solve_parameter_conditions(conditions: Sequence[MultiPoly]) -> list[ConditionBranch]:
    """Solution set of simultaneous parameter equations: the branches of
    :func:`solve_branches` in every parameter that occurs, less those that
    specialize another branch (the minimal covering family), sorted by text."""
    if not conditions:
        return [ConditionBranch(())]
    params = sorted({s for c in conditions for s in c.variables()}, key=lambda s: s.name)
    branches = {b.text(): b for b in solve_branches(conditions, params, conditions[0].table)}
    sets = {k: (set(b.pinned), set(b.residuals)) for k, b in branches.items()}

    def specializes(k, o):
        return sets[k] != sets[o] and sets[o][0] <= sets[k][0] and sets[o][1] <= sets[k][1]

    minimal = [b for k, b in branches.items() if not any(specializes(k, o) for o in sets)]
    return sorted(minimal, key=lambda b: b.text())


class ResolutionReport(Record):
    """End-to-end record of resolving the multiple boundary point.

    ``charts`` holds the weighted chart, then the target chart of each
    blow-up, ``final_field`` the field on the last, and ``composed_forward``
    the forward half of the one map from the base chart to it, over that
    field's table. ``linear_parts`` holds the linear part at each weighted
    point. Run with every parameter symbolic, the record is the lineage that
    a run at a parameter point specializes (:func:`resolution_pipeline`),
    and ``lineage_fields``, the fields of the blow-ups before the last, is
    what that run scans; at a point it is empty."""

    __slots__ = (
        "weighted_points",  # (AccessiblePoint, LocalIndex) pairs
        "linear_parts",  # one 3x3 tuple of RationalFn rows per weighted point
        "entry_point",  # AccessiblePoint
        "centers",  # AccessiblePoints
        "obstruction",  # Obstruction
        "branches",  # ConditionBranches
        "charts",  # Charts
        "final_field",  # VectorField
        "composed_forward",  # three RationalFns
        "lineage_fields",  # VectorFields, with every parameter symbolic; () at a point
    )


@per_point
def resolution_pipeline(m: ModelFile, params: Sequence | None = None) -> ResolutionReport:
    """Resolve the degenerate boundary point of the model's field on its
    weighted chart (:func:`weighted_chart`) at ``params``, and read off
    the parameter conditions for polynomiality.

    The accessible point there with a nonzero first index entry is blown up
    repeatedly (the resonance ratio fixes the number of steps), each time at
    the unique accessible point of the exceptional divisor and only in the
    chart of the exceptional direction; only these blow-ups push a field
    forward. The weighted map starts the chart lineage, and each blow-up's
    forward map is composed onto it as it is made. The final field's
    holomorphy obstructions and their solution branches are returned.

    The run with every parameter symbolic is made once per parsed model and
    kept on it (``models.per_point``; :func:`_symbolic_lineage` reads it), and
    when ``params`` bind nothing it is the result. The weighted chart is
    scanned once (:func:`chart_scan`, the scan the reports keep), and every
    other scan is of an exceptional divisor. At a parameter point every step
    is the lineage's, and only what the record holds is specialized: the
    linear parts at the weighted points, the centers, the composed forward
    map and the final field. A blow-up before the last is scanned on the
    lineage's field, by solving the specialized restricted pair it keeps
    (:func:`scan_at`); the point's unique accessible point there must still
    be the specialized center. The blow-up's map is not needed: its halves
    ((x_j - c_j)/(x_k - c_k), x_k - c_k) and (u_k*u_j + c_j, u_k + c_k) are
    inverse to each other for every center c. A point takes the whole
    lineage or none of it: when a scanned point has no lineage linear part,
    the step count differs, a center is not the specialization of the
    lineage's, or a denominator of a specialized value or of a field the run
    scans vanishes, every step after the weighted scan is computed on the
    specialized field, as it is when the symbolic run fails (no parameter
    divides the weighted field, a polynomial field under a monomial map).
    Both routes give the same record: where the specialized inputs are
    defined, specialization commutes with the pipeline's rational
    operations, and reduced forms are canonical.
    """
    weighted_map = weighted_chart(m)[1]
    scan = chart_scan(m, params, weighted_map)
    lineage = None if params is None else _symbolic_lineage(m)
    taken = _resolve(m, params, scan, weighted_map, lineage) if lineage is not None else None
    return taken or _resolve(m, params, scan, weighted_map, None)


@per_model
def _symbolic_lineage(m: ModelFile) -> ResolutionReport | None:
    """The pipeline's run with every parameter symbolic, or None when it
    fails there."""
    try:
        return resolution_pipeline(m)
    except ThreeWaveError:
        return None


def _resolve(m, params, scan, weighted_map, lineage) -> ResolutionReport | None:
    """The pipeline on the weighted field of the model ``m`` at ``params``,
    whose accessible points are ``scan``. Without a ``lineage`` every step
    is computed on that field. With one, every step is the lineage's,
    specialized where the record reads it, and the result is None at the
    first step that does not match."""
    bindings = bind_parameters(m, params)
    known = {}
    if lineage is None:
        vw, form = chart_form(m, bindings, weighted_map)
    else:
        vw = chart_field(m, weighted_map)  # for its table
        # the lineage's linear parts, specialized, keyed by their points'
        # specialized coordinates; a point with a vanishing denominator is left out
        for (q, _), A in zip(lineage.weighted_points, lineage.linear_parts):
            at_q = _specialized((*q.coords, *(x for row in A for x in row)), bindings)
            if at_q is not None:
                known[at_q[:3]] = tuple(at_q[k:k + 3] for k in (3, 6, 9))
    linear_parts = []
    for p in scan.points:
        if lineage is None:
            rows = tuple(map(tuple, linear_part(form, p)))
        else:
            rows = known.get(p.coords)
            if rows is None:
                return None
        linear_parts.append(rows)
    decorated = tuple(
        (p, index_of_linear_part(A, vw.table)) for p, A in zip(scan.points, linear_parts)
    )
    entries = [(p, ix) for p, ix in decorated if not ix.eigenvalues[0].is_zero()]
    if not entries:
        raise AnalysisFailed("no accessible point with nonzero leading index on the weighted chart")
    entry, entry_index = entries[0]
    steps = 1
    if entry_index.ratios is not None:
        for r in entry_index.ratios[1:]:
            if r.is_integer():
                steps = max(steps, int(r.constant_value().re))
    if lineage is not None and steps != len(lineage.charts) - 1:
        return None
    current_point = entry
    centers = []
    fields, composed = [vw], weighted_map.forward
    for step in range(steps):
        if lineage is None:
            chart = fields[-1].chart
            nxt = blow_up(fields[-1], current_point.coords, chart.var_index(chart.boundary))
            so_far = dict(zip(chart.vars, composed))
            composed = tuple(substitute(f, so_far, nxt.field.table) for f in nxt.cmap.forward)
            fields.append(nxt.field)
        else:
            ours = ((lineage.entry_point,) + lineage.centers)[step]
            if _specialized(ours.coords, bindings) != current_point.coords:
                return None
        if step < steps - 1:
            if lineage is not None:
                field = lineage.lineage_fields[step]
                if _denominator_vanishes(field, bindings):
                    return None
                inner = scan_at(m, field, bindings)
            elif not bindings:  # the symbolic run keeps the pair that points solve
                inner = scan_at(m, fields[-1], {})
            else:
                inner = find_accessible(m, fields[-1])
            if len(inner.points) != 1:
                raise AnalysisFailed(
                    f"expected a unique accessible point on the exceptional divisor, got "
                    f"{[p.text() for p in inner.points]}"
                )
            current_point = inner.points[0]
            centers.append(current_point)
    if lineage is None:
        charts, final = tuple(f.chart for f in fields), fields[-1]
    else:
        charts = lineage.charts
        final = _specialized(lineage.final_field, bindings)
        composed = _specialized(lineage.composed_forward, bindings)
        if final is None or composed is None:
            return None
    obstruction = holomorphy_obstructions(final)
    branches = tuple(solve_parameter_conditions(list(obstruction.conditions)))
    return ResolutionReport(
        weighted_points=decorated,
        linear_parts=tuple(linear_parts),
        entry_point=entry,
        centers=tuple(centers),
        obstruction=obstruction,
        branches=branches,
        charts=charts,
        final_field=final,
        composed_forward=composed,
        lineage_fields=() if bindings else tuple(fields[1:-1]),
    )


def _denominator_vanishes(v: VectorField, bindings) -> bool:
    """Whether a denominator of ``v`` vanishes at ``bindings``: its three
    denominators alone put in one composition."""
    bound = {v.table.index(s): x for s, x in bindings.items()}
    return any(d.is_zero() for d in compose([c.den for c in v.components], bound, v.table))


def _specialized(values, bindings):
    """A field, or a sequence of rational functions over one table,
    specialized at ``bindings`` in one batch, or None when a denominator
    vanishes there."""
    try:
        if isinstance(values, VectorField):
            return values.specialize(bindings)
        return tuple(specialize_all(values, bindings))
    except DenominatorVanishes:
        return None
