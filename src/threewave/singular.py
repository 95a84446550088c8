"""Accessible singularities, local indices, scaling-limit classification,
dominant-balance search, and the blow-up engine.

The sequence implemented here mirrors how a degenerate point on the boundary
divisor gets resolved:

1. :func:`find_accessible` locates the points of the divisor where solutions
   can leave it (the transverse components of the log-pole form vanish);
   they are finitely many exactly when those two components share no factor
   in the divisor's coordinates, which one gcd decides,
2. :func:`linear_part` / :func:`local_index` extract the eigenvalue data that
   classifies each point and predicts how many blow-ups are needed,
3. :func:`painleve_leading_orders` searches dominant balances;
   :func:`weighted_balance` picks the one whose pole orders fix the weighted
   chart suited to a multiple point (a model chooses it once, on its field
   with every parameter symbolic, and uses it at every parameter value),
4. :func:`blow_up` produces the chart of a point blow-up along one
   direction (the pipeline follows the exceptional direction) with the
   transformed field, and
5. :func:`holomorphy_obstructions` reads off the parameter conditions under
   which the final field is polynomial.

All computations are exact; every reported point is re-verified by
substitution before it is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    AnalysisFailed, DenominatorVanishes, PositiveDimensional, UnresolvedSpectrum, VerificationFailed,
)
from .gaussian import GaussianRational
from .geometry import Chart, ChartMap, VectorField, det3, log_pole_decomposition, pushforward
from .poly import MultiPoly, poly_gcd, resultant
from .ratfunc import RationalFn, substitute
from .roots import find_roots
from .symbols import Symbol, names_apart, parameter


@dataclass(frozen=True)
class AccessiblePoint:
    chart: Chart
    coords: tuple[RationalFn, RationalFn, RationalFn]  # chart-variable order
    multiplicity: int = 1

    @property
    def boundary(self) -> Symbol:
        return self.chart.boundary

    def coord_of(self, sym: Symbol) -> RationalFn:
        return self.coords[self.chart.vars.index(sym)]

    def text(self) -> str:
        inner = ", ".join(c.text() for c in self.coords)
        return f"({inner})"


@dataclass(frozen=True)
class AccessibleScan:
    """Search result: verified points plus any unresolved residual branches."""

    points: tuple[AccessiblePoint, ...]
    residuals: tuple[str, ...]


def find_accessible(v: VectorField) -> AccessibleScan:
    """All points of the chart's boundary divisor where the transverse
    log-pole parts vanish.

    The two transverse polynomials restricted to the divisor are solved by
    resultant elimination plus exact root extraction; solutions outside the
    Gaussian-rational parameter field are reported as residual branches.
    Raises :class:`PositiveDimensional` when the two polynomials share a factor
    in the divisor's coordinates, so that the solution set contains a curve.
    """
    chart = v.chart
    lp = log_pole_decomposition(v)
    boundary = chart.boundary
    table = v.table
    zero = {table.get(boundary.name): GaussianRational(0)}
    gs = [(sym, g.specialize(zero)) for sym, g in lp.transverse]
    (u_sym, gu), (w_sym, gw) = gs

    solutions, residuals = _solve_boundary_pair(gu, gw, u_sym, w_sym)

    points = []
    for sol, mult in solutions:
        coords = []
        for s in chart.vars:
            if s == boundary:
                coords.append(RationalFn.const(table, 0))
            else:
                coords.append(sol[s])
        point = AccessiblePoint(chart, tuple(coords), mult)
        if not _verify_point(gs, point):
            raise VerificationFailed(f"candidate point {point.text()} failed exact re-verification")
        points.append(point)
    points.sort(key=lambda p: p.text())
    return AccessibleScan(tuple(points), tuple(residuals))


def _verify_point(gs, point: AccessiblePoint) -> bool:
    bindings = {s: point.coords[k] for k, s in enumerate(point.chart.vars)}
    for _, g in gs:
        val = substitute(RationalFn.from_poly(g), bindings, g.table)
        if not val.is_zero():
            return False
    return True


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

    # group identical w-roots, remembering eliminant multiplicity
    grouped: dict[RationalFn, int] = {}
    for r in wroots.roots:
        grouped[r] = grouped.get(r, 0) + 1

    solutions = []
    for w0, wmult in grouped.items():
        g = poly_gcd(_substitute_root(gu, w, w0), _substitute_root(gw, w, w0))
        if g.is_constant():
            continue  # spurious eliminant root
        uroots = find_roots(g, u)
        if not uroots.fully_split():
            residuals.append(
                f"{w.name} = {w0.text()}: residual in {u.name}: {uroots.residual.text()}"
            )
        ugrouped: dict[RationalFn, int] = {}
        for r in uroots.roots:
            ugrouped[r] = ugrouped.get(r, 0) + 1
        total_u = sum(ugrouped.values())
        for u0, umult in ugrouped.items():
            # distribute the eliminant multiplicity among the points above w0
            mult = max(1, (wmult * umult) // total_u)
            solutions.append(({u: u0, w: w0}, mult))
    return solutions, tuple(residuals)


def _substitute_root(g: MultiPoly, sym: Symbol, value: RationalFn) -> MultiPoly:
    res = substitute(RationalFn.from_poly(g), {sym: value}, g.table)
    return res.num  # denominator is parameter-only and root-free


# -- linear part and local index ----------------------------------------------------


def boundary_first_order(chart: Chart, boundary: Symbol) -> tuple[Symbol, ...]:
    return (boundary,) + tuple(s for s in chart.vars if s != boundary)


def linear_part(v: VectorField, p: AccessiblePoint) -> list[list[RationalFn]]:
    """Degree-1 truncation of the boundary-scaled field at ``p``.

    The polynomials of the log-pole form (the boundary part times the
    boundary variable, then the transverse parts) are translated so that
    ``p`` sits at the origin, and the matrix of their linear coefficients is
    returned in boundary-first variable order. Accessibility (vanishing
    constant part of the transverse rows) is re-verified on the way.
    """
    table = v.table
    chart = p.chart
    order = boundary_first_order(chart, p.boundary)
    shift = {
        s: RationalFn.var(table, s) + p.coord_of(s) for s in chart.vars
    }
    lp = log_pole_decomposition(v)
    polys = [MultiPoly.var(table, p.boundary) * lp.boundary_part]
    polys += [g for _, g in lp.transverse]
    const_key = (0,) * len(table)
    zero = MultiPoly.zero(table)
    rows = []
    for sym, g in zip(order, polys):
        # the point's coordinates may carry parameter denominators
        centered = substitute(RationalFn.from_poly(g), shift, table)
        groups = centered.num.split_by_state_monomial()
        if sym != p.boundary and const_key in groups:
            raise VerificationFailed(
                f"point {p.text()} is not accessible: d{sym.name}/dt has constant part "
                f"{RationalFn(groups[const_key], centered.den).text()}"
            )
        row = []
        for col in order:
            key = [0] * len(table)
            key[table.index(col)] = 1
            row.append(RationalFn(groups.get(tuple(key), zero), centered.den))
        rows.append(row)
    return rows


@dataclass(frozen=True)
class LocalIndex:
    eigenvalues: tuple[RationalFn, RationalFn, RationalFn]
    ratios: tuple[RationalFn, RationalFn, RationalFn] | None
    integrality: tuple[bool, ...] | None
    ordering: str  # "permutation (i,j,k)" over boundary-first axes, or "spectral"

    def is_integral(self) -> bool | None:
        if self.integrality is None:
            return None
        return all(self.integrality)


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
    return index_of_linear_part(linear_part(v, p), v.table)


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
    eig = sorted(roots.roots, key=lambda r: r.text())
    return tuple(r.retable(table) for r in eig)


# -- scaling-limit (alpha) test ----------------------------------------------------------


@dataclass(frozen=True)
class AlphaTestReport:
    matrix: tuple[tuple, ...]
    triangular: bool
    ratios: tuple
    component_single_valued: tuple[bool, ...]
    log_detected: bool
    single_valued: bool


def classify_alpha_matrix(A) -> AlphaTestReport:
    """Single-valuedness classification of the constant-coefficient reduced
    system d(x_k)/dT = (sum_j a_kj x_j)/x_1.

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


def alpha_test(v: VectorField, p: AccessiblePoint) -> AlphaTestReport:
    """Scaling limit t = t0 + alpha*T, x = alpha*X at the point ``p``.

    The limit system is the linear part over x_1. Parameters may stay
    symbolic as long as the eigenvalue ratios are constant; otherwise bind
    them in ``v``.
    """
    return classify_alpha_matrix(linear_part(v, p))


# -- dominant balance search ------------------------------------------------------------


@dataclass(frozen=True)
class Balance:
    exponents: tuple[int, int, int]
    coefficients: tuple[RationalFn, RationalFn, RationalFn]
    free: tuple[str, ...] = ()  # names of leading coefficients left free


def painleve_leading_orders(v: VectorField, bound: int = 2) -> list[Balance]:
    """Search integer pole orders (m, n, p), |each| <= bound, max >= 1, with
    nonzero leading coefficients solving the dominant balance.

    The balance equations are polynomial in the three leading coefficients
    and are solved exactly by branching over :func:`find_roots`; zero roots
    are discarded (a vanishing leading coefficient is no balance), and
    coefficients that stay unconstrained are reported as free symbols.
    """
    span = range(-bound, bound + 1)
    return list(_balances(v, (o for o in itertools.product(span, repeat=3) if max(o) >= 1)))


def _balances(v: VectorField, orders_seq) -> Iterator[Balance]:
    """The balances of every pole-order triple of ``orders_seq``, in its
    order, each solved only when the one before it has been consumed.

    The field is re-keyed onto the leading coefficients once; each triple
    then only buckets those terms by weighted degree.
    """
    if not v.is_polynomial():
        raise ValueError("dominant-balance search expects a polynomial field")
    table, leads, moved = _lead_setup(v)
    for orders in orders_seq:
        eqs = _balance_equations(moved, leads, orders)
        for branch in _solve_poly_system(eqs, leads, table):
            coeffs = tuple(branch.get(l, RationalFn.var(table, l)) for l in leads)
            if any(c.is_zero() for c in coeffs):
                continue
            free = tuple(l.name for l in leads if l not in branch)
            yield Balance(tuple(orders), coeffs, free)


def _lead_setup(v: VectorField):
    """The field's table extended by the leading-coefficient unknowns, those
    unknowns (``lead1..lead3``, named apart from the field's symbols), and
    the components with each state exponent moved onto its unknown L_k: the
    ansatz x_k = L_k * tau^-m_k without the powers of tau, which
    :func:`_balance_equations` reads off as weights."""
    names = names_apart(v.table, lambda pad: [f"lead{pad}{k}" for k in (1, 2, 3)])
    table = v.table.extend(parameter(n) for n in names)
    leads = tuple(table.get(n) for n in names)
    moves = [(table.index(s), table.index(l)) for s, l in zip(v.chart.vars, leads)]
    moved = []
    for c in v.components:
        terms = {}
        for e, coeff in c.retable(table).as_poly().terms.items():
            e = list(e)
            for state, lead in moves:
                e[lead] += e[state]
                e[state] = 0
            terms[tuple(e)] = coeff
        moved.append(MultiPoly(table, terms))
    return table, leads, moved


def _balance_equations(moved, leads, orders) -> list[MultiPoly]:
    """Equations forcing the ansatz x_k = L_k * tau^-m_k to balance at the
    lowest orders: a term of ``moved`` with L-exponents a has tau-order
    -<a, m>."""
    eqs = []
    weights = {l: -m for l, m in zip(leads, orders)}
    for k, comp in enumerate(moved):
        buckets = comp.split_by_weight(weights)
        m_k = orders[k]
        nu = -m_k - 1 if m_k != 0 else 0
        eqs += [poly for o, poly in buckets.items() if o < nu]
        if m_k != 0:
            lead_term = MultiPoly.var(comp.table, leads[k]) * m_k
            eqs.append(buckets.get(nu, MultiPoly.zero(comp.table)) + lead_term)
    return eqs


def _solve_poly_system(eqs, unknowns, table) -> list[dict[Symbol, RationalFn]]:
    """All fully-resolved solution branches of a small polynomial system in
    ``unknowns`` over the parameter field; zero roots are pruned."""
    results: list[dict[Symbol, RationalFn]] = []

    def recurse(pending: list[MultiPoly], branch: dict[Symbol, RationalFn], suspect: bool,
                seeded: int = 0):
        live = []
        for eq in pending:
            cur = eq
            if branch:
                value = substitute(RationalFn.from_poly(eq), branch, table)
                # a denominator in an unknown solved later can vanish at its
                # root, where the numerator's zero is no zero of the equation
                suspect = suspect or any(s in unknowns for s in value.den.variables())
                cur = value.num
            if cur.is_zero():
                continue
            if not any(s in unknowns for s in cur.variables()):
                return  # generically nonzero parameter constraint: dead branch
            live.append(cur)
        if not live:
            try:
                key = _resolve_branch(branch, table)
            except DenominatorVanishes:
                # a later pin zeroes the denominator of an earlier pin's value,
                # which was solved assuming it nonzero: solve again with the
                # later pins put into the original equations first, where no
                # solution drops the branch
                seed = _resolvable_tail(branch, table)
                if len(seed) <= seeded:
                    raise AnalysisFailed("a balance branch does not resolve") from None
                recurse(list(eqs), seed, True, len(seed))
                return
            if key not in results and not (suspect and not _solves(eqs, key, table)):
                results.append(key)
            return
        eq = min(live, key=lambda q: (len(q.variables()), q.total_degree()))
        sym = next(s for s in unknowns if s in eq.variables())
        roots = find_roots(eq, sym)
        rest = [q for q in live if q is not eq]
        seen = set()
        for r in roots.roots:
            if r.is_zero() or r in seen:
                continue
            seen.add(r)
            nb = dict(branch)
            nb[sym] = r
            recurse(rest, nb, suspect, seeded)

    recurse(list(eqs), {}, False)
    return results


def _resolve_branch(branch: dict[Symbol, RationalFn], table) -> dict[Symbol, RationalFn]:
    """Back-substitute pinned values into each other (earlier pins may quote
    unknowns that were only solved later; the dependency graph is acyclic)."""
    for _ in range(len(branch) + 1):
        changed = False
        out = {}
        for s, val in branch.items():
            nv = substitute(val, branch, table)
            if nv != val:
                changed = True
            out[s] = nv
        branch = out
        if not changed:
            break
    return branch


def _resolvable_tail(branch: dict[Symbol, RationalFn], table) -> dict[Symbol, RationalFn]:
    """The longest run of last-solved pins that back-substitutes without a
    vanishing denominator, resolved."""
    pins = list(branch.items())
    tail: dict[Symbol, RationalFn] = {}
    for start in range(len(pins) - 1, -1, -1):
        try:
            tail = _resolve_branch(dict(pins[start:]), table)
        except DenominatorVanishes:
            break
    return tail


def _solves(eqs, bindings: dict[Symbol, RationalFn], table) -> bool:
    return all(substitute(RationalFn.from_poly(eq), bindings, table).is_zero() for eq in eqs)


def verify_balance(v: VectorField, balance: Balance) -> bool:
    """Exact re-check of a reported balance: the defining order-by-order
    equations, evaluated at the solved coefficients, must vanish identically
    (free coefficients stay symbolic and must cancel symbolically)."""
    table, leads, moved = _lead_setup(v)
    eqs = _balance_equations(moved, leads, balance.exponents)
    bindings = {leads[k]: balance.coefficients[k].retable(table) for k in range(3)}
    return _solves(eqs, bindings, table)


# -- blow-ups ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowUpChart:
    cmap: ChartMap
    field: VectorField  # on cmap.target, whose boundary is the exceptional divisor


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


# -- holomorphy obstructions ----------------------------------------------------------------


@dataclass(frozen=True)
class Obstruction:
    """Parameter conditions equivalent to polynomiality of a blown-up field."""

    conditions: tuple[MultiPoly, ...]  # monic, deduplicated, sorted by text

    def is_empty(self) -> bool:
        return not self.conditions

    def texts(self) -> list[str]:
        return [c.text() for c in self.conditions]


def holomorphy_obstructions(v: VectorField) -> Obstruction:
    """Coefficients of the negative powers of the chart's boundary variable
    (the exceptional variable of a blow-up chart).

    Each reduced component must have a denominator that is a pure power of
    that variable (guaranteed for fields produced by the blow-up pipeline);
    the parameter-polynomial coefficients of all negative powers are
    collected, normalized monic, and deduplicated. An empty condition set
    means the field is already polynomial. A chart without a boundary
    variable raises ValueError.
    """
    boundary = v.chart.boundary
    if boundary is None:
        raise ValueError(f"chart {v.chart.name} has no boundary variable")
    conditions: dict[str, MultiPoly] = {}
    for comp in v.components:
        for param_poly in negative_power_part(comp, boundary).split_by_state_monomial().values():
            normalized = param_poly.monic()
            conditions[normalized.text()] = normalized
    ordered = tuple(conditions[k] for k in sorted(conditions))
    return Obstruction(ordered)


def negative_power_part(comp: RationalFn, boundary: Symbol) -> MultiPoly:
    """The numerator terms of ``comp = num / boundary^k`` of degree below k in
    the boundary variable: the part that carries a pole (zero when ``comp``
    is polynomial). Raises ValueError for any other denominator."""
    table = comp.table
    if comp.is_polynomial():
        return MultiPoly.zero(table)
    den = comp.den
    if not den.is_monomial():
        raise ValueError(f"component denominator {den.text()} is not a power of {boundary.name}")
    k_b = table.index(boundary)
    ((dexp, _),) = den.terms.items()
    if any(dexp[j] for j in range(len(dexp)) if j != k_b):
        raise ValueError(f"component has a pole along {den.text()}, not only along {boundary.name}")
    return MultiPoly(table, {e: c for e, c in comp.num.terms.items() if e[k_b] < dexp[k_b]})


# -- parameter condition solving ----------------------------------------------------------------


@dataclass(frozen=True)
class ConditionBranch:
    """One solution branch: parameters pinned to exact values; unpinned
    parameters are free; non-splitting factors stay as residual constraints."""

    pinned: tuple[tuple[Symbol, RationalFn], ...]
    residuals: tuple[MultiPoly, ...] = ()

    def text(self) -> str:
        parts = [f"{s.name} = {v.text()}" for s, v in self.pinned]
        parts += [f"{r.text()} = 0" for r in self.residuals]
        return "{" + ", ".join(parts) + "}" if parts else "{all parameters free}"


def solve_parameter_conditions(conditions: Sequence[MultiPoly]) -> list[ConditionBranch]:
    """Solution set of simultaneous parameter equations, as maximal branches.

    Conditions are split into monomial factors and exact roots of univariate
    factors; branches that are specializations of other branches are dropped,
    so the answer is the minimal covering family.
    """
    if not conditions:
        return [ConditionBranch(())]
    table = conditions[0].table
    branches: list[tuple[dict[Symbol, RationalFn], list[MultiPoly]]] = [({}, [])]
    for cond in conditions:
        new_branches = []
        for pins, resid in branches:
            cur = cond
            if pins:
                cur = substitute(RationalFn.from_poly(cond), pins, table).num
            if cur.is_zero():
                new_branches.append((pins, resid))
                continue
            if cur.is_constant():
                continue  # contradiction: branch dies
            # every pin is a constant, so a pinned symbol is gone from ``cur``
            # and a new pin never meets an old one
            for extra_pin, extra_resid in _split_condition(cur, table):
                np = dict(pins)
                if extra_pin is not None:
                    np[extra_pin[0]] = extra_pin[1]
                new_branches.append((np, resid + extra_resid))
        branches = new_branches
    # drop branches subsumed by a more general one
    out = []
    items = [
        ConditionBranch(tuple(sorted(p.items(), key=lambda kv: kv[0].name)), tuple(r))
        for p, r in branches
    ]
    seen = set()
    uniq = []
    for b in items:
        key = b.text()
        if key not in seen:
            seen.add(key)
            uniq.append(b)
    for b in uniq:
        subsumed = False
        for other in uniq:
            if other is b:
                continue
            if set(other.pinned) <= set(b.pinned) and set(other.residuals) <= set(b.residuals):
                if (set(other.pinned), set(other.residuals)) != (set(b.pinned), set(b.residuals)):
                    subsumed = True
                    break
        if not subsumed:
            out.append(b)
    return sorted(out, key=lambda b: b.text())


@dataclass(frozen=True)
class ResolutionReport:
    """End-to-end record of resolving the multiple boundary point."""

    weighted_points: tuple[tuple[AccessiblePoint, LocalIndex], ...]
    entry_point: AccessiblePoint
    centers: tuple[AccessiblePoint, ...]
    obstruction: Obstruction
    branches: tuple[ConditionBranch, ...]
    final_field: VectorField
    chart_maps: tuple[ChartMap, ...] = ()  # weighted map, then one map per blow-up

    def composed_map(self) -> ChartMap:
        """The single birational map from the base chart to the final chart."""
        table = self.final_field.table
        maps = [
            ChartMap(
                m.source,
                m.target,
                [f.retable(table) for f in m.forward],
                [g.retable(table) for g in m.inverse],
                check=False,
            )
            for m in self.chart_maps
        ]
        out = maps[0]
        for m in maps[1:]:
            out = out.compose(m)
        return out


# the largest pole order |m_k| the pipeline's balance search tries
_PIPELINE_BOUND = 2


def weighted_balance(v: VectorField) -> Balance:
    """The dominant balance with a pole in the first variable, whose pole
    orders select the weighted chart.

    Of the balances of the pole-order triples with m >= 1 and no order
    larger than ``_PIPELINE_BOUND`` in size, in product order, it is the
    first one with the largest order sum. The triples are searched highest
    sum first, each sum in product order (a stable sort), and the search
    stops at the first balance found. That is the same balance as ``max``
    over the full list, since every triple of a larger sum has been solved
    before and ``max`` keeps the first maximum.
    """
    bound = _PIPELINE_BOUND
    span = range(-bound, bound + 1)
    orders = sorted(itertools.product(range(1, bound + 1), span, span), key=sum, reverse=True)
    balance = next(_balances(v, orders), None)
    if balance is None:
        raise AnalysisFailed("no dominant balance with a pole in the first variable")
    return balance


def resolution_pipeline(vw: VectorField, weighted_map: ChartMap) -> ResolutionReport:
    """Resolve the degenerate boundary point of ``vw``, the field already on
    the weighted chart (``models.chart_field`` of ``weighted_map``), and read
    off the parameter conditions for polynomiality.

    The accessible point there with a nonzero first index entry is blown up
    repeatedly (the resonance ratio fixes the number of steps), each time at
    the unique accessible point of the exceptional divisor and only in the
    chart of the exceptional direction; only these blow-ups push a field
    forward. ``weighted_map`` starts the chart lineage. The final field's
    holomorphy obstructions and their solution branches are returned.
    """
    if vw.chart != weighted_map.target:
        raise ValueError(f"field lives on {vw.chart.name}, not on {weighted_map.target.name}")
    scan = find_accessible(vw)
    decorated = tuple((p, local_index(vw, p)) for p in scan.points)
    entries = [(p, ix) for p, ix in decorated if not ix.eigenvalues[0].is_zero()]
    if not entries:
        raise AnalysisFailed("no accessible point with nonzero leading index on the weighted chart")
    entry, entry_index = entries[0]
    steps = 1
    if entry_index.ratios is not None:
        for r in entry_index.ratios[1:]:
            if r.is_integer():
                steps = max(steps, int(r.constant_value().re))
    current_field, current_point = vw, entry
    centers = []
    chart_maps = [weighted_map]
    for step in range(steps):
        chart = current_field.chart
        nxt = blow_up(current_field, current_point.coords, chart.var_index(chart.boundary))
        current_field = nxt.field
        chart_maps.append(nxt.cmap)
        if step < steps - 1:
            inner = find_accessible(current_field)
            if len(inner.points) != 1:
                raise AnalysisFailed(
                    f"expected a unique accessible point on the exceptional divisor, got "
                    f"{[p.text() for p in inner.points]}"
                )
            current_point = inner.points[0]
            centers.append(current_point)
    obstruction = holomorphy_obstructions(current_field)
    branches = tuple(solve_parameter_conditions(list(obstruction.conditions)))
    return ResolutionReport(
        weighted_points=decorated,
        entry_point=entry,
        centers=tuple(centers),
        obstruction=obstruction,
        branches=branches,
        final_field=current_field,
        chart_maps=tuple(chart_maps),
    )


def _split_condition(cond: MultiPoly, table):
    """Factor one parameter polynomial into branch alternatives.

    Yields (pin, residuals) pairs: a pinned assignment like gamma = -1, or
    None with the unfactorable remainder as a residual constraint.
    """
    alternatives = []
    content = cond.monomial_content()
    core = cond
    for sym in content.variables():
        core = core.shift_var(sym, -content.degree(sym))
        alternatives.append(((sym, RationalFn.const(table, 0)), []))
    if not core.is_constant():
        vs = core.variables()
        if len(vs) == 1:
            sym = vs[0]
            rr = find_roots(core, sym)
            for r in rr.roots:
                alternatives.append(((sym, r), []))
            if not rr.fully_split():
                alternatives.append((None, [rr.residual]))
        else:
            alternatives.append((None, [core.monic()]))
    return alternatives
