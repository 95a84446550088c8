"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and favours obviousness over speed:
term-by-term dictionary multiplication, dominant-balance equations built
monomial by monomial from powers of the leading coefficients, and a
pushforward that composes with plain rational-function arithmetic one term at
a time instead of the library substitution path, parameter binding by
``substitute`` with constant rational functions instead of ``specialize``,
or term by term for each numerator and denominator alone, and a linear part
read entry by entry.
The text renderer is the one that printed ``Fraction`` parts and walked
every table symbol of every term.
The numeric references are the interpreted kernel the generated one replaced:
a term loop per polynomial and a list-based Cash-Karp step.
These stay independent of the code they check. The seeded inputs of the differential tests (random
fields, every built-in map and a blow-up chart) live here too.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

from threewave import models
from threewave.errors import DenominatorVanishes
from threewave.gaussian import ONE, GaussianRational
from threewave.geometry import Chart, ChartMap, VectorField, pushforward
from threewave.poly import MultiPoly
from threewave.ratfunc import RationalFn, substitute, value_at
from threewave.singular import Balance, blow_up, solve_branches
from threewave.symbols import SymbolTable, names_apart, parameter, table as make_table


BENCH = Path(__file__).resolve().parent.parent / "bench"


@functools.cache
def bench_workloads():
    """The benchmark's workload module ``bench/workloads.py``, for its seeded
    random model fields. It is imported with the bench's own ``oracles``
    module, which shares its name with this one; this module is put back
    under that name afterwards."""
    saved = sys.modules.pop("oracles", None)
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        del sys.modules[spec.name]
        sys.modules.pop("oracles", None)
        if saved is not None:
            sys.modules["oracles"] = saved
    return module


def naive_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, GaussianRational(0)) + c1 * c2
    return MultiPoly(a.table, out)


def naive_substitute_poly(p: MultiPoly, bindings: dict) -> RationalFn:
    """Sum over terms of coeff * prod(binding^exp), all in RationalFn arithmetic."""
    table = next(iter(bindings.values())).table
    total = RationalFn.const(table, 0)
    syms = p.table.symbols
    for e, c in p.terms.items():
        term = RationalFn.const(table, c)
        for k, d in enumerate(e):
            if not d:
                continue
            sym = syms[k]
            b = bindings.get(sym)
            if b is None:
                b = RationalFn.var(table, table.get(sym.name))
            for _ in range(d):
                term = term * b
        total = total + term
    return total


def naive_substitute(f: RationalFn, bindings: dict) -> RationalFn:
    num = naive_substitute_poly(f.num, bindings)
    den = naive_substitute_poly(f.den, bindings)
    return num / den


def naive_specialize(f: RationalFn, bindings: dict) -> RationalFn | None:
    """``f`` at the constant ``bindings`` ({symbol: GaussianRational}), its
    numerator and denominator each put through :func:`naive_substitute_poly`
    on their own; None when the denominator vanishes there."""
    if not bindings:
        return f
    values = {s: RationalFn.const(f.table, c) for s, c in bindings.items()}
    den = naive_substitute_poly(f.den, values)
    return None if den.is_zero() else naive_substitute_poly(f.num, values) / den


def naive_linear_part(lp, p) -> list[list[RationalFn]]:
    """The linear part at the accessible point ``p`` of the log-pole form
    ``lp``, entry by entry: each Jacobian entry of the boundary-scaled
    polynomials a separate ``value_at`` at the point."""
    table = lp.boundary_part.table
    order = (p.boundary,) + tuple(s for s in p.chart.vars if s != p.boundary)
    at_p = dict(zip(p.chart.vars, p.coords))
    polys = [MultiPoly.var(table, p.boundary) * lp.boundary_part] + [g for _, g in lp.transverse]
    return [[value_at(g.derivative(col), at_p, table) for col in order] for g in polys]


def oracle_pushforward(v: VectorField, cmap: ChartMap) -> list[RationalFn]:
    """Chain rule then simplify, with naive per-term composition."""
    inverse_bindings = {cmap.source.vars[j]: cmap.inverse[j] for j in range(3)}
    out = []
    for k in range(3):
        acc = RationalFn.const(v.table, 0)
        for j in range(3):
            d = cmap.forward[k].derivative(cmap.source.vars[j])
            acc = acc + d * v.components[j]
        out.append(naive_substitute(acc, inverse_bindings))
    return out


def _constant_bindings(m, values) -> dict:
    syms = m.table.parameters()
    return {s: RationalFn.const(m.table, GaussianRational(x))
            for s, x in zip(syms, values or [None] * len(syms)) if x is not None}


def substituted_field(system, values) -> VectorField:
    """The model's base field with the parameter values (model order, None
    leaves one symbolic) put in by ``substitute`` as constant functions."""
    m = models.model(system)
    bindings = _constant_bindings(m, values)
    v = m.fields[m.base.name]
    return VectorField(v.chart, [substitute(c, bindings, m.table) for c in v.components])


def substituted_atlas(system, name, values) -> list[ChartMap]:
    """The model's atlas ``name`` with every map but the identity bound as in
    :func:`substituted_field`, and verified again."""
    m = models.model(system)
    bindings = _constant_bindings(m, values)
    maps = m.atlas(name)
    return maps[:1] + [
        ChartMap(cm.source, cm.target, [substitute(f, bindings, m.table) for f in cm.forward],
                 [substitute(g, bindings, m.table) for g in cm.inverse])
        for cm in maps[1:]
    ]


def naive_retable(p: MultiPoly, table: SymbolTable) -> MultiPoly:
    """``p`` over ``table``: each term's exponents put by symbol name, read
    off the ``terms`` view."""
    out = {}
    for e, c in p.terms.items():
        exps = [0] * len(table)
        for sym, d in zip(p.table.symbols, e):
            if d:
                exps[table.index(sym.name)] = d
        out[tuple(exps)] = c
    return MultiPoly(table, out)


def naive_text(x: MultiPoly | GaussianRational) -> str:
    """The canonical text of a polynomial or a coefficient, built from the
    ``Fraction`` parts of each coefficient and the ``terms`` view sorted as
    (total degree, exponent tuple), every table symbol walked per term."""
    if isinstance(x, GaussianRational):
        im = x.im
        if im == 0:
            return str(x.re)
        if im == 1:
            im_part = "i"
        elif im == -1:
            im_part = "-i"
        else:
            im_part = f"{im}*i"
        if x.re == 0:
            return im_part
        sign = "+" if im > 0 else "-"
        return f"{x.re}{sign}{im_part.lstrip('-')}"
    if x.is_zero():
        return "0"
    parts = []
    syms = x.table.symbols
    for e, c in sorted(x.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = []
        for k, d in enumerate(e):
            if d == 1:
                factors.append(syms[k].name)
            elif d > 1:
                factors.append(f"{syms[k].name}^{d}")
        mono = "*".join(factors)
        if not mono:
            coeff = naive_text(c)
        elif c == 1:
            coeff = ""
        elif c == -1:
            coeff = "-"
        elif c.re != 0 and c.im != 0:
            coeff = f"({naive_text(c)})*"
        else:
            coeff = f"{naive_text(c)}*"
        term = coeff + mono if mono else coeff
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts).replace("+-", "-")


def naive_lead_terms(v: VectorField):
    """The table of :func:`naive_balance_equations`, its unknowns
    ``lead1..lead3``, and per component its terms with the ansatz
    x_k = L_k * tau^-m_k put in, without the powers of tau: each term's state
    exponents, and the term with every x_k^e replaced by L_k^e as a product
    of powers of the L_k. They do not depend on the pole orders."""
    names = ("lead1", "lead2", "lead3")  # the library's names on a table without them
    table = v.table.extend(parameter(n) for n in names)
    leads = tuple(table.get(n) for n in names)
    state_idx = [table.index(s) for s in v.chart.vars]
    components = []
    for comp in (naive_retable(c.as_poly(), table) for c in v.components):
        terms = []
        for e, c in comp.terms.items():
            term_exp = list(e)
            for idx in state_idx:
                term_exp[idx] = 0
            mono = MultiPoly(table, {tuple(term_exp): c})
            for j, idx in enumerate(state_idx):
                if e[idx]:
                    mono = mono * MultiPoly.var(table, leads[j]) ** e[idx]
            terms.append((tuple(e[idx] for idx in state_idx), mono))
        components.append(terms)
    return table, leads, components


def naive_balance_equations(v: VectorField, orders) -> list[MultiPoly]:
    """The dominant-balance equations of a polynomial field for pole orders
    ``orders``: put x_k = L_k * tau^-m_k into each component, monomial by
    monomial as products of powers of the L_k (:func:`naive_lead_terms`), and
    group the terms by their order in tau (:func:`_balance_groups`)."""
    return _balance_groups(naive_lead_terms(v), orders)


def _balance_groups(lead_terms, orders) -> list[MultiPoly]:
    """The equations of :func:`naive_balance_equations` from the field's
    ``lead_terms``. For component k with m_k != 0 the orders below -m_k - 1
    must vanish and the order -m_k - 1 must balance m_k * L_k (the derivative
    of the ansatz); with m_k = 0 every order below 0 must vanish. Terms keep
    the component's order, equations come component by component, groups in
    the order of their first term."""
    table, leads, components = lead_terms
    eqs = []
    for k, terms in enumerate(components):
        buckets: dict[int, MultiPoly] = {}
        for a, mono in terms:
            o = -sum(x * m for x, m in zip(a, orders))
            buckets[o] = buckets.get(o, MultiPoly.zero(table)) + mono
        m_k = orders[k]
        nu = -m_k - 1 if m_k != 0 else 0
        for o, poly in buckets.items():
            if o < nu and not poly.is_zero():
                eqs.append(poly)
        if m_k != 0:
            lead_term = MultiPoly.var(table, leads[k]) * m_k
            eqs.append(buckets.get(nu, MultiPoly.zero(table)) + lead_term)
    return eqs


def naive_balance_holds(v: VectorField, balance: Balance) -> bool:
    """Whether ``balance`` solves the equations of
    :func:`naive_balance_equations` at its pole orders: each equation with
    the balance's coefficients put in by :func:`naive_substitute` is zero,
    its free coefficients cancelling as symbols."""
    bindings = {parameter(f"lead{k}"): c for k, c in enumerate(balance.coefficients, 1)}
    return all(naive_substitute(RationalFn.from_poly(eq), bindings).is_zero()
               for eq in naive_balance_equations(v, balance.exponents))


def unpruned_balance_search(v: VectorField, orders_seq):
    """The dominant-balance search with no triple skipped: every triple of
    ``orders_seq`` solved by ``solve_branches`` for nonzero leading
    coefficients, on the equations of :func:`naive_balance_equations`.
    Returns the branches of each triple, [(orders, branches)], and the
    balances: the branches without a residual whose coefficients are all
    nonzero, in order, with the unpinned coefficients free. The terms with
    the ansatz put in are built once per call, not once per triple."""
    lead_terms = naive_lead_terms(v)
    table, leads, _ = lead_terms
    solved, balances = [], []
    for orders in orders_seq:
        orders = tuple(orders)
        eqs = _balance_groups(lead_terms, orders)
        branches = solve_branches(eqs, leads, table, nonzero=True)
        solved.append((orders, branches))
        for b in branches:
            pins = dict(b.pinned)
            coeffs = tuple(pins.get(l, RationalFn.var(table, l)) for l in leads)
            if not b.residuals and not any(c.is_zero() for c in coeffs):
                free = tuple(l.name for l in leads if l not in pins)
                balances.append(Balance(orders, coeffs, free))
    return solved, balances


def naive_evaluate(p: MultiPoly, point: dict) -> GaussianRational:
    """``p`` at exact values of its symbols, term by term with repeated
    multiplication."""
    total = GaussianRational(0)
    for e, c in p.terms.items():
        term = c
        for sym, d in zip(p.table.symbols, e):
            for _ in range(d):
                term = term * point[sym]
        total = total + term
    return total


def reference_poly(poly, var_names):
    """``poly`` at three complex values, bound to ``var_names`` by symbol name:
    each term ``coeff * a**e1 * b**e2 * c**e3`` (zero exponents skipped),
    summed from 0j term by term in canonical order (graded-lex descending)."""
    slots = {name: k for k, name in enumerate(var_names)}
    terms = []
    for e, c in poly.sorted_terms():
        exps = [0, 0, 0]
        for sym, d in zip(poly.table.symbols, e):
            if d:
                exps[slots[sym.name]] = d
        terms.append((complex(c), exps))

    def ev(a, b, c):
        s = 0j
        for coeff, (e1, e2, e3) in terms:
            t = coeff
            if e1:
                t *= a**e1
            if e2:
                t *= b**e2
            if e3:
                t *= c**e3
            s += t
        return s

    return ev


def reference_triple(rfs, var_names):
    """Three rational functions evaluated in turn, each numerator before its
    denominator (a polynomial's denominator is 1 and is not evaluated)."""
    fns = []
    for rf in rfs:
        num = reference_poly(rf.num, var_names)
        if rf.is_polynomial():
            fns.append(num)
        else:
            den = reference_poly(rf.den, var_names)
            fns.append(lambda a, b, c, num=num, den=den: num(a, b, c) / den(a, b, c))
    return lambda a, b, c: tuple(fn(a, b, c) for fn in fns)


_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def reference_rk_step(f, y, h, direction):
    """One Cash-Karp 5(4) step of dy/ds = direction * f(y) with lists:
    the order-5 state and the order-5 minus order-4 difference."""
    k = []
    for s in range(6):
        ys = list(y)
        for j, a in enumerate(_CK_A[s]):
            if a:
                for c in range(3):
                    ys[c] += h * a * k[j][c]
        deriv = f(*ys)
        k.append([direction * d for d in deriv])
    y5 = list(y)
    y4 = list(y)
    for j in range(6):
        for c in range(3):
            if _CK_B5[j]:
                y5[c] += h * _CK_B5[j] * k[j][c]
            if _CK_B4[j]:
                y4[c] += h * _CK_B4[j] * k[j][c]
    return tuple(y5), [y5[c] - y4[c] for c in range(3)]


def dense_nullspace(matrix) -> tuple[int, dict[int, list[GaussianRational]]]:
    """Rank and null-space basis of a dense matrix over Q(i) by textbook
    Gauss-Jordan elimination: columns left to right, the first row with a
    nonzero entry as pivot. The basis is keyed by free column; each vector
    has 1 in its own free column and 0 in the other free columns."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0])
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = {}
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [GaussianRational(0)] * ncols
        vec[fc] = GaussianRational(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][fc]
        basis[fc] = vec
    return len(pivots), basis


# -- seeded inputs for the differential tests ------------------------------------


def random_parametric_matrix(rng, table, density: float) -> list[list[MultiPoly]]:
    """A random matrix of polynomials in the table's parameters, 2-5 rows by
    2-7 columns, each entry nonzero with probability ``density`` (a constant,
    a parameter or a sum of up to three terms of degree <= 2, coefficients
    sometimes Gaussian). Then a few rows are replaced by a zero row, a copy
    of another row, or a polynomial combination of two others, so that zero
    rows, duplicate rows and rank-deficient shapes all occur."""
    params = table.parameters()

    def coeff():
        return GaussianRational(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((0, 0, 0, 1)))

    def entry():
        if rng.random() >= density:
            return MultiPoly.zero(table)
        p = MultiPoly.zero(table)
        for _ in range(rng.randint(1, 3)):
            term = MultiPoly.const(table, coeff())
            for _ in range(rng.randint(0, 2)):
                term = term * MultiPoly.var(table, rng.choice(params))
            p = p + term
        return p

    nrows, ncols = rng.randint(2, 5), rng.randint(2, 7)
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        k = rng.randrange(nrows)
        shape = rng.randrange(3)
        if shape == 0:
            rows[k] = [MultiPoly.zero(table)] * ncols
        elif shape == 1:
            rows[k] = list(rows[rng.randrange(nrows)])
        else:
            i, j = rng.randrange(nrows), rng.randrange(nrows)
            a, b = entry() + MultiPoly.const(table, 1), entry()
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows




def random_ratfn(rng, table, syms) -> RationalFn:
    """A small random rational function in ``syms``: a numerator of up to
    three terms of degree <= 2 over a denominator of 1, a constant plus one
    monomial, or a single monomial."""

    def monomial():
        e = [0] * len(table)
        for _ in range(rng.randint(0, 2)):
            e[table.index(rng.choice(syms))] += 1
        return tuple(e)

    def coeff():
        return GaussianRational(rng.choice((-2, -1, 1, 3)), rng.choice((0, 0, 1)))

    num = MultiPoly(table, {monomial(): coeff() for _ in range(rng.randint(1, 3))})
    shape = rng.randint(0, 2)
    if shape == 0:
        den = MultiPoly.const(table, 1)
    elif shape == 1:
        den = MultiPoly(table, {(0,) * len(table): coeff(), monomial(): coeff()})
    else:
        den = MultiPoly(table, {monomial(): coeff()})
    return RationalFn(num, den)


def random_polynomial_field(rng) -> VectorField:
    """A polynomial field in x, y, z with a parameter a: each component has
    up to five terms of degree <= 3, a coefficient sometimes carrying a."""
    t = make_table("x", "y", "z", "a:parameter")
    chart = Chart("C", (t.get("x"), t.get("y"), t.get("z")))
    comps = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = [0, 0, 0, rng.choice((0, 0, 1))]
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(3)] += 1
            terms[tuple(e)] = GaussianRational(rng.choice((-2, -1, 1, 2, 3)), rng.choice((0, 0, 1)))
        comps.append(RationalFn.from_poly(MultiPoly(t, terms)))
    return VectorField(chart, comps)


def differential_maps() -> list[ChartMap]:
    """Every built-in chart map out of a base chart (projective, resolved and
    weighted), then the three charts of a point blow-up of three-wave's base
    chart at (1, 0, -1)."""
    maps = []
    for kind in ("three-wave", "modified"):
        m = models.model(kind)
        maps += [cm for name in ("projective", "resolved") for cm in m.atlas(name)[1:]]
        maps.append(models.weighted_chart(kind)[1])
    v = models.system_field("three-wave")
    maps += [blow_up(v, [1, 0, -1], k).cmap for k in range(3)]
    return maps


def random_model_text(rng) -> str:
    """A model file with parameters a and b: a field of random quadratic
    components whose coefficients carry them, and a resolved atlas of two
    charts at infinity whose maps shift by random multiples of them."""

    def component():
        terms = []
        for mono in ("x^2", "x*y", "y*z", "z", "y", "1"):
            if rng.random() < 0.6:
                coeff = f"{rng.choice((-2, -1, 1, 3))}*{rng.choice(('1', 'a', 'b', 'a*b', 'i*a'))}"
                terms.append(f"({coeff})*{mono}")
        return " + ".join(terms) or "x^2"

    c, d = rng.choice((1, -2, 3)), rng.choice((-1, 2))
    return f"""params a b
chart C0 : x y z
chart C1 : X Y Z @ X
chart C2 : P Q R @ P
system C0 : {component()} ; {component()} ; {component()}
map C0 C1 : 1/x ; y/x + {c}*a ; z/x | 1/X ; (Y - {c}*a)/X ; Z/X
map C0 C2 : 1/x ; (y - {d}*b*x)*x ; z + {c}*a*x | 1/P ; Q*P + {d}*b/P ; R - {c}*a/P
atlas resolved : C1 C2
"""


def ansatz_pushforward_rows(system) -> list[tuple]:
    """The holomorphy rows of the quadratic ansatz by brute force: write the
    whole 30-unknown ansatz down, over the model's table extended by unknowns
    named apart from its symbols, push it through a copy of each twisted
    chart map on that table, and read each coefficient of a negative boundary
    power as a linear form in the unknowns, one partial derivative per
    unknown, put back on the model's table. The pole part is read here, not
    by the code under test: over a denominator boundary^d, the numerator
    terms of boundary degree below d.

    Returns (chart position, component, state-exponent key, origin label,
    row) per row, in the order the pushforward's terms come.
    """
    from threewave.uniqueness import MONOMIAL_EXPONENTS

    m = models.model(system)
    count = 3 * len(MONOMIAL_EXPONENTS)
    names = names_apart(m.table, lambda pad: [f"c{pad}{i}" for i in range(1, count + 1)])
    unknowns = [parameter(n) for n in names]
    table = SymbolTable(m.table.symbols + tuple(unknowns))
    x, y, z = (MultiPoly.var(table, s) for s in m.base.vars)
    monomials = [x**a * y**b * z**c for a, b, c in MONOMIAL_EXPONENTS]
    comps = []
    for k in range(3):
        acc = MultiPoly.zero(table)
        for j, mono in enumerate(monomials):
            acc = acc + MultiPoly.var(table, unknowns[len(monomials) * k + j]) * mono
        comps.append(RationalFn.from_poly(acc))
    ansatz = VectorField(m.base, comps)
    slots = [table.index(c) for c in unknowns]
    out = []
    for pos, original in enumerate(m.atlas("resolved")[1:]):
        cmap = ChartMap(original.source, original.target,
                        [f.retable(table) for f in original.forward],
                        [g.retable(table) for g in original.inverse])
        w = pushforward(ansatz, cmap)
        boundary = cmap.target.boundary
        slot = table.index(boundary)
        for ci, comp in enumerate(w.components):
            d = comp.den.degree(boundary)
            assert comp.den == MultiPoly.var(table, boundary) ** d
            part = MultiPoly(table, {e: c for e, c in comp.num.terms.items() if e[slot] < d})
            for key, poly in part.split_by_state_monomial().items():
                # every coefficient is a linear form in the unknowns
                assert poly.terms and all(sum(e[s] for s in slots) == 1 and not c.is_zero()
                                          for e, c in poly.terms.items())
                row = tuple(poly.derivative(c).retable(m.table) for c in unknowns)
                monomial = MultiPoly(table, {key: ONE}).text()
                out.append((pos, ci, key, f"{cmap.target.name}:component{ci + 1}:{monomial}", row))
    return out


# dense quadratics in a, b, c with the solution (-1, -1, 2), where the leading
# coefficient b + c - 1 of the solver's generic pin a = (...)/(b + c - 1) vanishes
LEAD_VANISHES = (
    "4*a^2 + 8*a*b + 8*a*c + 2*b^2 + 3*b*c + 2*c^2 - 2*a + 5*b + 3*c - 3",
    "-2*a*b - 2*a*c - b*c - c^2 + 2*a + 2*b + c + 2",
    "a^2 + 3*a*b - a*c - b^2 - 3*b*c + 4*a - 2*b - 3*c - 3",
)


def on_branch(branch, point, table) -> bool:
    """Whether the solution ``point`` ({unknown: GaussianRational}) lies on
    the ``ConditionBranch``: each pinned value, with the point's values of
    the unpinned unknowns put in, is the point's value, and every residual
    vanishes there."""
    pins = dict(branch.pinned)
    free = {s: RationalFn.const(table, v) for s, v in point.items() if s not in pins}
    for s, value in branch.pinned:
        try:
            got = substitute(value, free, table) if free else value
        except DenominatorVanishes:
            return False
        if got != RationalFn.const(table, point[s]):
            return False
    return all(
        substitute(RationalFn.from_poly(r), free, table).is_zero() for r in branch.residuals
    )
