"""Differential tests of the parametric solver against SymPy (a test-only oracle).

Two kinds of seeded systems are solved by ``singular``: the dominant-balance equations of the benchmark's random
model fields (``bench/workloads.random_field``), solved for nonzero leading
coefficients, and random condition sets in one to three parameters, solved
by ``singular.solve_parameter_conditions``: products of affine factors in one
or two, and dense quadratics in two or three, on which the solver pins
through leading coefficients that can vanish. SymPy finds the solutions over Q(i)
from lex Groebner bases and factoring over Q(i), and samples a component on
which an unknown is free at a seeded value of it. Every such solution must
lie on a reported branch, and every branch without residuals must solve its
equations. The module is skipped where SymPy is not installed.
"""

import itertools
import random
from fractions import Fraction

import oracles
import pytest

from threewave import singular
from threewave.gaussian import GaussianRational
from threewave.geometry import Chart, VectorField
from threewave.parsing import parse_expr, parse_triple
from threewave.poly import MultiPoly
from threewave.ratfunc import RationalFn, substitute
from threewave.symbols import table

sympy = pytest.importorskip("sympy")

def to_sympy(p, names):
    if isinstance(p, RationalFn):
        return to_sympy(p.num, names) / to_sympy(p.den, names)
    out = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.re.numerator, c.re.denominator)
        term += sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        for s, d in zip(p.table.symbols, e):
            term *= names[s.name] ** d
        out += term
    return out


def _gaussian_roots(p, x):
    """The distinct roots of the univariate ``p`` in Q(i), from its linear
    factors over Q(i)."""
    out = []
    for f, _ in sympy.factor_list(p, x, gaussian=True)[1]:
        if sympy.degree(f, x) == 1:
            out.append(sympy.solve(f, x)[0])
    return out


def sympy_points(eqs, unknowns, rng):
    """The solutions of ``eqs`` over Q(i), keyed by unknown, from SymPy's
    lex Groebner bases: the last unknown runs over the Q(i) roots of the
    basis' polynomial in it alone, or takes a seeded value when there is
    none (a component along which it is free); then the rest is solved
    again with that value put in."""
    names = {s.name: sympy.Symbol(s.name) for s in eqs[0].table.symbols}
    syms = [names[u.name] for u in unknowns]

    def points(polys, syms):
        polys = [p for p in polys if p != 0]
        if not syms:
            return [] if polys else [{}]
        last = syms[-1]
        if polys:
            basis = sympy.groebner(polys, *syms, order="lex").exprs
            if basis == [1]:
                return []
            alone = [g for g in basis if g.free_symbols <= {last}]
        else:
            basis, alone = [], []
        if alone:
            values = _gaussian_roots(sympy.gcd_list(alone), last)
        else:
            values = [sympy.Rational(rng.randint(-7, 7), rng.randint(1, 3))]
        out = []
        for v in values:
            rest = [sympy.expand(g.subs(last, v)) for g in basis]
            out += [{**pt, last: v} for pt in points(rest, syms[:-1])]
        return out

    found = points([to_sympy(e, names) for e in eqs], syms)
    return [
        {u: GaussianRational(_fraction(sympy.re(pt[s])), _fraction(sympy.im(pt[s])))
         for u, s in zip(unknowns, syms)}
        for pt in found
    ]


def _fraction(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def solves(branch, eqs, table) -> bool:
    pins = dict(branch.pinned)
    return all(substitute(RationalFn.from_poly(e), pins, table).is_zero() for e in eqs)


def balance_systems():
    """The balance equations of the random fields of seeds 11, 12, ... (the
    first run of seeds dense in nonzero solutions over Q(i), seed 17 among
    them) for every pole-order triple in product order whose equations all
    have two or more terms (a single term has no nonzero solution)."""
    workloads = oracles.bench_workloads()
    t = table("x", "y", "z")
    chart = Chart("C", (t.get("x"), t.get("y"), t.get("z")))
    orders = [o for o in itertools.product(range(-2, 3), repeat=3) if max(o) >= 1]
    for seed in itertools.count(11):
        field = workloads.random_field(random.Random(seed))
        text = " ; ".join(workloads.field_text(field[k]) for k in range(3))
        v = VectorField(chart, parse_triple(text, t))
        work, leads, _ = singular._lead_setup(v)
        for o in orders:
            eqs = oracles.naive_balance_equations(v, o)
            if eqs and all(e.term_count() > 1 for e in eqs):
                yield seed, o, eqs, leads, work


def test_balance_branches_cover_the_sympy_solutions():
    # about one system in five has a nonzero solution over Q(i); stop after 10
    rng = random.Random(11)
    checked = 0
    for seed, orders, eqs, leads, work in balance_systems():
        branches = singular.solve_branches(eqs, leads, work, nonzero=True)
        for b in branches:
            assert b.residuals or solves(b, eqs, work), (seed, orders, b.text())
        for point in sympy_points(eqs, leads, rng):
            if any(v == 0 for v in point.values()):
                continue  # a vanishing leading coefficient is no balance
            checked += 1
            assert any(oracles.on_branch(b, point, work) for b in branches), (seed, orders, point)
        if checked >= 10:
            break


def _random_linear(rng, t, names):
    out = MultiPoly.const(t, Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
    for n in names:
        out = out + MultiPoly.var(t, n) * rng.choice((-2, -1, 0, 1, 1, 2))
    return out


def condition_sets(count):
    """Seeded sets of one to three conditions in delta (and gamma): products
    of one to three random affine factors, so that most have roots in Q(i),
    sometimes times an irreducible quadratic."""
    rng = random.Random(2010)
    t = table("delta:parameter", "gamma:parameter")
    d = MultiPoly.var(t, "delta")
    for _ in range(count):
        names = rng.choice((("delta",), ("delta", "gamma")))
        conds = []
        for _ in range(rng.randint(1, 3)):
            c = MultiPoly.const(t, 1)
            for _ in range(rng.randint(1, 3)):
                c = c * _random_linear(rng, t, names)
            if rng.random() < 0.2:
                c = c * (d * d - 2)
            if not c.is_constant():
                conds.append(c)
        if conds:
            yield t, conds


def dense_condition_sets(count):
    """``oracles.LEAD_VANISHES``, then seeded sets of two or three
    conditions in as many of a, b, c: each a product of two random affine
    factors plus another, so that most leading coefficients involve the
    other unknowns and the solver pins generically."""
    rng = random.Random(2011)
    t = table("a:parameter", "b:parameter", "c:parameter")
    yield t, [parse_expr(e, t).num for e in oracles.LEAD_VANISHES]
    for _ in range(count):
        names = ("a", "b", "c")[: rng.choice((2, 3))]
        conds = []
        for _ in names:
            c = _random_linear(rng, t, names) * _random_linear(rng, t, names)
            c = c + _random_linear(rng, t, names) * _random_linear(rng, t, names)
            if not c.is_constant():
                conds.append(c)
        if conds:
            yield t, conds


def test_condition_branches_cover_the_sympy_solutions():
    rng = random.Random(12)
    checked = 0
    for t, conds in itertools.chain(condition_sets(40), dense_condition_sets(20)):
        params = sorted({s for c in conds for s in c.variables()}, key=lambda s: s.name)
        branches = singular.solve_parameter_conditions(conds)
        for b in branches:
            assert b.residuals or solves(b, conds, t), ([c.text() for c in conds], b.text())
        for point in sympy_points(conds, params, rng):
            checked += 1
            assert any(oracles.on_branch(b, point, t) for b in branches), ([c.text() for c in conds], point)
    assert checked > 0
