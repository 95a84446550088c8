"""Differential tests of the exact kernel against SymPy (a test-only oracle).

Seeded random polynomials over Q(i) in a main variable x and up to two
parameters a, b are checked against ``sympy.resultant``, ``sympy.roots`` and
``sympy.factor_list(..., gaussian=True)``; ``poly_gcd`` is checked against
``sympy.gcd(..., gaussian=True)`` on operands drawn by Hypothesis. The module
is skipped where SymPy or Hypothesis is not installed.
"""

import random
from fractions import Fraction

import pytest

from threewave.gaussian import GaussianRational
from threewave.poly import MultiPoly, poly_gcd, poly_sqrt, resultant
from threewave.ratfunc import RationalFn
from threewave.roots import find_roots
from threewave.symbols import table

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

T = table("x", "a:parameter", "b:parameter")
X = T.get("x")
SYMS = sympy.symbols("x a b")


def _number(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def to_sympy(p) -> "sympy.Expr":
    if isinstance(p, RationalFn):
        return to_sympy(p.num) / to_sympy(p.den)
    out = sympy.Integer(0)
    syms = sympy.symbols([s.name for s in p.table.symbols])
    for e, c in p.terms.items():
        term = _number(c.re) + sympy.I * _number(c.im)
        for s, d in zip(syms, e):
            term *= s**d
        out += term
    return sympy.expand(out)


def random_poly(rng, names, terms, degree) -> MultiPoly:
    """Up to ``terms`` terms with coefficients in Q(i) and every exponent of
    the symbols ``names`` at most ``degree``."""
    p = MultiPoly.zero(T)
    for _ in range(terms):
        c = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.choice((0, 0, rng.randint(-2, 2))))
        m = MultiPoly.const(T, c)
        for name in names:
            m = m * MultiPoly.var(T, name) ** rng.randint(0, degree)
        p = p + m
    return p


def _nonconstant_in_x(rng, names, terms, degree) -> MultiPoly:
    while True:
        p = random_poly(rng, names, terms, degree)
        if p.degree(X) > 0:
            return p


def test_resultant_matches_sympy():
    rng = random.Random(5)
    for names in (["x", "a"], ["x", "a", "b"], ["x", "a", "b"]):
        f = _nonconstant_in_x(rng, ["x", "a"], 3, 2)
        g = _nonconstant_in_x(rng, names, 3, 2)
        got = to_sympy(resultant(f, g, X))
        want = sympy.resultant(to_sympy(f), to_sympy(g), SYMS[0])
        assert sympy.expand(got - want) == 0, (f.text(), g.text())


def test_every_root_is_a_root_per_sympy():
    rng = random.Random(11)
    for _ in range(6):
        p = _nonconstant_in_x(rng, ["x", "a", "b"], 4, 3)
        P = to_sympy(p)
        for r in find_roots(p, X).roots:
            assert sympy.cancel(P.subs(SYMS[0], to_sympy(r))) == 0, (p.text(), r.text())


def test_fully_split_roots_have_sympy_multiplicities():
    rng = random.Random(9)
    x = MultiPoly.var(T, "x")
    for _ in range(3):
        factors = [x - random_poly(rng, ["a"], 2, 1) for _ in range(rng.randint(2, 3))]
        factors.append(rng.choice(factors))  # one repeated root
        p = MultiPoly.const(T, GaussianRational(2, 1))
        for f in factors:
            p = p * f
        result = find_roots(p, X)
        assert result.fully_split()
        ours = [to_sympy(r) for r in result.roots]
        want = sympy.roots(to_sympy(p), SYMS[0])
        assert sum(want.values()) == len(ours) == p.degree(X)
        for root, mult in want.items():
            assert sum(1 for r in ours if sympy.cancel(r - root) == 0) == mult, (p.text(), root)


def test_poly_sqrt_of_a_square_is_plus_or_minus_the_root():
    rng = random.Random(13)
    for _ in range(6):
        p = random_poly(rng, ["x", "a", "b"], 3, 2)
        root = poly_sqrt(p * p)
        assert root is not None and (root == p or root == -p), p.text()


def test_poly_sqrt_refuses_an_odd_factor_exponent():
    rng = random.Random(17)
    refused = 0
    for _ in range(6):
        q = random_poly(rng, ["x", "a"], 3, 2)
        if rng.random() < 0.5:
            q = q * q * random_poly(rng, ["x", "a"], 2, 1)
        _, factors = sympy.factor_list(to_sympy(q), gaussian=True)
        if any(e % 2 for _, e in factors):
            assert poly_sqrt(q) is None, q.text()
            refused += 1
    assert refused


# operands g*a1 and g*b1 over x, y, z, w: the supports of a1 and b1 overlap in
# part, are nested, or are equal, and the common factor g lives on the overlap
GCD_TABLE = table("x", "y", "z", "w:parameter")
SUPPORTS = {
    "partial": ("xyz", "xyw", "xy"),
    "nested": ("xyz", "xy", "xy"),
    "equal": ("xyz", "xyz", "xyz"),
}
gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.sampled_from((0, 0, 1, -2)),
)


@st.composite
def polys_on(draw, names: str, max_terms: int, max_degree: int) -> MultiPoly:
    """A polynomial in exactly the variables ``names``: random terms plus one
    term in all of them."""
    k = [GCD_TABLE.index(n) for n in names]
    full = tuple(1 if j in k else 0 for j in range(len(GCD_TABLE)))
    terms = {full: GaussianRational(1)}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = [0] * len(GCD_TABLE)
        for j in k:
            exp[j] = draw(st.integers(0, max_degree))
        c = draw(gaussians)
        terms[tuple(exp)] = terms.get(tuple(exp), GaussianRational(0)) + c
    if terms[full].is_zero():
        terms[full] = GaussianRational(1)
    return MultiPoly(GCD_TABLE, terms)


@st.composite
def gcd_operands(draw):
    a_vars, b_vars, g_vars = SUPPORTS[draw(st.sampled_from(sorted(SUPPORTS)))]
    g = draw(polys_on(g_vars, 2, 1))
    return g * draw(polys_on(a_vars, 3, 2)), g * draw(polys_on(b_vars, 3, 2))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(gcd_operands())
def test_gcd_matches_sympy_up_to_a_unit(operands):
    a, b = operands
    d = poly_gcd(a, b)
    assert d.leading_coefficient().is_one()
    unit = sympy.cancel(to_sympy(d) / sympy.gcd(to_sympy(a), to_sympy(b), gaussian=True))
    assert unit != 0 and not unit.free_symbols, (a.text(), b.text(), d.text())
