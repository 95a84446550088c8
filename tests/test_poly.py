import random
from fractions import Fraction

import pytest

from oracles import naive_mul
from threewave.errors import NotDivisible, SymbolTableMismatch
from threewave.gaussian import gr
from threewave.poly import MAX_DEGREE, MultiPoly, poly_gcd, poly_sqrt, resultant
from threewave.symbols import table


@pytest.fixture()
def xyz():
    t = table("x", "y", "z", "delta:parameter", "gamma:parameter")
    return t, MultiPoly.var(t, "x"), MultiPoly.var(t, "y"), MultiPoly.var(t, "z")


def _random_poly(t, rng, nterms=4, maxdeg=2):
    terms = {}
    n = len(t)
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) if rng.random() < 0.5 else 0 for _ in range(n))
        terms[exp] = gr(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return MultiPoly(t, terms)


def test_difference_of_squares(xyz):
    t, x, y, z = xyz
    assert (x + y) * (x - y) == x * x - y * y


def test_additive_identity(xyz):
    t, x, y, z = xyz
    p = 2 * y + z
    assert MultiPoly.zero(t) + p == p


def test_scalar_times_parameter_matches_naive_oracle(xyz):
    t, x, y, z = xyz
    g = MultiPoly.var(t, "gamma")
    prod = (2 * y * y) * g
    assert prod == naive_mul(2 * y * y, g)
    assert prod.text() == "2*y^2*gamma"


def test_mul_matches_naive_oracle_randomly(xyz):
    t, *_ = xyz
    rng = random.Random(11)
    for _ in range(40):
        a = _random_poly(t, rng)
        b = _random_poly(t, rng)
        assert a * b == naive_mul(a, b)


def test_table_mismatch_rejected(xyz):
    t, x, *_ = xyz
    other = table("x", "y")
    with pytest.raises(SymbolTableMismatch):
        x + MultiPoly.var(other, "y")


def test_exact_divide_examples(xyz):
    t, x, y, z = xyz
    assert (x * x - y * y).exact_divide(x - y) == x + y
    with pytest.raises(NotDivisible) as exc:
        x.exact_divide(y)
    assert exc.value.remainder is not None
    d, g = MultiPoly.var(t, "delta"), MultiPoly.var(t, "gamma")
    u = x
    p = d * g * u * u + u * u * u
    assert p.exact_divide(u) == d * g * u + u * u


def test_divide_then_remultiply_randomly(xyz):
    t, *_ = xyz
    rng = random.Random(5)
    for _ in range(60):
        a = _random_poly(t, rng, nterms=3)
        b = _random_poly(t, rng, nterms=3)
        if b.is_zero():
            continue
        assert (a * b).exact_divide(b) == a


def test_gcd_of_products(xyz):
    t, x, y, z = xyz
    rng = random.Random(9)
    for _ in range(25):
        g = _random_poly(t, rng, nterms=2, maxdeg=1)
        if g.is_zero() or g.is_constant():
            g = x + y
        a = g * _random_poly(t, rng, nterms=2)
        b = g * _random_poly(t, rng, nterms=2)
        if a.is_zero() or b.is_zero():
            continue
        d = poly_gcd(a, b)
        # the common factor divides the gcd, and the gcd divides both
        assert d.divides(a) and d.divides(b)
        assert g.divides(d) or g.monic() == d


def test_monomial_content_is_the_fieldwise_minimum(xyz):
    t = xyz[0]
    rng = random.Random(17)
    for _ in range(50):
        p = _random_poly(t, rng, nterms=rng.randint(1, 5), maxdeg=3)
        if p.is_zero():
            continue
        mins = tuple(min(col) for col in zip(*p.terms))
        assert p.monomial_content() == MultiPoly(t, {mins: gr(1)})
        mono = MultiPoly(t, {tuple(rng.randint(0, 3) for _ in range(len(t))): gr(2)})
        both = tuple(min(col) for col in zip(*p.terms, *mono.terms))
        assert poly_gcd(mono, p) == MultiPoly(t, {both: gr(1)})
    assert MultiPoly.zero(t).monomial_content() == MultiPoly.const(t, 1)


def test_gcd_of_the_largest_symmetry_report_case_leaves_coprime_cofactors(monkeypatch):
    # the largest gcd that symmetry_report asks for: a numerator of over a
    # hundred terms in eight variables against a denominator in y and alpha5
    from threewave import ratfunc, reports

    seen = []

    def record(a, b):
        seen.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(ratfunc, "poly_gcd", record)
    reports.symmetry_report()
    monkeypatch.undo()
    a, b = max(seen, key=lambda ab: ab[0].term_count())
    assert a.term_count() > 100 and len(a.variables()) == 8
    assert {s.name for s in b.variables()} == {"y", "alpha5"}
    g = poly_gcd(a, b)
    assert g.text() == "y-alpha5"
    ca, cb = a.exact_divide(g), b.exact_divide(g)
    assert ca * g == a and cb * g == b
    assert poly_gcd(ca, cb) == MultiPoly.const(a.table, 1)


def test_gcd_disjoint_supports_is_one(xyz):
    t, x, y, z = xyz
    assert poly_gcd(2 * x, 3 * y) == MultiPoly.const(t, 1)


def test_poly_sqrt(xyz):
    t, x, y, z = xyz
    base = x * x + 2 * y - z
    sq = base * base
    r = poly_sqrt(sq)
    assert r is not None and r * r == sq
    assert poly_sqrt(x * y) is None
    c = MultiPoly.const(t, gr(-9))
    r2 = poly_sqrt(c)
    assert r2 is not None and r2 * r2 == c


def test_derivative_and_leibniz(xyz):
    t, x, y, z = xyz
    rng = random.Random(2)
    for _ in range(20):
        a = _random_poly(t, rng)
        b = _random_poly(t, rng)
        lhs = (a * b).derivative("y")
        rhs = a.derivative("y") * b + a * b.derivative("y")
        assert lhs == rhs


def test_resultant_eliminates_common_root(xyz):
    t, x, y, z = xyz
    # a common factor of positive degree in y makes the resultant vanish
    f = (y - z) * (y + 1)
    g = (y - z) * (y - 2)
    assert resultant(f, g, t.get("y")).is_zero()
    # coprime in y: nonzero resultant
    assert not resultant(y - 1, y - 2, t.get("y")).is_zero()
    # root of the eliminant is the z-value where the pair becomes solvable
    r = resultant(y - z, y - 1, t.get("y"))
    assert r in (z - 1, 1 - z) or r == -(z - 1)


def test_resultant_of_classic_pair():
    t = table("Y", "Z")
    Y, Z = MultiPoly.var(t, "Y"), MultiPoly.var(t, "Z")
    r = resultant(2 * Y**3 + 2 * Y, 2 * Z * Y**2 - 2 * Z, t.get("Y"))
    assert r == -128 * Z**3


def test_grlex_leading_term(xyz):
    t, x, y, z = xyz
    p = x + y * y  # y^2 has higher total degree
    assert p.sorted_terms()[0][0][t.index("y")] == 2
    q = x * y + y * z  # same degree: lex on table order picks x*y
    assert q.sorted_terms()[0][0][t.index("x")] == 1


def test_canonical_text_round_trip_via_sorted_terms(xyz):
    t, x, y, z = xyz
    p = 3 * x * x - y + MultiPoly.const(t, gr(1, 2)) * z
    assert p.text() == "3*x^2-y+(1+2*i)*z"


def test_specialize_and_eval(xyz):
    t, x, y, z = xyz
    p = x * y + 2 * z
    val = p.specialize({t.get("x"): gr(2), t.get("y"): gr(3), t.get("z"): gr(0, 1)})
    assert val.constant_value() == gr(6, 2)


def test_degree_beyond_the_packed_field_raises():
    t = table("x", "y")
    x_top = MultiPoly(t, {(MAX_DEGREE, 0): gr(1)})
    assert x_top.sorted_terms()[0][0] == (MAX_DEGREE, 0)
    assert x_top.total_degree() == MAX_DEGREE
    y = MultiPoly.var(t, "y")
    with pytest.raises(ValueError, match="exceeds"):
        MultiPoly(t, {(MAX_DEGREE, 1): gr(1)})
    with pytest.raises(ValueError, match="exceeds"):
        x_top * y
    with pytest.raises(ValueError, match="exceeds"):
        x_top.shift_var("y", 1)
    with pytest.raises(ValueError, match="exceeds"):
        y ** (MAX_DEGREE + 1)
    with pytest.raises(ValueError, match="negative"):
        MultiPoly(t, {(-1, 2): gr(1)})
