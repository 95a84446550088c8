"""Property tests of the exact kernel against independent oracles.

``GaussianRational`` is checked against plain ``(Fraction, Fraction)``
arithmetic, the packed monomial keys against ``(total degree, exponents)``
tuples, ``MultiPoly`` products (constant operands included) and their hashes
against ``oracles.naive_mul``, ``specialize``, ``value_at`` and ``vanishes``
against ``oracles.naive_substitute_poly``, ``retable`` against
``oracles.naive_retable``, the cached text of polynomials and coefficients
against ``oracles.naive_text``, and the Laurent tail of ``RationalFn`` by
reassembling it.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_mul, naive_retable, naive_substitute_poly, naive_text
from threewave.errors import NotDivisible, SymbolTableMismatch
from threewave.gaussian import GaussianRational, gr
from threewave.poly import MultiPoly, _layout, compose
from threewave.ratfunc import RationalFn, value_at, vanishes
from threewave.symbols import SymbolTable, parameter, table

KERNEL = settings(max_examples=100, deadline=None, database=None, derandomize=True)

# denominators up to 60 include 2, 5 and 13, which split in Z[i]
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
pairs = st.tuples(fractions, fractions)


def _canonical(z: GaussianRational) -> bool:
    """The stored triple (a, b, d) has d > 0 and gcd(a, b, d) == 1."""
    return z._d > 0 and gcd(z._a, z._b, z._d) == 1


def _value(p: tuple[Fraction, Fraction]) -> GaussianRational:
    z = gr(*p)
    assert _canonical(z)
    return z


def _mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


def _pow(p, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _mul(out, p)
    return out if n >= 0 else _div((Fraction(1), Fraction(0)), out)


def _is(z: GaussianRational, p) -> bool:
    return _canonical(z) and z.re == p[0] and z.im == p[1]


@KERNEL
@given(pairs, pairs)
def test_field_operations_match_fraction_pairs(p, q):
    x, y = _value(p), _value(q)
    assert _is(x + y, (p[0] + q[0], p[1] + q[1]))
    assert _is(x - y, (p[0] - q[0], p[1] - q[1]))
    assert _is(-x, (-p[0], -p[1]))
    assert _is(x * y, _mul(p, q))
    if q != (0, 0):
        assert _is(x / y, _div(p, q))
        assert _is(y.inverse(), _div((1, 0), q))


@KERNEL
@given(pairs, st.integers(min_value=-4, max_value=6))
def test_powers_match_repeated_products(p, n):
    if n < 0 and p == (0, 0):
        return
    assert _is(_value(p) ** n, _pow(p, n))


@KERNEL
@given(pairs, fractions, st.integers(min_value=-10**6, max_value=10**6))
def test_equality_and_hash_agree_with_int_and_fraction(p, q, k):
    x = _value(p)
    assert x == gr(*p) and hash(x) == hash(gr(*p))
    assert gr(q) == q and hash(gr(q)) == hash(q)
    assert gr(k) == k and hash(gr(k)) == hash(k)
    if p[1] == 0:
        assert x == p[0] and hash(x) == hash(p[0])
    else:
        assert x != p[0] and hash(x) == hash(p)


@KERNEL
@given(pairs)
def test_sqrt_finds_exactly_the_squares(p):
    x = _value(p)
    root = (x * x).sqrt()
    assert root is not None and (root == x or root == -x)
    r = x.sqrt()
    if r is not None:
        assert _is(r * r, p)


exponent_vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 300), min_size=n, max_size=n),
        st.lists(st.integers(0, 300), min_size=n, max_size=n),
    )
)


@KERNEL
@given(exponent_vectors)
def test_packed_keys_order_and_add_like_grlex_tuples(ef):
    e, f = (tuple(v) for v in ef)
    lay = _layout(len(e))
    ke, kf = lay.pack(e), lay.pack(f)
    assert lay.unpack(ke) == e
    assert (ke < kf) == ((sum(e), e) < (sum(f), f))
    assert ke + kf == lay.pack(tuple(a + b for a, b in zip(e, f)))


T = table("x", "y", "z", "delta:parameter")
small_exponents = st.tuples(*[st.integers(0, 3)] * len(T))
polys = st.dictionaries(small_exponents, pairs.filter(lambda p: p != (0, 0)), max_size=5).map(
    lambda terms: MultiPoly(T, {e: gr(*c) for e, c in terms.items()})
)


# 0, 1, -1, a real fraction and a Gaussian value
CONSTANTS = [gr(0), gr(1), gr(-1), gr(Fraction(-7, 12)), gr(Fraction(3, 5), Fraction(-2, 13))]


@KERNEL
@given(polys, polys)
def test_products_match_the_naive_oracle_and_divide_back(p, q):
    product = p * q
    assert product == naive_mul(p, q)
    assert hash(product) == hash(naive_mul(p, q))  # built in another term order
    if not q.is_zero():
        assert product.exact_divide(q) == p
        if not q.is_constant():
            with pytest.raises(NotDivisible):
                (product + 1).exact_divide(q)
    # a constant operand on either side scales p's coefficients in p's term order
    for k in CONSTANTS:
        c = MultiPoly.const(T, k)
        for product, want in ((p * c, naive_mul(p, c)), (c * p, naive_mul(c, p))):
            assert product == want and hash(product) == hash(want)
            if not k.is_zero():
                assert list(product.terms) == list(p.terms)
                assert product.exact_divide(c) == p
    one = MultiPoly.const(T, 1)
    assert p.is_zero() or (p * one is p and one * p is p)


@KERNEL
@given(small_exponents, small_exponents)
def test_monomial_divisibility_is_fieldwise(e, f):
    me, mf = MultiPoly(T, {e: gr(1)}), MultiPoly(T, {f: gr(1)})
    assert me.divides(mf) == all(a <= b for a, b in zip(e, f))


@KERNEL
@given(polys, st.dictionaries(st.sampled_from(T.symbols), pairs, max_size=len(T)))
def test_specialize_matches_substitute_of_the_same_constants(p, values):
    bindings = {s: gr(*c) for s, c in values.items()}
    if bindings:
        constants = {s: RationalFn.const(T, v) for s, v in bindings.items()}
        assert RationalFn.from_poly(p.specialize(bindings)) == naive_substitute_poly(p, constants)
    # a value for a symbol that does not occur builds no new polynomial
    absent = {s: v for s, v in bindings.items() if s not in p.variables()}
    assert p.specialize(absent) is p
    assert all(p.specialize({s: gr(2)}) is p for s in T.symbols if s not in p.variables())


@KERNEL
@given(polys, st.permutations(T.symbols))
def test_retable_matches_a_naive_rekey_by_name(p, order):
    # compose with nothing bound re-keys by name: onto an extension (the old
    # table a prefix), a permutation with a new symbol first, and the
    # restriction to the symbols that occur; each goes back onto T
    # unchanged, and a table without an occurring symbol is refused
    used = p.variables()
    targets = [
        T.extend([parameter("lead1")]),
        SymbolTable([parameter("lead1"), *order]),
        SymbolTable([s for s in order if s in used]),
    ]
    for target in targets:
        (moved,) = compose((p,), {}, target)
        assert moved == naive_retable(p, target)
        assert compose((moved,), {}, T) == [p]
    if used:
        with pytest.raises(SymbolTableMismatch, match=repr(used[-1].name)):
            compose((p,), {}, SymbolTable([s for s in order if s != used[-1]]))


@KERNEL
@given(polys, polys, st.dictionaries(st.sampled_from(T.symbols), pairs, min_size=1, max_size=len(T)),
       st.booleans())
def test_value_at_and_vanishes_match_the_naive_oracle(p, q, values, root):
    bindings = {s: RationalFn.const(T, gr(*c)) for s, c in values.items()}
    if root:  # q vanishes at the bindings by construction
        s, c = next(iter(values.items()))
        q = q * (MultiPoly.var(T, s) - gr(*c))
    want = [naive_substitute_poly(f, bindings) for f in (p, q)]
    assert [value_at(f, bindings, T) for f in (p, q)] == want
    assert vanishes((q,), bindings, T) == want[1].is_zero()
    assert vanishes((p, q), bindings, T) == (want[0].is_zero() and want[1].is_zero())


# tables of 1 to 48 symbols, states and parameters, with sparse monomials and
# coefficients 0, +-1, +-i, integers, fractions, pure imaginary and compound
NAMES = ["x", "y", "z", "delta", "gamma", "alpha5", "X1", "Y1", "Z1", "lead1"] + [
    f"c{k}" for k in range(1, 39)
]
tables = st.integers(1, len(NAMES)).flatmap(
    lambda n: st.permutations(NAMES).map(
        lambda names: table(*(f"{s}:parameter" if k % 3 == 2 else s for k, s in enumerate(names[:n])))
    )
)
coefficients = st.one_of(
    st.sampled_from([gr(0), gr(1), gr(-1), gr(0, 1), gr(0, -1),
                     gr(Fraction(-1, 2)), gr(0, Fraction(-1, 3))]),
    st.integers(-10**6, 10**6).map(gr),
    fractions.map(gr),
    fractions.map(lambda f: gr(0, f)),
    pairs.map(lambda p: gr(*p)),
)


def _sparse_polys(t: SymbolTable):
    n = len(t)
    monomials = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), max_size=4).map(
        lambda exps: tuple(exps.get(k, 0) for k in range(n))
    )
    return st.dictionaries(monomials, coefficients, max_size=6).map(lambda terms: MultiPoly(t, terms))


@KERNEL
@given(tables.flatmap(_sparse_polys), coefficients)
def test_text_matches_the_naive_renderer_and_is_never_stale(p, c):
    assert c.text() == naive_text(c)
    assert p.text() == naive_text(p)  # cached before the values derived from p
    t = p.table
    k = MultiPoly.const(t, c)
    derived = [
        -p, p * c, p * k, k * p,
        *compose((p,), {}, SymbolTable(reversed(t.symbols))),
        *compose((p,), {}, t.extend([parameter("new")])),
        p.specialize({s: c for s in p.variables()[:2]}),
    ]
    for q in derived:
        first = q.text()
        assert first == naive_text(q)
        assert q.text() == first
        assert str(q) == first and repr(q) == f"MultiPoly({first})"


_y, _z, _delta = (MultiPoly.var(T, s) for s in ("y", "z", "delta"))
other_factors = st.sampled_from([_y, _y + _delta, _z - 1])


@KERNEL
@given(polys, st.integers(0, 3), other_factors)
def test_laurent_tail_reassembles_and_refuses_other_denominators(num, d, q):
    x = T.get("x")
    f = RationalFn(num, MultiPoly.var(T, x) ** d)
    tail = f.laurent(x)
    assert all(x not in c.variables() for c in tail.values())
    X = RationalFn.var(T, x)
    assert sum((RationalFn.from_poly(c) * X**k for k, c in tail.items()), RationalFn.const(T, 0)) == f
    # another factor of the denominator survives reduction unless it divides num
    g = RationalFn(num, MultiPoly.var(T, x) ** d * q)
    if q.divides(num):
        g.laurent(x)
    else:
        with pytest.raises(ValueError, match="is not a power of x"):
            g.laurent(x)
