import random
from fractions import Fraction

import pytest

from oracles import differential_maps, naive_substitute, naive_substitute_poly, random_ratfn
from threewave.errors import DenominatorVanishes
from threewave.gaussian import gr
from threewave.poly import MAX_DEGREE, MultiPoly, poly_gcd
from threewave.ratfunc import RationalFn, substitute, vanishes
from threewave.symbols import table


def test_reduction_and_normalization():
    t = table("x", "y", "z", "delta:parameter")
    x, y, z = (RationalFn.var(t, n) for n in ("x", "y", "z"))
    r = (x * x - y * y) / ((x - y) * z)
    assert r.num == (MultiPoly.var(t, "x") + MultiPoly.var(t, "y"))
    assert r.den == MultiPoly.var(t, "z")
    # denominator stays monic: leading coefficient folded into the numerator
    r2 = x / (2 * z)
    assert r2.den.leading_coefficient().is_one()
    assert r2 * 2 * z == x


def test_reduction_invariant_randomly():
    t = table("x", "y", "delta:parameter")
    rng = random.Random(13)

    def rand_poly():
        terms = {}
        for _ in range(3):
            exp = tuple(rng.randint(0, 2) for _ in range(len(t)))
            terms[exp] = gr(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return MultiPoly(t, terms)

    for _ in range(60):
        num, den = rand_poly(), rand_poly()
        if den.is_zero():
            continue
        r = RationalFn(num, den)
        g = poly_gcd(r.num, r.den)
        assert g.is_constant()
        for op in (r + r, r * r, 1 - r):
            g = poly_gcd(op.num, op.den)
            assert g.is_constant()


def test_products_quotients_and_powers_match_the_reducing_constructor():
    # the operators cancel before multiplying; the result must be the one
    # reduced form of the plain product
    t = table("x", "y", "z", "a:parameter")
    x, y, z = (RationalFn.var(t, n) for n in ("x", "y", "z"))
    # retabled to the reverse order, a denominator x + 2y leads with 2y, and
    # retable makes it monic again
    flipped = table(*reversed(t.symbols))
    odd = ((x + 1) / (x + 2 * y)).retable(flipped)
    assert odd.den.leading_coefficient().is_one()
    pairs = [(odd, ((x + 2 * y) / (z - 1)).retable(flipped)), (odd, odd)]
    rng = random.Random(29)
    syms = list(t.symbols)
    pairs += [(random_ratfn(rng, t, syms), random_ratfn(rng, t, syms)) for _ in range(80)]
    for r1, r2 in pairs:
        assert r1 * r2 == RationalFn(r1.num * r2.num, r1.den * r2.den), (r1, r2)
        if not r2.is_zero():
            assert r1 / r2 == RationalFn(r1.num * r2.den, r1.den * r2.num), (r1, r2)
        n = rng.randint(0, 3)
        assert r1**n == RationalFn(r1.num**n, r1.den**n), (r1, n)
        if not r1.is_zero():
            assert r1 ** -n == RationalFn(r1.den**n, r1.num**n), (r1, -n)


def test_retable_onto_a_new_order_keeps_the_canonical_form():
    # on (a, z, y, x) the denominator x + 2y leads with 2y; the value must
    # equal, and hash like, the reducing constructor of its own parts
    t = table("x", "y")
    x, y = RationalFn.var(t, "x"), RationalFn.var(t, "y")
    g = (x + 1) / (x + 2 * y)
    r = g.retable(table("a:parameter", "z", "y", "x"))
    assert r.text() == "(1/2*x+1/2)/(y+1/2*x)"
    assert r == RationalFn(r.num, r.den) and hash(r) == hash(RationalFn(r.num, r.den))
    assert r.retable(t) == g


def test_field_arithmetic_consistency():
    t = table("x", "y")
    x, y = RationalFn.var(t, "x"), RationalFn.var(t, "y")
    a = x / y
    b = (x + 1) / (y - x)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - a == 0 * a
    assert (a / a) == RationalFn.const(t, 1)


def test_substitute_reciprocal_chart():
    t = table("x", "y", "z")
    t2 = table("X1", "Y1", "Z1")
    f = RationalFn.var(t, "x")
    X1 = RationalFn.var(t2, "X1")
    out = substitute(f, {t.get("x"): 1 / X1}, t2)
    assert out == 1 / X1


def test_substitute_constant_evaluation():
    t = table("x", "y", "z")
    y, z = RationalFn.var(t, "y"), RationalFn.var(t, "z")
    f = z / y
    out = substitute(f, {t.get("y"): RationalFn.const(t, 1), t.get("z"): RationalFn.const(t, 0)}, t)
    assert out.is_zero()


def test_substitute_vanishing_denominator_detected():
    t = table("x", "y")
    x, y = RationalFn.var(t, "x"), RationalFn.var(t, "y")
    f = 1 / (x - y)
    with pytest.raises(DenominatorVanishes):
        substitute(f, {t.get("x"): y, t.get("y"): y}, t)


def test_substitution_composition_law():
    # substitute(substitute(f, phi), psi) == substitute(f, psi o phi)
    t = table("x", "y")
    x, y = RationalFn.var(t, "x"), RationalFn.var(t, "y")
    rng = random.Random(4)
    for _ in range(15):
        f = (x + 2 * y) / (1 + x * y)
        phi = {t.get("x"): x * y + 1, t.get("y"): y - x}
        psi = {t.get("x"): 1 / (1 + x), t.get("y"): x * y}
        lhs = substitute(substitute(f, phi, t), psi, t)
        composed = {s: substitute(e, psi, t) for s, e in phi.items()}
        rhs = substitute(f, composed, t)
        assert lhs == rhs
        f = f * x - rng.randint(0, 3)  # vary the input a little each round


def test_substitute_matches_naive_oracle():
    t = table("x", "y", "z")
    x, y, z = (RationalFn.var(t, n) for n in ("x", "y", "z"))
    f = (x * x - y) / (z * z + 1)
    bindings = {t.get("x"): 1 / z, t.get("y"): y * z, t.get("z"): (x + y) / (1 + z)}
    assert substitute(f, bindings, t) == naive_substitute(f, bindings)
    # seeded bindings of each shape: constants, polynomials (denominator 1)
    # and a monomial over a monomial, with unbound symbols carried into a
    # target table with more symbols
    rng = random.Random(19)
    t = table("x", "y", "z", "a:parameter")
    big = table("x", "y", "z", "a:parameter", "u", "v")
    syms = [t.get(n) for n in ("x", "y", "z", "a")]
    targets = [big.get(n) for n in ("x", "y", "u", "v", "a")]

    def monomial():
        out = RationalFn.const(big, gr(rng.choice((-2, -1, 1, 3)), rng.choice((0, 1))))
        for _ in range(rng.randint(0, 3)):
            out = out * RationalFn.var(big, rng.choice(targets))
        return out

    shapes = (
        lambda: RationalFn.const(big, gr(rng.choice((-1, 0, 2)), rng.choice((0, 1)))),
        lambda: RationalFn.from_poly(random_ratfn(rng, big, targets).num),
        lambda: monomial() / monomial(),
    )
    for _ in range(60):
        f = random_ratfn(rng, t, syms)
        bound = rng.sample(syms[:3], rng.randint(1, 3))
        bindings = {big.get(s.name): rng.choice(shapes)() for s in bound}
        try:
            want = naive_substitute(f, bindings)
        except ZeroDivisionError:
            with pytest.raises(DenominatorVanishes):
                substitute(f, bindings, big)
            continue
        assert substitute(f, bindings, big) == want, (f, bindings)


@pytest.mark.parametrize("target", ["same", "reordered"])
def test_unbound_symbols_pass_through_as_the_naive_oracle_composes(target):
    # the parameters a, b and the unbound states ride along as key offsets:
    # on the same table, and re-keyed by name on a table that is not a
    # prefix extension of the source (other order, a symbol between)
    rng = random.Random(41 if target == "same" else 43)
    t = table("x", "y", "z", "a:parameter", "b:parameter")
    out = t if target == "same" else table("b:parameter", "w", "z", "y", "a:parameter", "x")
    syms = list(t.symbols)
    targets = [s for s in out.symbols if s.name != "b"]

    def monomial():
        e = [0] * len(out)
        for _ in range(rng.randint(0, 2)):
            e[out.index(rng.choice(targets))] += 1
        return MultiPoly(out, {tuple(e): gr(rng.choice((-2, -1, 1, 3)), rng.choice((0, 1)))})

    shapes = (
        lambda: RationalFn.const(out, gr(rng.choice((-1, 0, 2)), rng.choice((0, 1)))),
        lambda: RationalFn(monomial(), monomial()),
        lambda: RationalFn.from_poly(random_ratfn(rng, out, targets).num),
        lambda: random_ratfn(rng, out, targets),
    )
    cases = []
    for _ in range(80):
        bound = rng.sample(syms[:3], rng.randint(1, 3))
        cases.append((random_ratfn(rng, t, syms), {s: rng.choice(shapes)() for s in bound}))
    # x -> y empties the denominator x - y, and x -> y + a does not
    a, x, y = (RationalFn.var(t, n) for n in ("a", "x", "y"))
    ya = RationalFn.var(out, "y") + RationalFn.var(out, "a")
    cases += [(a / (x - y), {t.get("x"): RationalFn.var(out, "y")}), (a / (x - y), {t.get("x"): ya})]
    vanished = 0
    for f, bindings in cases:
        try:
            want = naive_substitute(f, bindings)
        except ZeroDivisionError:
            vanished += 1
            with pytest.raises(DenominatorVanishes):
                substitute(f, bindings, out)
            continue
        assert substitute(f, bindings, out) == want, (f, bindings)
        assert vanishes((f.num,), bindings, out) == want.is_zero()
    assert vanished


def test_vanishes_matches_the_naive_oracle_at_rational_bindings():
    rng = random.Random(47)
    t = table("x", "y", "z", "a:parameter")
    syms = list(t.symbols)
    x = t.get("x")
    hits = 0
    for _ in range(60):
        b = {s: random_ratfn(rng, t, syms) for s in rng.sample(syms[1:3], rng.randint(0, 2))}
        b[x] = random_ratfn(rng, t, [s for s in syms if s != x])
        p = random_ratfn(rng, t, syms).num
        if rng.random() < 0.5:  # a multiple of x*den - num vanishes at x = num/den
            p = p * (MultiPoly.var(t, x) * b[x].den - b[x].num)
        want = naive_substitute_poly(p, b).is_zero()
        hits += want
        assert vanishes((p,), b, t) == want, (p, b)
    assert 0 < hits < 60


@pytest.mark.parametrize("target", ["same", "other"])
def test_a_pass_through_beyond_the_packed_degree_is_refused(target):
    t = table("x", "a:parameter")
    out = t if target == "same" else table("y", "a:parameter", "x")
    f = MultiPoly(t, {(1, MAX_DEGREE - 1): gr(1)})  # x * a^(MAX_DEGREE - 1)
    fits = {t.get("x"): RationalFn.const(out, 2)}
    assert substitute(RationalFn.from_poly(f), fits, out) == RationalFn.from_poly(
        MultiPoly(out, {(0, MAX_DEGREE - 1) if target == "same" else (0, MAX_DEGREE - 1, 0): gr(2)}))
    # x -> x^2 makes a total degree of MAX_DEGREE + 1, which must not carry
    # into the field above a's
    over = {t.get("x"): RationalFn.var(out, "x") ** 2}
    with pytest.raises(ValueError, match="exceeds the packed maximum"):
        substitute(RationalFn.from_poly(f), over, out)
    with pytest.raises(ValueError, match="exceeds the packed maximum"):
        vanishes((f,), over, out)



def test_is_polynomial_and_as_poly():
    t = table("x", "y")
    x, y = RationalFn.var(t, "x"), RationalFn.var(t, "y")
    r = (x * x * y + x) / x
    assert r.is_polynomial()
    assert r.as_poly() == (MultiPoly.var(t, "x") * MultiPoly.var(t, "y") + 1)
    assert not (1 / x).is_polynomial()


def test_substitute_equals_separate_images_divided():
    # one fraction reduced once against the images of num and den, each
    # substituted on its own and then divided
    rng = random.Random(77)
    for cmap in differential_maps():
        t = cmap.table
        for bindings in (
            {cmap.source.vars[j]: cmap.inverse[j] for j in range(3)},
            {cmap.target.vars[j]: cmap.forward[j] for j in range(3)},
        ):
            syms = list(bindings)
            for _ in range(3):
                f = random_ratfn(rng, t, syms)
                num = substitute(RationalFn.from_poly(f.num), bindings, t)
                den = substitute(RationalFn.from_poly(f.den), bindings, t)
                assert substitute(f, bindings, t) == num / den
