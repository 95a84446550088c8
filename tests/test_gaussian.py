import random
from fractions import Fraction

import pytest

from threewave.gaussian import gr, rational_sqrt


def test_construction_and_canonical_form():
    a = gr(Fraction(2, 4), Fraction(-6, 4))
    assert a.re == Fraction(1, 2) and a.im == Fraction(-3, 2)
    assert gr(3) == 3
    assert gr(0).is_zero()


def test_field_arithmetic():
    i = gr(0, 1)
    assert i * i == gr(-1)
    a = gr(1, 2)
    b = gr(3, -1)
    assert a + b == gr(4, 1)
    assert a - b == gr(-2, 3)
    assert 1 - a == gr(0, -2)
    assert a * b == gr(5, 5)
    assert (a / b) * b == a
    assert a**3 == a * a * a
    assert (1 / i) == -i


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_random_field_axioms():
    rng = random.Random(7)

    def rand():
        return gr(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
                  Fraction(rng.randint(-8, 8), rng.randint(1, 5)))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_gaussian_sqrt():
    assert gr(-4).sqrt() == gr(0, 2)
    assert gr(9).sqrt() == gr(3)
    # (1+i)^2 = 2i
    assert gr(0, 2).sqrt() in (gr(1, 1), gr(-1, -1))
    assert gr(2).sqrt() is None
    assert gr(0, 1).sqrt() is None  # sqrt(i) is not in Q(i)
    rng = random.Random(3)
    for _ in range(50):
        a = gr(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
               Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        sq = a * a
        r = sq.sqrt()
        assert r is not None and r * r == sq


def test_text_forms():
    assert gr(3).text() == "3"
    assert gr(Fraction(-1, 2)).text() == "-1/2"
    assert gr(0, 1).text() == "i"
    assert gr(0, -1).text() == "-i"
    assert gr(0, 2).text() == "2*i"
    assert gr(1, 2).text() == "1+2*i"
    assert gr(1, Fraction(-1, 2)).text() == "1-1/2*i"


def test_integrality():
    assert gr(4).is_integer()
    assert not gr(Fraction(1, 2)).is_integer()
    assert not gr(1, 1).is_integer()
