"""Exact scalars of the form re + im*sqrt(-1) with arbitrary-precision
rational parts.

A value is stored as three ints ``(a, b, d)`` meaning (a + b*i)/d, with
d > 0 and gcd(a, b, d) == 1, so every value has exactly one representation
and equality is structural. ``re`` and ``im`` are ``Fraction`` views of it.
Hashing agrees with ``int`` and ``Fraction`` for real values.

Arithmetic is closed and exact and follows ``Fraction``'s cancellation:
addition divides the cross sum only by the common factors of the two
denominators, and multiplication cancels each factor's content gcd(a, b)
against the other factor's denominator first. One final gcd is then needed
only for a product of two non-real values, because 2 and the primes
p = 1 (mod 4) split in Z[i] (for instance (1+i)(1-i) = 2). Values are
immutable and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Collection, Union

RationalLike = Union[int, Fraction, "GaussianRational"]


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _ratio(v) -> tuple[int, int]:
    if isinstance(v, int):
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


class GaussianRational:
    """A number (a + b*i)/d with integers a, b and d > 0 in lowest terms.

    It is no :class:`~threewave.records.Record`: the exact kernel builds one
    per coefficient operation, which sets its three slots directly."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("cannot combine GaussianRational with extra imaginary part")
            self._a, self._b, self._d = re._a, re._b, re._d
            return
        # two reduced fractions over their lcm have no common content left
        p, q = _ratio(re)
        r, s = _ratio(im)
        d = q if q == s else q // gcd(q, s) * s
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @classmethod
    def from_complex(cls, z: complex) -> "GaussianRational":
        """The exact value of a complex (or real) double."""
        return cls(Fraction(z.real), Fraction(z.imag))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_one(self) -> bool:
        return self._a == 1 and not self._b and self._d == 1

    def is_integer(self) -> bool:
        return not self._b and self._d == 1

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, o._a, o._b, o._d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, -o._a, -o._b, o._d)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(o._a, o._b, o._d, -self._a, -self._b, self._d)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _product(self._a, self._b, self._d, o._a, o._b, o._d)

    __rmul__ = __mul__

    def norm2(self) -> Fraction:
        """re^2 + im^2 (the field norm)."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> "GaussianRational":
        """d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)."""
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero GaussianRational")
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        return from_parts(d * a, -d * b, a * a + b * b)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sqrt(self) -> "GaussianRational | None":
        """Exact square root inside Q(i), or None when no such root exists.

        For re + im*i with im != 0 the root x + y*i must satisfy
        x^2 - y^2 = re and 2xy = im, so x^2 + y^2 = sqrt(re^2 + im^2) has to
        be rational, and then x^2 = (n + re)/2 a rational square.
        """
        if self.is_zero():
            return ZERO
        re = self.re
        if not self._b:
            r = rational_sqrt(re) if re > 0 else None
            if r is not None:
                return GaussianRational(r)
            r = rational_sqrt(-re)
            if r is not None:
                return GaussianRational(0, r)
            return None
        n = rational_sqrt(self.norm2())
        if n is None:
            return None
        x = rational_sqrt((n + re) / 2)
        if x is None or x == 0:
            return None
        y = self.im / (2 * x)
        root = GaussianRational(x, y)
        return root if root * root == self else None

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    # -- conversion / printing --------------------------------------------

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return self.text()

    def text(self) -> str:
        """Canonical text form: '3', '-1/2', 'i', '-2*i', '1+2*i', '1-1/2*i'
        (each part printed as ``str(Fraction)`` prints it)."""
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_text(a, d)
        if b == d:
            im = "i"
        elif b == -d:
            im = "-i"
        else:
            im = f"{_ratio_text(b, d)}*i"
        if not a:
            return im
        re = _ratio_text(a, d)
        return f"{re}+{im}" if b > 0 else re + im

    def is_compound(self) -> bool:
        """True when the printed form needs parentheses inside a product."""
        return self._a != 0 and self._b != 0


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple already in lowest terms with d > 0."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms as ``str(Fraction(n, d))`` prints it, for d > 0."""
    if d == 1:
        return str(n)
    g = gcd(n, d)
    return str(n // d) if g == d else f"{n // g}/{d // g}"


def from_parts(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d of integers a, b and d > 0, in lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def over_common_denominator(
    coeffs: Collection[GaussianRational],
) -> tuple[int, list[int], list[int] | None]:
    """The least common denominator D of ``coeffs`` and the integers re*D
    and im*D of each value, in order; the second list is None when every
    value is real."""
    den = 1
    for c in coeffs:
        d = c._d
        if d != 1 and den % d:
            den = den // gcd(den, d) * d
    if den == 1:
        re = [c._a for c in coeffs]
        im = [c._b for c in coeffs]
    else:
        re = [c._a * (den // c._d) for c in coeffs]
        im = [c._b * (den // c._d) for c in coeffs]
    return den, re, im if any(im) else None


def _coerce(v) -> GaussianRational | None:
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, int):
        return _make(v, 0, 1)
    if isinstance(v, Fraction):
        return _make(v.numerator, 0, v.denominator)
    return None


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """(a + b*i)/d + (c + e*i)/f for two canonical triples.

    With g = gcd(d, f), a common factor of the cross sum and the denominator
    can only divide g, as for ``Fraction``."""
    if d == 1 == f:
        return _make(a + c, b + e, 1)
    g = gcd(d, f)
    if g == 1:
        return _make(a * f + c * d, b * f + e * d, d * f)
    s, t = d // g, f // g
    x, y = a * t + c * s, b * t + e * s
    g2 = gcd(x, y, g)
    return _make(x // g2, y // g2, s * (f // g2))


def _product(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """(a + b*i)/d * (c + e*i)/f for two canonical triples."""
    if d == 1 and f == 1:
        return _make(a * c - b * e, a * e + b * c, 1)
    g = gcd(a, b, f)
    if g != 1:
        a, b, f = a // g, b // g, f // g
    g = gcd(c, e, d)
    if g != 1:
        c, e, d = c // g, e // g, d // g
    den = d * f
    if b and e and den != 1:
        return from_parts(a * c - b * e, a * e + b * c, den)
    return _make(a * c - b * e, a * e + b * c, den)


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor used heavily in tests and model builders."""
    return GaussianRational(re, im)
