"""Exact scalars of the form re + im*sqrt(-1) with arbitrary-precision
rational parts.

``Fraction`` keeps each part in lowest terms with a positive denominator, so
every value has a unique canonical representation and equality/hashing are
structural. All arithmetic is closed and exact; division by a nonzero value
uses the conjugate trick. Values are immutable and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[int, Fraction, "GaussianRational"]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


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


class GaussianRational:
    """A number re + im*i with exact rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im=0):
        if isinstance(re, GaussianRational):
            if im != 0:
                raise TypeError("cannot combine GaussianRational with extra imaginary part")
            object.__setattr__(self, "re", re.re)
            object.__setattr__(self, "im", re.im)
            return
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """re^2 + im^2 (the field norm)."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.norm2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        num = self * o.conjugate()
        return GaussianRational(num.re / n2, num.im / n2)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "GaussianRational":
        return GaussianRational(1) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = GaussianRational(1)
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
            return GaussianRational(0)
        if self.im == 0:
            r = rational_sqrt(self.re) if self.re > 0 else None
            if r is not None:
                return GaussianRational(r)
            r = rational_sqrt(-self.re)
            if r is not None:
                return GaussianRational(0, r)
            return None
        n = rational_sqrt(self.norm2())
        if n is None:
            return None
        x = rational_sqrt((n + self.re) / 2)
        if x is None or x == 0:
            return None
        y = self.im / (2 * x)
        root = GaussianRational(x, y)
        return root if root * root == self else None

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- conversion / printing --------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return self.text()

    def text(self) -> str:
        """Canonical text form: '3', '-1/2', 'i', '-2*i', '1+2*i', '1-1/2*i'."""
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            im_part = "i"
        elif self.im == -1:
            im_part = "-i"
        else:
            im_part = f"{self.im}*i"
        if self.re == 0:
            return im_part
        sign = "+" if self.im > 0 else "-"
        mag = im_part.lstrip("-")
        return f"{self.re}{sign}{mag}"

    def is_compound(self) -> bool:
        """True when the printed form needs parentheses inside a product."""
        return self.re != 0 and self.im != 0


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor used heavily in tests and model builders."""
    return GaussianRational(re, im)
