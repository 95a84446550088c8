"""Reduced rational functions: the universal currency for charts and fields.

A :class:`RationalFn` is a pair num/den of :class:`~threewave.poly.MultiPoly`
over one table, kept in the canonical reduced form

* gcd(num, den) is a unit, and
* den is monic under the graded-lex order (the unit is pushed into num).

With both rules a value has exactly one representation, so equality and
hashing are structural. Construction reduces, at the cost of one gcd, so
every operator result is reduced. Products and quotients cancel before
they multiply instead (Henrici; Knuth, TAOCP vol. 2 §4.5.1): for reduced
a/b and c/d, with g1 = gcd(a, d) and g2 = gcd(c, b), the fraction
((a/g1)(c/g2)) / ((b/g2)(d/g1)) is reduced, so two gcds of the operands'
parts replace one of the whole product; a power of a reduced value is
reduced as it stands. Composite operations build their result as one
polynomial fraction and construct it once: :func:`substitute` reduces the
fraction of the :func:`images` of numerator and denominator, over a shared
denominator that cancels, and :func:`clear_denominators` puts a list of
values over one common denominator (the pushforward's field, a deflated
quotient). :func:`value_at` puts values into a polynomial, and
:func:`specialize_all` puts constants into many functions in one
composition. The certificates skip the reduction: a chart map compares each
fraction with its variable by cross-multiplication, and :func:`vanishes`, by
which every claimed root, point and solution is checked, tests the numerator
image of a polynomial.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import DenominatorVanishes, NotDivisible
from .gaussian import GaussianRational
from .poly import MultiPoly, compose, poly_gcd
from .symbols import Symbol, SymbolTable


class RationalFn:
    """A reduced fraction num/den of polynomials on one table. It is no
    :class:`~threewave.records.Record`: arithmetic builds one on the hot
    path, which sets its two slots directly."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, _reduced: bool = False):
        if den is None:
            den = MultiPoly.const(num.table, 1)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_poly(p: MultiPoly) -> "RationalFn":
        return RationalFn(p, MultiPoly.const(p.table, 1), _reduced=True)

    @staticmethod
    def const(table: SymbolTable, value) -> "RationalFn":
        return RationalFn.from_poly(MultiPoly.const(table, value))

    @staticmethod
    def var(table: SymbolTable, sym: Symbol | str) -> "RationalFn":
        return RationalFn.from_poly(MultiPoly.var(table, sym))

    @property
    def table(self) -> SymbolTable:
        return self.num.table

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> GaussianRational:
        return self.num.constant_value() / self.den.constant_value()

    def is_integer(self) -> bool:
        return self.is_constant() and self.constant_value().is_integer()

    def as_poly(self) -> MultiPoly:
        """The numerator when the value is a polynomial (monic-1 denominator)."""
        if not self.is_polynomial():
            raise NotDivisible("value is not polynomial", remainder=self.den)
        return self.num.exact_divide(self.den)

    def variables(self) -> tuple[Symbol, ...]:
        seen = dict.fromkeys(self.num.variables())
        seen.update(dict.fromkeys(self.den.variables()))
        return tuple(seen)

    def laurent(self, sym: Symbol) -> dict[int, MultiPoly]:
        """{k: c_k} with self = sum_k c_k * sym^k and each c_k free of ``sym``;
        ValueError unless the denominator is a power of ``sym``."""
        den = self.den  # reduced, so monic: a monomial in sym alone is sym^d
        d = den.degree(sym)
        if not den.is_monomial() or den.total_degree() != d:
            raise ValueError(f"component denominator {den.text()} is not a power of {sym.name}")
        return {j - d: c for j, c in self.num.as_univariate(sym).items()}

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "RationalFn | None":
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, MultiPoly):
            return RationalFn.from_poly(other)
        if isinstance(other, (int, GaussianRational)):
            return RationalFn.const(self.table, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFn(self.num + o.num, self.den)
        return RationalFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return _product(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** (-n)
        return RationalFn(*_monic_den(self.num**n, self.den**n), _reduced=True)

    def derivative(self, sym: Symbol | str) -> "RationalFn":
        dn = self.num.derivative(sym)
        dd = self.den.derivative(sym)
        if dd.is_zero():
            return RationalFn(dn, self.den)
        return RationalFn(dn * self.den - self.num * dd, self.den * self.den)

    # -- substitution -----------------------------------------------------------

    def specialize(self, bindings: Mapping[Symbol, GaussianRational]) -> "RationalFn":
        """Exact constant values put in for some symbols (``self`` when none occurs)."""
        return specialize_all((self,), bindings)[0]

    def retable(self, new_table: SymbolTable) -> "RationalFn":
        """Re-keyed by name onto ``new_table``. Renaming keeps num and den
        coprime, but a new symbol order can change which term of den leads,
        so den is made monic again."""
        return RationalFn(*_monic_den(*compose((self.num, self.den), {}, new_table)), _reduced=True)

    # -- comparison / printing ----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def text(self) -> str:
        if self.is_polynomial():
            return self.num.text()
        num = self.num.text()
        if not self.num.is_monomial():
            num = f"({num})"
        return f"{num}/({self.den.text()})"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"RationalFn({self.text()})"


def pole_coefficients(
    columns: Mapping[int, RationalFn], boundary: Symbol
) -> dict[tuple[int, ...], dict[int, MultiPoly]]:
    """The pole part of sum_col c_col * columns[col], from each column's
    Laurent tail (:meth:`RationalFn.laurent`; a denominator that is not a
    power of ``boundary`` raises ValueError): for each state monomial mu of
    its numerator over the common denominator boundary^K, the coefficient of
    mu in each column, polynomial in the parameters. The tail term
    c_k * boundary^k sits there times boundary^(K + k)."""
    tails = {col: [(k, c) for k, c in f.laurent(boundary).items() if k < 0]
             for col, f in columns.items()}
    order = max((-k for tail in tails.values() for k, _ in tail), default=0)
    groups: dict[tuple[int, ...], dict[int, MultiPoly]] = {}
    for col, tail in tails.items():
        for k, c in tail:
            for key, poly in c.shift_var(boundary, order + k).split_by_state_monomial().items():
                groups.setdefault(key, {})[col] = poly
    return groups


def _reduce(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    if num.is_zero():
        return num, MultiPoly.const(num.table, 1)
    return _monic_den(*_cancel(num, den))


def _product(a: MultiPoly, b: MultiPoly, c: MultiPoly, d: MultiPoly) -> RationalFn:
    """(a/b)(c/d) in reduced form, for coprime a, b and coprime c, d: cancel
    the cross gcds, then multiply."""
    if a.is_zero() or c.is_zero():
        return RationalFn.from_poly(MultiPoly.zero(a.table))
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return RationalFn(*_monic_den(a * c, b * d), _reduced=True)


def _cancel(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num and den divided by their gcd (a constant den is left as it is)."""
    if den.is_constant():
        return num, den
    g = poly_gcd(num, den)
    if g.is_constant():
        return num, den
    return num.exact_divide(g), den.exact_divide(g)


def _monic_den(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num/den with the leading coefficient of den pushed into num."""
    lc = den.leading_coefficient()
    if not lc.is_one():
        inv = lc.inverse()
        num = num.map_coefficients(lambda c: c * inv)
        den = den.map_coefficients(lambda c: c * inv)
    return num, den


def specialize_all(
    fns: Sequence[RationalFn], bindings: Mapping[Symbol, GaussianRational]
) -> list[RationalFn]:
    """Exact constant values put in for some symbols of ``fns`` (over one
    table), by one :func:`~threewave.poly.compose` of all their numerators
    and denominators. A constant adds no denominator factor, so each value
    is the one it has alone, and a function in which nothing bound occurs is
    returned as itself. A denominator that vanishes raises
    :class:`~threewave.errors.DenominatorVanishes` with the function's place
    in ``fns`` as its ``position``."""
    if not fns:
        return []
    table = fns[0].table
    index = table.index
    parts = compose([p for f in fns for p in (f.num, f.den)],
                    {index(s): v for s, v in bindings.items()}, table)
    out = []
    for k, f in enumerate(fns):
        num, den = parts[2 * k], parts[2 * k + 1]
        if num is f.num and den is f.den:
            out.append(f)
        elif den.is_zero():
            raise DenominatorVanishes("denominator vanishes at the given values", position=k)
        else:
            out.append(RationalFn(num, den))
    return out


def substitute(
    f: RationalFn, bindings: Mapping[Symbol, RationalFn], table: SymbolTable
) -> RationalFn:
    """Compose ``f`` with rational-function bindings, exactly, over ``table``.

    Every state symbol occurring in ``f`` must be bound (parameters may be
    bound too, e.g. for specialization); unbound symbols are carried through
    and must exist in ``table``. Raises
    :class:`~threewave.errors.DenominatorVanishes` when the composed
    denominator is identically zero.

    The images of ``f.num`` and ``f.den`` share the denominator
    prod den_s^{d_s} over the bound symbols s = num_s/den_s
    (:func:`~threewave.poly.compose`), which cancels, so the result is the
    single fraction image(f.num) / image(f.den), reduced once.
    """
    num, den = images((f.num, f.den), bindings, table)
    if den.is_zero():
        raise DenominatorVanishes("denominator identically zero after composition")
    return RationalFn(num, den)


def images(polys: Sequence[MultiPoly], bindings: Mapping[Symbol, RationalFn],
           table: SymbolTable) -> list[MultiPoly]:
    """:func:`~threewave.poly.compose` of ``polys`` with the bindings of
    their symbols, over ``table``: each image is over the same nonzero
    product of the bindings' denominators, so a ratio of two images is a
    ratio of values, and the image of 1 is that product."""
    src = polys[0].table
    bound = {}
    for s, b in bindings.items():
        if src.get(s.name) is not None:
            b = b if b.table is table or b.is_constant() else b.retable(table)  # a constant is a scalar
            bound[src.index(s)] = (b.num, b.den)
    return compose(polys, bound, table)


def value_at(p: MultiPoly, bindings: Mapping[Symbol, RationalFn], table: SymbolTable) -> RationalFn:
    """``p`` with the values of ``bindings`` put in, over ``table``."""
    return substitute(RationalFn(p, _reduced=True), bindings, table)


def vanishes(polys: Iterable[MultiPoly], bindings: Mapping[Symbol, RationalFn],
             table: SymbolTable) -> bool:
    """Whether every polynomial of ``polys`` is exactly zero at ``bindings``:
    the one certificate of a claimed root, point or solution. It stops at the
    first nonzero value. The image of a polynomial is over a product of
    nonzero denominators, so its numerator alone decides."""
    return all(images((p,), bindings, table)[0].is_zero() for p in polys)


def clear_denominators(
    fns: Sequence[RationalFn], table: SymbolTable
) -> tuple[MultiPoly, list[MultiPoly]]:
    """The least common denominator of ``fns`` and their numerators over it."""
    den = MultiPoly.const(table, 1)
    for f in fns:
        if not f.den.is_constant():
            den = den * f.den.exact_divide(poly_gcd(den, f.den))
    return den, [f.num * den.exact_divide(f.den) for f in fns]
