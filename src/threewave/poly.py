"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is a finite map from monomials to nonzero
:class:`~threewave.gaussian.GaussianRational` coefficients, over a shared
:class:`~threewave.symbols.SymbolTable`; all operands of an arithmetic
operation must carry the *same* table.

The fixed monomial order everywhere is graded lexicographic over the whole
table: higher total degree wins, ties broken lexicographically in table
order. Leading terms, monic normalization and the canonical text form all
refer to this order.

Each monomial is stored as one packed int (after Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007). For a table of n symbols and ``FIELD_BITS`` = 16 the
key is

    deg << 16*n  |  e_0 << 16*(n-1)  |  ...  |  e_{n-1}

with the total degree in the top field and the exponents below it in table
order, most significant first. Comparing keys as ints is therefore the
graded-lex order, multiplying monomials is adding keys, and a monomial
divides another when subtracting the keys borrows from no field. Every
exponent is at most the total degree, so the fields cannot carry into each
other while the degree fits its own field; a total degree above 65535 raises
``ValueError`` instead of carrying. :attr:`MultiPoly.terms` is a read-only
view keyed by exponent tuples, built on first use; the constructor accepts
such tuple-keyed maps too.

Values are immutable after construction, so they are safe to share between
threads and usable as dict keys.
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import NotDivisible, SymbolTableMismatch
from .gaussian import ONE, ZERO, GaussianRational, from_parts, over_common_denominator
from .symbols import Symbol, SymbolTable

FIELD_BITS = 16
MAX_DEGREE = (1 << FIELD_BITS) - 1


class _Layout:
    """Packed monomial keys for exponent vectors of one length."""

    __slots__ = ("shifts", "top", "low", "units", "borrows", "_fields")

    def __init__(self, n: int):
        self.shifts = tuple(FIELD_BITS * (n - 1 - k) for k in range(n))
        self.top = FIELD_BITS * n
        self.low = (1 << self.top) - 1  # the exponent fields without the degree
        # the key of each variable, and the bit just above each exponent field,
        # which a subtraction that borrows out of that field flips
        self.units = tuple((1 << self.top) | (1 << s) for s in self.shifts)
        self.borrows = sum(1 << (s + FIELD_BITS) for s in self.shifts)
        self._fields = Struct(f">{n}H")  # the exponent fields as 16-bit big-endian words

    def pack(self, exp: Sequence[int]) -> int:
        if len(exp) != len(self.shifts):
            raise ValueError(f"exponent vector {exp} does not match a table of {len(self.shifts)}")
        if min(exp, default=0) < 0:
            raise ValueError(f"negative exponent in {exp}")
        deg = sum(exp)
        _check_degree(deg)
        return int.from_bytes(self._fields.pack(*exp), "big") | deg << self.top

    def unpack(self, key: int) -> tuple[int, ...]:
        return self._fields.unpack((key & self.low).to_bytes(self._fields.size, "big"))


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    return _Layout(n)


def _check_degree(deg: int) -> None:
    if deg > MAX_DEGREE:
        raise ValueError(f"total degree {deg} exceeds the packed maximum {MAX_DEGREE}")


def _drop_zeros(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if not c.is_zero()}


class MultiPoly:
    """A sparse polynomial over one symbol table. It is no
    :class:`~threewave.records.Record`: arithmetic builds one on the hot path
    from packed keys, and its hash and text are cached on first use."""

    # _terms maps packed keys to nonzero coefficients; _view, _hash and _text
    # are filled on first use
    __slots__ = ("table", "_lay", "_terms", "_view", "_hash", "_text")

    def __init__(self, table: SymbolTable, terms: Mapping[tuple[int, ...], GaussianRational]):
        lay = _layout(len(table))
        _init(self, table, lay, {lay.pack(e): c for e, c in terms.items() if not c.is_zero()})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def _like(self, terms: dict[int, GaussianRational]) -> "MultiPoly":
        """A polynomial over this table from packed terms without zeros."""
        return _poly(self.table, self._lay, terms)

    @property
    def terms(self) -> Mapping[tuple[int, ...], GaussianRational]:
        """The terms keyed by exponent tuples (a read-only view, built once)."""
        try:
            return self._view
        except AttributeError:
            unpack = self._lay.unpack
            view = MappingProxyType({unpack(e): c for e, c in self._terms.items()})
            _setattr(self, "_view", view)
            return view

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "MultiPoly":
        return _poly(table, _layout(len(table)), {})

    @staticmethod
    def const(table: SymbolTable, value) -> "MultiPoly":
        c = value if isinstance(value, GaussianRational) else GaussianRational(value)
        return _poly(table, _layout(len(table)), {} if c.is_zero() else {0: c})

    @staticmethod
    def var(table: SymbolTable, sym: Symbol | str) -> "MultiPoly":
        lay = _layout(len(table))
        return _poly(table, lay, {lay.units[table.index(sym)]: ONE})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def term_count(self) -> int:
        return len(self._terms)

    def constant_value(self) -> GaussianRational:
        """Value of a constant polynomial (zero polynomial gives 0)."""
        if self.is_zero():
            return ZERO
        ((e, c),) = self._terms.items()
        if e:
            raise ValueError("polynomial is not constant")
        return c

    def degree(self, sym: Symbol | str) -> int:
        """Maximum exponent of ``sym``; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        s = self._lay.shifts[self.table.index(sym)]
        return max(e >> s & MAX_DEGREE for e in self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(self._terms) >> self._lay.top

    def state_degree(self) -> int:
        """Total degree counting only state symbols."""
        if not self._terms:
            return -1
        shifts = [self._lay.shifts[k] for k, s in enumerate(self.table.symbols) if s.kind == "state"]
        return max(sum(e >> s & MAX_DEGREE for s in shifts) for e in self._terms)

    def variables(self) -> tuple[Symbol, ...]:
        """Symbols that actually occur with positive exponent."""
        return symbols_in((self,))

    def monomial_content(self) -> "MultiPoly":
        """The monic monomial of largest degree dividing every term (1 for zero)."""
        return self._like({_common_key(self._lay, self._terms): ONE})

    def leading_coefficient(self) -> GaussianRational:
        return self._terms[self._leading_key()]

    def _leading_key(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.table is not other.table and self.table != other.table:
            raise SymbolTableMismatch(
                f"cannot combine polynomials over {self.table!r} and {other.table!r}"
            )

    def __add__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = MultiPoly.const(self.table, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return self._like(_drop_zeros(out))

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, GaussianRational)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            if other == 0:
                return self._like({})
            return self._like({e: k * other for e, k in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms1, terms2 = self._terms, other._terms
        if not terms1 or not terms2:
            return self._like({})
        # a constant operand scales the other's coefficients (Q(i) has no
        # zero divisors, so no term cancels); 1 returns the other as it is
        if not any(terms1) and terms1[0].is_one():
            return other
        if not any(terms2):
            return _scaled(self, terms2[0])
        if not any(terms1):
            return _scaled(other, terms1[0])
        top = self._lay.top
        _check_degree((max(terms1) >> top) + (max(terms2) >> top))
        # integer products over the two common denominators, then one
        # reduction per result term
        den1, re1, im1 = over_common_denominator(terms1.values())
        den2, re2, im2 = over_common_denominator(terms2.values())
        den = den1 * den2
        re: dict[int, int] = {}
        get = re.get
        if im1 is None and im2 is None:
            rows2 = list(zip(terms2, re2))
            for e1, x1 in zip(terms1, re1):
                for e2, x2 in rows2:
                    e = e1 + e2
                    re[e] = get(e, 0) + x1 * x2
            return self._like({e: from_parts(x, 0, den) for e, x in re.items() if x})
        im: dict[int, int] = {}
        get_im = im.get
        rows2 = list(zip(terms2, re2, im2 or [0] * len(re2)))
        for e1, x1, y1 in zip(terms1, re1, im1 or [0] * len(re1)):
            for e2, x2, y2 in rows2:
                e = e1 + e2
                re[e] = get(e, 0) + x1 * x2 - y1 * y2
                im[e] = get_im(e, 0) + x1 * y2 + y1 * x2
        out = {}
        for e, x in re.items():
            y = im[e]
            if x or y:
                out[e] = from_parts(x, y, den)
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def map_coefficients(self, fn: Callable[[GaussianRational], GaussianRational]) -> "MultiPoly":
        return self._like(_drop_zeros({e: fn(c) for e, c in self._terms.items()}))

    def monic(self) -> "MultiPoly":
        """Divide by the leading coefficient (zero stays zero)."""
        if self.is_zero():
            return self
        lc = self.leading_coefficient()
        if lc.is_one():
            return self
        inv = lc.inverse()
        return self.map_coefficients(lambda c: c * inv)

    # -- division / gcd ------------------------------------------------------

    def exact_divide(self, divisor: "MultiPoly") -> "MultiPoly":
        """Quotient q with self == q * divisor, else raises NotDivisible.

        Repeated leading-term elimination under the graded-lex order: if the
        division is exact the leading term of the remainder is always
        divisible by the divisor's leading term, so a single reduction path
        suffices and failure at any step is a certificate of non-divisibility.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        if divisor.is_constant():
            inv = divisor.constant_value().inverse()
            return self.map_coefficients(lambda c: c * inv)
        dlm = divisor._leading_key()
        inv = divisor._terms[dlm].inverse()
        dterms = list(divisor._terms.items())
        borrows = self._lay.borrows
        rem = dict(self._terms)
        quot: dict[int, GaussianRational] = {}
        while rem:
            lm = max(rem)
            qexp = lm - dlm
            if qexp < 0 or (qexp ^ lm ^ dlm) & borrows:
                raise NotDivisible("leading monomial not divisible", remainder=self._like(rem))
            qc = rem[lm] * inv
            quot[qexp] = qc
            for e, c in dterms:
                t = qexp + e
                s = rem.get(t, ZERO) - qc * c
                if s.is_zero():
                    rem.pop(t, None)
                else:
                    rem[t] = s
        return self._like(quot)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_divide(self)
            return True
        except NotDivisible:
            return False

    # -- univariate views ----------------------------------------------------

    def as_univariate(self, sym: Symbol | str) -> dict[int, "MultiPoly"]:
        """Coefficients in ``sym``: maps exponent -> polynomial without ``sym``."""
        k = self.table.index(sym)
        s, unit = self._lay.shifts[k], self._lay.units[k]
        out: dict[int, dict] = {}
        for e, c in self._terms.items():
            d = e >> s & MAX_DEGREE
            out.setdefault(d, {})[e - d * unit] = c
        return {d: self._like(t) for d, t in out.items()}

    def coefficient_of(self, sym: Symbol | str, power: int) -> "MultiPoly":
        return self.as_univariate(sym).get(power, MultiPoly.zero(self.table))

    def shift_var(self, sym: Symbol | str, power: int) -> "MultiPoly":
        """Multiply by sym**power (power may be negative if every term allows it)."""
        k = self.table.index(sym)
        s, step = self._lay.shifts[k], power * self._lay.units[k]
        out = {}
        for e, c in self._terms.items():
            if (e >> s & MAX_DEGREE) + power < 0:
                raise ValueError("negative exponent after shift")
            out[e + step] = c
        if out:
            _check_degree(max(out) >> self._lay.top)
        return self._like(out)

    def split_by_state_monomial(self) -> dict[tuple[int, ...], "MultiPoly"]:
        """Group terms by their state-symbol exponent pattern.

        Returns a map from state-exponent vectors (full-length tuples with
        parameter slots zeroed) to the parameter-only polynomial multiplying
        that state monomial.
        """
        state = [k for k, s in enumerate(self.table.symbols) if s.kind == "state"]
        return {self._lay.unpack(k): c for k, c in _coefficients_in(self, state).items()}

    # -- substitution of exact constants --------------------------------------

    def specialize(self, bindings: Mapping[Symbol, GaussianRational]) -> "MultiPoly":
        """Exact constant values put in for some symbols (``self`` when none occurs)."""
        return compose((self,), {self.table.index(s): v for s, v in bindings.items()}, self.table)[0]

    # -- calculus --------------------------------------------------------------

    def derivative(self, sym: Symbol | str) -> "MultiPoly":
        k = self.table.index(sym)
        s, unit = self._lay.shifts[k], self._lay.units[k]
        out = {}
        for e, c in self._terms.items():
            d = e >> s & MAX_DEGREE
            if d:
                out[e - unit] = c * d
        return self._like(out)

    # -- comparison / printing -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, GaussianRational)):
                return self == MultiPoly.const(self.table, other)
            return NotImplemented
        return self.table == other.table and self._terms == other._terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(frozenset(self._terms.items()))
            _setattr(self, "_hash", h)
            return h

    def sorted_terms(self) -> list[tuple[tuple[int, ...], GaussianRational]]:
        unpack = self._lay.unpack
        return [(unpack(e), self._terms[e]) for e in sorted(self._terms, reverse=True)]

    def text(self) -> str:
        """Canonical text form: graded-lex descending, '*' products, '^'
        powers (rendered once per value)."""
        try:
            return self._text
        except AttributeError:
            text = _render(self)
            _setattr(self, "_text", text)
            return text

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"MultiPoly({self.text()})"


_new = object.__new__
_setattr = object.__setattr__


def _scaled(p: MultiPoly, c: GaussianRational) -> MultiPoly:
    """``p`` times the nonzero constant ``c``."""
    if c.is_one():
        return p
    return p._like({e: k * c for e, k in p._terms.items()})


def _render(p: MultiPoly) -> str:
    """The text of ``p``: its keys in descending int order are its terms in
    descending graded-lex order."""
    terms = p._terms
    if not terms:
        return "0"
    syms, low = p.table.symbols, p._lay.low
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        if not e:
            term = c.text()
        else:
            mono = _monomial_text(syms, e & low)
            if c.is_one():
                term = mono
            elif c._a == -1 and not c._b and c._d == 1:
                term = "-" + mono
            elif c.is_compound():
                term = f"({c.text()})*{mono}"
            else:
                term = f"{c.text()}*{mono}"
        parts.append(term if not parts or term[0] == "-" else "+" + term)
    return "".join(parts)


def _monomial_text(syms: Sequence[Symbol], fields: int) -> str:
    """'x^2*y' for the exponent fields of a key over the table ``syms``;
    only the nonzero fields are visited, highest (first in table order) first."""
    factors = []
    while fields:
        field = (fields.bit_length() - 1) // FIELD_BITS
        shift = field * FIELD_BITS
        d, name = fields >> shift, syms[len(syms) - 1 - field].name
        factors.append(name if d == 1 else f"{name}^{d}")
        fields &= (1 << shift) - 1
    return "*".join(factors)


def _init(p: MultiPoly, table: SymbolTable, lay: _Layout, terms: dict[int, GaussianRational]) -> None:
    _setattr(p, "table", table)
    _setattr(p, "_lay", lay)
    _setattr(p, "_terms", terms)


def _poly(table: SymbolTable, lay: _Layout, terms: dict[int, GaussianRational]) -> MultiPoly:
    """A polynomial from packed terms without zero coefficients."""
    p = _new(MultiPoly)
    _init(p, table, lay, terms)
    return p


def compose(
    polys: Sequence[MultiPoly], bound: Mapping[int, GaussianRational | tuple[MultiPoly, MultiPoly]],
    table: SymbolTable,
) -> list[MultiPoly]:
    """The one substitution kernel: the images of ``polys`` (over one source
    table) when the symbol at each table position k of ``bound`` becomes a
    constant or num_k/den_k (over ``table``; a constant den_k is 1), times
    prod den_k^d_k, d_k the largest exponent of symbol k in ``polys``. A term
    c * mu * prod s_k^e_k maps to c * mu * prod F_k[e_k], F_k[e] = num_k^e *
    den_k^(d_k - e) or a constant's power (a scalar), built once per distinct
    bound part of a key; the unbound monomial mu moves to the same names in
    ``table`` (SymbolTableMismatch for a name missing there). On the same
    table, ``polys`` are returned as they are when nothing bound occurs, and
    with constants bound, which add no factor, so is each polynomial in
    which no bound symbol occurs. A total degree above ``MAX_DEGREE`` raises
    ``ValueError``."""
    src, old = polys[0], polys[0]._lay
    occurs = [_occurring((p,)) for p in polys] if bound else []
    seen = 0
    for o in occurs:
        seen |= o
    mask, scalars, factors = 0, [], []
    for k, b in bound.items():
        s = old.shifts[k]
        if not seen >> s & MAX_DEGREE:
            continue
        mask |= MAX_DEGREE << s
        if isinstance(b, tuple) and not (b[0].is_constant() and b[1].is_constant()):
            d = max(e >> s & MAX_DEGREE for p in polys for e in p._terms)
            factors.append((s, d, [None, b[0]], None if b[1].is_constant() else [None, b[1]], {}))
        else:
            scalars.append((s, [None, b[0].constant_value() if isinstance(b, tuple) else b]))
    # each move (mask, shift, new shift) carries the fields under its mask
    same = src.table is table or src.table == table
    if same:
        if not mask:
            return list(polys)
        lay, moves = old, [(~mask, 0, 0)]
    elif table.symbols[:len(src.table)] == src.table.symbols:  # an extension moves all alike
        lay = _layout(len(table))
        if not mask:
            pad = lay.top - old.top
            return [_poly(table, lay, {e << pad: c for e, c in p._terms.items()}) for p in polys]
        moves = [(~mask, 0, lay.top - old.top)]
    else:  # the degree, then each unbound field that occurs, by name
        lay = _layout(len(table))
        moves, unbound = [(MAX_DEGREE << old.top, old.top, lay.top)], _occurring(polys) & ~mask
        for sym, s in zip(src.table.symbols, old.shifts):
            if unbound >> s & MAX_DEGREE:
                if table.get(sym.name) is None:
                    raise SymbolTableMismatch(f"symbol {sym.name!r} missing from target table")
                moves.append((MAX_DEGREE << s, s, lay.shifts[table.index(sym)]))
    products: dict[int, tuple[int, list]] = {}  # bound fields -> (their degree on ``table``, image)
    images = []
    keep = same and not factors
    for k, p in enumerate(polys):
        if keep and not occurs[k] & mask:
            images.append(p)
            continue
        offs = [0] * len(p._terms)
        for m, s, t in moves:
            offs = [o | (e & m) >> s << t for o, e in zip(offs, p._terms)]
        out: dict[int, GaussianRational] = {}
        get = out.get
        for (e, c), off in zip(p._terms.items(), offs):
            prod = products.get(e & mask)
            if prod is None:
                prod = products[e & mask] = _bound_image(e & mask, lay.top, scalars, factors)
            off -= prod[0]  # the unbound fields with their degree
            for t, pc in prod[1]:
                t += off
                acc = get(t)
                pc = c if pc is ONE else c * pc
                out[t] = pc if acc is None else acc + pc
        if factors and out:  # the degree field is the top one: a degree too high shows there
            _check_degree(max(out) >> lay.top)
        images.append(_poly(table, lay, _drop_zeros(out)))
    return images


def _bound_image(part: int, top: int, scalars: list, factors: list) -> tuple[int, list]:
    """The degree of ``part`` at ``top`` and the terms of its image (factors times scalars)."""
    deg, scale, image = 0, None, None
    for s, powers in scalars:
        x = part >> s & MAX_DEGREE
        if x:
            deg += x
            c = powers[x] if x < len(powers) else _power(powers, x)
            scale = c if scale is None else scale * c
    for s, d, nums, dens, built in factors:
        x = part >> s & MAX_DEGREE
        deg += x
        fk = built.get(x)
        if fk is None:
            fk = built[x] = _times(_power(nums, x), None if dens is None else _power(dens, d - x))
        image = _times(image, fk)
    if image is None:
        return deg << top, [(0, ONE if scale is None else scale)]
    return deg << top, [(t, c if scale is None else c * scale) for t, c in image._terms.items()]


def symbols_in(polys: Sequence[MultiPoly]) -> tuple[Symbol, ...]:
    """The symbols that occur in any of ``polys`` (over one table), in table order."""
    seen = _occurring(polys) & polys[0]._lay.low
    syms = polys[0].table.symbols
    out = []
    while seen:  # the nonzero fields, highest (first in table order) first
        field = (seen.bit_length() - 1) // FIELD_BITS
        out.append(syms[len(syms) - 1 - field])
        seen &= (1 << field * FIELD_BITS) - 1
    return tuple(out)


def _occurring(polys: Iterable[MultiPoly]) -> int:
    """The keys of ``polys`` OR-ed: a field is nonzero when its symbol occurs."""
    seen = 0
    for p in polys:
        for e in p._terms:
            seen |= e
    return seen


def _power(powers: list, n: int):
    """p^n from ``powers`` = [None, p, p^2, ...], None as 1, p a polynomial or constant."""
    while len(powers) <= n:
        powers.append(powers[-1] * powers[1])
    return powers[n]


def _times(a, b):
    """a * b, where None is 1 and takes no product."""
    return b if a is None else a if b is None else a * b


# -- gcd machinery ------------------------------------------------------------


def _common_key(lay: _Layout, keys: Iterable[int]) -> int:
    """The packed field-wise minimum of ``keys``, the largest monomial dividing
    each (0 for none). Only the fields still nonzero are compared, and the
    scan stops once none is left."""
    it = iter(keys)
    first = next(it, 0)
    mins = {s: first >> s & MAX_DEGREE for s in lay.shifts if first >> s & MAX_DEGREE}
    for e in it:
        if not mins:
            break
        mins = {s: min(m, e >> s & MAX_DEGREE) for s, m in mins.items() if e >> s & MAX_DEGREE}
    return sum(m << s for s, m in mins.items()) | sum(mins.values()) << lay.top


def _coefficients_in(p: MultiPoly, fields: Iterable[int]) -> dict[int, MultiPoly]:
    """Group the terms of ``p`` by their exponents in the table positions
    ``fields``: the packed monomial in those variables -> its coefficient, a
    polynomial free of them."""
    lay = p._lay
    units = [(lay.shifts[k], lay.units[k]) for k in fields]
    out: dict[int, dict] = {}
    for e, c in p._terms.items():
        key = sum(((e >> s & MAX_DEGREE) * unit for s, unit in units), 0)
        out.setdefault(key, {})[e - key] = c
    return {k: p._like(t) for k, t in out.items()}


def _pseudo_rem(f: MultiPoly, g: MultiPoly, sym: Symbol) -> MultiPoly:
    """Pseudo-remainder of f by g in ``sym`` (coefficients in the other vars)."""
    table = f.table
    dg = g.degree(sym)
    gu = g.as_univariate(sym)
    lcg = gu[dg]
    v = MultiPoly.var(table, sym)
    r = f
    while not r.is_zero():
        dr = r.degree(sym)
        if dr < dg:
            break
        lcr = r.coefficient_of(sym, dr)
        r = r * lcg - g * lcr * v ** (dr - dg)
    return r


def content_in(p: MultiPoly, sym: Symbol) -> MultiPoly:
    """gcd of the coefficients of ``p`` viewed as univariate in ``sym``."""
    coeffs = list(p.as_univariate(sym).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_constant() and not g.is_zero():
            break
        g = poly_gcd(g, c)
    return g.monic() if g.is_constant() else g


def primitive_part(p: MultiPoly, sym: Symbol) -> MultiPoly:
    """``p`` divided by its content in ``sym`` (``p`` itself when that is 1)."""
    if p.is_zero():
        return p
    content = content_in(p, sym)
    return p if content.is_constant() else p.exact_divide(content)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact multivariate gcd over Q(i), normalized monic.

    Single-term operands and disjoint supports short-circuit. When the
    supports differ, the gcd divides both operands, so it lies in Q(i)[C]
    for the common variables C and divides every coefficient of either
    operand over the monomials in its other variables: it is the gcd of
    those coefficients, smallest first (:func:`poly_gcd_many`). Operands on
    one support run a primitive pseudo-remainder sequence in a chosen main
    variable, recursing on contents. The result is verified implicitly:
    callers reduce by exact division, which raises if the gcd were wrong.
    """
    a._check(b)
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(a.table, 1)
    if a.is_monomial() or b.is_monomial():  # the coefficients are units
        mono, other = (a, b) if a.is_monomial() else (b, a)
        return a._like({_common_key(a._lay, [*mono._terms, *other._terms]): ONE})
    va, vb = set(a.variables()), set(b.variables())
    common = va & vb
    if not common:
        return MultiPoly.const(a.table, 1)
    if va != vb:
        index = a.table.index
        coeffs = [
            c
            for p, v in ((a, va), (b, vb))
            for c in _coefficients_in(p, [index(s) for s in v - common]).values()
        ]
        return poly_gcd_many(sorted(coeffs, key=MultiPoly.term_count))
    # main variable: smallest min-degree keeps the PRS short
    sym = min(common, key=lambda s: (min(a.degree(s), b.degree(s)), a.table.index(s)))
    ca, cb = content_in(a, sym), content_in(b, sym)
    pa, pb = a.exact_divide(ca), b.exact_divide(cb)
    cont = poly_gcd(ca, cb)
    f, g = (pa, pb) if pa.degree(sym) >= pb.degree(sym) else (pb, pa)
    while True:
        r = _pseudo_rem(f, g, sym)
        if r.is_zero():
            result = primitive_part(g, sym)
            break
        if r.degree(sym) <= 0:
            result = MultiPoly.const(a.table, 1)
            break
        f, g = g, primitive_part(r, sym)
    return (cont * result).monic()


def poly_gcd_many(polys: Iterable[MultiPoly]) -> MultiPoly:
    """The monic gcd of ``polys``, folded left to right; an operand that the
    running gcd divides exactly leaves it unchanged without a gcd."""
    it = iter(polys)
    try:
        g = next(it)
    except StopIteration:
        raise ValueError("gcd of empty collection")
    for p in it:
        if g.is_constant() and not g.is_zero():
            return g.monic()
        if g.is_zero() or not g.divides(p):
            g = poly_gcd(g, p)
    return g.monic() if not g.is_zero() else g


def poly_sqrt(p: MultiPoly) -> MultiPoly | None:
    """Exact polynomial square root, or None when ``p`` is not a square.

    Works by coefficient matching on a main variable, recursing into the
    leading coefficient; the candidate is verified by squaring, so a None
    answer is only returned when no square root exists over Q(i).
    """
    if p.is_zero():
        return p
    if p.is_constant():
        r = p.constant_value().sqrt()
        return MultiPoly.const(p.table, r) if r is not None else None
    vs = p.variables()
    sym = vs[0]
    d = p.degree(sym)
    if d % 2:
        return None
    m = d // 2
    coeffs = p.as_univariate(sym)
    zero = MultiPoly.zero(p.table)
    lead = poly_sqrt(coeffs.get(d, zero))
    if lead is None or lead.is_zero():
        return None
    # p_j = sum_{r+s=j} q_r q_s; solving top-down leaves 2*q_m*q_{j-m} as the
    # only unknown pair at each level j.
    q: dict[int, MultiPoly] = {m: lead}
    two_lead = lead * 2
    for j in range(d - 1, m - 1, -1):
        k = j - m
        acc = coeffs.get(j, zero)
        for r in range(k + 1, j // 2 + 1):
            s = j - r
            acc = acc - q[r] * q[s] * (2 if r != s else 1)
        try:
            q[k] = acc.exact_divide(two_lead)
        except NotDivisible:
            return None
    v = MultiPoly.var(p.table, sym)
    candidate = zero
    for k, c in q.items():
        candidate = candidate + c * v**k
    return candidate if candidate * candidate == p else None


def resultant(f: MultiPoly, g: MultiPoly, sym: Symbol) -> MultiPoly:
    """Resultant of f and g in ``sym`` via the Sylvester matrix.

    The determinant is computed fraction-free (Bareiss), so every division
    is exact and the result is a polynomial in the remaining symbols.
    """
    f._check(g)
    table = f.table
    m, n = f.degree(sym), g.degree(sym)
    one = MultiPoly.const(table, 1)
    zero = MultiPoly.zero(table)
    if f.is_zero() or g.is_zero():
        return zero
    if m <= 0 and n <= 0:
        return one
    if m <= 0:
        return f**n
    if n <= 0:
        return g**m
    fu, gu = f.as_univariate(sym), g.as_univariate(sym)
    size = m + n
    rows = []
    for r in range(n):
        rows.append([fu.get(m - (c - r), zero) if 0 <= c - r <= m else zero for c in range(size)])
    for r in range(m):
        rows.append([gu.get(n - (c - r), zero) if 0 <= c - r <= n else zero for c in range(size)])
    return _bareiss_det(rows)


def _bareiss_det(rows: list[list[MultiPoly]]) -> MultiPoly:
    n = len(rows)
    table = rows[0][0].table
    m = [row[:] for row in rows]
    sign = 1
    prev = MultiPoly.const(table, 1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(table)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]).exact_divide(prev)
            m[i][k] = MultiPoly.zero(table)
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det
