"""Sparse multivariate polynomials over the Gaussian rationals.

A polynomial is a finite map from exponent vectors to nonzero
:class:`~threewave.gaussian.GaussianRational` coefficients. Exponent vectors
are dense tuples indexed by a shared :class:`~threewave.symbols.SymbolTable`;
all operands of an arithmetic operation must carry the *same* table.

The fixed monomial order everywhere is graded lexicographic over the whole
table: higher total degree wins, ties broken lexicographically in table
order. Leading terms, monic normalization and the canonical text form all
refer to this order.

Values are immutable after construction, so they are safe to share between
threads and usable as dict keys.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .errors import NotDivisible, SymbolTableMismatch
from .gaussian import ONE, ZERO, GaussianRational
from .symbols import Symbol, SymbolTable


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


class MultiPoly:
    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: SymbolTable, terms: Mapping[tuple[int, ...], GaussianRational]):
        clean = {e: c for e, c in terms.items() if not c.is_zero()}
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "MultiPoly":
        return MultiPoly(table, {})

    @staticmethod
    def const(table: SymbolTable, value) -> "MultiPoly":
        c = value if isinstance(value, GaussianRational) else GaussianRational(value)
        return MultiPoly(table, {(0,) * len(table): c})

    @staticmethod
    def var(table: SymbolTable, sym: Symbol | str) -> "MultiPoly":
        k = table.index(sym)
        exp = [0] * len(table)
        exp[k] = 1
        return MultiPoly(table, {tuple(exp): ONE})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> GaussianRational:
        """Value of a constant polynomial (zero polynomial gives 0)."""
        if self.is_zero():
            return ZERO
        ((e, c),) = self.terms.items()
        if sum(e) != 0:
            raise ValueError("polynomial is not constant")
        return c

    def degree(self, sym: Symbol | str) -> int:
        """Maximum exponent of ``sym``; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        k = self.table.index(sym)
        return max(e[k] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def state_degree(self) -> int:
        """Total degree counting only state symbols."""
        if not self.terms:
            return -1
        idx = [k for k, s in enumerate(self.table.symbols) if s.kind == "state"]
        return max(sum(e[k] for k in idx) for e in self.terms)

    def variables(self) -> tuple[Symbol, ...]:
        """Symbols that actually occur with positive exponent."""
        if not self.terms:
            return ()
        n = len(self.table)
        seen = [False] * n
        for e in self.terms:
            for k in range(n):
                if e[k]:
                    seen[k] = True
        return tuple(s for k, s in enumerate(self.table.symbols) if seen[k])

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> GaussianRational:
        return self.terms[self.leading_monomial()]

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return MultiPoly(self.table, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = MultiPoly.const(self.table, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            c = other if isinstance(other, GaussianRational) else GaussianRational(other)
            if c.is_zero():
                return MultiPoly.zero(self.table)
            return MultiPoly(self.table, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return MultiPoly(self.table, out)

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
        return MultiPoly(self.table, {e: fn(c) for e, c in self.terms.items()})

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
        dlm = divisor.leading_monomial()
        dlc = divisor.terms[dlm]
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], GaussianRational] = {}
        while rem:
            lm = max(rem, key=_grlex_key)
            qexp = tuple(a - b for a, b in zip(lm, dlm))
            if any(q < 0 for q in qexp):
                raise NotDivisible(
                    "leading monomial not divisible", remainder=MultiPoly(self.table, rem)
                )
            qc = rem[lm] / dlc
            quot[qexp] = qc
            for e, c in divisor.terms.items():
                t = tuple(a + b for a, b in zip(qexp, e))
                s = rem.get(t, ZERO) - qc * c
                if s.is_zero():
                    rem.pop(t, None)
                else:
                    rem[t] = s
        return MultiPoly(self.table, quot)

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
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            d = e[k]
            stripped = e[:k] + (0,) + e[k + 1 :]
            bucket = out.setdefault(d, {})
            s = bucket.get(stripped, ZERO) + c
            if s.is_zero():
                bucket.pop(stripped, None)
            else:
                bucket[stripped] = s
        return {d: MultiPoly(self.table, t) for d, t in out.items() if t}

    def coefficient_of(self, sym: Symbol | str, power: int) -> "MultiPoly":
        return self.as_univariate(sym).get(power, MultiPoly.zero(self.table))

    def shift_var(self, sym: Symbol | str, power: int) -> "MultiPoly":
        """Multiply by sym**power (power may be negative if every term allows it)."""
        k = self.table.index(sym)
        out = {}
        for e, c in self.terms.items():
            d = e[k] + power
            if d < 0:
                raise ValueError("negative exponent after shift")
            out[e[:k] + (d,) + e[k + 1 :]] = c
        return MultiPoly(self.table, out)

    def split_by_state_monomial(self) -> dict[tuple[int, ...], "MultiPoly"]:
        """Group terms by their state-symbol exponent pattern.

        Returns a map from state-exponent vectors (full-length tuples with
        parameter slots zeroed) to the parameter-only polynomial multiplying
        that state monomial.
        """
        idx_state = [k for k, s in enumerate(self.table.symbols) if s.kind == "state"]
        out: dict[tuple[int, ...], dict] = {}
        for e, c in self.terms.items():
            key = [0] * len(e)
            par = list(e)
            for k in idx_state:
                key[k] = e[k]
                par[k] = 0
            bucket = out.setdefault(tuple(key), {})
            pe = tuple(par)
            s = bucket.get(pe, ZERO) + c
            if s.is_zero():
                bucket.pop(pe, None)
            else:
                bucket[pe] = s
        return {k: MultiPoly(self.table, t) for k, t in out.items() if t}

    # -- substitution of exact constants --------------------------------------

    def specialize(self, bindings: Mapping[Symbol, GaussianRational]) -> "MultiPoly":
        """Substitute exact constant values for some symbols."""
        if not bindings:
            return self
        idx = {self.table.index(s): v for s, v in bindings.items()}
        out: dict[tuple[int, ...], GaussianRational] = {}
        for e, c in self.terms.items():
            val = c
            ne = list(e)
            for k, v in idx.items():
                if e[k]:
                    val = val * v ** e[k]
                    ne[k] = 0
            if val.is_zero():
                continue
            t = tuple(ne)
            s = out.get(t, ZERO) + val
            if s.is_zero():
                out.pop(t, None)
            else:
                out[t] = s
        return MultiPoly(self.table, out)

    def eval_exact(self, bindings: Mapping[Symbol, GaussianRational]) -> GaussianRational:
        """Evaluate at a full exact point (every occurring symbol bound)."""
        result = self.specialize(bindings)
        return result.constant_value()

    def eval_complex(self, values: Mapping[str, complex]) -> complex:
        total = 0j
        syms = self.table.symbols
        for e, c in self.terms.items():
            t = complex(c)
            for k, d in enumerate(e):
                if d:
                    t *= values[syms[k].name] ** d
            total += t
        return total

    # -- calculus --------------------------------------------------------------

    def derivative(self, sym: Symbol | str) -> "MultiPoly":
        k = self.table.index(sym)
        out = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            ne = e[:k] + (e[k] - 1,) + e[k + 1 :]
            nc = c * e[k]
            s = out.get(ne, ZERO) + nc
            if s.is_zero():
                out.pop(ne, None)
            else:
                out[ne] = s
        return MultiPoly(self.table, out)

    # -- table migration ---------------------------------------------------------

    def retable(self, new_table: SymbolTable) -> "MultiPoly":
        """Re-key the polynomial over a different table.

        Every symbol actually occurring must exist in the new table; the fast
        path handles pure extensions (old table a prefix of the new one).
        """
        if new_table == self.table:
            return self
        if self.table.is_prefix_of(new_table):
            pad = (0,) * (len(new_table) - len(self.table))
            return MultiPoly(new_table, {e + pad: c for e, c in self.terms.items()})
        mapping = []
        for k, s in enumerate(self.table.symbols):
            mapping.append(new_table.index(s) if s in new_table else None)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_table)
            for k, d in enumerate(e):
                if d:
                    if mapping[k] is None:
                        raise SymbolTableMismatch(
                            f"symbol {self.table.symbols[k].name!r} missing from target table"
                        )
                    ne[mapping[k]] = d
            out[tuple(ne)] = c
        return MultiPoly(new_table, out)

    # -- comparison / printing -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, GaussianRational)):
                return self == MultiPoly.const(self.table, other)
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def sorted_terms(self) -> list[tuple[tuple[int, ...], GaussianRational]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def text(self) -> str:
        """Canonical text form: graded-lex descending, '*' products, '^' powers."""
        if self.is_zero():
            return "0"
        parts = []
        syms = self.table.symbols
        for e, c in self.sorted_terms():
            factors = []
            for k, d in enumerate(e):
                if d == 1:
                    factors.append(syms[k].name)
                elif d > 1:
                    factors.append(f"{syms[k].name}^{d}")
            mono = "*".join(factors)
            if not mono:
                coeff = c.text()
            elif c.is_one():
                coeff = ""
            elif c == GaussianRational(-1):
                coeff = "-"
            elif c.is_compound():
                coeff = f"({c.text()})*"
            else:
                coeff = f"{c.text()}*"
            term = coeff + mono if mono else coeff
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts).replace("+-", "-")

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"MultiPoly({self.text()})"


# -- gcd machinery ------------------------------------------------------------


def _monomial_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd when at least one argument is a single term (coefficients are units)."""
    mono = a if a.is_monomial() else b
    other = b if a.is_monomial() else a
    (me,) = mono.terms
    mins = list(me)
    for e in other.terms:
        mins = [min(m, d) for m, d in zip(mins, e)]
        if not any(mins):
            break
    return MultiPoly(a.table, {tuple(mins): ONE})


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
    if p.is_zero():
        return p
    return p.exact_divide(content_in(p, sym))


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact multivariate gcd over Q(i), normalized monic.

    Primitive pseudo-remainder sequence in a chosen main variable, recursing
    on contents. Single-term operands and disjoint supports short-circuit.
    The result is verified implicitly: callers reduce by exact division,
    which raises if the gcd were wrong.
    """
    a._check(b)
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(a.table, 1)
    if a.is_monomial() or b.is_monomial():
        return _monomial_gcd(a, b)
    va, vb = set(a.variables()), set(b.variables())
    common = va & vb
    if not common:
        return MultiPoly.const(a.table, 1)
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
    it = iter(polys)
    try:
        g = next(it)
    except StopIteration:
        raise ValueError("gcd of empty collection")
    for p in it:
        if g.is_constant() and not g.is_zero():
            return g.monic()
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
