"""Exact root extraction for univariate polynomials over the Gaussian-rational
parameter field.

After the ``var**k`` monomial factor (the roots at zero) is split off, one
loop runs on the primitive part in ``var``:

* take the candidate roots for the current degree: the closed form for
  degree 1, the quadratic formula's root when the discriminant is an exact
  square (:func:`~threewave.poly.poly_sqrt`) for degree 2, and rationalized
  numeric guesses at parameter specializations above that;
* keep the first candidate that :func:`~threewave.ratfunc.vanishes`
  certifies, and divide its primitive linear factor ``den*var - num`` out
  exactly;
* stop at degree 0 or when no candidate is certified.

The parameter content carries no roots, so by Gauss's lemma every division
is exact and the quotient stays primitive. What is left is returned monic as
an unfactored residual -- callers treat residuals as data, not as errors.
Every reported root satisfies p(root) == 0 exactly, so the candidates,
closed forms included, are only guesses, never a source of truth.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

from .gaussian import GaussianRational
from .poly import MultiPoly, poly_sqrt, primitive_part
from .ratfunc import RationalFn, vanishes
from .symbols import Symbol


@dataclass(frozen=True)
class RootsResult:
    roots: tuple[RationalFn, ...]
    residual: MultiPoly  # monic; constant 1 when the polynomial split completely

    def fully_split(self) -> bool:
        return self.residual.is_constant()


def find_roots(p: MultiPoly, var: Symbol) -> RootsResult:
    """All roots of ``p`` in ``var`` expressible in the parameter field.

    ``p`` must involve no state symbols other than ``var``. Roots are listed
    with multiplicity, sorted by text (so repeated roots are adjacent); the
    leftover factor is returned monic and unfactored. Nothing is kept: the
    boundary solve reads the roots through its model's memo
    (``singular._roots``), and every other caller solves afresh.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every value as a root")
    for s in p.variables():
        if s != var and s.kind == "state":
            raise ValueError(f"polynomial is not univariate in {var.name!r}: contains {s.name!r}")
    table = p.table
    kmin = min(p.as_univariate(var))
    roots = [RationalFn.const(table, 0)] * kmin
    current = primitive_part(p.shift_var(var, -kmin), var)
    x = MultiPoly.var(table, var)
    while current.degree(var) > 0:
        root = next((c for c in _candidates(current, var)
                     if vanishes((current,), {var: c}, table)), None)
        if root is None:
            break
        roots.append(root)
        current = current.exact_divide(root.den * x - root.num)
    roots.sort(key=lambda r: r.text())
    return RootsResult(tuple(roots), current.monic())


def _candidates(p: MultiPoly, var: Symbol) -> list[RationalFn]:
    """The candidate roots for the degree of ``p`` (see the module docstring)."""
    cs = p.as_univariate(var)
    deg = max(cs)
    if deg > 2:
        return _root_candidates(p, var)
    zero = MultiPoly.zero(p.table)
    if deg == 1:
        return [RationalFn(-cs.get(0, zero), cs[1])]
    c2, c1, c0 = cs[2], cs.get(1, zero), cs.get(0, zero)
    sq = poly_sqrt(c1 * c1 - 4 * c2 * c0)
    return [] if sq is None else [RationalFn(-c1 + sq, 2 * c2)]


# -- candidate generation ------------------------------------------------------


def _root_candidates(p: MultiPoly, var: Symbol) -> list[RationalFn]:
    table = p.table
    params = [s for s in p.variables() if s != var]
    rng = random.Random(20211)
    cands: list[RationalFn] = []
    seen: set[str] = set()

    def push(rf: RationalFn):
        key = rf.text()
        if key not in seen:
            seen.add(key)
            cands.append(rf)

    if not params:
        for r in _numeric_roots(_complex_coeffs(p, var, {})):
            for g in _rationalize(r):
                push(RationalFn.const(table, g))
        return cands

    draws = []
    for _ in range(3):
        vals = {s: GaussianRational(Fraction(rng.randint(2, 40), rng.randint(1, 7))) for s in params}
        draws.append((vals, _numeric_roots(_complex_coeffs(p, var, vals))))
    (v1, r1), (v2, r2), (v3, r3) = draws

    def near(value: complex, pool) -> bool:
        return any(abs(value - q) < 1e-6 * (1 + abs(value)) for q in pool)

    for a in r1:
        # constant across all specializations -> parameter-free root
        if near(a, r2) and near(a, r3):
            for g in _rationalize(a):
                push(RationalFn.const(table, g))
    if len(params) == 1:
        # affine-in-parameter reconstruction, validated on a third draw
        s = params[0]
        t1, t2, t3 = (complex(v[s]) for v in (v1, v2, v3))
        for a in r1:
            for b in r2:
                w = (a - b) / (t1 - t2)
                if abs(w) < 1e-9:
                    continue
                u = a - w * t1
                if not near(u + w * t3, r3):
                    continue
                for gw in _rationalize(w):
                    for gu in _rationalize(u):
                        push(
                            RationalFn.const(table, gu)
                            + RationalFn.const(table, gw) * RationalFn.var(table, s)
                        )
    return cands


def _complex_coeffs(p: MultiPoly, var: Symbol, values: dict[Symbol, GaussianRational]) -> list[complex]:
    cs = p.specialize(values).as_univariate(var)
    deg = max(cs)
    out = []
    for k in range(deg + 1):
        c = cs.get(k)
        out.append(complex(c.constant_value()) if c is not None else 0j)
    return out


def _numeric_roots(coeffs: list[complex]) -> list[complex]:
    """Durand-Kerner iteration; accuracy only needs to beat the rationalizer.
    Guesses that overflowed to a non-finite value are dropped."""
    while coeffs and abs(coeffs[-1]) == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n < 1:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]

    def ev(x: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * x + c
        return acc

    roots = [(0.4 + 0.9j) ** k for k in range(1, n + 1)]
    for _ in range(300):
        shift = 0.0
        new = []
        for k, r in enumerate(roots):
            d = 1.0 + 0j
            for j, s in enumerate(roots):
                if j != k:
                    d *= r - s
            if d == 0:
                d = 1e-12
            delta = ev(r) / d
            new.append(r - delta)
            shift = max(shift, abs(delta))
        roots = new
        if shift < 1e-13:
            break
    return [r for r in roots if cmath.isfinite(r)]


def _rationalize(x: complex) -> list[GaussianRational]:
    out = []
    for limit in (1, 12, 128, 10_000):
        re = Fraction(x.real).limit_denominator(limit)
        im = Fraction(x.imag).limit_denominator(limit)
        g = GaussianRational(re, im)
        if not out or out[-1] != g:
            out.append(g)
    return out
