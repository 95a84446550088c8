"""Exact root extraction for low-degree univariate polynomials over the
Gaussian-rational parameter field.

Strategy, in order:

* split off the ``var**k`` monomial factor (roots at zero),
* degree 1: solve directly,
* degree 2: quadratic formula, taking the root only when the discriminant
  is an exact square (:func:`~threewave.poly.poly_sqrt`),
* degree 3-4: hunt for linear factors by generating candidate roots from
  numeric specializations and certifying them *exactly* with
  :func:`~threewave.ratfunc.vanishes`; certified factors are deflated away
  and the loop repeats.

The parameter content carries no roots, so the polynomial and each deflated
quotient are kept primitive in the variable. Whatever cannot be split this
way is returned as an unfactored residual -- callers treat residuals as data,
not as errors. Every reported root satisfies p(root) == 0 exactly (candidates
that fail the certificate are dropped), so the numeric step is only a guess
generator, never a source of truth.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

from .gaussian import GaussianRational
from .poly import MultiPoly, poly_sqrt, primitive_part
from .ratfunc import RationalFn, clear_denominators, vanishes
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
    leftover factor is returned monic and unfactored.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every value as a root")
    for s in p.variables():
        if s != var and s.kind == "state":
            raise ValueError(f"polynomial is not univariate in {var.name!r}: contains {s.name!r}")
    table = p.table
    one = MultiPoly.const(table, 1)
    roots: list[RationalFn] = []

    univ = p.as_univariate(var)
    kmin = min(univ)
    zero_rf = RationalFn.const(table, 0)
    roots.extend([zero_rf] * kmin)
    current = primitive_part(p.shift_var(var, -kmin), var)

    while True:
        deg = current.degree(var)
        if deg <= 0:
            residual = one
            break
        cs = current.as_univariate(var)
        zero = MultiPoly.zero(table)
        if deg == 1:
            roots.append(RationalFn(-cs.get(0, zero), cs[1]))
            residual = one
            break
        if deg == 2:
            c2, c1, c0 = cs[2], cs.get(1, zero), cs.get(0, zero)
            disc = c1 * c1 - 4 * c2 * c0
            sq = poly_sqrt(disc)
            if sq is None:
                residual = current.monic()
                break
            roots.append(RationalFn(-c1 + sq, 2 * c2))
            roots.append(RationalFn(-c1 - sq, 2 * c2))
            residual = one
            break
        root = next((c for c in _root_candidates(current, var)
                     if vanishes((current,), {var: c}, table)), None)
        if root is None:
            residual = current.monic()
            break
        roots.append(root)
        current = _deflate(current, var, root)

    roots.sort(key=lambda r: r.text())
    return RootsResult(tuple(roots), residual)


def _deflate(p: MultiPoly, var: Symbol, root: RationalFn) -> MultiPoly:
    """Divide out (var - root), clearing denominators afterwards.

    Synthetic division (Horner) over the field; the quotient's coefficients
    are rational in the parameters, so they are put over a common denominator
    and the numerator polynomial is returned (same roots in ``var``).
    """
    deg = p.degree(var)
    cs = p.as_univariate(var)
    zero = MultiPoly.zero(p.table)
    b = RationalFn.from_poly(cs[deg])
    quot: dict[int, RationalFn] = {deg - 1: b}
    for k in range(deg - 1, 0, -1):
        b = RationalFn.from_poly(cs.get(k, zero)) + root * b
        quot[k - 1] = b
    v = MultiPoly.var(p.table, var)
    out = zero
    _, nums = clear_denominators(list(quot.values()), p.table)
    for k, num in zip(quot, nums):
        out = out + num * v**k
    return primitive_part(out, var)


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
    sp = p.specialize(values) if values else p
    cs = sp.as_univariate(var)
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
