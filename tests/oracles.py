"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and favours obviousness over speed:
term-by-term dictionary multiplication, and a pushforward that composes with
plain rational-function arithmetic one term at a time instead of the library
substitution path. These stay independent of the code they check. The
seeded inputs of the differential tests (random fields, every built-in map
and a blow-up chart) live here too.
"""

from __future__ import annotations

from threewave import models
from threewave.gaussian import GaussianRational
from threewave.geometry import ChartMap, VectorField
from threewave.poly import MultiPoly
from threewave.ratfunc import RationalFn
from threewave.singular import blow_up


def naive_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, GaussianRational(0)) + c1 * c2
    return MultiPoly(a.table, out)


def naive_substitute_poly(p: MultiPoly, bindings: dict) -> RationalFn:
    """Sum over terms of coeff * prod(binding^exp), all in RationalFn arithmetic."""
    table = next(iter(bindings.values())).table
    total = RationalFn.const(table, 0)
    syms = p.table.symbols
    for e, c in p.terms.items():
        term = RationalFn.const(table, c)
        for k, d in enumerate(e):
            if not d:
                continue
            sym = syms[k]
            b = bindings.get(sym)
            if b is None:
                b = RationalFn.var(table, table.get(sym.name))
            for _ in range(d):
                term = term * b
        total = total + term
    return total


def naive_substitute(f: RationalFn, bindings: dict) -> RationalFn:
    num = naive_substitute_poly(f.num, bindings)
    den = naive_substitute_poly(f.den, bindings)
    return num / den


def oracle_pushforward(v: VectorField, cmap: ChartMap) -> list[RationalFn]:
    """Chain rule then simplify, with naive per-term composition."""
    inverse_bindings = {cmap.source.vars[j]: cmap.inverse[j] for j in range(3)}
    out = []
    for k in range(3):
        acc = RationalFn.const(v.table, 0)
        for j in range(3):
            d = cmap.forward[k].derivative(cmap.source.vars[j])
            acc = acc + d * v.components[j]
        out.append(naive_substitute(acc, inverse_bindings))
    return out


# -- seeded inputs for the differential tests ------------------------------------


def random_ratfn(rng, table, syms) -> RationalFn:
    """A small random rational function in ``syms``: a numerator of up to
    three terms of degree <= 2 over a denominator of 1, a constant plus one
    monomial, or a single monomial."""

    def monomial():
        e = [0] * len(table)
        for _ in range(rng.randint(0, 2)):
            e[table.index(rng.choice(syms))] += 1
        return tuple(e)

    def coeff():
        return GaussianRational(rng.choice((-2, -1, 1, 3)), rng.choice((0, 0, 1)))

    num = MultiPoly(table, {monomial(): coeff() for _ in range(rng.randint(1, 3))})
    shape = rng.randint(0, 2)
    if shape == 0:
        den = MultiPoly.const(table, 1)
    elif shape == 1:
        den = MultiPoly(table, {(0,) * len(table): coeff(), monomial(): coeff()})
    else:
        den = MultiPoly(table, {monomial(): coeff()})
    return RationalFn(num, den)


def differential_maps() -> list[ChartMap]:
    """Every built-in chart map out of a base chart (projective, resolved and
    weighted), then the three charts of a point blow-up of three-wave's base
    chart at (1, 0, -1)."""
    maps = []
    for kind in ("three-wave", "modified"):
        m = models.model(kind)
        maps += [cm for name in ("projective", "resolved") for cm in m.atlas(name)[1:]]
        maps.append(models.weighted_chart_map(kind, (1, 0, 2)))
    v = models.system_field("three-wave")
    maps += [blow_up(v, [1, 0, -1], k).cmap for k in range(3)]
    return maps
