"""Taylor-series integration over complex time with chart switching.

Every chart of a resolved atlas carries a polynomial field, so the Taylor coefficients
of a solution follow exactly from Cauchy-product recurrences (Corliss and Chang 1982;
Jorba and Zou 2005). The integrator follows a piecewise-linear path in the complex time
plane by Taylor steps of order about -ln(tol)/2, each as long as the last two
coefficients allow: its last term kept, ``err_est``, which bounds the dropped terms,
stays below ``tol`` times max(1, |y|). Whenever the state grows beyond a switch
threshold it is mapped through the atlas and continued in the chart where its norm is
smallest -- that is what carries a trajectory straight through a movable pole. Chart
transitions go through the base chart, which is harmless because switches happen while
every representation is still O(10). :class:`NumericAtlas` compiles, at exactly bound
parameter values, each map and each pole chart's Laurent tail to one straight-line function
(:func:`compile_values`) and each pushed field to a coefficient recurrence that builds a
monomial as the product of two built before it. They do the same float operations in
the same order as ``tests/oracles.py``.

:func:`fit_pole` reads a movable pole off a Taylor series in the chart that resolves it;
:func:`monodromy_check` reports how far a closed loop ends from its start (small: single-valued).
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import AnalysisFailed, FitAmbiguous, StepUnderflow
from .gaussian import GaussianRational
from .geometry import ChartMap, VectorField
from .ratfunc import RationalFn

SWITCH_THRESHOLD = 10.0
SWITCH_GAIN = 4.0
MAX_STEPS = 200_000  # accepted plus rejected steps of one integrate call
LOOP_SEGMENTS = 24  # chords of the monodromy loop
STEP_SAFETY = 0.8  # a step is this fraction of the radius at which the last term kept reaches tol

# the pole read-out (fit_pole)
_NEWTON_STEPS = 12  # Newton steps allowed; one whose iterate leaves the series' disc counts too
_ROUNDING = 4 * sys.float_info.epsilon  # a Newton step this small, relative to max(1, |t|), has converged
_VANISHING = 1e-9  # a coefficient this small, relative to its component's largest, vanishes
# the least order whose reach at _ROUNDING is half a Taylor step's least, STEP_SAFETY / e^2 radii
_FIT_ORDER = math.ceil(math.log(_ROUNDING) / math.log(math.exp(-2) / 2))
_FIT_REACH = STEP_SAFETY * _ROUNDING ** (1 / _FIT_ORDER)


class TrajectoryPoint(NamedTuple):
    t: complex
    state: tuple[complex, complex, complex]
    chart: str
    err: float = 0.0  # err_est: the last term kept by the step that produced this point


class SwitchEvent(NamedTuple):
    t: complex
    from_chart: str
    to_chart: str
    norm_before: float
    norm_after: float


class Trajectory:
    """The points and chart switches of one run, growing as it integrates,
    with its step counts and the sum of its steps' error estimates."""

    __slots__ = ("points", "events", "error_estimate", "steps_accepted", "steps_rejected")

    def __init__(self, points: list[TrajectoryPoint]):
        self.points = points
        self.events: list[SwitchEvent] = []
        self.error_estimate = 0.0
        self.steps_accepted = 0
        self.steps_rejected = 0

    @property
    def end(self) -> TrajectoryPoint:
        return self.points[-1]

    def to_csv(self) -> str:
        def numbers(*vals):
            return ",".join(f"{v:.17g}" for v in vals)
        rows = [f"{numbers(p.t.real, p.t.imag)},{p.chart},"
                f"{numbers(*(u for c in p.state for u in (c.real, c.imag)), p.err)}" for p in self.points]
        return "\n".join(["t_re,t_im,chart,x_re,x_im,y_re,y_im,z_re,z_im,err_est"] + rows) + "\n"


# -- compilation --------------------------------------------------------------------


def _fold_terms(poly, var_names: Sequence[str], consts: dict):
    """Yield (kN, exponents in ``var_names`` order) per term in canonical order, the
    coefficient bound in ``consts`` as kN; ``ValueError`` if it is too large for a float."""
    syms = poly.table.symbols
    var_slots = {name: k for k, name in enumerate(var_names)}
    for e, c in poly.sorted_terms():
        exps = [0, 0, 0]
        for k, d in enumerate(e):
            if d:
                name = syms[k].name
                if name not in var_slots:
                    raise KeyError(f"symbol {name!r} has no numeric value")
                exps[var_slots[name]] = d
        try:
            consts[name := f"k{len(consts)}"] = complex(c)
        except OverflowError:
            raise ValueError(f"coefficient {c} is too large for a float") from None
        yield name, tuple(exps)


_ARGS = ("a", "b", "c")
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # their exponents


def _sum_source(poly, var_names: Sequence[str], target: str, consts: dict, powers: set) -> list[str]:
    """Statements that leave ``poly`` at a, b, c in ``target``: from ``target = 0j``, one
    ``target += kN * a3 * b1 ...`` per term in canonical order, kN bound in ``consts``. A power
    not yet in ``powers``, the (argument, exponent) pairs computed so far, is computed as ``a3 =
    a**3`` directly before the first term that reads it, so that one that overflows raises where
    the term loop of ``tests/oracles.py`` does; ``a**1`` too: it overflows where ``a`` is infinite."""
    lines = [f"{target} = 0j"]
    for name, exps in _fold_terms(poly, var_names, consts):
        factors = [(arg, e) for arg, e in zip(_ARGS, exps) if e]
        lines += [f"{arg}{e} = {arg}**{e}" for arg, e in factors if (arg, e) not in powers]
        powers.update(factors)
        lines.append(f"{target} += {name}" + "".join(f" * {arg}{e}" for arg, e in factors))
    return lines


def _function(lines: list[str], result: str, consts: dict, params: str = "a, b, c") -> Callable:
    """``def ev(params)`` of ``lines`` returning ``result``, with ``consts`` as its namespace."""
    body = "".join(f"    {line}\n" for line in lines)
    exec(_code(f"def ev({params}):\n{body}    return {result}\n"), consts)
    return consts["ev"]


@lru_cache(maxsize=512)
def _code(source: str):
    """The compiled ``source``. It names its coefficients and not their values,
    so fields of one monomial structure share it at every parameter point."""
    return compile(source, "<string>", "exec")


def compile_values(rfs, var_names):
    """One function of a, b, c returning the tuple of the rational functions ``rfs``, evaluated
    in turn, each numerator before its denominator; a power is computed once for all of them."""
    consts, lines, powers = {}, [], set()
    for i, rf in enumerate(rfs):
        lines += _sum_source(rf.num, var_names, f"s{i}", consts, powers)
        if not rf.is_polynomial():  # a reduced denominator is monic: a polynomial's is 1
            lines += _sum_source(rf.den, var_names, f"d{i}", consts, powers)
            lines.append(f"s{i} /= d{i}")
    return _function(lines, "(" + "".join(f"s{i}, " for i in range(len(rfs))) + ")", consts)


def _product_chain(monomials) -> dict:
    """Per monomial e of degree 2 or more in ``monomials`` (exponent triples) or built on the way,
    in the order built: its split (f, g), f + g = e, into two built before it (a unit is built),
    walking e by rising degree, each in canonical order. f is the largest built divisor whose
    cofactor is built, else the largest, its cofactor built first."""
    chain = dict.fromkeys(_UNITS)  # exponents -> split, None for a unit

    def build(e):
        a, b, c = e
        divisors = sorted((sum(d), d) for d in chain if d[0] <= a and d[1] <= b and d[2] <= c)
        f = next((d for _, d in reversed(divisors) if (a - d[0], b - d[1], c - d[2]) in chain),
                 divisors[-1][1])
        g = (a - f[0], b - f[1], c - f[2])
        for part in {f, g} - chain.keys():  # at most one: the other is a built divisor or a unit
            build(part)
        chain[e] = f, g

    for e in sorted(sorted((e for e in monomials if sum(e) >= 2), reverse=True), key=sum):  # a stable sort
        if e not in chain:
            build(e)
    return {e: split for e, split in chain.items() if split}


def compile_series(rfs, var_names) -> Callable:
    """``series(a, b, c, n)``: the Taylor coefficients, orders 0 to n, of the solution of the
    field ``rfs`` through (a, b, c), as three lists. One loop serves every order k: each monomial
    of the numerators and denominators is the Cauchy product ``sum(map(mul, F, reversed(G)))`` of
    its split (F, G) by :func:`_product_chain`; a component folds its terms from 0j in canonical
    order, the constant at order 0 only, a rational one by the recurrence q_k = (n_k - sum_{j>=1}
    d_j q_{k-j}) / d_0; over k + 1 it is the order-(k + 1) coefficient."""
    consts: dict = {"mul": mul}
    folds, lists, tail = [], [], []  # folds: (target, its terms)
    for i, (rf, arg) in enumerate(zip(rfs, _ARGS)):
        folds.append((f"s{i}", list(_fold_terms(rf.num, var_names, consts))))
        if rf.is_polynomial():
            tail.append(f"{arg}.append(s{i} / m)")
        else:
            folds.append((f"d{i}", list(_fold_terms(rf.den, var_names, consts))))
            lists += [f"e{i}", f"f{i}"]
            tail += [f"e{i}.append(d{i})",
                     f"f{i}.append((s{i} - sum(map(mul, e{i}[1:], reversed(f{i})))) / e{i}[0])",
                     f"{arg}.append(f{i}[k] / m)"]
    series, loop = dict(zip(_UNITS, _ARGS)), []  # series: exponents -> the name of its coefficient list
    for e, (f, g) in _product_chain({e for _, terms in folds for _, e in terms}).items():
        series[e] = name = f"p{len(loop)}"
        lists.append(name)
        loop.append(f"{name}.append(sum(map(mul, {series[f]}, reversed({series[g]}))))")
    loop += [f"{target} = 0j" + "".join(f" + {c} * {series[e]}[k]" for c, e in terms if any(e))
             for target, terms in folds]
    constants = [f"        {target} += {c}" for target, terms in folds for c, e in terms if not any(e)]
    lines = ["a, b, c = [a], [b], [c]"] + [f"{name} = []" for name in lists]
    lines += ["for k in range(n):", "    m = k + 1"] + [f"    {line}" for line in loop]
    lines += (["    if not k:"] + constants) if constants else []
    return _function(lines + [f"    {line}" for line in tail], "a, b, c", consts, "a, b, c, n")


class PoleChart(NamedTuple):
    """A chart whose inverse map has the components n_k / x_b^d_k, x_b being
    its boundary coordinate: a pole of the base chart is a point of x_b = 0."""

    slot: int  # position of x_b among the chart variables
    orders: tuple  # per component, -k per Laurent coefficient of x_b^k, for rising k
    tail: Callable  # of the chart's coordinates: every Laurent coefficient, in that order


def _pole_chart(cmap: ChartMap, tvars: Sequence[str]) -> PoleChart | None:
    b = cmap.target.boundary
    if b is None:
        return None
    try:
        tails = [sorted(rf.laurent(b).items()) for rf in cmap.inverse]
    except ValueError:  # some denominator is not a power of x_b
        return None
    coefficients = [RationalFn.from_poly(c) for tail in tails for _, c in tail]
    return PoleChart(cmap.target.vars.index(b), tuple(tuple(-k for k, _ in tail) for tail in tails),
                     compile_values(coefficients, tvars))


class NumericAtlas:
    """Compiled fields and transitions for one system on one atlas.

    ``maps`` are base-to-chart maps (the identity chart included). Finite
    ``params`` by parameter name of ``v`` are bound exactly, as on the command
    line. Each map is specialized there with its certificate, the composite
    denominators D of its construction (N = x*D), so it raises
    DenominatorVanishes where some D vanishes; so is the push of ``v``
    through it, which the map keeps. A parameter without a value, or a name
    that is no parameter, raises ``KeyError``. Unless ``require_polynomial``
    is false, a field not polynomial on some chart raises ``AnalysisFailed``.
    ``poles`` holds the charts whose boundary coordinate reads a pole.
    """

    def __init__(self, v: VectorField, maps: Sequence[ChartMap], params: Mapping[str, complex],
                 require_polynomial: bool = True):
        syms = {s.name: s for s in v.table.parameters()}
        bindings = {}
        for name, value in params.items():
            if name not in syms:
                raise KeyError(f"{name!r} is not a parameter of the field")
            if not cmath.isfinite(value):
                raise ValueError(f"parameter {name!r} is not finite: {value!r}")
            bindings[syms[name]] = GaussianRational.from_complex(value)
        bound_maps = [cmap.specialize(bindings) for cmap in maps]  # a map singular here fails as the map
        fields = [cmap.push(v).specialize(bindings) for cmap in maps]
        if require_polynomial and (bad := [w.chart.name for w in fields if not w.is_polynomial()]):
            raise AnalysisFailed(f"field is not polynomial on charts {bad}")
        self.base = v.chart.name
        self.series: dict[str, Callable] = {}
        self.to_base: dict[str, Callable] = {}
        self.from_base: dict[str, Callable] = {}
        self.poles: dict[str, PoleChart] = {}
        base_vars = tuple(s.name for s in v.chart.vars)
        for cmap, w in zip(bound_maps, fields):
            name = cmap.target.name
            tvars = tuple(s.name for s in cmap.target.vars)
            try:
                self.series[name] = compile_series(w.components, tvars)
                self.to_base[name] = compile_values(cmap.inverse, tvars)
                self.from_base[name] = compile_values(cmap.forward, base_vars)
                if pole := _pole_chart(cmap, tvars):
                    self.poles[name] = pole
            except ValueError as exc:
                raise ValueError(f"chart {name}: {exc}") from None

    def charts(self) -> list[str]:
        return list(self.series)

    def transition(self, state, frm: str, to: str):
        if frm == to:
            return tuple(state)
        return self.from_base[to](*self.to_base[frm](*state))

    def best_chart(self, state, frm: str):
        """Chart minimizing the max-norm of the transported state; a candidate
        with a modulus that is not finite is skipped."""
        best_name, best_state, best_norm = frm, tuple(state), max(abs(c) for c in state)
        for name in self.series:  # frm itself is no smaller
            try:
                cand = self.transition(state, frm, name)
                moduli = [abs(c) for c in cand]  # a modulus that overflows raises
            except (ZeroDivisionError, OverflowError):
                continue
            if all(map(math.isfinite, moduli)) and max(moduli) < best_norm:  # max drops a nan
                best_name, best_state, best_norm = name, cand, max(moduli)
        return best_name, best_state, best_norm


# -- the integrator -------------------------------------------------------------------


def _taylor_order(tol: float) -> tuple[int, float]:
    """The order p = ceil(-ln(tol) / 2) + 1, at least 2, of a Taylor step at ``tol`` (Jorba
    and Zou), and its reach ``STEP_SAFETY * tol**(1/p)``, in radii of its coefficients."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    order = max(2, math.ceil(-math.log(tol) / 2) + 1)
    return order, STEP_SAFETY * tol ** (1 / order)


def _radius(coeffs, scale: float, h: float, reach: float) -> float:
    """The least of ``h`` and ``reach`` times the radii (scale / |X_j|)^(1/j),
    in max-norm, of the last two orders j of the series ``coeffs``."""
    a, b, c = coeffs
    for j in (len(a) - 2, len(a) - 1):
        top = max(abs(a[j]), abs(b[j]), abs(c[j]))
        if top:
            h = min(h, reach * (scale / top) ** (1 / j))
    return h


def _taylor_step(series, y, scale: float, direction: complex, h: float, order: int, reach: float):
    """One Taylor step from ``y`` along ``direction``: the state, the sum of X_k (direction *
    step)^k by rising k; the moduli of its last terms, its ``err_est``, which bound the dropped
    terms; and the step, the least of ``h`` and the :func:`_radius` of its series at ``scale``."""
    a, b, c = coeffs = series(*y, order)
    h = _radius(coeffs, scale, h, reach)
    w = list(accumulate(repeat(direction * h, order), mul, initial=1.0))  # the powers of the step
    last = w[-1]
    return ((sum(map(mul, a, w)), sum(map(mul, b, w)), sum(map(mul, c, w))),
            (abs(a[-1] * last), abs(b[-1] * last), abs(c[-1] * last)), h)


def _finite_start(start: TrajectoryPoint):
    """The start state and its max-norm; ``ValueError`` unless the start time
    and state are finite, with moduli a float holds."""
    try:
        moduli = [abs(c) for c in (start.t, *start.state)]
    except OverflowError:
        moduli = [math.inf]
    if not all(map(math.isfinite, moduli)):
        raise ValueError(f"start time {start.t!r} or state {start.state!r} is not finite")
    return tuple(start.state), max(moduli[1:])


def integrate(v: VectorField, maps: Sequence[ChartMap], start: TrajectoryPoint, path: Sequence[complex],
              tol: float = 1e-10, atlas: NumericAtlas | None = None) -> Trajectory:
    """Integrate along the piecewise-linear complex-time path by Taylor steps
    at ``tol``, on ``atlas`` (by default ``NumericAtlas(v, maps, {})``).

    The state follows the chart whose representation stays O(1); switch events are
    recorded. A segment's least step is the larger of 1e-13 * max(1, length) and 1e-14 *
    (1 + |t|) at its start; a shorter segment is skipped, its end recorded with the state
    unchanged, and a step that is not finite, or shorter, is rejected and tried again at
    a tenth of it. When no chart keeps the state finite (an unresolved singularity or a
    genuinely bad path) or ``MAX_STEPS`` steps do not reach the end, a
    :class:`StepUnderflow` carrying the partial trajectory is raised. A start that is
    not finite raises ``ValueError`` before any step.
    """
    y, norm = _finite_start(start)
    atlas = atlas or NumericAtlas(v, maps, {})
    order, reach = _taylor_order(tol)
    chart = start.chart
    traj = Trajectory([TrajectoryPoint(start.t, y, chart)])
    t_here = complex(start.t)
    for seg_end in map(complex, path):  # a first waypoint at the start is a segment of length 0
        seg_start, delta = t_here, seg_end - t_here
        length = abs(delta)
        hmin = max(1e-13 * max(1.0, length), 1e-14 * (1.0 + abs(seg_start)))
        if length < hmin:  # skipped: its end is recorded, the state unchanged
            if length:
                traj.points.append(TrajectoryPoint(seg_end, y, chart))
            t_here = seg_end
            continue
        direction = delta / length
        s, h, allowed = 0.0, length, 0.0  # allowed: the last finite step the series allowed
        end_slack = 1e-14 * max(1.0, length)
        while length - s > end_slack:
            h = min(h, length - s)
            if h < hmin:
                stuck = chart  # before giving up, try continuing in a better chart
                chart, y, norm = _switch(atlas, traj, t_here, chart, y, norm)
                if chart == stuck:
                    reason = (f"the series allows a step of {allowed:.3g}, below the segment's least step "
                              f"{hmin:.3g}" if 0 < allowed < hmin else "no chart keeps the state finite")
                    raise StepUnderflow(f"step size collapsed at t = {t_here}: {reason}", traj)
                h = hmin * 10
                continue
            if traj.steps_accepted + traj.steps_rejected > MAX_STEPS:
                raise StepUnderflow(f"step budget exhausted at t = {t_here}", traj)
            try:
                (u0, u1, u2), (e0, e1, e2), h = _taylor_step(atlas.series[chart], y, max(1.0, norm),
                                                             direction, h, order, reach)
                # each modulus once per step; one that overflows raises: the step is not finite
                m0, m1, m2 = abs(u0), abs(u1), abs(u2)
            except (OverflowError, ZeroDivisionError):
                finite = False
            else:
                finite = all(map(math.isfinite, (m0, m1, m2, e0, e1, e2)))
            allowed = h if finite else 0.0
            if finite and h >= hmin:
                s += h
                t_here = seg_start + direction * s
                y, norm = (u0, u1, u2), max(m0, m1, m2)
                traj.steps_accepted += 1
                local_err = max(e0, e1, e2)
                traj.error_estimate += local_err
                if norm > SWITCH_THRESHOLD:
                    chart, y, norm = _switch(atlas, traj, t_here, chart, y, norm)
                traj.points.append(TrajectoryPoint(t_here, y, chart, local_err))
                h = length
            else:
                traj.steps_rejected += 1
                h *= 0.1
        t_here = seg_end
    return traj


def _switch(atlas: NumericAtlas, traj: Trajectory, t: complex, chart: str, y, norm: float):
    """``chart``, the state ``y`` on it and its max-norm ``norm``, or, where it is at least
    ``SWITCH_GAIN`` times smaller, those of the chart where the state is smallest, recorded
    in ``traj``."""
    best, bstate, bnorm = atlas.best_chart(y, chart)
    if best != chart and bnorm * SWITCH_GAIN <= norm:
        traj.events.append(SwitchEvent(t, chart, best, norm, bnorm))
        return best, tuple(bstate), bnorm
    return chart, y, norm


# -- pole read-out -----------------------------------------------------------------------


class PoleFit(NamedTuple):
    location: complex
    exponents: tuple[int, int, int]
    leading: tuple[complex, complex, complex]
    residual: float


def _horner(coeffs, tau: complex) -> tuple[complex, complex]:
    """The value and the slope at ``tau`` of the polynomial sum X_k tau^k."""
    value = slope = 0j
    for x in reversed(coeffs):
        value, slope = value * tau + x, slope * tau + value
    return value, slope


def fit_pole(points: Sequence[TrajectoryPoint], atlas: NumericAtlas) -> PoleFit:
    """Read a movable pole off the chart of ``atlas.poles`` that resolves it.

    The solution is expanded at the point of smallest |x_b| to ``_FIT_ORDER``, whose disc
    of :func:`_radius` at the rounding tolerance reaches a pole within about half a step of
    the integrator, the farthest that point lies from a pole the path crossed. Newton steps
    on that series find x_b = 0, and the state and x_b' there are read off it; an iterate
    that leaves the disc moves the expansion to the disc's edge towards it. Component k
    behaves like leading_k * (t - t1)^(-m_k), m_k = d_k - j for the lowest x_b^j whose
    coefficient in n_k does not vanish there, and leading_k is that coefficient over
    x_b'^m_k (both 0 if all vanish). ``residual`` is |x_b| at the location.
    :class:`FitAmbiguous` means no point lies in such a chart, x_b' vanishes, or Newton
    does not converge.
    """
    near = [(abs(p.state[atlas.poles[p.chart].slot]), i, p.t, p.state, p.chart)
            for i, p in enumerate(points) if p.chart in atlas.poles]
    if not near:
        raise FitAmbiguous("no point of the segment lies in a chart with a boundary coordinate")
    _, _, t, y, chart = min(near)  # the first of equal |x_b|
    (slot, orders, tail), series = atlas.poles[chart], atlas.series[chart]
    diverged = f"Newton steps on the boundary coordinate of {chart} do not converge"
    try:
        tau, disc, coeffs = 0j, 0.0, None
        for _ in range(_NEWTON_STEPS):
            if abs(tau) >= disc:  # expand at the point, then at the disc's edge towards the iterate
                if coeffs is not None:
                    edge = tau * (disc / abs(tau))
                    t, y, tau = t + edge, tuple(_horner(xs, edge)[0] for xs in coeffs), 0j
                coeffs = series(*y, _FIT_ORDER)
                disc = _radius(coeffs, max(1.0, *map(abs, y)), math.inf, _FIT_REACH)
            x, rate = _horner(coeffs[slot], tau)
            if rate == 0:
                raise FitAmbiguous(f"the boundary coordinate of {chart} is stationary at t = {t + tau}")
            dt = -x / rate
            if abs(dt) <= _ROUNDING * max(1.0, abs(t + tau)):
                break
            if not math.isfinite(abs(dt)):
                raise FitAmbiguous(diverged)
            tau += dt
        else:
            raise FitAmbiguous(diverged)
        t, y = t + tau, tuple(_horner(xs, tau)[0] for xs in coeffs)
        exponents, leading, coefficients = [], [], iter(tail(*y))
        for component in orders:
            values = [(m, next(coefficients)) for m in component]
            scale = max((abs(v) for _, v in values), default=0.0)
            m, v = next(((m, v) for m, v in values if abs(v) > _VANISHING * scale), (0, 0j))
            exponents.append(m)
            leading.append(v / rate**m)
    except (OverflowError, ZeroDivisionError) as exc:
        raise FitAmbiguous(diverged) from exc
    return PoleFit(t, tuple(exponents), tuple(leading), abs(y[slot]))


# -- monodromy ---------------------------------------------------------------------------


def monodromy_check(v: VectorField, maps: Sequence[ChartMap], start: TrajectoryPoint, center: complex,
                    tol: float = 1e-12, atlas: NumericAtlas | None = None) -> dict:
    """Integrate a closed circular loop of ``LOOP_SEGMENTS`` chords around
    ``center`` through ``start.t`` (on ``atlas`` as in :func:`integrate`) and
    report the relative deviation between the end and start states."""
    _finite_start(start)
    atlas = atlas or NumericAtlas(v, maps, {})
    radius = abs(start.t - center)
    if radius == 0:
        raise ValueError("start time coincides with the loop center")
    phase = cmath.phase(start.t - center)
    path = [center + radius * cmath.exp(1j * (phase + 2 * math.pi * k / LOOP_SEGMENTS))
            for k in range(LOOP_SEGMENTS + 1)]
    path[0] = path[-1] = start.t  # close the loop exactly
    traj = integrate(v, maps, start, path, tol=tol, atlas=atlas)
    end_state = atlas.transition(traj.end.state, traj.end.chart, start.chart)
    scale = max(1.0, max(abs(c) for c in start.state))
    deviation = max(abs(a - b) for a, b in zip(end_state, start.state)) / scale
    return {"deviation": deviation, "radius": radius, "center": center,
            "switch_events": len(traj.events), "trajectory": traj}
