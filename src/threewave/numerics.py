"""Adaptive integration over complex time with chart switching.

The integrator follows a piecewise-linear path in the complex time plane
with an embedded Cash-Karp 5(4) pair and PI step-size control. Whenever the
state grows beyond a switch threshold it is mapped through the atlas and
continued in the chart where its norm is smallest -- that is what carries a
trajectory straight through a movable pole. Chart transitions go through
the base chart, which is harmless because switches happen while every
representation is still O(10). :class:`NumericAtlas` specializes the push of
the field through each map, made once, at parameter values bound exactly (as
on the command line). Fields and maps compile to generated straight-line
functions that fold each polynomial's terms in canonical order, so rounding
depends on its value alone, and compute each power once per call, at its first
use (earlier, an overflow could raise before a vanishing denominator); they and
the unrolled Runge-Kutta step do the same float operations, in the same order,
as the references in ``tests/oracles.py``.

Pole diagnostics: :func:`fit_pole` reads a movable pole off the chart that
resolves it, and :func:`monodromy_check` integrates a closed loop and
reports the relative deviation between start and end states (small
deviation evidences single-valuedness).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import AnalysisFailed, FitAmbiguous, StepUnderflow
from .gaussian import GaussianRational
from .geometry import ChartMap, VectorField
from .models import pushed_field

SWITCH_THRESHOLD = 10.0
SWITCH_GAIN = 4.0
MAX_STEPS = 200_000  # accepted plus rejected steps of one integrate call
LOOP_SEGMENTS = 24  # chords of the monodromy loop

# the pole read-out (fit_pole)
_NEWTON_STEPS = 12  # Newton steps allowed
_NEWTON_SUBSTEPS = 100  # Runge-Kutta substeps allowed in one Newton step
_ROUNDING = 4 * sys.float_info.epsilon  # a Newton step this small, relative to max(1, |t|), has converged
_VANISHING = 1e-9  # a coefficient this small, relative to its component's largest, vanishes

# Cash-Karp embedded pair: 6 stages, propagating order 5, embedded order 4.
# _Asj weighs stage j in stage s; _B5j and _B4j weigh stage j in the order-5
# and order-4 results (_B51, _B54 and _B41 are zero).
_A10 = 1 / 5
_A20, _A21 = 3 / 40, 9 / 40
_A30, _A31, _A32 = 3 / 10, -9 / 10, 6 / 5
_A40, _A41, _A42, _A43 = -11 / 54, 5 / 2, -70 / 27, 35 / 27
_A50, _A51, _A52, _A53, _A54 = 1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096
_B50, _B52, _B53, _B55 = 37 / 378, 250 / 621, 125 / 594, 512 / 1771
_B40, _B42, _B43, _B44, _B45 = 2825 / 27648, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4


@dataclass(frozen=True)
class TrajectoryPoint:
    t: complex
    state: tuple[complex, complex, complex]
    chart: str
    err: float = 0.0  # local error estimate of the step that produced this point


@dataclass(frozen=True)
class SwitchEvent:
    t: complex
    from_chart: str
    to_chart: str
    norm_before: float
    norm_after: float


@dataclass
class Trajectory:
    points: list[TrajectoryPoint] = field(default_factory=list)
    events: list[SwitchEvent] = field(default_factory=list)
    error_estimate: float = 0.0
    steps_accepted: int = 0
    steps_rejected: int = 0

    @property
    def end(self) -> TrajectoryPoint:
        return self.points[-1]

    def records(self) -> list[str]:
        out = []
        for p in self.points:
            vals = [p.t.real, p.t.imag]
            for c in p.state:
                vals.extend((c.real, c.imag))
            vals.append(p.err)
            out.append(",".join(f"{v:.17g}" for v in vals[:2]) + f",{p.chart}," +
                       ",".join(f"{v:.17g}" for v in vals[2:]))
        return out

    def to_csv(self) -> str:
        header = "t_re,t_im,chart,x_re,x_im,y_re,y_im,z_re,z_im,err_est"
        return "\n".join([header] + self.records()) + "\n"


# -- compilation --------------------------------------------------------------------


def _fold_terms(poly, var_names: Sequence[str]):
    """(coefficient, exponents in ``var_names`` order) per term, in canonical order."""
    syms = poly.table.symbols
    var_slots = {name: k for k, name in enumerate(var_names)}
    out = []
    for e, c in poly.sorted_terms():
        exps = [0, 0, 0]
        for k, d in enumerate(e):
            if d:
                name = syms[k].name
                if name not in var_slots:
                    raise KeyError(f"symbol {name!r} has no numeric value")
                exps[var_slots[name]] = d
        out.append((complex(c), tuple(exps)))
    return out


_ARGS = ("a", "b", "c")


def _sum_source(poly, var_names: Sequence[str], target: str, consts: dict, powers: set) -> list[str]:
    """Statements that leave ``poly`` at the arguments a, b, c in ``target``:
    from ``target = 0j``, one ``target += kN * a3 * b1 ...`` per term in
    canonical order (zero exponents left out), the coefficient kN bound in
    ``consts``. ``powers`` holds the (argument, exponent) pairs the enclosing
    function has computed so far: a power not among them is computed once, as
    ``a3 = a**3``, directly before the first term that reads it, and added.
    Not earlier: a power that overflows must raise after everything the term
    loop of ``tests/oracles.py`` evaluates first, a vanishing denominator
    included. An exponent 1 stays a power: ``a**1`` raises OverflowError where
    ``a`` is infinite, which a bare ``a`` would not."""
    lines = [f"{target} = 0j"]
    for coeff, exps in _fold_terms(poly, var_names):
        name = f"k{len(consts)}"
        consts[name] = coeff
        factors = [(arg, e) for arg, e in zip(_ARGS, exps) if e]
        lines += [f"{arg}{e} = {arg}**{e}" for arg, e in factors if (arg, e) not in powers]
        powers.update(factors)
        lines.append(f"{target} += {name}" + "".join(f" * {arg}{e}" for arg, e in factors))
    return lines


def _function(lines: list[str], result: str, consts: dict) -> Callable:
    """``def ev(a, b, c)`` of straight-line ``lines`` returning ``result``,
    with ``consts`` as its namespace."""
    body = "".join(f"    {line}\n" for line in lines)
    exec(_code(f"def ev(a, b, c):\n{body}    return {result}\n"), consts)
    return consts["ev"]


@lru_cache(maxsize=512)
def _code(source: str):
    """The compiled ``source``. It names its coefficients and not their values,
    so fields of one monomial structure share it at every parameter point."""
    return compile(source, "<string>", "exec")


def compile_poly(poly, var_names: Sequence[str]) -> Callable[[complex, complex, complex], complex]:
    consts: dict = {}
    return _function(_sum_source(poly, var_names, "s", consts, set()), "s", consts)


def compile_triple(rfs, var_names):
    """One function of a, b, c returning the three rational functions
    ``rfs``, evaluated in turn, each numerator before its denominator; a
    power is computed once for all six."""
    consts: dict = {}
    lines: list[str] = []
    powers: set = set()
    for i, rf in enumerate(rfs):
        lines += _sum_source(rf.num, var_names, f"s{i}", consts, powers)
        if not rf.is_polynomial():  # a reduced denominator is monic: a polynomial's is 1
            lines += _sum_source(rf.den, var_names, f"d{i}", consts, powers)
            lines.append(f"s{i} /= d{i}")
    return _function(lines, "(s0, s1, s2)", consts)


class PoleChart(NamedTuple):
    """A chart whose inverse map has the components n_k / x_b^d_k, x_b being
    its boundary coordinate: a pole of the base chart is a point of x_b = 0."""

    slot: int  # position of x_b among the chart variables
    terms: tuple  # per component, (-k, Laurent coefficient of x_b^k) for rising k


def _pole_chart(cmap: ChartMap, tvars: Sequence[str]) -> PoleChart | None:
    b = cmap.target.boundary
    if b is None:
        return None
    try:
        tails = [rf.laurent(b) for rf in cmap.inverse]
    except ValueError:  # some denominator is not a power of x_b
        return None
    terms = tuple(tuple((-k, compile_poly(tail[k], tvars)) for k in sorted(tail)) for tail in tails)
    return PoleChart(cmap.target.vars.index(b), terms)


class NumericAtlas:
    """Compiled fields and transitions for one system on one atlas.

    ``maps`` are base-to-chart maps (the identity chart included). Finite
    ``params`` by parameter name of ``v`` are bound exactly, as on the command
    line; each map that changes there is verified again, and the memoized
    push of ``v`` through each is specialized there. A parameter without a
    value, or a name that is no parameter, raises ``KeyError``. Unless
    ``require_polynomial`` is false, a field not polynomial on some chart
    raises ``AnalysisFailed``.
    ``poles`` holds the charts whose boundary coordinate reads a pole.
    """

    def __init__(
        self,
        v: VectorField,
        maps: Sequence[ChartMap],
        params: Mapping[str, complex],
        require_polynomial: bool = True,
    ):
        syms = {s.name: s for s in v.table.parameters()}
        bindings = {}
        for name, value in params.items():
            if name not in syms:
                raise KeyError(f"{name!r} is not a parameter of the field")
            if not cmath.isfinite(value):
                raise ValueError(f"parameter {name!r} is not finite: {value!r}")
            bindings[syms[name]] = GaussianRational.from_complex(value)
        bound_maps = [cmap.specialize(bindings) for cmap in maps]  # a map singular here fails as the map
        fields = [pushed_field(v, cmap).specialize(bindings) for cmap in maps]
        if require_polynomial and (bad := [w.chart.name for w in fields if not w.is_polynomial()]):
            raise AnalysisFailed(f"field is not polynomial on charts {bad}")
        self.base = v.chart.name
        self.fields: dict[str, Callable] = {}
        self.to_base: dict[str, Callable] = {}
        self.from_base: dict[str, Callable] = {}
        self.poles: dict[str, PoleChart] = {}
        base_vars = tuple(s.name for s in v.chart.vars)
        for cmap, w in zip(bound_maps, fields):
            name = cmap.target.name
            tvars = tuple(s.name for s in cmap.target.vars)
            self.fields[name] = compile_triple(w.components, tvars)
            self.to_base[name] = compile_triple(cmap.inverse, tvars)
            self.from_base[name] = compile_triple(cmap.forward, base_vars)
            if pole := _pole_chart(cmap, tvars):
                self.poles[name] = pole

    def charts(self) -> list[str]:
        return list(self.fields)

    def transition(self, state, frm: str, to: str):
        if frm == to:
            return tuple(state)
        base = self.to_base[frm](*state)
        return self.from_base[to](*base)

    def best_chart(self, state, frm: str):
        """Chart minimizing the max-norm of the transported state."""
        best_name, best_state, best_norm = frm, tuple(state), max(abs(c) for c in state)
        for name in self.fields:
            if name == frm:
                continue
            try:
                cand = self.transition(state, frm, name)
                norm = max(abs(c) for c in cand)  # a modulus that overflows raises
            except (ZeroDivisionError, OverflowError):
                continue
            if math.isfinite(norm) and norm < best_norm:
                best_name, best_state, best_norm = name, cand, norm
        return best_name, best_state, best_norm


# -- the integrator -------------------------------------------------------------------


def _rk_step(f, y, h, direction):
    """One Cash-Karp step of dy/ds = direction * f(y): the order-5 state and
    its difference from the order-4 one. Stage j enters as (h * a_sj) * k_j,
    left to right, with the zero weights left out."""
    y0, y1, y2 = y
    d0, d1, d2 = f(y0, y1, y2)
    k00, k01, k02 = direction * d0, direction * d1, direction * d2
    w0 = h * _A10
    d0, d1, d2 = f(y0 + w0 * k00, y1 + w0 * k01, y2 + w0 * k02)
    k10, k11, k12 = direction * d0, direction * d1, direction * d2
    w0, w1 = h * _A20, h * _A21
    d0, d1, d2 = f(y0 + w0 * k00 + w1 * k10, y1 + w0 * k01 + w1 * k11, y2 + w0 * k02 + w1 * k12)
    k20, k21, k22 = direction * d0, direction * d1, direction * d2
    w0, w1, w2 = h * _A30, h * _A31, h * _A32
    d0, d1, d2 = f(
        y0 + w0 * k00 + w1 * k10 + w2 * k20,
        y1 + w0 * k01 + w1 * k11 + w2 * k21,
        y2 + w0 * k02 + w1 * k12 + w2 * k22,
    )
    k30, k31, k32 = direction * d0, direction * d1, direction * d2
    w0, w1, w2, w3 = h * _A40, h * _A41, h * _A42, h * _A43
    d0, d1, d2 = f(
        y0 + w0 * k00 + w1 * k10 + w2 * k20 + w3 * k30,
        y1 + w0 * k01 + w1 * k11 + w2 * k21 + w3 * k31,
        y2 + w0 * k02 + w1 * k12 + w2 * k22 + w3 * k32,
    )
    k40, k41, k42 = direction * d0, direction * d1, direction * d2
    w0, w1, w2, w3, w4 = h * _A50, h * _A51, h * _A52, h * _A53, h * _A54
    d0, d1, d2 = f(
        y0 + w0 * k00 + w1 * k10 + w2 * k20 + w3 * k30 + w4 * k40,
        y1 + w0 * k01 + w1 * k11 + w2 * k21 + w3 * k31 + w4 * k41,
        y2 + w0 * k02 + w1 * k12 + w2 * k22 + w3 * k32 + w4 * k42,
    )
    k50, k51, k52 = direction * d0, direction * d1, direction * d2
    w0, w2, w3, w5 = h * _B50, h * _B52, h * _B53, h * _B55
    u0 = y0 + w0 * k00 + w2 * k20 + w3 * k30 + w5 * k50
    u1 = y1 + w0 * k01 + w2 * k21 + w3 * k31 + w5 * k51
    u2 = y2 + w0 * k02 + w2 * k22 + w3 * k32 + w5 * k52
    w0, w2, w3, w4, w5 = h * _B40, h * _B42, h * _B43, h * _B44, h * _B45
    v0 = y0 + w0 * k00 + w2 * k20 + w3 * k30 + w4 * k40 + w5 * k50
    v1 = y1 + w0 * k01 + w2 * k21 + w3 * k31 + w4 * k41 + w5 * k51
    v2 = y2 + w0 * k02 + w2 * k22 + w3 * k32 + w4 * k42 + w5 * k52
    return (u0, u1, u2), (u0 - v0, u1 - v1, u2 - v2)


def integrate(
    v: VectorField,
    maps: Sequence[ChartMap],
    start: TrajectoryPoint,
    path: Sequence[complex],
    tol: float = 1e-10,
    atlas: NumericAtlas | None = None,
) -> Trajectory:
    """Integrate along the piecewise-linear complex-time path, on ``atlas``
    (by default the parameter-free ``NumericAtlas(v, maps, {})``).

    The state follows the chart whose representation stays O(1); switch
    events are recorded. When no chart keeps the state finite (an unresolved
    singularity or a genuinely bad path) or ``MAX_STEPS`` steps do not reach
    the end, a :class:`StepUnderflow` carrying the partial trajectory is
    raised.
    """
    if atlas is None:
        atlas = NumericAtlas(v, maps, {})
    chart = start.chart
    y = tuple(start.state)
    # the moduli of y, each computed once, when y is made
    ym0, ym1, ym2 = abs(y[0]), abs(y[1]), abs(y[2])
    traj = Trajectory()
    traj.points.append(TrajectoryPoint(start.t, y, chart))
    t_here = complex(start.t)
    waypoints = [complex(p) for p in path]
    if waypoints and waypoints[0] != t_here:
        waypoints = [t_here] + waypoints

    err_prev = 1.0
    for seg_end in waypoints[1:]:
        seg_start = t_here
        delta = seg_end - seg_start
        length = abs(delta)
        if length <= 1e-14 * (1.0 + abs(seg_start)):
            continue
        direction = delta / length
        s = 0.0
        h = min(length, 0.1 * (1 + length))
        hmin = 1e-13 * max(1.0, length)
        end_slack = 1e-14 * max(1.0, length)
        while length - s > end_slack:
            h = min(h, length - s)
            if h < hmin:
                # before giving up, try continuing in a better chart
                stuck = chart
                chart, y = _switch(atlas, traj, t_here, chart, y, max(ym0, ym1, ym2))
                if chart == stuck:
                    raise StepUnderflow(
                        f"step size collapsed at t = {t_here}: no chart keeps the state finite", traj
                    )
                ym0, ym1, ym2 = abs(y[0]), abs(y[1]), abs(y[2])
                h = hmin * 10
                continue
            if traj.steps_accepted + traj.steps_rejected > MAX_STEPS:
                raise StepUnderflow(f"step budget exhausted at t = {t_here}", traj)
            f = atlas.fields[chart]
            try:
                (u0, u1, u2), (e0, e1, e2) = _rk_step(f, y, h, direction)
                # each modulus once per step; one that overflows raises, and
                # its step is not finite
                m0, m1, m2, a0, a1, a2 = abs(u0), abs(u1), abs(u2), abs(e0), abs(e1), abs(e2)
            except (OverflowError, ZeroDivisionError):
                err_norm = math.inf
            else:
                if math.isfinite(m0) and math.isfinite(m1) and math.isfinite(m2):
                    err_norm = max(
                        0.0,
                        a0 / (tol + tol * max(ym0, m0)),
                        a1 / (tol + tol * max(ym1, m1)),
                        a2 / (tol + tol * max(ym2, m2)),
                    )
                else:
                    err_norm = math.inf
            if err_norm <= 1.0:
                s += h
                t_here = seg_start + direction * s
                y = (u0, u1, u2)
                ym0, ym1, ym2 = m0, m1, m2
                traj.steps_accepted += 1
                local_err = max(a0, a1, a2)
                traj.error_estimate += local_err
                norm = max(m0, m1, m2)
                if norm > SWITCH_THRESHOLD:
                    chart, y = _switch(atlas, traj, t_here, chart, y, norm)
                    ym0, ym1, ym2 = abs(y[0]), abs(y[1]), abs(y[2])
                traj.points.append(TrajectoryPoint(t_here, y, chart, local_err))
                # PI controller (order-5 propagation)
                fac = 0.9 * err_norm ** (-0.7 / 5) * err_prev ** (0.4 / 5) if err_norm > 0 else 5.0
                h *= min(5.0, max(0.2, fac))
                err_prev = max(err_norm, 1e-4)
            else:
                traj.steps_rejected += 1
                if math.isfinite(err_norm):
                    h *= max(0.1, 0.9 * err_norm ** (-1 / 4))
                else:
                    h *= 0.1
        t_here = seg_end
    return traj


def _switch(atlas: NumericAtlas, traj: Trajectory, t: complex, chart: str, y, norm: float):
    """``chart`` and the state ``y`` on it, of max-norm ``norm``, or the
    chart where the state is smallest and the state there when that is at
    least ``SWITCH_GAIN`` times smaller; a switch is recorded in ``traj``."""
    best, bstate, bnorm = atlas.best_chart(y, chart)
    if best != chart and bnorm * SWITCH_GAIN <= norm:
        traj.events.append(SwitchEvent(t, chart, best, norm, bnorm))
        return best, tuple(bstate)
    return chart, y


# -- pole read-out -----------------------------------------------------------------------


@dataclass(frozen=True)
class PoleFit:
    location: complex
    exponents: tuple[int, int, int]
    leading: tuple[complex, complex, complex]
    residual: float


def fit_pole(points: Sequence[TrajectoryPoint], atlas: NumericAtlas) -> PoleFit:
    """Read a movable pole off the chart of ``atlas.poles`` that resolves it.

    From the point with the smallest |x_b|, Newton steps t <- t - x_b / x_b'
    (the state following by Runge-Kutta substeps in that chart) find x_b = 0.
    Component k behaves like leading_k * (t - t1)^(-m_k), m_k = d_k - j for the
    lowest x_b^j whose coefficient in n_k does not vanish there, and leading_k
    is that coefficient over x_b'^m_k (both 0 if all vanish). ``residual`` is
    |x_b| at the location. :class:`FitAmbiguous` means no point lies in such a
    chart, x_b' vanishes, or Newton does not converge.
    """
    near = [(abs(p.state[atlas.poles[p.chart].slot]), i)
            for i, p in enumerate(points) if p.chart in atlas.poles]
    if not near:
        raise FitAmbiguous("no point of the segment lies in a chart with a boundary coordinate")
    i = min(near)[1]
    t, y, chart = points[i].t, points[i].state, points[i].chart
    (slot, terms), f = atlas.poles[chart], atlas.fields[chart]
    # substeps no longer than the accepted step that reached the point
    h = abs(t - points[i - 1].t) if i else abs(points[1].t - t) if len(points) > 1 else 0.0
    diverged = f"Newton steps on the boundary coordinate of {chart} do not converge"
    try:
        for _ in range(_NEWTON_STEPS):
            rate = f(*y)[slot]
            if rate == 0:
                raise FitAmbiguous(f"the boundary coordinate of {chart} is stationary at t = {t}")
            dt = -y[slot] / rate
            if abs(dt) <= _ROUNDING * max(1.0, abs(t)):
                break
            if not math.isfinite(abs(dt)) or (h and abs(dt) > _NEWTON_SUBSTEPS * h):
                raise FitAmbiguous(diverged)
            n = math.ceil(abs(dt) / h) if h else 1
            for _ in range(n):
                y = _rk_step(f, y, abs(dt) / n, dt / abs(dt))[0]
            t += dt
        else:
            raise FitAmbiguous(diverged)
        exponents, leading = [], []
        for component in terms:
            values = [(m, c(*y)) for m, c in component]
            scale = max((abs(v) for _, v in values), default=0.0)
            m, v = next(((m, v) for m, v in values if abs(v) > _VANISHING * scale), (0, 0j))
            exponents.append(m)
            leading.append(v / rate**m)
    except (OverflowError, ZeroDivisionError) as exc:
        raise FitAmbiguous(diverged) from exc
    return PoleFit(t, tuple(exponents), tuple(leading), abs(y[slot]))


# -- monodromy ---------------------------------------------------------------------------


def monodromy_check(
    v: VectorField,
    maps: Sequence[ChartMap],
    start: TrajectoryPoint,
    center: complex,
    tol: float = 1e-12,
    atlas: NumericAtlas | None = None,
) -> dict:
    """Integrate a closed circular loop of ``LOOP_SEGMENTS`` chords around
    ``center`` through ``start.t`` (on ``atlas`` as in :func:`integrate`) and
    report the relative deviation between the end and start states."""
    if atlas is None:
        atlas = NumericAtlas(v, maps, {})
    radius = abs(start.t - center)
    if radius == 0:
        raise ValueError("start time coincides with the loop center")
    phase = cmath.phase(start.t - center)
    path = [
        center + radius * cmath.exp(1j * (phase + 2 * math.pi * k / LOOP_SEGMENTS))
        for k in range(LOOP_SEGMENTS + 1)
    ]
    path[0] = start.t
    path[-1] = start.t  # close the loop exactly
    traj = integrate(v, maps, start, path, tol=tol, atlas=atlas)
    end = traj.end
    end_state = atlas.transition(end.state, end.chart, start.chart)
    scale = max(1.0, max(abs(c) for c in start.state))
    deviation = max(abs(a - b) for a, b in zip(end_state, start.state)) / scale
    return {
        "deviation": deviation,
        "radius": radius,
        "center": center,
        "switch_events": len(traj.events),
        "trajectory": traj,
    }
