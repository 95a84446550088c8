"""Command-line front end.

Every analysis is a subcommand producing a deterministic report (canonical
term order, sorted JSON keys, no timestamps), so identical inputs give
byte-identical output. Exit codes: 0 all checks passed, 1 a verification
failed (the report carries the witness) or the analysis does not apply to
the system, 2 usage or input error.

Symbolic subcommands insist on exact parameter values (integers, rationals,
or expressions like ``-1/2`` or ``i``); floating-point input is rejected
there so exactness is never silently lost. The numeric subcommands
(``integrate``, ``monodromy``) accept finite floats and complex values and
bind each as the exact value of the parsed double.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys

from . import models
from .errors import AnalysisFailed, ThreeWaveError
from .gaussian import GaussianRational
from .parsing import ModelFile, parse_expr

REPORT_DIR_ENV = "THREEWAVE_REPORT_DIR"
NUMERIC_COMMANDS = ("integrate", "monodromy")
CHECK_COMMANDS = ("verify-atlas", "verify-symmetry", "uniqueness")
# painleve walks (2 * bound + 1)^3 pole-order triples: about 5 s at 64
MAX_BOUND = 64


class UsageError(Exception):
    pass


def _parse_params(system: ModelFile, text: str | None, numeric: bool):
    """'delta=0,gamma=-1' over the model's parameter names, as a list of
    exact values in the model's parameter order.

    Symbolic commands refuse floats and leave unset names symbolic (None; the
    result is None without ``--params``). Numeric commands take finite floats
    and complex values, each the exact value of the parsed double, and set
    unset names to 0.
    """
    names = [s.name for s in system.table.parameters()]
    values: dict = {}
    for item in text.split(",") if text else ():
        if "=" not in item:
            raise UsageError(f"malformed parameter binding {item!r} (need name=value)")
        name, _, raw = item.partition("=")
        name, raw = name.strip(), raw.strip()
        if name not in names:
            raise UsageError(f"unknown parameter {name!r} for system {system.name!r}")
        if name in values:
            raise UsageError(f"parameter {name!r} is bound twice")
        if numeric:
            values[name] = GaussianRational.from_complex(_finite_complex(raw, f"parameter {name}"))
            continue
        try:
            rf = parse_expr(raw, system.table)
        except Exception as exc:
            try:
                float(raw)
            except ValueError:
                raise UsageError(f"cannot parse parameter {name}={raw!r}: {exc}") from exc
            raise UsageError(
                f"parameter {name}={raw!r}: symbolic commands take exact values only"
            ) from None
        if not rf.is_constant():
            raise UsageError(f"parameter {name}={raw!r} is not a constant")
        values[name] = rf.constant_value()
    if numeric:
        return [values.get(n, GaussianRational(0)) for n in names]
    return [values.get(n) for n in names] if text else None


def _finite_complex(text: str, what: str) -> complex:
    """A finite complex number of finite modulus written like '1.5', '-2e-3'
    or '0.5+1i'.

    Only an i that ends a word is the imaginary unit, so 'inf' and 'nan'
    are read as such and refused as not finite."""
    try:
        z = complex(re.sub(r"i\b", "j", text.strip()))
    except ValueError:
        raise UsageError(f"{what} {text!r} is not a number") from None
    if not cmath.isfinite(z):
        raise UsageError(f"{what} {text!r} is not a finite number")
    try:
        abs(z)
    except OverflowError:
        raise UsageError(f"{what} {text!r} has a modulus too large for a float") from None
    return z


def _emit(report: dict, args, command: str) -> None:
    if args.format == "json":
        body = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False, default=str)
    else:
        body = _render_text(report)
    _write_out(body, args, command)


def _write_out(body: str, args, command: str) -> None:
    """Write the report files, then standard output, so that a file that
    cannot be written leaves nothing half printed."""
    if not body.endswith("\n"):
        body += "\n"
    report_dir = os.environ.get(REPORT_DIR_ENV)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        if report_dir:
            os.makedirs(report_dir, exist_ok=True)
            ext = "csv" if args.format == "csv" else ("json" if args.format == "json" else "txt")
            with open(os.path.join(report_dir, f"{command}.{ext}"), "w", encoding="utf-8") as fh:
                fh.write(body)
    except OSError as exc:
        raise UsageError(f"cannot write the report: {exc}") from None
    sys.stdout.write(body)


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}:")
            lines.append(_render_list(val, indent))
        else:
            lines.append(f"{pad}{key}: {_render_scalar(val)}")
    return "\n".join(l for l in lines if l)


def _render_list(items: list, indent: int) -> str:
    """One ``- `` entry per line; a nested list opens with a bare ``-`` and
    lists its entries one level deeper, and a dict is followed by one."""
    lines = []
    pad = "  " * indent
    for item in items:
        if isinstance(item, dict):
            lines.append(_render_text(item, indent + 1))
            lines.append(f"{pad}  -")
        elif isinstance(item, list):
            lines.append(f"{pad}  -")
            lines.append(_render_list(item, indent + 1))
        else:
            lines.append(f"{pad}  - {_render_scalar(item)}")
    return "\n".join(l for l in lines if l)


def _render_scalar(val) -> str:
    return "null" if val is None else str(val)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="threewave",
        description="Exact singularity analysis, phase-space verification, and "
        "numeric continuation for quadratic systems, built in or read from model files.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, numeric=False):
        p.add_argument("--system", default="three-wave",
                       help="three-wave | modified | path to a .model file")
        p.add_argument("--params", default=None,
                       help="comma list name=value (exact values for symbolic commands)")
        p.add_argument("--format", default="json", choices=("json", "text", "csv"))
        p.add_argument("--out", default=None, help="also write the report to this path")
        if numeric:
            p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("singularities", help="accessible points on the boundary divisor")
    common(p)
    p.add_argument("--chart", default=None, help="restrict to one chart (U1, U2, U3, W)")

    p = sub.add_parser("index", help="local index (eigenvalues, ratios, integrality)")
    common(p)
    p.add_argument("--point", default="P1")

    p = sub.add_parser("alpha-test", help="scaling-limit single-valuedness classification")
    common(p)
    p.add_argument("--point", default="P4_2")

    p = sub.add_parser("painleve", help="dominant-balance search for pole orders")
    common(p)
    p.add_argument("--bound", type=int, default=2,
                   help=f"largest |pole order| searched, 1 to {MAX_BOUND} (default 2)")

    p = sub.add_parser("blowup", help="blow-up pipeline at the degenerate point")
    common(p)

    p = sub.add_parser("obstructions", help="holomorphy conditions from the blow-up pipeline")
    common(p)

    p = sub.add_parser("verify-atlas", help="polynomiality + unit Jacobians on an atlas")
    common(p)
    p.add_argument("--atlas", default="resolved", choices=("resolved", "projective"))

    p = sub.add_parser("verify-symmetry", help="invariance residuals and group relations")
    common(p)

    p = sub.add_parser("uniqueness", help="recover the quadratic field from holomorphy")
    common(p)

    p = sub.add_parser("integrate", help="adaptive complex-path integration")
    common(p, numeric=True)
    p.add_argument("--start", required=True, help="initial state 'x;y;z' (complex)")
    p.add_argument("--path", required=True, help="waypoints 't0;t1;...' (complex)")
    p.add_argument("--t0", default="0", help="initial time (complex)")
    p.add_argument("--allow-rational", action="store_true",
                   help="skip the polynomiality precondition")

    p = sub.add_parser("monodromy", help="closed-loop deviation around a point")
    common(p, numeric=True)
    p.add_argument("--start", required=True, help="state 'x;y;z' at the loop base point")
    p.add_argument("--t0", required=True, help="loop base time (complex)")
    p.add_argument("--center", required=True, help="loop center (complex)")
    p.add_argument("--allow-rational", action="store_true",
                   help="skip the polynomiality precondition")

    return ap


def run(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ThreeWaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def _check_numbers(args) -> None:
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"--tol must be a finite number > 0, got {tol!r}")
    bound = getattr(args, "bound", None)
    if bound is not None and not 1 <= bound <= MAX_BOUND:
        raise UsageError(f"--bound must be from 1 to {MAX_BOUND}, got {bound}")


def _dispatch(args) -> int:
    cmd = args.command
    _check_numbers(args)
    if cmd in ("verify-symmetry", "uniqueness") and args.params is not None:
        raise UsageError(f"{cmd} checks a claim for symbolic parameters; it takes no --params")
    if args.format == "csv" and cmd != "integrate":
        raise UsageError("csv output is only available for 'integrate'")
    try:
        system = models.model(args.system)
    except OSError as exc:
        raise UsageError(f"cannot read model file {args.system!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read model file {args.system!r}: not UTF-8 at byte "
                         f"{exc.start} ({exc.reason})") from None
    numeric = cmd in NUMERIC_COMMANDS
    params = _parse_params(system, args.params, numeric)
    if numeric:
        return _run_numeric(args, system, params)
    if cmd in CHECK_COMMANDS:
        rep, ok = _run_check(args, system, params)
    else:
        rep, ok = _run_analysis(args, system, params)
    _emit(rep, args, cmd)
    return 0 if ok else 1


def _run_check(args, system: ModelFile, params) -> tuple[dict, bool]:
    """The report of a check and its verdict; the checks need no singularity
    analysis, so ``singular`` and ``roots`` stay unloaded."""
    from . import checks

    cmd = args.command
    if cmd == "verify-atlas":
        rep = checks.atlas_report(system, params, args.atlas)
        # the reciprocal charts are informational: they make no holomorphy claim
        return rep, args.atlas != "resolved" or rep["all_polynomial"]
    if cmd == "verify-symmetry":
        rep = checks.symmetry_report(system)
        return rep, rep["all_invariant"] and rep["relations"]["all_hold"]
    rep = checks.uniqueness_report(system)
    return rep, rep["matches_reference"] and rep["normalized_nullity"] == 0


def _run_analysis(args, system: ModelFile, params) -> tuple[dict, bool]:
    """The report of a singularity analysis, with the verdict True: an
    analysis makes no claim, and one that does not apply raises."""
    # only these subcommands load the reports and the exact analyses
    from . import reports

    cmd = args.command
    if cmd == "singularities":
        rep = reports.singularities_report(system, params, (args.chart,) if args.chart else None)
    elif cmd == "index":
        rep = reports.index_report(system, params, args.point)
    elif cmd == "alpha-test":
        rep = reports.alpha_report(system, params, args.point)
    elif cmd == "painleve":
        rep = reports.painleve_report(system, params, args.bound)
    elif cmd in ("blowup", "obstructions"):
        rep = reports.pipeline_report(system, params)
        if cmd == "obstructions":
            keys = ("system", "obstructions", "solution_branches", "resolvable_without_conditions")
            rep = {k: rep[k] for k in keys}
    return rep, True


def _run_numeric(args, system: ModelFile, params: list[GaussianRational]) -> int:
    # only the numeric subcommands load the numeric layer
    from .numerics import NumericAtlas, TrajectoryPoint, fit_pole, integrate, monodromy_check

    start_state = tuple(_finite_complex(p, "--start component") for p in args.start.split(";"))
    if len(start_state) != 3:
        raise UsageError("--start needs three components 'x;y;z'")
    t0 = _finite_complex(args.t0, "--t0")
    integrating = args.command == "integrate"
    if integrating:
        path = [t0] + [_finite_complex(p, "--path waypoint") for p in args.path.split(";")]
    else:
        center = _finite_complex(args.center, "--center")
    # every parameter is bound exactly, so the polynomiality test sees the
    # field that is integrated
    v = models.system_field(system, params)
    maps = models.resolved_atlas(system, params)
    try:
        atlas = NumericAtlas(v, maps, {}, require_polynomial=not args.allow_rational)
    except AnalysisFailed as exc:
        raise AnalysisFailed(f"{exc}; pass --allow-rational to integrate a rational field") from None
    start = TrajectoryPoint(t0, start_state, atlas.base)
    if integrating:
        traj = integrate(v, maps, start, path, tol=args.tol, atlas=atlas)
        if args.format == "csv":
            _write_out(traj.to_csv(), args, "integrate")
            return 0
        end_base = atlas.transition(traj.end.state, traj.end.chart, atlas.base)
        rep = {
            "steps_accepted": traj.steps_accepted,
            "steps_rejected": traj.steps_rejected,
            "switch_events": [
                {"t": str(e.t), "from": e.from_chart, "to": e.to_chart} for e in traj.events
            ],
            "end_time": str(traj.end.t),
            "end_chart": traj.end.chart,
            "end_state_base_chart": [str(c) for c in end_base],
            "error_estimate": traj.error_estimate,
        }
        try:
            fit = fit_pole(traj.points, atlas)
            rep["pole_fit"] = {
                "location": str(fit.location),
                "exponents": list(fit.exponents),
                "residual": fit.residual,
            }
        except ThreeWaveError:
            rep["pole_fit"] = None
        _emit(rep, args, "integrate")
        return 0
    rep = monodromy_check(v, maps, start, center, tol=args.tol, atlas=atlas)
    out = {
        "deviation": rep["deviation"],
        "radius": rep["radius"],
        "center": str(rep["center"]),
        "switch_events": rep["switch_events"],
    }
    _emit(out, args, "monodromy")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
