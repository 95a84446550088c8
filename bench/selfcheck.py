"""Self-check of the benchmark itself (``python3 bench/run.py --self-check``).

1. One short run of every workload, untraced and traced, must print every
   metric named in BENCHMARK.json with its unit, and be correct.
2. Every oracle must accept a real output and reject the same output when
   given a deliberately wrong expected value, so that no check is vacuous.
3. The hard-coded tables must agree with what the oracles derive on their own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction

import oracles
import run
import workloads

FAILURES: list[str] = []


def report(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def check_metric_lines() -> None:
    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else None
    if spec is not None:
        names = [w["name"] for w in spec["workloads"]]
        report(names == list(workloads.WORKLOADS), f"BENCHMARK.json workloads {names}")
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            report(declared == table, f"BENCHMARK.json {key} matches the runner")
    for name in workloads.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "2", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            what = f"{name} --trace {trace}"
            if proc.returncode != 0:
                report(False, f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            last = json.loads(proc.stdout.splitlines()[-1])
            units = {k: v["unit"] for k, v in last["metrics"].items()}
            numbers = all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
            report(units == table and numbers, f"{what}: every metric with its unit")
            report(last["correct"] and last["attempted"] >= 1,
                   f"{what}: correct, {last['attempted']} attempted, {last['failed']} failed")


@contextmanager
def patched(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def mutation(what, good, wrong) -> None:
    """``good()`` must return None and ``wrong()`` a reason."""
    try:
        ok_good = good() is None
        bad = wrong()
    except Exception as exc:  # a broken oracle is a self-check failure, not a crash
        report(False, f"oracle {what}: raised {exc!r}")
        return
    report(ok_good and bool(bad), f"oracle {what}: accepts the real output, rejects a wrong expectation ({bad})")


# the three-wave field at (delta, gamma) = (2, 0) and a copy with 2xy -> 3xy
def _g(v):
    return (Fraction(v), Fraction(0))


FIELD = {
    0: {(0, 2, 0): _g(-2), (0, 1, 0): _g(2), (0, 0, 1): _g(1)},
    1: {(1, 1, 0): _g(2), (1, 0, 0): _g(-2)},
    2: {(1, 0, 1): _g(-2), (0, 0, 1): _g(-2)},
}
WRONG_FIELD = {**FIELD, 1: {(1, 1, 0): _g(3), (1, 0, 0): _g(-2)}}
# quadratic part x*(x, y, z): polynomial on every reciprocal chart
RADIAL_FIELD = {k: {tuple(int(j == 0) + int(j == k) for j in range(3)): _g(1)} for k in range(3)}


def check_oracles() -> None:
    sys.path.insert(0, str(run.SRC))
    from threewave import reports

    # tables against independent derivations
    quad_ok = all(oracles.is_fixed_direction(oracles.QUADRATIC_PART, p)
                  for p in oracles.census_key_points().values())
    report(quad_ok and sum(oracles.PROJECTIVE_CENSUS.values()) == 7,
           "census points are fixed directions of (-2y^2, 2xy, -2xz), 7 with multiplicity")
    report(oracles.three_wave_locus(0, -1)[0] and oracles.three_wave_locus(5, 0)[0]
           and not oracles.three_wave_locus(1, 1)[0], "paper predicate on known points")
    report(oracles.file_atlas_polynomial(RADIAL_FIELD) and not oracles.file_atlas_polynomial(FIELD),
           "reciprocal-chart predicate: radial quadratic part polynomial, three-wave not")

    p = [Fraction(2), Fraction(0)]
    pipe = reports.pipeline_report("three-wave", p)
    real_locus = oracles.three_wave_locus
    flipped = lambda d, g: (not real_locus(d, g)[0], [])
    with_flip = lambda fn: (lambda: _under(oracles, "three_wave_locus", flipped, fn))
    mutation("pipeline three-wave", lambda: oracles.check_pipeline("three-wave", p, pipe),
             with_flip(lambda: oracles.check_pipeline("three-wave", p, pipe)))
    m = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]
    mpipe = reports.pipeline_report("modified", m)
    mutation("pipeline modified", lambda: oracles.check_pipeline("modified", m, mpipe),
             lambda: _under(oracles, "MODIFIED_RESOLVED", False,
                            lambda: oracles.check_pipeline("modified", m, mpipe)))
    sym = reports.pipeline_report("three-wave", None)
    mutation("pipeline obstructions", lambda: oracles.check_pipeline("three-wave", None, sym),
             lambda: _under(oracles, "THREE_WAVE_OBSTRUCTIONS", ["delta*gamma"],
                            lambda: oracles.check_pipeline("three-wave", None, sym)))
    sing = reports.singularities_report("three-wave", p)
    mutation("census", lambda: oracles.check_singularities("three-wave", p, sing),
             lambda: _under(oracles, "PROJECTIVE_CENSUS",
                            {**oracles.PROJECTIVE_CENSUS, "[0 : 0 : 0 : 1]": 3},
                            lambda: oracles.check_singularities("three-wave", p, sing)))
    mutation("weighted-chart points", lambda: oracles.check_singularities("three-wave", p, sing),
             lambda: oracles.check_singularities("three-wave", [Fraction(3), Fraction(0)], sing))
    q = [Fraction(1), Fraction(1)]
    atlas = reports.atlas_report("three-wave", q)
    mutation("atlas three-wave", lambda: oracles.check_atlas("three-wave", q, atlas),
             with_flip(lambda: oracles.check_atlas("three-wave", q, atlas)))
    matlas = reports.atlas_report("modified", m)
    mutation("atlas modified", lambda: oracles.check_atlas("modified", m, matlas),
             lambda: _under(oracles, "MODIFIED_RESOLVED", False,
                            lambda: oracles.check_atlas("modified", m, matlas)))
    idx = reports.index_report("three-wave", None, "P1")
    mutation("local index", lambda: oracles.check_index("P1", idx),
             lambda: oracles.check_index("P2", idx))
    alpha = reports.alpha_report("three-wave")
    mutation("alpha test", lambda: oracles.check_alpha(alpha),
             lambda: _under(oracles, "LOCAL_INDEX", {"P4_2": ["1", "2", "3"]},
                            lambda: oracles.check_alpha(alpha)))
    pain = reports.painleve_report("three-wave")
    mutation("painleve", lambda: oracles.check_painleve(pain),
             lambda: _under(oracles, "PAINLEVE_EXPONENTS", [2, 0, 1],
                            lambda: oracles.check_painleve(pain)))
    uniq = reports.uniqueness_report()
    mutation("uniqueness", lambda: oracles.check_uniqueness(uniq),
             lambda: _under(oracles, "UNIQUENESS", {**oracles.UNIQUENESS, "homogeneous_nullity": 2},
                            lambda: oracles.check_uniqueness(uniq)))
    symm = reports.symmetry_report()
    mutation("symmetry residual", lambda: oracles.check_symmetry(symm),
             lambda: _under(oracles, "ZERO_RESIDUAL", ["0", "0", "1"],
                            lambda: oracles.check_symmetry(symm)))
    mutation("group relations", lambda: oracles.check_symmetry(symm),
             lambda: _under(oracles, "GROUP_RELATIONS", {"s^2": False},
                            lambda: oracles.check_symmetry(symm)))
    check_continuation_oracles()

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as tmp:
        path = os.path.join(tmp, "field.model")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.model_text(FIELD))
        outs = {}
        for cmd in ("singularities", "painleve", "verify-atlas"):
            proc = subprocess.run([sys.executable, "-m", "threewave.cli", cmd, "--system", path],
                                  cwd=run.ROOT, env=run.child_env(), capture_output=True,
                                  text=True, timeout=120)
            outs[cmd] = proc
    rep = {k: json.loads(v.stdout) for k, v in outs.items()}
    mutation("file singularities", lambda: oracles.check_file_singularities(FIELD, rep["singularities"]),
             lambda: oracles.check_file_singularities(WRONG_FIELD, rep["singularities"]))
    mutation("file painleve", lambda: oracles.check_file_painleve(FIELD, rep["painleve"]),
             lambda: oracles.check_file_painleve(WRONG_FIELD, rep["painleve"]))
    mutation("file atlas", lambda: oracles.check_file_atlas(FIELD, rep["verify-atlas"]),
             lambda: oracles.check_file_atlas(RADIAL_FIELD, rep["verify-atlas"]))
    va = outs["verify-atlas"]
    mutation("exit code", lambda: oracles.check_process(va.returncode, 1, va.stderr),
             lambda: oracles.check_process(va.returncode, 0, va.stderr))
    mutation("traceback", lambda: oracles.check_process(0, 0, ""),
             lambda: oracles.check_process(0, 0, "Traceback (most recent call last):\n  x\nKeyError: 1"))
    mutation("json output", lambda: oracles.parse_json(outs["painleve"].stdout)[1],
             lambda: oracles.parse_json(outs["painleve"].stdout[:-3])[1])


def check_continuation_oracles() -> None:
    from threewave import models
    from threewave.numerics import NumericAtlas, TrajectoryPoint, fit_pole, integrate, monodromy_check

    v = models.three_wave_system(2, 0)
    maps = models.resolved_atlas("three-wave", [2, 0])
    atlas = NumericAtlas(v, maps, {})
    start = TrajectoryPoint(0j, (-3 + 0j, 1.02 + 0j, -3 + 0j), "U0")
    direct = integrate(v, maps, start, [0, 1.5], tol=1e-12, atlas=atlas)
    detour = integrate(v, maps, start, [0, -0.5j, 1.5 - 0.5j, 1.5], tol=1e-12, atlas=atlas)
    rel = workloads._rel(atlas.transition(direct.end.state, direct.end.chart, atlas.base),
                         atlas.transition(detour.end.state, detour.end.chart, atlas.base))
    mutation("direct vs detour", lambda: oracles.check_agreement(rel),
             lambda: _under(oracles, "CONTINUATION_TOL", -1.0, lambda: oracles.check_agreement(rel)))
    fit = fit_pole(direct.points, atlas)
    mutation("fitted exponents", lambda: oracles.check_fit("three-wave", fit.exponents),
             lambda: _under(oracles, "FITTED_EXPONENTS", (2, 0, 1),
                            lambda: oracles.check_fit("three-wave", fit.exponents)))
    loop = monodromy_check(v, maps, TrajectoryPoint(0.15 + 0j, start.state, "U0"), 0.05 + 0j,
                           tol=1e-12, atlas=atlas)
    mutation("monodromy", lambda: oracles.check_monodromy(loop["deviation"]),
             lambda: _under(oracles, "CONTINUATION_TOL", -1.0,
                            lambda: oracles.check_monodromy(loop["deviation"])))


def _under(obj, name, value, fn):
    with patched(obj, name, value):
        return fn()


def self_check() -> int:
    check_oracles()
    check_metric_lines()
    print(f"self-check: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0
