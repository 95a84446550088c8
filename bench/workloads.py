"""The four workloads: seeded operation streams with their oracles.

A workload yields blocks of operations forever; a run executes a fixed number
of whole blocks (see ``BLOCK_SECONDS``). Each block is stratified (the same mix of operation kinds
and free-parameter counts in every block), so different seeds change the
inputs but not the shape of the work.

Why each workload exists, and which layer it isolates:

* ``resolve``: blow-ups and obstruction conditions. ``poly_gcd`` and
  ``ratfunc._reduce`` dominate; cost grows with the number of free
  parameters. The workload for a gcd change.
* ``verify``: uniqueness solve, atlas checks, dominant balances and local
  indices. Multiplication-bound with little gcd: a packed-monomial change
  moves it, a gcd change barely does.
* ``continuation``: Cash-Karp integration through poles, pole fits and
  monodromy loops on a few compiled atlases. The RK loop dominates and the
  exact kernel does little.
* ``cli``: fresh ``python -m threewave.cli`` processes, where start-up,
  model parsing and the atlas compile inside ``integrate`` dominate.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

# integers and halves; three-wave points also come from the condition locus
POOL = [Fraction(n, 2) for n in (-4, -3, -2, -1, 0, 1, 2, 3, 4)]
NONZERO = [v for v in POOL if v]
# per-operation limit (doubled under the tracer); healthy operations take at
# most about 3 s, a coefficient blow-up in poly_gcd runs for minutes
OP_TIMEOUT_S = 6.0
# about the wall seconds per block, the benchmark's own sampling included, on a
# 2-vCPU x86-64 VM with Python 3.11.7: a run executes round(--seconds /
# BLOCK_SECONDS) whole blocks, at least two (run.MIN_BLOCKS); at --seconds 20
# that is 2, 6, 7 and 2 blocks, 12-44 s
BLOCK_SECONDS = {"resolve": 18.0, "verify": 3.5, "continuation": 3.0, "cli": 9.0}


@dataclass
class Op:
    name: str  # operation kind, used in failure names
    label: str  # the input, for the report
    run: Callable[[], object]  # returns a JSON-serialisable output
    check: Callable[[object], str | None]  # oracle: None when right
    fixed: bool = False  # same input in every block: output must repeat exactly


def _value_text(v) -> str:
    return "sym" if v is None else str(v)


def _point_label(kind, params) -> str:
    if params is None:
        return f"{kind}(symbolic)"
    return f"{kind}(" + ",".join(_value_text(v) for v in params) + ")"


# -- resolve ---------------------------------------------------------------------------


# delta = 0 (three-wave) and alpha5 = 0 (modified) make pipeline_report raise
# PositiveDimensional whatever the other values. Seeded points keep them
# non-zero and every resolve block carries one point of each kind, so the
# refusals show in every run in the same number instead of by chance.
THREE_WAVE_ZERO = [Fraction(0), Fraction(-1)]  # on the paper's resolvable locus


def _three_wave_point(rng, free: int, block: int):
    if free == 2:
        return None
    delta = rng.choice(NONZERO)
    if free == 1:
        return [None, rng.choice(POOL)] if block % 2 == 0 else [delta, None]
    # on the locus delta*gamma = gamma*(gamma+1) = 0 in even blocks, off it in
    # odd ones: the two differ twofold in cost
    return [delta, Fraction(0) if block % 2 == 0 else rng.choice(NONZERO)]


def _modified_point(rng, free: int, block: int):
    """Which parameters stay free follows a fixed rotation through all subsets
    of that size, block by block; the seed draws the values. Cost depends
    mostly on the subset, so every seed gets the same mix of work."""
    if free == 5:
        return None
    subsets = list(itertools.combinations(range(5), free))
    free_set = subsets[block % len(subsets)]
    values = [rng.choice(POOL) for _ in range(4)] + [rng.choice(NONZERO)]
    return [None if k in free_set else v for k, v in enumerate(values)]


def resolve_blocks(seed: int, env):
    from threewave import reports

    rng = random.Random(seed)
    for block_index in itertools.count():
        points = [("three-wave", THREE_WAVE_ZERO)]
        points += [("three-wave", _three_wave_point(rng, k, block_index)) for k in range(3)]
        points += [("modified", _modified_point(rng, k, block_index)) for k in range(6)]
        points.append(("modified", _modified_point(rng, 0, block_index)[:4] + [Fraction(0)]))
        block = []
        for kind, params in points:
            label = _point_label(kind, params)
            fixed = params is None or params is THREE_WAVE_ZERO
            block.append(Op(
                "pipeline_report", label,
                lambda kind=kind, p=params: reports.pipeline_report(kind, p),
                lambda rep, kind=kind, p=params: oracles.check_pipeline(kind, p, rep),
                fixed,
            ))
            # the census is parameter-independent and cheap: sample it at the
            # three-wave points and at both ends of the modified range
            if kind == "three-wave" or params is None or None not in params:
                block.append(Op(
                    "singularities_report", label,
                    lambda kind=kind, p=params: reports.singularities_report(kind, p),
                    lambda rep, kind=kind, p=params: oracles.check_singularities(kind, p, rep),
                    fixed,
                ))
        # one symmetry report per run: it is a fixed 1.5-2.5 s input
        if block_index == 0:
            block.append(Op("symmetry_report", "modified", reports.symmetry_report,
                            oracles.check_symmetry, True))
        yield block


# -- verify ----------------------------------------------------------------------------


def verify_blocks(seed: int, env):
    from threewave import reports

    rng = random.Random(seed)
    for block_index in itertools.count():
        block = [
            Op("uniqueness_report", "fixed", reports.uniqueness_report,
               oracles.check_uniqueness, True),
            Op("alpha_report", "three-wave P4_2", lambda: reports.alpha_report("three-wave"),
               oracles.check_alpha, True),
        ]
        for kind in ("three-wave", "modified"):
            block.append(Op(
                "painleve_report", kind, lambda kind=kind: reports.painleve_report(kind),
                oracles.check_painleve, True,
            ))
        for point in oracles.LOCAL_INDEX:
            block.append(Op(
                "index_report", f"three-wave {point}",
                lambda point=point: reports.index_report("three-wave", None, point),
                lambda rep, point=point: oracles.check_index(point, rep), True,
            ))
        points = [("three-wave", None), ("modified", None)]
        # on the locus, one free parameter, off the locus
        points += [("three-wave", _three_wave_point(rng, 0, 0)),
                   ("three-wave", _three_wave_point(rng, 1, block_index)),
                   ("three-wave", _three_wave_point(rng, 0, 1))]
        # one, two and three free parameters, subsets rotating block by block
        points += [("modified", _modified_point(rng, free, block_index)) for free in (1, 2, 3)]
        for kind, params in points:
            block.append(Op(
                "atlas_report", _point_label(kind, params),
                lambda kind=kind, p=params: reports.atlas_report(kind, p),
                lambda rep, kind=kind, p=params: oracles.check_atlas(kind, p, rep),
                params is None,
            ))
        yield block


# -- continuation ----------------------------------------------------------------------

STARTS_PER_ATLAS = 6
PERTURBATION = 0.3
# (start state, direct path end, pole-free loop base time and centre) from the
# acceptance criteria 8b-8d
MODIFIED_START = (-2.0, 0.1, -3.0)
THREE_WAVE_START = (-3.0, 1.02, -3.0)


def _rel(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b)) / max(1.0, max(abs(c) for c in a))


def _complex_pair(z: complex):
    return [z.real, z.imag]


def continuation_blocks(seed: int, env):
    from threewave import models
    from threewave.numerics import NumericAtlas

    rng = random.Random(seed)
    while True:
        systems = []
        for _ in range(2):
            alphas = {
                f"alpha{k}": complex(round(rng.uniform(-0.1, 0.1), 3), round(rng.uniform(-0.1, 0.1), 3))
                for k in range(1, 6)
            }
            systems.append(("modified", alphas, MODIFIED_START, 1.2))
        systems.append(("three-wave", {"delta": 2, "gamma": 0}, THREE_WAVE_START, 1.5))
        block = []
        for kind, params, base, t_end in systems:
            label = f"{kind}{sorted((k, str(v)) for k, v in params.items())}"
            slot: dict = {}

            def compile_atlas(kind=kind, params=params, slot=slot):
                if kind == "modified":
                    v = models.model("modified").fields["U0"]
                    maps = models.resolved_atlas("modified", None)
                    atlas = NumericAtlas(v, maps, params)
                else:
                    exact = [params["delta"], params["gamma"]]
                    v = models.three_wave_system(*exact)
                    maps = models.resolved_atlas("three-wave", exact)
                    atlas = NumericAtlas(v, maps, {})
                slot.update(v=v, maps=maps, atlas=atlas)
                return sorted(atlas.charts())

            ops = []
            for _ in range(STARTS_PER_ATLAS):
                state = tuple(complex(c + rng.uniform(-PERTURBATION, PERTURBATION)) for c in base)
                ops += _start_ops(kind, label, slot, state, t_end, env)
            block.append(Op("NumericAtlas.compile", label, compile_atlas, lambda out: None))
            block += ops
        yield block


def _start_ops(kind, label, slot, state, t_end, env):
    from threewave.numerics import TrajectoryPoint, fit_pole, integrate, monodromy_check

    start = TrajectoryPoint(0j, state, "U0")
    label = f"{label} start={[round(c.real, 6) for c in state]}"
    direct_box: dict = {}

    def run_integrate():
        atlas = slot["atlas"]
        direct = integrate(slot["v"], slot["maps"], start, [0, t_end], tol=1e-12, atlas=atlas)
        detour = integrate(slot["v"], slot["maps"], start,
                           [0, -0.5j, t_end - 0.5j, t_end], tol=1e-12, atlas=atlas)
        e1 = atlas.transition(direct.end.state, direct.end.chart, atlas.base)
        e2 = atlas.transition(detour.end.state, detour.end.chart, atlas.base)
        direct_box["traj"] = direct
        rel = _rel(e1, e2)
        env.cont_err_max = max(env.cont_err_max, rel)
        return {"end": [_complex_pair(c) for c in e1], "rel": rel,
                "switches": len(direct.events) + len(detour.events)}

    def run_fit():
        if "traj" not in direct_box:
            raise RuntimeError("no direct trajectory to fit")
        fit = fit_pole(direct_box["traj"].points, slot["atlas"])
        return {"exponents": list(fit.exponents), "location": _complex_pair(fit.location)}

    def run_monodromy():
        loop_start = TrajectoryPoint(0.15 + 0j, state, "U0")
        rep = monodromy_check(slot["v"], slot["maps"], loop_start, 0.05 + 0j, tol=1e-12,
                              atlas=slot["atlas"])
        env.cont_err_max = max(env.cont_err_max, rep["deviation"])
        return {"deviation": rep["deviation"], "switches": rep["switch_events"]}

    # integrate runs before the fit of its trajectory
    return [
        Op("integrate", label, run_integrate, lambda out: oracles.check_agreement(out["rel"])),
        Op("fit_pole", label, run_fit,
           lambda out, kind=kind: oracles.check_fit(kind, out["exponents"])),
        Op("monodromy_check", label, run_monodromy,
           lambda out: oracles.check_monodromy(out["deviation"])),
    ]


# -- cli ---------------------------------------------------------------------------------

# the README's short examples; each must exit 0
README_EXAMPLES = [
    ["singularities", "--system", "three-wave"],
    ["index", "--system", "three-wave", "--point", "P1"],
    ["alpha-test", "--system", "three-wave", "--point", "P4_2"],
    ["painleve", "--system", "three-wave", "--bound", "2"],
    ["verify-atlas", "--system", "three-wave", "--params", "delta=0,gamma=-1"],
    ["verify-atlas", "--system", "modified"],
    ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1.2", "--tol", "1e-12"],
    ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1.2", "--format", "csv"],
    ["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "0", "--center", "0.55"],
]

MONOMIALS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]
COEFFS = [Fraction(n, 2) for n in (-4, -2, -1, 1, 2, 4)]

MODEL_HEADER = """chart U0 : x y z
chart U1 : X1 Y1 Z1 @ X1
chart U2 : X2 Y2 Z2 @ Y2
chart U3 : X3 Y3 Z3 @ Z3
"""
MODEL_MAPS = """map U0 U1 : 1/x ; y/x ; z/x | 1/X1 ; Y1/X1 ; Z1/X1
map U0 U2 : x/y ; 1/y ; z/y | X2/Y2 ; 1/Y2 ; Z2/Y2
map U0 U3 : x/z ; y/z ; 1/z | X3/Z3 ; Y3/Z3 ; 1/Z3
"""


def random_field(rng):
    """A random exact quadratic field {k: {(a, b, c): (re, im)}} with a
    non-zero quadratic part in every component."""
    field = {}
    for k in range(3):
        terms = {}
        while not any(sum(e) == 2 for e in terms):
            terms = {
                e: (rng.choice(COEFFS), Fraction(0)) for e in MONOMIALS if rng.random() < 0.4
            }
        field[k] = terms
    return field


def field_text(terms) -> str:
    parts = []
    for (a, b, c), (re, _) in sorted(terms.items(), reverse=True):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip("xyz", (a, b, c)) if e
        )
        parts.append(f"({re})*{mono}" if mono else f"({re})")
    return " + ".join(parts)


def model_text(field) -> str:
    system = " ; ".join(field_text(field[k]) for k in range(3))
    return MODEL_HEADER + f"system U0 : {system}\n" + MODEL_MAPS


def _cli_check(want_code, check_json):
    """A report that contradicts its oracle is a wrong verdict even when the
    exit code is also off; a crash or a refusal without a report is not."""
    def check(out):
        if check_json is not None and out["stdout"].strip():
            rep, bad = oracles.parse_json(out["stdout"])
            bad = bad or check_json(rep)
            if bad:
                return bad
        return oracles.check_process(out["code"], want_code, out["stderr"])
    return check


def _check_readme(argv):
    cmd = argv[0]
    if cmd == "singularities":
        return oracles.check_census
    if cmd == "index":
        return lambda rep: oracles.check_index("P1", rep)
    if cmd == "alpha-test":
        return oracles.check_alpha
    if cmd == "painleve":
        return oracles.check_painleve
    if cmd == "verify-atlas":
        return lambda rep: None if rep["all_polynomial"] else "atlas not polynomial"
    if cmd == "monodromy":
        return lambda rep: oracles.check_monodromy(rep["deviation"])
    if "csv" in argv:
        return None
    return _check_integrate_json


def _check_integrate_json(rep):
    if not rep["switch_events"]:
        return "no chart switch: the path did not cross the pole"
    if abs(complex(rep["end_time"]) - 1.2) > 1e-9:
        return f"integration stopped at {rep['end_time']}"
    return None


def _check_csv(out):
    lines = out["stdout"].splitlines()
    if not lines or lines[0] != "t_re,t_im,chart,x_re,x_im,y_re,y_im,z_re,z_im,err_est":
        return "csv header missing"
    last = lines[-1].split(",")
    if len(last) != 10 or abs(float(last[0]) - 1.2) > 1e-9:
        return f"csv does not end at t = 1.2: {lines[-1][:80]}"
    return None


FILES_PER_BLOCK = 2


def cli_blocks(seed: int, env):
    rng = random.Random(seed)
    counter = 0
    while True:
        block = []
        for argv in README_EXAMPLES:
            check = _cli_check(0, _check_readme(argv))
            if "csv" in argv:
                check = lambda out, base=check: base(out) or _check_csv(out)
            block.append(Op(f"cli.{argv[0]}", " ".join(argv),
                            lambda argv=argv: env.run_cli(argv), check, True))
        for _ in range(FILES_PER_BLOCK):
            field = random_field(rng)
            counter += 1
            path = os.path.join(env.tmpdir, f"field{counter}.model")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(model_text(field))
            want_atlas = 0 if oracles.file_atlas_polynomial(field) else 1
            for cmd, code, check in (
                ("singularities", 0, lambda rep, f=field: oracles.check_file_singularities(f, rep)),
                ("painleve", 0, lambda rep, f=field: oracles.check_file_painleve(f, rep)),
                ("verify-atlas", want_atlas, lambda rep, f=field: oracles.check_file_atlas(f, rep)),
            ):
                argv = [cmd, "--system", path]
                block.append(Op(f"cli.{cmd}", f"{cmd} field{counter}",
                                lambda argv=argv: env.run_cli(argv), _cli_check(code, check)))
        yield block


WORKLOADS = {
    "resolve": resolve_blocks,
    "verify": verify_blocks,
    "continuation": continuation_blocks,
    "cli": cli_blocks,
}
