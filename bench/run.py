"""threewave benchmark: four seeded workloads, exact oracles, an outside-in trace.

Run from the root of a source checkout (the package is imported from ./src):

    python3 bench/run.py --workload resolve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

Workloads: resolve, verify, continuation, cli (see workloads.py for why each
exists). Load is one closed-loop client: operations run one after another
in this process, or one child process at a time for ``cli``.

``--trace 0`` runs a fixed number of whole blocks of operations, as many as
take about ``--seconds`` seconds here (see ``workloads.BLOCK_SECONDS``; at
least ``MIN_BLOCKS``), and reports the end-to-end metrics. Every block has
the same mix of operation kinds, and every run of a workload the same number
of blocks, so that every run measures the same mix with the same number of
samples.
``--trace 1`` runs the first block of operations untraced, then the same
block under the layer tracer, checks that both gave identical outputs, and
reports per-layer metrics plus the tracing overhead.

Times are normalised to a reference speed. The speed of a small shared
virtual machine drifts by 20-75% over seconds to minutes, and every
operation slows with it. So the runner times a fixed reference that runs no
threewave code between operations, and scales each measured time by the
reference's nominal time over the median reference time measured within
the ``REF_NEAR`` samples on either side of it. A time in the metrics is thus the time the operation
would take on a machine where the reference takes its nominal time; a change
to ``threewave`` moves it, a change in the machine's speed does not. The
reference is
  * for operations in this process: exact ``Fraction`` arithmetic
    (``REF_ITERATIONS`` steps, nominal ``REF_NOMINAL_S``), at least every
    ``REF_EVERY_S`` seconds;
  * for ``cli`` operations, which are whole processes: a reference set-up,
    ``child.py reference`` (a fresh interpreter that imports a fixed set of
    stdlib modules and does a little exact arithmetic), timed from outside
    (nominal ``REF_CHILD_NOMINAL_S``), at least every ``REF_CHILD_EVERY_S``
    seconds;
  * for ``setup_s``: the same reference set-up as timed inside the child
    (nominal ``REF_SETUP_NOMINAL_S``), just before and after each set-up.
Process start-up and imports do not follow the speed of arithmetic in a warm
process, hence the second kind. The raw wall-clock figures are in the
detailed report under ``raw`` and ``raw_setup_s``.

Standard output carries a detailed JSON report (environment, every metric,
failures by kind) followed, as the last line, by the summary object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when the
run completed, whatever its failures; it is non-zero, without a summary,
when the package cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import new_tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics in the summary line; the detailed report has all of them
PER_LAYER = {
    "poly.poly_gcd.calls": "count",
    "poly.poly_gcd.inner_calls": "count",
    "poly.poly_gcd.s": "s",
    "poly.poly_gcd.nontrivial_ratio": "ratio",
    "ratfunc._reduce.calls": "count",
    "ratfunc._reduce.s": "s",
    "poly.MultiPoly.mul.calls": "count",
    "poly.MultiPoly.mul.self_s": "s",
    "poly.MultiPoly.exact_divide.calls": "count",
    "poly.MultiPoly.exact_divide.self_s": "s",
    "gaussian.GaussianRational.mul.calls": "count",
    "poly.resultant.calls": "count",
    "roots.find_roots.calls": "count",
    "roots.find_roots.fully_split_ratio": "ratio",
    "singular.find_accessible.calls": "count",
    "ratfunc.substitute.calls": "count",
    "ratfunc.substitute.s": "s",
    "geometry.pushforward.calls": "count",
    "geometry.pushforward.s": "s",
    "geometry.ChartMap.verify.calls": "count",
    "geometry.ChartMap.verify.s": "s",
    "geometry.jacobian_determinant.calls": "count",
    "models.verify_atlas_holomorphy.calls": "count",
    "singular.resolution_pipeline.calls": "count",
    "singular.painleve_leading_orders.calls": "count",
    "singular.local_index.calls": "count",
    "models.verify_symmetry.calls": "count",
    "uniqueness.build_constraints.calls": "count",
    "uniqueness.solve_ansatz.calls": "count",
    "linalg.linear_solve.calls": "count",
    "numerics.NumericAtlas.compile.calls": "count",
    "numerics.integrate.calls": "count",
    "numerics.steps_accepted": "count",
    "numerics.steps_rejected": "count",
    "numerics.step_accept_ratio": "ratio",
    "numerics.switch_events": "count",
    "numerics.fit_pole.calls": "count",
    "numerics.monodromy_check.calls": "count",
    "numerics.cont_err_max": "rel",
    "parsing.parse_model.calls": "count",
    "parsing.parse_model.s": "s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
}
SETUP_EVERY_S = 4.0
# the reference chunk (see the module docstring): its size, its nominal time
# (about its median on a 2-vCPU x86-64 VM with Python 3.11.7), how often it
# is sampled and how many samples on either side of an operation count
REF_ITERATIONS = 2000
REF_NOMINAL_S = 0.02
REF_EVERY_S = 0.25
REF_NEAR = 3
# nominal time of a reference set-up (child.py reference), about its median
# on the same machine, as the child reports it and as the parent sees it
# with the process start; for cli operations it is sampled every
# REF_CHILD_EVERY_S seconds
REF_SETUP_NOMINAL_S = 0.065
REF_CHILD_NOMINAL_S = 0.17
REF_CHILD_EVERY_S = 1.2
# how often the resident size is read (see Memory)
RSS_EVERY_S = 0.02
# a run executes round(--seconds / workloads.BLOCK_SECONDS) whole blocks,
# at least this many
MIN_BLOCKS = 2
# a wrong verdict or a changed output; other failures are refusals or crashes
INCORRECT = ("OracleMismatch", "NotReproducible", "TraceChangedOutput")


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["BENCH_SRC"] = str(SRC)
    return env


# -- environment record --------------------------------------------------------------


def reference_work(iterations: int) -> Fraction:
    """A fixed stdlib workload: exact rational arithmetic, as in threewave's
    kernels, but with no threewave code in it."""
    acc = Fraction(0)
    for k in range(1, iterations + 1):
        acc += Fraction(1, k) * Fraction(k + 1, k + 2)
    return acc


def reference_loop_s() -> float:
    """The reference workload at 5x the chunk size, timed at the start and
    end of a run to recognise a slow machine; a diagnostic."""
    t0 = time.perf_counter()
    reference_work(5 * REF_ITERATIONS)
    return time.perf_counter() - t0


class Speed:
    """The machine's current speed, sampled by timing a reference between
    operations, at least every ``every`` seconds. ``factor(start, end)``
    turns a wall time measured in [start, end] into normalised seconds."""

    def __init__(self, reference, nominal: float, every: float):
        self.reference = reference
        self.nominal = nominal
        self.every = every
        self.stamps: list[float] = []  # midpoints of the samples, ascending
        self.times: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        near = self.times[max(0, lo - REF_NEAR):hi + REF_NEAR]
        return self.nominal / statistics.median(near)


def in_process_speed() -> Speed:
    return Speed(lambda: reference_work(REF_ITERATIONS), REF_NOMINAL_S, REF_EVERY_S)


def child_speed() -> Speed:
    """For operations that are whole processes: the reference is a reference
    set-up (``child.py reference``), timed from outside like the operation."""
    cmd = [sys.executable, str(BENCH / "child.py"), "reference"]
    return Speed(lambda: run_child(cmd, 120), REF_CHILD_NOMINAL_S, REF_CHILD_EVERY_S)


class Memory:
    """Resident size of this process, read by a thread every ``RSS_EVERY_S``
    seconds while the workload runs. ``peak(start, end)`` is the highest
    reading while an operation ran. ``peak_rss_mb`` is the highest over the
    operations that succeeded: one that runs out of time (a coefficient
    blow-up in ``poly_gcd``) grows memory for as long as it is allowed to, so
    the process's own peak, reported apart as ``process_peak_rss_mb``, would
    measure the time limit and the machine's speed. Needs ``/proc/self/statm``
    (Linux); elsewhere ``peak_rss_mb`` is the process's peak."""

    PATH = "/proc/self/statm"

    def __init__(self):
        self.stamps: list[float] = []
        self.values: list[int] = []
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @classmethod
    def available(cls) -> bool:
        return os.path.exists(cls.PATH)

    def _loop(self) -> None:
        with open(self.PATH, "rb") as fh:
            while True:
                fh.seek(0)
                resident = int(fh.read().split()[1]) * self._page
                self.stamps.append(time.perf_counter())
                self.values.append(resident)
                if self._stop.wait(RSS_EVERY_S):
                    return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def peak(self, start: float, end: float) -> int:
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end + RSS_EVERY_S)
        return max(self.values[lo:hi], default=0)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "threewave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "command": [sys.executable] + sys.argv,
    }


# -- set-up ----------------------------------------------------------------------------


def run_child(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
    return proc.stdout


class Setups:
    """Fresh-interpreter set-ups, one at a time, each between two reference
    set-ups (``child.py reference``). They are spread over the run, one every
    ``SETUP_EVERY_S`` seconds between operations, so that their median does
    not hang on the machine's speed in one moment."""

    def __init__(self):
        self.samples: list[dict] = []
        self.last = -math.inf

    def measure(self) -> None:
        def child(*argv) -> dict:
            cmd = [sys.executable, str(BENCH / "child.py"), *argv]
            return json.loads(run_child(cmd, 120).splitlines()[-1])

        before = child("reference")["s"]
        rec = child("setup")
        after = child("reference")["s"]
        rec["reference_s"] = (before + after) / 2
        rec["raw_setup_s"] = rec.pop("setup_s")
        rec["setup_s"] = rec["raw_setup_s"] * REF_SETUP_NOMINAL_S / rec["reference_s"]
        self.samples.append(rec)
        self.last = time.perf_counter()

    def maybe_measure(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.measure()

    def summary(self) -> dict:
        return {
            "samples": self.samples,
            "setup_s": statistics.median(s["setup_s"] for s in self.samples),
            "raw_setup_s": statistics.median(s["raw_setup_s"] for s in self.samples),
        }


def traced_setup(tmpdir: str) -> dict:
    out = os.path.join(tmpdir, "setup-trace.json")
    run_child([sys.executable, str(BENCH / "child.py"), "setup", out], 120)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)["layers"]


# -- running operations ------------------------------------------------------------------


class Env:
    """State the workloads share with the runner: scratch directory, the CLI
    launcher, and measurements taken inside operations."""

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir
        self.trace = False
        self.cont_err_max = 0.0
        self.child_rss_kb = 0
        self.cli_runs: list[dict] = []
        self._n = 0

    def run_cli(self, argv):
        self._n += 1
        out_path = os.path.join(self.tmpdir, f"cli{self._n}.out")
        err_path = os.path.join(self.tmpdir, f"cli{self._n}.err")
        trace_path = os.path.join(self.tmpdir, f"cli{self._n}.trace.json")
        if self.trace:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", trace_path] + list(argv)
        else:
            cmd = [sys.executable, "-m", "threewave.cli"] + list(argv)
        with open(out_path, "w") as fo, open(err_path, "w") as fe:
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # the operation's time limit: stop and reap the child
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fo, open(err_path, encoding="utf-8") as fe:
            result = {"code": proc.returncode, "stdout": fo.read(), "stderr": fe.read()}
        for path in (out_path, err_path):
            os.remove(path)
        if self.trace and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                rec = json.load(fh)
            os.remove(trace_path)
            rec["command"] = argv[0]
            self.cli_runs.append(rec)
        return result


def digest(out) -> str:
    if isinstance(out, dict) and "stdout" in out and "code" in out:
        out = {"code": out["code"], "stdout": out["stdout"]}
    return hashlib.sha256(json.dumps(out, sort_keys=True, default=repr).encode()).hexdigest()


def execute(op, timeout: float) -> dict:
    failure = reason = out = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        failure, reason = "OpTimeout", f"no result within {timeout} s"
    except Exception as exc:  # every failure is counted by kind, none aborts the run
        failure, reason = type(exc).__name__, str(exc)[:200]
    t1 = time.perf_counter()
    if failure is None:
        try:
            verdict = op.check(out)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            verdict = f"oracle cannot read the output: {exc!r}"
        if isinstance(verdict, tuple):
            failure, reason = verdict
        elif verdict:
            failure, reason = "OracleMismatch", verdict
    return {
        "op": op.name,
        "label": op.label,
        "fixed": op.fixed,
        "start": t0,
        "end": t1,
        "raw_s": t1 - t0,
        "failure": failure,
        "reason": reason,
        "digest": digest(out) if failure is None else None,
    }


def run_ops(ops, timeout, speed: Speed, setups: Setups | None = None) -> tuple[list[dict], float]:
    """Run ``ops`` one after another, sampling the machine's speed (and the
    set-up time) between them; returns the results and the wall time, the
    samples included."""
    t0 = time.perf_counter()
    results = []
    for op in ops:
        speed.maybe_sample()
        if setups is not None:
            setups.maybe_measure()
        results.append(execute(op, timeout))
    speed.sample()
    return results, time.perf_counter() - t0


def normalise(results, speed: Speed) -> None:
    """Give every result its normalised time ``s`` (see the module docstring)."""
    for r in results:
        r["s"] = r["raw_s"] * speed.factor(r["start"], r["end"])


def check_repeats(results) -> None:
    """Fixed-input operations must give byte-identical output every time."""
    first: dict[tuple[str, str], str] = {}
    for r in results:
        if not r["fixed"] or r["digest"] is None:
            continue
        key = (r["op"], r["label"])
        if first.setdefault(key, r["digest"]) != r["digest"]:
            r["failure"], r["reason"] = "NotReproducible", "output differs from its first repetition"
            r["digest"] = None


# -- metrics -----------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-13:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1 - front * _betacf(b, a, 1 - x) / b


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, taken of the logarithms of
    the values: a beta-weighted mean of all order statistics. With a few
    dozen samples from a mix of cheap and expensive operations it moves far
    less between runs than a single order statistic does when q falls between
    two groups; on logarithms, the few slowest operations (a uniqueness solve
    takes 20 times the median) pull it less."""
    xs = sorted(math.log(v) for v in values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return math.exp(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def tail_quantile(n: int) -> float:
    """p90, or the highest percentile with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1 - 10 / n)) if n else 0.9


def timings(times) -> dict:
    q = tail_quantile(len(times))
    return {
        "ops_per_s": len(times) / sum(times) if times else 0.0,
        "op_p50_s": percentile(times, 0.5) if times else 0.0,
        "op_p90_s": percentile(times, q) if times else 0.0,
        "tail_quantile": q,
    }


def summarise(results) -> dict:
    """End-to-end numbers over the operations that succeeded; failed ones are
    counted, by kind, and their time is reported as ``failed_s``, so that a
    run which hits more failures (a time-out costs its whole limit) does not
    read as a slower program."""
    done = [r["s"] for r in results if r["failure"] is None]
    busy = sum(done)
    kinds: dict[str, int] = {}
    per_op: dict[str, dict] = {}
    for r in results:
        row = per_op.setdefault(r["op"], {"attempted": 0, "failed": 0, "times": []})
        row["attempted"] += 1
        if r["failure"]:
            row["failed"] += 1
            key = f"{r['op']}.{r['failure']}"
            kinds[key] = kinds.get(key, 0) + 1
        else:
            row["times"].append(r["s"])
    for row in per_op.values():
        times = row.pop("times")
        row["median_s"] = statistics.median(times) if times else None
    raw = timings([r["raw_s"] for r in results if r["failure"] is None])
    raw["busy_s"] = sum(r["raw_s"] for r in results if r["failure"] is None)
    return {
        "attempted": len(results),
        "failed": len(results) - len(done),
        **timings(done),
        "samples": len(done),
        "busy_s": busy,
        "failed_s": sum(r["s"] for r in results) - busy,
        "raw": raw,
        "fail_ratio": (len(results) - len(done)) / len(results),
        "failures": kinds,
        "per_operation": per_op,
    }


def merge_layers(into: dict, layers: dict) -> None:
    for name, st in layers.items():
        row = into.setdefault(name, {})
        for key, value in st.items():
            row[key] = row.get(key, 0) + value


def layer_metrics(layers: dict, env: Env) -> dict:
    m: dict[str, float] = {}
    for name, st in sorted(layers.items()):
        m[f"{name}.calls"] = st["calls"]
        if name != "gaussian.GaussianRational.mul":
            m[f"{name}.s"] = st["s"]
            m[f"{name}.self_s"] = st["self_s"]
    gcd = layers["poly.poly_gcd"]
    outer = gcd["calls"] - gcd["inner_calls"]
    m["poly.poly_gcd.inner_calls"] = gcd["inner_calls"]
    m["poly.poly_gcd.nontrivial_ratio"] = gcd.get("nontrivial", 0) / outer if outer else 0.0
    roots = layers["roots.find_roots"]
    m["roots.find_roots.fully_split_ratio"] = (
        roots.get("fully_split", 0) / roots["calls"] if roots["calls"] else 0.0
    )
    integ = layers["numerics.integrate"]
    acc, rej = integ.get("steps_accepted", 0), integ.get("steps_rejected", 0)
    m["numerics.steps_accepted"] = acc
    m["numerics.steps_rejected"] = rej
    m["numerics.step_accept_ratio"] = acc / (acc + rej) if acc + rej else 0.0
    m["numerics.switch_events"] = integ.get("switch_events", 0)
    m["numerics.steps_per_s"] = acc / integ["s"] if integ["s"] else 0.0
    m["numerics.cont_err_max"] = env.cont_err_max
    if env.cli_runs:
        m["cli.import_s"] = statistics.median(r["import_s"] for r in env.cli_runs)
        for cmd in sorted({r["command"] for r in env.cli_runs}):
            m[f"cli.{cmd}.s"] = statistics.median(
                r["run_s"] for r in env.cli_runs if r["command"] == cmd
            )
    return m


# -- the two kinds of run ----------------------------------------------------------------


def timed_run(blocks, n_blocks: int, seconds: float, timeout: float, speed: Speed,
              setups: Setups):
    """``n_blocks`` whole blocks; on a machine so slow that ``2 * seconds``
    have passed, no further block starts."""
    results: list[dict] = []
    wall = 0.0
    for _, block in zip(range(n_blocks), blocks):
        if wall > 2 * seconds:
            break
        got, dt = run_ops(block, timeout, speed, setups)
        results += got
        wall += dt
    normalise(results, speed)
    check_repeats(results)
    return results, wall


def traced_run(make_blocks, env: Env, timeout: float, tmpdir: str, speed: Speed):
    plain, _ = run_ops(next(make_blocks()), timeout, speed)
    env.cont_err_max = 0.0
    tracer = new_tracer()
    env.trace = True
    tracer.install()
    try:
        traced, traced_wall = run_ops(next(make_blocks()), 2 * timeout, speed)
    finally:
        tracer.uninstall()
        env.trace = False
    normalise(plain, speed)
    normalise(traced, speed)
    for a, b in zip(plain, traced):
        if a["digest"] != b["digest"] and a["failure"] is None and b["failure"] is None:
            b["failure"], b["reason"] = "TraceChangedOutput", "traced output differs from untraced"
    layers = tracer.snapshot()
    for rec in env.cli_runs:
        merge_layers(layers, rec["layers"])
    merge_layers(layers, traced_setup(tmpdir))
    metrics = layer_metrics(layers, env)
    plain_rate = summarise(plain)["ops_per_s"]
    traced_rate = summarise(traced)["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = plain_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_ops_per_s"] = traced_rate - plain_rate
    return traced, traced_wall, metrics


def bench(args) -> int:
    if not (SRC / "threewave" / "__init__.py").is_file():
        print(f"error: no threewave sources under {SRC}", file=sys.stderr)
        return 2
    report = {"environment": environment(args), "reference_loop_s": {"start": reference_loop_s()}}
    speed = child_speed() if args.workload == "cli" else in_process_speed()
    setups = Setups()
    try:
        setups.measure()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import threewave
    from threewave import models

    if not threewave.__file__.startswith(str(SRC) + os.sep):
        print(f"error: threewave imported from {threewave.__file__}", file=sys.stderr)
        return 2
    models.model("three-wave")
    models.model("modified")

    signal.signal(signal.SIGALRM, _alarm)
    tmpdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    env = Env(tmpdir)
    make = workloads.WORKLOADS[args.workload]
    memory = Memory() if Memory.available() and args.workload != "cli" else None
    try:
        if args.trace:
            results, wall, layer = traced_run(lambda: make(args.seed, env), env,
                                              workloads.OP_TIMEOUT_S, tmpdir, speed)
        else:
            n_blocks = max(MIN_BLOCKS, round(args.seconds / workloads.BLOCK_SECONDS[args.workload]))
            with memory or contextlib.nullcontext():
                results, wall = timed_run(make(args.seed, env), n_blocks, args.seconds,
                                          workloads.OP_TIMEOUT_S, speed, setups)
            layer = None
    finally:
        for name in os.listdir(tmpdir):
            os.remove(os.path.join(tmpdir, name))
        os.rmdir(tmpdir)

    summary = summarise(results)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary["process_peak_rss_mb"] = usage / 1024
    if args.workload == "cli":
        summary["peak_rss_mb"] = env.child_rss_kb / 1024
    elif memory is not None and memory.values:
        ok = [memory.peak(r["start"], r["end"]) for r in results if r["failure"] is None]
        summary["peak_rss_mb"] = max(ok, default=0) / 2**20
    else:
        summary["peak_rss_mb"] = usage / 1024
    report["setup"] = setups.summary()
    summary["setup_s"] = report["setup"]["setup_s"]
    report["reference_loop_s"]["end"] = reference_loop_s()
    report["reference_s"] = {
        "nominal": speed.nominal,
        "samples": len(speed.times),
        "median": statistics.median(speed.times),
        "min": min(speed.times),
        "max": max(speed.times),
    }
    report["workload"] = args.workload
    report["trace"] = bool(args.trace)
    report["wall_s"] = wall
    report["summary"] = summary
    report["fail"] = {f"fail.{args.workload}.{k}": v for k, v in summary.pop("failures").items()}
    report["wrong"] = [r for r in results if r["failure"] in INCORRECT]
    report["operations"] = [[r["op"], r["label"], r["s"], r["raw_s"], r["failure"]] for r in results]
    if layer is not None:
        report["per_layer"] = layer
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not report["wrong"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="short pass of every workload plus oracle mutation checks")
    args = ap.parse_args(argv)
    if args.self_check:
        from selfcheck import self_check

        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
