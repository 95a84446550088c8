"""Fresh-interpreter helpers for the benchmark.

``child.py setup [TRACE_OUT]`` times ``import threewave`` plus building both
built-in models and prints the timings as JSON; with TRACE_OUT it traces the
build and writes the layer statistics there.

``child.py reference`` times the same kind of start-up with no threewave
in it: importing a fixed set of stdlib modules and a little exact
arithmetic. The runner scales ``setup_s`` by it (see run.py).

``child.py cli TRACE_OUT ARG...`` runs ``threewave.cli.run(ARG...)`` under the
tracer, exactly as ``python -m threewave.cli ARG...`` would, and writes the
import time, the run time and the layer statistics to TRACE_OUT.

Both expect ``threewave`` on ``PYTHONPATH`` and refuse any other copy.
"""

import importlib
import json
import os
import sys
import time

REFERENCE_MODULES = (
    "fractions", "decimal", "argparse", "dataclasses", "typing", "inspect", "ast",
    "email.parser", "unittest", "csv", "textwrap", "string", "difflib", "pprint",
)


def _check_origin(module) -> None:
    src = os.environ.get("BENCH_SRC", "")
    if not src or not os.path.abspath(module.__file__).startswith(src + os.sep):
        sys.stderr.write(f"threewave imported from {module.__file__}, not from {src!r}\n")
        sys.exit(3)


def setup(trace_out=None) -> None:
    t0 = time.perf_counter()
    import threewave
    from threewave import models

    t1 = time.perf_counter()
    _check_origin(threewave)
    tracer = None
    if trace_out:
        from tracer import new_tracer

        tracer = new_tracer()
        tracer.install()
    t2 = time.perf_counter()
    models.model("three-wave")
    models.model("modified")
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"layers": tracer.snapshot()}, fh)
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "setup_s": (t1 - t0) + (t3 - t2)}))


def reference() -> None:
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    from fractions import Fraction

    acc = Fraction(0)
    for k in range(1, 1500):
        acc += Fraction(1, k) * Fraction(k + 1, k + 2)
    print(json.dumps({"s": time.perf_counter() - t0}))


def cli(trace_out, argv) -> None:
    t0 = time.perf_counter()
    import threewave.cli

    t1 = time.perf_counter()
    _check_origin(threewave)
    from tracer import new_tracer

    tracer = new_tracer()
    tracer.install()
    code = 1
    t2 = time.perf_counter()
    try:
        code = threewave.cli.run(argv)
    finally:
        t3 = time.perf_counter()
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": t1 - t0, "run_s": t3 - t2, "layers": tracer.snapshot()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2] if len(sys.argv) > 2 else None)
    elif sys.argv[1] == "reference":
        reference()
    else:
        cli(sys.argv[2], sys.argv[3:])
