"""Function reach: every function of ``src/threewave`` that no report reaches.

    PYTHONPATH=src python tests/reach.py

Under ``sys.setprofile`` it runs, in this process,

* the golden cases (``test_golden.CASES``) through ``cli.run``;
* one block each of the benchmark's ``resolve``, ``verify`` and
  ``continuation`` workloads (``bench/workloads.py``, seed 1);
* one block of its ``cli`` workload, each command through ``cli.run``
  instead of a child process;

and prints, one a line, each function defined in ``src/threewave`` whose
code none of them entered, with its length, then the totals. Only the
operations run, not the benchmark's oracles. A function listed is reached,
if at all, by the tests only: a candidate for deletion, or a sign that no
report covers it. It exits 1 when an operation raised, 0 otherwise. The
script writes no bytecode and keeps the model files of the ``cli`` block in
a temporary directory. It is not a test and pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # nothing lands under bench/ or src/

import oracles  # noqa: E402  (tests/oracles.py; it imports the package)
import test_golden  # noqa: E402
from threewave import cli  # noqa: E402

PACKAGE = Path(cli.__file__).resolve().parent
SEED = 1


class InProcessEnv:
    """What the workloads read of the benchmark runner's ``Env``, with the
    ``cli`` commands run through ``cli.run``."""

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir
        self.trace = False
        self.cont_err_max = 0.0

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every function and method of the package by (file, first line of its
    code, the first decorator's when decorated): its qualified name and its
    number of lines."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[(str(path), first)] = (name, child.end_lineno - first + 1)
                walk(child, f"{name}.<locals>.", path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.", path)
    return found


def run_everything() -> int:
    """Every operation of the module docstring, each one that raises named on
    stderr; returns how many raised."""
    failed = 0

    def attempt(fn, label) -> None:
        nonlocal failed
        try:
            fn()
        except Exception as exc:  # a refusal is a reached path like any other
            failed += 1
            print(f"raised: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)

    workloads = oracles.bench_workloads()
    with tempfile.TemporaryDirectory(prefix="threewave-reach-") as tmpdir:
        env = InProcessEnv(tmpdir)
        for argv in test_golden.CASES.values():
            attempt(lambda argv=argv: env.run_cli(argv), " ".join(argv))
        for name in ("resolve", "verify", "continuation", "cli"):
            for op in next(workloads.WORKLOADS[name](SEED, env)):
                attempt(op.run, f"{name} {op.name} {op.label}")
    return failed


def main() -> int:
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        failed = run_everything()
    finally:
        sys.setprofile(None)
    entered = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in reached}
    missed = sorted((key, value) for key, value in defined_functions().items() if key not in entered)
    for (path, line), (name, length) in missed:
        print(f"{name}  {Path(path).relative_to(PACKAGE.parent.parent)}:{line}  ({length} lines)")
    print(f"{len(missed)} functions ({sum(n for _, (_, n) in missed)} lines) not reached; "
          f"{failed} operations raised")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
