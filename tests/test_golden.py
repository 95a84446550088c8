"""Golden reports: the README's symbolic CLI examples, byte for byte.

Each case's stdout is stored in ``tests/golden/<name>.out`` and its exit code
in ``tests/golden/exit_codes.json``. The cases that read a model file by path
read it from ``tests/models/``: ``modified.model`` is the built-in
``modified`` exported, and three files pin a refusal each, with exit 1 and
no report (a chart map singular at a parameter point, a pole beyond the
boundary after a blow-up, a step size that collapses at a pole).
A change that moves a report on purpose (a fixed defect) regenerates them
with ``PYTHONPATH=src python tests/test_golden.py`` and the diff of
``tests/golden/`` shows what moved.
"""

import json
import pathlib
import subprocess
import sys

import oracles
import pytest

from threewave import models
from threewave.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden")
EXIT_CODES = GOLDEN / "exit_codes.json"
MODELS = pathlib.Path(__file__).with_name("models")
MODIFIED_FILE = MODELS / "modified.model"
SINGULAR_MAP_FILE = MODELS / "three-wave-singular-map.model"

CASES = {
    "singularities": ["singularities", "--system", "three-wave"],
    "singularities-modified": ["singularities", "--system", "modified"],
    "singularities-three-wave-chart-W": ["singularities", "--system", "three-wave", "--chart", "W"],
    "index-P1": ["index", "--system", "three-wave", "--point", "P1"],
    "index-P2": ["index", "--system", "three-wave", "--point", "P2"],
    "index-P3": ["index", "--system", "three-wave", "--point", "P3"],
    "index-P4": ["index", "--system", "three-wave", "--point", "P4"],
    "index-P4_1": ["index", "--system", "three-wave", "--point", "P4_1"],
    "index-P4_2": ["index", "--system", "three-wave", "--point", "P4_2"],
    "index-P1-text": ["index", "--system", "three-wave", "--point", "P1", "--format", "text"],
    **{f"index-modified-{label}": ["index", "--system", "modified", "--point", label]
       for label in ("P1", "P2", "P3", "P4", "P4_1", "P4_2")},
    "alpha-test-P1": ["alpha-test", "--system", "three-wave", "--point", "P1"],
    "alpha-test-P2": ["alpha-test", "--system", "three-wave", "--point", "P2"],
    "alpha-test-P3": ["alpha-test", "--system", "three-wave", "--point", "P3"],
    "alpha-test-P4_2": ["alpha-test", "--system", "three-wave", "--point", "P4_2"],
    "alpha-test-modified-P2": ["alpha-test", "--system", "modified", "--point", "P2"],
    "alpha-test-modified-P3": ["alpha-test", "--system", "modified", "--point", "P3"],
    "alpha-test-modified-P4_2": ["alpha-test", "--system", "modified", "--point", "P4_2"],
    "painleve": ["painleve", "--system", "three-wave", "--bound", "2"],
    "painleve-modified": ["painleve", "--system", "modified", "--bound", "2"],
    "painleve-three-wave-bound-4": ["painleve", "--system", "three-wave", "--bound", "4"],
    "blowup": ["blowup", "--system", "three-wave"],
    "blowup-modified": ["blowup", "--system", "modified"],
    "blowup-three-wave-delta1-gamma0": ["blowup", "--system", "three-wave", "--params", "delta=1,gamma=0"],
    "blowup-three-wave-delta0-gamma-1": ["blowup", "--system", "three-wave", "--params", "delta=0,gamma=-1"],
    "blowup-modified-alpha2-1-alpha4-half": [
        "blowup", "--system", "modified", "--params", "alpha2=1,alpha4=-1/2"
    ],
    "obstructions": ["obstructions", "--system", "three-wave"],
    "obstructions-gamma-1": ["obstructions", "--system", "three-wave", "--params", "gamma=-1"],
    "obstructions-modified": ["obstructions", "--system", "modified"],
    "obstructions-modified-alpha5-0": [
        "obstructions", "--system", "modified", "--params", "alpha1=1,alpha2=2,alpha3=3,alpha4=4,alpha5=0"
    ],
    "verify-atlas-three-wave": ["verify-atlas", "--system", "three-wave", "--params", "delta=0,gamma=-1"],
    "verify-atlas-modified": ["verify-atlas", "--system", "modified"],
    "verify-atlas-modified-point": [
        "verify-atlas", "--system", "modified", "--params", "alpha1=1,alpha2=-1/2,alpha3=i,alpha4=2,alpha5=3"
    ],
    "verify-symmetry": ["verify-symmetry", "--system", "modified"],
    "uniqueness": ["uniqueness", "--system", "modified"],
    "uniqueness-model-file": ["uniqueness", "--system", str(MODIFIED_FILE)],
    # DenominatorVanishes: the map U0 -> T9 divides by delta
    "verify-atlas-singular-map-delta0": [
        "verify-atlas", "--system", str(SINGULAR_MAP_FILE), "--params", "delta=0"
    ],
    # PoleTooHigh: component dbu1_2/dt has a pole beyond 1/bu1_1
    "blowup-lorenz": ["blowup", "--system", str(MODELS / "lorenz.model")],
    # StepUnderflow: x' = x^2 from x = 1 has a pole at t = 1 and no chart past it
    "integrate-finite-time-pole": [
        "integrate", "--system", str(MODELS / "finite-time-pole.model"),
        "--start=1;0;0", "--path", "2",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    code = run(CASES[name])
    out = capsys.readouterr().out
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


# the one error line each refusal case writes, up to its first figures
REFUSALS = {
    "verify-atlas-singular-map-delta0":
        "error: chart map U0->T9: inverse component 3 (r/(delta)): denominator vanishes",
    "blowup-lorenz": "error: component dbu1_2/dt has a pole beyond 1/bu1_1",
    "integrate-finite-time-pole": "error: step size collapsed at t = (1.0000000000",
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_a_refusal_case_writes_one_error_line(capsys, name):
    assert run(CASES[name]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(REFUSALS[name])


def test_every_golden_file_belongs_to_a_case():
    # a dropped case must take its output and its exit code with it
    assert {path.name for path in GOLDEN.iterdir()} == {f"{name}.out" for name in CASES} | {EXIT_CODES.name}
    assert sorted(json.loads(EXIT_CODES.read_text())) == sorted(CASES)


def test_a_model_file_reports_as_its_built_in():
    # the uniqueness report names no system, so the file's is the built-in's
    assert MODIFIED_FILE.read_text() == models.export_model("modified")
    by_path, by_name = (GOLDEN / f"{name}.out" for name in ("uniqueness-model-file", "uniqueness"))
    assert by_path.read_bytes() == by_name.read_bytes()


def test_the_singular_map_file_is_the_oracle_model():
    assert SINGULAR_MAP_FILE.read_text() == oracles.singular_map_model_text()


def regenerate() -> None:
    """Rewrite every golden file from fresh ``python -m threewave.cli`` runs."""
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        proc = subprocess.run([sys.executable, "-m", "threewave.cli", *argv], capture_output=True)
        (GOLDEN / f"{name}.out").write_bytes(proc.stdout)
        codes[name] = proc.returncode
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
