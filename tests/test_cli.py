import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import oracles
import pytest

from threewave import cli, models, numerics, reports
from threewave.cli import run
from threewave.numerics import NumericAtlas, TrajectoryPoint, integrate


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_obstructions_command(capsys):
    code, out = _capture(capsys, ["obstructions", "--system", "three-wave"])
    assert code == 0
    rep = json.loads(out)
    assert rep["obstructions"] == ["delta*gamma", "gamma^2+gamma"]
    assert rep["solution_branches"] == ["{delta = 0, gamma = -1}", "{gamma = 0}"]


def test_index_command(capsys):
    code, out = _capture(capsys, ["index", "--system", "three-wave", "--point", "P1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["eigenvalues"] == ["0", "2", "-2"]


def test_verify_atlas_exit_codes(capsys):
    code, _ = _capture(
        capsys, ["verify-atlas", "--system", "modified", "--atlas", "resolved"]
    )
    assert code == 0
    code2, out2 = _capture(
        capsys, ["verify-atlas", "--system", "three-wave", "--atlas", "resolved"]
    )
    assert code2 == 1  # generic parameters: the third chart genuinely fails
    rep = json.loads(out2)
    bad = [c for c in rep["charts"] if not c["polynomial"]]
    assert bad and bad[0]["obstruction_conditions"] == ["delta*gamma", "gamma^2+gamma"]
    code3, _ = _capture(
        capsys,
        ["verify-atlas", "--system", "three-wave", "--params", "delta=0,gamma=-1"],
    )
    assert code3 == 0


def test_verify_atlas_reports_a_pole_on_a_chart_without_boundary(tmp_path, capsys):
    # C1 has no boundary divisor, so its pole X^2 is a witness with no
    # obstruction conditions to read off
    path = tmp_path / "no-boundary.model"
    path.write_text("""chart U0 : x y z
chart C1 : X Y Z
system U0 : y ; z ; x^2
map U0 C1 : 1/x ; y ; z | 1/X ; Y ; Z
atlas resolved : C1
atlas projective : C1
""")
    code, out = _capture(capsys, ["verify-atlas", "--system", str(path)])
    assert code == 1
    (c1,) = [c for c in json.loads(out)["charts"] if c["chart"] == "C1"]
    assert c1["polynomial"] is False
    assert c1["witnesses"] == ["X^2"]
    assert c1["obstruction_conditions"] == []


def test_verify_symmetry_command(capsys):
    code, out = _capture(capsys, ["verify-symmetry", "--system", "modified"])
    assert code == 0
    rep = json.loads(out)
    assert rep["pi"]["invariant"] and rep["s"]["invariant"]
    assert rep["relations"]["all_hold"]


def test_float_parameters_rejected_for_symbolic_commands(capsys):
    code = run(["index", "--system", "three-wave", "--params", "delta=0.5"])
    assert code == 2


@pytest.mark.parametrize(
    "binding, message",
    [
        ("gamma=delta", "is not a constant"),
        ("gamma=1.5", "exact values only"),
        ("gamma=1e-3", "exact values only"),
    ],
)
def test_symbolic_parameter_values_are_told_apart(capsys, binding, message):
    code = run(["index", "--system", "three-wave", "--params", binding])
    assert code == 2
    assert message in capsys.readouterr().err


def test_unknown_parameter_rejected(capsys):
    code = run(["index", "--system", "three-wave", "--params", "nope=1"])
    assert code == 2


def test_deterministic_output(capsys):
    _, out1 = _capture(capsys, ["singularities", "--system", "three-wave"])
    _, out2 = _capture(capsys, ["singularities", "--system", "three-wave"])
    assert out1 == out2


def test_report_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THREEWAVE_REPORT_DIR", str(tmp_path))
    code, out = _capture(capsys, ["painleve", "--system", "three-wave"])
    assert code == 0
    written = (tmp_path / "painleve.json").read_text()
    assert written == out


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = _capture(
        capsys, ["index", "--system", "three-wave", "--point", "P2", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text() == out
    rep = json.loads(out)
    assert rep["eigenvalues"] == ["-2", "-4", "-4"]


def test_integrate_csv(capsys):
    code, out = _capture(
        capsys,
        [
            "integrate",
            "--system",
            "modified",
            "--start=0.5;0.1;0.2",
            "--path",
            "0.4",
            "--tol",
            "1e-9",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t_re,t_im,chart")
    assert len(lines) > 3


def test_integrate_reports_the_pole_read_off_the_chart(capsys):
    code, out = _capture(
        capsys,
        ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1.2",
         "--tol", "1e-12"],
    )
    assert code == 0
    fit = json.loads(out)["pole_fit"]
    assert fit["exponents"] == [1, -2, 2]
    assert fit["residual"] <= 1e-10


def test_integrate_without_a_pole_reports_no_fit(capsys):
    # a short path that stays on the base chart: no point of it lies in a
    # chart with a boundary coordinate, so there is no pole to fit
    code, out = _capture(
        capsys, ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "0.1"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["pole_fit"] is None
    assert rep["switch_events"] == [] and rep["end_chart"] == "U0"
    assert (rep["steps_accepted"], rep["steps_rejected"]) == (2, 0)
    assert rep["end_time"] == "(0.1+0j)"
    # the solution as reference_taylor gives it at tol 1e-16
    want = (-2.374820199202057, 0.06473941499066219, -4.633962170391424)
    for got, w in zip(rep["end_state_base_chart"], want):
        assert abs(complex(got) - w) <= 1e-12 * abs(w)


def test_integrate_binds_parameters_exactly(capsys):
    # with delta=2, gamma=0 the resolved atlas is polynomial only once the
    # parameters are bound; the run must match the generic field evaluated
    # at the same values
    start = (-3 + 0j, 1.02 + 0j, -3 + 0j)
    code, out = _capture(
        capsys,
        ["integrate", "--system", "three-wave", "--start=-3;1.02;-3", "--path", "1.5",
         "--params", "delta=2,gamma=0"],
    )
    assert code == 0
    rep = json.loads(out)
    v = models.system_field("three-wave")
    maps = models.resolved_atlas("three-wave")
    atlas = NumericAtlas(v, maps, {"delta": 2, "gamma": 0}, require_polynomial=False)
    traj = integrate(v, maps, TrajectoryPoint(0j, start, atlas.base), [0j, 1.5], atlas=atlas)
    end = atlas.transition(traj.end.state, traj.end.chart, atlas.base)
    assert rep["end_chart"] == traj.end.chart
    for got, want in zip(rep["end_state_base_chart"], end):
        assert abs(complex(got) - want) <= 1e-9 * max(1.0, abs(want))


def test_monodromy_command(capsys):
    code, out = _capture(
        capsys,
        [
            "monodromy",
            "--system",
            "modified",
            "--start=-2;0.1;-3",
            "--t0",
            "0",
            "--center",
            "0.55",
            "--tol",
            "1e-11",
        ],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["deviation"] < 1e-6


def test_model_file_system(tmp_path, capsys):
    model = tmp_path / "toy.model"
    model.write_text(
        """
params mu
chart C0 : x y z
chart C1 : X Y Z @ X
system C0 : x^2 ; -y + mu ; z
map C0 C1 : 1/x ; y ; z | 1/X ; Y ; Z
"""
    )
    code, out = _capture(capsys, ["painleve", "--system", str(model)])
    assert code == 0
    rep = json.loads(out)
    assert any(b["exponents"][0] == 1 for b in rep["balances"])
    code2, out2 = _capture(capsys, ["verify-atlas", "--system", str(model)])
    rep2 = json.loads(out2)
    assert "charts" in rep2


def test_exported_model_reanalyzed_through_cli(tmp_path, capsys):
    # export the built-in system, perturb nothing, and drive the CLI on the
    # file: the analyses must reproduce the built-in results
    path = tmp_path / "exported.model"
    path.write_text(models.export_model("three-wave"))
    code, out = _capture(capsys, ["obstructions", "--system", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["obstructions"] == ["delta*gamma", "gamma^2+gamma"]
    code2, out2 = _capture(
        capsys, ["verify-atlas", "--system", str(path), "--params", "delta=0,gamma=-1"]
    )
    assert code2 == 0
    rep2 = json.loads(out2)
    assert rep2["all_polynomial"]


def test_usage_error_on_unknown_system(capsys):
    code = run(["index", "--system", "bogus"])
    assert code == 2


def test_text_format(capsys):
    code, out = _capture(
        capsys, ["index", "--system", "three-wave", "--point", "P1", "--format", "text"]
    )
    assert code == 0
    assert "eigenvalues" in out


def test_text_format_of_nested_lists_and_nulls():
    # a nested list is a nested "- " list, one entry per line; a null is null
    report = {"rows": [["0", "1"], [], [["x"], None]], "ratios": None, "more": [{"k": None}]}
    assert cli._render_text(report).splitlines() == [
        "more:", "  k: null", "  -",
        "ratios: null",
        "rows:", "  -", "    - 0", "    - 1", "  -", "  -", "    -", "      - x", "    - null",
    ]


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    paths = {}
    for kind in ("three-wave", "modified"):
        path = tmp_path_factory.mktemp("export") / f"{kind}.model"
        path.write_text(models.export_model(kind))
        paths[kind] = str(path)
    return paths


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("three-wave", ["singularities"]),
        ("three-wave", ["index", "--point", "P4_1"]),
        ("three-wave", ["alpha-test"]),
        ("three-wave", ["painleve"]),
        ("three-wave", ["blowup"]),
        ("three-wave", ["obstructions", "--params", "delta=1"]),
        ("three-wave", ["verify-atlas"]),
        ("three-wave", ["verify-atlas", "--atlas", "projective"]),
        ("modified", ["singularities", "--params", "alpha1=0,alpha2=1,alpha5=1/2"]),
        ("modified", ["index", "--point", "P2"]),
        ("modified", ["painleve"]),
        ("modified", ["verify-atlas"]),
        ("modified", ["verify-symmetry"]),
        ("modified", ["uniqueness"]),
        ("three-wave", ["uniqueness"]),
    ],
)
def test_exported_file_matches_builtin(capsys, exported, kind, argv):
    # one code path: the exported model file gives the built-in's report
    code_b, out_b = _capture(capsys, argv + ["--system", kind])
    code_f, out_f = _capture(capsys, argv + ["--system", exported[kind]])
    rep_b, rep_f = json.loads(out_b), json.loads(out_f)
    assert rep_b.pop("system", kind) == kind
    assert rep_f.pop("system", exported[kind]) == exported[kind]
    assert (code_f, rep_f) == (code_b, rep_b)


@pytest.mark.parametrize(
    "command",
    ["blowup", "obstructions", "index --point P4_1", "index --point P4_2", "alpha-test"],
)
def test_model_without_chart_w_gets_fresh_weighted_variables(tmp_path, capsys, command):
    # without a chart W the weighted chart takes fresh variables XW YW ZW,
    # the same names the built-in declares, so the reports agree; the labels
    # P4_1 and P4_2 live on that chart too
    path = tmp_path / "no-w.model"
    lines = models.export_model("three-wave").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("chart W ")))
    assert "chart W " not in path.read_text()
    argv = command.split()
    code_b, out_b = _capture(capsys, argv + ["--system", "three-wave"])
    code_f, out_f = _capture(capsys, argv + ["--system", str(path)])
    rep_b, rep_f = json.loads(out_b), json.loads(out_f)
    assert rep_b.pop("system", "three-wave") == "three-wave"
    assert rep_f.pop("system", str(path)) == str(path)
    assert (code_f, rep_f) == (code_b, rep_b) and code_f == 0


def test_parameter_named_like_an_internal_unknown(tmp_path, capsys):
    # a parameter lead1 must not be taken for the balance search's unknown of
    # that name: the unknowns move to lead_1..lead_3 and the report is the
    # one of the same model with the parameter called gamma
    text = models.export_model("three-wave")
    texts = {}
    for name in ("gamma", "lead1"):
        path = tmp_path / f"{name}.model"
        path.write_text(text.replace("gamma", name))
        code, out = _capture(capsys, ["painleve", "--system", str(path)])
        assert code == 0
        rep = json.loads(out)
        rep.pop("system")
        texts[name] = json.dumps(rep)
    assert "lead_3" in texts["lead1"]
    mapped = texts["lead1"].replace("lead1", "gamma").replace("lead_", "lead")
    assert json.loads(mapped) == json.loads(texts["gamma"])
    assert len(json.loads(mapped)["balances"]) == 3


TOY_WITH_ATLAS = """
chart C0 : x y z
chart C1 : X Y Z @ X
system C0 : x^2 ; -y ; z
map C0 C1 : 1/x ; y ; z | 1/X ; Y ; Z
atlas resolved : C1
"""

_TOY_MAP = "map C0 C1 : 1/x ; y ; z | 1/X ; Y ; Z"
_TOY_SYSTEM = "system C0 : x^2 ; -y ; z"
# model files that make a command a usage error, each with the error line it gives
ERROR_MODELS = {
    "BAD-DIRECTIVE": (TOY_WITH_ATLAS + "frobnicate now\n", "unknown directive 'frobnicate'"),
    "BAD-MAP-CHARTS": (TOY_WITH_ATLAS.replace(_TOY_MAP, "map C0 : 1/x ; y ; z | 1/X ; Y ; Z"),
                       "map needs 'SOURCE TARGET', got 'C0 '"),
    "BAD-MAP-HALVES": (TOY_WITH_ATLAS.replace(_TOY_MAP, "map C0 C1 : 1/x ; y ; z"),
                       "map needs 'forward-triple | inverse-triple'"),
    "BAD-CHART": (TOY_WITH_ATLAS.replace("chart C0 : x y z", "chart C0 : x y"),
                  "chart 'C0' needs exactly three variables"),
    "NO-SYSTEM": (TOY_WITH_ATLAS.replace(_TOY_SYSTEM + "\n", ""), "must define exactly one system"),
    "TWO-SYSTEMS": (TOY_WITH_ATLAS.replace(_TOY_SYSTEM, _TOY_SYSTEM + "\nsystem C1 : X ; Y ; Z"),
                    "must define exactly one system"),
    "SAME-CHART-SYSTEMS": (
        TOY_WITH_ATLAS.replace(_TOY_SYSTEM, _TOY_SYSTEM + "\nsystem C0 : x ; y ; z"),
        "chart 'C0' has a second system",
    ),
    # a second C0 used to replace the first, leaving the system on x, y, z
    # over a chart of a, b, c, with no balances
    "DUPLICATE-CHART": (
        TOY_WITH_ATLAS.replace("chart C0 : x y z", "chart C0 : x y z\nchart C0 : a b c"),
        "chart 'C0' is declared twice",
    ),
    # a second atlas line of one name used to replace the first without a word
    "DUPLICATE-ATLAS": (TOY_WITH_ATLAS + "atlas resolved : C1\n",
                        "atlas 'resolved' is declared twice"),
    # a second map C0 C1 used to list chart C1 twice in verify-atlas
    "DUPLICATE-MAP": (TOY_WITH_ATLAS.replace(_TOY_MAP, _TOY_MAP + "\n" + _TOY_MAP),
                      "map C0 C1 is declared twice"),
    # an unknown boundary name used to leave C1 without a boundary
    "UNKNOWN-BOUNDARY": (TOY_WITH_ATLAS.replace("@ X", "@ W"),
                         "chart 'C1': boundary symbol must be one of the chart variables"),
    "UNDECLARED-CHART": (TOY_WITH_ATLAS.replace("system C0", "system C9"),
                         "chart 'C9' not declared"),
    "OPEN-PAREN": (TOY_WITH_ATLAS.replace("x^2 ; -y", "(x y ; -y"), "missing closing parenthesis"),
    # the three-wave field with only the projective chart U3, where P1 lies on no chart
    "U3-ONLY": ("""params delta gamma
chart U0 : x y z
chart U3 : X3 Y3 Z3 @ Z3
system U0 : x*gamma-2*y^2+y*delta+z ; 2*x*y-x*delta+y*gamma ; -2*x*z-2*z
map U0 U3 : x/z ; y/z ; 1/z | X3/Z3 ; Y3/Z3 ; 1/Z3
""", "unknown point 'P1'; known: ['P4', 'P4_1', 'P4_2']"),
    # a symmetry named like a key of the verify-symmetry report
    "SYMMETRY-CLASH": (TOY_WITH_ATLAS + "symmetry relations : x ; y ; z\n",
                       "symmetry names ['relations'] clash with report keys"),
}


def _python(*args):
    """A fresh Python process with the package under test on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_importing_the_cli_leaves_the_numeric_layer_unloaded():
    # only integrate and monodromy load it, inside the command
    proc = _python("-c", "import sys, threewave.cli; print('threewave.numerics' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"


@pytest.mark.parametrize("argv", [
    ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1.2"],
    ["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "0", "--center", "0.55"],
])
def test_numeric_commands_leave_the_exact_analyses_unloaded(argv):
    # only the symbolic subcommands load the reports, singular and roots
    proc = _python("-c", "import sys; from threewave.cli import run; code = run(sys.argv[1:]); "
                   "print(code, sorted(m for m in ('threewave.reports', 'threewave.singular', "
                   "'threewave.roots') if m in sys.modules), file=sys.stderr)", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == "0 []"


def _readme_examples() -> list[list[str]]:
    """The argument lists of the README's CLI examples."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("threewave ")]


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_examples_load_only_the_analyses_they_read(argv):
    # no example loads dataclasses; the checks (verify-atlas on a polynomial
    # atlas, verify-symmetry, uniqueness), like the numeric commands, leave
    # the singularity analysis unloaded
    proc = _python("-c", "import sys; from threewave.cli import run; code = run(sys.argv[1:]); "
                   "print(code, sorted(m for m in ('dataclasses', 'threewave.singular', "
                   "'threewave.roots') if m in sys.modules), file=sys.stderr)", *argv)
    assert proc.returncode == 0, proc.stderr
    unread = argv[0] in cli.CHECK_COMMANDS + cli.NUMERIC_COMMANDS
    loaded = [] if unread else ["threewave.roots", "threewave.singular"]
    assert proc.stderr.decode().splitlines()[-1] == f"0 {loaded}"


def test_the_readme_shows_every_check_and_both_numeric_commands():
    commands = {argv[0] for argv in _readme_examples()}
    assert set(cli.CHECK_COMMANDS + cli.NUMERIC_COMMANDS) <= commands
    assert sum(argv[0] == "verify-atlas" for argv in _readme_examples()) == 2


def test_the_module_entry_point_prints_the_report_and_exits_with_its_code():
    proc = _python("-m", "threewave.cli", "index", "--system", "three-wave", "--point", "P1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).with_name("golden") / "index-P1.out").read_bytes()
    # a_11 = 0 at P4_1: the alpha test is an analysis failure
    proc = _python("-m", "threewave.cli", "alpha-test", "--system", "three-wave", "--point", "P4_1")
    assert proc.returncode == 1


def test_help_prints_the_usage_and_returns_0(capsys):
    assert run(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ")
    assert "painleve" in captured.out


@pytest.mark.parametrize("argv", [["nosuch"], ["painleve", "--bound", "x"]])
def test_bad_arguments_return_2_without_a_traceback(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["singularities", "--system", "three-wave", "--chart", "U9"],
        ["integrate", "--system", "modified", "--params", "bogus=1",
         "--start=-2;0.1;-3", "--path", "1.2"],
        ["verify-atlas", "--system", "TOY", "--atlas", "projective"],
        ["index", "--system", "TOY", "--point", "P1"],
        ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1.2", "--tol", "0"],
        ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1.2", "--tol", "-1"],
        ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1.2", "--tol", "nan"],
        ["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "0",
         "--center", "0.55", "--tol", "inf"],
        ["painleve", "--system", "three-wave", "--bound", "-1"],
        ["painleve", "--system", "three-wave", "--bound", "0"],
        ["integrate", "--system", "modified", "--params", "alpha5=1e400",
         "--start=-2;0.1;-3", "--path", "1.2"],
        ["integrate", "--system", "modified", "--params", "alpha1=nan",
         "--start=-2;0.1;-3", "--path", "1.2"],
        ["monodromy", "--system", "modified", "--params", "alpha2=inf", "--start=-2;0.1;-3",
         "--t0", "0", "--center", "0.55"],
        ["uniqueness", "--params", "delta=5"],
        ["verify-symmetry", "--system", "modified", "--params", "alpha1=1"],
        ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1.2", "--t0", "nan"],
        ["integrate", "--system", "modified", "--start=nan;0.1;-3", "--path", "1.2"],
        ["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "0.6;inf"],
        ["integrate", "--system", "modified", "--start=-2;0.1;1e400", "--path", "1.2"],
        ["integrate", "--system", "modified", "--start=-2;0.1;x", "--path", "1.2"],
        ["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "0",
         "--center", "nan"],
        ["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "nan+1i",
         "--center", "0.55"],
        ["index", "--system", "three-wave", "--out", "MISSING/report.json"],
        ["obstructions", "--system", "three-wave", "--params", "delta=0,delta=1,gamma=0"],
        ["obstructions", "--system", "three-wave", "--params", "delta"],
        ["obstructions", "--system", "three-wave", "--params", "delta=("],
        ["integrate", "--system", "modified", "--start=-2;0.1", "--path", "0.1"],
        ["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "0", "--center", "0"],
        # U3-ONLY and SYMMETRY-CLASH give their error only in their own row
        ["index", "--system", "U3-ONLY", "--point", "P1"],
        ["verify-symmetry", "--system", "SYMMETRY-CLASH"],
        # last, so that a new ERROR_MODELS row takes a new id and renumbers no
        # other case
        *(["singularities", "--system", name] for name in ERROR_MODELS
          if name not in ("U3-ONLY", "SYMMETRY-CLASH")),
    ],
)
def test_usage_errors_are_one_line(tmp_path, capsys, argv):
    toy = tmp_path / "toy.model"
    toy.write_text(TOY_WITH_ATLAS)
    paths = {"TOY": str(toy), "MISSING/report.json": str(tmp_path / "missing" / "report.json")}
    for name, (text, _) in ERROR_MODELS.items():
        paths[name] = str(tmp_path / f"{name.lower()}.model")
        (tmp_path / f"{name.lower()}.model").write_text(text)
    code = run([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    for name, (_, message) in ERROR_MODELS.items():
        if name in argv:
            assert message in lines[0]


HUGE = "1.5e308+1.5e308i"  # both parts finite, the modulus beyond the largest float


@pytest.mark.parametrize("argv, what", [
    (["integrate", "--system", "modified", "--start=1.5e308+1.5e308j;0;0", "--path", "1"],
     "--start component '1.5e308+1.5e308j'"),
    (["integrate", "--system", "modified", "--start=1;0;0", f"--t0={HUGE}", "--path", "1"],
     f"--t0 {HUGE!r}"),
    (["integrate", "--system", "modified", "--start=1;0;0", f"--path=1;{HUGE}"],
     f"--path waypoint {HUGE!r}"),
    (["monodromy", "--system", "modified", "--start=1;0;0", "--t0=1", f"--center={HUGE}"],
     f"--center {HUGE!r}"),
], ids=["start", "t0", "waypoint", "center"])
def test_a_numeric_input_of_overflowing_modulus_is_a_usage_error(capsys, argv, what):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {what} has a modulus too large for a float"]


# a coefficient of 309 digits: the first step from x = 1.7e308 has finite
# parts and a modulus beyond the largest float
OVERFLOWING_STEP_MODEL = "chart U0 : x y z\nsystem U0 : 1" + "0" * 308 + "*i ; 0 ; 0\n"


@pytest.mark.parametrize("command", [
    ["integrate", "--path", "10"],
    ["monodromy", "--t0", "0", "--center", "1"],
], ids=["integrate", "monodromy"])
def test_a_step_of_overflowing_modulus_is_rejected_without_a_traceback(tmp_path, capsys, command):
    path = tmp_path / "overflow.model"
    path.write_text(OVERFLOWING_STEP_MODEL)
    code = run([command[0], "--system", str(path), "--start=1.7e308;0;0", *command[1:]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: step size collapsed at t = ")


@pytest.mark.parametrize("argv", [
    ["integrate", "--system", "modified", "--params",
     "alpha1=1e200,alpha2=0,alpha3=0,alpha4=0,alpha5=1e200", "--start=-2;0.1;-3", "--path", "1.2"],
    ["integrate", "--system", "{model}", "--start=1;0;0", "--path", "1"],
], ids=["params", "model"])
def test_a_coefficient_too_large_for_a_float_is_a_usage_error(tmp_path, capsys, argv):
    # alpha1 * alpha5 = 1e400 in the field, or a coefficient of 310 digits
    path = tmp_path / "huge.model"
    path.write_text("chart U0 : x y z\nsystem U0 : 1" + "0" * 309 + " ; 0 ; 0\n")
    code = run([arg.format(model=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: chart U0: coefficient ") and line.endswith(" is too large for a float")


def test_a_step_shorter_than_the_least_step_is_named(capsys):
    # every step the series allows is far shorter than 1e-13 of a path of 1e300
    code = run(["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "1e300"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: step size collapsed at t = 0j: the series allows a step of ")
    assert line.endswith(", below the segment's least step 1e+287")


@pytest.mark.parametrize("length", ["5e-15", "5e-14", "2e-13"])
def test_a_path_shorter_than_its_least_step_is_skipped(capsys, length):
    # 5e-14 is longer than 1e-14 * (1 + |t|) and shorter than the least step, 1e-13
    code = run(["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", length])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rep = json.loads(captured.out)
    assert rep["steps_accepted"] == (1 if length == "2e-13" else 0)
    assert rep["end_time"] == str(complex(float(length)))  # a skipped path still ends at its end


@pytest.mark.parametrize("field", ["0 ; 1 ; 0", "1 ; 0 ; 0"], ids=["stationary", "receding"])
def test_integrate_reports_no_fit_where_newton_finds_no_pole(tmp_path, capsys, field):
    path = tmp_path / "reciprocal.model"
    path.write_text(oracles.RECIPROCAL_MODEL.format(field=field))
    code = run(["integrate", "--system", str(path), "--start=20;0;0", "--path", "1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rep = json.loads(captured.out)
    assert rep["end_chart"] == "T" and rep["pole_fit"] is None


@pytest.mark.parametrize(
    "argv, what",
    [
        (["integrate", "--system", "modified", "--start=inf;0;0", "--path", "1.2"],
         "--start component 'inf'"),
        (["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "inf",
          "--center", "0.55"], "--t0 'inf'"),
        (["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "0",
          "--center", "inf+1i"], "--center 'inf+1i'"),
        (["integrate", "--system", "modified", "--params", "alpha2=inf", "--start=-2;0.1;-3",
          "--path", "1.2"], "parameter alpha2 'inf'"),
        (["integrate", "--system", "modified", "--start=-2;0.1;-3", "--path", "0.6;-infinity"],
         "--path waypoint '-infinity'"),
    ],
)
def test_infinite_numbers_are_refused_as_not_finite(capsys, argv, what):
    # an 'i' of 'inf' is not the imaginary unit
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {what} is not a finite number\n"


def test_unwritable_report_dir_is_one_line(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("THREEWAVE_REPORT_DIR", str(blocker))
    code = run(["index", "--system", "three-wave"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the report")


def test_false_symmetry_in_model_file_exits_1_with_residual(tmp_path, capsys):
    path = tmp_path / "random.model"
    text = oracles.random_model_text(random.Random(31))
    path.write_text(text + "symmetry flip : x ; y ; -z\nrelation flip^2\n")
    code, out = _capture(capsys, ["verify-symmetry", "--system", str(path)])
    rep = json.loads(out)
    assert code == 1
    assert rep["system"] == str(path)
    assert not rep["all_invariant"] and not rep["flip"]["invariant"]
    assert rep["flip"]["residual"] != ["0", "0", "0"]
    assert rep["relations"] == {"relations": {"flip^2": True}, "all_hold": True}


def test_symmetry_that_is_no_twisted_involution_exits_1(tmp_path, capsys):
    path = tmp_path / "cyclic.model"
    path.write_text(PROJECTIVE_TOY.format(field="x ; y ; z") + "symmetry rot : y ; z ; x\n")
    code = run(["verify-symmetry", "--system", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: symmetry rot: chart map U0->U0")


def test_uniqueness_on_three_wave_has_no_solution(capsys):
    code, out = _capture(capsys, ["uniqueness", "--system", "three-wave"])
    rep = json.loads(out)
    assert code == 1
    assert (rep["homogeneous_rank"], rep["homogeneous_nullity"]) == (30, 0)
    assert not rep["matches_reference"] and rep["recovered"] is None


def test_uniqueness_on_exported_file_prints_the_builtin_bytes(capsys, exported, tmp_path):
    builtin = _capture(capsys, ["uniqueness", "--system", "modified"])
    assert _capture(capsys, ["uniqueness", "--system", exported["modified"]]) == builtin
    # a parameter named like an ansatz unknown does not clash with it
    path = tmp_path / "renamed.model"
    path.write_text(models.export_model("modified").replace("alpha1", "c1"))
    code, out = _capture(capsys, ["uniqueness", "--system", str(path)])
    assert (code, out) == (0, builtin[1].replace("alpha1", "c1"))


def test_uniqueness_rereads_a_rewritten_model_file(capsys, tmp_path):
    # the rows are memoized per parsed model: a file rewritten between two
    # calls is parsed again and gets its own rows and reference field
    path = tmp_path / "family.model"
    text = models.export_model("modified")
    path.write_text(text)
    code, out = _capture(capsys, ["uniqueness", "--system", str(path)])
    assert code == 0 and json.loads(out)["matches_reference"]
    field = next(line for line in text.splitlines() if line.startswith("system U0 :"))
    path.write_text(text.replace(field, "system U0 : x^2 ; y^2 ; z^2"))
    code, out = _capture(capsys, ["uniqueness", "--system", str(path)])
    rep = json.loads(out)
    assert code == 1
    assert not rep["normalized_consistent"] and rep["recovered"] is None


RESOLVED_TOY = """
chart U0 : x y z
chart T1 : a b c @ a
system U0 : -2*y^2 + z ; 2*x*y ; -2*x*z - 2*z
map U0 T1 : {map}
atlas resolved : T1
"""


@pytest.mark.parametrize(
    "chart_map, message",
    [
        # a pole off the boundary a = 0
        ("1/x ; y ; z/(y-1) | 1/a ; b ; c*(b-1)",
         "error: chart T1: component denominator b-1 is not a power of a"),
        # an affine chart keeps every field polynomial
        ("x + 1 ; y ; z | a - 1 ; b ; c",
         "error: no chart of the resolved atlas constrains the ansatz"),
        # a pole along b = 0 alone
        ("1/x ; 1/y ; z | 1/a ; 1/b ; c",
         "error: chart T1: component denominator b is not a power of a"),
    ],
)
def test_uniqueness_analysis_errors_are_one_line(tmp_path, capsys, chart_map, message):
    path = tmp_path / "toy.model"
    path.write_text(RESOLVED_TOY.format(map=chart_map))
    code = run(["uniqueness", "--system", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [message]


# a field with no pole in x, and one that is not polynomial on U1
FIELD_113 = (
    "(1)*x*z + (-2)*x + (1/2)*y^2 + (2)*z ; (-1/2)*x*z + (-2)*y^2 + (-1/2)*y ;"
    " (-1)*x^2 + (2)*x*y + (2)*x*z + (-1/2)*x + (1)*y*z + (2)*z^2 + (-1/2)*z + (-1)"
)

PROJECTIVE_TOY = """
chart U0 : x y z
chart U1 : X1 Y1 Z1 @ X1
system U0 : {field}
map U0 U1 : 1/x ; y/x ; z/x | 1/X1 ; Y1/X1 ; Z1/X1
"""


def test_painleve_on_a_field_with_a_vanishing_back_substitution(tmp_path, capsys):
    # one (1, 1, 1) branch of this random field pins a value whose denominator
    # a later pin zeroes; the branch is solved again, not the end of the report
    path = tmp_path / "field.model"
    path.write_text(PROJECTIVE_TOY.format(field=FIELD_113))
    code, out = _capture(capsys, ["painleve", "--system", str(path)])
    assert code == 0
    assert all(b["verified"] for b in json.loads(out)["balances"])


def test_singular_chart_map_error_names_the_map(tmp_path, capsys):
    path = tmp_path / "singular-map.model"
    path.write_text(oracles.singular_map_model_text())
    code = run(["verify-atlas", "--system", str(path), "--params", "delta=0,gamma=-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.strip() == (
        "error: chart map U0->T9: inverse component 3 (r/(delta)): "
        "denominator vanishes at the given values"
    )


@pytest.mark.parametrize("argv", [
    ["verify-atlas"],
    ["integrate", "--start", "1;1;1", "--path", "0.5"],
])
def test_a_map_not_invertible_at_the_point_exits_1(tmp_path, capsys, argv):
    # the map stays defined at a = 0 but is singular there: an analysis
    # verdict naming the map, the composite and the component, not a usage error
    path = tmp_path / "composite.model"
    path.write_text(oracles.SINGULAR_COMPOSITE_MODEL)
    code = run([*argv, "--system", str(path), "--params", "a=0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: chart map U0->C1: inverse o forward for y: the denominator of inverse "
        "component 2 (-a/(X-Y)) vanishes on the image of the forward map at the given values\n"
    )
    assert run([*argv, "--system", str(path), "--params", "a=1"]) == 0
    capsys.readouterr()


def test_unknown_point_label_is_a_usage_error(tmp_path, capsys):
    # an unknown label scans nothing, so it is a usage error even on a model
    # whose scan fails (here the boundary of U1 is a curve)
    toy = tmp_path / "toy.model"
    toy.write_text(PROJECTIVE_TOY.format(field="x ; y ; z"))
    code = run(["index", "--system", str(toy), "--point", "P9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == (
        "error: unknown point 'P9'; known: ['P1', 'P2', 'P3', 'P4', 'P4_1', 'P4_2']"
    )


@pytest.mark.parametrize(
    "field, argv, message",
    [
        ("x ; y ; z", ["obstructions"], "no dominant balance with a pole in the first variable"),
        ("x ; y ; z", ["blowup"], "no dominant balance with a pole in the first variable"),
        ("x^2 ; y ; z", ["integrate", "--start=1;1;1", "--path", "0.5"],
         "field is not polynomial on charts ['U1']"),
        ("three-wave", ["alpha-test", "--point", "P4_1"], "the scaling-limit classification"),
        ("three-wave", ["alpha-test", "--point", "P1"], "the scaling-limit classification"),
        ("modified", ["alpha-test", "--point", "P4_1"], "the scaling-limit classification"),
        ("three-wave", ["verify-symmetry"], "model three-wave declares no symmetry"),
        ("x ; y ; z", ["index", "--point", "P4_2"],
         "no dominant balance with a pole in the first variable"),
        ("1/x ; y ; z", ["painleve"], "dominant-balance search expects a polynomial field"),
        ("1/x ; y ; z", ["blowup"], "dominant-balance search expects a polynomial field"),
        ("1/x ; y ; z", ["obstructions"], "dominant-balance search expects a polynomial field"),
        ("1/x ; y ; z", ["uniqueness"], "the model's field is not polynomial in the state variables"),
    ],
)
def test_analysis_verdicts_exit_1(tmp_path, capsys, field, argv, message):
    """``field`` is a toy model file's field, or the name of a built-in system."""
    system = field
    if field not in models.BUILTINS:
        system = tmp_path / "toy.model"
        system.write_text(PROJECTIVE_TOY.format(field=field))
    code = run(argv[:1] + ["--system", str(system)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
    if argv[0] == "integrate":
        # the hint names the command-line switch, not the library argument
        assert lines[0].endswith("; pass --allow-rational to integrate a rational field")


def test_uniqueness_needs_a_boundary_on_every_resolved_chart(tmp_path, capsys):
    toy = tmp_path / "toy.model"
    toy.write_text(TOY_WITH_ATLAS.replace("chart C1 : X Y Z @ X", "chart C1 : X Y Z"))
    code = run(["uniqueness", "--system", str(toy)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.strip() == "error: chart C1 of the resolved atlas has no boundary"


def test_failed_reverification_exits_1_without_traceback(capsys, monkeypatch, tmp_path):
    from threewave import singular

    # a model file, parsed and scanned afresh by the command, so that each
    # point is verified again
    path = tmp_path / "three-wave.model"
    path.write_text(models.export_model("three-wave"))
    monkeypatch.setattr(singular, "vanishes", lambda polys, bindings, table: False)
    code = run(["singularities", "--system", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: candidate point")
    assert "failed exact re-verification" in lines[0]


# a random field of the cli benchmark workload whose quadratic part vanishes on
# the whole line z = 0 at infinity, in the benchmark's projective model file
CURVE_AT_INFINITY_MODEL = """chart U0 : x y z
chart U1 : X1 Y1 Z1 @ X1
chart U2 : X2 Y2 Z2 @ Y2
chart U3 : X3 Y3 Z3 @ Z3
system U0 : (-2)*x*z + (-1/2)*x + (-1)*y + (-1/2)*z^2 + (-1)*z ; (-1/2)*x + (1)*y*z + (-1)*z ; \
(1)*x*z + (-2)*y*z + (1/2)*y + (1)*z^2 + (-1/2)*z
map U0 U1 : 1/x ; y/x ; z/x | 1/X1 ; Y1/X1 ; Z1/X1
map U0 U2 : x/y ; 1/y ; z/y | X2/Y2 ; 1/Y2 ; Z2/Y2
map U0 U3 : x/z ; y/z ; 1/z | X3/Z3 ; Y3/Z3 ; 1/Z3
"""


def test_boundary_curve_is_refused_on_every_call(capsys, monkeypatch, tmp_path):
    # the verdict is right, and a refusal is never memoized: it is solved
    # and raised again on every call
    from threewave import singular
    from threewave.errors import PositiveDimensional

    path = tmp_path / "curve.model"
    path.write_text(CURVE_AT_INFINITY_MODEL)
    code = run(["singularities", "--system", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == ["error: common factor Z1 cuts a curve"]
    solves = []
    real = singular._solve_boundary_pair
    monkeypatch.setattr(singular, "_solve_boundary_pair",
                        lambda *args: solves.append(args) or real(*args))
    messages = []
    for _ in range(2):
        with pytest.raises(PositiveDimensional) as raised:
            reports.singularities_report(str(path))
        messages.append(str(raised.value))
    assert messages == ["common factor Z1 cuts a curve"] * 2
    assert len(solves) == 2
    # nor is it kept by the symbolic-scan memo of one parsed model
    m = models.model(str(path))
    solves.clear()
    for _ in range(2):
        with pytest.raises(PositiveDimensional, match="common factor Z1 cuts a curve"):
            reports.scan_chart(m, None, "U1")
        with pytest.raises(PositiveDimensional, match="common factor Z1 cuts a curve"):
            reports.singularities_report(m)
    assert len(solves) == 4


@pytest.mark.parametrize("command", ["index", "alpha-test"])
def test_missing_label_is_a_usage_error_beside_a_refused_chart(tmp_path, capsys, command):
    # U3 scans and has no point at its origin; U1 and W refuse their scans,
    # which says nothing about P4, so the error is the usage error
    path = tmp_path / "curve.model"
    path.write_text(CURVE_AT_INFINITY_MODEL)
    code = run([command, "--system", str(path), "--point", "P4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: unknown point 'P4'; known: []"]
    assert run(["singularities", "--system", str(path), "--chart", "U3"]) == 0


def test_named_point_scans_one_chart(capsys, monkeypatch, tmp_path):
    # a model file is parsed afresh by the command, so its charts are scanned
    path = tmp_path / "three-wave.model"
    path.write_text(models.export_model("three-wave"))
    calls = []
    real = reports.find_accessible

    def counting(system, v):
        calls.append(v.chart.name)
        return real(system, v)

    monkeypatch.setattr(reports, "find_accessible", counting)
    code, _ = _capture(capsys, ["index", "--system", str(path), "--point", "P1"])
    assert code == 0
    assert calls == ["U1"]


def test_second_parameter_point_pushes_no_scan_chart(capsys, monkeypatch, tmp_path):
    # the field is pushed into U1-U3 and W once per model, with the parameters
    # symbolic; a report at a second point only specializes those pushes
    code, _ = _capture(capsys, ["singularities", "--system", "three-wave", "--params", "delta=1"])
    assert code == 0
    calls = []
    real = models.pushforward

    def counting(v, cmap):
        calls.append(cmap.target.name)
        return real(v, cmap)

    monkeypatch.setattr(models, "pushforward", counting)
    for argv in (
        ["singularities", "--system", "three-wave", "--params", "delta=2"],
        ["index", "--system", "three-wave", "--params", "delta=2", "--point", "P4_2"],
        ["alpha-test", "--system", "three-wave", "--params", "delta=3"],
    ):
        code, _ = _capture(capsys, argv)
        assert code == 0
    assert calls == []
    # a model file is parsed afresh by each command, so its charts are pushed once
    path = tmp_path / "three-wave.model"
    path.write_text(models.export_model("three-wave"))
    code, _ = _capture(capsys, ["singularities", "--system", str(path), "--params", "delta=2"])
    assert code == 0
    assert calls == ["U1", "U2", "U3", "W"]


# the projective charts and maps of the cli workload's seeded model files
WORKLOAD_MODEL = """params a
chart U0 : x y z
chart U1 : X1 Y1 Z1 @ X1
chart U2 : X2 Y2 Z2 @ Y2
chart U3 : X3 Y3 Z3 @ Z3
system U0 : {field}
map U0 U1 : 1/x ; y/x ; z/x | 1/X1 ; Y1/X1 ; Z1/X1
map U0 U2 : x/y ; 1/y ; z/y | X2/Y2 ; 1/Y2 ; Z2/Y2
map U0 U3 : x/z ; y/z ; 1/z | X3/Z3 ; Y3/Z3 ; 1/Z3
"""

# its symbolic pipeline fails, but a point resolves
UNSPLIT_FIELD = ("(-2)*x^2 + (-1)*x*z + (2)*y^2 + (2)*z ; (1)*x*y + (1/2)*x*z + (1)*x + "
                 "(1/2)*y^2 + (-1)*y*z + (-2)*y ; (-2)*x*y + (-2)*x*z + (-1)*y + (1)*z^2 + "
                 "(-1)*z + a*x*y")


@pytest.mark.parametrize(
    "field, message",
    [
        (UNSPLIT_FIELD,
         "characteristic polynomial does not split: residual eigvar^2-1/2*a+eigvar-1"),
        ("(1/2)*x^2 + (-2)*x*y + (2)*x*z + (2)*z^2 + (-1) ; (-2)*x*y + (1)*y^2 + "
         "(-1/2)*y*z + (1)*y + (-2)*z^2 + (-1/2)*z ; (-1)*x*z + (-1)*x + (1)*y*z + (-1)*z^2",
         "expected a unique accessible point on the exceptional divisor, got []"),
        ("(1)*x*z + (1) ; (-1/2)*y^2 + (-1/2)*z + (2) ; (-1/2)*x + (-2)*y^2 + (-1)",
         "no accessible point with nonzero leading index on the weighted chart"),
    ],
)
def test_pipeline_refusals_on_model_files(tmp_path, capsys, field, message):
    path = tmp_path / "field.model"
    path.write_text(WORKLOAD_MODEL.format(field=field))
    code = run(["blowup", "--system", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_points_resolve_where_the_symbolic_pipeline_fails(tmp_path, capsys, monkeypatch):
    from fractions import Fraction

    from threewave import singular

    path = tmp_path / "unsplit.model"
    path.write_text(WORKLOAD_MODEL.format(field=UNSPLIT_FIELD))
    for a in ("2", "10", "-5/2"):
        code, out = _capture(capsys, ["blowup", "--system", str(path), "--params", f"a={a}"])
        assert code == 0
        assert json.loads(out)["chart_lineage"] == ["W", "W.b1XW"]
    # the failed symbolic run is kept as such: one parsed model attempts it once
    m = models.model(str(path))
    symbolic = models.chart_field(m, models.weighted_chart(m)[1])
    attempts = []
    real = singular._resolve

    def resolve(m, vw, *args):
        attempts.append(vw == symbolic)
        return real(m, vw, *args)

    monkeypatch.setattr(singular, "_resolve", resolve)
    assert reports.pipeline_report(m, [2])["chart_lineage"] == ["W", "W.b1XW"]
    assert reports.pipeline_report(m, [Fraction(-5, 2)])["chart_lineage"] == ["W", "W.b1XW"]
    assert attempts.count(True) == 1 and len(attempts) == 3


RESIDUAL_FIELD = ("(1)*x*z + (-1)*y^2 + (1)*z ; (2)*x^2 + (-2)*x*z + (1/2)*y^2 + (-1)*y + "
                  "(-2)*z ; (1)*x^2 + (1)*x*y + (1/2)*x + (-1)*y*z + (-2)*z + (-2)")
RESIDUALS = {"U1": "Z1^3-12*Z1^2+17*Z1-2", "U2": "Z2^3-3/4*Z2^2-45/8*Z2-1/2",
             "U3": "Y3^3+45/4*Y3^2+3/2*Y3-2"}


def test_singularities_reports_residual_branches(tmp_path, capsys):
    path = tmp_path / "residual.model"
    path.write_text(WORKLOAD_MODEL.format(field=RESIDUAL_FIELD))
    code, out = _capture(capsys, ["singularities", "--system", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert {name: chart["residual_branches"] for name, chart in rep["charts"].items()} == {
        name: [f"eliminant residual in {eliminant.split('^')[0]}: {eliminant}"]
        for name, eliminant in RESIDUALS.items()
    }
    assert [len(rep["charts"][name]["points"]) for name in ("U1", "U2", "U3")] == [2, 1, 3]
    assert rep["distinct_boundary_points"] == 3


def test_residual_eliminants_are_irreducible():
    # a residual is reported only where no root is found: each cubic is
    # irreducible over the Gaussian rationals
    sympy = pytest.importorskip("sympy")
    for eliminant in RESIDUALS.values():
        _, factors = sympy.factor_list(sympy.sympify(eliminant.replace("^", "**")),
                                       gaussian=True)
        assert [(sympy.degree(f), k) for f, k in factors] == [(3, 1)], eliminant


@pytest.mark.parametrize(
    "argv, target",
    [
        (["index", "--system", "three-wave", "--point", "P1"], (reports, "index_report")),
        (["monodromy", "--system", "modified", "--start=-2;0.1;-3", "--t0", "0",
          "--center", "0.55"], (numerics, "monodromy_check")),
    ],
)
def test_csv_is_refused_before_any_work(capsys, monkeypatch, argv, target):
    def refuse(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(*target, refuse)
    monkeypatch.setattr(models, "model", refuse)
    code = run(argv + ["--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: csv output is only available for 'integrate'"]


def test_text_format_of_a_nested_report(capsys):
    # one indent level per depth, "- value" per scalar item, "-" after each dict item
    code, out = _capture(capsys, ["singularities", "--system", "three-wave", "--chart", "U1",
                                  "--format", "text"])
    assert code == 0
    point = ("      boundary: X1\n      chart: U1\n      coords:\n        - 0\n"
             "        - {}\n        - 0\n      multiplicity: 1\n      -\n")
    census = ("  multiplicity: 1\n  projective: [0 : 1 : {} : 0]\n  seen_in:\n"
              "    - U1\n  -\n")
    assert out == (
        "charts:\n  U1:\n    points:\n"
        + "".join(point.format(y) for y in ("-i", "0", "i"))
        + "    residual_branches:\n"
        + "count_with_multiplicity: 3\ndistinct_boundary_points: 3\nprojective_census:\n"
        + "".join(census.format(y) for y in ("-i", "0", "i"))
        + "system: three-wave\n"
    )
