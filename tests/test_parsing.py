import pytest

from threewave.parsing import ExprError, parse_expr, parse_model, render_model
from threewave.ratfunc import RationalFn
from threewave.symbols import table

T = table("x", "y", "z", "delta:parameter", "gamma:parameter")


@pytest.mark.parametrize(
    "text",
    [
        "x",
        "-2*y^2 + gamma*x + delta*y + z",
        "1/x",
        "(x + y)^3 / (z - 1)",
        "i*x - 1/2",
        "-(y - i*x)*x",
        "x^-2",
        "3/4",
    ],
)
def test_round_trip_through_canonical_text(text):
    value = parse_expr(text, T)
    again = parse_expr(value.text(), T)
    assert again == value


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_expr("x +", T)
    with pytest.raises(ExprError):
        parse_expr("unknown_sym", T)
    with pytest.raises(ExprError):
        parse_expr("x ^ y", T)
    with pytest.raises(ExprError):
        parse_expr("(x", T)


def test_imaginary_unit_squares_to_minus_one():
    assert parse_expr("i*i", T) == RationalFn.const(T, -1)


def test_model_file_round_trip():
    src = """
# a tiny quadratic model
params mu
chart C0 : x y z
chart C1 : X Y Z @ X
system C0 : x^2 + mu*y ; -y ; z*x
map C0 C1 : 1/x ; y ; z | 1/X ; Y ; Z
"""
    model = parse_model(src)
    assert set(model.charts) == {"C0", "C1"}
    assert model.charts["C1"].boundary.name == "X"
    assert "C0" in model.fields
    assert len(model.maps) == 1
    rendered = render_model(model)
    model2 = parse_model(rendered)
    assert model2.fields["C0"].components == tuple(
        c.retable(model2.table) for c in model.fields["C0"].components
    )
    assert len(model2.maps) == 1


def test_model_rejects_non_invertible_map():
    src = """
chart C0 : x y z
chart C1 : X Y Z
map C0 C1 : x^2 ; y ; z | X ; Y ; Z
"""
    with pytest.raises(ValueError):
        parse_model(src)


def test_atlas_directive():
    src = """
chart C0 : x y z
chart C1 : X Y Z @ X
chart C2 : P Q R @ P
system C0 : x^2 ; -y ; z
map C0 C1 : 1/x ; y ; z | 1/X ; Y ; Z
map C0 C2 : 1/x ; y*x ; z | 1/P ; Q*P ; R
"""
    # no atlas line: every map out of the base chart, under any name
    assert [m.target.name for m in parse_model(src).atlas("resolved")] == ["C0", "C1", "C2"]
    declared = parse_model(src + "atlas resolved : C2\n")
    assert [m.target.name for m in declared.atlas("resolved")] == ["C0", "C2"]
    with pytest.raises(KeyError):
        declared.atlas("projective")
    with pytest.raises(ExprError):
        parse_model(src + "atlas resolved : C3\n")


def test_builtin_models_parse_and_verify():
    from threewave import models

    m1 = models.model("three-wave")
    m2 = models.model("modified")
    assert set(m1.fields) == {"U0"} and set(m2.fields) == {"U0"}
    assert len(m1.maps) == 6 and len(m2.maps) == 6


SYMMETRY_SRC = """
params mu nu
chart C0 : x y z
system C0 : x^2 + mu*y ; -y ; z*x + nu
symmetry flip : x ; -y ; z | mu -> -mu
relation flip^2
relation (flip*swap)^2*flip
symmetry swap : y ; x ; z
"""


def test_symmetry_and_relation_directives():
    model = parse_model(SYMMETRY_SRC)
    flip = model.symmetries["flip"]
    assert flip.chart == model.base
    assert flip.state[1] == parse_expr("-y", model.table)
    # the parameter map is completed with the identity
    assert [(p.name, e.text()) for p, e in flip.param_map.items()] == [("mu", "-mu"), ("nu", "nu")]
    assert model.relations == {
        "flip^2": ("flip", "flip"),
        "(flip*swap)^2*flip": ("flip", "swap", "flip", "swap", "flip"),
    }
    again = parse_model(render_model(model))
    assert render_model(again) == render_model(model)
    assert again.relations == model.relations


@pytest.mark.parametrize(
    "line",
    [
        "relation flip*rot",  # not a declared symmetry
        "relation (flip*swap",
        "relation flip^0",
        "relation flip^",
        "relation flip swap",
        "symmetry flip : x ; y ; z",  # declared twice
        "symmetry bad : x ; y ; z | mu -> y",  # a parameter mapped to a state
        "symmetry bad : x ; y ; z | mu -> 1, mu -> 2",
        "symmetry bad : x ; y ; z | x -> 1",
        "symmetry bad : x ; y",
        "chart C1 : X Y Z\nsymmetry bad : X ; y ; z",  # not in the base chart's variables
    ],
)
def test_symmetry_and_relation_errors(line):
    with pytest.raises(ExprError):
        parse_model(SYMMETRY_SRC + line + "\n")
