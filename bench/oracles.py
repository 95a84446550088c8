"""Expected results for the benchmark, computed without the package under test.

Every check here uses only ``fractions`` and plain tuples: the paper's
condition predicate, the acceptance tables, exact evaluation of the
quadratic fields the benchmark generates itself, and numeric tolerances.
Each oracle returns ``None`` when the output is right and a one-line reason
when it is wrong, so the self-check can feed them deliberately wrong
expectations and see them fail.
"""

from __future__ import annotations

import json
from fractions import Fraction

# -- Gaussian rationals as (re, im) pairs of Fractions ---------------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_pow(a, n):
    out = ONE
    for _ in range(n):
        out = g_mul(out, a)
    return out


def parse_gaussian(text: str):
    """Canonical constant text ('3', '-1/2', 'i', '-2*i', '1-1/2*i') to a pair;
    None when the text is not a constant (a symbol such as 'lead3')."""
    text = text.strip()
    try:
        if "i" not in text:
            return (Fraction(text), Fraction(0))
        cut = max(text.rfind("+"), text.rfind("-"))
        re_text, im_text = (text[:cut], text[cut:]) if cut > 0 else ("0", text)
        im_text = im_text.replace("*i", "").replace("i", "1").replace("+", "")
        return (Fraction(re_text), Fraction(im_text))
    except ValueError:
        return None


def rational_text(q: Fraction) -> str:
    return str(Fraction(q))


# -- the paper's predicate for the two-parameter system --------------------------------

THREE_WAVE_OBSTRUCTIONS = ["delta*gamma", "gamma^2+gamma"]
# the five-parameter family resolves, and its resolved atlas is polynomial,
# for every parameter value
MODIFIED_RESOLVED = True
THREE_WAVE_BRANCHES = ["{delta = 0, gamma = -1}", "{gamma = 0}"]


def three_wave_resolvable(delta, gamma) -> bool:
    """delta*gamma = 0 and gamma*(gamma+1) = 0, evaluated exactly."""
    d, g = Fraction(delta), Fraction(gamma)
    return d * g == 0 and g * (g + 1) == 0


def three_wave_locus(delta, gamma):
    """(resolvable identically in the free parameters, solution branches) for
    a point with ``None`` marking a free parameter; branch texts follow the
    report's '{name = value}' form, sorted."""
    if delta is None and gamma is None:
        return False, THREE_WAVE_BRANCHES
    if delta is None:
        g = Fraction(gamma)
        if g == 0:
            return True, ["{all parameters free}"]
        if g == -1:
            return False, ["{delta = 0}"]
        return False, []
    if gamma is None:
        d = Fraction(delta)
        # d*gamma = 0 and gamma*(gamma+1) = 0 in gamma
        roots = [g for g in (Fraction(0), Fraction(-1)) if d * g == 0]
        return False, sorted(f"{{gamma = {rational_text(g)}}}" for g in roots)
    if three_wave_resolvable(delta, gamma):
        return True, ["{all parameters free}"]
    return False, []


# -- tables from the acceptance criteria ----------------------------------------------

LOCAL_INDEX = {
    "P1": ["0", "2", "-2"],
    "P2": ["-2", "-4", "-4"],
    "P3": ["-2", "-4", "-4"],
    "P4_1": ["0", "2", "-2"],
    "P4_2": ["1", "2", "2"],
}

# Boundary points at infinity [w : x : y : z] of the shared quadratic part
# (-2y^2, 2xy, -2xz) with their multiplicities; 7 = 2^2 + 2 + 1 in total.
QUADRATIC_PART = {
    0: {(0, 2, 0): (Fraction(-2), Fraction(0))},
    1: {(1, 1, 0): (Fraction(2), Fraction(0))},
    2: {(1, 0, 1): (Fraction(-2), Fraction(0))},
}
PROJECTIVE_CENSUS = {
    "[0 : 0 : 0 : 1]": 4,
    "[0 : 1 : -i : 0]": 1,
    "[0 : 1 : 0 : 0]": 1,
    "[0 : 1 : i : 0]": 1,
}


def census_key_points():
    """The census keys as direction vectors (x, y, z)."""
    out = {}
    for key in PROJECTIVE_CENSUS:
        parts = [parse_gaussian(p) for p in key.strip("[]").split(":")]
        out[key] = tuple(parts[1:])
    return out


# -- exact evaluation of quadratic fields given as {k: {(a, b, c): coeff}} -------------


def eval_poly(terms, point):
    acc = ZERO
    for (a, b, c), coeff in terms.items():
        t = coeff
        for base, e in zip(point, (a, b, c)):
            if e:
                t = g_mul(t, g_pow(base, e))
        acc = g_add(acc, t)
    return acc


def homogeneous_part(field, degree):
    return {
        k: {e: c for e, c in terms.items() if sum(e) == degree} for k, terms in field.items()
    }


def is_fixed_direction(quad, p) -> bool:
    """Q(p) is parallel to p: every 2x2 minor of (Q(p), p) vanishes."""
    q = [eval_poly(quad[k], p) for k in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = g_mul(q[i], p[j])
            rhs = g_mul(q[j], p[i])
            if lhs != rhs:
                return False
    return True


def _shift(terms, k):
    out = {}
    for e, c in terms.items():
        e2 = list(e)
        e2[k] += 1
        out[tuple(e2)] = c
    return out


def _sub(p, q):
    out = dict(p)
    for e, c in q.items():
        s = g_add(out.get(e, ZERO), (-c[0], -c[1]))
        if s == ZERO:
            out.pop(e, None)
        else:
            out[e] = s
    return {e: c for e, c in out.items() if c != ZERO}


def reciprocal_chart_polynomial(field, b) -> bool:
    """Is the field polynomial on the reciprocal chart with boundary slot b?

    The transverse components carry a simple pole along the boundary unless
    Q_k(p) - p_k Q_b(p) vanishes identically for both k != b (Q the
    quadratic part); the boundary component itself is always polynomial.
    """
    quad = homogeneous_part(field, 2)
    for k in range(3):
        if k == b:
            continue
        # compare as cubic forms in (x, y, z); dehomogenising at p_b = 1 is injective
        if _sub(_shift(quad[k], b), _shift(quad[b], k)):
            return False
    return True


def balance_residual(field, exponents, coeffs):
    """None when x_k = c_k t^(-e_k) is a dominant balance of the field, else
    a reason. Balances with a free (non-constant) coefficient are skipped."""
    if any(c is None for c in coeffs):
        return None
    for k in range(3):
        orders: dict[int, tuple] = {}
        for (a, b, c), coeff in field[k].items():
            order = a * exponents[0] + b * exponents[1] + c * exponents[2]
            val = coeff
            for base, e in zip(coeffs, (a, b, c)):
                if e:
                    val = g_mul(val, g_pow(base, e))
            orders[order] = g_add(orders.get(order, ZERO), val)
        lead = exponents[k] + 1
        want = g_mul((Fraction(-exponents[k]), Fraction(0)), coeffs[k])
        for order, val in orders.items():
            if order > lead and val != ZERO:
                return f"component {k + 1}: order {order} terms do not cancel"
        if orders.get(lead, ZERO) != want:
            return f"component {k + 1}: leading terms do not balance"
    return None


# -- the oracles ------------------------------------------------------------------------


def check_pipeline(kind, params, rep):
    if kind == "three-wave":
        ok, branches = three_wave_locus(*(params or (None, None)))
        if rep["resolvable_without_conditions"] != ok:
            return f"resolvable {rep['resolvable_without_conditions']} but the predicate gives {ok}"
        if sorted(rep["solution_branches"]) != sorted(branches):
            return f"branches {rep['solution_branches']} != {branches}"
        if params is None:
            if rep["obstructions"] != THREE_WAVE_OBSTRUCTIONS:
                return f"obstructions {rep['obstructions']} != {THREE_WAVE_OBSTRUCTIONS}"
        return None
    if rep["resolvable_without_conditions"] != MODIFIED_RESOLVED or (MODIFIED_RESOLVED and rep["obstructions"]):
        return f"modified family resolvable {rep['resolvable_without_conditions']}: {rep['obstructions']}"
    return None


def check_census(rep):
    got = {e["projective"]: e["multiplicity"] for e in rep["projective_census"]}
    if got != PROJECTIVE_CENSUS:
        return f"projective census {got} != {PROJECTIVE_CENSUS}"
    if rep["count_with_multiplicity"] != sum(PROJECTIVE_CENSUS.values()):
        return f"count with multiplicity {rep['count_with_multiplicity']}"
    return None


def check_singularities(kind, params, rep):
    bad = check_census(rep)
    if bad or kind != "three-wave":
        return bad
    delta = params[0] if params else None
    half = "1/2*delta" if delta is None else rational_text(Fraction(delta) / 2)
    want = sorted([["0", half, "0"], ["0", half, "-1"]])
    got = sorted(p["coords"] for p in rep["charts"]["W"]["points"])
    if got != want:
        return f"weighted-chart points {got} != {want}"
    return None


def check_atlas(kind, params, rep):
    """Verdict on the resolved atlas."""
    if not rep["all_unit_jacobian"]:
        return "a resolved-atlas Jacobian determinant is not 1"
    if kind == "modified":
        return None if rep["all_polynomial"] == MODIFIED_RESOLVED else "modified atlas verdict"
    ok, _ = three_wave_locus(*(params or (None, None)))
    if rep["all_polynomial"] != ok:
        return f"all_polynomial {rep['all_polynomial']} but the predicate gives {ok}"
    if params is None:
        conds = [c["obstruction_conditions"] for c in rep["charts"] if not c["polynomial"]]
        if conds != [THREE_WAVE_OBSTRUCTIONS]:
            return f"obstruction conditions {conds}"
    return None


def check_index(point, rep):
    want = LOCAL_INDEX[point]
    return None if rep["eigenvalues"] == want else f"{point} eigenvalues {rep['eigenvalues']} != {want}"


def check_alpha(rep):
    want = LOCAL_INDEX["P4_2"]
    diag = [rep["matrix"][k][k] for k in range(3)]
    if rep["ratios"] != want or diag != want or not rep["triangular"]:
        return f"alpha matrix diagonal {diag}, ratios {rep['ratios']} != {want}"
    return None


PAINLEVE_EXPONENTS = [1, 0, 2]
UNIQUENESS = {
    "matches_reference": True,
    "normalized_consistent": True,
    "normalized_nullity": 0,
    "homogeneous_nullity": 1,
}
ZERO_RESIDUAL = ["0", "0", "0"]
GROUP_RELATIONS = {"s^2": True, "pi^2": True, "(s*pi)^2": True}


def check_painleve(rep):
    if not all(b["verified"] for b in rep["balances"]):
        return "a reported balance is not verified"
    if not any(b["exponents"] == PAINLEVE_EXPONENTS for b in rep["balances"]):
        return f"no balance with pole orders {PAINLEVE_EXPONENTS}"
    return None


def check_uniqueness(rep):
    got = {k: rep[k] for k in UNIQUENESS}
    return None if got == UNIQUENESS else f"uniqueness {got} != {UNIQUENESS}"


def check_symmetry(rep):
    for name in ("pi", "s"):
        if rep[name]["residual"] != ZERO_RESIDUAL:
            return f"{name} residual {rep[name]['residual']}"
    if rep["relations"]["relations"] != GROUP_RELATIONS:
        return f"group relations {rep['relations']['relations']}"
    return None


CONTINUATION_TOL = 1e-9
FITTED_EXPONENTS = (1, 0, 2)


def check_agreement(rel):
    return None if rel <= CONTINUATION_TOL else f"direct and detour ends differ by {rel:.3g}"


def check_monodromy(deviation):
    return None if deviation <= CONTINUATION_TOL else f"monodromy deviation {deviation:.3g}"


def check_fit(kind, exponents):
    if kind == "three-wave" and tuple(exponents) != FITTED_EXPONENTS:
        return f"fitted exponents {tuple(exponents)} != {FITTED_EXPONENTS}"
    return None


# -- CLI outputs -------------------------------------------------------------------------


def check_process(code, want_code, stderr):
    """Crashes and wrong exit codes are failures of their own kind, not wrong
    verdicts: (kind, reason), or None."""
    if "Traceback" in stderr:
        return ("Traceback", stderr.strip().splitlines()[-1][:200])
    if code != want_code:
        return (f"ExitCode{code}", f"exit code {code} != {want_code}: {stderr.strip()[:200]}")
    return None


def parse_json(stdout):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def check_file_singularities(field, rep):
    """Every reported point lies on the boundary and is a fixed direction of
    the quadratic part: Q_k(p) = p_k Q_b(p) with p_b = 1."""
    quad = homogeneous_part(field, 2)
    for chart, slot in (("U1", 0), ("U2", 1), ("U3", 2)):
        for point in rep["charts"].get(chart, {}).get("points", []):
            coords = [parse_gaussian(c) for c in point["coords"]]
            if any(c is None for c in coords) or coords[slot] != ZERO:
                return f"{chart} point {point['coords']} is not an exact boundary point"
            p = list(coords)
            p[slot] = ONE
            if not is_fixed_direction(quad, tuple(p)):
                return f"{chart} point {point['coords']} is not singular"
    return None


def check_file_painleve(field, rep):
    for b in rep["balances"]:
        coeffs = [parse_gaussian(c) for c in b["coefficients"]]
        bad = balance_residual(field, b["exponents"], coeffs)
        if bad:
            return f"balance {b['exponents']}: {bad}"
    return None


def file_atlas_polynomial(field) -> bool:
    return all(reciprocal_chart_polynomial(field, b) for b in range(3))


def check_file_atlas(field, rep):
    want = file_atlas_polynomial(field)
    return None if rep["all_polynomial"] == want else f"all_polynomial {rep['all_polynomial']} != {want}"
