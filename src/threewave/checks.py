"""JSON-ready reports of the checks that need no singularity analysis: the
holomorphy of an atlas, the invariance of the symmetries, and the uniqueness
of the field on its resolved atlas.

They load neither :mod:`threewave.singular` nor :mod:`threewave.roots` (an
atlas that is not polynomial reads its obstructions from ``singular``, which
``models.verify_atlas_holomorphy`` imports then), so the CLI's
``verify-atlas``, ``verify-symmetry`` and ``uniqueness`` start without them.
:mod:`threewave.reports` re-exports the three builders.
"""

from __future__ import annotations

from . import models
from .errors import AnalysisFailed


def atlas_report(system, params=None, atlas_name: str = "resolved") -> dict:
    m = models.model(system)
    # every map is specialized with its certificate, whose identity x*D = N
    # holds at the point: a map singular there, where some D vanishes, fails here
    models.atlas(m, atlas_name, params)
    maps = m.atlas(atlas_name)
    verdicts = models.verify_atlas_holomorphy([models.chart_field(m, cm, params) for cm in maps])
    bindings = models.bind_parameters(m, params)
    jacobians = [
        {"chart": cm.target.name,
         "jacobian_determinant": models.chart_jacobian(m, cm).specialize(bindings).text()}
        for cm in maps
    ]
    return {
        "system": m.name,
        "atlas": atlas_name,
        "charts": verdicts,
        "jacobians": jacobians,
        "all_polynomial": all(d["polynomial"] for d in verdicts),
        "all_unit_jacobian": all(j["jacobian_determinant"] == "1" for j in jacobians),
    }


def symmetry_report(system="modified") -> dict:
    """Invariance residuals of every symmetry the model declares, and the
    verdict on every relation it declares."""
    m = models.model(system)
    if not m.symmetries:
        raise AnalysisFailed(f"model {m.name} declares no symmetry")
    clash = {"system", "relations", "all_invariant"} & set(m.symmetries)
    if clash:
        raise ValueError(f"symmetry names {sorted(clash)} clash with report keys")
    v = models.system_field(m)
    out: dict = {"system": m.name}
    for name, sigma in m.symmetries.items():
        out[name] = models.verify_symmetry(v, sigma)
    out["relations"] = models.verify_group_relations(m)
    out["all_invariant"] = all(out[name]["invariant"] for name in m.symmetries)
    return out


def uniqueness_report(system="modified") -> dict:
    from .uniqueness import classify

    rep = classify(system)
    return {
        "constraints": rep.constraints,
        "homogeneous_rank": rep.homogeneous_rank,
        "homogeneous_nullity": rep.homogeneous_nullity,
        "normalized_consistent": rep.normalized_consistent,
        "normalized_nullity": rep.normalized_nullity,
        "matches_reference": rep.matches_reference,
        "quadratic_part_nonzero": rep.quadratic_part_nonzero,
        "recovered": [c.text() for c in rep.recovered.components] if rep.recovered else None,
        "diff_against_reference": [c.text() for c in rep.difference] if rep.difference else None,
    }
