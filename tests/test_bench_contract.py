"""The benchmark's layer tracer wraps functions of ``threewave`` by name, and
its workloads call them by name, so renaming or deleting one of them must
fail here, not only in a benchmark run."""

import re
import types
from pathlib import Path

import oracles
from threewave import poly, reports, singular

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_on_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    originals = (poly.poly_gcd, singular.find_accessible)
    tr = tracer.new_tracer()
    try:
        tr.install()
        assert set(tr.stats) == {spec[0] for spec in tracer.SPECS}
        assert singular.find_accessible is not originals[1]
    finally:
        tr.uninstall()
    assert (poly.poly_gcd, singular.find_accessible) == originals


def test_first_op_of_each_kind_passes_its_oracle():
    # the workloads call the package by name (models.three_wave_system,
    # NumericAtlas(v, maps, params), integrate(..., atlas=), the reports), so
    # a deleted or renamed name fails here, not only in a benchmark run; an
    # op's kind is its name and the model its label starts with
    workloads = oracles.bench_workloads()
    env = types.SimpleNamespace(cont_err_max=0.0)
    ran = set()
    for name in ("resolve", "verify", "continuation"):
        for op in next(workloads.WORKLOADS[name](101, env)):
            kind = (name, op.name, re.match(r"[a-z-]*", op.label).group())
            if kind not in ran:
                ran.add(kind)
                assert op.check(op.run()) is None, kind
    assert ("continuation", "NumericAtlas.compile", "three-wave") in ran


def test_a_traced_cold_classification_counts_its_rows_once(monkeypatch):
    # the classification reads its rows through uniqueness.build_constraints,
    # so that layer counts each cold build, and a kept classification none
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    m = oracles.fresh_model("modified")
    tr = tracer.new_tracer()
    try:
        tr.install()
        for _ in range(2):
            reports.uniqueness_report(m)
    finally:
        tr.uninstall()
    stats = tr.snapshot()
    assert stats["uniqueness.build_constraints"]["calls"] == 1
    assert stats["uniqueness.solve_ansatz"]["calls"] == 1
