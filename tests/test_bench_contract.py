"""The benchmark's layer tracer wraps functions of ``threewave`` by name, so
renaming or deleting one of them must fail here, not only in a benchmark run."""

from pathlib import Path

from threewave import poly, singular

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
