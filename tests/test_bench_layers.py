"""The benchmark traces package functions by name; every name it looks up
must resolve to exactly one object in the loaded package."""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_bench_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("adtorsion")
    importlib.import_module("adtorsion.cli")
    tracing = importlib.import_module("tracing")
    paths = [path for _, path in tracing.LAYERS] + ["alexander_at_minus_one"]
    for path in paths:
        _, obj = tracing.find_object(path)
        assert callable(obj), path
