"""The benchmark traces package functions by name; every name it looks up
must resolve to exactly one object in the loaded package, and every layer a
workload expects must record calls, or a traced run exits 2."""

import cmath
import contextlib
import importlib
import io
import math
import pathlib

import pytest

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


def _sweep(api, cli):
    argv = ["sweep", "--knot", "5_2", "--theta-lo", "0.8", "--theta-hi", "5.4", "--samples", "5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _critical(api, cli):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["critical", "--knot", "5_2", "--samples", "9"]) == 0


def _point(api, cli):
    p = api.knot("5_2")
    theta = math.pi
    u = api.su2_solutions(api.riley_polynomial(p.bridge_word), theta).roots[0]
    rep = api.build_rep(p, cmath.exp(1j * theta), u, sqrt_s=cmath.exp(0.5j * theta))
    api.compute_torsion(rep)


@pytest.mark.parametrize(
    "workload, run",
    [("sweep-5_2", _sweep), ("critical-family", _critical), ("points-family", _point)],
)
def test_workload_layers_record_calls(monkeypatch, workload, run):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    api = importlib.import_module("adtorsion")
    cli = importlib.import_module("adtorsion.cli")
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    with tracing.Tracer() as tracer:
        run(api, cli)
    stats, _ = tracer.layer_stats()
    silent = [layer for layer in workloads.WORKLOADS[workload].layers if not stats[layer]["calls"]]
    assert not silent


def test_points_layer_records_memoized_calls(monkeypatch):
    # the second request finds its theta memoized and still goes through the
    # traced su2_solutions, so a replay of memoized points keeps the layer
    # recording
    monkeypatch.syspath_prepend(str(PERFBENCH))
    api = importlib.import_module("adtorsion")
    cli = importlib.import_module("adtorsion.cli")
    tracing = importlib.import_module("tracing")
    with tracing.Tracer() as tracer:
        _point(api, cli)
        _point(api, cli)
    stats, _ = tracer.layer_stats()
    assert stats["reps.su2_solutions"]["calls"] == 2
