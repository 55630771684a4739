"""Benchmark of the adtorsion package: three closed-loop workloads measured
end to end, and a traced replay that times the package layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-5_2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Workloads (see workloads.py):

* ``sweep-5_2``: ``adtorsion sweep --knot 5_2`` over the whole SU(2) window;
  exercises the per-point torsion pipeline, where one shared torsion
  polynomial per representation and theta-batched determinants would show.
* ``critical-family``: ``adtorsion critical`` on every b(p, q), odd p <= 15;
  Riley polynomial, root finding and the limit route, never
  ``compute_torsion``, so it bypasses changes to that function.
* ``points-family``: single-point torsion requests on b(p, q) knots up to
  p = 41, where long relators make the Riley polynomial and Fox assembly
  dominate and root conditioning rejects points; no theta-batching applies.

With ``--trace 0`` the run does the operations a run of ``--seconds`` does
on the baseline machine (whole passes, at least one; critical-family's
pass takes about 40 s), a count that does not depend on the host's speed,
and reports the end-to-end metrics: ``setup_s``, the median of five set-ups (import, building and
oracle-checking the knots, finding theta windows) in nominal seconds, the
set-up's cost times a fixed nominal reference-loop time; ``ok_share``, one minus
the failed share; ``ok_per_kref``, ``p50_ref`` and ``p90_ref``, throughput
and latency quantiles in cost units; and ``dihedral_recall``.  A cost is an
operation's wall time over the mean time of a fixed pure-Python reference
loop sampled before, after and during it (unit ``ref``; ``kref`` is 1000
loops), which cancels most of the host's speed drift (see refclock.py).  The same figures in wall time are
printed under their ROADMAP names (fail_share, sweep_points_per_s,
critical_p50_s, point_ms, point_p90_ms).  With ``--trace 1`` it does the
operations of half that time untraced, then
replays the same inputs with spans around each layer, and reports the
per-layer metrics and the tracing overhead (traced minus untraced wall
time).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
``detail {...}``, holds the environment, the failure reasons and the
metrics under their ROADMAP names.

Exit codes: 0 when every output check passed, 1 when an output check found
a wrong result or ``adtorsion verify`` failed, 2 when the benchmark cannot
run (no package source beside it, a generated knot failing an exact oracle,
an expected layer recording no calls).
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread before numpy loads: the program runs single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, LayerLookupError, Tracer  # noqa: E402
from family import OracleError  # noqa: E402
from refclock import around, clock, sampling  # noqa: E402
from workloads import WORKLOADS, Outcome, WrongResult, run_cli  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKDIR = BENCH_DIR / ".work"

#: set-ups timed per run; setup_s is their median
SETUPS = 5

#: nominal time of the reference loop, its median on the 2-vCPU virtual
#: machine the baseline was recorded on; converts set-up cost back to seconds
REFERENCE_NOMINAL_S = 1.35e-3

#: reported in place of a latency when no operation of its kind completed
NO_RESULT = 1e9


class BenchError(RuntimeError):
    """The benchmark cannot run; no result is printed."""


def import_package():
    """Fresh import of adtorsion and its CLI from the source tree beside the
    benchmark (numpy stays loaded, so only the package's own import counts)."""
    for name in [n for n in sys.modules if n == "adtorsion" or n.startswith("adtorsion.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        api = importlib.import_module("adtorsion")
        cli = importlib.import_module("adtorsion.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import adtorsion from {SRC}: {exc}") from None
    if Path(api.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"adtorsion imported from {api.__file__}, not from {SRC}")
    return api, cli


def set_up(workload):
    """Import and prepare SETUPS times; the last set-up's modules are used.

    Returns the median set-up time in wall seconds and in nominal seconds:
    its cost in reference loops times REFERENCE_NOMINAL_S, which the host's
    drift moves far less.
    """
    def once():
        start = clock()
        api, cli = import_package()
        workload.prepare(api, cli, WORKDIR)
        return api, cli, clock() - start

    walls, costs = [], []
    for _ in range(SETUPS):
        (api, cli, wall), reference = around(once)
        walls.append(wall)
        costs.append(wall / reference)
    return api, cli, statistics.median(walls), REFERENCE_NOMINAL_S * statistics.median(costs)


def measure(workload, api, cli, ops, count, tracer=None):
    """Closed loop over the first ``count`` of ``ops``; returns the outcomes,
    the inputs used and the wall time.

    Each outcome's cost is its wall time over the mean reference time
    around and during its operation (see refclock.py).
    """
    outcomes: list[Outcome] = []
    used = []
    gc.collect()
    start = clock()
    for n, op in enumerate(itertools.islice(ops, count)):
        if tracer is not None:
            tracer.op = n
        produced, reference = around(lambda: workload.run(api, cli, op))
        for outcome in produced:
            outcome.cost = outcome.seconds / reference
        outcomes.extend(produced)
        used.append(op)
    return outcomes, used, clock() - start


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, tracer: Tracer, untraced, traced, untraced_s: float, traced_s: float):
    """Per-layer metrics of the traced replay ``traced`` of the outcomes
    ``untraced``; the overhead also in cost, which the host's drift moves less."""
    stats, points = tracer.layer_stats()
    silent = [layer for layer in workload.layers if stats[layer]["calls"] == 0]
    if silent:
        raise BenchError(f"{workload.name}: expected layers recorded no calls: {', '.join(silent)}")
    knots = len({o.knot for o in traced})
    untraced_cost = sum(o.cost for o in untraced)
    m = {f"{layer}.self_s": (stats[layer]["self_s"], "s") for layer, _ in LAYERS}
    riley = stats["reps.riley_polynomial"]
    su2 = stats["reps.su2_solutions"]
    build = stats["reps.build_rep"]
    m.update({
        "reps.riley_polynomial.calls_per_knot": (_ratio(riley["calls"], knots), "calls/knot"),
        "reps.su2_solutions.calls": (su2["calls"], "count"),
        "reps.su2_solutions.calls_per_point": (_ratio(su2["calls"], points), "calls/point"),
        "reps.build_rep.calls": (build["calls"], "count"),
        "reps.build_rep.accept_ratio": (_ratio(build["calls"] - build["errors"], build["calls"]), "ratio"),
        "torsion.homology_torsion.calls_per_point": (
            _ratio(stats["torsion.homology_torsion"]["calls"], points), "calls/point"),
        "torsion.torsion_via_limit.fail_ratio": (
            _ratio(stats["torsion.torsion_via_limit"]["errors"],
                   stats["torsion.torsion_via_limit"]["calls"]), "ratio"),
        "foxcalc.fox_derivative.calls": (stats["foxcalc.fox_derivative"]["calls"], "count"),
        "bench.points": (points, "count"),
        "bench.knots": (knots, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": (_ratio(traced_s - untraced_s, untraced_s), "ratio"),
        "trace.overhead_cost_share": (
            _ratio(sum(o.cost for o in traced) - untraced_cost, untraced_cost), "ratio"),
    })
    return m, stats


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; the metrics and the details to print."""
    workload = WORKLOADS[name]()
    api, cli, setup_wall_s, setup_s = set_up(workload)
    rc, out, err = run_cli(cli, ["verify"])
    if rc != 0:
        raise WrongResult(f"adtorsion verify failed ({rc}):\n{out}{err}")
    workload.warm_up(api, cli)

    count = workload.operations(seconds / 2 if trace else seconds)
    outcomes, used, wall_s = measure(workload, api, cli, workload.inputs(seed), count)
    cost = {k: NO_RESULT if math.isinf(v) else v for k, v in workload.metrics(outcomes, "cost").items()}
    result = {
        "workload": name,
        "outcomes": outcomes,
        "operations": len(used),
        "wall_s": wall_s,
        "end_to_end": {
            "setup_s": (setup_s, "s"),
            "ok_share": (cost["ok_share"], "share"),
            "ok_per_kref": (1e3 * cost["ok_rate"], "1/kref"),
            "p50_ref": (cost["p50"], "ref"),
            "p90_ref": (cost["p90"], "ref"),
            "dihedral_recall": (cost["dihedral_recall"], "share"),
        },
        "wall": {"setup_wall_s": (setup_wall_s, "s")} | workload.wall_names(workload.metrics(outcomes, "seconds")),
    }
    if trace:
        with Tracer() as tracer:
            traced_outcomes, _, traced_s = measure(
                workload, api, cli, used, len(used), tracer=tracer)
        result["outcomes"] = traced_outcomes
        result["per_layer"], result["layers"] = layer_metrics(
            workload, tracer, outcomes, traced_outcomes, wall_s, traced_s)
    return result


def failure_reasons(outcomes) -> dict[str, int]:
    reasons: dict[str, int] = {}
    for o in outcomes:
        if not o.ok:
            key = f"{o.knot}: {o.reason}"
            reasons[key] = reasons.get(key, 0) + 1
    return dict(sorted(reasons.items()))


def dihedral_shortfalls(outcomes) -> dict[str, str]:
    """Knots whose dihedral representations were not all found, as found/expected.

    A critical search that finds too few is no failure (only a nonzero exit
    or an over-count is); its shortfall shows here and in dihedral_recall.
    """
    totals: dict[str, tuple[int, int]] = {}
    for o in outcomes:
        found, expected = totals.get(o.knot, (0, 0))
        totals[o.knot] = (found + o.found, expected + o.expected)
    return {k: f"{f}/{e}" for k, (f, e) in sorted(totals.items()) if f < e}


def print_tables(result: dict) -> None:
    name = result["workload"]
    outcomes = result["outcomes"]
    print(f"== {name}: {result['operations']} operations, {len(outcomes)} outcomes, "
          f"{result['wall_s']:.2f} s untraced")
    print(f"  {'end-to-end metric':<34}{'value':>14}  unit")
    for key, (value, unit) in result["end_to_end"].items():
        print(f"  {key:<34}{value:>14.6g}  {unit}")
    print(f"  {'wall-time figure (ROADMAP name)':<34}{'value':>14}  unit")
    for key, (value, unit) in result["wall"].items():
        print(f"  {key:<34}{value:>14.6g}  {unit}")
    reasons = failure_reasons(outcomes)
    print(f"  failures: {sum(reasons.values())} of {len(outcomes)}")
    for key, count in reasons.items():
        print(f"    {count:>5}  {key}")
    shortfalls = dihedral_shortfalls(outcomes)
    print(f"  dihedral shortfalls (found/expected): {len(shortfalls)} knots")
    for knot, ratio in shortfalls.items():
        print(f"    {ratio:>7}  {knot}")
    if "per_layer" in result:
        print(f"  {'layer':<34}{'calls':>9}{'errors':>8}{'self_s':>11}")
        for layer, _ in LAYERS:
            s = result["layers"][layer]
            print(f"  {layer:<34}{s['calls']:>9}{s['errors']:>8}{s['self_s']:>11.4f}")
        print(f"  {'per-layer metric':<44}{'value':>14}  unit")
        for key, (value, unit) in result["per_layer"].items():
            if not key.endswith(".self_s"):
                print(f"  {key:<44}{value:>14.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.workload == "all"

    env = environment()
    print(f"adtorsion perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={int(trace)}")
    print("environment: " + json.dumps(env))
    results = []
    correct = True
    try:
        for name in names:
            try:
                with sampling():
                    results.append(run_workload(name, args.seed, args.seconds, trace))
            except WrongResult as exc:
                print(f"wrong result on {name}: {exc}", file=sys.stderr)
                correct = False
                break
            print_tables(results[-1])
    except (BenchError, OracleError, LayerLookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    metrics = {}
    for result in results:
        if args.workload == "all":
            chosen = {**result["end_to_end"], **result["per_layer"]}
            prefix = result["workload"] + "."
        else:
            chosen = result["per_layer"] if args.trace else result["end_to_end"]
            prefix = ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen.items()})
    outcomes = [o for result in results for o in result["outcomes"]]
    detail = {
        "seed": args.seed,
        "environment": env,
        "failures": {r["workload"]: failure_reasons(r["outcomes"]) for r in results},
        "dihedral_shortfalls": {r["workload"]: dihedral_shortfalls(r["outcomes"]) for r in results},
        "wall": {r["workload"]: r["wall"] for r in results},
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, len(outcomes)),
        "failed": sum(1 for o in outcomes if not o.ok),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
