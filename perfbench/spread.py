"""Run the benchmark over several seeds and report each metric's median and
quartile spread, the steadiness test a benchmark run must pass.

    python3 perfbench/spread.py --workload points-family --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/spread.py --workload all --seeds 1 --trace 1 --out perfbench/baseline.json

For each metric: the median of its values over the seeds, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median.  Runs are sequential, one process at a time.  ``--out``
adds the summary to a JSON file under the key ``trace0`` or ``trace1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = next((json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")), {})
    return json.loads(lines[-1]), detail


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {}
    for workload in names:
        runs, details = [], []
        for seed in parse_seeds(args.seeds):
            result, detail = one_run(workload, seed, args.seconds, args.trace)
            runs.append(result)
            details.append(detail)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        stats = summarize(runs)
        summary[workload] = {
            "seeds": args.seeds,
            "metrics": stats,
            "failures_first_seed": details[0].get("failures", {}).get(workload, {}),
            "dihedral_shortfalls_first_seed":
                details[0].get("dihedral_shortfalls", {}).get(workload, {}),
            "environment": details[0].get("environment"),
        }
        print(f"{'metric':<44}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, s in stats.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  > bound/3"
            print(f"{name:<44}{s['median']:>12.6g}{s['q1']:>12.6g}{s['q3']:>12.6g}"
                  f"{s['spread']:>9.4f}{bound if bound is not None else '':>7}{flag}")
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {}
        data[f"trace{args.trace}"] = summary
        out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
