"""Run the benchmark over several seeds and summarize each metric's spread.

Run from the root of a source checkout:

    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Runs run.py once per workload and seed, one run at a time.  For every
end-to-end metric it reports the median and the quartile spread
((q3 - q1) / median, quartiles from ``statistics.quantiles(values, n=4)``)
next to the metric's bound from BENCHMARK.json, and flags a spread that is
not below a third of its bound.  ``--out`` writes the environment, every
run's metrics, digests and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return {
        "environment": json.loads(lines[-3])["environment"],
        "report": json.loads(lines[-2])["report"],
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    runs, summary, environment = {}, {}, None
    steady = True
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            out = run_once(spec["command"], workload, seed, spec["run_seconds"], args.trace)
            environment = out["environment"]
            result = out["result"]
            runs[workload].append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "units": out["report"]["units"],
                "digests": out["report"]["digests"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "report": out["report"].get("metrics", {})})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs[workload]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else None
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": bound}
            if bound is not None:
                ok = spread is not None and (name == "setup_s" or spread < bound / 3)
                steady &= ok
                print(f"  {workload:14s} {name:18s} median {median:12.4f}  spread "
                      f"{spread if spread is not None else float('nan'):.4f}  bound {bound}"
                      f"{'' if ok else '  <-- not below bound/3'}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps({
            "environment": {k: v for k, v in environment.items() if k not in ("workload", "seed")},
            "seeds": args.seeds, "run_seconds": spec["run_seconds"], "trace": args.trace,
            "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
