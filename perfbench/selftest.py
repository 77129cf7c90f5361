"""Self-test of the benchmark at tiny sizes (a few seconds).

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks, for every workload, that the result line names every metric of
BENCHMARK.json with its unit, that the outputs are correct, that span self
times are non-negative and add up to no more than their root span, and that
one seed gives the same decision digests twice.
"""

from __future__ import annotations

import io
import json
import sys
from collections import defaultdict
from dataclasses import replace

from run import ROOT, run
from workloads import FULL, WORKLOADS

TINY = replace(
    FULL,
    setup_reps=2,
    fuzz_steps=3, fuzz_min_trials=2, fuzz_max_trials=2,
    chain_segments=40, chain_max_moves=21, chain_min=1, chain_max=1,
    realize_batch=3,
    corpus_chains=((1, 15),), corpus_max_moves=20,
    enum_n=2, enum_count=48,
    classify_min_samples=1, classify_max_rounds=1,
    capture_size=50, replay_reps=1,
    trace_units=(2, 1, 1),
)


def run_tiny(workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    out = io.StringIO()
    run(workload, seed, 0, trace, TINY, out)
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_names(result: dict, expected: list[dict], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"{what}: metrics differ: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def check_spans(path) -> None:
    spans, rollup_ns = {}, defaultdict(int)
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "rollup" in rec:
                rollup_ns[rec["parent"]] += rec["ns"]
            else:
                spans[rec["id"]] = rec
    assert spans, "no spans written"
    covered = defaultdict(int)
    for s in spans.values():
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    self_ns = {i: s["end_ns"] - s["start_ns"] - covered[i] - rollup_ns[i]
               for i, s in spans.items()}
    assert all(v >= 0 for v in self_ns.values()), "negative self time"

    def root(i):
        while spans[i]["parent"] >= 0:
            i = spans[i]["parent"]
        return i

    total = defaultdict(int)
    for i in spans:
        total[root(i)] += self_ns[i] + rollup_ns[i]
    for r, ns in total.items():
        assert ns <= spans[r]["end_ns"] - spans[r]["start_ns"], f"span {r}: self times exceed root"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        report, result = run_tiny(workload, 7, False)
        check_names(result, spec["end_to_end"], f"{workload} untraced")
        again, _ = run_tiny(workload, 7, False)
        assert report["digests"] and report["digests"] == again["digests"], workload
        report, result = run_tiny(workload, 7, True)
        check_names(result, spec["per_layer"], f"{workload} traced")
        check_spans(ROOT / report["trace_file"])
        print(f"ok {workload}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
