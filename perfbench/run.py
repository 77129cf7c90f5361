"""Seeded benchmark for rp2bouquet.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fuzz_campaign --seed 1 --seconds 30 --trace 0

Workloads are ``fuzz_campaign``, ``long_chain`` and ``classify`` (see
``workloads.py``).  The library is imported from ``src/`` of the checkout.
Set-up (a fresh import of the library plus building the workload's inputs)
is repeated ``setup_reps`` times and ``setup_s`` is the median.  Then whole
units of work run until ``--seconds`` have passed, at least as many as the
reported percentiles need.

Times are scaled to a reference machine speed (see ``refclock.py``); the
report line also gives the raw wall time and the scale factor.

``--trace 0`` measures untraced and prints the end-to-end metrics.  ``--trace 1``
runs a fixed number of units (so that its counts repeat exactly for a seed)
untraced, then the same units again with every public library function
wrapped, and prints the per-layer metrics, including ``trace.overhead_ratio``
(traced over untraced time).  The spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.

Before the result, one line gives the environment and one a report: every
workload-specific metric with its unit and sample count, the error rate,
the first failures and the decision digests.  The last line of standard
output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from refclock import RefClock
from spans import Tracer, layer_metrics, replay_geometry
from workloads import FULL, WORKLOADS, Record, Sizes, segment_count

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Fixed here rather than read from the library: the per-kind metric names are
# listed in BENCHMARK.json.
MOVE_KINDS = ("KinkPair", "Detour", "FingerPush", "Jiggle", "Subdivide")

# Gated end-to-end metrics, printed by every workload; each workload fills
# them from its own primary operation (see ``end_to_end``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# workload -> (operation sample, count, tail quantile, report names)
PRIMARY = {
    "fuzz_campaign": ("trial", "moves", 0.90, "moves_per_s", "trial_p50_ms", "trial_p90_ms"),
    "long_chain": ("move", "moves", 0.95, "moves_per_s", "move_p50_ms", "move_p95_ms"),
    "classify": ("diagram", "diagrams", 0.95, "diagrams_per_s", "classify_p50_ms",
                 "classify_p95_ms"),
}


class SetupError(RuntimeError):
    """The checkout does not hold the library sources."""


def load_library():
    """Import rp2bouquet afresh from the checkout's src/ directory."""
    if not (SRC / "rp2bouquet" / "__init__.py").is_file():
        raise SetupError(f"no library sources at {SRC / 'rp2bouquet'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "rp2bouquet" or m.startswith("rp2bouquet.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("rp2bouquet")
    if Path(lib.__file__).resolve().parent != (SRC / "rp2bouquet").resolve():
        raise SetupError(f"rp2bouquet was imported from {lib.__file__}, not {SRC}")
    return lib


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment(lib, workload: str, seed: int) -> dict:
    rat = lib.geometry.Rat
    return {
        "python": platform.python_version(),
        "rat_backend": f"{rat.__module__}.{rat.__qualname__}",
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "src_lines": src_line_count(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_phase(wl, lib, state, seed, sizes, rec, seconds, min_units, max_units, count=None):
    """Run whole units until `seconds` have passed (or exactly `count` units).

    Returns the number of units and the wall time they took, without the
    reference clock's own kernel time.
    """
    clock = rec.clock
    clock.tick(force=True)
    started, overhead = time.perf_counter(), clock.overhead_s
    done = 0
    while done < max_units:
        if count is not None:
            if done >= count:
                break
        elif done >= min_units and time.perf_counter() - started >= seconds:
            break
        rec.tick()
        with rec.span(wl.unit_span, done):
            wl.unit(lib, state, seed, sizes, done, rec)
        done += 1
    clock.tick(force=True)
    return done, time.perf_counter() - started - (clock.overhead_s - overhead)


def end_to_end(workload: str, rec: Record, wall: float, setup_s: float, setup_reps: int,
               rss: float):
    """(gated metrics, report) for one untraced phase, in reference-speed time."""
    op, count, tail, rate_name, p50_name, tail_name = PRIMARY[workload]
    samples = rec.scaled(op)
    rate = rec.counts[count] / (wall * rec.clock.factor())
    p50 = percentile(samples, 0.5) * 1e3
    p_tail = percentile(samples, tail) * 1e3
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": rate,
        "latency_p50_ms": p50,
        "latency_tail_ms": p_tail,
        "peak_rss_mb": rss,
    }
    beyond = sum(1 for v in samples if v * 1e3 > p_tail)
    report = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": setup_reps},
        rate_name: {"value": rate, "unit": "1/s", "samples": rec.counts[count]},
        p50_name: {"value": p50, "unit": "ms", "samples": len(samples)},
        tail_name: {"value": p_tail, "unit": "ms", "samples": len(samples),
                    "beyond": beyond},
        "peak_rss_mb": {"value": rss, "unit": "MB", "samples": 1},
        "error_rate": {"value": rec.failed / max(rec.attempted, 1), "unit": "ratio",
                       "samples": rec.attempted},
    }
    if workload == "classify":
        # diagrams_per_s above counts the whole round; this is the corpus pipeline alone
        report[rate_name] = {"value": len(samples) / sum(samples) if samples else 0.0,
                             "unit": "1/s", "samples": len(samples)}
        realize = rec.scaled("realize")
        enum = rec.scaled("enumerate")
        report["realize_per_s"] = {"value": len(realize) / sum(realize) if realize else 0.0,
                                   "unit": "1/s", "samples": len(realize)}
        report["enumerate4_s"] = {"value": statistics.median(enum) if enum else 0.0,
                                  "unit": "s", "samples": len(enum)}
    return metrics, report


def growth_metrics(lib, snapshots, checkpoints) -> dict[str, tuple[float, str]]:
    """Segments, crossings and coordinate-denominator bits of kept diagrams."""
    out = {}
    for label in [f"at{c}" for c in checkpoints] + ["end"]:
        stats = []
        for _, d in (s for s in snapshots if s[0] == label):
            bits = [v.denominator.bit_length()
                    for _, _, _, a, b in d.iter_segments() for p in (a, b) for v in (p.x, p.y)]
            stats.append((segment_count(d), len(lib.crossings(d)),
                          sum(bits) / len(bits), max(bits)))
        k = len(stats)
        out[f"diagram.segments.{label}_mean"] = (sum(s[0] for s in stats) / k if k else 0.0,
                                                 "segments")
        out[f"diagram.segments.{label}_max"] = (max((s[0] for s in stats), default=0),
                                                "segments")
        out[f"diagram.crossings.{label}_mean"] = (sum(s[1] for s in stats) / k if k else 0.0,
                                                  "crossings")
        out[f"diagram.den_bits.{label}_mean"] = (sum(s[2] for s in stats) / k if k else 0.0,
                                                 "bits")
        out[f"diagram.den_bits.{label}_max"] = (max((s[3] for s in stats), default=0), "bits")
    return out


def digests(rec: Record) -> dict[str, str]:
    return {name: h.hexdigest() for name, h in sorted(rec.digests.items())}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
        out=sys.stdout) -> dict:
    """Run one workload; print the environment, report and result lines."""
    wl = WORKLOADS[workload]
    setup_clock = RefClock()
    setup_times = []
    for _ in range(sizes.setup_reps):
        setup_clock.tick(force=True)
        t0, overhead = time.perf_counter(), setup_clock.overhead_s
        lib = load_library()
        setup_rec = Record(clock=setup_clock)
        state = wl.setup(lib, seed, sizes, setup_rec)
        setup_times.append(time.perf_counter() - t0 - (setup_clock.overhead_s - overhead))
    setup_clock.tick(force=True)
    setup_s = statistics.median(setup_times) * setup_clock.factor()
    min_units, max_units = wl.min_units(state, sizes), wl.max_units(sizes)
    print(json.dumps({"environment": environment(lib, workload, seed)}), file=out)

    rec = Record()
    rec.attempted, rec.failed = setup_rec.attempted, setup_rec.failed
    rec.failures = list(setup_rec.failures)
    if not trace:
        units, wall = run_phase(wl, lib, state, seed, sizes, rec, seconds, min_units, max_units)
        metrics, report = end_to_end(workload, rec, wall, setup_s, sizes.setup_reps,
                                     peak_rss_mb())
        values = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()}
        attempted, failed, failures = rec.attempted, rec.failed, rec.failures
        extra = {"units": units, "wall_s": wall, "speed_factor": rec.clock.factor(),
                 "setup_speed_factor": setup_clock.factor(), "metrics": report,
                 "digests": digests(rec)}
    else:
        units = wl.trace_units(sizes)
        _, wall = run_phase(wl, lib, state, seed, sizes, rec, 0, 0, units, count=units)
        tracer = Tracer(sizes.capture_size, seed)
        traced = Record(tracer)
        tracer.install(lib)
        try:
            _, traced_wall = run_phase(wl, lib, state, seed, sizes, traced, 0, 0, max_units,
                                       count=units)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer, MOVE_KINDS)
        layers.update(replay_geometry(lib.geometry, tracer.captured, tracer.kind_counts,
                                      sizes.replay_reps))
        layers.update(growth_metrics(lib, traced.snapshots, sizes.checkpoints))
        layers["trace.overhead_ratio"] = (
            traced_wall * traced.clock.factor() / (wall * rec.clock.factor()), "ratio")
        values = {name: {"value": v, "unit": u} for name, (v, u) in sorted(layers.items())}
        path = TRACE_DIR / f"trace-{workload}-{seed}.jsonl"
        tracer.write(path)
        attempted = rec.attempted + traced.attempted
        failed = rec.failed + traced.failed
        failures = rec.failures + traced.failures
        extra = {"units": units, "untraced_wall_s": wall, "traced_wall_s": traced_wall,
                 "spans": len(tracer.spans), "trace_file": str(path.relative_to(ROOT)),
                 "digests": digests(traced)}
    print(json.dumps({"report": {"workload": workload, "seed": seed, **extra,
                                 "failures": failures}}), file=out)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": values}
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
