"""Span tracing for traced benchmark runs.

A :class:`Tracer` replaces public library functions, in place, under every
name the library's modules bind them to, so a call from any module is seen.
Each wrapped call becomes a span (name, start, end, parent, unit id, tag,
status); spans live in memory until :meth:`Tracer.write`.  Leaf geometry calls
are too many and too short for one span each, so they are rolled up per
parent span as a count and a summed time instead.

Self time of a span is its duration minus the time covered by its child spans
and by the leaf calls rolled up under it.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, kind) for every traced public function.  "leaf" calls are
# rolled up per parent span; "span" calls get a span each.
TARGETS = (
    ("geometry", "segment_intersection", "leaf"),
    ("diagram", "validate", "span"),
    ("diagram", "loads", "span"),
    ("diagram", "dumps", "span"),
    ("invariants", "invariants", "span"),
    ("invariants", "equiv", "span"),
    ("moves", "apply_move", "span"),
    ("moves", "apply_edit", "span"),
    ("moves", "random_move_applied", "span"),
    ("normal_form", "realize", "span"),
    ("normal_form", "classify", "span"),
    ("normal_form", "enumerate_classes", "span"),
    ("cli", "render_svg", "span"),
)

# span fields
NAME, START, END, PARENT, UNIT, TAG, STATUS = range(7)


def _tag(name, args, result):
    """Per-call detail kept on the span: move kind, or text size in bytes."""
    if name == "moves.apply_move":
        return args[1].kind
    if name == "diagram.loads":
        return len(args[0])
    if name == "diagram.dumps" and result is not None:
        return len(result)
    return None


class Tracer:
    def __init__(self, capture_size: int, seed: int):
        self.spans: list[list] = []
        # (parent span index or -1, leaf name) -> [calls, total ns]
        self.rollups: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])
        self.unit = None
        self._stack: list[int] = []
        # reservoir sample of segment_intersection arguments, for replay
        self.captured: list[tuple] = []
        self.captured_seen = 0
        self.kind_counts: dict[str, int] = defaultdict(int)
        self._capture_size = capture_size
        self._rng = random.Random(f"perfbench-capture:{seed}")
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.unit, None, "ok"]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, unit):
        """A root span opened by the benchmark around one unit of work."""
        outer, self.unit = self.unit, unit
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)
            self.unit = outer

    def _wrap_span(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                rec[STATUS] = type(exc).__name__
                raise
            finally:
                tracer._close(rec)
                rec[TAG] = _tag(name, args, result)

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, fn, name: str):
        tracer = self
        rollups = self.rollups
        stack = self._stack

        def traced(*args):
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args)
            finally:
                cell = rollups[(stack[-1] if stack else -1, name)]
                cell[0] += 1
                cell[1] += time.perf_counter_ns() - t0
            tracer._sample(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _sample(self, args, result) -> None:
        self.kind_counts[result.kind.name] += 1
        self.captured_seen += 1
        if len(self.captured) < self._capture_size:
            self.captured.append(args)
        else:
            j = self._rng.randrange(self.captured_seen)
            if j < self._capture_size:
                self.captured[j] = args

    # -- installing wrappers ------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every target under each name the package's modules bind it to."""
        # sys.modules, since the package re-exports a function named `invariants`
        submodules = {m: sys.modules[f"{lib.__name__}.{m}"] for m, _, _ in TARGETS}
        modules = [lib, *submodules.values()]
        for module_name, func_name, kind in TARGETS:
            original = getattr(submodules[module_name], func_name)
            name = f"{module_name}.{func_name}"
            wrapper = (self._wrap_leaf if kind == "leaf" else self._wrap_span)(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time in ns of every span, index-aligned with `spans`."""
        covered = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        for (parent, _name), (_calls, ns) in self.rollups.items():
            if parent >= 0:
                covered[parent] += ns
        return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(self.spans)]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, rec in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": rec[NAME], "start_ns": rec[START], "end_ns": rec[END],
                    "parent": rec[PARENT], "unit": rec[UNIT], "tag": rec[TAG],
                    "status": rec[STATUS]}) + "\n")
            for (parent, name), (calls, ns) in sorted(self.rollups.items()):
                out.write(json.dumps({"rollup": name, "parent": parent,
                                      "calls": calls, "ns": ns}) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, move_kinds) -> dict[str, tuple[float, str]]:
    """Per-layer metrics read off the spans and rollups of a traced run."""
    selfs = tracer.self_times()
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(tracer.spans):
        by_name[rec[NAME]].append(i)

    def durations(name, keep=lambda rec: True):
        return [tracer.spans[i][END] - tracer.spans[i][START]
                for i in by_name[name] if keep(tracer.spans[i])]

    out: dict[str, tuple[float, str]] = {}
    seg_calls = sum(c for (_, name), (c, _) in tracer.rollups.items()
                    if name == "geometry.segment_intersection")
    seg_ns = sum(ns for (_, name), (_, ns) in tracer.rollups.items()
                 if name == "geometry.segment_intersection")
    out["geometry.segment_intersection.calls"] = (seg_calls, "count")
    out["geometry.segment_intersection.self_ms"] = (seg_ns / 1e6, "ms")

    out["diagram.validate.calls"] = (len(by_name["diagram.validate"]), "count")
    out["diagram.validate.ms_p50"] = (_median(durations("diagram.validate")) / 1e6, "ms")
    for fn in ("loads", "dumps"):
        name = f"diagram.{fn}"
        total_ns = sum(durations(name))
        total_kb = sum(tracer.spans[i][TAG] or 0 for i in by_name[name]) / 1024
        out[f"{name}.us_per_kb"] = (total_ns / 1e3 / total_kb if total_kb else 0.0, "us/KB")
    out["cli.render_svg.ms_p50"] = (_median(durations("cli.render_svg")) / 1e6, "ms")

    applied = durations("moves.apply_move", lambda r: r[STATUS] == "ok")
    blocked = durations("moves.apply_move", lambda r: r[STATUS] == "MoveBlocked")
    calls = len(by_name["moves.apply_move"])
    out["moves.apply_move.calls"] = (calls, "count")
    out["moves.apply_move.applied_ratio"] = (len(applied) / calls if calls else 0.0, "ratio")
    out["moves.apply_move.blocked_ms"] = (sum(blocked) / 1e6, "ms")
    for kind in move_kinds:
        ok = durations("moves.apply_move", lambda r: r[TAG] == kind and r[STATUS] == "ok")
        bad = durations("moves.apply_move",
                        lambda r: r[TAG] == kind and r[STATUS] == "MoveBlocked")
        prefix = f"moves.apply_move.{kind}"
        out[f"{prefix}.applied"] = (len(ok), "count")
        out[f"{prefix}.blocked"] = (len(bad), "count")
        out[f"{prefix}.applied_us_p50"] = (_median(ok) / 1e3, "us")
        out[f"{prefix}.blocked_us_p50"] = (_median(bad) / 1e3, "us")
    rma = by_name["moves.random_move_applied"]
    out["moves.random_move_applied.calls"] = (len(rma), "count")
    out["moves.random_move_applied.self_ms"] = (sum(selfs[i] for i in rma) / 1e6, "ms")

    out["invariants.invariants.calls"] = (len(by_name["invariants.invariants"]), "count")
    out["invariants.invariants.us_p50"] = (
        _median(durations("invariants.invariants")) / 1e3, "us")
    out["normal_form.realize.calls"] = (len(by_name["normal_form.realize"]), "count")
    out["normal_form.realize.ms_p50"] = (_median(durations("normal_form.realize")) / 1e6, "ms")
    out["normal_form.enumerate_classes.ms"] = (
        _median(durations("normal_form.enumerate_classes")) / 1e6, "ms")
    return out


def replay_geometry(geometry, captured, kind_counts, reps: int) -> dict[str, tuple[float, str]]:
    """Time the exact predicates untraced on the captured real inputs."""
    segment_intersection = geometry.segment_intersection
    orient2d = geometry.orient2d
    seg_ns, orient_ns = [], []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for q in captured:
            segment_intersection(*q)
        seg_ns.append((time.perf_counter_ns() - t0) / max(len(captured), 1))
        t0 = time.perf_counter_ns()
        for a, b, c, d in captured:
            orient2d(c, d, a)
            orient2d(c, d, b)
            orient2d(a, b, c)
            orient2d(a, b, d)
        orient_ns.append((time.perf_counter_ns() - t0) / max(4 * len(captured), 1))
    total = sum(kind_counts.values())
    bits = [v.denominator.bit_length() for q in captured for p in q for v in (p.x, p.y)]
    return {
        "geometry.segment_intersection.ns_per_call": (_median(seg_ns), "ns"),
        "geometry.orient2d.ns_per_call": (_median(orient_ns), "ns"),
        "geometry.segment_intersection.proper_share": (
            kind_counts.get("PROPER", 0) / total if total else 0.0, "ratio"),
        "geometry.segment_intersection.degenerate_share": (
            kind_counts.get("DEGENERATE", 0) / total if total else 0.0, "ratio"),
        "geometry.corpus.den_bits_max": (max(bits, default=0), "bits"),
    }
