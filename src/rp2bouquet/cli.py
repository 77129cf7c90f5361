"""Command-line frontend: file IO, user-facing verbs, deterministic fuzz
campaigns, and static SVG rendering.

Verbs::

    rp2bouquet validate   <diagram.json>
    rp2bouquet invariants <diagram.json>
    rp2bouquet equiv      <a.json> <b.json>
    rp2bouquet realize    "<tuple text>" [--out file]
    rp2bouquet enumerate  <n>
    rp2bouquet fuzz       [--seed S] [--steps K] [--trials T] [--out DIR] [--cross-check]
    rp2bouquet fuzz       --replay <script>
    rp2bouquet render-svg <diagram.json> [--out file]

Exit codes: 0 success, 1 domain error (invalid diagram, mismatched loop
count, unrealizable tuple, enumeration over the n <= 4 cap), 2 parse/usage
error, 3 fuzz violation found.

All verbs are deterministic for fixed inputs and seeds, and output is
byte-stable: rationals are serialized exactly, and SVG converts to decimal
only at the final formatting step with fixed precision 9.  ``fuzz`` reports
its wall time on stderr.

``fuzz --cross-check`` also compares the analysis each move kept up to date
with one rebuilt from scratch; a divergence is a fuzz violation.  The fuzz
counts ``--trials`` and ``--steps`` must be non-negative.

A fuzz violation produces a self-contained replay script: one comment header,
the starting diagram as a single JSON line, then one move per line.  Running
``fuzz --replay`` on it re-applies the sequence, always with the cross-check,
and reports the first move after which the kept analysis diverged or the
invariant tuple changed.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from .diagram import (BouquetDiagram, DiagramFormatError, _crossing_order, _generic_analysis, analysis, dumps,
                      loads, validate)
from .invariants import InvariantTuple, MismatchedLoopCount, _text_lines, equiv, invariants
from .moves import Exhausted, MoveBlocked, MoveSpec, apply_move, random_move_applied
from .normal_form import LimitExceeded, RealizationError, enumerate_classes, random_tuple, realize

__all__ = ["main", "run_fuzz", "run_replay", "render_svg", "FuzzReport"]


# ---------------------------------------------------------------------------
# fuzz campaign
# ---------------------------------------------------------------------------

@dataclass
class FuzzViolation:
    trial: int
    step: int
    message: str
    script: list[str]


@dataclass
class FuzzReport:
    trials: int
    steps: int
    seed: int
    moves_applied: int = 0
    violations: list[FuzzViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _artifact_script(seed: int, trial: int, step: int, start: BouquetDiagram,
                     specs: list[MoveSpec]) -> list[str]:
    lines = [f"# fuzz violation: seed={seed} trial={trial} step={step}"]
    lines.append(dumps(start).rstrip("\n"))
    lines.extend(spec.to_line() for spec in specs)
    return lines


def _violation(d: BouquetDiagram, kind: str, reference: InvariantTuple,
               cross_check: bool) -> str | None:
    """What is wrong with d after a move of `kind`, if anything: with
    `cross_check`, a part of its kept analysis that differs from a rebuilt
    one; then an invariant tuple that differs from `reference`."""
    if cross_check:
        kept, rebuilt = analysis(d), analysis(BouquetDiagram(d.n, d.vertex, d.loops))
        # the kept crossings, in no fixed order, are compared as the public tuple
        for name in [f.name for f in fields(kept) if f.name != "pairs"] + ["crossings", "star"]:
            if getattr(kept, name) != getattr(rebuilt, name):
                return f"kept {name} diverge from a rebuilt analysis after {kind}"
    current = invariants(d)
    if current != reference:
        return f"invariants changed after {kind}: {reference.text()!r} -> {current.text()!r}"
    return None


def fuzz_trial(seed: int, trial: int, steps: int,
               cross_check: bool = False) -> tuple[int, FuzzViolation | None]:
    """One deterministic trial: random tuple, realize, random move chain;
    with `cross_check` each diagram's kept analysis is checked too."""
    rng = random.Random(f"rp2bouquet-fuzz:{seed}:{trial}")
    n = rng.choice((1, 2, 3))
    start = realize(random_tuple(n, rng.randrange(10 ** 9)))
    reference = invariants(start)
    d = start
    applied: list[MoveSpec] = []
    for step in range(steps):
        try:
            spec, d2 = random_move_applied(d, rng.randrange(10 ** 9))
        except Exhausted as exc:
            return step, FuzzViolation(
                trial, step, f"move generator exhausted: {exc}",
                _artifact_script(seed, trial, step, start, applied))
        applied.append(spec)
        problem = _violation(d2, spec.kind, reference, cross_check)
        if problem is not None:
            return step, FuzzViolation(trial, step, problem,
                                       _artifact_script(seed, trial, step, start, applied))
        d = d2
    return steps, None


def run_fuzz(seed: int, steps: int, trials: int, out=None, cross_check: bool = False) -> FuzzReport:
    if trials < 0 or steps < 0:
        raise ValueError(f"fuzz counts must be non-negative, got trials={trials} steps={steps}")
    report = FuzzReport(trials=trials, steps=steps, seed=seed)
    for trial in range(trials):
        done, violation = fuzz_trial(seed, trial, steps, cross_check)
        report.moves_applied += done
        if violation is not None:
            report.violations.append(violation)
        if out is not None and (trial + 1) % 100 == 0:
            print(f"  {trial + 1}/{trials} trials, {report.moves_applied} moves applied",
                  file=out)
    return report


def run_replay(lines: list[str]) -> tuple[bool, str]:
    """Re-run a violation script; report the first move after which the kept
    analysis diverges from a rebuilt one or the invariant tuple changes."""
    body = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise DiagramFormatError("replay script has no diagram line")
    d = loads(body[0])
    bad = validate(d)
    if bad:
        raise DiagramFormatError(f"replay start diagram invalid: {bad[0]}")
    reference = invariants(d)
    for i, line in enumerate(body[1:], start=1):
        spec = MoveSpec.from_line(line)
        try:
            d = apply_move(d, spec)
        except MoveBlocked as exc:
            return False, f"replay failed: move {i} ({spec.kind}) cannot be applied: {exc}"
        problem = _violation(d, spec.kind, reference, True)
        if problem is not None:
            return False, f"reproduced at move {i}: {problem}"
    return True, f"all {max(len(body) - 1, 0)} moves preserve {reference.text()!r}"


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#148f77")
_SEAM_MARK = 0.024  # half-size of the square seam markers, in viewBox units


def _fmt(value) -> str:
    text = f"{float(value):.9f}"
    return "0.000000000" if text == "-0.000000000" else text


def render_svg(d: BouquetDiagram) -> str:
    """Static SVG figure: loops colored per index, crossings and seam points
    marked, the seam circle dashed.  Formatting is fixed-precision so output
    is byte-stable; the exact rational core is never fed from this path.  It
    reads the kept analysis, not the public crossing tuple.  Raises
    :class:`InvalidDiagram`, as `crossings` does, for an invalid diagram."""
    a = _generic_analysis(d)
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
           'viewBox="-1.15 -1.15 2.3 2.3">',
           '<rect x="-1.15" y="-1.15" width="2.3" height="2.3" fill="white"/>',
           '<circle cx="0" cy="0" r="1" fill="none" stroke="#888888" '
           'stroke-width="0.012" stroke-dasharray="0.05,0.035"/>']
    for li, row in enumerate(a.leg_starts):
        color = _PALETTE[li % len(_PALETTE)]
        legs = [a.records[i:j] for i, j in zip(row, row[1:])]
        for leg in legs:
            # a record's floats are float() of its end points; SVG y grows downward, diagram y upward
            ends = [(s.fax, s.fay) for s in leg] + [(leg[-1].fbx, leg[-1].fby)]
            points = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in ends)
            out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                       'stroke-width="0.014" stroke-linejoin="round"/>')
        for leg in legs[:-1]:
            x, y = leg[-1].fbx, leg[-1].fby
            for mx, my in ((x, y), (-x, -y)):
                out.append(f'<rect x="{_fmt(mx - _SEAM_MARK)}" y="{_fmt(-my - _SEAM_MARK)}" '
                           f'width="{_fmt(2 * _SEAM_MARK)}" height="{_fmt(2 * _SEAM_MARK)}" '
                           f'fill="{color}" stroke="black" stroke-width="0.006"/>')
    for _, _, _, ((xn, xd, yn, yd), _) in _crossing_order(a)[0]:  # crossings(d)'s order
        out.append(f'<circle cx="{_fmt(xn / xd)}" cy="{_fmt(-(yn / yd))}" r="0.022" '
                   'fill="none" stroke="black" stroke-width="0.01"/>')
    v = d.vertex
    out.append(f'<circle cx="{_fmt(v.xn / v.xd)}" cy="{_fmt(-(v.yn / v.yd))}" r="0.025" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _load_diagram(path: str) -> BouquetDiagram:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DiagramFormatError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def _emit(text: str, out_path: str | None, stdout) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        stdout.write(text)


def _invalid(d: BouquetDiagram, stdout) -> bool:
    """Print a VIOLATION line for each violation of d; True if there is one."""
    violations = validate(d)
    for v in violations:
        print(f"VIOLATION: {v}", file=stdout)
    return bool(violations)


def _cmd_validate(args, stdout) -> int:
    if _invalid(_load_diagram(args.path), stdout):
        return 1
    print("OK", file=stdout)
    return 0


def _cmd_invariants(args, stdout) -> int:
    d = _load_diagram(args.path)
    if _invalid(d, stdout):
        return 1
    print(invariants(d).text(), file=stdout)
    return 0


def _cmd_equiv(args, stdout) -> int:
    d1 = _load_diagram(args.path_a)
    d2 = _load_diagram(args.path_b)
    for d, path in ((d1, args.path_a), (d2, args.path_b)):
        violations = validate(d)
        if violations:
            print(f"VIOLATION: {violations[0]} (in {path})", file=stdout)
            return 1
    if equiv(d1, d2):
        print("EQUIVALENT", file=stdout)
        return 0
    t1, t2 = invariants(d1), invariants(d2)
    differing = [name for name, a, b in
                 (("order", t1.order, t2.order), ("h", t1.h, t2.h), ("w", t1.w, t2.w))
                 if a != b]
    print(f"DISTINCT ({','.join(differing)})", file=stdout)
    return 0


def _cmd_realize(args, stdout) -> int:
    t = InvariantTuple.parse(args.tuple_text)
    d = realize(t)
    _emit(dumps(d), args.out, stdout)
    return 0


def _cmd_enumerate(args, stdout) -> int:
    stdout.writelines(_text_lines(enumerate_classes(args.n), args.n))
    return 0


def _cmd_fuzz(args, stdout) -> int:
    if args.replay:
        lines = Path(args.replay).read_text().splitlines()
        ok, message = run_replay(lines)
        print(message, file=stdout)
        return 0 if ok else 3
    started = time.perf_counter()
    report = run_fuzz(args.seed, args.steps, args.trials, out=stdout, cross_check=args.cross_check)
    print(f"fuzz took {time.perf_counter() - started:.1f}s", file=sys.stderr)  # off the stable stdout
    if report.ok:
        print(f"OK {report.trials}/{report.trials} trials, {report.moves_applied} moves", file=stdout)
        return 0
    out_dir = Path(args.out) if args.out else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    for violation in report.violations:
        path = out_dir / f"fuzz_violation_seed{report.seed}_trial{violation.trial}.txt"
        path.write_text("\n".join(violation.script) + "\n")
        print(f"VIOLATION trial={violation.trial} step={violation.step}: "
              f"{violation.message}", file=stdout)
        print(f"replay script: {path}", file=stdout)
    print(f"FAILED {len(report.violations)}/{report.trials} trials", file=stdout)
    return 3


def _cmd_render(args, stdout) -> int:
    d = _load_diagram(args.path)
    if _invalid(d, stdout):
        return 1
    _emit(render_svg(d), args.out, stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rp2bouquet",
        description="Invariants, moves and normal forms for loop bouquets "
                    "immersed in the projective plane (disk model).")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a diagram file for generic position")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariants", help="print the invariant tuple of a diagram")
    p.add_argument("path")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("equiv", help="decide regular-homotopy equivalence of two diagrams")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("realize", help="build a diagram realizing a tuple text")
    p.add_argument("tuple_text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("enumerate", help="list all invariant tuples for n loops")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("fuzz", help="random move sequences must preserve invariants")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", default=None, help="directory for violation scripts")
    p.add_argument("--replay", default=None, help="re-run a violation script")
    p.add_argument("--cross-check", action="store_true",
                   help="compare every diagram's kept analysis with a rebuilt one")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("render-svg", help="render a diagram to a static SVG figure")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, stdout)
    except (MismatchedLoopCount, RealizationError, LimitExceeded) as exc:
        print(f"ERROR: {type(exc).__name__}: {exc}", file=stdout)
        return 1
    except (ValueError, OSError) as exc:  # DiagramFormatError is a ValueError
        print(f"ERROR: {exc}", file=stdout)
        return 2
