"""Time the layers of rp2bouquet on fixed inputs, with no tracer.

    python3 scripts/bench_layers.py --src src --out bench.json
    python3 scripts/bench_layers.py --src parent=../parent/src --src change=src \\
        --out BENCH_read_path.json

Each ``--src [LABEL=]DIR`` names a source tree holding ``rp2bouquet/``.  All
of them are imported, one after another, into this process (the library
imports nothing inside its functions, so each version keeps its own
modules), and their samples of each row are taken in turn, reversing the
order every other time, so that drift of the host's speed falls on all of
them alike.  A row calls one function directly, mostly a private one, so
each source must have the private functions the rows name, with their
present signatures.  The rows:

* ``loads``, ``_structural_violations``, a fresh ``validate`` (a new
  diagram object, so no kept analysis), ``render_svg`` and ``dumps`` in ms
  per call, and ``invariants`` and ``crossings`` in us per call (the last
  four on a validated diagram), on two snapshots of about 60 and about 450
  segments: one seeded chain of ``realize`` plus ``random_move_applied``,
  cut when it first reaches each size.  ``render_svg``, ``invariants`` and
  ``crossings`` each get a copy of the kept analysis without what an
  earlier call built and cached in it (the vertex star, the public
  crossing tuple), so each call pays for building those.  ``loads`` and
  ``dumps`` also run on the scale chain's diagram (below), labelled 3000;
* ``_structural_ok`` in us per call: the structural walk ``_structural`` on
  the window of each of a fixed list of splices proposed on each snapshot,
  blocked ones included, as ``_apply_splice`` runs it;
* ``apply_move`` in us per call, over every proposal drawn for that list
  (those whose builder blocks too), split by outcome: ``applied``,
  ``blocked_count`` (the splice found more or fewer counted crossings than
  its move adds) and ``blocked_other``; then each move kind by outcome.
  These rows also run on a third snapshot of the same chain, of about 1,500
  segments, and on a fourth, labelled 3000: the scale chain, seeded with 7
  from ``realize(random_tuple(2, 7))``, at its first diagram of at least
  3,000 segments, where a move's walks over every record and crossing are
  longest;
* ``_certainly_blocked`` in us per call, the drop check of random walks,
  over the Detours and FingerPushes among those proposals, on each of the
  four snapshots;
* ``random_move_applied`` in us per walk step, over the seeds ``WALK_SEEDS``
  on each of the four snapshots: each step proposes from the snapshot until
  a move applies, so it pays for the proposals its walk drops or
  ``apply_move`` blocks on the way;
* a fresh ``validate`` of the pencil: one loop of 40 chords through
  (1/4, 1/4), so that every pair of chords crosses there, giving 779
  TriplePoints;
* a fresh ``validate`` of two valid one-loop diagrams on which the sweep's
  active list grows long, each at two sizes: the zigzag of N = 2,000 and
  4,000 near-horizontal segments between x = -1/2 and x = 1/2 (N + 1
  segments, N - 3 crossings), and the quadrant diagram of N/2 long
  horizontals top left and N/2 long verticals bottom right, N = 1,000 and
  2,000 (2N + 1 segments, N/2 crossings);
* ``_meet``, and the integer crossing kernel ``_proper_ints``, in ns per
  call, on the pairs of the 450-segment snapshot that cross properly, and
  ``_meet`` on its pairs that the absolute float bound ``_B`` leaves to
  later stages (``fallback``: tiny kinks, decided exactly or by a bound
  relative to the differences);
* in ns per call, on random points in [-1, 1]^2 whose coordinates have
  numerators and denominators of 8, 50 and 570 bits: ``orient2d`` on
  triples; on pairs of segments, ``segment_intersection``, ``_meet`` on
  their records (``filtered``: the float filter decides every pair drawn,
  and the fifth or so that cross get their crossing from the exact
  ``_proper_ints``), and ``_meet`` with the second segment's start moved to
  the first one's end (``shared_end``: the filter never decides a shared
  end point, so ``_meet`` falls back to the exact ``_kind``).

A sample is the mean over one count of calls per row, the same for every
source: enough calls to last a few ms at the median of three warm-up calls
of the slowest source.  A call that outlasts a sample already fixes one
call per sample, so such a row (the fresh ``validate`` of the zigzags, say)
gets that one warm-up call.  Each row gives the median and quartiles of
``--reps`` samples, and for each source after the first, the median ratio
of its samples to the first source's taken next to them.  A row is marked
``"wide": true`` in every source when some source's quartile spread exceeds
a quarter of its median: its ratio is too noisy to read, so rerun it.  Each source also records the line count of its ``rp2bouquet/``
and the SHA-256 of its snapshots' ``dumps``, of its ``_structural_ok``
verdicts (each window's first violation, or ``None``), of its
``apply_move`` outcomes (each block message, or the ``dumps`` of the
result), of the drop check's verdicts, of the walk steps' applied move
lines, of the pencil's violations, of the ``validate`` output and
crossings of the zigzags and of the quadrant diagrams, of the scale
chain's ``dumps``, of ``render_svg`` on the snapshots and the scale
chain's diagram (``svg_sha256``) and of ``dumps(loads(t))`` for a fixed
list of JSON diagrams whose points are not in lowest terms, have negative
denominators or parts of up to 600 bits (``points_sha256``), which agree
between versions that decide, draw and read alike; also those diagrams' crossing counts, the number
of drop checks and the number of moves of the scale chain.  After writing ``--out`` the script exits 1,
naming the keys, if any source's decision checks (those digests and
counts, not ``src_lines`` or ``snapshot_segments``) differ from the first
source's."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import random
import re
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SEED = 20260815
SIZES = (60, 450)
LONG = 1500            # a third snapshot, for the apply_move rows only
CHAIN = 3000           # the scale chain's snapshot, for the same rows
PENCIL = 40            # chords of the pencil
ZIGZAGS = (2000, 4000)  # N of the zigzags
QUADRANTS = (1000, 2000)  # N of the quadrant diagrams
SPLICES = 40           # proposals per snapshot for the _structural_ok row
WALK_SEEDS = range(24)  # random_move_applied seeds per snapshot
DRAWS = 200            # random triples, or segment pairs, per sample
BITS = (8, 50, 570)
SAMPLE_S = 0.004       # a sample lasts at least this long


def load(src: Path):
    """Import rp2bouquet afresh from src, and its modules."""
    for name in [m for m in sys.modules if m == "rp2bouquet" or m.startswith("rp2bouquet.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.invalidate_caches()
        lib = importlib.import_module("rp2bouquet")
        mods = {m: importlib.import_module(f"rp2bouquet.{m}")
                for m in ("cli", "diagram", "geometry", "moves")}
    finally:
        sys.path.remove(str(src))
    if Path(lib.__file__).resolve().parent != (src / "rp2bouquet").resolve():
        raise SystemExit(f"rp2bouquet was imported from {lib.__file__}, not {src}")
    return lib, mods


def snapshots(lib) -> list[str]:
    """dumps of the chain at its first diagram of at least each size."""
    d = lib.realize(lib.random_tuple(2, SEED))
    rng = random.Random(SEED)
    out = []
    for size in SIZES + (LONG,):
        while sum(len(leg.points) - 1 for loop in d.loops for leg in loop.legs) < size:
            _, d = lib.random_move_applied(d, rng.randrange(10 ** 9))
        out.append(lib.dumps(d))
    return out


def scale_chain(lib) -> tuple[str, int]:
    """dumps of the scale chain at its first diagram of at least CHAIN
    segments, and the number of moves to it."""
    d = lib.realize(lib.random_tuple(2, 7))
    rng = random.Random(7)
    moves = 0
    while sum(len(leg.points) - 1 for loop in d.loops for leg in loop.legs) < CHAIN:
        _, d = lib.random_move_applied(d, rng.randrange(10 ** 9))
        moves += 1
    return lib.dumps(d), moves


def proposals(lib, mods, d) -> tuple[list, list]:
    """The proposals on d up to the SPLICES-th that builds, and the splices
    of those that build."""
    rng = random.Random(SEED)
    specs, out = [], []
    while len(out) < SPLICES:
        spec = mods["moves"]._propose_move(d, rng)
        if spec is None:
            continue
        specs.append(spec)
        try:
            splice = mods["moves"]._BUILDERS[spec.kind][0](d, spec)
        except lib.MoveBlocked:
            continue
        out.append(splice)
    return specs, out


# the messages of a splice whose tally of counted crossings is off
COUNT_BLOCKED = re.compile(r", got (more than )?\d+$")


def outcome(lib, d, spec) -> tuple[str, str]:
    """(class, digest text) of apply_move(d, spec): applied with the result's
    dumps, or blocked_count or blocked_other with the message."""
    try:
        return "applied", lib.dumps(lib.apply_move(d, spec))
    except lib.MoveBlocked as exc:
        return ("blocked_count" if COUNT_BLOCKED.search(str(exc)) else "blocked_other"), str(exc)


def apply_moves(lib, d, specs):
    for spec in specs:
        try:
            lib.apply_move(d, spec)
        except lib.MoveBlocked:
            pass


def drop_checks(moves, d, specs):
    for spec in specs:
        moves._certainly_blocked(d, spec)


def walk_steps(lib, d):
    for seed in WALK_SEEDS:
        lib.random_move_applied(d, seed)


def proper_pairs(lib, diagram, d) -> list:
    """(s, t) for the record pairs of valid d that cross properly."""
    records, leg_starts = diagram.analysis(d).records, diagram._leg_starts(d)
    return [(s, t) for s, t, _, _ in diagram._all_pairs(records, leg_starts)
            if lib.segment_intersection(s.a, s.b, t.a, t.b).kind.value == "proper"]


def float_orient(r, x, y) -> float:
    """The float orientation determinant of record r's line and (x, y), as
    ``_sure`` computes it."""
    return (r.fbx - r.fax) * (y - r.fay) - (r.fby - r.fay) * (x - r.fax)


def fallback_pairs(diagram, d) -> list:
    """(s, t), in record order, for the record pairs of valid d on which
    ``_sure``'s first stage, the absolute bound ``_B``, decides nothing."""
    a, bound = diagram.analysis(d), diagram._B
    out = []
    for s, t, i, j in diagram._all_pairs(list(a.records), a.leg_starts):
        s, t = (s, t) if i < j else (t, s)
        oc, od = float_orient(s, t.fax, t.fay), float_orient(s, t.fbx, t.fby)
        oa, ob = float_orient(t, s.fax, s.fay), float_orient(t, s.fbx, s.fby)
        one_side = [(p > bound and q > bound) or (p < -bound and q < -bound) for p, q in ((oc, od), (oa, ob))]
        if not any(one_side) and min(map(abs, (oc, od, oa, ob))) <= bound:
            out.append((s, t))
    return out


def draws(point, bits: int, k: int) -> list:
    """DRAWS tuples of k random points with coordinates of `bits` bits."""
    rng = random.Random(f"{SEED}:{bits}")
    scale = 2 ** bits

    def coord():
        den = rng.randrange(scale // 2, scale)
        return Fraction(rng.randrange(-den, den + 1), den)

    return [tuple(point(coord(), coord()) for _ in range(k)) for _ in range(DRAWS)]


def one_loop(lib, points):
    """One loop from V = (0, 0) through the points and back to V."""
    v = lib.pt(0, 0)
    return lib.BouquetDiagram(1, v, (lib.LoopPath((lib.Leg((v, *points, v)),)),))


def pencil(lib, m: int):
    """m chords of slopes in (-1, 1), each with its midpoint at (1/4, 1/4)
    and its ends on x = 1/8 and x = 3/8, run left to right and back in turn
    and joined along those lines."""
    c, h = Fraction(1, 4), Fraction(1, 8)
    ends = []
    for k in range(m):
        s = Fraction(2 * k + 1 - m, m)
        left, right = lib.pt(c - h, c - s * h), lib.pt(c + h, c + s * h)
        ends += (left, right) if k % 2 == 0 else (right, left)
    return one_loop(lib, ends)


def zigzag(lib, n: int):
    """Through ((-1)^k / 2, -1/4 + k / 2n) for k = 1..n: n - 1 segments
    across x = 0, about half of them crossed by the segment from V and
    half by the one back to it."""
    return one_loop(lib, [lib.pt(Fraction((-1) ** k, 2), Fraction(-1, 4) + Fraction(k, 2 * n))
                          for k in range(1, n + 1)])


def quadrant(lib, n: int):
    """n/2 horizontals from x = -1/2 to x = -1/16 at y = 1/8 + k / 4n, run
    right and left in turn, then n/2 verticals from y = -1/16 to y = -1/2 at
    x = 1/8 + k / 4n, run down and up in turn, k = 1..n/2; the segment from
    the last horizontal to the first vertical crosses every horizontal."""
    points = []
    for k in range(1, n // 2 + 1):
        y = Fraction(1, 8) + Fraction(k, 4 * n)
        ends = [lib.pt(Fraction(-1, 2), y), lib.pt(Fraction(-1, 16), y)]
        points += ends if k % 2 else ends[::-1]
    for k in range(1, n // 2 + 1):
        x = Fraction(1, 8) + Fraction(k, 4 * n)
        ends = [lib.pt(x, Fraction(-1, 16)), lib.pt(x, Fraction(-1, 2))]
        points += ends if k % 2 else ends[::-1]
    return one_loop(lib, points)


def unreduced(k: int = 12) -> list[str]:
    """k JSON diagrams of one loop whose points are not in lowest terms: each
    coordinate a ratio of 20 or 600 bits, its parts times a factor of 1, 64
    or 600 bits, and both negated for half of them, so that the denominator
    is negative."""
    rng = random.Random(f"{SEED}:points")

    def point():
        out = []
        for _ in range(2):
            bits = rng.choice((20, 600))
            n, d = rng.randrange(-2 ** bits, 2 ** bits), rng.randrange(1, 2 ** bits)
            f = rng.randrange(1, 2 ** rng.choice((1, 64, 600))) * rng.choice((1, -1))
            out += [n * f, d * f]
        return out

    return [json.dumps({"n": 1, "vertex": point(), "loops": [{"legs": [[point() for _ in range(8)]]}]})
            for _ in range(k)]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def first_violation(diagram, splice):
    """The first structural violation of the splice's window, or None."""
    out = []
    diagram._structural(out, splice.d2, {splice.loop: splice.new}, [])
    return out[0] if out else None


def fresh_validate(lib, d):
    """validate on a new diagram object equal to d, so no kept analysis."""
    return lib.validate(lib.BouquetDiagram(d.n, d.vertex, d.loops))


def uncached(diagram, d):
    """d, given a copy of its kept analysis: dataclasses.replace drops what
    the analysis caches on first use."""
    diagram._set_analysis(d, dataclasses.replace(diagram.analysis(d)))
    return d


# the checks that name decisions, which agree between versions that decide alike
DECISIONS = re.compile(
    r"_sha256$|_crossings$|^(drop_checks|proper_pairs|fallback_pairs|pencil_violations|chain_moves)$")


def rows(lib, mods) -> tuple[dict, dict]:
    """name -> (unit, per-call scale, zero-argument call), and the checks."""
    diagram, cli, geometry = mods["diagram"], mods["cli"], mods["geometry"]
    texts = snapshots(lib)
    chain_text, chain_moves = scale_chain(lib)
    out, verdicts, outcomes, drops, walks = {}, [], [], [], []
    chain_d = lib.loads(chain_text)
    out[f"loads.ms@{CHAIN}"] = ("ms", 1e3, lambda: lib.loads(chain_text))
    out[f"dumps.ms@{CHAIN}"] = ("ms", 1e3, lambda: lib.dumps(chain_d))
    for size, text in zip(SIZES + (LONG, CHAIN), texts + [chain_text]):
        checked = lib.loads(text)
        lib.validate(checked)
        specs, cases = proposals(lib, mods, checked)
        if size in SIZES:
            read_rows(out, lib, mods, size, text, checked, cases)
            verdicts += [str(first_violation(diagram, s)) for s in cases]
        groups: dict[str, list] = {}
        for spec in specs:
            cls, text = outcome(lib, checked, spec)
            outcomes.append(text)
            groups.setdefault(cls, []).append(spec)
            groups.setdefault(f"{spec.kind}.{cls}", []).append(spec)
        for group in sorted(groups, key=lambda g: ("." in g, g)):
            out[f"apply_move.{group}.us@{size}"] = (
                "us", 1e6 / len(groups[group]),
                lambda specs=groups[group], d=checked: apply_moves(lib, d, specs))
        blockable = [spec for spec in specs if spec.kind in ("Detour", "FingerPush")]
        drops += [f"{spec.to_line()} {mods['moves']._certainly_blocked(checked, spec)}" for spec in blockable]
        out[f"_certainly_blocked.us@{size}"] = (
            "us", 1e6 / len(blockable), lambda specs=blockable, d=checked: drop_checks(mods["moves"], d, specs))
        walks += [lib.random_move_applied(checked, seed)[0].to_line() for seed in WALK_SEEDS]
        out[f"random_move_applied.us@{size}"] = (
            "us", 1e6 / len(WALK_SEEDS), lambda d=checked: walk_steps(lib, d))
    read = lib.loads(texts[len(SIZES) - 1])
    pairs, fallback = proper_pairs(lib, diagram, read), fallback_pairs(diagram, read)
    ends = [(s.a, s.b, t.a, t.b) for s, t in pairs]

    def meet(pairs, f=diagram._meet):
        for s, t in pairs:
            f(s, t)

    out[f"_meet.proper.ns@{SIZES[-1]}"] = ("ns", 1e9 / len(pairs), lambda: meet(pairs))
    out[f"_meet.fallback.ns@{SIZES[-1]}"] = ("ns", 1e9 / len(fallback), lambda: meet(fallback))

    def kernel(ends=ends, f=geometry._proper_ints):
        for a, b, c, e in ends:
            f(a, b, c, e)

    out[f"_proper_ints.ns@{SIZES[-1]}"] = ("ns", 1e9 / len(ends), kernel)
    fan = pencil(lib, PENCIL)
    out[f"validate.pencil.ms@{PENCIL}"] = ("ms", 1e3, lambda: fresh_validate(lib, fan))
    fan_violations = [str(v) for v in lib.validate(fan)]
    checks = {
        "snapshot_segments": [sum(len(leg.points) - 1 for loop in lib.loads(t).loops
                                  for leg in loop.legs) for t in texts],
        "snapshots_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
        "verdicts_sha256": digest(verdicts),
        "outcomes_sha256": digest(outcomes),
        "drops_sha256": digest(drops),
        "drop_checks": len(drops),
        "walks_sha256": digest(walks),
        "proper_pairs": len(pairs),
        "fallback_pairs": len(fallback),
        "pencil_violations": len(fan_violations),
        "pencil_sha256": digest(fan_violations),
        "chain_sha256": hashlib.sha256(chain_text.encode()).hexdigest(),
        "chain_moves": chain_moves,
        "svg_sha256": digest(cli.render_svg(lib.loads(t)) for t in texts + [chain_text]),
        "points_sha256": digest(lib.dumps(lib.loads(t)) for t in unreduced()),
    }
    for name, build, sizes in (("zigzag", zigzag, ZIGZAGS), ("quadrant", quadrant, QUADRANTS)):
        found, counts = [], []
        for n in sizes:
            d = build(lib, n)
            out[f"validate.{name}.ms@{n}"] = ("ms", 1e3, lambda d=d: fresh_validate(lib, d))
            cs = diagram.analysis(d).crossings
            found += [str(v) for v in lib.validate(d)] + [repr(c) for c in cs]
            counts.append(len(cs))
        checks[f"{name}_crossings"] = counts
        checks[f"{name}_sha256"] = digest(found)
    def seg(a, b, f=diagram._make_seg):
        # float(p.x) equals n / d, the float the structural check gives a record
        return f(0, a, b, (float(a.x), float(a.y)), (float(b.x), float(b.y)))

    for bits in BITS:
        drawn = draws(geometry.Point, bits, 4)

        def orient(ts=draws(geometry.Point, bits, 3), f=geometry.orient2d):
            for a, b, c in ts:
                f(a, b, c)

        def intersect(ts=drawn, f=geometry.segment_intersection):
            for a, b, c, e in ts:
                f(a, b, c, e)

        filtered = [(seg(a, b), seg(c, e)) for a, b, c, e in drawn]
        shared = [(seg(a, b), seg(b, e)) for a, b, c, e in drawn]
        out[f"orient2d.ns@{bits}bits"] = ("ns", 1e9 / DRAWS, orient)
        out[f"segment_intersection.ns@{bits}bits"] = ("ns", 1e9 / DRAWS, intersect)
        out[f"_meet.filtered.ns@{bits}bits"] = ("ns", 1e9 / DRAWS, lambda p=filtered: meet(p))
        out[f"_meet.shared_end.ns@{bits}bits"] = ("ns", 1e9 / DRAWS, lambda p=shared: meet(p))
    return out, checks


def read_rows(out: dict, lib, mods, size: int, text: str, checked, cases) -> None:
    """The rows of one snapshot that read or check it, moving nothing."""
    diagram, cli = mods["diagram"], mods["cli"]
    d = lib.loads(text)
    out[f"loads.ms@{size}"] = ("ms", 1e3, lambda: lib.loads(text))
    out[f"_structural_violations.ms@{size}"] = (
        "ms", 1e3, lambda: diagram._structural_violations(d, []))
    out[f"validate.ms@{size}"] = ("ms", 1e3, lambda: fresh_validate(lib, d))
    out[f"render_svg.ms@{size}"] = ("ms", 1e3, lambda: cli.render_svg(uncached(diagram, checked)))
    out[f"dumps.ms@{size}"] = ("ms", 1e3, lambda: lib.dumps(checked))
    out[f"invariants.us@{size}"] = ("us", 1e6, lambda: lib.invariants(uncached(diagram, checked)))
    out[f"crossings.us@{size}"] = ("us", 1e6, lambda: lib.crossings(uncached(diagram, checked)))

    def check_splices():
        for s in cases:
            first_violation(diagram, s)

    out[f"_structural_ok.us@{size}"] = ("us", 1e6 / len(cases), check_splices)


def sample(call, inner: int) -> float:
    start = time.perf_counter()
    for _ in range(inner):
        call()
    return (time.perf_counter() - start) / inner


def warm_up(call) -> float:
    """The median time of three warm-up calls, or of one that outlasts a
    sample: the count of calls per sample is then one anyway."""
    first = sample(call, 1)
    return first if first > SAMPLE_S else statistics.median([first, sample(call, 1), sample(call, 1)])


def summary(samples: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "n": len(samples)}


def wide(samples: list[float]) -> bool:
    """Whether the quartile spread of samples exceeds a quarter of their median."""
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q3 - q1 > q2 / 4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, metavar="[LABEL=]DIR",
                    help="a source tree holding rp2bouquet/; repeat to compare")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--reps", type=int, default=15, help="samples per row and source (default 15)")
    args = ap.parse_args(argv)
    if args.reps < 2:
        ap.error("--reps must be at least 2")
    tables, checks = {}, {}
    for spec in args.src:
        label, _, path = spec.rpartition("=")
        label, src = label or path, Path(path).resolve()
        tables[label], checks[label] = rows(*load(src))
        checks[label]["src_lines"] = sum(len(p.read_text().splitlines())
                                         for p in sorted((src / "rp2bouquet").glob("*.py")))
    labels = list(tables)
    samples = {label: {} for label in labels}
    for name in dict.fromkeys(name for label in labels for name in tables[label]):
        having = [label for label in labels if name in tables[label]]
        # the warm-up calls also warm each source's call up
        slowest = max(warm_up(tables[label][name][2]) for label in having)
        inner = max(1, int(SAMPLE_S / max(slowest, 1e-9)))
        for r in range(args.reps):
            for label in (having if r % 2 == 0 else having[::-1]):
                unit, scale, call = tables[label][name]
                samples[label].setdefault(name, []).append(sample(call, inner) * scale)
    noisy = {name for xs in samples.values() for name, x in xs.items() if wide(x)}
    first = labels[0]
    report = {
        "script": "scripts/bench_layers.py",
        "environment": {"python": platform.python_version(),
                        "implementation": platform.python_implementation(),
                        "machine": platform.machine(), "cpus": os.cpu_count()},
        "reps": args.reps,
        "sources": {label: {**checks[label],
                            "rows": {name: {"unit": tables[label][name][0], **summary(xs),
                                            **({"wide": True} if name in noisy else {})}
                                     for name, xs in samples[label].items()}}
                    for label in labels},
        # the median over reps of each sample's ratio to the first source's
        # sample taken next to it
        f"ratio_to_{first}": {label: {name: round(statistics.median(
            x / y for x, y in zip(xs, samples[first][name])), 3)
            for name, xs in samples[label].items() if name in samples[first]}
            for label in labels[1:]},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    differ = sorted({key for label in labels[1:] for key in checks[first]
                     if DECISIONS.search(key) and checks[label].get(key) != checks[first][key]})
    if differ:
        print(f"decisions differ from {first}'s: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
