"""The three seeded workloads, as closed loops in one thread.

Each workload has a set-up, which builds its inputs from the seed, and a unit
of work that the runner repeats until the measuring time is spent (whole
units only, so every unit has the same inputs whatever the program's speed):

* ``fuzz_campaign`` - unit: one acceptance-1 fuzz trial (n in {1, 2, 3},
  ``realize``, 20 ``random_move_applied`` steps with an ``invariants`` check
  after each), drawn exactly as ``cli.fuzz_trial`` draws it; units take the
  trials of n = 1, 2, 3 in turn.  Small diagrams; cost is spread over
  proposals, blocked moves, ``realize`` and invariants.
* ``long_chain`` - unit: one chain from a realized start, with n cycling
  1, 2, 3, that ends when the diagram reaches 300 segments (65-105 moves).
  The O(segments) work per move and big-rational predicates dominate.
  Ending on size rather than on a move count makes every chain visit the same
  sizes however fast its seed makes it grow, and the size is what lets a run
  hold ~10 chains: the cost of one chain varies by ~20% with its seed.
* ``classify`` - unit: one read-path round; no move is timed.  It realizes a
  batch of seeded tuples and classifies them back, enumerates all n = 4
  classes, and runs loads -> fresh validate -> invariants -> dumps ->
  render_svg on every diagram of a corpus built at set-up from snapshots
  along fixed chains (10-500 segments), then decides ``equiv`` on pairs.

Library calls go through the package attributes (``lib.realize`` ...), which
is where a traced run's wrappers are installed.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

from refclock import RefClock


@dataclass(frozen=True)
class Sizes:
    setup_reps: int
    fuzz_steps: int
    fuzz_min_trials: int
    fuzz_max_trials: int
    chain_segments: int                           # a chain ends on reaching this size
    chain_max_moves: int
    chain_min: int
    chain_max: int
    checkpoints: tuple[int, ...]                  # growth snapshots, in applied moves
                                                  # (every chain to 300 segments passes 60)
    realize_batch: int                           # tuples realized per classify round
    corpus_chains: tuple[tuple[int, int], ...]   # (n, target segment count)
    corpus_max_moves: int
    enum_n: int
    enum_count: int
    classify_min_samples: int
    classify_max_rounds: int
    capture_size: int                            # geometry inputs kept for replay
    replay_reps: int
    trace_units: tuple[int, int, int]            # fuzz trials, chains, classify rounds


# Minimums give each reported percentile at least ten samples beyond it:
# 100 trials for p90, 3 chains (~250 moves) and 200 corpus diagrams for p95.
FULL = Sizes(
    setup_reps=3,
    fuzz_steps=20, fuzz_min_trials=100, fuzz_max_trials=5000,
    chain_segments=300, chain_max_moves=400, chain_min=3, chain_max=60, checkpoints=(20, 60),
    realize_batch=24,
    corpus_chains=((1, 60), (2, 60), (3, 500)), corpus_max_moves=300,
    enum_n=4, enum_count=645120,
    classify_min_samples=200, classify_max_rounds=500,
    capture_size=4000, replay_reps=3,
    trace_units=(60, 3, 3),
)

# Snapshot sizes for the classify corpus: 10% apart, 10 to 500 segments, so
# that neighbouring diagrams cost about the same and percentiles move smoothly.
SNAPSHOT_SEGMENTS = (10, 11, 12, 13, 15, 16, 18, 19, 21, 24, 26, 29, 31, 35, 38, 42, 46, 51,
                     56, 61, 67, 74, 81, 90, 98, 108, 119, 131, 144, 159, 174, 192, 211,
                     232, 255, 281, 309, 340, 374, 411, 453, 500)


class Record:
    """What one phase of a run observed: timings, counts, checks, digests."""

    def __init__(self, tracer=None, clock: RefClock | None = None):
        self.tracer = tracer
        self.clock = clock if clock is not None else RefClock()
        self.samples: dict[str, list[float]] = defaultdict(list)   # wall seconds
        self.counts: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, "hashlib._Hash"] = {}
        self.snapshots: list[tuple[str, object]] = []   # (label, diagram), traced runs only

    def sample(self, name: str, start: float) -> None:
        """Record the wall time from `start` to now as one `name` sample."""
        self.samples[name].append(time.perf_counter() - start)

    def scaled(self, name: str) -> list[float]:
        """The `name` samples in reference seconds."""
        factor = self.clock.factor()
        return [v * factor for v in self.samples[name]]

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(message)

    def digest(self, name: str, text: str) -> None:
        self.digests.setdefault(name, hashlib.sha256()).update(text.encode() + b"\n")

    def snapshot(self, label: str, d) -> None:
        if self.tracer is not None:
            self.snapshots.append((label, d))

    def tick(self) -> None:
        """Let the reference clock sample the machine's speed if it is due."""
        self.clock.tick()

    def span(self, name: str, unit):
        return nullcontext() if self.tracer is None else self.tracer.span(name, unit)


def segment_count(d) -> int:
    return sum(1 for _ in d.iter_segments())


# ---------------------------------------------------------------------------
# fuzz_campaign
# ---------------------------------------------------------------------------

def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"rp2bouquet-fuzz:{seed}:{trial}")


def fuzz_setup(lib, seed: int, sizes: Sizes, rec: Record) -> dict[int, list[int]]:
    return {1: [], 2: [], 3: []}


def fuzz_unit(lib, trials: dict[int, list[int]], seed: int, sizes: Sizes, i: int,
              rec: Record) -> None:
    # Unit i runs the next acceptance trial whose n is i % 3 + 1: the trials
    # are cli.fuzz_trial's, stratified by n so every run has the same n mix.
    want, k = i % 3 + 1, i // 3
    chosen = trials[want]
    candidate = chosen[-1] + 1 if chosen else 0
    while len(chosen) <= k:
        if _trial_rng(seed, candidate).choice((1, 2, 3)) == want:
            chosen.append(candidate)
        candidate += 1
    trial = chosen[k]
    t0 = time.perf_counter()
    rng = _trial_rng(seed, trial)
    n = rng.choice((1, 2, 3))
    try:
        d = lib.realize(lib.random_tuple(n, rng.randrange(10 ** 9)))
    except lib.RealizationError as exc:
        rec.check(False, f"trial {trial}: realize failed: {exc}")
        return
    rec.check(True, "")
    reference = lib.invariants(d)
    specs = []
    for step in range(sizes.fuzz_steps):
        try:
            spec, d2 = lib.random_move_applied(d, rng.randrange(10 ** 9))
        except lib.Exhausted as exc:
            rec.check(False, f"trial {trial} step {step}: {exc}")
            break
        specs.append(spec)
        same = lib.invariants(d2) == reference
        rec.check(same, f"trial {trial} step {step}: invariants changed after {spec.kind}")
        if not same:
            break
        d = d2
    rec.sample("trial", t0)
    rec.counts["moves"] += len(specs)
    if i < sizes.fuzz_min_trials:
        for spec in specs:
            rec.digest("move_lines", spec.to_line())
    if sizes.fuzz_steps in sizes.checkpoints and len(specs) == sizes.fuzz_steps:
        rec.snapshot(f"at{sizes.fuzz_steps}", d)
    rec.snapshot("end", d)


# ---------------------------------------------------------------------------
# long_chain
# ---------------------------------------------------------------------------

def chain_setup(lib, seed: int, sizes: Sizes, rec: Record):
    return None


def chain_unit(lib, state, seed: int, sizes: Sizes, i: int, rec: Record) -> None:
    rng = random.Random(f"perfbench-chain:{seed}:{i}")
    n = i % 3 + 1
    try:
        d = lib.realize(lib.random_tuple(n, rng.randrange(10 ** 9)))
    except lib.RealizationError as exc:
        rec.check(False, f"chain {i}: realize failed: {exc}")
        return
    rec.check(True, "")
    reference = lib.invariants(d)
    for step in range(1, sizes.chain_max_moves + 1):
        move_seed = rng.randrange(10 ** 9)
        rec.tick()
        t0 = time.perf_counter()
        try:
            spec, d2 = lib.random_move_applied(d, move_seed)
        except lib.Exhausted as exc:
            rec.check(False, f"chain {i} move {step}: {exc}")
            return
        current = lib.invariants(d2)
        rec.sample("move", t0)
        rec.counts["moves"] += 1
        rec.check(current == reference, f"chain {i} move {step}: invariants changed")
        if current != reference:
            return
        if i < sizes.chain_min:
            rec.digest("move_lines", spec.to_line())
        if step in sizes.checkpoints:
            rec.snapshot(f"at{step}", d2)
        d = d2
        if segment_count(d) >= sizes.chain_segments:
            break
    rec.snapshot("end", d)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    text: str
    tuple: object


@dataclass
class ClassifyState:
    corpus: list[CorpusEntry]
    pairs: list[tuple[int, int]]     # corpus indices of consecutive snapshots of one chain


def classify_setup(lib, seed: int, sizes: Sizes, rec: Record) -> ClassifyState:
    """Grow chains and keep a JSON snapshot each time a size target is passed.

    The chains' seeds are fixed, not drawn from `seed`: a fresh validate at
    ~500 segments costs 130-260 ms depending on the chain, so a corpus drawn
    per seed would make classify's numbers depend mostly on which one big chain
    the seed gave.  The seed draws the realize sample and the equiv pairs.
    """
    rng = random.Random("perfbench-corpus")
    corpus: list[CorpusEntry] = []
    pairs: list[tuple[int, int]] = []
    for ci, (n, target) in enumerate(sizes.corpus_chains):
        t = lib.random_tuple(n, rng.randrange(10 ** 9))
        try:
            d = lib.realize(t)
        except lib.RealizationError as exc:
            rec.check(False, f"corpus chain {ci}: realize failed: {exc}")
            continue
        pending = [s for s in SNAPSHOT_SEGMENTS if s <= target]
        first = len(corpus)
        for move in range(sizes.corpus_max_moves + 1):
            size = segment_count(d)
            if pending and size >= pending[0]:
                corpus.append(CorpusEntry(lib.dumps(d), t))
                while pending and size >= pending[0]:
                    pending.pop(0)
            if not pending or move == sizes.corpus_max_moves:
                break
            rec.tick()
            try:
                _, d = lib.random_move_applied(d, rng.randrange(10 ** 9))
            except lib.Exhausted as exc:
                rec.check(False, f"corpus chain {ci}: {exc}")
                break
            same = lib.invariants(d) == t
            rec.check(same, f"corpus chain {ci} move {move}: invariants changed")
            if not same:
                break
        pairs.extend((k, k + 1) for k in range(first, len(corpus) - 1))
    return ClassifyState(corpus, pairs)


def classify_min_units(state: ClassifyState, sizes: Sizes) -> int:
    return max(1, -(-sizes.classify_min_samples // max(len(state.corpus), 1)))


def classify_unit(lib, state: ClassifyState, seed: int, sizes: Sizes, r: int,
                  rec: Record) -> None:
    # 1. realize a seeded batch and classify it back
    rng = random.Random(f"perfbench-realize:{seed}:{r}")
    realized = {}
    for k in range(sizes.realize_batch):
        n = k % 3 + 1
        t = lib.random_tuple(n, rng.randrange(10 ** 9))
        rec.tick()
        with rec.span("bench.realize", f"r{r}:t{k}"):
            t0 = time.perf_counter()
            try:
                d = lib.realize(t)
            except lib.RealizationError as exc:
                rec.check(False, f"realize {t.text()}: {exc}")
                continue
            got = lib.classify(d)
            rec.sample("realize", t0)
        rec.check(got == t, f"classify(realize({t.text()})) = {got.text()}")
        realized.setdefault(n, (d, t))
        if r == 0:
            rec.digest("tuples_and_dumps", got.text())

    # 2. enumerate every class for n = 4
    rec.tick()
    with rec.span("bench.enumerate", f"r{r}"):
        t0 = time.perf_counter()
        count = len(lib.enumerate_classes(sizes.enum_n))
        rec.sample("enumerate", t0)
    rec.check(count == sizes.enum_count,
              f"enumerate_classes({sizes.enum_n}) gave {count}, expected {sizes.enum_count}")

    # 3. the corpus: fresh objects, so validate sweeps from scratch
    loaded = []
    for k, entry in enumerate(state.corpus):
        rec.tick()
        with rec.span("bench.diagram", f"r{r}:d{k}"):
            t0 = time.perf_counter()
            d = lib.loads(entry.text)
            violations = lib.validate(d)
            if not violations:
                got = lib.invariants(d)
                text = lib.dumps(d)
                lib.render_svg(d)
            rec.sample("diagram", t0)
        rec.counts["diagrams"] += 1
        if violations:
            rec.check(False, f"corpus diagram {k}: {violations[0]}")
            loaded.append(None)
            continue
        rec.check(got == entry.tuple and text == entry.text,
                  f"corpus diagram {k}: invariants or dumps round trip differ")
        loaded.append(d)
        if r == 0:
            rec.digest("tuples_and_dumps", text)
            rec.snapshot("end", d)

    # 4. equiv: consecutive snapshots of a chain, and each snapshot against
    # this round's realized diagram with the same loop count
    checks = [(loaded[i], loaded[j], True) for i, j in state.pairs]
    for k, entry in enumerate(state.corpus):
        d_r, t_r = realized.get(entry.tuple.n, (None, None))
        if d_r is not None:
            checks.append((loaded[k], d_r, entry.tuple == t_r))
    rec.tick()
    with rec.span("bench.equiv", f"r{r}"):
        for a, b, expected in checks:
            if a is None or b is None:
                continue
            rec.check(lib.equiv(a, b) == expected, "equiv disagrees with the tuples")


@dataclass(frozen=True)
class Workload:
    name: str
    unit_span: str
    setup: object
    unit: object
    min_units: object
    max_units: object
    trace_units: object


WORKLOADS = {
    "fuzz_campaign": Workload(
        "fuzz_campaign", "bench.trial", fuzz_setup, fuzz_unit,
        lambda state, sizes: sizes.fuzz_min_trials, lambda sizes: sizes.fuzz_max_trials,
        lambda sizes: sizes.trace_units[0]),
    "long_chain": Workload(
        "long_chain", "bench.chain", chain_setup, chain_unit,
        lambda state, sizes: sizes.chain_min, lambda sizes: sizes.chain_max,
        lambda sizes: sizes.trace_units[1]),
    "classify": Workload(
        "classify", "bench.round", classify_setup, classify_unit,
        classify_min_units, lambda sizes: sizes.classify_max_rounds,
        lambda sizes: sizes.trace_units[2]),
}
