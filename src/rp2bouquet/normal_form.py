"""Synthesis of diagrams realizing a prescribed invariant value.

Every value of the invariant tuple is realizable, and :func:`realize` builds a
concrete witness:

* the 2n half-edge rays leave the vertex in the cyclic order spelled by the
  word, along the directions of an integer ladder of tan-half-angle
  parameters (monotone in angle, so the counterclockwise star order equals
  the ladder order);
* a loop with homotopy bit 0 is a one-leg petal: out along its first ray,
  around a chordal arc at a loop-specific radius, back along its second ray;
* a loop with homotopy bit 1 makes one trip through the seam at a reserved
  transition point, giving it two legs;
* finally each loop whose parity bit disagrees with the target receives one
  deliberate kink, which flips exactly that bit.

The construction is deterministic: a small ladder of global perturbations is
tried until the result passes full validation and classifies back to the
requested tuple (the first perturbation almost always succeeds); every rung
after the first also scales the petals apart, each by its own factor.

:func:`enumerate_classes` lists every invariant value for small n.  Since e1
is the least symbol and occurs once, the canonical spelling of a word starts
at e1 and, of its two directions, reads the lesser; so the words are e1 + p
for the permutations p of the other symbols with p <= reversed(p), met once
each and already in order.  The counts are 4, 48, 3840 for n = 1, 2, 3 and
grow as (2n-1)!/2 * 4^n, so the enumeration is capped at n = 4 (645120
classes, the largest size that is practical to materialize); larger n raises
:class:`LimitExceeded`.  The table is the product of the words with the h and
w bit tuples, built by ``invariants._class_rows`` with no Python call per
class: it allocates all the tuples at once and stores each field for the whole
table in one pass, so n = 4 costs about half what the constructor does.
"""

from __future__ import annotations

import random
from itertools import permutations, product
from math import factorial

from .geometry import Point, Rat, _seam_step, circle_point, pt, rat
from .diagram import BouquetDiagram, HalfEdge, Leg, LoopPath, _segment_gaps, validate
from .invariants import (CyclicWord, DuplicateSymbol, InvariantTuple, MissingSymbol, _class_rows,
                         invariants, inv3)
from .moves import EditSpec, MoveBlocked, apply_edit

__all__ = [
    "MAX_ENUM_N",
    "MAX_REALIZE_N",
    "RealizationError",
    "LimitExceeded",
    "realize",
    "enumerate_classes",
    "classify",
    "random_tuple",
]

MAX_ENUM_N = 4
MAX_REALIZE_N = 64


class RealizationError(ValueError):
    """The requested invariant tuple is malformed or could not be realized."""


class LimitExceeded(ValueError):
    """enumerate_classes was asked for more classes than it will materialize."""


def classify(d: BouquetDiagram) -> InvariantTuple:
    """The invariant tuple of a diagram (alias of :func:`invariants`)."""
    return invariants(d)


def _validate_tuple(t: InvariantTuple) -> int:
    try:
        canonical = CyclicWord.from_symbols(t.order.symbols)
    except (DuplicateSymbol, MissingSymbol):
        raise RealizationError("word must use each half-edge symbol exactly once") from None
    if canonical != t.order:
        raise RealizationError("word must be in canonical spelling")
    n = t.order.n
    for name, bits in (("h", t.h), ("w", t.w)):
        if len(bits) != n or any(b not in (0, 1) for b in bits):
            raise RealizationError(f"{name} must be a tuple of n bits")
    return n


def _arc_points(radius: Rat, u_from: int, u_to: int) -> list[Point]:
    """Chordal arc of the radius-scaled circle between two ladder parameters.

    Interior waypoints sit at quarter-integer parameters so that no waypoint
    lies exactly on another loop's integer-parameter ray from the vertex.
    """
    step = 1 if u_to > u_from else -1
    inner = [rat(4 * u_from + step * (2 * k + 1), 4) for k in range(2 * abs(u_to - u_from))]
    return [circle_point(u).scale(radius) for u in [rat(u_from), *inner, rat(u_to)]]


def _build_base(t: InvariantTuple, n: int, attempt: int) -> BouquetDiagram:
    # star position of each half-edge symbol: ladder parameter j - n
    position = {sym: j for j, sym in enumerate(t.order.symbols)}
    loops = []
    for i in range(n):
        u_a = position[HalfEdge(i, False)] - n
        u_b = position[HalfEdge(i, True)] - n
        if t.h[i] == 0:
            radius = rat(n + 1 + i, 2 * n + 2 + attempt)
            radius *= rat(64 * n + attempt * i, 64 * n + attempt * n)
            petal = [pt(0, 0)] + _arc_points(radius, u_a, u_b) + [pt(0, 0)]
            loops.append(LoopPath((Leg(tuple(petal)),)))
        else:
            inner = rat(i + 1, 8 * (n + 1) + attempt)
            s_a = circle_point(rat(u_a)).scale(inner)
            s_b = circle_point(rat(u_b)).scale(inner)
            q = circle_point(rat(7 * (n + 1 + i) + attempt, 7))
            entry = _seam_step(q, q - s_a)
            loops.append(LoopPath((
                Leg((pt(0, 0), s_a, q)),
                Leg((-q, entry, s_b, pt(0, 0))),
            )))
    return BouquetDiagram(n, pt(0, 0), tuple(loops))


def _flip_parity(d: BouquetDiagram, loop: int) -> BouquetDiagram:
    """Insert one kink on the loop, flipping exactly its parity bit."""
    for leg_i, leg in enumerate(d.loops[loop].legs):
        for seg_i in range(len(leg.points) - 1):
            gaps = sorted(_segment_gaps(d, (loop, leg_i, seg_i)), key=lambda g: g[1] - g[0],
                          reverse=True)
            for lo, hi in gaps[:2]:
                center = (lo + hi) / 2
                width = hi - lo
                for shrink in range(8):
                    w = width / (8 * 4 ** shrink)
                    for hsign in (1, -1):
                        h = (w / 8) * hsign
                        spec = EditSpec("SingleKink", loop, leg_i, seg_i, (center, w, h))
                        try:
                            return apply_edit(d, spec)
                        except MoveBlocked:
                            continue
    raise RealizationError(f"could not place a parity kink on loop {loop}")


_BUILD_ATTEMPTS = 80


def realize(t: InvariantTuple) -> BouquetDiagram:
    """A valid diagram whose invariant tuple is exactly t.

    Raises :class:`RealizationError` if t is malformed (each half-edge symbol
    must appear exactly once, the word must be canonical, the bit vectors must
    have one bit per loop) -- every well-formed tuple is realizable -- and,
    before building anything, if t has more than MAX_REALIZE_N (= 64) loops.
    """
    n = _validate_tuple(t)
    if n > MAX_REALIZE_N:
        raise RealizationError(f"realize is capped at n = {MAX_REALIZE_N}; got n = {n}")
    last = "no attempt succeeded"
    for attempt in range(_BUILD_ATTEMPTS):
        d = _build_base(t, n, attempt)
        if validate(d):
            last = f"base diagram not generic (attempt {attempt})"
            continue
        try:
            # a kink on loop i adds one self-crossing of loop i and keeps
            # every other crossing, so the other bits read here still hold
            for i, bit in enumerate(inv3(d)):
                if bit != t.w[i]:
                    d = _flip_parity(d, i)
        except RealizationError as exc:
            last = str(exc)
            continue
        if invariants(d) == t:
            return d
        last = f"self-check failed (attempt {attempt})"
    raise RealizationError(f"could not realize {t.text()}: {last}")


def enumerate_classes(n: int) -> list[InvariantTuple]:
    """All invariant values for n loops, sorted by (word, h, w).

    Each word is built directly in its canonical spelling (see the module
    docstring).  Every call builds every class anew and returns a new list.
    len(enumerate_classes(n)) = (2n-1)!/2 * 4^n for n >= 2, and 4 for n = 1.
    Capped at n <= MAX_ENUM_N (= 4); beyond that the list would exceed tens of
    millions of entries, so :class:`LimitExceeded` is raised.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ENUM_N:
        # the exact count is printed only while it is short (59 digits at n = 20)
        need = _class_count(n) if n <= 20 else "(2n-1)!/2 * 4^n"
        raise LimitExceeded(
            f"enumerate_classes is capped at n = {MAX_ENUM_N}; n = {n} would need {need} entries")
    anchor, *rest = [HalfEdge(i, inv) for i in range(n) for inv in (False, True)]
    words = [CyclicWord((anchor,) + p) for p in permutations(rest) if p <= p[::-1]]
    return _class_rows(words, list(product((0, 1), repeat=n)))


def _class_count(n: int) -> int:
    return max(factorial(2 * n - 1) // 2, 1) * 4 ** n


def random_tuple(n: int, seed: int) -> InvariantTuple:
    """A uniformly random invariant value, deterministic in (n, seed)."""
    rng = random.Random(f"rp2bouquet-tuple:{n}:{seed}")
    symbols = [HalfEdge(i, inv) for i in range(n) for inv in (False, True)]
    rng.shuffle(symbols)
    word = CyclicWord.from_symbols(symbols)
    h = tuple(rng.randrange(2) for _ in range(n))
    w = tuple(rng.randrange(2) for _ in range(n))
    return InvariantTuple(word, h, w)
