"""Regular-homotopy moves and non-regular control edits on bouquet diagrams.

Moves (:class:`MoveSpec`) realize regular homotopies, so applying one must
preserve the full invariant tuple; edits (:class:`EditSpec`) are deliberate
invariant breakers used as negative controls.  Everything is applied the same
way: a template polyline built from the spec's exact rational parameters is
spliced into the target loop, and the candidate result is then *checked*, not
trusted, in this order -

* the changed loop, the vertex star and the seam table must still be in
  generic position;
* in one pass over the changed segments, every contact must be a transversal
  crossing apart from all other crossings and from the vertex;
* every crossing of the input diagram must survive at its exact location
  (so a template never lands on top of existing geometry);
* the freshly created crossings must match the move's contract exactly, e.g.
  a kink pair adds two self-crossings of opposite sign and nothing else.

Any failure raises :class:`MoveBlocked` at the first certain violation: where
the contract fixes a count of new crossings, the pass stops once the count is
exceeded and every crossing on a replaced segment has been found again
("got more than 2").  There is no notion of an "almost legal" move.
Smallness never needs to be argued: the checks are exact.

Templates in segment-local coordinates (e = segment vector, v = left normal):

* curl - four points making one loop over the segment, one self-crossing
  whose sign is -sign(h) before seam transport;
* kink pair - two curls of opposite side on disjoint windows;
* detour - two curls of equal side followed by a short excursion through the
  seam (out at q, back in through a second transition at r close to -q),
  adding two seam crossings and shifting the signed index by exactly +-2;
* finger push - a rectangular finger over one other strand, two transversal
  crossings with it;
* seam reroute (edit) - replaces a window with a one-transition trip through
  the seam, flipping the loop's homotopy class bit;
* single kink (edit) - one curl, flipping the loop's parity bit;
* jiggle - no template: one interior point moves.  The crossings on its two
  segments may move with it, so instead of surviving they must keep their
  strands and frames, and the half-edges at the vertex must keep their order.

A builder returns only the legs it built.  Which segments it replaced, which
are new and where each kept segment moved all follow from one diff of the
loop's old segments against the new legs: a segment is kept when its two end
points are the very same objects.  Identity, not ==, decides, because a new
point can equal an old one in value (a jiggle onto a neighbour makes one), and
the segments at it must still be examined.  Applying a move only re-examines
the new segments; the analysis of the rest of the diagram is reused and
updated, which is what keeps long random move sequences cheap.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, ClassVar, Iterator

from .geometry import Point, Rat, SegKind, circle_point, mat_apply, rat, seam_reflection
from .diagram import (
    BouquetDiagram,
    Crossing,
    DiagramAnalysis,
    InvalidDiagram,
    Leg,
    LoopParam,
    LoopPath,
    Violation,
    _check_joint,
    _check_leg,
    _check_seam_table,
    _check_vertex_directions,
    _location_key,
    _make_seg,
    _meet,
    _pair_crossing,
    _reindexed,
    _set_analysis,
    _skip_pair,
    analysis,
)
from .invariants import _index_term, _star_word, canonical_cyclic_word

__all__ = [
    "MOVE_KINDS",
    "EDIT_KINDS",
    "MoveBlocked",
    "Exhausted",
    "MoveSpec",
    "EditSpec",
    "EditOutcome",
    "apply_move",
    "apply_edit",
    "apply_edit_outcome",
    "random_move",
    "random_move_applied",
    "random_edit",
]

MOVE_KINDS = ("KinkPair", "Detour", "FingerPush", "Jiggle", "Subdivide")
EDIT_KINDS = ("SingleKink", "SeamReroute")

_PARAM_COUNTS = {
    "KinkPair": 4,     # t1 t2 w h
    "Detour": 5,       # sigma t w uq ur
    "FingerPush": 7,   # t w loop2 leg2 seg2 s2 reach
    "Jiggle": 2,       # dx dy            (target's third index is the point)
    "Subdivide": 1,    # t
    "SingleKink": 3,   # t w h
    "SeamReroute": 3,  # t w uq
}


class MoveBlocked(RuntimeError):
    """The move cannot be applied here: the result would not be generic or
    would not satisfy the move's crossing contract."""


class Exhausted(RuntimeError):
    """random_move gave up after its retry budget."""


def _format_params(params: tuple[Rat, ...]) -> str:
    return " ".join(f"{p.numerator}/{p.denominator}" for p in params)


def _parse_rat(token: str) -> Rat:
    num, slash, den = token.partition("/")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator in {token!r}")
    return rat(int(num), den)


@dataclass(frozen=True)
class _Spec:
    """One move or edit: a kind, a target (loop, leg, segment) and the
    kind-specific rationals listed in the module docstring.

    Subclasses fix the kinds they accept and the noun their errors use; a
    spec equals only specs of its own class.
    """

    kind: str
    loop: int
    leg: int
    segment: int
    params: tuple[Rat, ...]

    _kinds: ClassVar[tuple[str, ...]] = ()
    _noun: ClassVar[str] = ""

    def __post_init__(self):
        if self.kind not in self._kinds:
            raise ValueError(f"unknown {self._noun} kind {self.kind!r}")
        if len(self.params) != _PARAM_COUNTS[self.kind]:
            raise ValueError(f"{self.kind} takes {_PARAM_COUNTS[self.kind]} params")
        if min(self.loop, self.leg, self.segment) < 0:
            raise ValueError("target indices must be non-negative")

    def to_line(self) -> str:
        return f"{self.kind} {self.loop} {self.leg} {self.segment} {_format_params(self.params)}"

    @classmethod
    def from_line(cls, line: str) -> "_Spec":
        tokens = line.split()
        if len(tokens) < 4:
            raise ValueError(f"malformed {cls._noun} line {line!r}")
        loop, leg, seg = (int(t) for t in tokens[1:4])
        return cls(tokens[0], loop, leg, seg, tuple(_parse_rat(t) for t in tokens[4:]))


class MoveSpec(_Spec):
    """One invariant-preserving move.

    `loop`, `leg`, `segment` address the spliced segment, except for Jiggle
    where the third index addresses the interior polyline point being moved.
    """

    _kinds = MOVE_KINDS
    _noun = "move"


class EditSpec(_Spec):
    """One deliberately non-regular edit (negative control)."""

    _kinds = EDIT_KINDS
    _noun = "edit"


# ---------------------------------------------------------------------------
# splice machinery
# ---------------------------------------------------------------------------

@dataclass
class _Splice:
    # what a builder returns: its legs but no segment addresses, since
    # _splice_window finds the replaced and the new segments by identity
    loop: int
    new_legs: tuple[Leg, ...]                           # all legs of `loop`, built and kept
    # the additions -> error message or None; with check_persistence off,
    # (every crossing found on the new segments, those on replaced ones)
    contract: Callable[..., str | None]
    check_persistence: bool = True                      # old crossing locations must survive
    # (n, counts, message): the contract fails once more than n additions are
    # counted (counts None: every one; a loop: its self-crossings), so the scan
    # may stop there with `message`
    cap: tuple[int, int | None, str] | None = None


def _changed_pairs(records, changed) -> Iterator[tuple]:
    """Pairs (changed record, other record) whose float boxes meet, in record
    order; _meet decides each pair exactly."""
    if not changed:
        return
    chkeys = {(u.loop, u.leg, u.seg) for u in changed}
    lox = min(u.fminx for u in changed)
    hix = max(u.fmaxx for u in changed)
    loy = min(u.fminy for u in changed)
    hiy = max(u.fmaxy for u in changed)
    near = [v for v in records
            if not (v.fmaxx < lox or v.fminx > hix or v.fmaxy < loy or v.fminy > hiy)]
    for u in changed:
        ku = (u.loop, u.leg, u.seg)
        for v in near:
            if v.fmaxx < u.fminx or v.fminx > u.fmaxx or v.fmaxy < u.fminy or v.fminy > u.fmaxy:
                continue  # disjoint for certain
            kv = (v.loop, v.leg, v.seg)
            if kv == ku or (kv in chkeys and kv <= ku) or _skip_pair(u, v):
                continue
            yield u, v


def _scan_changed(records, changed, locations: frozenset, removed: set, vertex: Point,
                  cap) -> tuple[list[Crossing], list[Crossing], set]:
    """One pass over the pairs of changed records: the crossings found, the
    additions among them (at no location of the input) and the location keys
    of all found.

    MoveBlocked at the first certain violation: a non-transversal contact, a
    crossing on another one or on the vertex, or more than `cap` allows once
    every location in `removed` (those on replaced segments) is found again,
    so that a destroyed crossing stays the reason when there is one.  The
    kept crossings are those of a valid diagram, apart from each other and
    from the vertex; their locations are `locations` minus `removed`.
    """
    limit, counts, message = cap or (float("inf"), None, "")
    found: list[Crossing] = []
    additions: list[Crossing] = []
    seen: set[tuple[int, int, int, int]] = set()
    refound = counted = 0
    for u, v in _changed_pairs(records, changed):
        res, frame = _meet(u, v)
        if res.kind is SegKind.DEGENERATE:
            raise MoveBlocked(f"template touches loop={v.loop} leg={v.leg} "
                              f"segment={v.seg} non-transversally")
        if res.kind is not SegKind.PROPER:
            continue
        c = _pair_crossing(u, v, res, frame)
        key = _location_key(res.point)
        if key in seen:
            raise MoveBlocked("two crossings would coincide")
        seen.add(key)
        found.append(c)
        if key in removed:
            refound += 1
        elif key in locations:
            raise MoveBlocked("two crossings would coincide")
        elif res.point == vertex:
            raise MoveBlocked("crossing would land on the vertex")
        else:
            additions.append(c)
            if counts is None or c.loop_a == c.loop_b == counts:
                counted += 1
        if counted > limit and refound == len(removed):
            raise MoveBlocked(message)
    return found, additions, seen


def _remap_crossing(c: Crossing, loop: int, moved: dict) -> Crossing:
    pa, pb = c.param_a, c.param_b
    if c.loop_a == loop and (pa.leg, pa.seg) in moved:
        pa = LoopParam(*moved[pa.leg, pa.seg], pa.frac)
    if c.loop_b == loop and (pb.leg, pb.seg) in moved:
        pb = LoopParam(*moved[pb.leg, pb.seg], pb.frac)
    if pa is c.param_a and pb is c.param_b:
        return c
    return Crossing(c.loop_a, c.loop_b, pa, pb, c.location, c.frame)


def _spliced(d: BouquetDiagram, splice: _Splice) -> BouquetDiagram:
    loops = list(d.loops)
    loops[splice.loop] = LoopPath(splice.new_legs)
    return BouquetDiagram(d.n, d.vertex, tuple(loops))


def _structural_ok(d2: BouquetDiagram, loop: int, new: list) -> Violation | None:
    """First generic-position violation of the candidate d2, or None.

    d2 differs from a valid diagram only in the `new` segments (leg, seg,
    a, b) of the spliced loop, so only conditions that read one of them can
    fail: leg conditions at their end points, joints next to them, the vertex
    star if a first or last segment changed, and the seam table if a joint
    was checked (a moved seam point always ends a new segment).  The verdict
    (and the first violation) is that of re-checking the whole loop, the
    vertex star and the seam table.
    """
    legs = d2.loops[loop].legs
    if not legs:
        return Violation("ShortLeg", loop)
    changed = {(k, s) for k, s, _, _ in new}
    by_leg: dict[int, list[int]] = {}
    for k, s in sorted(changed):
        by_leg.setdefault(k, []).append(s)
    viols: list[Violation] = []
    last = len(legs) - 1
    for ki, leg in enumerate(legs):
        if ki in by_leg or len(leg.points) < 2:
            _check_leg(viols, d2.vertex, loop, ki, leg, ki == 0, ki == last, by_leg.get(ki))
            if viols:
                return viols[0]
    joints = [ki for ki in range(last)
              if (ki, len(legs[ki].points) - 2) in changed or (ki + 1, 0) in changed]
    for ki in joints:
        _check_joint(viols, loop, ki, legs[ki], legs[ki + 1])
    if viols:
        return viols[0]
    if (0, 0) in changed or (last, len(legs[last].points) - 2) in changed:
        _check_vertex_directions(viols, d2)
    if joints:
        _check_seam_table(viols, d2)
    return viols[0] if viols else None


_record_loop = attrgetter("loop")


def _splice_window(records: tuple, d2: BouquetDiagram, loop: int) -> tuple:
    """(i, j, new, p, q): `new` lists the spliced loop's segments in d2 as
    (leg, seg, a, b), and new[p:q] replaces records[i:j].  Around this window
    the two versions share a prefix and a suffix of segments whose two end
    points are the very same objects (see the module docstring).
    """
    lo = bisect_left(records, loop, key=_record_loop)
    hi = bisect_right(records, loop, key=_record_loop)
    new = [(ki, si, pts[si], pts[si + 1]) for ki, leg in enumerate(d2.loops[loop].legs)
           for pts in (leg.points,) for si in range(len(pts) - 1)]
    n = min(hi - lo, len(new))
    p = 0
    while p < n and records[lo + p].a is new[p][2] and records[lo + p].b is new[p][3]:
        p += 1
    s = 0
    while s < n - p and records[hi - 1 - s].a is new[-1 - s][2] \
            and records[hi - 1 - s].b is new[-1 - s][3]:
        s += 1
    return lo + p, hi - s, new, p, len(new) - s


def _splice_records(records: tuple, loop: int, window: tuple) -> tuple[tuple, list, set, dict]:
    """The segment records of d2 from those of d and the splice window, the
    window's new records (to re-examine), the (leg, seg) keys it replaced and
    the new key of each kept segment that moved.  Prefix records are kept as
    they are, suffix records re-addressed, window records built afresh.
    """
    i, j, new, p, q = window
    ends = {(0, 0), new[-1][:2]}  # the segments at the vertex
    changed = [_make_seg(loop, k, s, a, b, (k, s) in ends) for k, s, a, b in new[p:q]]
    suffix = []
    moved = {}
    for r, (k, s, _, _) in zip(records[j:j + len(new) - q], new[q:]):
        if r.leg != k or r.seg != s or r.at_vertex != ((k, s) in ends):
            moved[r.leg, r.seg] = k, s
            r = _reindexed(r, k, s, (k, s) in ends)
        suffix.append(r)
    replaced = {(r.leg, r.seg) for r in records[i:j]}
    spliced = records[:i] + tuple(changed + suffix) + records[j + len(suffix):]
    return spliced, changed, replaced, moved


def _apply_splice(d: BouquetDiagram, splice: _Splice) -> tuple[BouquetDiagram, list[Crossing]]:
    base = analysis(d)
    if base.violations:
        raise InvalidDiagram(f"cannot move on an invalid diagram: {base.violations[0]}")
    d2 = _spliced(d, splice)
    window = _splice_window(base.records, d2, splice.loop)
    _, _, new, p, q = window
    bad = _structural_ok(d2, splice.loop, new[p:q])
    if bad is not None:
        raise MoveBlocked(f"result not generic: {bad}")

    # records only now: a point far outside the disk has no float box
    records, changed, replaced, moved = _splice_records(base.records, splice.loop, window)
    kept, dropped = _split_crossings(base, splice.loop, replaced)
    removed = {_location_key(c.location) for c in dropped}
    found, additions, found_locations = _scan_changed(
        records, changed, base.locations, removed, d2.vertex,
        splice.cap if splice.check_persistence else None)
    if not splice.check_persistence:
        err = splice.contract(found, dropped)
    elif not removed <= found_locations:
        raise MoveBlocked("an existing crossing would be destroyed")
    else:
        err = splice.contract(additions)
    if err:
        raise MoveBlocked(err)

    olds = [_remap_crossing(c, splice.loop, moved) for c in kept]
    _set_result(d2, base, olds, found, records, removed, found_locations)
    return d2, additions


def _split_crossings(base: DiagramAnalysis, loop: int,
                     replaced: set) -> tuple[list[Crossing], list[Crossing]]:
    """The crossings the splice keeps (not yet re-addressed) and those on
    replaced segments."""
    kept: list[Crossing] = []
    dropped: list[Crossing] = []
    for c in base.crossings:
        (dropped if c.involves(loop, replaced) else kept).append(c)
    return kept, dropped


def _set_result(d2: BouquetDiagram, base: DiagramAnalysis, olds: list[Crossing],
                found: list[Crossing], records: tuple, removed: set, found_locations: set) -> None:
    # re-addressing is monotone along the loop, so the kept crossings `olds`
    # are still sorted; only the few found ones are merged in
    for c in found:
        insort(olds, c, key=Crossing.sort_key)
    locations = base.locations.difference(removed).union(found_locations)
    _set_analysis(d2, DiagramAnalysis((), tuple(olds), records, locations))


def _get_segment(d: BouquetDiagram, loop: int, leg: int, seg: int) -> tuple[Point, Point]:
    try:
        lp = d.loops[loop]
        pts = lp.legs[leg].points
        if loop < 0 or leg < 0 or seg < 0 or seg >= len(pts) - 1:
            raise IndexError
        return pts[seg], pts[seg + 1]
    except IndexError:
        raise MoveBlocked(f"no segment ({loop}, {leg}, {seg})") from None


def _insert_chain(d: BouquetDiagram, loop: int, leg: int, seg: int,
                  inserted: tuple[Point, ...], contract, cap=None) -> _Splice:
    legs = d.loops[loop].legs
    pts = legs[leg].points
    new_leg = Leg(pts[:seg + 1] + inserted + pts[seg + 1:])
    return _Splice(loop, legs[:leg] + (new_leg,) + legs[leg + 1:], contract, cap=cap)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def _curl_points(a: Point, b: Point, t: Rat, w: Rat, h: Rat) -> tuple[Point, ...]:
    # one self-crossing between the first and last inserted segments, sign
    # -sign(h) before seam transport, located at a + t*e + (2h/3)*v
    e = b - a
    v = e.perp()
    return (
        a + e.scale(t - w),
        a + e.scale(t + w / 2) + v.scale(h),
        a + e.scale(t - w / 2) + v.scale(h),
        a + e.scale(t + w),
    )


def _window_ok(lo: Rat, hi: Rat) -> bool:
    return 0 < lo < hi < 1


def _build_kink_pair(d, spec) -> _Splice:
    t1, t2, w, h = spec.params
    if w <= 0 or h == 0 or not _window_ok(t1 - w, t1 + w) or not _window_ok(t2 - w, t2 + w) \
            or t1 + w >= t2 - w:
        raise MoveBlocked("kink windows must be disjoint and inside the segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    inserted = _curl_points(a, b, t1, w, h) + _curl_points(a, b, t2, w, -h)
    exactly = "kink pair must add exactly 2 crossings"

    def contract(additions: list[Crossing]) -> str | None:
        if len(additions) != 2:
            return f"{exactly}, got {len(additions)}"
        if any(c.loop_a != spec.loop or c.loop_b != spec.loop for c in additions):
            return "kink pair may only add self-crossings of the target loop"
        if sorted(_index_term(c) for c in additions) != [-1, 1]:
            return "kink pair crossings must have opposite signs"
        return None

    return _insert_chain(d, spec.loop, spec.leg, spec.segment, inserted, contract,
                         (2, None, f"{exactly}, got more than 2"))


def _build_single_kink(d, spec) -> _Splice:
    t, w, h = spec.params
    if w <= 0 or h == 0 or not _window_ok(t - w, t + w):
        raise MoveBlocked("kink window must sit inside the segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    inserted = _curl_points(a, b, t, w, h)
    exactly = "single kink must add exactly 1 crossing"

    def contract(additions: list[Crossing]) -> str | None:
        if len(additions) != 1:
            return f"{exactly}, got {len(additions)}"
        c = additions[0]
        if c.loop_a != spec.loop or c.loop_b != spec.loop:
            return "single kink may only add a self-crossing of the target loop"
        return None

    return _insert_chain(d, spec.loop, spec.leg, spec.segment, inserted, contract,
                         (1, None, f"{exactly}, got more than 1"))


def _seam_step(p: Point, d_out: Point) -> Point:
    """First interior point after entering at -p with the reflected direction."""
    return -p + mat_apply(seam_reflection(p), d_out).scale(rat(1, 32))


def _build_detour(d, spec) -> _Splice:
    sig_raw, t, w, uq, ur = spec.params
    if sig_raw not in (1, -1):
        raise MoveBlocked("detour sign must be +1 or -1")
    sigma = int(sig_raw)
    if w <= 0 or not _window_ok(t - w, t + w):
        raise MoveBlocked("detour window must sit inside the segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    e = b - a
    q = circle_point(uq)
    r = circle_point(ur)
    if r == q or r == -q:
        raise MoveBlocked("detour seam transitions must be distinct and non-antipodal")

    # curl side chosen so each curl contributes sigma at orientation +1
    hsign = -sigma if spec.leg % 2 == 0 else sigma
    h = (w / 8) * hsign
    curl_a = _curl_points(a, b, t - 3 * w / 4, w / 8, h)
    curl_b = _curl_points(a, b, t - w / 4, w / 8, h)
    x1 = a + e.scale(t + w / 4)
    x2 = a + e.scale(t + 3 * w / 4)
    g1 = q - x1
    if g1.is_zero() or (e.cross(g1) == 0 and e.dot(g1) < 0):
        raise MoveBlocked("detour exit folds back on the segment")
    y1 = _seam_step(q, g1)
    g2 = r - y1
    if g2.is_zero():
        raise MoveBlocked("degenerate detour turn")
    z1 = _seam_step(r, g2)

    legs = d.loops[spec.loop].legs
    pts = legs[spec.leg].points
    leg_a = Leg(pts[:spec.segment + 1] + curl_a + curl_b + (x1, q))
    leg_m = Leg((-q, y1, r))
    leg_b = Leg((-r, z1, x2) + pts[spec.segment + 1:])
    new_legs = legs[:spec.leg] + (leg_a, leg_m, leg_b) + legs[spec.leg + 1:]
    exactly = "detour must add exactly 2 self-crossings"

    def contract(additions: list[Crossing]) -> str | None:
        self_adds = [c for c in additions if c.loop_a == spec.loop and c.loop_b == spec.loop]
        if len(self_adds) != 2:
            return f"{exactly}, got {len(self_adds)}"
        if any(_index_term(c) != sigma for c in self_adds):
            return "detour curls must both carry the requested sign"
        return None

    return _Splice(spec.loop, new_legs, contract, cap=(2, spec.loop, f"{exactly}, got more than 2"))


def _build_seam_reroute(d, spec) -> _Splice:
    t, w, uq = spec.params
    if w <= 0 or not _window_ok(t - w, t + w):
        raise MoveBlocked("reroute window must sit inside the segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    e = b - a
    q = circle_point(uq)
    x1 = a + e.scale(t - w)
    x2 = a + e.scale(t + w)
    g1 = q - x1
    if g1.is_zero() or (e.cross(g1) == 0 and e.dot(g1) < 0):
        raise MoveBlocked("reroute exit folds back on the segment")
    z1 = _seam_step(q, g1)

    legs = d.loops[spec.loop].legs
    pts = legs[spec.leg].points
    leg_a = Leg(pts[:spec.segment + 1] + (x1, q))
    leg_b = Leg((-q, z1, x2) + pts[spec.segment + 1:])
    new_legs = legs[:spec.leg] + (leg_a, leg_b) + legs[spec.leg + 1:]
    # created crossings are unconstrained: the edit's index damage is reported,
    # not controlled
    return _Splice(spec.loop, new_legs, lambda adds: None)


def _build_finger_push(d, spec) -> _Splice:
    t, w, loop2_r, leg2_r, seg2_r, s2, reach = spec.params
    for v in (loop2_r, leg2_r, seg2_r):
        if v.denominator != 1 or v < 0:
            raise MoveBlocked("finger push strand indices must be non-negative integers")
    loop2, leg2, seg2 = int(loop2_r), int(leg2_r), int(seg2_r)
    if w <= 0 or not _window_ok(t - w, t + w) or not (0 < s2 < 1) or reach <= 0:
        raise MoveBlocked("finger push window parameters out of range")
    if (loop2, leg2, seg2) == (spec.loop, spec.leg, spec.segment):
        raise MoveBlocked("cannot push a segment across itself")
    if loop2 == spec.loop and leg2 == spec.leg and abs(seg2 - spec.segment) == 1:
        raise MoveBlocked("cannot push across an adjacent segment")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    c, dd = _get_segment(d, loop2, leg2, seg2)
    e = b - a
    target = c + (dd - c).scale(s2)
    center = a + e.scale(t)
    wvec = target - center
    if wvec.is_zero() or e.cross(wvec) == 0:
        raise MoveBlocked("finger direction is degenerate")
    x1 = a + e.scale(t - w)
    x2 = a + e.scale(t + w)
    f1 = x1 + wvec.scale(1 + reach)
    f2 = x2 + wvec.scale(1 + reach)
    inserted = (x1, f1, f2, x2)

    exactly = "finger push must add exactly 2 crossings"
    # the chosen strand moves along only if it lies later on the pushed leg
    later = (loop2, leg2) == (spec.loop, spec.leg) and seg2 > spec.segment
    expected_other = (loop2, leg2, seg2 + len(inserted) if later else seg2)
    vertical_keys = {(spec.loop, spec.leg, spec.segment + 1), (spec.loop, spec.leg, spec.segment + 3)}

    def contract(additions: list[Crossing]) -> str | None:
        if len(additions) != 2:
            return f"{exactly}, got {len(additions)}"
        seen_verticals = set()
        for cr in additions:
            sides = {
                (cr.loop_a, cr.param_a.leg, cr.param_a.seg),
                (cr.loop_b, cr.param_b.leg, cr.param_b.seg),
            }
            if expected_other not in sides:
                return "finger push crossing misses the chosen strand"
            seen_verticals |= sides & vertical_keys
        if len(seen_verticals) != 2:
            return "finger push must cross the strand with both fingers"
        if loop2 == spec.loop:
            if sum(_index_term(cr) for cr in additions) != 0:
                return "same-loop finger push crossings must cancel"
        elif any(cr.loop_a == cr.loop_b for cr in additions):
            return "cross-loop finger push may not add self-crossings"
        return None

    return _insert_chain(d, spec.loop, spec.leg, spec.segment, inserted, contract,
                         (2, None, f"{exactly}, got more than 2"))


def _build_subdivide(d, spec) -> _Splice:
    (t,) = spec.params
    if not (0 < t < 1):
        raise MoveBlocked("subdivision point must be interior")
    a, b = _get_segment(d, spec.loop, spec.leg, spec.segment)
    inserted = (a + (b - a).scale(t),)
    message = "subdividing must not create crossings"

    def contract(additions: list[Crossing]) -> str | None:
        return message if additions else None

    return _insert_chain(d, spec.loop, spec.leg, spec.segment, inserted, contract,
                         (0, None, message))


# ---------------------------------------------------------------------------
# jiggle (point move, no insertion)
# ---------------------------------------------------------------------------

def _crossing_signature(crs) -> list:
    return sorted(((c.loop_a, c.param_a.leg, c.param_a.seg),
                   (c.loop_b, c.param_b.leg, c.param_b.seg), c.frame) for c in crs)


def _build_jiggle(d: BouquetDiagram, spec: MoveSpec) -> _Splice:
    dx, dy = spec.params
    loop, k, idx = spec.loop, spec.leg, spec.segment
    try:
        legs = d.loops[loop].legs
        pts = legs[k].points
    except IndexError:
        raise MoveBlocked(f"no leg ({loop}, {k})") from None
    if not (1 <= idx <= len(pts) - 2):
        raise MoveBlocked("only interior polyline points can be jiggled")
    moved = pts[idx] + Point(dx, dy)
    new_leg = Leg(pts[:idx] + (moved,) + pts[idx + 1:])
    new_legs = legs[:k] + (new_leg,) + legs[k + 1:]
    # only a point next to V moves a half-edge, and only one of them (a
    # three-point one-leg loop is codirectional at V); moving one of 2n
    # half-edges can reorder the star but never reverse it, so the canonical
    # word decides as a comparison of rotations would
    next_to_v = (k, idx) in ((0, 1), (len(legs) - 1, len(pts) - 2))

    def contract(found: list[Crossing], dropped: list[Crossing]) -> str | None:
        if _crossing_signature(found) != _crossing_signature(dropped):
            return "jiggle would change the crossing pattern"
        if next_to_v and canonical_cyclic_word(_star_word(_spliced(d, splice))) \
                != canonical_cyclic_word(_star_word(d)):
            return "jiggle would reorder the vertex star"
        return None

    splice = _Splice(loop, new_legs, contract, check_persistence=False)
    return splice


# ---------------------------------------------------------------------------
# public application
# ---------------------------------------------------------------------------

_MOVE_BUILDERS = {
    "KinkPair": _build_kink_pair,
    "Detour": _build_detour,
    "FingerPush": _build_finger_push,
    "Jiggle": _build_jiggle,
    "Subdivide": _build_subdivide,
}

_EDIT_BUILDERS = {
    "SingleKink": _build_single_kink,
    "SeamReroute": _build_seam_reroute,
}


@dataclass(frozen=True)
class EditOutcome:
    """Result of a control edit plus its promised invariant damage.

    `parity_flip` is the predicted change (0 or 1) to the edited loop's
    index-parity bit: the parity of the number of self-crossings the edit
    created.  Pre-existing crossings only ever have their signed-index
    contribution flipped by +-2, which cannot move the parity.
    """

    diagram: BouquetDiagram
    loop: int
    created_self: int

    @property
    def parity_flip(self) -> int:
        return self.created_self % 2


def apply_move(d: BouquetDiagram, spec: MoveSpec) -> BouquetDiagram:
    """Apply an invariant-preserving move; raise MoveBlocked if illegal here.

    The returned diagram is freshly validated (incrementally) and carries its
    updated crossing analysis, so chains of moves stay cheap.
    """
    d2, _ = _apply_splice(d, _MOVE_BUILDERS[spec.kind](d, spec))
    return d2


def apply_edit_outcome(d: BouquetDiagram, spec: EditSpec) -> EditOutcome:
    """Apply a control edit and report the self-crossings it created."""
    d2, additions = _apply_splice(d, _EDIT_BUILDERS[spec.kind](d, spec))
    created = sum(1 for c in additions if c.loop_a == spec.loop and c.loop_b == spec.loop)
    return EditOutcome(d2, spec.loop, created)


def apply_edit(d: BouquetDiagram, spec: EditSpec) -> BouquetDiagram:
    """Apply a non-regular control edit; raise MoveBlocked if illegal here."""
    return apply_edit_outcome(d, spec).diagram


# ---------------------------------------------------------------------------
# random proposals
# ---------------------------------------------------------------------------

def _segment_keys(d: BouquetDiagram) -> list[tuple[int, int, int]]:
    return [(li, ki, si) for li, ki, si, _, _ in d.iter_segments()]


def _segment_gaps(d: BouquetDiagram, key: tuple[int, int, int]) -> list[tuple[Rat, Rat]]:
    """The parameter intervals of segment `key` free of crossings, in order."""
    loop, leg, seg = key
    fracs = []
    for c in analysis(d).crossings:
        if c.loop_a == loop and c.param_a.leg == leg and c.param_a.seg == seg:
            fracs.append(c.param_a.frac)
        if c.loop_b == loop and c.param_b.leg == leg and c.param_b.seg == seg:
            fracs.append(c.param_b.frac)
    cuts = [rat(0)] + sorted(fracs) + [rat(1)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _free_window(d, rng: random.Random, key) -> tuple[Rat, Rat] | None:
    """A (center, halfwidth) window on the segment avoiding existing crossings."""
    gaps = _segment_gaps(d, key)
    if not gaps:
        return None
    lo, hi = gaps[rng.randrange(len(gaps))]
    width = hi - lo
    center = lo + width * rat(rng.randrange(7, 14), 20)
    half = width * rat(rng.randrange(2, 5), 20)
    if not _window_ok(center - half, center + half):
        return None
    return center, half


def _rand_rat(rng: random.Random, lo_num: int, hi_num: int, den: int) -> Rat:
    return rat(rng.randrange(lo_num, hi_num), den)


def _outward_u(p: Point, rng: random.Random) -> Rat | None:
    """Tan-half-angle of roughly the outward radial direction at p.

    Float arithmetic here only steers the proposal; all applied geometry
    stays exact.  Returns None near the vertex or near the left pole, where
    the caller falls back to uniform sampling.
    """
    fx, fy = float(p.x), float(p.y)
    norm = (fx * fx + fy * fy) ** 0.5
    if norm < 1e-9:
        return None
    den = norm + fx
    if abs(den) < 1e-9:
        return None
    u = fy / den
    if abs(u) > 12:
        return None
    return rat(round(u * 64) + rng.randrange(-6, 7), 64)


def _seam_u(d: BouquetDiagram, rng: random.Random, key, center: Rat) -> Rat:
    """Tan-half-angle of a seam exit for a window centred at `center` on
    segment `key`: mostly roughly outward from there, otherwise uniform."""
    uq = None
    if rng.random() < 0.75:
        a, b = d.segment(*key)
        uq = _outward_u(a + (b - a).scale(center), rng)
    if uq is None:
        uq = _rand_rat(rng, -48, 49, 16)
    return uq


def _propose_move(d: BouquetDiagram, rng: random.Random) -> MoveSpec | None:
    kind = rng.choices(MOVE_KINDS, weights=(24, 14, 20, 27, 15))[0]
    keys = _segment_keys(d)
    loop, leg, seg = keys[rng.randrange(len(keys))]

    if kind == "Jiggle":
        lp = d.loops[loop]
        pts = lp.legs[leg].points
        if len(pts) < 3:
            return None
        idx = rng.randrange(1, len(pts) - 1)
        # moving a point next to a seam endpoint always breaks the joint
        if idx == 1 and leg > 0:
            return None
        if idx == len(pts) - 2 and leg < len(lp.legs) - 1:
            return None
        d1 = pts[idx] - pts[idx - 1]
        d2 = pts[idx + 1] - pts[idx]
        scale = min(max(abs(d1.x), abs(d1.y)), max(abs(d2.x), abs(d2.y)))
        if scale == 0:
            return None
        dx = scale * _rand_rat(rng, -40, 41, 256)
        dy = scale * _rand_rat(rng, -40, 41, 256)
        if dx == 0 and dy == 0:
            return None
        return MoveSpec("Jiggle", loop, leg, idx, (dx, dy))

    window = _free_window(d, rng, (loop, leg, seg))
    if window is None:
        return None
    center, half = window

    if kind == "Subdivide":
        return MoveSpec("Subdivide", loop, leg, seg, (center,))

    if kind == "KinkPair":
        w = half / 4
        t1 = center - half / 2
        t2 = center + half / 2
        h = w * rat(rng.choice([-1, 1]), 4)
        return MoveSpec("KinkPair", loop, leg, seg, (t1, t2, w, h))

    if kind == "Detour":
        sigma = rng.choice([1, -1])
        uq = _seam_u(d, rng, (loop, leg, seg), center)
        if uq == 0:
            return None
        tilt = rat(rng.choice([-1, 1]) * rng.randrange(1, 12), 96)
        ur = -1 / uq + tilt
        return MoveSpec("Detour", loop, leg, seg, (rat(sigma), center, half, uq, ur))

    # FingerPush: aim at some other strand
    others = [key for key in keys if key != (loop, leg, seg)
              and not (key[0] == loop and key[1] == leg and abs(key[2] - seg) == 1)]
    if not others:
        return None
    loop2, leg2, seg2 = others[rng.randrange(len(others))]
    s2 = _rand_rat(rng, 5, 16, 20)
    reach = _rand_rat(rng, 2, 9, 16)
    w = half / 2
    return MoveSpec("FingerPush", loop, leg, seg,
                    (center, w, rat(loop2), rat(leg2), rat(seg2), s2, reach))


_RETRY_BUDGET = 10_000


def random_move_applied(d: BouquetDiagram, seed: int) -> tuple[MoveSpec, BouquetDiagram]:
    """Deterministically propose and apply one legal random move."""
    rng = random.Random(f"rp2bouquet-move:{seed}")
    for _ in range(_RETRY_BUDGET):
        spec = _propose_move(d, rng)
        if spec is None:
            continue
        try:
            return spec, apply_move(d, spec)
        except MoveBlocked:
            continue
    raise Exhausted(f"no legal move found in {_RETRY_BUDGET} attempts (seed {seed})")


def random_move(d: BouquetDiagram, seed: int) -> MoveSpec:
    """A random move that is guaranteed to apply legally to d.

    Deterministic in (d, seed); retries internally and raises
    :class:`Exhausted` after 10000 failed proposals.
    """
    spec, _ = random_move_applied(d, seed)
    return spec


def random_edit(d: BouquetDiagram, seed: int, kind: str | None = None) -> tuple[EditSpec, EditOutcome]:
    """Deterministically propose and apply one legal random control edit."""
    rng = random.Random(f"rp2bouquet-edit:{seed}")
    kinds = EDIT_KINDS if kind is None else (kind,)
    for _ in range(_RETRY_BUDGET):
        pick = kinds[rng.randrange(len(kinds))]
        keys = _segment_keys(d)
        loop, leg, seg = keys[rng.randrange(len(keys))]
        window = _free_window(d, rng, (loop, leg, seg))
        if window is None:
            continue
        center, half = window
        if pick == "SingleKink":
            w = half / 2
            h = w * rat(rng.choice([-1, 1]), 4)
            spec = EditSpec("SingleKink", loop, leg, seg, (center, w, h))
        else:
            uq = _seam_u(d, rng, (loop, leg, seg), center)
            if uq == 0:
                continue
            spec = EditSpec("SeamReroute", loop, leg, seg, (center, half, uq))
        try:
            return spec, apply_edit_outcome(d, spec)
        except MoveBlocked:
            continue
    raise Exhausted(f"no legal edit found in {_RETRY_BUDGET} attempts (seed {seed})")
