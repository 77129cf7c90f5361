"""Immersed bouquet diagrams in the disk model of the projective plane.

A *bouquet* of n circles is n loops sharing a single base vertex V.  A diagram
records a generic immersion of the bouquet into RP^2 as exact rational
polylines in the closed unit disk:

* a :class:`Leg` is a polyline that stays inside the open disk except possibly
  at its two endpoints, which may lie on the seam (the boundary circle) or at
  the vertex;
* a :class:`LoopPath` chains legs together: each loop starts at V, ends at V,
  and consecutive legs hand over through the seam at exactly antipodal points
  with matching differentials (see :func:`rp2bouquet.geometry.seam_reflection`);
* a :class:`BouquetDiagram` owns the vertex and the n loops.

"Generic position" is decided exactly by :func:`validate`: all the familiar
transversality conditions (no tangencies, no triple points, no crossing at the
vertex, distinct non-antipodal seam points, no cusps in the PL sense, distinct
half-edge directions at V) become sign conditions on rational determinants.
Every other operation in the package requires a diagram that validates
cleanly, and :func:`crossings` refuses to run on anything else.

A diagram keeps its :class:`DiagramAnalysis`.  _analyze builds it from
scratch; _apply_splice, through which every move and edit goes, updates the
parent's for the new segments only: each segment record and each crossing off
the splice's window is kept as the very same object, so a splice moves,
rebuilds and re-sorts nothing past its window.  The public :class:`Crossing`
tuple and the vertex star are built from the kept analysis on first use.  A
kept analysis must agree exactly with a rebuilt one (``rp2bouquet fuzz
--cross-check`` compares them).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from itertools import accumulate, chain, compress, count, islice, starmap
from math import gcd
from operator import eq
from typing import Callable, Iterator

from .geometry import (
    Point,
    Rat,
    SegKind,
    _direction,
    _kind,
    _point,
    _proper_ints,
    _reflect,
    angle_sort,
    on_unit_circle,
    orient2d,
    rat,
    unit_circle_side,
)

__all__ = [
    "HalfEdge",
    "Leg",
    "LoopPath",
    "BouquetDiagram",
    "LoopParam",
    "Crossing",
    "Violation",
    "InvalidDiagram",
    "DiagramFormatError",
    "validate",
    "crossings",
    "vertex_directions",
    "to_json_obj",
    "from_json_obj",
    "dumps",
    "loads",
]


class InvalidDiagram(ValueError):
    """Operation requires a diagram in generic position and this one is not."""


class DiagramFormatError(ValueError):
    """The serialized form could not be parsed into a diagram."""


class MoveBlocked(RuntimeError):
    """The move cannot be applied here: the result would not be generic or
    would not satisfy the move's crossing contract."""


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

_SYMBOL_RE = re.compile(r"^e([1-9][0-9]*)(\^-1)?$")


@dataclass(frozen=True, slots=True, order=True)
class HalfEdge:
    """One of the 2n half-edge symbols at the vertex: e_i or e_i^-1.

    Ordering is e1 < e1^-1 < e2 < e2^-1 < ..., which is the symbol order used
    when canonical cyclic words are compared lexicographically.
    """

    loop: int
    inverted: bool

    def __str__(self) -> str:
        return f"e{self.loop + 1}" + ("^-1" if self.inverted else "")

    @staticmethod
    def parse(text: str) -> "HalfEdge":
        m = _SYMBOL_RE.match(text)
        if not m:
            raise DiagramFormatError(f"bad half-edge symbol {text!r}")
        return HalfEdge(int(m.group(1)) - 1, m.group(2) is not None)


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Leg:
    """A polyline between seam/vertex endpoints; at least two points."""

    points: tuple[Point, ...]


@dataclass(frozen=True, slots=True)
class LoopPath:
    """One loop of the bouquet: legs chained through the seam."""

    legs: tuple[Leg, ...]

    @property
    def seam_crossings(self) -> int:
        return len(self.legs) - 1

    def first_direction(self) -> Point:
        leg = self.legs[0]
        return leg.points[1] - leg.points[0]

    def last_direction(self) -> Point:
        leg = self.legs[-1]
        return leg.points[-1] - leg.points[-2]


@dataclass(frozen=True)
class BouquetDiagram:
    """n loops based at a common vertex strictly inside the unit disk."""

    n: int
    vertex: Point
    loops: tuple[LoopPath, ...]

    def segment(self, loop: int, leg: int, seg: int) -> tuple[Point, Point]:
        pts = self.loops[loop].legs[leg].points
        return pts[seg], pts[seg + 1]

    def iter_segments(self) -> Iterator[tuple[int, int, int, Point, Point]]:
        for li, loop in enumerate(self.loops):
            for ki, leg in enumerate(loop.legs):
                pts = leg.points
                for si in range(len(pts) - 1):
                    yield li, ki, si, pts[si], pts[si + 1]


@dataclass(frozen=True, slots=True, order=True)
class LoopParam:
    """Position along a loop: (leg, segment, fraction), fraction in (0, 1).

    Lexicographic order on the triple is the traversal order of the loop.
    """

    leg: int
    seg: int
    frac: Rat


@dataclass(frozen=True, slots=True)
class Crossing:
    """A transversal double point.

    For a self-crossing (loop_a == loop_b) the two parameters are ordered
    param_a < param_b; for distinct loops, loop_a < loop_b.  `frame` is the
    orientation sign of the ordered frame (direction at param_a, direction at
    param_b): +1 for a counterclockwise frame.
    """

    loop_a: int
    loop_b: int
    param_a: LoopParam
    param_b: LoopParam
    location: Point
    frame: int

    def sort_key(self):
        return (self.loop_a, self.param_a, self.loop_b, self.param_b)


@dataclass(frozen=True, slots=True)
class Violation:
    """One failed generic-position condition, with enough indices to find it."""

    kind: str
    loop: int | None = None
    leg: int | None = None
    segment: int | None = None
    note: str = ""

    def __str__(self) -> str:
        parts = [self.kind]
        for label, value in (("loop", self.loop), ("leg", self.leg), ("segment", self.segment)):
            if value is not None:
                parts.append(f"{label}={value}")
        if self.note:
            parts.append(self.note)
        return " ".join(parts)


@dataclass(frozen=True)
class DiagramAnalysis:
    """Cached result of validating a diagram.

    For a valid diagram `records` holds its segment records (see
    :class:`_Seg`) in (loop, leg, seg) order, built by the structural check
    (:func:`_check_leg`) from the floats it decides on, so that a splice
    (:func:`_apply_splice`) can update them instead of rebuilding them.  A
    record holds no position: `leg_starts` holds the rows of
    :func:`_leg_starts`, the index of each leg's first record, and
    :func:`_position` finds a record's (leg, seg) from its index by one
    bisect.  `pairs` holds each crossing in no fixed order, in the kept form
    (a, b, frame, ints) that :func:`_meet` gives on its strands' records in
    record order, which names its strands by their records, not their
    positions, and its location by unreduced ints (see :func:`_located`).
    A splice thus keeps every record and crossing off its window as it is.
    `crossings`, the public sorted tuple, and `star`, the half-edges around
    V, are built on first use and cached (so dataclasses.replace drops
    them); only :func:`crossings` and the fuzz cross-check build the tuple,
    as the invariants and the renderer read `pairs`.
    `w` holds each loop's self-crossing count mod 2 (see :func:`_flipped`).
    `pairs`, `records`, `leg_starts` and `w` are empty for an invalid diagram.
    """

    violations: tuple[Violation, ...]
    pairs: tuple = field(default=(), compare=False, repr=False)
    records: tuple = field(default=(), compare=False, repr=False)
    leg_starts: tuple = field(default=(), compare=False, repr=False)
    w: tuple[int, ...] = ()

    @cached_property
    def crossings(self) -> tuple[Crossing, ...]:
        order, index = _crossing_order(self)
        return tuple(_pair_crossing(self.leg_starts, a, b, index[id(a)], index[id(b)], frame, ints)
                     for a, b, frame, ints in order)

    @cached_property
    def star(self) -> tuple[HalfEdge, ...]:
        # each loop's first record leaves V and its last one enters it
        star = []
        for li, row in enumerate(self.leg_starts):
            s, t = self.records[row[0]], self.records[row[-1] - 1]
            star += (HalfEdge(li, False), _direction(s.a, s.b)), (HalfEdge(li, True), _direction(t.b, t.a))
        return _star_order(star)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _check_leg(out: list[Violation], vertex: Point, li: int, ki: int, leg: Leg,
               is_first: bool, is_last: bool, segs: range) -> list[_Seg]:
    """The leg conditions that read one of the segments `segs`, i.e. those at
    their end points; range(len(leg.points) - 1) checks the whole leg.  Floats
    decide where _B, _bound or _C makes them certain, exact predicates everywhere else.
    Returns the records of `segs`, built from those floats, while `out` holds
    no violation, else []: a point with no floats (outside [-1, 1]^2) is always
    reported, by this leg or by VertexOutsideDisk before it."""
    pts = leg.points
    if len(pts) < 2:
        out.append(Violation("ShortLeg", li, ki))
        return []
    end, o, points = len(pts) - 1, segs[0], range(segs[0], segs[-1] + 2)
    # g[i - o + 1]: the floats of point i, for `points` and one more each side;
    # None outside [-1, 1]^2, so that no huge numerator overflows float()
    g = [None] if o == 0 else []
    for p in pts[max(o - 1, 0):segs[-1] + 3]:
        xn, xd = p.xn, p.xd
        yn, yd = p.yn, p.yd
        g.append((xn / xd, yn / yd) if -xd <= xn <= xd and -yd <= yn <= yd else None)
    for i in segs:
        if g[i - o + 1] == g[i - o + 2] and pts[i] == pts[i + 1]:  # unequal g: unequal points
            out.append(Violation("RepeatedPoint", li, ki, i))
    for i in points:
        if 0 < i < end:
            f0, f1, f2 = g[i - o], g[i - o + 1], g[i - o + 2]
            if f0 and f1 and f2:
                ex, ey, gx, gy = f1[0] - f0[0], f1[1] - f0[1], f2[0] - f1[0], f2[1] - f1[1]
                turn, step = ex * gy - ey * gx, ex * gx + ey * gy
                if abs(turn) > _B or step > _B:
                    continue  # a certain turn or step forward is no cusp
                r = _bound(abs(ex) + abs(ey), abs(gx) + abs(gy))
                if abs(turn) > r or step > r:
                    continue
            # positive multiples of p1 - p0 and p2 - p1: a cusp is an exact reversal
            u, v = _direction(pts[i - 1], pts[i]), _direction(pts[i], pts[i + 1])
            if u.xn * v.yn == u.yn * v.xn and u.xn * v.xn + u.yn * v.yn < 0:
                out.append(Violation("Cusp", li, ki, i, "exact direction reversal"))
    for i in points:
        if 0 < i < end:
            f = g[i - o + 1]  # None: outside [-1, 1]^2, so outside the disk
            q = f[0] * f[0] + f[1] * f[1] - 1.0 if f else 1.0
            side = 1 if q > _C else -1 if q < -_C else unit_circle_side(pts[i])
            if side > 0:
                out.append(Violation("PointOutsideDisk", li, ki, i))
            elif side == 0:
                out.append(Violation("PointOnCircle", li, ki, i, "non-seam point on the seam circle"))
    for idx, must_be_vertex in ((0, is_first), (end, is_last)):
        if idx not in points:
            continue
        p = pts[idx]
        if must_be_vertex:
            if p != vertex:
                out.append(Violation("LoopEndpointNotVertex", li, ki, idx))
        else:
            if not on_unit_circle(p):
                out.append(Violation("SeamPointOffCircle", li, ki, idx))
    return [] if out else [_make_seg(li, a, b, fa, fb) for a, b, fa, fb
                           in zip(pts[o:segs[-1] + 1], pts[o + 1:], g[1:], g[2:])]


def _check_joint(out: list[Violation], li: int, ki: int, a: Leg, b: Leg) -> None:
    """The seam hand-over from leg `ki` (a) to leg `ki + 1` (b)."""
    if len(a.points) < 2 or len(b.points) < 2:
        return
    p, q = a.points[-1], b.points[0]
    if not on_unit_circle(p) or not on_unit_circle(q):
        return  # already reported as SeamPointOffCircle
    if q != -p:
        out.append(Violation("SeamNotAntipodal", li, ki, note="legs must rejoin at the antipode"))
        return
    d_out = _direction(a.points[-2], p)
    d_in = _direction(q, b.points[1])
    if d_out.is_zero() or d_in.is_zero():
        return
    # p = (x, y) / c (unit-circle points have equal denominators in lowest terms),
    # and w = c^2 M(p) d_out, a positive multiple of M(p) (p - a[-2])
    wx, wy = _reflect(p.xn, p.yn, d_out.xn, d_out.yn)
    if not (wx * d_in.yn == wy * d_in.xn and wx * d_in.xn + wy * d_in.yn > 0):
        out.append(Violation("SeamRegularity", li, ki,
                             note="entry direction must match the reflected exit direction"))


def _equal_key_pairs(keys: list) -> list[tuple[int, int]]:
    """Pairs (i, j), in order, of each j and the least i < j with keys[i] ==
    keys[j] (None equals nothing); any other equality follows through i."""
    groups: dict = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    return sorted((group[0], j) for group in groups.values() for j in group[1:])


def _ray(v: Point):
    """A key that codirectional nonzero int vectors share exactly; None for 0."""
    g = gcd(v.xn, v.yn)  # _direction's denominators are 1
    return (v.xn // g, v.yn // g) if g else None


def _star(d: BouquetDiagram) -> list[tuple[HalfEdge, Point]]:
    """vertex_directions(d) with each direction an int vector (_direction)."""
    out: list[tuple[HalfEdge, Point]] = []
    for li, loop in enumerate(d.loops):
        first, last = loop.legs[0].points, loop.legs[-1].points
        out.append((HalfEdge(li, False), _direction(first[0], first[1])))
        out.append((HalfEdge(li, True), _direction(last[-1], last[-2])))
    return out


def _star_order(star: list[tuple[HalfEdge, Point]]) -> tuple[HalfEdge, ...]:
    """The half-edges of `star` counterclockwise around V from direction
    (1, 0); angular order ignores a positive factor, so _star's int vectors do."""
    return tuple(star[i][0] for i in angle_sort([direction for _, direction in star]))


def _canonical(symbols: tuple[HalfEdge, ...]) -> tuple[HalfEdge, ...]:
    # e1, the least symbol, occurs once, so the least rotation starts there
    i = symbols.index(HalfEdge(0, False))
    forward = symbols[i:] + symbols[:i]
    return min(forward, forward[:1] + forward[:0:-1])


def _check_vertex_directions(out: list[Violation], d: BouquetDiagram) -> None:
    """Codirectional half-edges at V; every leg has at least two points."""
    star = _star(d)
    for i, j in _equal_key_pairs([_ray(v) for _, v in star]):
        li, lj = star[i][0].loop, star[j][0].loop
        out.append(Violation("CodirectionalAtVertex", li,
                             note=f"half-edges of loops {li} and {lj}"))


def _check_seam_table(out: list[Violation], d: BouquetDiagram) -> None:
    exits: list[tuple[int, Point]] = []
    for li, loop in enumerate(d.loops):
        for leg in loop.legs[:-1]:
            exits.append((li, leg.points[-1]))
    # a point and its antipode share a key: negation keeps the denominators
    keys = [max((p.xn, p.yn), (-p.xn, -p.yn)) + (p.xd, p.yd) for _, p in exits]
    for i, j in _equal_key_pairs(keys):
        (li, p), (lj, q) = exits[i], exits[j]
        kind = "CoincidentSeamPoints" if p == q else "AntipodalSeamPoints"
        out.append(Violation(kind, li, note=f"loops {li} and {lj}"))


def _structural(out: list[Violation], d: BouquetDiagram, windows: dict, records: list) -> bool:
    """The structural checks of d that read a segment of `windows` (loop ->
    its (leg, range of segments) pairs, as _check_leg takes them): per loop in
    order, ShortLeg for no legs, else _check_leg on each window and the joints
    at the leg ends they reach; then, while `out` is empty, the vertex star if
    a first or last segment was reached and the seam table if a joint was (a
    seam point ends a segment).  `records` gets the records while `out` is
    empty.  Returns whether a first or last segment (a half-edge's) was reached."""
    star = seam = False
    for li, wins in windows.items():
        legs = d.loops[li].legs
        if not legs:
            out.append(Violation("ShortLeg", li, note="loop with no legs"))
            continue
        last = len(legs) - 1
        for k, segs in wins:
            records += _check_leg(out, d.vertex, li, k, legs[k], k == 0, k == last, segs)
        # the leg ends reached, in order: joint ki follows leg ki, -1 and `last` are V
        ends = [ki for k, segs in wins for ki, end in
                ((k - 1, segs.start == 0), (k, segs.stop == len(legs[k].points) - 1)) if end]
        joints = dict.fromkeys(ki for ki in ends if 0 <= ki < last)
        for ki in joints:
            _check_joint(out, li, ki, legs[ki], legs[ki + 1])
        star |= -1 in ends or last in ends
        seam |= bool(joints)
    if not out:
        if star:
            _check_vertex_directions(out, d)
        if seam:
            _check_seam_table(out, d)
    return star


def _structural_violations(d: BouquetDiagram, records: list) -> list[Violation]:
    """Every structural violation of d: the header checks, then _structural
    over every segment, which fills `records` in (loop, leg, seg) order."""
    out: list[Violation] = []
    if d.n < 1:
        out.append(Violation("BadLoopCount", note="n must be >= 1"))
    if len(d.loops) != d.n:
        out.append(Violation("BadLoopCount", note=f"expected {d.n} loops, found {len(d.loops)}"))
    if unit_circle_side(d.vertex) >= 0:
        out.append(Violation("VertexOutsideDisk"))
    _structural(out, d, {li: [(ki, range(len(leg.points) - 1)) for ki, leg in enumerate(loop.legs)]
                         for li, loop in enumerate(d.loops)}, records)
    return out


# ---------------------------------------------------------------------------
# pairwise segment scan
# ---------------------------------------------------------------------------

# not frozen: nothing hashes a record, and frozen sets each field by a slow object.__setattr__
@dataclass(slots=True)
class _Seg:
    """One segment of loop `loop` with its end points in floats and the float
    box of those.  Its leg, its index in the leg and whether it touches V are
    not stored: they follow from the record's index (see :func:`_leg_starts`),
    so a record stays valid while segments before it are replaced.

    The floats only filter; every decision is exact.  The box (`fminx` ...)
    may only prove two segments disjoint, by lying strictly apart from the
    other's: float() is monotone (see :mod:`rp2bouquet.geometry`).  The float
    end points (`fax` ...) give orientation signs that are trusted only beyond
    a proved error bound (see :func:`_meet`); any other pair is decided by the
    exact predicates.
    """

    loop: int
    a: Point
    b: Point
    fminx: float
    fmaxx: float
    fminy: float
    fmaxy: float
    fax: float
    fay: float
    fbx: float
    fby: float


def _make_seg(li: int, a: Point, b: Point, fa: tuple[float, float], fb: tuple[float, float]) -> _Seg:
    (fax, fay), (fbx, fby) = fa, fb
    fminx, fmaxx = (fax, fbx) if fax <= fbx else (fbx, fax)
    fminy, fmaxy = (fay, fby) if fay <= fby else (fby, fay)
    return _Seg(li, a, b, fminx, fmaxx, fminy, fmaxy, fax, fay, fbx, fby)


def _leg_starts(d: BouquetDiagram) -> tuple[tuple[int, ...], ...]:
    """For each loop, the record index of each leg's first segment, then the
    index just past the loop's last segment."""
    rows, start = [], 0
    for loop in d.loops:
        rows.append(tuple(accumulate((len(leg.points) - 1 for leg in loop.legs), initial=start)))
        start = rows[-1][-1]
    return tuple(rows)


def _position(leg_starts: tuple[tuple[int, ...], ...], loop: int, i: int) -> tuple[int, int]:
    """The (leg, seg) of the record at index i, a segment of loop `loop`."""
    row = leg_starts[loop]
    k = bisect_right(row, i) - 1
    return k, i - row[k]


def _skip_pair(s: _Seg, t: _Seg, i: int, j: int, leg_starts) -> bool:
    """Whether the scans skip records s and t, at indices i and j."""
    # a record touches V when it is the first or last record of its loop
    row, other = leg_starts[s.loop], leg_starts[t.loop]
    if (i == row[0] or i == row[-1] - 1) and (j == other[0] or j == other[-1] - 1):
        return True  # both touch V; overlap handled by the codirection check
    # neighbours in one leg: a consecutive corner, whose cusp or overlap is
    # handled structurally; by index, as a point may recur elsewhere in a loop
    return abs(i - j) == 1 and s.loop == t.loop and max(i, j) not in row


def _triple(leg_starts, s: _Seg, t: _Seg, i: int, j: int, frame: int, *_) -> tuple:
    """(key_a, key_b, frame), each key a (loop, leg, seg), of the kept crossing of
    s = records[i] and t = records[j], i < j: a crossing as contracts read it."""
    return (s.loop, *_position(leg_starts, s.loop, i)), (t.loop, *_position(leg_starts, t.loop, j)), frame


def _crossing_order(a: DiagramAnalysis) -> tuple[list[tuple], dict[int, int]]:
    """The kept crossings of `a` in crossings(d)'s order: by strand a's record, then a's n1 / den
    (equal only at a TriplePoint); floats order them, and Rat where two floats tie.  Also the
    index {id(record): its index} that orders them."""
    index = {id(s): i for i, s in enumerate(a.records)}
    keys = [(index[id(s)], n1 / den) for s, _, _, (_, (n1, _, den)) in a.pairs]
    if len(set(keys)) < len(keys):
        keys = [(i, Rat(n1, den)) for (i, _), (_, _, _, (_, (n1, _, den))) in zip(keys, a.pairs)]
    return [a.pairs[k] for k in sorted(range(len(keys)), key=keys.__getitem__)], index


def _pair_crossing(leg_starts, a: _Seg, b: _Seg, i: int, j: int, frame: int, ints) -> Crossing:
    """The Crossing of the kept (a, b, frame, ints), a = records[i], b = records[j]."""
    at, (n1, n2, den) = ints
    return Crossing(a.loop, b.loop, LoopParam(*_position(leg_starts, a.loop, i), Rat(n1, den)),
                    LoopParam(*_position(leg_starts, b.loop, j), Rat(n2, den)), _point(*at), frame)


# A float orientation determinant whose magnitude exceeds _B has the sign of
# the exact one.  Coordinates of records lie in [-1, 1] (records exist only
# for diagrams that pass the structural check), as do those _check_leg
# floats, and float() is correctly rounded (see rp2bouquet.geometry), so each
# float point is within u = 2^-53 of its exact value and lies in [-1, 1].  In
#   (bx - ax)(cy - ay) - (by - ay)(cx - ax)
# each float difference is then within e = 2^-51 of the exact one (2u from
# the inputs, at most 2u from rounding a value of magnitude <= 2) and has
# magnitude <= 2; each float product is within 2e + 2e from the inputs plus
# e from rounding a value of magnitude <= 4, so 5e; the difference (or sum)
# of the two products is within 10e < 2^-47 of the exact value.  Rounding it
# is monotone and _B is a float, so |fdet| > _B implies that the difference
# exceeds _B = 2 * 2^-47 in magnitude: the sign is certain.
# (Underflow adds at most 2^-1074 per operation, far inside the margin.)
_B = 2.0 ** -46

# Likewise fx * fx + fy * fy - 1 beyond _C has the sign of |p|^2 - 1: each
# float square is within 2u (|fx - x| |fx + x|) plus u (rounding) of x^2, the
# sum within 6u + 2u = 2^-50 of x^2 + y^2, and subtracting 1 is exact from 1/2
# to 2 (Sterbenz); a sum below 1/2 gives less than -1/2.
_C = 2.0 ** -49


# Where |fdet| <= _B, a bound relative to the differences may decide yet
# (after Shewchuk 1997).  Each float difference di is within E = 2^-51 of its
# exact Di (above), and di dj - Di Dj = ei dj + ej di - ei ej with |ei| <= E, so
# d1 d2 -+ d3 d4 is within E (|d1| + |d2| + |d3| + |d4|) + 2E^2 of the exact
# value; rounding the products and their difference adds (2u + u^2)(|d1 d2| +
# |d3 d4|) < E (|d1 d2| + |d3 d4|) at most.  With n = |vx| + |vy| and m = |wx| +
# |wy|, v x w or v . w is thus within E (n + m + n m) + 2E^2; _bound doubles it,
# for its own roundings (2^-50 relative) and underflow (2^-1074 an operation).
def _bound(n: float, m: float) -> float:
    """The error bound of a float v x w or v . w, n = |vx| + |vy| and m = |wx| + |wy|."""
    return 2.0 ** -50 * (n + m + n * m) + 2.0 ** -100


def _sure(s: _Seg, t: _Seg) -> int | None:
    """0 (EMPTY) or the frame (PROPER) where the float end points of s and t
    make the kind certain (see _B, then _bound), else None."""
    ax, ay, bx, by = s.fax, s.fay, s.fbx, s.fby
    cx, cy, dx, dy = t.fax, t.fay, t.fbx, t.fby
    ex, ey = bx - ax, by - ay
    oc = ex * (cy - ay) - ey * (cx - ax)
    od = ex * (dy - ay) - ey * (dx - ax)
    if (oc > _B and od > _B) or (oc < -_B and od < -_B):
        return 0
    fx, fy = dx - cx, dy - cy
    oa = fx * (ay - cy) - fy * (ax - cx)
    ob = fx * (by - cy) - fy * (bx - cx)
    if (oa > _B and ob > _B) or (oa < -_B and ob < -_B):
        return 0
    if abs(oc) > _B and abs(od) > _B and abs(oa) > _B and abs(ob) > _B:
        return 1 if od > 0 else -1
    # _B decides nothing (tiny kinks): the same tests, each bounded by its differences
    e, f, ac = abs(ex) + abs(ey), abs(fx) + abs(fy), abs(cx - ax) + abs(cy - ay)
    bc, bd = _bound(e, ac), _bound(e, abs(dx - ax) + abs(dy - ay))
    ba, bb = _bound(f, ac), _bound(f, abs(bx - cx) + abs(by - cy))
    if (oc > bc and od > bd) or (oc < -bc and od < -bd) or (oa > ba and ob > bb) or (oa < -ba and ob < -bb):
        return 0
    if abs(oc) > bc and abs(od) > bd and abs(oa) > ba and abs(ob) > bb:
        return 1 if od > 0 else -1
    return None


def _meet(s: _Seg, t: _Seg) -> tuple[SegKind, int, tuple | None]:
    """The kind of segment_intersection(s.a, s.b, t.a, t.b), and for a PROPER
    one the frame orient2d(s.a, s.b, t.b) and _proper_ints(s.a, s.b, t.a, t.b),
    else 0 and None: all ints.  On records in record order, (s, t, frame, ints)
    is the kept crossing, in Crossing's order: the frame is the sign of ds x dt,
    as ds x (t.b - t.a) = ds x (t.b - s.a) - ds x (t.a - s.a) and t.a and t.b
    lie strictly on opposite sides of s."""
    frame = _sure(s, t)
    if frame is None:  # the floats decide nothing: the exact predicates do
        kind = _kind(s.a, s.b, t.a, t.b)
        if kind is not SegKind.PROPER:
            return kind, 0, None
        frame = orient2d(s.a, s.b, t.b)
    elif not frame:
        return SegKind.EMPTY, 0, None
    return SegKind.PROPER, frame, _proper_ints(s.a, s.b, t.a, t.b)


def _located(spots: dict, at: tuple, add: bool = False) -> bool:
    """Whether `spots` holds `at`, unreduced ints of _proper_ints (with `add`, it does after),
    keyed by floats, which equal locations share; cross-multiplication decides a float tie."""
    xn, xd, yn, yd = at
    held = spots.setdefault((xn / xd, yn / yd), []) if add else spots.get((xn / xd, yn / yd), ())
    for pn, pd, qn, qd in held:
        if xn * pd == pn * xd and yn * qd == qn * yd:
            return True
    if add:
        held.append(at)
    return False


def _least_x(s: _Seg) -> Point:
    """The end point of record s of least x (either one on a tie)."""
    a, b = s.a, s.b
    # unequal floats order the exact values, as float() is monotone
    return a if s.fax < s.fbx or s.fax == s.fbx and a.xn * b.xd <= b.xn * a.xd else b


def _sweep_order(records: list[_Seg]) -> list[int]:
    """The record indices by (exact least x, index).  A stable sort on fminx
    gives it, as unequal fminx order the exact values, unless two equal fminx
    (a shared end point makes many) are out of exact order; then an exact sort."""
    keys = [s.fminx for s in records]
    order = sorted(range(len(records)), key=keys.__getitem__)
    ranked = [keys[i] for i in order]
    for k in compress(count(), map(eq, ranked, islice(ranked, 1, None))):
        p, q = _least_x(records[order[k]]), _least_x(records[order[k + 1]])
        if p.xn * q.xd > q.xn * p.xd:
            def exact(i: int, j: int) -> int:
                p, q = _least_x(records[i]), _least_x(records[j])
                return (keys[i] > keys[j]) - (keys[i] < keys[j]) or p.xn * q.xd - q.xn * p.xd or i - j

            return sorted(order, key=cmp_to_key(exact))
    return order


def _all_pairs(records: list[_Seg], leg_starts) -> Iterator[tuple[_Seg, _Seg, int, int]]:
    """(s, t, i, j) for the records s = records[i] and t = records[j] whose
    float boxes meet, s later in the sweep.  The sweep order (_sweep_order)
    fixes the order of reported violations."""
    order = _sweep_order(records)
    active: list[int] = []
    for i in order:
        s = records[i]
        kept = []
        for j in active:
            t = records[j]
            if t.fmaxx < s.fminx:
                continue
            kept.append(j)
            if t.fminy > s.fmaxy or t.fmaxy < s.fminy or _skip_pair(s, t, i, j, leg_starts):
                continue
            yield s, t, i, j
        kept.append(i)
        active = kept


def _analyze(d: BouquetDiagram) -> DiagramAnalysis:
    """The structural violations, else each NonTransversal pair in sweep order and then
    a TriplePoint for each crossing at an earlier one's location, keyed as _scan_changed."""
    records: list[_Seg] = []
    violations = _structural_violations(d, records)
    if violations:
        return DiagramAnalysis(tuple(violations))
    leg_starts = _leg_starts(d)
    pairs: list[tuple] = []
    seen: dict = {}
    triples: list[Violation] = []
    # positions are looked up only for the pairs that touch or meet at a crossing
    for s, t, i, j in _all_pairs(records, leg_starts):
        kind, frame, ints = _meet(s, t) if i < j else _meet(t, s)
        if kind is SegKind.PROPER:
            pairs.append((s, t, frame, ints) if i < j else (t, s, frame, ints))
            if _located(seen, ints[0], True):
                a, k = pairs[-1][0], min(i, j)  # strand a's record and index
                triples.append(Violation("TriplePoint", a.loop, *_position(leg_starts, a.loop, k),
                                         note="two crossings at the same point"))
        elif kind is SegKind.DEGENERATE:
            ks, kt = _position(leg_starts, s.loop, i), _position(leg_starts, t.loop, j)
            violations.append(Violation(
                "NonTransversal", s.loop, *ks,
                note=f"against loop={t.loop} leg={kt[0]} segment={kt[1]}"))
    violations += triples
    if violations:
        return DiagramAnalysis(tuple(violations))
    return DiagramAnalysis((), tuple(pairs), tuple(records), leg_starts, _flipped((0,) * d.n, pairs))


def _flipped(w: tuple[int, ...], held) -> tuple[int, ...]:
    """The per-loop bits w with a loop's bit flipped for each self-crossing of
    `held`, crossings whose first two items are their strands' records."""
    bits = list(w)
    for c in held:
        if c[0].loop == c[1].loop:
            bits[c[0].loop] ^= 1
    return tuple(bits)


def analysis(d: BouquetDiagram) -> DiagramAnalysis:
    cached = getattr(d, "_cache", None)
    if cached is None:
        cached = _analyze(d)
        object.__setattr__(d, "_cache", cached)
    return cached


def _set_analysis(d: BouquetDiagram, value: DiagramAnalysis) -> None:
    object.__setattr__(d, "_cache", value)


# ---------------------------------------------------------------------------
# kept analysis: splices
# ---------------------------------------------------------------------------

@dataclass
class _Splice:
    """What _splice_points returns: the candidate diagram d2 and the window.
    The new segments of `loop` in d2 are `new`, one (leg, range of segments)
    per new leg, as _check_leg takes them; they replace segments of the
    parent from the first of them on (_apply_splice counts how many)."""

    loop: int
    d2: BouquetDiagram
    new: list[tuple[int, range]]
    # additions -> error message or None, each a crossing as _triple gives it
    contract: Callable[[list], str | None] | None
    # (n, counts, exactly): the splice adds exactly n counted additions (counts
    # None: every one; a loop: its self-crossings); _scan_changed stops past n,
    # _apply_splice checks the tally before `contract` runs
    count: tuple[int, int | None, str] | None
    # a point move (the jiggle) has one new segment per replaced one, whose crossings keep
    # their strands and frames instead of their locations; every crossing found is an addition
    point_move: bool


def _splice_points(d: BouquetDiagram, loop: int, leg: int, lo: int, hi: int,
                   chains: tuple[tuple[Point, ...], ...], contract, count=None,
                   point_move=False) -> _Splice:
    """Replace points[lo:hi] of the leg, 0 < lo <= hi < len(points), by the
    chains, in an unchecked d2.  A seam transition ends every chain but the
    last, so each later chain starts a new leg.  The replaced segments are
    lo - 1 .. hi - 1 of the leg; the new ones run from point lo - 1 through
    the chains to old point hi."""
    legs = d.loops[loop].legs
    pts = legs[leg].points
    runs = (pts[:lo] + chains[0],) + chains[1:]
    runs = runs[:-1] + (runs[-1] + pts[hi:],)
    last = leg + len(runs) - 1
    new = [(k, range(lo - 1 if k == leg else 0, len(run) - len(pts) + hi if k == last else len(run) - 1))
           for k, run in enumerate(runs, leg)]
    spliced = LoopPath(legs[:leg] + tuple(Leg(run) for run in runs) + legs[leg + 1:])
    d2 = BouquetDiagram(d.n, d.vertex, d.loops[:loop] + (spliced,) + d.loops[loop + 1:])
    return _Splice(loop, d2, new, contract, count, point_move)


def _near(records, start: int, segs: list[_Seg]) -> list[tuple[int, _Seg]]:
    """(j, v) for the records v, at indices j from `start` on, whose float
    boxes meet the box of all `segs`: no other record meets one of them."""
    lox, hix = min(u.fminx for u in segs), max(u.fmaxx for u in segs)
    loy, hiy = min(u.fminy for u in segs), max(u.fmaxy for u in segs)
    return [(j, v) for j, v in enumerate(records, start)
            if not (v.fmaxx < lox or v.fminx > hix or v.fmaxy < loy or v.fminy > hiy)]


def _scan_changed(records, leg_starts, lo: int, hi: int, removed: dict,
                  count) -> tuple[list[tuple], list[tuple], int, int]:
    """One pass over the pairs of a changed record u = records[i], lo <= i < hi
    (every splice builds a segment), and a record v = records[j] whose float
    box meets u's, each pair once; _meet decides each pair exactly.  Returns
    the crossings found, each as _meet's kept crossing of a = records[i] and
    b = records[j], i < j, in the arguments (a, b, i, j, frame, ints) of
    _triple and _pair_crossing; those of them that are additions (at no
    location in `removed`, the locations on replaced segments, as _located
    keys them); how many of `removed` were not found again; and the tally of
    additions the splice's `count` counts.  No `Crossing` is built: a
    location is the unreduced ints of _proper_ints and a strand's loop its
    record's.

    MoveBlocked at the first certain violation: a non-transversal contact (as each
    segment of a crossing at V makes with loop 0's first one, a pair no scan skips:
    a corner at V is a Cusp), a crossing on another one, or a tally past `count`
    once every location in `removed` is found again, so that a destroyed crossing
    stays the reason when there is one.  A crossing landing on a kept one at X meets
    both strands of X there, so it is blocked at its second contact; the pairs the
    scan skips (a corner, two segments at V) cannot make one, as the structural
    check has blocked a cusp or codirection at X first.
    """
    limit, counts, exactly = count or (float("inf"), None, "")
    found: list[tuple] = []
    added: list[tuple] = []
    seen: dict = {}
    missing, counted = sum(map(len, removed.values())), 0
    changed = records[lo:hi]
    near = _near(records, 0, changed)
    for i, u in enumerate(changed, lo):
        for j, v in near:
            if v.fmaxx < u.fminx or v.fminx > u.fmaxx or v.fmaxy < u.fminy or v.fminy > u.fmaxy:
                continue  # disjoint for certain
            # a pair of changed records comes once, from its later one
            if lo <= j <= i or _skip_pair(u, v, i, j, leg_starts):
                continue
            kind, frame, ints = _meet(u, v) if i < j else _meet(v, u)
            if kind is SegKind.DEGENERATE:
                leg, seg = _position(leg_starts, v.loop, j)
                raise MoveBlocked(f"template touches loop={v.loop} leg={leg} "
                                  f"segment={seg} non-transversally")
            if kind is not SegKind.PROPER:
                continue
            if _located(seen, ints[0], True):
                raise MoveBlocked("two crossings would coincide")
            found.append((u, v, i, j, frame, ints) if i < j else (v, u, j, i, frame, ints))
            if removed and _located(removed, ints[0]):
                missing -= 1
            else:
                added.append(found[-1])
                if counts is None or u.loop == v.loop == counts:
                    counted += 1
            if counted > limit and not missing:
                raise MoveBlocked(f"{exactly}, got more than {limit}")
    return found, added, missing, counted


def _apply_splice(d: BouquetDiagram, splice: _Splice) -> tuple[BouquetDiagram, list[tuple]]:
    """splice.d2, checked in the order of the moves docstring, with its analysis
    kept, and the additions as _triple gives them.  Found crossings stay ints (see
    _scan_changed); every record and crossing off the window is kept as it is.
    The replaced records i .. j - 1 are counted off the two leg-start rows."""
    base = _generic_analysis(d)
    d2, loop, (leg, segs) = splice.d2, splice.loop, splice.new[0]
    changed: list[_Seg] = []
    out: list[Violation] = []
    # d2 differs from a valid diagram only in the new segments, so only the
    # conditions _structural checks on their window can fail: its first violation
    # is that of re-checking the whole loop, the vertex star and the seam table
    at_v = _structural(out, d2, {loop: splice.new}, changed)
    if out:
        raise MoveBlocked(f"result not generic: {out[0]}")

    row, leg_starts = base.leg_starts[loop], _leg_starts(d2)
    i = row[leg] + segs[0]
    j = i + len(changed) - (leg_starts[loop][-1] - row[-1])
    records = base.records[:i] + tuple(changed) + base.records[j:]
    where = set(map(id, base.records[i:j]))  # the replaced records
    kept: list[tuple] = []
    dropped: list[tuple] = []
    for c in base.pairs:
        (dropped if id(c[0]) in where or id(c[1]) in where else kept).append(c)
    removed: dict = {}
    for c in () if splice.point_move else dropped:
        _located(removed, c[3][0], True)
    hits, added, missing, counted = _scan_changed(records, leg_starts, i, i + len(changed), removed,
                                                  splice.count)
    if missing:
        raise MoveBlocked("an existing crossing would be destroyed")
    if splice.count and counted != splice.count[0]:
        raise MoveBlocked(f"{splice.count[2]}, got {counted}")
    if splice.point_move:  # each replaced record becomes the new one at its index
        moved = dict(zip(map(id, base.records[i:j]), changed))
        held = sorted((id(moved.get(id(a), a)), id(moved.get(id(b), b)), frame) for a, b, frame, _ in dropped)
        if held != sorted((id(a), id(b), frame) for a, b, _, _, frame, _ in hits):
            raise MoveBlocked("jiggle would change the crossing pattern")
    additions = [_triple(leg_starts, *hit) for hit in added]
    if splice.contract:
        err = splice.contract(additions)
        if err:
            raise MoveBlocked(err)
    w = _flipped(base.w, chain(dropped, hits))
    kept += [(a, b, frame, ints) for a, b, _, _, frame, ints in hits]
    kept_analysis = DiagramAnalysis((), tuple(kept), records, leg_starts, w)
    # every template starts and ends on its target segment (its first and last inserted
    # points are a + s(b - a), 0 < s < 1), so only a jiggle of the point next to V turns a
    # half-edge, and only one (a three-point one-leg loop is codirectional at V): that can
    # reorder the star but never reverse it, so canonical words decide as rotations would
    if not at_v:  # no half-edge moved
        if "star" in vars(base):
            vars(kept_analysis)["star"] = base.star
    elif _canonical(kept_analysis.star) != _canonical(base.star):
        raise MoveBlocked("jiggle would reorder the vertex star")
    _set_analysis(d2, kept_analysis)
    return d2, additions


def _key(d: BouquetDiagram, i: int) -> tuple[int, int, int]:
    """The (loop, leg, seg) of the record at index i of a valid diagram."""
    loop = analysis(d).records[i].loop
    return (loop, *_position(analysis(d).leg_starts, loop, i))


def _on_segment(d: BouquetDiagram, key: tuple[int, int, int]) -> Iterator[tuple[tuple, int]]:
    """(c, k) for each kept crossing c on segment `key` of valid d, whose
    strand k (0 for a, 1 for b) runs along it."""
    a = analysis(d)
    s = a.records[a.leg_starts[key[0]][key[1]] + key[2]]
    for c in a.pairs:
        if c[0] is s:
            yield c, 0
        elif c[1] is s:
            yield c, 1


def _segment_gaps(d: BouquetDiagram, key: tuple[int, int, int]) -> list[tuple[Rat, Rat]]:
    """The parameter intervals of segment `key` free of crossings, in order.  None is
    empty: a crossing's parameter lies strictly inside (0, 1), and two equal ones on
    a segment would meet at one point, a TriplePoint ("two crossings would coincide")."""
    cuts = [rat(0)] + sorted(Rat(c[3][1][k], c[3][1][2]) for c, k in _on_segment(d, key)) + [rat(1)]
    return list(zip(cuts, cuts[1:]))


def _certain_addition(d: BouquetDiagram, target: tuple[int, int, int], chords, loop: int | None = None,
                      spared: tuple[int, int, int] | None = None) -> bool:
    """Whether two non-consecutive `chords` (pairs of int points; most
    consecutive ones share an end), or a chord and a record of valid d of loop
    `loop` (None: any) other than segments `target` and `spared`, cross
    properly at a location that is no crossing on the target; False if a chord
    end lies outside [-1, 1]^2, where _B does not hold.  Floats decide first."""
    if not all(-xd <= xn <= xd and -yd <= yn <= yd for chord in chords for xn, xd, yn, yd in chord):
        return False
    # xn / xd is correctly rounded, so it is float() of the exact coordinate
    segs = [_make_seg(-1, None, None, (a[0] / a[1], a[2] / a[3]), (b[0] / b[1], b[2] / b[3]))
            for a, b in chords]
    records, rows = analysis(d).records, analysis(d).leg_starts
    skip = {rows[key[0]][key[1]] + key[2] for key in (target, spared) if key}
    start, stop = (0, len(records)) if loop is None else (rows[loop][0], rows[loop][-1])
    pool = records[start:stop]
    pairs = chain(((s, t, -1) for i, s in enumerate(segs) for t in segs[i + 2:]),
                  ((s, t, j) for s in segs for j, t in _near(pool, start, [s]) if j not in skip))
    # (s, t, j): a chord s and another chord t (j = -1) or the record t =
    # records[j].  A crossing with a record that is no crossing partner of the
    # target lies at none of the target's crossing locations: it is interior to
    # the record, and in a valid diagram two records' interiors meet only at a
    # recorded crossing, so a location on the target would make the record a
    # partner.  Two chords can cross at no such location only if there is none.
    crossed, rest = None, []  # the records of the target's crossings, by identity; the pairs left open
    for s, t, j in pairs:
        frame = _sure(s, t)
        if frame:
            if crossed is None:
                crossed = {id(r) for c, _ in _on_segment(d, target) for r in c[:2]}
            if (id(t) not in crossed) if j >= 0 else not crossed:
                return True
        if frame != 0:
            rest.append((s, t))
    if not rest:
        return False
    for s, (a, b) in zip(segs, chords):
        s.a, s.b = _point(*a), _point(*b)
    spots: dict = {}
    for c, _ in _on_segment(d, target):
        _located(spots, c[3][0], True)
    return any(kind is SegKind.PROPER and not _located(spots, ints[0])
               for kind, _, ints in starmap(_meet, rest))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def validate(d: BouquetDiagram) -> list[Violation]:
    """All generic-position violations of the diagram; empty means valid."""
    return list(analysis(d).violations)


def _generic_analysis(d: BouquetDiagram) -> DiagramAnalysis:
    a = analysis(d)
    if a.violations:
        raise InvalidDiagram(f"{len(a.violations)} violation(s), first: {a.violations[0]}")
    return a


def crossings(d: BouquetDiagram) -> tuple[Crossing, ...]:
    """All transversal double points, sorted by (loop_a, param_a, loop_b, param_b).

    Raises :class:`InvalidDiagram` when the diagram is not in generic
    position: crossing data of a degenerate diagram would be meaningless.
    """
    return _generic_analysis(d).crossings


def vertex_directions(d: BouquetDiagram) -> list[tuple[HalfEdge, Point]]:
    """The 2n (half-edge symbol, direction) pairs at the vertex.

    The outgoing half-edge e_i points along the first segment of loop i; the
    incoming half-edge e_i^-1 points along the *reversed* last segment, so
    both directions emanate from V.
    """
    out: list[tuple[HalfEdge, Point]] = []
    for li, loop in enumerate(d.loops):
        out.append((HalfEdge(li, False), loop.first_direction()))
        out.append((HalfEdge(li, True), -loop.last_direction()))
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _point_to_json(p: Point) -> list[int]:
    return [p.xn, p.xd, p.yn, p.yd]


def _point_from_json(obj) -> Point:
    # type(v) is int: a JSON true or false is a bool, and bool is an int subclass
    if not (isinstance(obj, list) and len(obj) == 4 and type(obj[0]) is int
            and type(obj[1]) is int and type(obj[2]) is int and type(obj[3]) is int):
        raise DiagramFormatError(f"point must be [xnum, xden, ynum, yden] of ints, got {obj!r}")
    if obj[1] == 0 or obj[3] == 0:
        raise DiagramFormatError("zero denominator in point")
    return _point(*obj)


def to_json_obj(d: BouquetDiagram) -> dict:
    return {
        "n": d.n,
        "vertex": _point_to_json(d.vertex),
        "loops": [
            {"legs": [[_point_to_json(p) for p in leg.points] for leg in loop.legs]}
            for loop in d.loops
        ],
    }


def from_json_obj(obj) -> BouquetDiagram:
    if not isinstance(obj, dict):
        raise DiagramFormatError("top level must be an object")
    try:
        n = obj["n"]
        vertex = obj["vertex"]
        loops = obj["loops"]
    except KeyError as exc:
        raise DiagramFormatError(f"missing key {exc.args[0]!r}") from None
    if type(n) is not int:
        raise DiagramFormatError("n must be an integer")
    if not isinstance(loops, list):
        raise DiagramFormatError("loops must be a list")
    parsed_loops = []
    for loop_obj in loops:
        if not isinstance(loop_obj, dict) or "legs" not in loop_obj:
            raise DiagramFormatError("each loop must be an object with a 'legs' list")
        legs_obj = loop_obj["legs"]
        if not isinstance(legs_obj, list) or not legs_obj:
            raise DiagramFormatError("legs must be a non-empty list")
        legs = []
        for leg_obj in legs_obj:
            if not isinstance(leg_obj, list) or len(leg_obj) < 2:
                raise DiagramFormatError("each leg needs at least two points")
            legs.append(Leg(tuple(_point_from_json(p) for p in leg_obj)))
        parsed_loops.append(LoopPath(tuple(legs)))
    return BouquetDiagram(n, _point_from_json(vertex), tuple(parsed_loops))


def dumps(d: BouquetDiagram) -> str:
    """Compact, canonical (lowest terms, positive denominators) JSON text."""
    return json.dumps(to_json_obj(d), separators=(",", ":")) + "\n"


def loads(text: str) -> BouquetDiagram:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides syntax errors (JSONDecodeError is a ValueError): nesting
        # deeper than the recursion limit, and ints past the digit limit
        raise DiagramFormatError(f"not valid JSON: {exc}") from None
    return from_json_obj(obj)
