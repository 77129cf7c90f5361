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
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from math import gcd
from typing import Iterator

from .geometry import (
    EMPTY,
    Point,
    Rat,
    SegKind,
    SegmentIntersection,
    _direction,
    _proper,
    on_unit_circle,
    orient2d,
    rat,
    segment_intersection,
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
    :class:`_Seg`) in (loop, leg, seg) order, so that a move can update them
    instead of rebuilding them.  A record holds no position: `leg_starts[li]`
    lists, for each leg of loop li, the index in `records` of its first
    segment, and :func:`_position` finds a record's (leg, seg) from its index
    by one bisect.  A splice thus keeps every record outside its window as it
    is.  Both are empty for an invalid diagram.
    """

    violations: tuple[Violation, ...]
    crossings: tuple[Crossing, ...]
    records: tuple = field(default=(), compare=False, repr=False)
    leg_starts: tuple[tuple[int, ...], ...] = field(default=(), compare=False, repr=False)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _check_leg(out: list[Violation], vertex: Point, li: int, ki: int, leg: Leg,
               is_first: bool, is_last: bool, segs: list[int] | None = None) -> None:
    """Leg conditions; with `segs` (sorted segment indices) only the conditions
    that read one of those segments, i.e. those at their end points."""
    pts = leg.points
    if len(pts) < 2:
        out.append(Violation("ShortLeg", li, ki))
        return
    end = len(pts) - 1
    if segs is None:
        segs = range(end)
        points = range(end + 1)
    else:
        points = sorted({i for s in segs for i in (s, s + 1)})
    for i in segs:
        if pts[i] == pts[i + 1]:
            out.append(Violation("RepeatedPoint", li, ki, i))
    for i in points:
        if 0 < i < end:
            p0, p1, p2 = pts[i - 1], pts[i], pts[i + 1]
            # (p1 - p0) x (p2 - p1) is the orientation determinant of the triple
            if orient2d(p0, p1, p2) == 0 and p0 != p1 and p1 != p2 and (p1 - p0).dot(p2 - p1) < 0:
                out.append(Violation("Cusp", li, ki, i, "exact direction reversal"))
    for i in points:
        if 0 < i < end:
            side = unit_circle_side(pts[i])
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


def _check_joint(out: list[Violation], li: int, ki: int, a: Leg, b: Leg) -> None:
    """The seam hand-over from leg `ki` (a) to leg `ki + 1` (b)."""
    if len(a.points) < 2 or len(b.points) < 2:
        return
    p, q = a.points[-1], b.points[0]
    if not on_unit_circle(p) or not on_unit_circle(q):
        return  # already reported as SeamPointOffCircle
    # p = (x, y) / c: unit-circle points have equal denominators in lowest terms
    x, y, c = p.x.numerator, p.y.numerator, p.x.denominator
    if _location_key(q) != (-x, c, -y, c):
        out.append(Violation("SeamNotAntipodal", li, ki, note="legs must rejoin at the antipode"))
        return
    d_out = _direction(a.points[-2], p)
    d_in = _direction(q, b.points[1])
    if d_out.is_zero() or d_in.is_zero():
        return
    # w = c^2 M(p) d_out (see seam_reflection), a positive multiple of M(p) (p - a[-2])
    mxx, mxy = x * x - y * y, 2 * x * y
    wx = mxx * d_out.x + mxy * d_out.y
    wy = mxy * d_out.x - mxx * d_out.y
    if not (wx * d_in.y == wy * d_in.x and wx * d_in.x + wy * d_in.y > 0):
        out.append(Violation("SeamRegularity", li, ki,
                             note="entry direction must match the reflected exit direction"))


def _equal_key_pairs(keys: list) -> list[tuple[int, int]]:
    """Index pairs i < j with keys[i] == keys[j] (None equals nothing), in
    (i, j) order; hashing keeps this near linear unless many keys are equal."""
    groups: dict = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    return sorted((i, j) for group in groups.values()
                  for a, i in enumerate(group) for j in group[a + 1:])


def _ray(v: Point):
    """A key that codirectional nonzero int vectors share exactly; None for 0."""
    g = gcd(v.x, v.y)
    return (v.x // g, v.y // g) if g else None


def _star(d: BouquetDiagram) -> list[tuple[HalfEdge, Point]]:
    """vertex_directions(d) with each direction an int vector (_direction)."""
    out: list[tuple[HalfEdge, Point]] = []
    for li, loop in enumerate(d.loops):
        first, last = loop.legs[0].points, loop.legs[-1].points
        out.append((HalfEdge(li, False), _direction(first[0], first[1])))
        out.append((HalfEdge(li, True), _direction(last[-1], last[-2])))
    return out


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
    keys = [max((p.x.numerator, p.y.numerator), (-p.x.numerator, -p.y.numerator))
            + (p.x.denominator, p.y.denominator) for _, p in exits]
    for i, j in _equal_key_pairs(keys):
        (li, p), (lj, q) = exits[i], exits[j]
        kind = "CoincidentSeamPoints" if p == q else "AntipodalSeamPoints"
        out.append(Violation(kind, li, note=f"loops {li} and {lj}"))


def _structural_violations(d: BouquetDiagram) -> list[Violation]:
    out: list[Violation] = []
    if d.n < 1:
        out.append(Violation("BadLoopCount", note="n must be >= 1"))
    if len(d.loops) != d.n:
        out.append(Violation("BadLoopCount", note=f"expected {d.n} loops, found {len(d.loops)}"))
    if unit_circle_side(d.vertex) >= 0:
        out.append(Violation("VertexOutsideDisk"))
    for li, loop in enumerate(d.loops):
        if not loop.legs:
            out.append(Violation("ShortLeg", li, note="loop with no legs"))
            continue
        last = len(loop.legs) - 1
        for ki, leg in enumerate(loop.legs):
            _check_leg(out, d.vertex, li, ki, leg, ki == 0, ki == last)
        for ki in range(last):
            _check_joint(out, li, ki, loop.legs[ki], loop.legs[ki + 1])
    if not out:
        _check_vertex_directions(out, d)
        _check_seam_table(out, d)
    return out


# ---------------------------------------------------------------------------
# pairwise segment scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Seg:
    """One segment of loop `loop` with its end points in floats and the float
    box of those.  Its leg and its index in the leg are not stored: they
    follow from the record's index (see :class:`DiagramAnalysis`), so a
    record stays valid while segments before it are replaced.

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
    at_vertex: bool
    fminx: float
    fmaxx: float
    fminy: float
    fmaxy: float
    fax: float
    fay: float
    fbx: float
    fby: float


def _make_seg(li: int, a: Point, b: Point, at_v: bool) -> _Seg:
    # valid coordinates lie in [-1, 1], so n / d (float()'s value) never overflows
    fax, fay = a.x.numerator / a.x.denominator, a.y.numerator / a.y.denominator
    fbx, fby = b.x.numerator / b.x.denominator, b.y.numerator / b.y.denominator
    fminx, fmaxx = (fax, fbx) if fax <= fbx else (fbx, fax)
    fminy, fmaxy = (fay, fby) if fay <= fby else (fby, fay)
    return _Seg(li, a, b, at_v, fminx, fmaxx, fminy, fmaxy, fax, fay, fbx, fby)


def _leg_row(legs: tuple[Leg, ...], start: int) -> tuple[int, ...]:
    """The index of each leg's first record, the first leg's being `start`."""
    row = []
    for leg in legs:
        row.append(start)
        start += len(leg.points) - 1
    return tuple(row)


def _segment_records(d: BouquetDiagram) -> tuple[list[_Seg], tuple[tuple[int, ...], ...]]:
    """Records of every segment in (loop, leg, seg) order, and their leg starts."""
    records = []
    leg_starts = []
    for li, loop in enumerate(d.loops):
        leg_starts.append(_leg_row(loop.legs, len(records)))
        last_leg = len(loop.legs) - 1
        for ki, leg in enumerate(loop.legs):
            pts = leg.points
            last_seg = len(pts) - 2
            for si in range(len(pts) - 1):
                at_v = (ki == 0 and si == 0) or (ki == last_leg and si == last_seg)
                records.append(_make_seg(li, pts[si], pts[si + 1], at_v))
    return records, tuple(leg_starts)


def _position(leg_starts: tuple[tuple[int, ...], ...], loop: int, i: int) -> tuple[int, int]:
    """The (leg, seg) of the record at index i, a segment of loop `loop`."""
    row = leg_starts[loop]
    k = bisect_right(row, i) - 1
    return k, i - row[k]


def _skip_pair(s: _Seg, t: _Seg, i: int, j: int, leg_starts) -> bool:
    """Whether the scans skip records s and t, at indices i and j."""
    if s.at_vertex and t.at_vertex:
        return True  # both touch V; overlap handled by the codirection check
    # neighbours in one leg: a consecutive corner, whose cusp or overlap is
    # handled structurally; by index, as a point may recur elsewhere in a loop
    return abs(i - j) == 1 and s.loop == t.loop and max(i, j) not in leg_starts[s.loop]


def _pair_crossing(s: _Seg, t: _Seg, i: int, j: int, leg_starts, res, frame: int) -> Crossing:
    """The crossing of a PROPER intersection `res` of s = records[i] and
    t = records[j]; `frame` is the sign of da x db, which is orient2d(s.a,
    s.b, t.b): t.a and t.b lie strictly on opposite sides of s, so
    da x (t.b - t.a) = da x (t.b - s.a) - da x (t.a - s.a) has the sign of
    its first term."""
    pa = LoopParam(*_position(leg_starts, s.loop, i), res.t1)
    pb = LoopParam(*_position(leg_starts, t.loop, j), res.t2)
    if s.loop == t.loop:
        if pa <= pb:
            return Crossing(s.loop, t.loop, pa, pb, res.point, frame)
        return Crossing(s.loop, t.loop, pb, pa, res.point, -frame)
    if s.loop < t.loop:
        return Crossing(s.loop, t.loop, pa, pb, res.point, frame)
    return Crossing(t.loop, s.loop, pb, pa, res.point, -frame)


# A float orientation determinant whose magnitude exceeds _B has the sign of
# the exact one.  Coordinates of records lie in [-1, 1] (records exist only
# for diagrams that pass the structural check), and float() is correctly
# rounded (see rp2bouquet.geometry), so each float end point is within
# u = 2^-53 of its exact value and lies in [-1, 1] itself.  In
#   (bx - ax)(cy - ay) - (by - ay)(cx - ax)
# each float difference is then within e = 2^-51 of the exact one (2u from
# the inputs, at most 2u from rounding a value of magnitude <= 2) and has
# magnitude <= 2; each float product is within 2e + 2e from the inputs plus
# e from rounding a value of magnitude <= 4, so 5e; the difference of the two
# products is within 10e < 2^-47 of the exact determinant.  Rounding that
# difference is monotone and _B is a float, so |fdet| > _B implies that the
# difference exceeds _B = 2 * 2^-47 in magnitude: the sign is certain.
# (Underflow adds at most 2^-1074 per operation, far inside the margin.)
_B = 2.0 ** -46


def _meet(s: _Seg, t: _Seg) -> tuple[SegmentIntersection, int]:
    """segment_intersection(s.a, s.b, t.a, t.b) and, for a PROPER result, the
    frame orient2d(s.a, s.b, t.b) (0 otherwise).

    The four orientation signs are first taken from the float end points,
    where certain (see _B): two certain equal signs of one segment's end
    points against the other's line mean EMPTY, and four certain signs,
    opposite in each pair, a PROPER crossing built exactly by _proper.  Any
    other pair goes to the exact segment_intersection.
    """
    ax, ay, bx, by = s.fax, s.fay, s.fbx, s.fby
    cx, cy, dx, dy = t.fax, t.fay, t.fbx, t.fby
    ex, ey = bx - ax, by - ay
    oc = ex * (cy - ay) - ey * (cx - ax)
    od = ex * (dy - ay) - ey * (dx - ax)
    if (oc > _B and od > _B) or (oc < -_B and od < -_B):
        return EMPTY, 0
    fx, fy = dx - cx, dy - cy
    oa = fx * (ay - cy) - fy * (ax - cx)
    ob = fx * (by - cy) - fy * (bx - cx)
    if (oa > _B and ob > _B) or (oa < -_B and ob < -_B):
        return EMPTY, 0
    if abs(oc) > _B and abs(od) > _B and abs(oa) > _B and abs(ob) > _B:
        return _proper(s.a, s.b, t.a, t.b), (1 if od > 0 else -1)
    res = segment_intersection(s.a, s.b, t.a, t.b)
    return res, orient2d(s.a, s.b, t.b) if res.kind is SegKind.PROPER else 0


def _all_pairs(records: list[_Seg], leg_starts) -> Iterator[tuple[_Seg, _Seg, int, int]]:
    """(s, t, i, j) for the records s = records[i] and t = records[j] whose
    float boxes meet, s later in the sweep."""
    # the order of the exact least x, which fixes the order of reported
    # violations: fminx is its float and float() is monotone
    active: list[int] = []
    for i in sorted(range(len(records)),
                    key=lambda k: (records[k].fminx, min(records[k].a.x, records[k].b.x))):
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


def _location_key(p: Point) -> tuple[int, int, int, int]:
    """(x numerator, x denominator, y numerator, y denominator): equal for
    equal points (lowest terms, see :mod:`rp2bouquet.geometry`), and cheaper
    to hash than the rationals themselves."""
    return p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator


def _check_crossing_set(out: list[Violation], vertex: Point, found: list[Crossing]) -> None:
    seen: set[tuple[int, int, int, int]] = set()
    for c in found:
        key = _location_key(c.location)
        if key in seen:
            out.append(Violation("TriplePoint", c.loop_a, c.param_a.leg, c.param_a.seg,
                                 note="two crossings at the same point"))
        seen.add(key)
        if c.location == vertex:
            out.append(Violation("CrossingAtVertex", c.loop_a, c.param_a.leg, c.param_a.seg))


def _analyze(d: BouquetDiagram) -> DiagramAnalysis:
    violations = _structural_violations(d)
    if violations:
        return DiagramAnalysis(tuple(violations), ())
    records, leg_starts = _segment_records(d)
    found: list[Crossing] = []
    # positions are looked up only for the pairs that cross or touch
    for s, t, i, j in _all_pairs(records, leg_starts):
        res, frame = _meet(s, t)
        if res.kind is SegKind.PROPER:
            found.append(_pair_crossing(s, t, i, j, leg_starts, res, frame))
        elif res.kind is SegKind.DEGENERATE:
            ks, kt = _position(leg_starts, s.loop, i), _position(leg_starts, t.loop, j)
            violations.append(Violation(
                "NonTransversal", s.loop, *ks,
                note=f"against loop={t.loop} leg={kt[0]} segment={kt[1]}"))
    _check_crossing_set(violations, d.vertex, found)
    if violations:
        return DiagramAnalysis(tuple(violations), ())
    found.sort(key=Crossing.sort_key)
    return DiagramAnalysis((), tuple(found), tuple(records), leg_starts)


def analysis(d: BouquetDiagram) -> DiagramAnalysis:
    cached = getattr(d, "_cache", None)
    if cached is None:
        cached = _analyze(d)
        object.__setattr__(d, "_cache", cached)
    return cached


def _set_analysis(d: BouquetDiagram, value: DiagramAnalysis) -> None:
    object.__setattr__(d, "_cache", value)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def validate(d: BouquetDiagram) -> list[Violation]:
    """All generic-position violations of the diagram; empty means valid."""
    return list(analysis(d).violations)


def crossings(d: BouquetDiagram) -> tuple[Crossing, ...]:
    """All transversal double points, sorted by (loop_a, param_a, loop_b, param_b).

    Raises :class:`InvalidDiagram` when the diagram is not in generic
    position: crossing data of a degenerate diagram would be meaningless.
    """
    a = analysis(d)
    if a.violations:
        raise InvalidDiagram(f"{len(a.violations)} violation(s), first: {a.violations[0]}")
    return a.crossings


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
    return [p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator]


def _point_from_json(obj) -> Point:
    # type(v) is int: a JSON true or false is a bool, and bool is an int subclass
    if not (isinstance(obj, list) and len(obj) == 4 and all(type(v) is int for v in obj)):
        raise DiagramFormatError(f"point must be [xnum, xden, ynum, yden] of ints, got {obj!r}")
    xn, xd, yn, yd = obj
    if xd == 0 or yd == 0:
        raise DiagramFormatError("zero denominator in point")
    return Point(rat(xn, xd), rat(yn, yd))


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
