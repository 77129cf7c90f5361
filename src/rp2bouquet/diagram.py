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
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .geometry import (
    EMPTY,
    Point,
    Rat,
    SegKind,
    SegmentIntersection,
    _proper,
    mat_apply,
    on_unit_circle,
    orient2d,
    rat,
    seam_reflection,
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

    def __len__(self) -> int:
        return len(self.points)

    @property
    def segments(self) -> int:
        return len(self.points) - 1


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

    def involves(self, loop: int, keys: set[tuple[int, int]]) -> bool:
        return (self.loop_a == loop and (self.param_a.leg, self.param_a.seg) in keys) or (
            self.loop_b == loop and (self.param_b.leg, self.param_b.seg) in keys
        )


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
    :class:`_Seg`) in (loop, leg, seg) order and `locations` the
    :func:`_location_key` of each crossing, so that a move can update both
    instead of rebuilding them; both are empty for an invalid diagram.
    """

    violations: tuple[Violation, ...]
    crossings: tuple[Crossing, ...]
    records: tuple = field(default=(), compare=False, repr=False)
    locations: frozenset = field(default=frozenset(), compare=False, repr=False)


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
    if q != -p:
        out.append(Violation("SeamNotAntipodal", li, ki, note="legs must rejoin at the antipode"))
        return
    d_out = p - a.points[-2]
    d_in = b.points[1] - q
    if d_out.is_zero() or d_in.is_zero():
        return
    w = mat_apply(seam_reflection(p), d_out)
    if not (w.cross(d_in) == 0 and w.dot(d_in) > 0):
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
    """A key that codirectional nonzero vectors share exactly; None for 0."""
    if v.x:
        return (1 if v.x > 0 else -1, v.y / v.x)
    return (0, 1 if v.y > 0 else -1) if v.y else None


def _check_vertex_directions(out: list[Violation], d: BouquetDiagram) -> None:
    """Codirectional half-edges at V; every leg has at least two points."""
    star = vertex_directions(d)
    for i, j in _equal_key_pairs([_ray(v) for _, v in star]):
        li, lj = star[i][0].loop, star[j][0].loop
        out.append(Violation("CodirectionalAtVertex", li,
                             note=f"half-edges of loops {li} and {lj}"))


def _check_seam_table(out: list[Violation], d: BouquetDiagram) -> None:
    exits: list[tuple[int, Point]] = []
    for li, loop in enumerate(d.loops):
        for leg in loop.legs[:-1]:
            exits.append((li, leg.points[-1]))
    # a point and its antipode share a key
    for i, j in _equal_key_pairs([max((p.x, p.y), (-p.x, -p.y)) for _, p in exits]):
        (li, p), (lj, q) = exits[i], exits[j]
        kind = "CoincidentSeamPoints" if p == q else "AntipodalSeamPoints"
        out.append(Violation(kind, li, note=f"loops {li} and {lj}"))


def _structural_violations(d: BouquetDiagram) -> list[Violation]:
    out: list[Violation] = []
    if d.n < 1:
        out.append(Violation("BadLoopCount", note="n must be >= 1"))
    if len(d.loops) != d.n:
        out.append(Violation("BadLoopCount", note=f"expected {d.n} loops, found {len(d.loops)}"))
    if d.vertex.norm2() >= 1:
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
    """One segment with its exact least x, its end points in floats and the
    float box of those.

    The floats only filter; every decision is exact.  The box (`fminx` ...)
    may only prove two segments disjoint, by lying strictly apart from the
    other's: float() is monotone (see :mod:`rp2bouquet.geometry`).  The float
    end points (`fax` ...) give orientation signs that are trusted only beyond
    a proved error bound (see :func:`_meet`); any other pair is decided by the
    exact predicates.  The exact `minx` is the sweep's sort key, which fixes
    the order of reported violations.
    """

    loop: int
    leg: int
    seg: int
    a: Point
    b: Point
    minx: Rat
    at_vertex: bool
    fminx: float
    fmaxx: float
    fminy: float
    fmaxy: float
    fax: float
    fay: float
    fbx: float
    fby: float


def _make_seg(li: int, ki: int, si: int, a: Point, b: Point, at_v: bool) -> _Seg:
    # coordinates of a valid diagram lie in [-1, 1], so float() never overflows
    fax, fay, fbx, fby = float(a.x), float(a.y), float(b.x), float(b.y)
    minx = a.x if a.x <= b.x else b.x
    fminx, fmaxx = (fax, fbx) if fax <= fbx else (fbx, fax)
    fminy, fmaxy = (fay, fby) if fay <= fby else (fby, fay)
    return _Seg(li, ki, si, a, b, minx, at_v, fminx, fmaxx, fminy, fmaxy, fax, fay, fbx, fby)


def _reindexed(r: _Seg, ki: int, si: int, at_v: bool) -> _Seg:
    """The same segment under a new (leg, seg) address; the floats are kept."""
    return _Seg(r.loop, ki, si, r.a, r.b, r.minx, at_v,
                r.fminx, r.fmaxx, r.fminy, r.fmaxy, r.fax, r.fay, r.fbx, r.fby)


def _segment_records(d: BouquetDiagram) -> list[_Seg]:
    """Records of every segment in (loop, leg, seg) order."""
    records = []
    for li, loop in enumerate(d.loops):
        last_leg = len(loop.legs) - 1
        for ki, leg in enumerate(loop.legs):
            pts = leg.points
            last_seg = len(pts) - 2
            for si in range(len(pts) - 1):
                at_v = (ki == 0 and si == 0) or (ki == last_leg and si == last_seg)
                records.append(_make_seg(li, ki, si, pts[si], pts[si + 1], at_v))
    return records


def _skip_pair(s: _Seg, t: _Seg) -> bool:
    if s.loop == t.loop and s.leg == t.leg and abs(s.seg - t.seg) == 1:
        return True  # consecutive corner; cusp/overlap handled structurally
    if s.at_vertex and t.at_vertex:
        return True  # both touch V; overlap handled by the codirection check
    return False


def _pair_crossing(s: _Seg, t: _Seg, res, frame: int) -> Crossing:
    """The crossing of a PROPER intersection `res` of s and t; `frame` is the
    sign of da x db, which is orient2d(s.a, s.b, t.b): t.a and t.b lie
    strictly on opposite sides of s, so da x (t.b - t.a) = da x (t.b - s.a) -
    da x (t.a - s.a) has the sign of its first term."""
    pa = LoopParam(s.leg, s.seg, res.t1)
    pb = LoopParam(t.leg, t.seg, res.t2)
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


def _scan_pairs(records: list[_Seg], pairs: Iterable[tuple[_Seg, _Seg]],
                out_violations: list[Violation], out_crossings: list[Crossing]) -> None:
    for s, t in pairs:
        res, frame = _meet(s, t)
        if res.kind is SegKind.PROPER:
            out_crossings.append(_pair_crossing(s, t, res, frame))
        elif res.kind is SegKind.DEGENERATE:
            out_violations.append(Violation(
                "NonTransversal", s.loop, s.leg, s.seg,
                note=f"against loop={t.loop} leg={t.leg} segment={t.seg}"))


def _all_pairs(records: list[_Seg]) -> Iterator[tuple[_Seg, _Seg]]:
    order = sorted(range(len(records)), key=lambda i: records[i].minx)
    active: list[int] = []
    for idx in order:
        s = records[idx]
        kept = []
        for j in active:
            t = records[j]
            if t.fmaxx < s.fminx:
                continue
            kept.append(j)
            if t.fminy > s.fmaxy or t.fmaxy < s.fminy or _skip_pair(s, t):
                continue
            yield s, t
        kept.append(idx)
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
    records = _segment_records(d)
    found: list[Crossing] = []
    _scan_pairs(records, _all_pairs(records), violations, found)
    _check_crossing_set(violations, d.vertex, found)
    if violations:
        return DiagramAnalysis(tuple(violations), ())
    found.sort(key=Crossing.sort_key)
    locations = frozenset(_location_key(c.location) for c in found)
    return DiagramAnalysis((), tuple(found), tuple(records), locations)


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
