"""Exact rational geometry for the closed-disk model of the projective plane.

The projective plane RP^2 is modelled as the closed unit disk with antipodal
boundary points identified.  The boundary circle is called the *seam*: a curve
that reaches the seam at a point p continues from -p.  The gluing chart that
realizes this identification is orientation reversing; its differential at p is
the reflection returned by :func:`seam_reflection`, a symmetric involution with
determinant -1 that fixes the radial direction through p.

All coordinates are exact rationals, `Rat` = `fractions.Fraction`.  Every
integer predicate and the float filter rely on two facts of it: values are
kept in lowest terms with a positive denominator, and ``float()`` is the
correctly rounded ``numerator / denominator``, so within a relative 2^-53 of
the exact value and monotone.  Every predicate here returns a true sign, and
no decision rests on a tolerance.  Callers may filter with floats (the
structural check and the segment scan in :mod:`rp2bouquet.diagram` do), but
only where a proved error bound makes the float answer certain; everything
else falls back to these predicates.  This is what makes "generic position"
a decidable property rather than a numerical judgement call: two segments
either cross transversally in their interiors, or miss each other, or are in
a degenerate configuration, and the three cases are distinguished exactly.

Constructions work on the same integers: a constructed point (`_along`, the
templates of :mod:`rp2bouquet.moves`) is put on one common denominator and
built as one `Rat` per coordinate, one gcd each instead of one per operation,
with the value the `Point` arithmetic would give.  A crossing stays ints
(`_proper_ints`: its location in lowest terms, its parameters unreduced) until
a splice passes its checks, so a move blocked on its count builds no `Rat`.  A
direction needed only up to a positive factor is a `Point` of ints
(`_direction`); the predicates read ints as they read `Rat`s, through
``numerator`` and ``denominator``.

Rational points on the unit circle come from the tangent-half-angle map

    u  |->  ((1 - u^2) / (1 + u^2),  2u / (1 + u^2)),

which hits every rational circle point except (-1, 0) and lets the rest of the
package pick seam points and directions without ever leaving Q^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cmp_to_key
from fractions import Fraction as Rat
from math import gcd
from typing import Sequence

__all__ = [
    "Rat",
    "rat",
    "Point",
    "Mat2",
    "CodirectionalVectors",
    "orient2d",
    "SegKind",
    "SegmentIntersection",
    "segment_intersection",
    "seam_reflection",
    "mat_apply",
    "circle_point",
    "antipode",
    "on_unit_circle",
    "unit_circle_side",
    "angle_sort",
]

# coerces ints, strings like "3/4" and Fractions, or a numerator and denominator
rat = Rat


class CodirectionalVectors(ValueError):
    """Two vectors point in exactly the same direction (positively parallel)."""


@dataclass(frozen=True, slots=True)
class Point:
    """A point of (or vector in) the rational plane."""

    x: Rat
    y: Rat

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def scale(self, k) -> "Point":
        return Point(self.x * k, self.y * k)

    def dot(self, other: "Point") -> Rat:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> Rat:
        return self.x * other.y - self.y * other.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def pt(x, y) -> Point:
    """Build a Point, coercing both coordinates to `Rat`."""
    return Point(rat(x), rat(y))


def _along(a: Point, b: Point, s: Rat) -> Point:
    """a + s (b - a), one `Rat` per coordinate (see the module docstring)."""
    axn, axd, ayn, ayd = a.x.numerator, a.x.denominator, a.y.numerator, a.y.denominator
    bxn, bxd, byn, byd = b.x.numerator, b.x.denominator, b.y.numerator, b.y.denominator
    sn, sd = s.numerator, s.denominator
    return Point(Rat(axn * bxd * sd + sn * (bxn * axd - axn * bxd), axd * bxd * sd),
                 Rat(ayn * byd * sd + sn * (byn * ayd - ayn * byd), ayd * byd * sd))


def _direction(a: Point, b: Point) -> Point:
    """b - a times the positive axd * bxd * ayd * byd: a Point of ints."""
    axd, ayd, bxd, byd = a.x.denominator, a.y.denominator, b.x.denominator, b.y.denominator
    return Point((b.x.numerator * axd - a.x.numerator * bxd) * ayd * byd,
                 (b.y.numerator * ayd - a.y.numerator * byd) * axd * bxd)


def orient2d(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of the triangle (a, b, c).

    +1 when c lies strictly to the left of the directed line a->b, -1 when
    strictly to the right, 0 when the three points are collinear.  Computed
    as the exact sign of a 2x2 determinant, so there is no tolerance and no
    wrong answer near degeneracy.

    The determinant

        (bx - ax)(cy - ay) - (by - ay)(cx - ax)

    is multiplied through by the six coordinate denominators, which are
    positive (see the module docstring), so its sign is that of an integer
    expression in numerators and denominators.  Only the sign is needed, so no
    intermediate rational is built or reduced (no gcd per operation).

    >>> orient2d(pt(0, 0), pt(1, 0), pt(0, 1))
    1
    >>> orient2d(pt(0, 0), pt(1, 0), pt(2, 0))
    0
    """
    axn, axd = a.x.numerator, a.x.denominator
    ayn, ayd = a.y.numerator, a.y.denominator
    bxn, bxd = b.x.numerator, b.x.denominator
    byn, byd = b.y.numerator, b.y.denominator
    cxn, cxd = c.x.numerator, c.x.denominator
    cyn, cyd = c.y.numerator, c.y.denominator
    # (bx - ax)(cy - ay) and (by - ay)(cx - ax), both scaled by
    # axd * ayd * bxd * byd * cxd * cyd > 0
    left = (bxn * axd - axn * bxd) * (cyn * ayd - ayn * cyd) * byd * cxd
    right = (byn * ayd - ayn * byd) * (cxn * axd - axn * cxd) * bxd * cyd
    if left > right:
        return 1
    if left < right:
        return -1
    return 0


# ---------------------------------------------------------------------------
# segment intersection
# ---------------------------------------------------------------------------

class SegKind(Enum):
    EMPTY = "empty"
    PROPER = "proper"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, slots=True)
class SegmentIntersection:
    """Classification of how two closed segments meet.

    PROPER carries the crossing point and the two parameters, both strictly
    inside (0, 1).  DEGENERATE covers every non-transversal contact: a shared
    endpoint, an endpoint in the other segment's interior, or collinear
    overlap.  EMPTY means the segments are disjoint.
    """

    kind: SegKind
    point: Point | None = None
    t1: Rat | None = None
    t2: Rat | None = None


def _between_on_line(p: Point, u: Point, v: Point) -> bool:
    # p is known to be on the line through u, v; test membership in the
    # closed segment by coordinate ranges (exact).
    if u.x != v.x:
        lo, hi = (u.x, v.x) if u.x < v.x else (v.x, u.x)
        return lo <= p.x <= hi
    lo, hi = (u.y, v.y) if u.y < v.y else (v.y, u.y)
    return lo <= p.y <= hi


def segment_intersection(a: Point, b: Point, c: Point, d: Point) -> SegmentIntersection:
    """Exactly classify the intersection of segments [a, b] and [c, d].

    Both segments must have distinct endpoints.  The result is symmetric in
    the two segments up to swapping the reported parameters.

    >>> r = segment_intersection(pt(0, 0), pt(1, 1), pt(0, 1), pt(1, 0))
    >>> r.kind.value, str(r.point.x), str(r.point.y), str(r.t1), str(r.t2)
    ('proper', '1/2', '1/2', '1/2', '1/2')
    >>> segment_intersection(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 1)).kind.value
    'degenerate'
    """
    kind = _kind(a, b, c, d)
    if kind is not SegKind.PROPER:
        return SegmentIntersection(kind)
    (xn, xd, yn, yd), (n1, n2, den) = _proper_ints(a, b, c, d)
    return SegmentIntersection(kind, Point(Rat(xn, xd), Rat(yn, yd)), Rat(n1, den), Rat(n2, den))


def _kind(a: Point, b: Point, c: Point, d: Point) -> SegKind:
    """The kind of segment_intersection(a, b, c, d), with nothing built."""
    oc = orient2d(a, b, c)
    od = orient2d(a, b, d)
    # a == b makes both signs 0 and c == d makes them equal, so the endpoint
    # test is needed only when they agree
    if oc == od and (a == b or c == d):
        raise ValueError("segment endpoints must be distinct")
    if oc * od > 0:
        return SegKind.EMPTY  # c and d strictly on one side of the line through a, b
    oa = orient2d(c, d, a)
    ob = orient2d(c, d, b)
    if oa * ob < 0 and oc * od < 0:
        return SegKind.PROPER
    if oa == 0 and _between_on_line(a, c, d):
        return SegKind.DEGENERATE
    if ob == 0 and _between_on_line(b, c, d):
        return SegKind.DEGENERATE
    if oc == 0 and _between_on_line(c, a, b):
        return SegKind.DEGENERATE
    if od == 0 and _between_on_line(d, a, b):
        return SegKind.DEGENERATE
    return SegKind.EMPTY


def _proper_ints(a: Point, b: Point, c: Point, d: Point) -> tuple[tuple, tuple]:
    """The PROPER crossing of [a, b] and [c, d] as ints: its location (xn, xd,
    yn, yd) in lowest terms, as its `Rat` coordinates hold it, and the
    unreduced (n1, n2, den) with t1 = n1 / den and t2 = n2 / den."""
    # With e1 = b - a, e2 = d - c, f = c - a:
    #   t1 = (f x e2) / (e1 x e2),  t2 = (f x e1) / (e1 x e2),  point = a + t1 e1.
    # x coordinates are scaled by the product of their four denominators and
    # y coordinates likewise, which turns every quantity into an integer with
    # one common positive scale per ratio; only the location is reduced, by
    # one gcd per coordinate, whose sign makes each denominator positive.
    axd, bxd, cxd, dxd = a.x.denominator, b.x.denominator, c.x.denominator, d.x.denominator
    ayd, byd, cyd, dyd = a.y.denominator, b.y.denominator, c.y.denominator, d.y.denominator
    ab, cd = axd * bxd, cxd * dxd
    xa, xb = a.x.numerator * bxd * cd, b.x.numerator * axd * cd
    xc, xd = c.x.numerator * dxd * ab, d.x.numerator * cxd * ab
    ab, cd = ayd * byd, cyd * dyd
    ya, yb = a.y.numerator * byd * cd, b.y.numerator * ayd * cd
    yc, yd = c.y.numerator * dyd * ab, d.y.numerator * cyd * ab
    e1x, e1y, e2x, e2y, fx, fy = xb - xa, yb - ya, xd - xc, yd - yc, xc - xa, yc - ya
    den = e1x * e2y - e1y * e2x
    n1 = fx * e2y - fy * e2x
    n2 = fx * e1y - fy * e1x
    xnum, xden = xa * den + e1x * n1, axd * bxd * cxd * dxd * den
    ynum, yden = ya * den + e1y * n1, ayd * byd * cyd * dyd * den
    sign = 1 if den > 0 else -1
    gx, gy = sign * gcd(xnum, xden), sign * gcd(ynum, yden)
    return (xnum // gx, xden // gx, ynum // gy, yden // gy), (n1, n2, den)


# ---------------------------------------------------------------------------
# the seam
# ---------------------------------------------------------------------------

Mat2 = tuple[tuple[Rat, Rat], tuple[Rat, Rat]]


def unit_circle_side(p: Point) -> int:
    """Exact sign of |p|^2 - 1: -1 inside the unit circle, 0 on it, +1 outside."""
    xn, xd, yn, yd = p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
    # |p|^2 - 1 scaled by (xd * yd)^2 > 0
    lhs = (xn * yd) ** 2 + (yn * xd) ** 2
    rhs = (xd * yd) ** 2
    return (lhs > rhs) - (lhs < rhs)


def on_unit_circle(p: Point) -> bool:
    return unit_circle_side(p) == 0


def antipode(p: Point) -> Point:
    return -p


def circle_point(u) -> Point:
    """Rational unit-circle point at tangent-half-angle parameter u.

    The angle is 2*atan(u), strictly increasing in u, so increasing rational
    parameters give counterclockwise order on the circle minus (-1, 0).

    >>> p = circle_point(1)
    >>> str(p.x), str(p.y)
    ('0', '1')
    """
    u = rat(u)
    un, ud = u.numerator, u.denominator
    den = ud * ud + un * un
    return Point(Rat(ud * ud - un * un, den), Rat(2 * un * ud, den))


def seam_reflection(p: Point) -> Mat2:
    """Differential of the antipodal seam chart at exit point p.

    For p on the unit circle this is the reflection across the line through
    p and the origin:

        M(p) = [[px^2 - py^2, 2 px py], [2 px py, py^2 - px^2]].

    It is symmetric, an involution, fixes p, and has determinant -1; a
    direction d with outward radial component at p is carried to the legal
    entry direction M(p) d at -p (which points into the disk there).  Note
    M(-p) = M(p), so either representative of the seam point gives the same
    reflection.
    """
    if not on_unit_circle(p):
        raise ValueError(f"seam reflection needs a unit-circle point, got ({p.x}, {p.y})")
    mxx = p.x * p.x - p.y * p.y
    mxy = 2 * p.x * p.y
    return ((mxx, mxy), (mxy, -mxx))


def _reflect(x: int, y: int, u: int, v: int) -> tuple[int, int]:
    """c^2 M(p) (u, v) for p = (x, y) / c on the unit circle (see seam_reflection)."""
    mxx, mxy = x * x - y * y, 2 * x * y
    return mxx * u + mxy * v, mxy * u - mxx * v


def _seam_step(p: Point, d_out: Point) -> Point:
    """-p + M(p) d_out / 32: the first interior point after entering at -p."""
    # p = (x, y) / c: a rational unit-circle point has equal denominators
    x, c, y = p.x.numerator, p.x.denominator, p.y.numerator
    if p.y.denominator != c or x * x + y * y != c * c:
        raise ValueError(f"seam reflection needs a unit-circle point, got ({p.x}, {p.y})")
    dxn, dxd, dyn, dyd = d_out.x.numerator, d_out.x.denominator, d_out.y.numerator, d_out.y.denominator
    back = 32 * c * dxd * dyd
    wx, wy = _reflect(x, y, dxn * dyd, dyn * dxd)  # d_out times dxd * dyd
    den = back * c
    return Point(Rat(wx - back * x, den), Rat(wy - back * y, den))


def mat_apply(m: Mat2, v: Point) -> Point:
    return Point(m[0][0] * v.x + m[0][1] * v.y, m[1][0] * v.x + m[1][1] * v.y)


# ---------------------------------------------------------------------------
# angular order
# ---------------------------------------------------------------------------

def _half(v: Point) -> int:
    # 0 for angles in [0, pi) from (1, 0), 1 otherwise.  Denominators are
    # positive, so each sign is that of the numerator.
    y = v.y.numerator
    return 0 if y > 0 or (y == 0 and v.x.numerator > 0) else 1


def _angle_cmp(u: Point, v: Point) -> int:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return hu - hv
    # one half-plane spans less than pi, so u x v orders it; zero means
    # codirectional, as antipodal vectors lie in different halves
    cr = u.cross(v)
    if cr:
        return -1 if cr > 0 else 1
    raise CodirectionalVectors(f"({u.x}, {u.y}) and ({v.x}, {v.y}) are codirectional")


def angle_sort(vectors: Sequence[Point]) -> list[int]:
    """Indices of `vectors` in counterclockwise order from direction (1, 0).

    Comparison is exact (half-plane, then the sign of a cross product); two
    positively proportional vectors have no defined relative order and raise
    :class:`CodirectionalVectors`.  Antipodal vectors are fine.  The raise
    comes from the comparison itself: had a sort compared no two
    codirectional vectors, turning one of them slightly to either side of
    the other would change none of its comparisons, so it would return one
    order for two inputs that need different ones.

    >>> angle_sort([pt(0, -1), pt(1, 0)])
    [1, 0]
    """
    for v in vectors:
        if v.is_zero():
            raise ValueError("cannot angle-sort a zero vector")
    return sorted(range(len(vectors)), key=cmp_to_key(lambda i, j: _angle_cmp(vectors[i], vectors[j])))
