"""Exact rational geometry for the closed-disk model of the projective plane.

The projective plane RP^2 is modelled as the closed unit disk with antipodal
boundary points identified.  The boundary circle is called the *seam*: a curve
that reaches the seam at a point p continues from -p.  The gluing chart that
realizes this identification is orientation reversing; its differential at p is
the reflection returned by :func:`seam_reflection`, a symmetric involution with
determinant -1 that fixes the radial direction through p.

All coordinates are exact rationals.  A `Point` holds each coordinate as
two ints in lowest terms with a positive denominator (xn / xd, yn / yd),
reduced once, by `math.gcd`, when it is built; `x` and `y` are `Rat` =
`fractions.Fraction` views of them, built on each read, for callers outside
the engine.  Every integer predicate and the float filter rely on two facts
of that form: equal values have equal ints, and ``xn / xd`` is the
correctly rounded quotient on every supported Python (int true division
is), so within a relative 2^-53 of the exact value and monotone; it equals
``float(p.x)``.  Every predicate here returns a true sign, and no decision
rests on a tolerance.  Callers may filter with floats (in
:mod:`rp2bouquet.diagram`: the structural check, the segment scan and the
walk's drop check), but only where a proved error bound makes the float
answer certain; everything else falls back to these predicates.  This is
what makes "generic position" a decidable property rather than a numerical
judgement call: two segments either cross transversally in their interiors,
or miss each other, or are in a degenerate configuration, and the three
cases are distinguished exactly.

Constructions work on the same integers.  A constructed point (`_along`,
`_plus`, `_seam_step`, the templates of :mod:`rp2bouquet.moves`) is an *int
point* (xn, xd, yn, yd), denominators positive and unreduced, and `_point`
reduces it into a `Point`.  The constructors also take int points, so a
`Point` is read once, by `_ints`.  A crossing stays ints (`_proper_ints`:
its location and its parameters unreduced) until a splice passes its
checks, so a move blocked on its count builds no `Rat`; ``xn / xd`` is
correctly rounded whatever the ints, so the scans key a location by its
floats, confirm a float tie exactly, and leave `_point` to reduce it for a
public `Crossing`.  A direction needed only up to a positive factor is a
`Point` with denominators 1 (`_direction`).  Loading, checking, scanning
and dumping a diagram thus build no `Rat` at all.

Rational points on the unit circle come from the tangent-half-angle map

    u  |->  ((1 - u^2) / (1 + u^2),  2u / (1 + u^2)),

which hits every rational circle point except (-1, 0) and lets the rest of the
package pick seam points and directions without ever leaving Q^2.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
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


class Point:
    """A point of (or vector in) the rational plane, immutable.

    It holds x = xn / xd and y = yn / yd as four ints in lowest terms with
    positive denominators; `x` and `y` are `Rat` views, built on each read.
    Equality, hashing and the repr are those of the pair (x, y)."""

    __slots__ = ("xn", "xd", "yn", "yd")

    def __new__(cls, x, y) -> "Point":
        # an int or a Rat holds its value in lowest terms, denominator positive
        return _lowest(x.numerator, x.denominator, y.numerator, y.denominator)

    @property
    def x(self) -> Rat:
        return Rat(self.xn, self.xd)

    @property
    def y(self) -> Rat:
        return Rat(self.yn, self.yd)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Point, (self.x, self.y)

    def __repr__(self) -> str:
        return f"Point(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other):
        if other.__class__ is not Point:
            return NotImplemented
        return self.xn == other.xn and self.xd == other.xd and self.yn == other.yn and self.yd == other.yd

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __add__(self, other: "Point") -> "Point":
        return _point(*_plus(_ints(self), _ints(other), 1, 1))

    def __sub__(self, other: "Point") -> "Point":
        return _point(*_plus(_ints(self), _ints(other), -1, 1))

    def __neg__(self) -> "Point":
        return _lowest(-self.xn, self.xd, -self.yn, self.yd)

    def scale(self, k) -> "Point":
        kn, kd = k.numerator, k.denominator
        return _point(self.xn * kn, self.xd * kd, self.yn * kn, self.yd * kd)

    def dot(self, other: "Point") -> Rat:
        xd, yd = self.xd * other.xd, self.yd * other.yd
        return Rat(self.xn * other.xn * yd + self.yn * other.yn * xd, xd * yd)

    def cross(self, other: "Point") -> Rat:
        xd, yd = self.xd * other.yd, self.yd * other.xd  # x other.y, y other.x
        return Rat(self.xn * other.yn * yd - self.yn * other.xn * xd, xd * yd)

    def is_zero(self) -> bool:
        return self.xn == 0 and self.yn == 0


# the slots' own setters, which the frozen __setattr__ does not reach
_XN, _XD, _YN, _YD = Point.xn.__set__, Point.xd.__set__, Point.yn.__set__, Point.yd.__set__
_new = object.__new__


def _lowest(xn: int, xd: int, yn: int, yd: int) -> Point:
    """The Point (xn / xd, yn / yd) of ints already in lowest terms, xd, yd > 0."""
    p = _new(Point)
    _XN(p, xn)
    _XD(p, xd)
    _YN(p, yn)
    _YD(p, yd)
    return p


def _point(xn: int, xd: int, yn: int, yd: int) -> Point:
    """The Point (xn / xd, yn / yd) of any ints with nonzero denominators."""
    gx = gcd(xn, xd) if xd > 0 else -gcd(xn, xd)
    gy = gcd(yn, yd) if yd > 0 else -gcd(yn, yd)
    return _lowest(xn // gx, xd // gx, yn // gy, yd // gy)


def pt(x, y) -> Point:
    """Build a Point, coercing both coordinates to `Rat`."""
    return Point(rat(x), rat(y))


def _ints(p: Point) -> tuple[int, int, int, int]:
    """p as an int point, in lowest terms: a key equal for equal points."""
    return p.xn, p.xd, p.yn, p.yd


def _along(a: tuple, b: tuple, sn: int, sd: int) -> tuple[int, int, int, int]:
    """a + (sn / sd)(b - a) for int points a and b, sd > 0, as an int point."""
    (axn, axd, ayn, ayd), (bxn, bxd, byn, byd) = a, b
    return (axn * bxd * sd + sn * (bxn * axd - axn * bxd), axd * bxd * sd,
            ayn * byd * sd + sn * (byn * ayd - ayn * byd), ayd * byd * sd)


def _plus(p: tuple, v: tuple, kn: int, kd: int) -> tuple[int, int, int, int]:
    """p + (kn / kd) v for int points p and v, kd > 0, as an int point."""
    (xn, xd, yn, yd), (un, ud, vn, vd) = p, v
    return xn * ud * kd + kn * un * xd, xd * ud * kd, yn * vd * kd + kn * vn * yd, yd * vd * kd


def _direction(a: Point, b: Point) -> Point:
    """b - a times the positive axd * bxd * ayd * byd: a Point of ints
    (denominators 1), so not in lowest terms as a vector."""
    axd, ayd = a.xd, a.yd
    bxd, byd = b.xd, b.yd
    return _lowest((b.xn * axd - a.xn * bxd) * ayd * byd, 1, (b.yn * ayd - a.yn * byd) * axd * bxd, 1)


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
    axn, axd = a.xn, a.xd
    ayn, ayd = a.yn, a.yd
    bxn, bxd = b.xn, b.xd
    byn, byd = b.yn, b.yd
    cxn, cxd = c.xn, c.xd
    cyn, cyd = c.yn, c.yd
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
    # closed segment by a coordinate on which u and v differ (exact): p lies
    # between them when (p - u)(p - v) <= 0, here times pd^2 ud vd > 0
    if u.xn != v.xn or u.xd != v.xd:
        return (p.xn * u.xd - u.xn * p.xd) * (p.xn * v.xd - v.xn * p.xd) <= 0
    return (p.yn * u.yd - u.yn * p.yd) * (p.yn * v.yd - v.yn * p.yd) <= 0


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
    at, (n1, n2, den) = _proper_ints(a, b, c, d)
    return SegmentIntersection(kind, _point(*at), Rat(n1, den), Rat(n2, den))


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
    """The PROPER crossing of [a, b] and [c, d] as unreduced ints: its
    location (xn, xd, yn, yd), x = xn / xd and y = yn / yd with denominators
    of den's sign, which `_point` reduces into a `Point`, and (n1, n2, den)
    with t1 = n1 / den and t2 = n2 / den."""
    # With e1 = b - a, e2 = d - c, f = c - a:
    #   t1 = (f x e2) / (e1 x e2),  t2 = (f x e1) / (e1 x e2),  point = a + t1 e1.
    # x coordinates are scaled by the product of their four denominators and
    # y coordinates likewise, which turns every quantity into an integer with
    # one common positive scale per ratio.  Nothing is reduced: no decision
    # needs lowest terms, and the two gcds would cost half the kernel.
    axd, bxd = a.xd, b.xd
    cxd, dxd = c.xd, d.xd
    ab, cd = axd * bxd, cxd * dxd
    xa, xb = a.xn * bxd * cd, b.xn * axd * cd
    xc, xd = c.xn * dxd * ab, d.xn * cxd * ab
    ayd, byd = a.yd, b.yd
    cyd, dyd = c.yd, d.yd
    ab, cd = ayd * byd, cyd * dyd
    ya, yb = a.yn * byd * cd, b.yn * ayd * cd
    yc, yd = c.yn * dyd * ab, d.yn * cyd * ab
    e1x, e1y, e2x, e2y, fx, fy = xb - xa, yb - ya, xd - xc, yd - yc, xc - xa, yc - ya
    den = e1x * e2y - e1y * e2x
    n1 = fx * e2y - fy * e2x
    n2 = fx * e1y - fy * e1x
    return ((xa * den + e1x * n1, axd * bxd * cxd * dxd * den,
             ya * den + e1y * n1, ayd * byd * cyd * dyd * den), (n1, n2, den))


# ---------------------------------------------------------------------------
# the seam
# ---------------------------------------------------------------------------

Mat2 = tuple[tuple[Rat, Rat], tuple[Rat, Rat]]


def unit_circle_side(p: Point) -> int:
    """Exact sign of |p|^2 - 1: -1 inside the unit circle, 0 on it, +1 outside."""
    xn, xd = p.xn, p.xd
    yn, yd = p.yn, p.yd
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
    if not isinstance(u, (int, Rat)):
        u = rat(u)
    un, ud = u.numerator, u.denominator
    den = ud * ud + un * un
    return _point(ud * ud - un * un, den, 2 * un * ud, den)


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


def _seam_step(p: tuple, d_out: tuple) -> tuple[int, int, int, int]:
    """-p + M(p) d_out / 32 of int points, the first interior point after entering at -p."""
    # p = (x, y) / c: a rational unit-circle point has equal denominators
    x, c, y, cy = p
    if cy != c or x * x + y * y != c * c:
        raise ValueError(f"seam reflection needs a unit-circle point, got ({Rat(x, c)}, {Rat(y, cy)})")
    dxn, dxd, dyn, dyd = d_out
    back = 32 * c * dxd * dyd
    wx, wy = _reflect(x, y, dxn * dyd, dyn * dxd)  # d_out times dxd * dyd
    den = back * c
    return wx - back * x, den, wy - back * y, den


def mat_apply(m: Mat2, v: Point) -> Point:
    return Point(m[0][0] * v.x + m[0][1] * v.y, m[1][0] * v.x + m[1][1] * v.y)


# ---------------------------------------------------------------------------
# angular order
# ---------------------------------------------------------------------------

def _half(v: Point) -> int:
    # 0 for angles in [0, pi) from (1, 0), 1 otherwise.  Denominators are
    # positive, so each sign is that of the numerator.
    y = v.yn
    return 0 if y > 0 or (y == 0 and v.xn > 0) else 1


def _angle_cmp(u: Point, v: Point) -> int:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return hu - hv
    # one half-plane spans less than pi, so u x v orders it; zero means
    # codirectional, as antipodal vectors lie in different halves.  Here
    # u x v is times uyd * vxd * uxd * vyd > 0.
    cr = u.xn * v.yn * u.yd * v.xd - u.yn * v.xn * u.xd * v.yd
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
