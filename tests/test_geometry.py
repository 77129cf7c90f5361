import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rp2bouquet.geometry import (
    CodirectionalVectors,
    Point,
    SegKind,
    _ints,
    _point,
    _proper_ints,
    angle_sort,
    antipode,
    circle_point,
    mat_apply,
    on_unit_circle,
    orient2d,
    pt,
    rat,
    seam_reflection,
    segment_intersection,
    unit_circle_side,
)
from rp2bouquet.diagram import DiagramFormatError, _point_from_json, dumps, loads

rats = st.builds(rat, st.integers(-8, 8), st.integers(1, 8))
points = st.builds(pt, rats, rats)
# coordinates with denominators up to ~300 bits, as long move chains produce
big_rats = st.builds(rat, st.integers(-(2 ** 300), 2 ** 300), st.integers(1, 2 ** 300))
big_points = st.builds(pt, big_rats, big_rats)
# 570-bit numerators and denominators, the top of the bench's orient2d rows
huge_rats = st.builds(rat, st.integers(-(2 ** 570), 2 ** 570), st.integers(1, 2 ** 570))
huge_points = st.builds(pt, huge_rats, huge_rats)


def frac(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def fraction_orient(a, b, c) -> int:
    """Reference: the sign of the determinant evaluated in Fraction arithmetic."""
    det = ((frac(b.x) - frac(a.x)) * (frac(c.y) - frac(a.y))
           - (frac(b.y) - frac(a.y)) * (frac(c.x) - frac(a.x)))
    return (det > 0) - (det < 0)


# ---------------------------------------------------------------------------
# orientation predicate
# ---------------------------------------------------------------------------

def test_orient2d_basic():
    assert orient2d(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient2d(pt(0, 0), pt(0, 1), pt(1, 0)) == -1
    assert orient2d(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


@given(points, points, points)
def test_orient2d_antisymmetry(a, b, c):
    assert orient2d(a, b, c) == -orient2d(b, a, c) == orient2d(b, c, a)


@given(points, points, points, rats, rats)
def test_orient2d_translation_invariant(a, b, c, dx, dy):
    t = pt(dx, dy)
    assert orient2d(a, b, c) == orient2d(a + t, b + t, c + t)


@given(st.one_of(points, big_points), st.one_of(points, big_points),
       st.one_of(points, big_points))
def test_orient2d_matches_fraction_determinant(a, b, c):
    assert orient2d(a, b, c) == fraction_orient(a, b, c)


@given(big_points, big_points, big_rats, st.integers(-3, 3), st.integers(-3, 3))
def test_orient2d_near_collinear(a, b, t, dx, dy):
    """c on the line through a, b, then moved by 2^-200 (dx, dy): the sign is
    that of (b - a) x (dx, dy), however small the move."""
    eps = rat(1, 2 ** 200)
    c = a + (b - a).scale(t) + pt(dx, dy).scale(eps)
    expected = fraction_orient(a, b, a + pt(dx, dy))
    assert orient2d(a, b, c) == expected == fraction_orient(a, b, c)
    assert orient2d(a, b, a + (b - a).scale(t)) == 0


@given(st.one_of(points, big_points))
def test_unit_circle_side_matches_norm(p):
    n2 = frac(p.x) ** 2 + frac(p.y) ** 2
    assert unit_circle_side(p) == (n2 > 1) - (n2 < 1)
    assert on_unit_circle(p) == (n2 == 1)


@given(st.builds(rat, st.integers(-40, 40), st.integers(1, 40)))
def test_unit_circle_side_on_circle(u):
    p = circle_point(u)
    assert unit_circle_side(p) == 0
    assert unit_circle_side(p.scale(rat(99, 100))) == -1
    assert unit_circle_side(p.scale(rat(101, 100))) == 1


# ---------------------------------------------------------------------------
# segment intersection
# ---------------------------------------------------------------------------

def test_proper_crossing_exact():
    res = segment_intersection(pt(0, 0), pt(1, 1), pt(0, 1), pt(1, 0))
    assert res.kind is SegKind.PROPER
    assert res.point == pt("1/2", "1/2")
    assert res.t1 == rat(1, 2) and res.t2 == rat(1, 2)


def test_disjoint_is_empty():
    res = segment_intersection(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))
    assert res.kind is SegKind.EMPTY


def test_shared_endpoint_is_degenerate():
    res = segment_intersection(pt(0, 0), pt(1, 0), pt(1, 0), pt(1, 1))
    assert res.kind is SegKind.DEGENERATE


def test_endpoint_in_interior_is_degenerate():
    res = segment_intersection(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 1))
    assert res.kind is SegKind.DEGENERATE


def test_collinear_overlap_is_degenerate():
    res = segment_intersection(pt(0, 0), pt(2, 0), pt(1, 0), pt(3, 0))
    assert res.kind is SegKind.DEGENERATE


def test_collinear_disjoint_is_empty():
    res = segment_intersection(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0))
    assert res.kind is SegKind.EMPTY


def test_vertical_collinear_touch_at_an_end_is_degenerate():
    """Vertical segments on one line that meet only at a shared end point,
    either way round: the touching end is between the other's ends by its y
    coordinate alone, with a zero factor in the product that decides it."""
    res = segment_intersection(pt(0, 0), pt(0, 1), pt(0, 0), pt(0, -1))
    assert res.kind is SegKind.DEGENERATE
    res = segment_intersection(pt(0, 1), pt(0, 0), pt(0, -1), pt(0, 0))
    assert res.kind is SegKind.DEGENERATE


def test_zero_length_segment_rejected():
    with pytest.raises(ValueError):
        segment_intersection(pt(0, 0), pt(0, 0), pt(1, 0), pt(1, 1))


@given(points, points, points, points)
def test_intersection_symmetric_in_segments(a, b, c, d):
    if a == b or c == d:
        return
    r1 = segment_intersection(a, b, c, d)
    r2 = segment_intersection(c, d, a, b)
    assert r1.kind is r2.kind
    if r1.kind is SegKind.PROPER:
        assert r1.point == r2.point
        assert (r1.t1, r1.t2) == (r2.t2, r2.t1)


@given(points, points, points, points)
def test_proper_against_line_solve_oracle(a, b, c, d):
    """Cross-check PROPER results against an independent Cramer solve."""
    if a == b or c == d:
        return
    res = segment_intersection(a, b, c, d)
    e1 = b - a
    e2 = d - c
    denom = e1.cross(e2)
    if denom != 0:
        t1 = (c - a).cross(e2) / denom
        t2 = (c - a).cross(e1) / denom
        proper = 0 < t1 < 1 and 0 < t2 < 1
        assert (res.kind is SegKind.PROPER) == proper
        if proper:
            assert res.point == a + e1.scale(t1)
            assert (res.t1, res.t2) == (t1, t2)
    else:
        assert res.kind is not SegKind.PROPER


@given(big_points, big_points, big_points, big_points)
def test_proper_big_rationals_against_fraction_oracle(a, b, c, d):
    """The integer construction of a crossing equals the Fraction formula."""
    if a == b or c == d:
        return
    res = segment_intersection(a, b, c, d)
    ax, ay, bx, by = frac(a.x), frac(a.y), frac(b.x), frac(b.y)
    cx, cy, dx, dy = frac(c.x), frac(c.y), frac(d.x), frac(d.y)
    e1x, e1y, e2x, e2y, fx, fy = bx - ax, by - ay, dx - cx, dy - cy, cx - ax, cy - ay
    denom = e1x * e2y - e1y * e2x
    if denom == 0:
        assert res.kind is not SegKind.PROPER
        return
    t1 = (fx * e2y - fy * e2x) / denom
    t2 = (fx * e1y - fy * e1x) / denom
    proper = 0 < t1 < 1 and 0 < t2 < 1
    assert (res.kind is SegKind.PROPER) == proper
    if proper:
        assert (frac(res.t1), frac(res.t2)) == (t1, t2)
        assert (frac(res.point.x), frac(res.point.y)) == (ax + t1 * e1x, ay + t1 * e1y)


@given(*[st.one_of(points, big_points, huge_points)] * 4)
def test_proper_ints_give_the_built_crossing(a, b, c, d):
    """The integer kernel gives the crossing that segment_intersection
    builds, location and parameters unreduced, for either sign of e1 x e2
    (swapping c and d flips it): `_point` reduces the location to the built
    point exactly, and its floats, which the scans key locations by, are
    the point's."""
    # of three pairings of four points in convex position, one crosses
    hits = [q for q in ((a, b, c, d), (a, c, b, d), (a, d, b, c))
            if q[0] != q[1] and q[2] != q[3] and segment_intersection(*q).kind is SegKind.PROPER]
    assume(hits)
    p, q, u, v = hits[0]
    res = segment_intersection(p, q, u, v)
    signs = set()
    for ends, t1, t2 in (((p, q, u, v), res.t1, res.t2), ((p, q, v, u), res.t1, 1 - res.t2)):
        key, (n1, n2, den) = _proper_ints(*ends)
        assert _point(*key) == res.point
        p = res.point
        assert (key[0] / key[1], key[2] / key[3]) == (p.xn / p.xd, p.yn / p.yd)
        assert (rat(n1, den), rat(n2, den)) == (t1, t2)
        signs.add(den > 0)
    assert signs == {False, True}


@given(points, points, points, points)
def test_degenerate_matches_contact_oracle(a, b, c, d):
    """DEGENERATE iff the closed segments touch without a proper crossing."""
    if a == b or c == d:
        return

    def on_closed(p, u, v):
        if orient2d(u, v, p) != 0:
            return False
        lo_x, hi_x = min(u.x, v.x), max(u.x, v.x)
        lo_y, hi_y = min(u.y, v.y), max(u.y, v.y)
        return lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y

    res = segment_intersection(a, b, c, d)
    endpoint_contact = (on_closed(a, c, d) or on_closed(b, c, d)
                        or on_closed(c, a, b) or on_closed(d, a, b))
    if res.kind is SegKind.DEGENERATE:
        assert endpoint_contact
    if res.kind is SegKind.EMPTY:
        assert not endpoint_contact


# ---------------------------------------------------------------------------
# seam reflection
# ---------------------------------------------------------------------------

def test_seam_reflection_worked_example():
    m = seam_reflection(pt("3/5", "4/5"))
    assert m == ((rat(-7, 25), rat(24, 25)), (rat(24, 25), rat(7, 25)))


def test_seam_reflection_requires_circle_point():
    with pytest.raises(ValueError):
        seam_reflection(pt("1/2", "1/2"))


circle_units = st.builds(rat, st.integers(-40, 40), st.integers(1, 12))


@given(circle_units)
def test_seam_reflection_structure(u):
    p = circle_point(u)
    m = seam_reflection(p)
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == -1
    assert m == seam_reflection(-p)
    assert mat_apply(m, p) == p
    # involution
    assert mat_apply(m, mat_apply(m, pt(3, -2))) == pt(3, -2)


@given(circle_units, points)
def test_seam_reflection_preserves_radial_component(u, v):
    if v.is_zero():
        return
    p = circle_point(u)
    assert mat_apply(seam_reflection(p), v).dot(p) == v.dot(p)


# ---------------------------------------------------------------------------
# circle parametrization
# ---------------------------------------------------------------------------

@given(circle_units)
def test_circle_point_on_circle(u):
    p = circle_point(u)
    assert on_unit_circle(p)
    assert antipode(p) == -p
    if u != 0:
        assert circle_point(-1 / u) == -p


def test_circle_point_takes_a_string_an_int_or_a_fraction():
    assert circle_point("1/2") == circle_point(rat(1, 2)) == pt("3/5", "4/5")
    assert circle_point(1) == circle_point(rat(1)) == pt(0, 1)


def test_circle_point_angle_monotone():
    us = [rat(k, 2) for k in range(-6, 7)]
    angles = [math.atan2(float(circle_point(u).y), float(circle_point(u).x)) for u in us]
    assert angles == sorted(angles)


# ---------------------------------------------------------------------------
# angular sort
# ---------------------------------------------------------------------------

def test_angle_sort_ladder():
    vecs = [circle_point(rat(u)) for u in (-2, -1, 0, 1, 2)]
    # counterclockwise from direction (1,0): angles 0, +, ++, then wrap to negatives
    assert angle_sort(vecs) == [2, 3, 4, 0, 1]


def test_angle_sort_codirectional_rejected():
    with pytest.raises(CodirectionalVectors):
        angle_sort([pt(1, 1), pt(2, 2)])


@given(st.lists(points.filter(lambda v: not v.is_zero()), min_size=1, max_size=12),
       st.integers(0, 11), st.integers(0, 12), st.builds(rat, st.integers(1, 9), st.integers(1, 9)))
def test_angle_sort_rejects_any_codirectional_input(vecs, i, at, k):
    """A positive multiple of one vector, anywhere in the list, always
    raises: the sort must compare some codirectional pair (see angle_sort)."""
    vecs.insert(at, vecs[i % len(vecs)].scale(k))
    with pytest.raises(CodirectionalVectors):
        angle_sort(vecs)


def test_angle_sort_rejects_a_zero_vector():
    with pytest.raises(ValueError, match="^cannot angle-sort a zero vector$"):
        angle_sort([pt(1, 0), pt(0, 0)])


@given(st.lists(st.builds(pt, st.integers(-50, 50), st.integers(-50, 50)),
                min_size=1, max_size=8))
def test_angle_sort_matches_float_oracle(vecs):
    vecs = [v for v in vecs if not v.is_zero()]
    seen_dirs = set()
    unique = []
    for v in vecs:
        key = None
        from math import gcd
        g = gcd(abs(int(v.x)), abs(int(v.y)))
        key = (int(v.x) // g, int(v.y) // g)
        if key in seen_dirs:
            continue
        seen_dirs.add(key)
        unique.append(v)
    if not unique:
        return
    order = angle_sort(unique)
    assert sorted(order) == list(range(len(unique)))

    def angle(v):
        a = math.atan2(float(v.y), float(v.x))
        return a if a >= 0 else a + 2 * math.pi

    expected = sorted(range(len(unique)), key=lambda i: angle(unique[i]))
    assert order == expected


def fraction_before(u, v) -> bool:
    """Reference: u comes strictly before v counterclockwise from (1, 0),
    in Fraction arithmetic: the half-plane of angles [0, pi) first, then the
    sign of the cross product."""
    def lower(w):
        x, y = frac(w.x), frac(w.y)
        return y < 0 or (y == 0 and x < 0)

    if lower(u) != lower(v):
        return lower(v)
    return frac(u.x) * frac(v.y) - frac(u.y) * frac(v.x) > 0


@given(st.lists(st.one_of(points, big_points), min_size=1, max_size=7),
       st.lists(st.tuples(st.integers(0, 6), st.one_of(rats, big_rats)), max_size=2))
def test_angle_sort_matches_fraction_cross_product(vecs, copies):
    """angle_sort against a Fraction cross-product reference; a positive
    multiple of one of the vectors makes it raise."""
    vecs = [v for v in vecs if not v.is_zero()]
    for i, k in copies:
        if vecs and k != 0:
            vecs.append(vecs[i % len(vecs)].scale(abs(k)))
    if not vecs:
        return
    codirectional = any(not fraction_before(u, v) and not fraction_before(v, u)
                        for i, u in enumerate(vecs) for v in vecs[i + 1:])
    if codirectional:
        with pytest.raises(CodirectionalVectors):
            angle_sort(vecs)
        return
    order = angle_sort(vecs)
    assert all(fraction_before(vecs[i], vecs[j]) for i, j in zip(order, order[1:]))


def test_angle_sort_codirectional_axis_and_big_vectors():
    for u, v in ((pt(0, 1), pt(0, rat(1, 3))), (pt(-1, 0), pt(rat(-5, 7), 0)),
                 (pt(rat(1, 3), rat(-2, 7)), pt(rat(1, 3 * 2 ** 90), rat(-2, 7 * 2 ** 90)))):
        with pytest.raises(CodirectionalVectors):
            angle_sort([pt(1, 1), u, v])
    # antipodal and nearly codirectional vectors sort
    eps = rat(1, 2 ** 200)
    assert angle_sort([pt(1, eps), pt(1, 0), pt(-1, 0), pt(1, -eps)]) == [1, 0, 2, 3]


# ---------------------------------------------------------------------------
# the int Point against a pair of Fractions
# ---------------------------------------------------------------------------

# parts of up to 600 bits, and nonzero denominators of either sign
parts = st.integers(-(2 ** 600), 2 ** 600)
dens = parts.filter(bool)
coords = st.one_of(rats, st.builds(Fraction, parts, st.integers(1, 2 ** 600)))


def lowest(x: Fraction, y: Fraction) -> tuple[int, int, int, int]:
    return x.numerator, x.denominator, y.numerator, y.denominator


@given(parts, dens, parts, dens)
def test_point_holds_lowest_terms_of_any_construction(xn, xd, yn, yd):
    """From unreduced ints with either sign of denominator (_point), from
    Fractions and from ints, a Point holds the lowest terms of the value,
    denominators positive."""
    x, y = Fraction(xn, xd), Fraction(yn, yd)
    assert _ints(_point(xn, xd, yn, yd)) == lowest(x, y) == _ints(Point(x, y))
    assert _ints(Point(xn, yn)) == (xn, 1, yn, 1)
    assert _point(xn, xd, yn, yd) == Point(x, y) == pt(x, y)


@given(coords, coords, coords, coords, st.one_of(coords, st.integers(-5, 5)))
def test_point_agrees_with_a_pair_of_fractions(ax, ay, bx, by, k):
    p, q = Point(ax, ay), Point(bx, by)
    assert (p.x, p.y) == (ax, ay) and type(p.x) is Fraction and type(p.y) is Fraction
    assert (p == q) == ((ax, ay) == (bx, by)) and (p != q) == ((ax, ay) != (bx, by))
    assert p == Point(Fraction(ax), Fraction(ay)) and p != (ax, ay)
    assert hash(p) == hash((ax, ay)) == hash(Point(ax, ay))
    assert repr(p) == f"Point(x={ax!r}, y={ay!r})"
    for got, (x, y) in ((p + q, (ax + bx, ay + by)), (p - q, (ax - bx, ay - by)), (-p, (-ax, -ay)),
                        (p.scale(k), (ax * k, ay * k))):
        assert _ints(got) == lowest(Fraction(x), Fraction(y))
    assert p.dot(q) == ax * bx + ay * by and type(p.dot(q)) is Fraction
    assert p.cross(q) == ax * by - ay * bx and type(p.cross(q)) is Fraction
    assert p.is_zero() == (ax == 0 and ay == 0)


def test_point_is_immutable_and_keeps_its_repr():
    p = pt("1/2", "-3/4")
    for name in ("x", "y", "xn", "xd", "yn", "yd", "z"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert _ints(p) == (1, 2, -3, 4)
    assert repr(p) == "Point(x=Fraction(1, 2), y=Fraction(-3, 4))"
    assert pickle.loads(pickle.dumps(p)) == copy.copy(p) == copy.deepcopy(p) == p
    assert Point(0, 0).is_zero() and not pt(0, "1/9").is_zero()


def test_loads_reduces_points_and_dumps_them_in_lowest_terms():
    text = '{"n":1,"vertex":[0,1,0,1],"loops":[{"legs":[[[0,1,0,1],[2,4,-3,-6],[3,-6,0,5],[0,1,0,1]]]}]}'
    points = loads(text).loops[0].legs[0].points
    assert points[1:3] == (pt("1/2", "1/2"), pt("-1/2", 0))
    assert dumps(loads(text)) == text.replace("[2,4,-3,-6],[3,-6,0,5]", "[1,2,1,2],[-1,2,0,1]") + "\n"


@pytest.mark.parametrize("obj, message", [
    ([1, True, 0, 1], "point must be [xnum, xden, ynum, yden] of ints, got [1, True, 0, 1]"),
    ([1, 2, 0.5, 1], "point must be [xnum, xden, ynum, yden] of ints, got [1, 2, 0.5, 1]"),
    ([1, 0, 0, 1], "zero denominator in point"),
    ([1, 2, 3, 0], "zero denominator in point"),
])
def test_point_from_json_rejects_what_it_did(obj, message):
    with pytest.raises(DiagramFormatError) as exc:
        _point_from_json(obj)
    assert str(exc.value) == message
