"""The integer constructions equal the `Fraction` formulas they replace.

Each builder below puts its coordinates on one common denominator and makes
one `Fraction` per coordinate; these tests compare it, on random exact
inputs, with the plain `Point` arithmetic of the same formula.  Equal
Fractions are equal in lowest terms, so equal here means byte-identical
output.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rp2bouquet.diagram import Leg, _check_joint, _ray
from rp2bouquet.geometry import (
    CodirectionalVectors,
    Point,
    _along,
    _direction,
    _ints,
    _point,
    _seam_step,
    angle_sort,
    circle_point,
    mat_apply,
    pt,
    rat,
    seam_reflection,
)
from rp2bouquet.moves import _curl_points

from conftest import record

rats = st.builds(rat, st.integers(-8, 8), st.integers(1, 8))
big_rats = st.builds(rat, st.integers(-(2 ** 200), 2 ** 200), st.integers(1, 2 ** 200))
any_rats = st.one_of(rats, big_rats)
points = st.builds(pt, rats, rats)
any_points = st.builds(pt, any_rats, any_rats)
circle_units = st.builds(rat, st.integers(-40, 40), st.integers(1, 12))


def all_fractions(*ps) -> bool:
    return all(type(c) is Fraction for p in ps for c in (p.x, p.y))


@given(any_points, any_points, any_rats, any_rats, any_rats)
def test_curl_points_match_point_arithmetic(a, b, t, w, h):
    e = b - a
    v = Point(-e.y, e.x)
    expected = (
        a + e.scale(t - w),
        a + e.scale(t + w / 2) + v.scale(h),
        a + e.scale(t - w / 2) + v.scale(h),
        a + e.scale(t + w),
    )
    got = _curl_points(_ints(a), _ints(b), t, w, h)
    assert got == expected
    assert all_fractions(*got)


@given(any_points, any_points, any_rats)
def test_along_matches_point_arithmetic(a, b, s):
    got = _point(*_along(_ints(a), _ints(b), s.numerator, s.denominator))
    assert got == a + (b - a).scale(s)
    assert all_fractions(got)


@given(circle_units, any_points)
def test_seam_step_matches_reflection(u, d):
    p = circle_point(u)
    got = _point(*_seam_step(_ints(p), _ints(d)))
    assert got == -p + mat_apply(seam_reflection(p), d).scale(rat(1, 32))
    assert all_fractions(got)


@given(points, any_points)
def test_seam_step_keeps_the_unit_circle_error(p, d):
    try:
        seam_reflection(p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _seam_step(_ints(p), _ints(d))
    else:
        _seam_step(_ints(p), _ints(d))


@given(st.builds(rat, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)))
def test_circle_point_matches_half_angle_formula(u):
    got = circle_point(u)
    assert got == Point((1 - u * u) / (1 + u * u), 2 * u / (1 + u * u))
    assert all_fractions(got)


def fraction_codirectional(u: Point, v: Point) -> bool:
    return u.cross(v) == 0 and u.dot(v) > 0


def sorted_or_codirectional(vectors):
    try:
        return angle_sort(vectors)
    except CodirectionalVectors:
        return "codirectional"


@given(st.lists(st.tuples(points, any_points), min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(0, 4), any_points, any_rats), max_size=3))
def test_int_directions_sort_and_key_as_fraction_vectors(pairs, copies):
    """`copies` adds segments parallel to earlier ones, scaled by k (either
    sign), from another start: codirectional, antipodal or (k = 0) empty."""
    for i, q0, k in copies:
        p0, p1 = pairs[i % len(pairs)]
        pairs.append((q0, q0 + (p1 - p0).scale(k)))
    pairs = [(p0, p1) for p0, p1 in pairs if p0 != p1]
    exact = [p1 - p0 for p0, p1 in pairs]
    ints = [_direction(p0, p1) for p0, p1 in pairs]
    assert all(v.xd == 1 and v.yd == 1 for v in ints)  # _direction gives denominators of 1
    assert sorted_or_codirectional(ints) == sorted_or_codirectional(exact)
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            same_ray = _ray(ints[i]) == _ray(ints[j])
            assert same_ray == fraction_codirectional(exact[i], exact[j])


def fraction_joint_ok(a: Leg, b: Leg) -> bool:
    p = a.points[-1]
    w = mat_apply(seam_reflection(p), p - a.points[-2])
    d_in = b.points[1] - b.points[0]
    return w.cross(d_in) == 0 and w.dot(d_in) > 0


@given(circle_units, any_points, st.one_of(rats, any_rats), st.one_of(points, any_points),
       st.booleans())
def test_int_joint_test_matches_fraction_test(u, before, k, after, reflected):
    """`after` is either free or -p + k M(p) (p - before), so that both
    verdicts and both parallel orientations (k > 0, k < 0) are common."""
    p = circle_point(u)
    if reflected:
        after = -p + mat_apply(seam_reflection(p), p - before).scale(k)
    if before == p or after == -p:
        return
    a, b = Leg((before, p)), Leg((-p, after))
    out = []
    _check_joint(out, 0, 0, a, b)
    assert [v.kind for v in out] == ([] if fraction_joint_ok(a, b) else ["SeamRegularity"])


@given(circle_units, circle_units, points, points)
def test_int_joint_reports_non_antipodal_seam_points(u, v, before, after):
    p, q = circle_point(u), circle_point(v)
    if before == p or after == q:
        return
    out = []
    _check_joint(out, 0, 0, Leg((before, p)), Leg((q, after)))
    if q != -p:
        assert [x.kind for x in out] == ["SeamNotAntipodal"]


@given(st.builds(rat, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80)),
       st.builds(rat, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80)))
def test_make_seg_floats_are_float(x, y):
    r = record(0, pt(x, y), pt(y, x))
    assert (r.fax, r.fay, r.fbx, r.fby) == (float(x), float(y), float(y), float(x))


parts = st.one_of(st.integers(-12, 12), st.integers(-2 ** 70, 2 ** 70))


@given(parts, parts.filter(bool), parts, parts.filter(bool))
def test_point_is_the_reduced_fraction_pair(xn, xd, yn, yd):
    """_point gives Fraction's lowest terms, denominators positive, on ints of
    either sign, whether they are in lowest terms already (both gcds 1, which
    _point passes through) or not."""
    p, x, y = _point(xn, xd, yn, yd), Fraction(xn, xd), Fraction(yn, yd)
    assert (p.xn, p.xd, p.yn, p.yd) == (x.numerator, x.denominator, y.numerator, y.denominator)
