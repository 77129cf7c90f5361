import json
import math
import random
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rp2bouquet import (
    BouquetDiagram,
    DiagramFormatError,
    InvalidDiagram,
    Leg,
    LoopPath,
    crossings,
    dumps,
    loads,
    pt,
    random_move_applied,
    random_tuple,
    rat,
    realize,
    to_json_obj,
    validate,
    vertex_directions,
)
from rp2bouquet.diagram import (
    HalfEdge,
    MoveBlocked,
    Violation,
    _all_pairs,
    _apply_splice,
    _check_leg,
    _check_seam_table,
    _check_vertex_directions,
    _crossing_order,
    _kind,
    _meet,
    _skip_pair,
    _splice_points,
    _sure,
    analysis,
)
from rp2bouquet.geometry import (
    SegKind,
    _ints,
    _point,
    _proper_ints,
    SegmentIntersection,
    circle_point,
    on_unit_circle,
    orient2d,
    segment_intersection,
    unit_circle_side,
)

from conftest import record
from test_invariants import reflect, rotate, transform


def kinds(d):
    return sorted({v.kind for v in validate(d)})


def one_loop(*points, n=1, vertex=pt(0, 0)):
    return BouquetDiagram(n, vertex, (LoopPath((Leg(tuple(points)),)),))


# ---------------------------------------------------------------------------
# structural violations, one per kind
# ---------------------------------------------------------------------------

def test_fixtures_valid(chord, quad, wedge):
    assert validate(chord) == []
    assert validate(quad) == []
    assert validate(wedge) == []


def test_short_leg():
    d = BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((pt(0, 0),)),)),))
    assert "ShortLeg" in kinds(d)


def test_loop_with_no_legs():
    d = BouquetDiagram(1, pt(0, 0), (LoopPath(()),))
    assert [str(v) for v in validate(d)] == ["ShortLeg loop=0 loop with no legs"]


def test_one_point_leg_before_a_joint_is_only_a_short_leg():
    d = BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((pt(0, 0),)), Leg((pt(-1, 0), pt(0, 0))))),))
    assert [str(v) for v in validate(d)] == ["ShortLeg loop=0 leg=0"]


def test_structural_violations_in_loop_order():
    # per loop, its legs' violations, then its joints'; an empty loop's
    # ShortLeg in its place among the loops
    v, q = pt(0, 0), circle_point(rat(1, 2))
    loops = (
        LoopPath((Leg((v, pt("1/4", "1/8"), pt("1/4", "1/8"), q)),
                  Leg((q, pt("1/8", "-1/4"), pt("1/4", "-1/4"), pt("1/8", "-1/4"), v)))),
        LoopPath(()),
        LoopPath((Leg((v,)),)),
        LoopPath((Leg((v, pt("-1/4", "1/4"), pt("-1/2", "1/2"), pt("-1/4", "1/4"), v)),)),
    )
    assert [str(x) for x in validate(BouquetDiagram(4, v, loops))] == [
        "RepeatedPoint loop=0 leg=0 segment=1",
        "Cusp loop=0 leg=1 segment=2 exact direction reversal",
        "SeamNotAntipodal loop=0 leg=0 legs must rejoin at the antipode",
        "ShortLeg loop=1 loop with no legs",
        "ShortLeg loop=2 leg=0",
        "Cusp loop=3 leg=0 segment=2 exact direction reversal",
    ]


def test_repeated_point():
    d = one_loop(pt(0, 0), pt("1/2", 0), pt("1/2", 0), pt("1/4", "1/4"), pt(0, 0))
    assert "RepeatedPoint" in kinds(d)


def test_cusp():
    d = one_loop(pt(0, 0), pt("1/2", "1/4"), pt("1/4", "1/8"), pt(0, "1/4"), pt(0, 0))
    assert "Cusp" in kinds(d)


def test_point_outside_disk():
    d = one_loop(pt(0, 0), pt("9/8", 0), pt("1/4", "1/4"), pt(0, 0))
    assert "PointOutsideDisk" in kinds(d)


def test_interior_point_on_circle():
    d = one_loop(pt(0, 0), pt(1, 0), pt("1/4", "1/4"), pt(0, 0))
    assert "PointOnCircle" in kinds(d)


def test_loop_endpoint_not_vertex():
    d = one_loop(pt("1/8", 0), pt("1/2", "1/4"), pt(0, 0))
    assert "LoopEndpointNotVertex" in kinds(d)


def test_seam_point_off_circle():
    d = BouquetDiagram(1, pt(0, 0), (LoopPath((
        Leg((pt(0, 0), pt("9/10", 0))),
        Leg((pt("-9/10", 0), pt(0, 0))),
    )),))
    assert kinds(d) == ["SeamPointOffCircle"]


def test_seam_not_antipodal():
    d = BouquetDiagram(1, pt(0, 0), (LoopPath((
        Leg((pt(0, 0), pt(1, 0))),
        Leg((pt(0, 1), pt(0, 0))),
    )),))
    assert "SeamNotAntipodal" in kinds(d)


def test_seam_regularity():
    # exits east along +x; a regular re-entry at (-1,0) must continue along +x
    d = BouquetDiagram(1, pt(0, 0), (LoopPath((
        Leg((pt(0, 0), pt(1, 0))),
        Leg((pt(-1, 0), pt("-1/2", "1/4"), pt(0, 0))),
    )),))
    assert "SeamRegularity" in kinds(d)


def test_codirectional_at_vertex():
    l1 = LoopPath((Leg((pt(0, 0), pt("1/2", 0), pt("1/4", "1/4"), pt(0, 0))),))
    l2 = LoopPath((Leg((pt(0, 0), pt("1/4", 0), pt("1/4", "-1/4"), pt(0, 0))),))
    d = BouquetDiagram(2, pt(0, 0), (l1, l2))
    assert "CodirectionalAtVertex" in kinds(d)


def test_non_transversal_corner_contact():
    # second loop has a corner exactly on the first loop's edge
    l1 = LoopPath((Leg((pt(0, 0), pt("1/2", "-1/4"), pt("1/2", "1/4"), pt(0, 0))),))
    l2 = LoopPath((Leg((pt(0, 0), pt("1/2", 0), pt("1/4", "-3/8"), pt(0, 0))),))
    d = BouquetDiagram(2, pt(0, 0), (l1, l2))
    assert "NonTransversal" in kinds(d)


def test_non_transversal_through_vertex():
    d = one_loop(pt(0, 0), pt("1/4", "-1/8"), pt("1/4", "1/4"),
                 pt("-1/4", "-1/4"), pt("-1/4", "1/8"), pt(0, 0))
    assert "NonTransversal" in kinds(d)


def lens(a, b):
    return LoopPath((Leg((pt(0, 0), a, b, pt(0, 0))),))


# three loops whose middle segments all pass through (1/4, 1/4)
TRIPLE = (lens(pt("1/2", 0), pt(0, "1/2")),
          lens(pt("1/2", "1/8"), pt("-1/16", "13/32")),
          lens(pt("3/8", "1/16"), pt("1/8", "7/16")))


def test_triple_point():
    d = BouquetDiagram(3, pt(0, 0), TRIPLE)
    assert "TriplePoint" in kinds(d)


def test_one_location_from_unequal_ints():
    """The three crossings of TRIPLE, built from segments of different
    denominators, have unequal unreduced ints at one location: the fresh
    scan reports a TriplePoint, and a splice that builds the third strand
    through the other two's crossing is blocked."""
    (a, b), (c, d), (e, f) = (loop.legs[0].points[1:3] for loop in TRIPLE)  # the middle segments
    ats = [_proper_ints(*ends) for ends in ((a, b, c, d), (a, b, e, f), (c, d, e, f))]
    assert len({at for at, _ in ats}) == 3
    assert {_point(*at) for at, _ in ats} == {pt("1/4", "1/4")}
    assert "TriplePoint" in kinds(BouquetDiagram(3, pt(0, 0), TRIPLE))
    apart = BouquetDiagram(3, pt(0, 0), TRIPLE[:2] + (lens(pt("-1/2", "-1/8"), pt("-1/8", "-1/2")),))
    assert validate(apart) == []
    splice = _splice_points(apart, 2, 0, 1, 3, ((e, f),), None)
    with pytest.raises(MoveBlocked, match="^two crossings would coincide$"):
        _apply_splice(apart, splice)


def test_pair_violations_in_sweep_order_then_triple_points():
    # loop 3's middle segment runs along x = 3/4, and both of loop 4's
    # segments at its corner (3/4, -1/4) touch it there; the sweep meets the
    # triple point at (1/4, 1/4) first, yet the TriplePoints come last, in the
    # order their crossings were found
    d = BouquetDiagram(5, pt(0, 0), TRIPLE + (
        lens(pt("3/4", "-3/8"), pt("3/4", "-1/8")),
        lens(pt("3/4", "-1/4"), pt("5/8", "-1/2"))))
    assert [str(v) for v in validate(d)] == [
        "NonTransversal loop=3 leg=0 segment=1 against loop=4 leg=0 segment=0",
        "NonTransversal loop=3 leg=0 segment=1 against loop=4 leg=0 segment=1",
        "TriplePoint loop=1 leg=0 segment=1 two crossings at the same point",
        "TriplePoint loop=0 leg=0 segment=1 two crossings at the same point",
    ]


@pytest.mark.parametrize("f", [lambda p: p, rotate, reflect], ids=["as_is", "rotated", "reflected"])
def test_crossing_at_vertex_is_a_contact(f):
    # the two middle segments cross at V, and each meets loop 0's first
    # segment there: the contact rule reports it, no rule of its own
    v = pt(0, 0)
    l1 = LoopPath((Leg((v, pt("1/2", "1/16"), pt("1/4", "1/4"), pt("-1/4", "-1/4"),
                        pt("-1/2", "1/32"), v)),))
    l2 = LoopPath((Leg((v, pt("1/32", "1/2"), pt("-1/4", "1/4"), pt("1/4", "-1/4"),
                        pt("1/16", "-1/2"), v)),))
    found = validate(transform(BouquetDiagram(2, v, (l1, l2)), f))
    assert found and {x.kind for x in found} == {"NonTransversal"}


def test_coincident_and_antipodal_seam_points():
    # seam-regular loop exiting at q = (sign_x, 0); reflection there is
    # diag(1, -1), so the re-entry direction mirrors the exit direction
    def seam_loop(sign_x):
        q = pt(sign_x, 0)
        a = pt(rat(sign_x, 8), rat(1, 2))
        d_out = q - a
        entry = -q + pt(d_out.x, -d_out.y).scale(rat(1, 32))
        return LoopPath((Leg((pt(0, 0), a, q)), Leg((-q, entry, pt(0, 0)))))

    base = LoopPath((Leg((pt(0, 0), pt(1, 0))), Leg((pt(-1, 0), pt(0, 0)))))
    same = BouquetDiagram(2, pt(0, 0), (base, seam_loop(1)))
    assert "CoincidentSeamPoints" in kinds(same)
    anti = BouquetDiagram(2, pt(0, 0), (base, seam_loop(-1)))
    assert "AntipodalSeamPoints" in kinds(anti)


def test_bad_loop_count():
    d = BouquetDiagram(2, pt(0, 0), (LoopPath((Leg((pt(0, 0), pt("1/2", "1/4"),
                                                    pt("1/4", "1/2"), pt(0, 0))),)),))
    assert "BadLoopCount" in kinds(d)
    assert "BadLoopCount" in kinds(BouquetDiagram(0, pt(0, 0), ()))


def test_vertex_outside_disk():
    d = one_loop(pt(2, 0), pt("1/2", "1/4"), pt(0, "1/2"), pt(2, 0), vertex=pt(2, 0))
    assert "VertexOutsideDisk" in kinds(d)


def test_crossings_refuses_invalid():
    d = one_loop(pt(0, 0), pt("9/8", 0), pt("1/4", "1/4"), pt(0, 0))
    with pytest.raises(InvalidDiagram):
        crossings(d)


# ---------------------------------------------------------------------------
# seam table and vertex star against the quadratic pair walk
# ---------------------------------------------------------------------------

# each walk pairs an item only with the least earlier item it relates to;
# the relations are equivalences, so every other pair follows from those


def quadratic_seam_table(d):
    exits = [(li, leg.points[-1]) for li, loop in enumerate(d.loops) for leg in loop.legs[:-1]]
    out, paired = [], set()
    for i in range(len(exits)):
        for j in range(i + 1, len(exits)):
            (li, p), (lj, q) = exits[i], exits[j]
            if j in paired or (p != q and p != -q):
                continue
            paired.add(j)
            kind = "CoincidentSeamPoints" if p == q else "AntipodalSeamPoints"
            out.append(Violation(kind, li, note=f"loops {li} and {lj}"))
    return out


def quadratic_vertex_directions(d):
    vecs = []
    for li, loop in enumerate(d.loops):
        vecs += [(li, loop.first_direction()), (li, -loop.last_direction())]
    out, paired = [], set()
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            (li, u), (lj, v) = vecs[i], vecs[j]
            if j in paired or u.is_zero() or v.is_zero() or u.cross(v) != 0 or u.dot(v) <= 0:
                continue
            paired.add(j)
            out.append(Violation("CodirectionalAtVertex", li,
                                 note=f"half-edges of loops {li} and {lj}"))
    return out


def seam_table_diagram(rng, exits):
    """Loops of one to four legs whose seam exits are `exits`, in order."""
    loops, i = [], 0
    while i < len(exits) or not loops:
        qs = exits[i:i + rng.randrange(4)]
        i += len(qs)
        starts = [pt(0, 0)] + [-q for q in qs]
        loops.append(LoopPath(tuple(Leg(ab) for ab in zip(starts, qs + [pt(0, 0)]))))
    return BouquetDiagram(len(loops), pt(0, 0), tuple(loops))


def star_diagram(directions):
    """One loop per pair of directions: out along the first, back against
    the second."""
    loops = []
    for a, b in zip(directions[::2], directions[1::2]):
        loops.append(LoopPath((Leg((pt(0, 0), a, pt("1/2", "1/2"), b, pt(0, 0))),)))
    return BouquetDiagram(len(loops), pt(0, 0), tuple(loops))


def test_seam_and_star_checks_match_quadratic_walk():
    rng = random.Random("seam-star")
    for _ in range(200):
        # few distinct points, so coincident and antipodal pairs are common
        pool = [circle_point(rat(rng.randrange(-9, 10), 4)) for _ in range(rng.randrange(1, 5))]
        exits = [rng.choice(pool).scale(rng.choice((1, -1))) for _ in range(rng.randrange(12))]
        d = seam_table_diagram(rng, exits)
        out = []
        _check_seam_table(out, d)
        assert out == quadratic_seam_table(d)
        # the same rays at other lengths (codirectional), opposite rays and zeros
        rays = [pt(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(3)]
        dirs = [rng.choice(rays).scale(rat(rng.choice((1, 1, 2, 3, -1)), rng.randrange(4, 9)))
                for _ in range(2 * rng.randrange(1, 7))]
        d = star_diagram(dirs)
        out = []
        _check_vertex_directions(out, d)
        assert out == quadratic_vertex_directions(d)


def test_seam_and_star_checks_scale():
    # 2,000 distinct seam exits, and 2,000 loops at the vertex: a walk over
    # all pairs makes 2 and 8 million exact comparisons
    exits = [circle_point(rat(i + 1, 2001)) for i in range(2000)]
    d = seam_table_diagram(random.Random(0), exits)
    out = []
    start = time.perf_counter()
    _check_seam_table(out, d)
    assert out == [] and time.perf_counter() - start < 2
    dirs = [pt(1, rat(i, 4001)) for i in range(4000)]
    d = star_diagram(dirs)
    assert len(d.loops) == 2000
    start = time.perf_counter()
    _check_vertex_directions(out, d)
    assert out == [] and time.perf_counter() - start < 2


def test_repeated_seam_exits_give_a_linear_verdict():
    # one loop of m legs whose m - 1 seam exits all lie at (1, 0): each exit
    # after the first is reported once, against the first
    v, q, top = pt(0, 0), pt(1, 0), pt(0, "1/2")
    for m in (1000, 2000):
        legs = ((v, top, q),) + ((-q, top, q),) * (m - 2) + ((-q, top, pt("1/4", "1/4"), v),)
        d = BouquetDiagram(1, v, (LoopPath(tuple(Leg(leg) for leg in legs)),))
        start = time.perf_counter()
        found = validate(d)
        assert time.perf_counter() - start < 1
        assert len(found) == m - 2 and {x.kind for x in found} == {"CoincidentSeamPoints"}


# ---------------------------------------------------------------------------
# crossing scan against a brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_crossings(d):
    """Independent quadratic re-scan used as an oracle for the sweep."""
    segs = list(d.iter_segments())
    found = []
    for i, (li, ki, si, a, b) in enumerate(segs):
        first_i = ki == 0 and si == 0
        last_i = (ki == len(d.loops[li].legs) - 1
                  and si == len(d.loops[li].legs[ki].points) - 2)
        for (lj, kj, sj, c, dd) in segs[i + 1:]:
            if li == lj and ki == kj and abs(si - sj) == 1:
                continue
            first_j = kj == 0 and sj == 0
            last_j = (kj == len(d.loops[lj].legs) - 1
                      and sj == len(d.loops[lj].legs[kj].points) - 2)
            if (first_i or last_i) and (first_j or last_j):
                continue
            res = segment_intersection(a, b, c, dd)
            if res.kind is SegKind.PROPER:
                found.append(((li, ki, si, res.t1), (lj, kj, sj, res.t2),
                              (res.point.x, res.point.y),
                              orient2d(pt(0, 0), b - a, dd - c)))
    return found


def normalize_oracle(raw):
    out = set()
    for pa, pb, loc, frame in raw:
        if (pa[0], pa[1], pa[2], pa[3]) <= (pb[0], pb[1], pb[2], pb[3]):
            out.add((pa, pb, loc, frame))
        else:
            out.add((pb, pa, loc, -frame))
    return out


def normalize_engine(cs):
    return {
        ((c.loop_a, c.param_a.leg, c.param_a.seg, c.param_a.frac),
         (c.loop_b, c.param_b.leg, c.param_b.seg, c.param_b.frac),
         (c.location.x, c.location.y), c.frame)
        for c in cs
    }


def test_crossings_match_brute_force(wedge, quad, chord):
    from rp2bouquet import InvariantTuple, realize
    samples = [wedge, quad, chord,
               realize(InvariantTuple.parse("order=e1,e2,e1^-1,e2^-1; h=11; w=10")),
               realize(InvariantTuple.parse("order=e1,e2,e3,e1^-1,e3^-1,e2^-1; h=010; w=111"))]
    for d in samples:
        assert normalize_engine(crossings(d)) == normalize_oracle(brute_force_crossings(d))


def test_wedge_crossing_value(wedge):
    cs = crossings(wedge)
    assert len(cs) == 1
    c = cs[0]
    assert (c.loop_a, c.loop_b) == (0, 1)
    assert (c.location.x, c.location.y) == (rat(15, 64), rat(-15, 64))


def test_crossing_params_are_interior(wedge):
    for c in crossings(wedge):
        assert 0 < c.param_a.frac < 1
        assert 0 < c.param_b.frac < 1
        assert c.frame in (-1, 1)


def test_analysis_is_cached(quad):
    assert analysis(quad) is analysis(quad)


# ---------------------------------------------------------------------------
# the float-filtered pair test decides exactly as segment_intersection
# ---------------------------------------------------------------------------

def unit_rats(max_den):
    """Rationals in [-1, 1] with denominators up to max_den."""
    return st.integers(1, max_den).flatmap(
        lambda den: st.builds(rat, st.integers(-den, den), st.just(den)))


# few distinct values, so shared end points and collinear triples are common;
# thirds and fifths have no exact float
lattice_x = [rat(k, 15) for k in range(-15, 16, 3)] + [rat(k, 3) for k in (-2, -1, 1, 2)]
lattice_y = [rat(k, 15) for k in range(-15, 16, 5)] + [rat(k, 6) for k in (-5, -1, 1, 5)]
lattice = st.builds(pt, st.sampled_from(lattice_x), st.sampled_from(lattice_y))
unit_points = st.builds(pt, unit_rats(2 ** 80), unit_rats(2 ** 80))
# coordinates at +-1 and points on the unit circle
boundary = st.one_of(
    st.builds(circle_point, st.builds(rat, st.integers(-60, 60), st.integers(1, 60))),
    st.builds(pt, st.sampled_from([rat(-1), rat(1)]), unit_rats(2 ** 40)),
    st.builds(pt, unit_rats(2 ** 40), st.sampled_from([rat(-1), rat(1)])),
)
any_points = st.one_of(lattice, unit_points, boundary)


def meet_result(kind, ints):
    """The SegmentIntersection that _meet's (kind, ints) stand for."""
    if ints is None:
        return SegmentIntersection(kind)
    (xn, xd, yn, yd), (n1, n2, den) = ints
    return SegmentIntersection(kind, pt(rat(xn, xd), rat(yn, yd)), rat(n1, den), rat(n2, den))


def assert_meet_is_exact(a, b, c, d):
    """_meet on records of [a, b] and [c, d], both ways round, gives the
    result of segment_intersection (kind, point, t1, t2) and, for a PROPER
    one, orient2d's frame."""
    assume(a != b and c != d)
    # the precondition of the float bound
    assert all(-1 <= v <= 1 for p in (a, b, c, d) for v in (p.x, p.y))
    s, t = record(0, a, b), record(1, c, d)
    for (u, v), (p, q, r, w) in (((s, t), (a, b, c, d)), ((t, s), (c, d, a, b))):
        kind, frame, ints = _meet(u, v)
        want = segment_intersection(p, q, r, w)
        assert meet_result(kind, ints) == want
        assert frame == (orient2d(p, q, w) if want.kind is SegKind.PROPER else 0)


@given(st.one_of(lattice, boundary), st.one_of(lattice, boundary), st.one_of(lattice, boundary),
       st.one_of(lattice, boundary))
def test_meet_matches_exact_on_shared_and_collinear_points(a, b, c, d):
    assert_meet_is_exact(a, b, c, d)


# parameters in [-1/2, 3/2] along [a, b] with a, b in [-1/4, 1/4]^2 keep a
# point in [-3/4, 3/4]^2
small_points = st.builds(pt, st.builds(rat, st.integers(-4, 4), st.integers(16, 16 * 3 ** 4)),
                         st.builds(rat, st.integers(-4, 4), st.integers(16, 16 * 3 ** 4)))
line_params = st.sampled_from([12, 7, 9, 10]).flatmap(
    lambda den: st.builds(rat, st.integers(-den // 2, 3 * den // 2), st.just(den)))


@given(small_points, small_points, line_params, line_params)
def test_meet_matches_exact_on_collinear_overlaps(a, b, s, t):
    c, d = a + (b - a).scale(s), a + (b - a).scale(t)
    assert_meet_is_exact(a, b, c, d)
    assert_meet_is_exact(c, b, a, d)


@given(small_points, small_points, line_params, line_params, st.integers(60, 200),
       st.integers(-3, 3), st.integers(-3, 3), st.booleans(), any_points)
def test_meet_matches_exact_near_a_line(a, b, s, t, e, dx, dy, both, far):
    """End points 2^-60 to 2^-200 off the line through a, b: far below the
    float error, so only the exact fallback can decide."""
    off = pt(dx, dy).scale(rat(1, 2 ** e))
    c = a + (b - a).scale(s) + off
    d = a + (b - a).scale(t) - off if both else far
    assert_meet_is_exact(a, b, c, d)


@given(any_points, any_points, any_points, any_points)
def test_meet_matches_exact_anywhere(a, b, c, d):
    assert_meet_is_exact(a, b, c, d)


# tiny kinks: lengths 1e-8 to 1e-14, far below the absolute bound _B, and
# short integer directions
tiny = st.integers(8, 14).map(lambda k: rat(1, 10 ** k))
nudges = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(lambda v: pt(*v))


@st.composite
def tiny_kinks(draw):
    """Segments [a, b] and [c, d], each 1e-8 to 1e-14 long, a off any float
    (see `inner`).  c is b, a point of the line through a and b (in [a, b]
    or not), a point a few lengths from a, or a point anywhere; d is c plus
    a tiny step, along [a, b] or not."""
    a, e = draw(inner), draw(tiny)
    b = a + draw(nudges).scale(e)
    where = draw(st.sampled_from(["end", "line", "near", "far"]))
    if where == "end":
        c = b
    elif where == "line":
        c = a + (b - a).scale(rat(draw(st.integers(-4, 8)), 4))
    elif where == "near":
        c = a + draw(nudges).scale(e * rat(1, draw(st.integers(1, 4))))
    else:
        c = draw(inner)
    step = b - a if draw(st.booleans()) else draw(nudges)
    return a, b, c, c + step.scale(draw(tiny) * draw(st.sampled_from([1, -1, rat(1, 3)])))


@given(tiny_kinks())
def test_sure_matches_exact_at_tiny_kinks(ends):
    """Where the relative bound decides a tiny kink, it decides as the exact
    predicates: 0 only for EMPTY, and for PROPER orient2d's frame."""
    a, b, c, d = ends
    assume(c != d)
    s, t = record(0, a, b), record(1, c, d)
    for (u, v), (p, q, r, w) in (((s, t), (a, b, c, d)), ((t, s), (c, d, a, b))):
        frame, kind = _sure(u, v), _kind(p, q, r, w)
        if frame is not None:
            assert kind is (SegKind.PROPER if frame else SegKind.EMPTY)
            assert frame in (0, orient2d(p, q, w))
    assert_meet_is_exact(a, b, c, d)


def test_sure_decides_tiny_kinks():
    """Segments 1e-14 long near each other, whose float determinants (about
    1e-28) _B leaves undecided: the relative bound decides a crossing and a
    miss on one side of either line, and leaves a touch to the exact
    predicates."""
    a, e = pt("1/3", "2/7"), rat(1, 10 ** 14)
    b = a + pt(e, 0)
    cases = [((a + pt(e / 2, -e), a + pt(e / 2, e)), 1),   # crossing, frame +1
             ((a + pt(-e, e), a + pt(2 * e, e)), 0),      # above [a, b]
             ((a + pt(2 * e, -e), a + pt(2 * e, e)), 0),  # right of it, across its line
             ((b, a + pt(2 * e, e)), None)]               # touching it
    for (c, d), want in cases:
        assert _sure(record(0, a, b), record(1, c, d)) == want


# ---------------------------------------------------------------------------
# the float-filtered leg check decides exactly as the exact one
# ---------------------------------------------------------------------------

def exact_check_leg(out, vertex, li, ki, leg, is_first, is_last, segs):
    """_check_leg with every decision exact and no floats: the reference."""
    pts = leg.points
    if len(pts) < 2:
        out.append(Violation("ShortLeg", li, ki))
        return
    end = len(pts) - 1
    points = range(segs[0], segs[-1] + 2)
    for i in segs:
        if pts[i] == pts[i + 1]:
            out.append(Violation("RepeatedPoint", li, ki, i))
    for i in points:
        if 0 < i < end:
            p0, p1, p2 = pts[i - 1], pts[i], pts[i + 1]
            if orient2d(p0, p1, p2) == 0 and (p1 - p0).dot(p2 - p1) < 0:
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


HUGE = 10 ** 4000
circle_params = st.builds(rat, st.integers(-60, 60), st.integers(1, 60))
# rational circle points scaled by 1 and by 1 +- 2^-k, k in 40..200: the disk
# test's floats decide only well away from the circle
near_circle = st.builds(lambda u, k, sign: circle_point(u).scale(1 + rat(sign, 2 ** k)),
                        circle_params, st.integers(40, 200), st.sampled_from([-1, 0, 1]))
# coordinates of magnitude 1/8 to 7/8 with denominators that floats do not
# hold, so that a 2^-80 step keeps their floats
inner = st.builds(pt, st.builds(rat, st.integers(1, 7), st.integers(8, 8 * 3 ** 4)),
                  st.builds(rat, st.integers(-7, 7), st.integers(8, 8 * 3 ** 4)))
# far outside [-1, 1]^2, where float() would overflow, and inside it with a
# huge numerator and denominator
huge = st.sampled_from([pt(rat(HUGE + 1, 3), 0), pt(rat(-HUGE, 7), rat(1, 2)),
                        pt(rat(1, 5), rat(3 * HUGE + 1, 2)), pt(rat(HUGE - 1, HUGE), rat(1, 3))])
steps = st.builds(rat, st.integers(1, 9), st.sampled_from([1, 3, 7, 10]))


def assert_check_leg_is_exact(points, vertex=pt(0, 0), segs=None, is_first=False, is_last=False):
    """The filtered _check_leg gives the violations of the exact reference,
    with no OverflowError, and returns the records of the checked segments,
    as record builds them from the points alone, or [] if there is a
    violation.  As in _structural_violations, a vertex outside the disk is
    reported first."""
    segs = range(len(points) - 1) if segs is None else segs
    got = [Violation("VertexOutsideDisk")] if unit_circle_side(vertex) >= 0 else []
    want = list(got)
    records = _check_leg(got, vertex, 0, 0, Leg(points), is_first, is_last, segs)
    exact_check_leg(want, vertex, 0, 0, Leg(points), is_first, is_last, segs)
    assert got == want
    assert records == ([] if got else [record(0, points[i], points[i + 1]) for i in segs])


@given(inner, inner, steps, st.booleans(), st.one_of(st.just(0), st.integers(60, 200)),
       st.sampled_from([-1, 1]))
def test_check_leg_matches_exact_at_corners(p0, p1, t, forward, e, sign):
    """A straight step on, an exact backtrack (a Cusp), or either bent by
    2^-60 to 2^-200: far below the float error, so only exact arithmetic
    tells a backtrack from a sharp turn."""
    v = p1 - p0
    assume(not v.is_zero())
    bend = pt(-v.y, v.x).scale(rat(sign, 2 ** e)) if e else pt(0, 0)
    assert_check_leg_is_exact((p0, p1, p1 + v.scale(t if forward else -t) + bend))


@given(inner, tiny, nudges, steps, st.booleans(), st.one_of(st.just(0), st.integers(1, 80)),
       st.sampled_from([-1, 1]))
def test_check_leg_matches_exact_at_tiny_kinks(p0, e, v, t, forward, k, sign):
    """As at_corners, for steps 1e-8 to 1e-14 long, which only the relative
    bound decides, and bends from a right angle down to 2^-80: below it an
    exact backtrack and a bent one round alike."""
    v = v.scale(e)
    bend = pt(-v.y, v.x).scale(rat(sign, 2 ** k)) if k else pt(0, 0)
    p1 = p0 + v
    assert_check_leg_is_exact((p0, p1, p1 + v.scale(t if forward else -t) + bend))


@given(inner, near_circle, inner)
def test_check_leg_matches_exact_near_the_circle(a, p, b):
    assert_check_leg_is_exact((a, p, b))


@given(inner, st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=1, max_size=5))
def test_check_leg_matches_exact_on_near_repeats(p, moves):
    """Steps of 2^-80, whose end points have equal floats but are unequal
    points, next to true repeats (steps of 0)."""
    points = [p]
    for dx, dy in moves:
        points.append(points[-1] + pt(rat(dx, 2 ** 80), rat(dy, 2 ** 80)))
    assert_check_leg_is_exact(tuple(points))


@st.composite
def filter_legs(draw):
    """A leg, a vertex, a window of its segments and its end flags.  Each
    point after the first two is new, huge, or follows the two before it:
    a step on or back, a corner bent by 2^-60 to 2^-200, a step of 2^-80 or
    a repeat."""
    points = [draw(st.one_of(inner, near_circle)) for _ in range(2)]
    for _ in range(draw(st.integers(0, 6))):
        p0, p1 = points[-2], points[-1]
        v, t = p1 - p0, draw(steps)
        step = draw(st.sampled_from(["new", "huge", "on", "back", "bend", "nudge", "repeat"]))
        if step == "new" or (v.is_zero() and step in ("on", "back", "bend")):
            q = draw(st.one_of(inner, near_circle))
        elif step == "huge":
            q = draw(huge)
        elif step in ("on", "back"):
            q = p1 + v.scale(t if step == "on" else -t)
        elif step == "bend":
            q = p1 + v.scale(draw(st.sampled_from([t, -t]))) \
                + pt(-v.y, v.x).scale(rat(draw(st.sampled_from([-1, 1])), 2 ** draw(st.integers(60, 200))))
        elif step == "nudge":
            q = p1 + pt(rat(draw(st.integers(-1, 1)), 2 ** 80), rat(draw(st.integers(-1, 1)), 2 ** 80))
        else:
            q = p1
        points.append(q)
    lo = draw(st.integers(0, len(points) - 2))
    segs = range(lo, draw(st.integers(lo + 1, len(points) - 1)))
    vertex = draw(st.sampled_from([points[0], points[-1], pt(0, 0)]))
    return tuple(points), vertex, segs, draw(st.booleans()), draw(st.booleans())


@given(filter_legs())
def test_check_leg_matches_exact_on_mixed_legs(case):
    """Every case above in one leg, with huge points (4,000 digits), vertex
    and seam ends, and windows of segments as a splice checks them."""
    assert_check_leg_is_exact(*case)


def test_check_leg_cases():
    """Each case the filter must leave to exact arithmetic, once by hand."""
    third, tiny = rat(1, 3), rat(1, 2 ** 80)
    a, b = pt(third, rat(1, 7)), pt(2 * third, rat(2, 7))
    on = circle_point(rat(2, 7))
    legs = [
        ((a, b, a + (b - a).scale(rat(1, 2))), ["Cusp"]),                    # exact backtrack
        ((a, b, b + (b - a) + pt(0, rat(1, 2 ** 100))), []),                  # bent by 2^-100
        ((a, b, b + pt(tiny, 0)), []),                                        # equal floats
        ((a, b, b, a), ["RepeatedPoint"]),                                     # truly repeated
        ((a, on, a), ["Cusp", "PointOnCircle"]),
        ((a, on.scale(1 + rat(1, 2 ** 90)), b), ["PointOutsideDisk"]),
        ((a, on.scale(1 - rat(1, 2 ** 90)), b), []),
        ((a, pt(rat(HUGE + 1, 3), 0), b), ["PointOutsideDisk"]),
    ]
    for points, want in legs:
        got, exact = [], []
        _check_leg(got, a, 0, 0, Leg(points), True, False, range(len(points) - 1))
        exact_check_leg(exact, a, 0, 0, Leg(points), True, False, range(len(points) - 1))
        assert got == exact
        assert [v.kind for v in got] == want + ["SeamPointOffCircle"], points


def test_a_huge_vertex_outside_the_disk_is_reported_without_floats():
    """Every loop starts and ends on a vertex 4,000 digits outside the disk,
    so no leg reports a violation, and the end points have no floats: once
    VertexOutsideDisk is reported, no leg builds its records from them."""
    v = pt(rat(HUGE + 1, 3), 0)
    d = BouquetDiagram(2, v, (LoopPath((Leg((v, pt("1/2", "1/4"), pt("1/4", "1/2"), v)),)),
                              LoopPath((Leg((v, pt("-1/2", "1/4"), pt("-1/4", "1/2"), v)),))))
    assert validate(d) == [Violation("VertexOutsideDisk")]


@given(any_points, st.integers(1, 2 ** 70))
def test_location_key_is_canonical(p, k):
    """Equal points have equal keys, however their rationals were built."""
    q = pt(rat(p.x.numerator * k, p.x.denominator * k), rat(-p.y.numerator * k, -p.y.denominator * k))
    assert _ints(q) == _ints(p)


def test_location_key_separates_points():
    """Distinct points whose coordinates share numerators or denominators
    have distinct keys."""
    values = sorted(set(lattice_x + lattice_y))
    points = [pt(x, y) for x in values for y in values]
    assert len({_ints(p) for p in points}) == len(points)


def test_unequal_locations_of_equal_floats():
    """A vertical segment crosses two horizontals 2^-80 apart, at locations
    whose floats are equal: they are two crossings, both from a fresh scan
    and from a splice that builds the vertical."""
    v, eps = pt("-1/4", "-1/4"), rat(1, 2 ** 80)
    lower, upper = rat(1, 4), rat(1, 4) + eps
    # across to the right at y = 1/4, up by 2^-80, back to the left above it, then up
    start = (v, pt("-1/2", lower), pt("1/2", lower), pt("1/2", upper), pt("-1/2", upper), pt("-1/2", "1/2"))
    d = one_loop(*start, pt(0, "1/2"), pt(0, "-1/2"), v, vertex=v)
    assert validate(d) == []
    assert [c.location for c in crossings(d)] == [pt(0, lower), pt(0, upper)]
    assert {(float(c.location.x), float(c.location.y)) for c in crossings(d)} == {(0.0, 0.25)}
    apart = one_loop(*start, pt("-3/4", "1/2"), pt("-3/4", "-1/2"), v, vertex=v)
    assert crossings(apart) == ()
    vertical = _splice_points(apart, 0, 0, 6, 8, ((pt(0, "1/2"), pt(0, "-1/2")),), None)
    d2, additions = _apply_splice(apart, vertical)
    assert len(additions) == 2 and crossings(d2) == crossings(d)


def test_crossing_locations_are_in_lowest_terms():
    """crossings(d) reduces each kept location, unreduced ints, to a Point
    in lowest terms: the one _point gives."""
    d = realize(random_tuple(2, 5))
    for seed in range(12):
        _, d = random_move_applied(d, seed)
    a = analysis(d)
    assert len(a.crossings) > 4
    for c, (*_, (at, _)) in zip(a.crossings, _crossing_order(a)[0]):
        p = c.location
        assert p == _point(*at)  # equal ints: Point's equality
        assert math.gcd(p.xn, p.xd) == 1 == math.gcd(p.yn, p.yd)


def test_recurring_point_object_is_still_a_contact():
    """A loop that passes twice through one Point object touches itself
    there: segments 2 and 4 meet at it end to end, which only index
    adjacency, not a shared end point, tells apart from a corner."""
    p = pt("1/4", "1/4")

    def loop(again):
        return BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((
            pt(0, 0), pt("1/2", 0), p, pt(0, "1/2"), pt("-1/4", "1/4"), again,
            pt("1/4", "-1/4"), pt(0, 0))),)),))

    shared = validate(loop(p))
    assert shared == validate(loop(pt("1/4", "1/4")))
    assert [str(v) for v in shared][:1] == [
        "NonTransversal loop=0 leg=0 segment=2 against loop=0 leg=0 segment=4"]
    assert len(shared) == 4


def test_sweep_orders_float_ties_exactly():
    """Two segments whose least x round to the same float are swept in the
    order of their exact least x, which fixes the orientation of a
    NonTransversal report; a float-only stable sort would keep the input
    order and yield (A, B)."""
    third = rat(1, 3)
    b = record(0, pt(third + rat(1, 10 ** 30), "1/8"), pt("1/2", "-1/8"))
    a = record(1, pt(third, 0), pt("1/2", "1/4"))
    assert a.fminx == b.fminx
    # a leg table under which a, the middle of three records of loop 1, does
    # not touch V, so the pair is not skipped as two segments at V
    assert list(_all_pairs([b, a], ((0, 1), (0, 3)))) == [(b, a, 0, 1)]


def sweep_with_exact_key(records, leg_starts):
    """_all_pairs with an exact least x computed for every record in its
    sort key: the reference for the sweep order."""
    active = []
    for i in sorted(range(len(records)),
                    key=lambda k: (records[k].fminx, min(records[k].a.x, records[k].b.x))):
        s, kept = records[i], []
        for j in active:
            t = records[j]
            if t.fmaxx < s.fminx:
                continue
            kept.append(j)
            if t.fminy > s.fmaxy or t.fmaxy < s.fminy or _skip_pair(s, t, i, j, leg_starts):
                continue
            yield s, t, i, j
        active = kept + [i]


# x values whose floats tie in threes, and others
tied_x = [rat(1, 3) + rat(k, 10 ** 30) for k in (-1, 0, 1)] + [rat(-2, 7), rat(1, 2), rat(2, 3)]
tied_points = st.builds(pt, st.sampled_from(tied_x), st.sampled_from([rat(k, 5) for k in range(-2, 3)]))


@given(st.lists(st.tuples(tied_points, tied_points).filter(lambda ab: ab[0] != ab[1]),
                min_size=1, max_size=24))
def test_sweep_sorts_only_float_ties_exactly(ends):
    """Sorting on the key (fminx, exact least x), which compares exactly only
    where the floats tie, yields the pairs of the exact key, in the same
    order."""
    records = [record(0, a, b) for a, b in ends]
    leg_starts = ((0, len(records)),)
    assert list(_all_pairs(records, leg_starts)) == list(sweep_with_exact_key(records, leg_starts))


# ---------------------------------------------------------------------------
# vertex star
# ---------------------------------------------------------------------------

def test_vertex_directions_shape(wedge):
    dirs = vertex_directions(wedge)
    assert len(dirs) == 4
    symbols = sorted(str(h) for h, _ in dirs)
    assert symbols == ["e1", "e1^-1", "e2", "e2^-1"]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_identity(chord, quad, wedge):
    for d in (chord, quad, wedge):
        assert loads(dumps(d)) == d


def test_json_golden_files_stable(data_dir):
    for path in sorted(data_dir.glob("*.json")):
        if path.name in ("malformed.json", "invalid_seam.json"):
            continue
        text = path.read_text()
        assert dumps(loads(text)) == text


def test_json_obj_shape(quad):
    obj = to_json_obj(quad)
    assert obj["n"] == 1
    assert obj["vertex"] == [0, 1, 0, 1]
    assert json.dumps(obj)  # JSON-serializable with stdlib alone


@pytest.mark.parametrize("payload", [
    "[]",
    '{"n": 1}',
    '{"n": 1, "vertex": [0, 1, 0], "loops": []}',
    '{"n": 1, "vertex": [0, 1, 0, 1], "loops": [{"legs": [[[0, 1, 0, 0]]]}]}',
    '{"n": "x", "vertex": [0, 1, 0, 1], "loops": []}',
    "{broken",
])
def test_parse_errors(payload):
    with pytest.raises(DiagramFormatError):
        loads(payload)


@pytest.mark.parametrize("payload, message", [
    ('{"n": 1, "vertex": [0, 1, 0, 1], "loops": {}}', "loops must be a list"),
    ('{"n": 1, "vertex": [0, 1, 0, 1], "loops": [{"legs": []}]}', "legs must be a non-empty list"),
])
def test_parse_error_messages(payload, message):
    with pytest.raises(DiagramFormatError, match=f"^{message}$"):
        loads(payload)


def test_half_edge_parse_error_message():
    with pytest.raises(DiagramFormatError, match="^bad half-edge symbol 'e0'$"):
        HalfEdge.parse("e0")


# ---------------------------------------------------------------------------
# geometric invariance properties
# ---------------------------------------------------------------------------

small_shift = st.builds(rat, st.integers(-3, 3), st.integers(24, 32))


@given(small_shift, small_shift)
def test_translation_preserves_analysis_of_interior_diagram(dx, dy):
    """Translating a no-seam diagram moves crossings but keeps structure."""
    shift = pt(dx, dy)
    base = BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((
        pt(0, 0), pt("1/2", "-1/8"), pt("1/2", "1/2"), pt("-1/8", "1/2"), pt(0, 0))),)),))
    moved = BouquetDiagram(1, base.vertex + shift, (LoopPath((Leg(tuple(
        p + shift for p in base.loops[0].legs[0].points)),)),))
    assert validate(moved) == []
    assert len(crossings(moved)) == len(crossings(base))
