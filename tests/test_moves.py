import ast
import dataclasses
import hashlib
import itertools
import random
from importlib import import_module
from pathlib import Path

import pytest

from rp2bouquet import (
    BouquetDiagram,
    EditSpec,
    Exhausted,
    Leg,
    LoopPath,
    MoveBlocked,
    MoveSpec,
    apply_edit,
    apply_edit_outcome,
    apply_move,
    crossings,
    dumps,
    inv2,
    inv3,
    inv1,
    invariants,
    pt,
    random_edit,
    random_move,
    random_move_applied,
    signed_index,
    validate,
)
from rp2bouquet import cli as cli_mod
from rp2bouquet import diagram as diagram_mod
from rp2bouquet import moves as moves_mod
from rp2bouquet import normal_form, realize
from rp2bouquet.diagram import (
    InvalidDiagram,
    _leg_starts,
    _position,
    _skip_pair,
    _structural_violations,
    analysis,
    vertex_directions,
)
from rp2bouquet.geometry import SegKind, _ints, _point, angle_sort, rat, segment_intersection, unit_circle_side
from rp2bouquet.normal_form import random_tuple

from conftest import segment_records

# the package exports the function invariants under the module's name
invariants_mod = import_module("rp2bouquet.invariants")


def locations(d):
    return sorted((c.location for c in crossings(d)), key=_ints)


def segment_keys(d):
    return [(li, ki, si) for li, ki, si, _, _ in d.iter_segments()]


# ---------------------------------------------------------------------------
# spec objects
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        MoveSpec("Nope", 0, 0, 0, (rat(1),))
    with pytest.raises(ValueError):
        MoveSpec("Subdivide", 0, 0, 0, (rat(1), rat(2)))
    with pytest.raises(ValueError):
        EditSpec("KinkPair", 0, 0, 0, (rat(1),) * 4)
    with pytest.raises(ValueError):
        MoveSpec("Subdivide", -1, 0, 0, (rat(1, 2),))
    with pytest.raises(ValueError, match="Subdivide"):
        MoveSpec("Subdivide", 0, 0, 0, (0.5,))  # a float, not a rational


def test_spec_line_roundtrip():
    specs = [
        MoveSpec("Detour", 0, 1, 0, (rat(-1), rat(1, 2), rat(1, 4), rat(1, 2), rat(-33, 16))),
        MoveSpec("Jiggle", 2, 0, 3, (rat(1, 64), rat(-5, 64))),
        EditSpec("SeamReroute", 1, 0, 2, (rat(1, 2), rat(1, 8), rat(1, 4))),
    ]
    for spec in specs:
        line = spec.to_line()
        assert type(spec).from_line(line) == spec
    with pytest.raises(ValueError):
        MoveSpec.from_line("SingleKink 0 0 0 1/2 1/8 1/8")  # edit, not move
    with pytest.raises(ValueError):
        MoveSpec.from_line("Subdivide 0 0")


# ---------------------------------------------------------------------------
# KinkPair
# ---------------------------------------------------------------------------

def test_kink_pair_adds_cancelling_pair(quad):
    spec = MoveSpec("KinkPair", 0, 0, 1, (rat(1, 4), rat(3, 4), rat(1, 16), rat(1, 8)))
    d2 = apply_move(quad, spec)
    assert validate(d2) == []
    cs = crossings(d2)
    assert len(cs) == 2 and all(c.loop_a == c.loop_b == 0 for c in cs)
    assert signed_index(d2, 0) == 0
    assert invariants(d2) == invariants(quad)


def test_kink_pair_blocked_on_overlapping_windows(quad):
    spec = MoveSpec("KinkPair", 0, 0, 1, (rat(1, 4), rat(5, 16), rat(1, 8), rat(1, 8)))
    with pytest.raises(MoveBlocked):
        apply_move(quad, spec)


def test_kink_pair_blocked_over_existing_crossing(wedge):
    # the wedge crossing sits at parameter 3/8 of loop 0, segment 1
    spec = MoveSpec("KinkPair", 0, 0, 1, (rat(3, 8), rat(3, 4), rat(1, 16), rat(1, 16)))
    with pytest.raises(MoveBlocked, match="destroyed"):
        apply_move(wedge, spec)


# ---------------------------------------------------------------------------
# Detour
# ---------------------------------------------------------------------------

def detour_spec(sigma, leg):
    ur = rat(-2) - rat(1, 16)
    return MoveSpec("Detour", 0, leg, 0, (rat(sigma), rat(1, 2), rat(1, 4), rat(1, 2), ur))


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("leg", [0, 1])
def test_detour_shifts_index_by_two_sigma(chord, sigma, leg):
    before = signed_index(chord, 0)
    d2 = apply_move(chord, detour_spec(sigma, leg))
    assert validate(d2) == []
    assert signed_index(d2, 0) - before == 2 * sigma
    assert invariants(d2) == invariants(chord)
    assert len(d2.loops[0].legs) == len(chord.loops[0].legs) + 2


def test_detour_blocked_cases(chord):
    with pytest.raises(MoveBlocked, match="sign"):
        apply_move(chord, MoveSpec("Detour", 0, 0, 0,
                                   (rat(0), rat(1, 2), rat(1, 4), rat(1, 2), rat(-33, 16))))
    with pytest.raises(MoveBlocked, match="distinct"):
        apply_move(chord, MoveSpec("Detour", 0, 0, 0,
                                   (rat(1), rat(1, 2), rat(1, 4), rat(1, 2), rat(1, 2))))
    # a corridor tilted the wrong way picks up a third self-crossing
    with pytest.raises(MoveBlocked, match="exactly 2"):
        apply_move(chord, MoveSpec("Detour", 0, 0, 0,
                                   (rat(1), rat(1, 2), rat(1, 4), rat(1, 2), rat(-2) + rat(1, 16))))


def test_blocked_on_the_count_builds_no_crossing(chord, monkeypatch):
    """The scan decides on int location keys, so the detour that picks up a
    third self-crossing blocks on its count with no Crossing built; one that
    applies builds none either, until its crossings are asked for."""
    validate(chord)  # the kept analysis, built before the builder breaks

    def build(*args):
        raise AssertionError("a Crossing was built")

    monkeypatch.setattr(diagram_mod, "_pair_crossing", build)
    spec = MoveSpec("Detour", 0, 0, 0, (rat(1), rat(1, 2), rat(1, 4), rat(1, 2), rat(-2) + rat(1, 16)))
    with pytest.raises(MoveBlocked) as blocked:
        apply_move(chord, spec)
    assert str(blocked.value) == "detour must add exactly 2 self-crossings, got more than 2"
    d2 = apply_move(chord, detour_spec(1, 0))
    assert inv3(d2) == (0,)  # the invariants read the kept form
    # the patched name is the builder: the public tuple builds
    with pytest.raises(AssertionError, match="a Crossing was built"):
        crossings(d2)


def test_contracts_block_a_curl_on_the_wrong_side(quad, chord, monkeypatch):
    """Curls mutated on purpose reach the sign checks of the kink pair and
    the detour contracts: the counts hold, only the signs are wrong."""
    curl = moves_mod._curl_points
    with monkeypatch.context() as m:
        m.setattr(moves_mod, "_curl_points", lambda a, b, t, w, h: curl(a, b, t, w, abs(h)))
        with pytest.raises(MoveBlocked, match="^kink pair crossings must have opposite signs$"):
            apply_move(quad, MoveSpec("KinkPair", 0, 0, 1, (rat(1, 4), rat(3, 4), rat(1, 16), rat(1, 64))))
    calls = []

    def flip_every_second(a, b, t, w, h):
        calls.append(h)
        return curl(a, b, t, w, -h if len(calls) % 2 == 0 else h)

    monkeypatch.setattr(moves_mod, "_curl_points", flip_every_second)
    with pytest.raises(MoveBlocked, match="^detour curls must both carry the requested sign$"):
        apply_move(chord, detour_spec(1, 0))


def test_contracts_block_a_kink_across_another_loop(wedge, monkeypatch):
    """Kinks mutated on purpose to splice a finger over loop 1 instead of
    their curls reach the self-crossing checks of the kink pair and single
    kink contracts.  The finger adds two crossings, which the kink pair's
    count allows; the single kink also drops its count of one."""
    push = MoveSpec("FingerPush", 0, 0, 1, (rat(3, 5), rat(1, 16), rat(1), rat(0), rat(2), rat(1, 2), rat(3, 8)))
    splice = moves_mod._build_finger_push(wedge, push)
    finger = splice.d2.loops[splice.loop].legs[0].points[2:6]
    splice_points = moves_mod._splice_points
    with monkeypatch.context() as m:
        m.setattr(moves_mod, "_splice_points", lambda d, loop, leg, lo, hi, chains, contract, count:
                  splice_points(d, loop, leg, lo, hi, (finger,), contract, count))
        with pytest.raises(MoveBlocked, match="^kink pair may only add self-crossings of the target loop$"):
            apply_move(wedge, MoveSpec("KinkPair", 0, 0, 1, (rat(1, 4), rat(3, 4), rat(1, 16), rat(1, 64))))
    monkeypatch.setattr(moves_mod, "_splice_points", lambda d, loop, leg, lo, hi, chains, contract, count:
                        splice_points(d, loop, leg, lo, hi, (finger,), contract))
    with pytest.raises(MoveBlocked, match="^single kink may only add a self-crossing of the target loop$"):
        apply_edit(wedge, EditSpec("SingleKink", 0, 0, 1, (rat(3, 4), rat(1, 16), rat(1, 64))))


def test_contract_blocks_a_same_loop_finger_that_does_not_cancel(quad, monkeypatch):
    """A sign reading mutated on purpose (every self-crossing counts +1)
    reaches the cancellation check of a same-loop finger push."""
    monkeypatch.setattr(moves_mod, "_index_term", lambda leg, frame: 1)
    spec = MoveSpec("FingerPush", 0, 0, 1,
                    (rat(1, 2), rat(1, 8), rat(0), rat(0), rat(3), rat(1, 2), rat(1, 4)))
    with pytest.raises(MoveBlocked, match="^same-loop finger push crossings must cancel$"):
        apply_move(quad, spec)


def test_a_crossing_at_the_vertex_is_blocked_as_a_touch_first():
    """A curl whose self-crossing lands on V passes through V inside two new
    segments, each meeting the first segment, which ends at V, there; the
    scan pairs it with that segment first and blocks the touch."""
    v = pt(0, 0)
    d = BouquetDiagram(1, v, (LoopPath((Leg((v, pt("1/4", "-1/4"), pt("-1/4", "-1/4"), v)),)),))
    spec = EditSpec("SingleKink", 0, 0, 1, (rat(1, 2), rat(1, 4), rat(-3, 4)))
    splice = moves_mod._build_single_kink(d, spec)
    (leg, segs), = splice.new
    # (a, b) and (c, e): the second and fourth new segments
    a, b, c, e = splice.d2.loops[splice.loop].legs[leg].points[segs[1]:segs[3] + 2]
    assert segment_intersection(a, b, c, e).point == v
    with pytest.raises(MoveBlocked, match="^template touches loop=0 leg=0 segment=0 non-transversally$"):
        apply_edit(d, spec)


# ---------------------------------------------------------------------------
# FingerPush
# ---------------------------------------------------------------------------

def test_finger_push_same_loop(quad):
    spec = MoveSpec("FingerPush", 0, 0, 1,
                    (rat(1, 2), rat(1, 8), rat(0), rat(0), rat(3), rat(1, 2), rat(1, 4)))
    d2 = apply_move(quad, spec)
    assert validate(d2) == []
    cs = crossings(d2)
    assert len(cs) == 2 and all(c.loop_a == c.loop_b == 0 for c in cs)
    assert invariants(d2) == invariants(quad)
    assert signed_index(d2, 0) == 0


def test_finger_push_across_other_loop(wedge):
    spec = MoveSpec("FingerPush", 0, 0, 1,
                    (rat(3, 5), rat(1, 16), rat(1), rat(0), rat(2), rat(1, 2), rat(3, 8)))
    d2 = apply_move(wedge, spec)
    assert validate(d2) == []
    cs = crossings(d2)
    assert len(cs) == 3 and all(c.loop_a != c.loop_b for c in cs)
    assert invariants(d2) == invariants(wedge)


def test_finger_push_rejects_adjacent_targets(quad):
    base = (rat(1, 2), rat(1, 8), rat(0), rat(0))
    with pytest.raises(MoveBlocked, match="adjacent"):
        apply_move(quad, MoveSpec("FingerPush", 0, 0, 1,
                                  base[:4] + (rat(2), rat(1, 2), rat(1, 4))))
    with pytest.raises(MoveBlocked, match="itself"):
        apply_move(quad, MoveSpec("FingerPush", 0, 0, 1,
                                  base[:4] + (rat(1), rat(1, 2), rat(1, 4))))


# ---------------------------------------------------------------------------
# Jiggle / Subdivide
# ---------------------------------------------------------------------------

def test_jiggle_moves_one_point(quad):
    d2 = apply_move(quad, MoveSpec("Jiggle", 0, 0, 1, (rat(1, 64), rat(-1, 64))))
    assert validate(d2) == []
    assert d2.loops[0].legs[0].points[1] == pt("33/64", "-9/64")
    assert invariants(d2) == invariants(quad)


def test_jiggle_blocked_cases(quad):
    with pytest.raises(MoveBlocked):
        apply_move(quad, MoveSpec("Jiggle", 0, 0, 1, (rat(2), rat(0))))
    with pytest.raises(MoveBlocked, match="pattern"):
        apply_move(quad, MoveSpec("Jiggle", 0, 0, 1, (rat(-1), rat(1, 2))))


def square_and_petal():
    square = LoopPath((Leg((pt(0, 0), pt("1/2", 0), pt("1/2", "-1/2"), pt(0, "-1/2"),
                            pt(0, 0))),))
    petal = LoopPath((Leg((pt(0, 0), pt("1/8", "1/40"), pt("1/8", "1/20"), pt(0, 0))),))
    return BouquetDiagram(2, pt(0, 0), (square, petal))


def test_jiggle_blocked_by_vertex_order():
    # moving the corner (1/2, 0) up to (1/2, 1/4) turns loop 0's first
    # half-edge past both half-edges of the petal without meeting it
    d = square_and_petal()
    assert validate(d) == []
    with pytest.raises(MoveBlocked, match="reorder the vertex star"):
        apply_move(d, MoveSpec("Jiggle", 0, 0, 1, (rat(0), rat(1, 4))))


def test_a_triple_point_move_is_a_jiggle():
    """An Omega-3 move needs no template: moving loop 2's corner down takes
    its middle segment across the crossing of loops 0 and 1.  The jiggle
    contract compares (strand, strand, frame) and not the order along a
    strand, so it applies, keeps the tuple and reorders the crossings along
    that segment."""
    v = pt(0, 0)

    def loop(*points):
        return LoopPath((Leg((v, *points, v)),))

    d = BouquetDiagram(3, v, (loop(pt("1/2", "-3/5"), pt("1/2", "3/5")),
                              loop(pt("3/10", "-1/5"), pt("7/10", "1/5")),
                              loop(pt("3/10", "1/4"), pt("7/10", "-3/20"))))

    def partners(d):
        """The loops crossing loop 2's middle segment, in order along it."""
        return [other for _, other in sorted(
            (p.frac, other) for c in crossings(d)
            for mine, other, p in ((c.loop_a, c.loop_b, c.param_a), (c.loop_b, c.loop_a, c.param_b))
            if mine == 2 and (p.leg, p.seg) == (0, 1))]

    assert validate(d) == [] and partners(d) == [1, 0, 1]
    d2 = apply_move(d, MoveSpec.from_line("Jiggle 2 0 2 0 -1/8"))
    assert partners(d2) == [1, 1, 0]
    assert invariants(d2) == invariants(d)


def test_subdivide_preserves_geometry(chord, wedge):
    d2 = apply_move(chord, MoveSpec("Subdivide", 0, 0, 0, (rat(1, 3),)))
    assert validate(d2) == []
    assert d2.loops[0].legs[0].points == (pt(0, 0), pt("1/3", 0), pt(1, 0))
    assert locations(d2) == locations(chord)
    assert invariants(d2) == invariants(chord)
    # the wedge's one crossing lies on the subdivided segment, at t = 3/8
    d3 = apply_move(wedge, MoveSpec("Subdivide", 0, 0, 1, (rat(1, 3),)))
    assert validate(d3) == []
    assert d3.loops[0].legs[0].points == (pt(0, 0), pt("3/8", 0), pt("1/4", "-5/24"),
                                          pt(0, "-5/8"), pt("-3/8", 0), pt(0, 0))
    assert locations(d3) == locations(wedge) == [pt("15/64", "-15/64")]
    assert invariants(d3) == invariants(wedge)


def test_subdivide_requires_interior_point(chord):
    for t in (rat(0), rat(1), rat(2), rat(-1, 2)):
        with pytest.raises(MoveBlocked, match="interior"):
            apply_move(chord, MoveSpec("Subdivide", 0, 0, 0, (t,)))


def test_bad_target_indices(chord):
    with pytest.raises(MoveBlocked):
        apply_move(chord, MoveSpec("Subdivide", 3, 0, 0, (rat(1, 2),)))
    with pytest.raises(MoveBlocked):
        apply_move(chord, MoveSpec("Subdivide", 0, 0, 9, (rat(1, 2),)))


@pytest.mark.parametrize("line,message", [
    ("SingleKink 0 0 1 1/2 1/2 1/8", "kink window must sit inside the segment"),
    ("Detour 0 0 1 1 1/2 1/2 1 -1", "detour window must sit inside the segment"),
    ("SeamReroute 0 0 1 1/2 1/2 1", "reroute window must sit inside the segment"),
    ("FingerPush 0 0 1 1/2 1/8 -1 0 3 1/2 1/4",
     "finger push strand indices must be non-negative integers"),
    ("FingerPush 0 0 1 1/2 1/8 0 0 3 3/2 1/4", "finger push window parameters out of range"),
    ("Jiggle 0 5 1 1/64 0", r"no leg \(0, 5\)"),
    ("Jiggle 0 0 0 1/64 0", "only interior polyline points can be jiggled"),
])
def test_spec_guards_block_with_their_message(quad, line, message):
    edit = line.split()[0] in moves_mod.EDIT_KINDS
    spec_type, apply = (EditSpec, apply_edit) if edit else (MoveSpec, apply_move)
    with pytest.raises(MoveBlocked, match=f"^{message}$"):
        apply(quad, spec_type.from_line(line))


def test_moves_refuse_invalid_input():
    bad = BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((pt(0, 0), pt("9/8", 0),
                                                      pt("1/4", "1/4"), pt(0, 0))),)),))
    with pytest.raises(InvalidDiagram):
        apply_move(bad, MoveSpec("Subdivide", 0, 0, 1, (rat(1, 2),)))
    with pytest.raises(InvalidDiagram):
        random_move_applied(bad, 0)
    with pytest.raises(InvalidDiagram):
        random_edit(bad, 0)


def test_apply_move_refuses_an_edit_spec(quad):
    with pytest.raises(TypeError, match="^a move needs a MoveSpec, got EditSpec$"):
        apply_move(quad, EditSpec("SingleKink", 0, 0, 1, (rat(1, 2), rat(1, 8), rat(1, 32))))


def test_apply_edit_refuses_a_move_spec(quad):
    with pytest.raises(TypeError, match="^an edit needs an EditSpec, got MoveSpec$"):
        apply_edit(quad, MoveSpec("Subdivide", 0, 0, 1, (rat(1, 2),)))


def test_random_edit_refuses_an_unknown_kind(quad):
    with pytest.raises(ValueError, match="^unknown edit kind 'Bogus'$"):
        random_edit(quad, 3, kind="Bogus")


# ---------------------------------------------------------------------------
# non-regular edits
# ---------------------------------------------------------------------------

def test_single_kink_flips_one_index_bit(quad):
    spec = EditSpec("SingleKink", 0, 0, 1, (rat(1, 2), rat(1, 8), rat(1, 8)))
    out = apply_edit_outcome(quad, spec)
    assert validate(out.diagram) == []
    assert out.created_self == 1 and out.parity_flip == 1
    assert inv3(out.diagram) == (1,)
    assert inv2(out.diagram) == inv2(quad)
    assert invariants(out.diagram).order == invariants(quad).order


def test_double_single_kink_restores_tuple(quad):
    spec = EditSpec("SingleKink", 0, 0, 1, (rat(1, 2), rat(1, 8), rat(1, 8)))
    d2 = apply_edit(quad, spec)
    spec2 = EditSpec("SingleKink", 0, 0, 1, (rat(1, 2), rat(1, 16), rat(-1, 16)))
    d3 = apply_edit(d2, spec2)
    assert invariants(d3) == invariants(quad)


def test_seam_reroute_flips_seam_bit(quad):
    spec = EditSpec("SeamReroute", 0, 0, 2, (rat(1, 2), rat(1, 8), rat(1, 4)))
    out = apply_edit_outcome(quad, spec)
    d2 = out.diagram
    assert validate(d2) == []
    assert inv2(d2) == (1,)
    assert len(d2.loops[0].legs) == 2
    # the reported parity matches the actual change of the index bit
    assert inv3(d2)[0] == (inv3(quad)[0] + out.parity_flip) % 2
    assert invariants(d2).order == invariants(quad).order


def test_seam_reroute_on_seam_loop_removes_bit(chord):
    spec = EditSpec("SeamReroute", 0, 0, 0, (rat(1, 2), rat(1, 8), rat(1, 4)))
    out = apply_edit_outcome(chord, spec)
    assert inv2(out.diagram) == (0,)
    assert len(out.diagram.loops[0].legs) == 3


def test_edit_window_over_existing_crossing(wedge):
    spec = EditSpec("SingleKink", 0, 0, 1, (rat(3, 8), rat(1, 8), rat(1, 16)))
    with pytest.raises(MoveBlocked, match="destroyed"):
        apply_edit(wedge, spec)


# ---------------------------------------------------------------------------
# randomized application
# ---------------------------------------------------------------------------

def test_random_move_deterministic(quad):
    assert random_move(quad, 7) == random_move(quad, 7)
    spec1, d1 = random_move_applied(quad, 7)
    spec2, d2 = random_move_applied(quad, 7)
    assert spec1 == spec2 and d1 == d2
    assert spec1 == random_move(quad, 7)


def test_random_edit_deterministic(quad):
    s1, o1 = random_edit(quad, 3)
    s2, o2 = random_edit(quad, 3)
    assert s1 == s2 and o1.diagram == o2.diagram
    sk, _ = random_edit(quad, 3, kind="SingleKink")
    assert sk.kind == "SingleKink"
    sr, _ = random_edit(quad, 3, kind="SeamReroute")
    assert sr.kind == "SeamReroute"


def test_random_moves_preserve_invariants(quad, chord, wedge):
    for d0 in (quad, chord, wedge):
        t = invariants(d0)
        d = d0
        for seed in range(12):
            spec, d = random_move_applied(d, seed)
            assert spec.kind in moves_mod.MOVE_KINDS
            assert invariants(d) == t


def test_exhausted_when_budget_removed(quad, monkeypatch):
    monkeypatch.setattr(moves_mod, "_RETRY_BUDGET", 0)
    with pytest.raises(Exhausted):
        random_move_applied(quad, 0)
    with pytest.raises(Exhausted):
        random_edit(quad, 0)


def test_proposals_that_return_none(quad, chord):
    rng = random.Random(0)
    # no outward direction at the vertex, nor along the negative x axis
    assert moves_mod._outward_u(_ints(pt(0, 0)), rng) is None
    assert moves_mod._outward_u(moves_mod._along(*map(_ints, chord.segment(0, 1, 0)), 1, 2), rng) is None
    # a FingerPush on the middle of three segments has no other strand
    triangle = BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((pt(0, 0), pt("1/2", 0), pt(0, "1/2"),
                                                          pt(0, 0))),)),))
    assert moves_mod._propose_move(triangle, random.Random(9)) is None
    # a jiggle whose two draws are both zero
    assert moves_mod._propose_move(quad, random.Random(1031)) is None


# ---------------------------------------------------------------------------
# the incremental crossing update agrees with a from-scratch analysis
# ---------------------------------------------------------------------------

def rebuilt(d):
    return BouquetDiagram(d.n, d.vertex, d.loops)


def assert_kept_analysis_is_fresh(d):
    fresh = rebuilt(d)
    assert validate(fresh) == []
    assert crossings(fresh) == crossings(d)
    # every kept crossing's positions, shifted by the leg starts
    assert [(c.param_a, c.param_b) for c in crossings(d)] \
        == [(c.param_a, c.param_b) for c in crossings(fresh)]
    # the segment records and leg-start rows carried from move to move
    assert analysis(d).records == tuple(segment_records(d))
    assert analysis(d).leg_starts == _leg_starts(d)


# ---------------------------------------------------------------------------
# a from-scratch verdict for every move (differential testing: McKeeman 1998)
# ---------------------------------------------------------------------------

VERDICT_CATEGORIES = ("params", "not generic", "persistence", "count", "contract")


def reference_verdict(d, spec, fresh):
    """The verdict on spec from its builder and contract (the move's
    specification), the fresh validate, crossings and analysis alone, none
    of the splice path: (category, None) for a blocked spec, one of
    VERDICT_CATEGORIES, else ("applied", its additions as sorted (key_a,
    key_b, frame) triples).  fresh is crossings(rebuilt(d)).  A point move
    that changes the crossing pattern and a splice that reorders the vertex
    star count as "contract"."""
    try:
        splice = moves_mod._BUILDERS[spec.kind][0](d, spec)
    except MoveBlocked:
        return "params", None
    d2 = rebuilt(splice.d2)  # no kept analysis
    if validate(d2):
        return "not generic", None
    i, j, new = splice_window(d, splice)
    replaced = set(segment_keys(d)[i:j])
    changed = {(splice.loop, k, s) for k, segs in new for s in segs}
    dropped = [c for c in fresh if replaced.intersection(strands(c))]
    found = [c for c in crossings(d2) if changed.intersection(strands(c))]
    spots = set() if splice.point_move else {c.location for c in dropped}
    if not spots <= {c.location for c in found}:
        return "persistence", None
    additions = sorted((*strands(c), c.frame) for c in found if c.location not in spots)
    if splice.count:
        n, counts, _ = splice.count
        if sum(counts is None or a[0] == b[0] == counts for a, b, _ in additions) != n:
            return "count", None
    # a point move keeps its segments' keys, so its crossings keep their triples
    if splice.point_move and additions != sorted((*strands(c), c.frame) for c in dropped):
        return "contract", None
    if splice.contract and splice.contract(additions) or inv1(d2) != inv1(d):
        return "contract", None
    return "applied", additions


def assert_verdicts_agree(d, specs, tally):
    """Each spec gets the same verdict from the engine (the builder through
    _apply_splice) as from reference_verdict, and an applied one the same
    additions; tally counts the reference's verdicts by category."""
    fresh = crossings(rebuilt(d))
    for spec in specs:
        want, additions = reference_verdict(d, spec, fresh)
        tally[want] = tally.get(want, 0) + 1
        try:
            _, got = diagram_mod._apply_splice(d, moves_mod._BUILDERS[spec.kind][0](d, spec))
        except MoveBlocked as exc:
            assert want != "applied", f"{spec.to_line()}: blocked, {exc}"
        else:
            assert want == "applied", f"{spec.to_line()}: applied, the reference says {want}"
            assert sorted(got) == additions, spec.to_line()


def test_every_verdict_matches_a_from_scratch_reference(wedge):
    """On seeded chains, every proposal, hostile spec and SingleKink gets the
    reference's verdict, and each category of block fires.  No proposal
    reaches persistence, as a window avoids the crossings on its segment: the
    KinkPair of test_kink_pair_blocked_over_existing_crossing does."""
    tally = {}
    assert_verdicts_agree(wedge, [MoveSpec("KinkPair", 0, 0, 1, (rat(3, 8), rat(3, 4), rat(1, 16), rat(1, 16)))],
                          tally)
    assert tally == {"persistence": 1}
    for seed in range(6):
        rng = random.Random(f"verdict:{seed}")
        d = realize(random_tuple(rng.choice((1, 2, 3)), rng.randrange(10 ** 9)))
        for _ in range(12):
            specs = [moves_mod._propose_move(d, rng) for _ in range(8)]
            assert_verdicts_agree(d, [s for s in specs if s] + hostile_specs(d, rng) + single_kink_specs(d, rng),
                                  tally)
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    assert all(tally.get(c, 0) >= 1 for c in VERDICT_CATEGORIES + ("applied",)), tally


def test_leg_starts_give_each_record_its_position():
    """On realized and moved diagrams, _position over _leg_starts gives each
    record index the (leg, seg) of a brute-force walk of iter_segments, and
    _skip_pair skips exactly the pairs of records that both touch V (each the
    first or last segment of its loop) and the consecutive corners of a leg."""
    multi_leg = 0  # diagrams with a loop of three or more legs, after Detours
    for seed in range(10):
        rng = random.Random(f"leg-starts:{seed}")
        d = realize(random_tuple(seed % 3 + 1, rng.randrange(10 ** 9)))
        for _ in range(12):
            walk = list(d.iter_segments())
            table, records = _leg_starts(d), analysis(d).records
            assert len(records) == len(walk) == table[-1][-1]
            at_v = []
            for i, (li, ki, si, _, _) in enumerate(walk):
                assert records[i].loop == li and _position(table, li, i) == (ki, si)
                legs = d.loops[li].legs
                at_v.append((ki, si) in ((0, 0), (len(legs) - 1, len(legs[-1].points) - 2)))
            for i, j in itertools.combinations(range(len(walk)), 2):
                corner = walk[i][:2] == walk[j][:2] and walk[j][2] - walk[i][2] == 1
                want = at_v[i] and at_v[j] or corner
                assert _skip_pair(records[i], records[j], i, j, table) == want
                assert _skip_pair(records[j], records[i], j, i, table) == want
            multi_leg += max(len(lp.legs) for lp in d.loops) >= 3
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    assert multi_leg >= 10


def test_incremental_analysis_matches_full_recheck(quad, chord, wedge):
    for d0, base in ((quad, 0), (chord, 100), (wedge, 200)):
        d = d0
        for seed in range(base, base + 15):
            _, d = random_move_applied(d, seed)
            assert_kept_analysis_is_fresh(d)


def test_incremental_analysis_after_edits(quad):
    d = quad
    for seed in range(8):
        _, out = random_edit(d, seed)
        d = out.diagram
        assert_kept_analysis_is_fresh(d)


def assert_gaps_tile_each_segment(d):
    """On every segment of valid d, _segment_gaps tiles [0, 1], one gap more
    than the crossings on the segment, and no gap is empty: the crossing
    parameters on a segment are interior and distinct."""
    on = [strand for c in crossings(d) for strand in strands(c)]
    for key in segment_keys(d):
        gaps = diagram_mod._segment_gaps(d, key)
        ends = [t for gap in gaps for t in gap]
        assert ends[0] == 0 and ends[-1] == 1 and ends[1:-1:2] == ends[2:-1:2], key
        assert all(lo < hi for lo, hi in gaps) and len(gaps) == 1 + on.count(key), key


def test_the_gaps_of_every_segment_tile_the_unit_interval():
    for seed in range(4):
        rng = random.Random(f"gaps:{seed}")
        d = realize(random_tuple(seed % 3 + 1, rng.randrange(10 ** 9)))
        for _ in range(20):
            assert_gaps_tile_each_segment(d)
            _, d = random_move_applied(d, rng.randrange(10 ** 9))


def hostile_specs(d, rng):
    """Specs aimed at each structural condition: jiggles onto a neighbour
    (repeated point), past it (cusp), off the disk, onto the seam circle, next
    to a seam joint and along another half-edge at the vertex; detours out
    through an existing seam point or its antipode."""
    loop = rng.randrange(d.n)
    lp = d.loops[loop]
    k = rng.randrange(len(lp.legs))
    pts = lp.legs[k].points
    specs = []
    if len(pts) >= 3:
        i = rng.randrange(1, len(pts) - 1)
        p0, p, p2 = pts[i - 1], pts[i], pts[i + 1]
        _, v = rng.choice(vertex_directions(d))
        for target in (p0, p2 + (p2 - p0), pt(2, 0), pt(0, 1), d.vertex + v.scale(rat(1, 2))):
            delta = target - p
            if not delta.is_zero():
                specs.append(MoveSpec("Jiggle", loop, k, i, (delta.x, delta.y)))
    exits = [leg.points[-1] for other in d.loops for leg in other.legs[:-1]]
    if exits:
        q = rng.choice(exits)
        q = q if rng.random() < 0.5 else -q
        if q.x != -1 and q.y != 0:
            uq = q.y / (1 + q.x)  # circle_point(uq) == q
            specs.append(MoveSpec("Detour", loop, k, rng.randrange(len(pts) - 1),
                                  (rat(1), rat(1, 2), rat(1, 4), uq, -1 / uq + rat(1, 96))))
    return specs


def test_touched_only_structural_check_matches_full_check():
    """On every proposal, blocked ones included, the check of the touched
    segments finds the same first violation as re-checking the whole
    candidate diagram."""
    proposals = 0
    kinds = set()
    for seed in range(8):
        rng = random.Random(f"structural-check:{seed}")
        d = realize(random_tuple(rng.choice((1, 2, 3)), rng.randrange(10 ** 9)))
        for _ in range(5):
            for _ in range(10):
                spec = moves_mod._propose_move(d, rng)
                for spec in ([spec] if spec else []) + hostile_specs(d, rng):
                    try:
                        splice = moves_mod._BUILDERS[spec.kind][0](d, spec)
                    except MoveBlocked:
                        continue
                    touched = []
                    diagram_mod._structural(touched, splice.d2, {splice.loop: splice.new}, [])
                    full, _ = _structural_violations(splice.d2, [])
                    assert touched[:1] == full[:1], spec.to_line()
                    proposals += 1
                    kinds.update(v.kind for v in full[:1])
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    assert proposals > 1000
    assert kinds == {"RepeatedPoint", "Cusp", "PointOutsideDisk", "PointOnCircle", "SeamRegularity",
                     "CodirectionalAtVertex", "CoincidentSeamPoints", "AntipodalSeamPoints"}


# ---------------------------------------------------------------------------
# the contract cap stops blocked moves early and changes no decision
# ---------------------------------------------------------------------------

def single_kink_specs(d, rng):
    specs = []
    keys = segment_keys(d)
    for _ in range(3):
        key = keys[rng.randrange(len(keys))]
        center, half = moves_mod._free_window(d, rng, key)
        w = half / rng.choice((1, 2))  # random_edit takes half / 2
        specs.append(EditSpec("SingleKink", *key, (center, w, w * rat(rng.choice((-1, 1)), 4))))
    return specs


def outcome(d, spec):
    """("applied", dumps, crossings, records) or ("blocked", message)."""
    try:
        d2 = apply_move(d, spec) if isinstance(spec, MoveSpec) else apply_edit(d, spec)
    except MoveBlocked as exc:
        return "blocked", str(exc)
    kept = analysis(d2)
    return "applied", dumps(d2), kept.crossings, kept.records


def test_contract_cap_keeps_every_decision(monkeypatch, chord):
    """Every spec gets the same decision, and an applied one the same diagram
    and kept analysis, whether or not the scan stops past its builder's count."""
    scan = diagram_mod._scan_changed

    def unstopped(*args):
        # the same tally, but the scan never stops early
        *args, count = args
        if count:
            count = (float("inf"),) + count[1:]
        return scan(*args, count)

    fired = {}
    compared = 0
    for seed in range(8):
        rng = random.Random(f"contract-cap:{seed}")
        d = realize(random_tuple(rng.choice((1, 2, 3)), rng.randrange(10 ** 9)))
        for _ in range(12):
            specs = [moves_mod._propose_move(d, rng) for _ in range(12)]
            specs = [s for s in specs if s] + hostile_specs(d, rng) + single_kink_specs(d, rng)
            for spec in specs:
                capped = outcome(d, spec)
                with monkeypatch.context() as m:
                    m.setattr(diagram_mod, "_scan_changed", unstopped)
                    full = outcome(d, spec)
                if capped[0] == full[0] == "blocked":
                    if "got more than" in capped[1]:
                        fired[spec.kind] = fired.get(spec.kind, 0) + 1
                else:
                    assert capped == full, spec.to_line()
                compared += 1
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    assert compared > 1500
    assert fired.get("Detour", 0) >= 50 and fired.get("FingerPush", 0) >= 50, fired
    # the corridor of test_detour_blocked_cases picks up a third self-crossing
    spec = MoveSpec("Detour", 0, 0, 0, (rat(1), rat(1, 2), rat(1, 4), rat(1, 2), rat(-2) + rat(1, 16)))
    assert outcome(chord, spec) == ("blocked", "detour must add exactly 2 self-crossings, got more than 2")


# ---------------------------------------------------------------------------
# the splicer's window matches segment identity
# ---------------------------------------------------------------------------

def loop_segments(loop):
    return [(ki, si, leg.points[si], leg.points[si + 1])
            for ki, leg in enumerate(loop.legs) for si in range(len(leg.points) - 1)]


def identity_window(d, d2, loop):
    """Brute force: (replaced, changed) by matching each new segment's (a, b)
    object pair against every old one."""
    old = {(id(a), id(b)): (k, s) for k, s, a, b in loop_segments(d.loops[loop])}
    new = {(id(a), id(b)): (k, s) for k, s, a, b in loop_segments(d2.loops[loop])}
    kept = old.keys() & new.keys()
    return {old[x] for x in old.keys() - kept}, {new[x] for x in new.keys() - kept}


def splice_window(d, splice):
    """(i, j, new): the replaced records i .. j - 1, with j counted as
    _apply_splice counts it, off the loop's leg-start rows in d and d2."""
    leg, segs = splice.new[0]
    row, row2 = _leg_starts(d)[splice.loop], _leg_starts(splice.d2)[splice.loop]
    i = row[leg] + segs[0]
    return i, i + sum(len(s) for _, s in splice.new) - (row2[-1] - row[-1]), splice.new


def window_specs(d, rng):
    """Seeded proposals, hostile and SingleKink specs, SeamReroute edits and
    a jiggle by zero (a new point equal in value to the old one)."""
    specs = [moves_mod._propose_move(d, rng) for _ in range(8)]
    specs = [s for s in specs if s] + hostile_specs(d, rng) + single_kink_specs(d, rng)
    loop, leg, seg = key = rng.choice(segment_keys(d))
    center, half = moves_mod._free_window(d, rng, key)
    uq = moves_mod._seam_u(d, rng, key, center)
    specs.append(EditSpec("SeamReroute", loop, leg, seg, (center, half, uq)))
    if len(d.loops[loop].legs[leg].points) > 2:
        specs.append(MoveSpec("Jiggle", loop, leg, 1, (rat(0), rat(0))))
    return specs


def test_splice_window_matches_segment_identity():
    """For every builder, the window the splicer records from its arguments
    replaces and re-examines exactly the segments that the brute-force
    identity match says, and the spliced records of a generic result equal
    freshly built ones."""
    builders = {kind: build for kind, (build, _) in moves_mod._BUILDERS.items()}
    kinds = {}
    for seed in range(10):
        rng = random.Random(f"splice-window:{seed}")
        d = realize(random_tuple(rng.choice((1, 2, 3)), rng.randrange(10 ** 9)))
        for _ in range(10):
            for spec in window_specs(d, rng):
                try:
                    splice = builders[spec.kind](d, spec)
                except MoveBlocked:
                    continue
                d2 = splice.d2
                base = analysis(d)
                i, j, new = splice_window(d, splice)
                replaced = {diagram_mod._key(d, f)[1:] for f in range(i, j)}
                assert all(diagram_mod._key(d, f)[0] == splice.loop for f in range(i, j))
                want_replaced, want_changed = identity_window(d, d2, splice.loop)
                assert replaced == want_replaced, spec.to_line()
                assert {(k, s) for k, segs in new for s in segs} == want_changed, spec.to_line()
                changed, out = [], []
                diagram_mod._structural(out, d2, {splice.loop: splice.new}, changed)
                if not out:
                    records = base.records[:i] + tuple(changed) + base.records[j:]
                    assert records == tuple(segment_records(d2)), spec.to_line()
                kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    assert set(kinds) == set(builders) and min(kinds.values()) >= 50, kinds


def test_splice_keeps_every_record_past_its_window():
    """A kink pair early on a long single leg rebuilds no record after it:
    each is the very same object as before, at an index 8 later."""
    pts = (pt(0, 0),) + tuple(pt(rat(i, 200), 0) for i in range(1, 101)) + (pt("1/2", "1/4"), pt(0, 0))
    d = BouquetDiagram(1, pt(0, 0), (LoopPath((Leg(pts),)),))
    before = analysis(d).records
    d2 = apply_move(d, MoveSpec("KinkPair", 0, 0, 2, (rat(1, 4), rat(3, 4), rat(1, 8), rat(1, 64))))
    after = analysis(d2).records
    assert len(before) == 102 and len(after) == 110
    assert all(r is s for r, s in zip(before[3:], after[11:]))
    assert_kept_analysis_is_fresh(d2)


def test_a_splice_builds_no_crossing_for_a_kept_one(monkeypatch):
    """Subdividing segment 4 of loop 2's one leg moves every record past it
    by one, yet keeps every crossing off that segment, past it too, as the
    very same kept form, and builds no Crossing; nor does a kink pair there
    that blocks on its count, which leaves the parent's analysis as it was.
    The public tuple is built on first use, once per crossing."""
    d = realize(random_tuple(3, 1))
    kept = analysis(d)
    build, built = diagram_mod._pair_crossing, []
    monkeypatch.setattr(diagram_mod, "_pair_crossing", lambda *args: built.append(args) or build(*args))
    with pytest.raises(MoveBlocked, match="^kink pair must add exactly 2 crossings, got more than 2$"):
        apply_move(d, MoveSpec("KinkPair", 2, 0, 4, (rat(1, 4), rat(3, 4), rat(1, 8), rat(2))))
    assert analysis(d) is kept
    d2 = apply_move(d, MoveSpec("Subdivide", 2, 0, 4, (rat(1, 2),)))
    assert built == []
    s = kept.records[kept.leg_starts[2][0] + 4]
    off = [c for c in kept.pairs if c[0] is not s and c[1] is not s]
    after = {id(c) for c in analysis(d2).pairs}
    assert len(off) == 7 and all(id(c) in after for c in off)
    past = {id(r) for r in kept.records[kept.leg_starts[2][0] + 5:kept.leg_starts[2][-1]]}
    assert sum(1 for c in off if id(c[0]) in past or id(c[1]) in past) == 3
    assert len(crossings(d2)) == len(built) == len(analysis(d2).pairs)
    assert_kept_analysis_is_fresh(d2)


def test_the_public_crossing_tuple_is_built_once():
    """crossings(d) builds its tuple once per kept analysis, and the
    invariants never build it."""
    d = realize(random_tuple(3, 1))
    for seed in range(6):
        _, d = random_move_applied(d, seed)
        invariants(d)
        assert "crossings" not in vars(analysis(d))
        assert crossings(d) is crossings(d)


def reaches_v(splice):
    """Whether a window of the splice holds a loop's first or last segment."""
    legs = splice.d2.loops[splice.loop].legs
    return any(k == 0 and segs.start == 0 or k == len(legs) - 1 and segs.stop == len(legs[k].points) - 1
               for k, segs in splice.new)


def test_the_order_word_is_built_once_and_carried(monkeypatch):
    """_order runs once per fresh valid analysis and once per splice whose
    window reaches V that is applied or blocked by the star rule, and never
    for any other splice; every applied splice carries its parent's word as
    the very same object, and it equals a rebuilt one.  Seeded chains, and
    the jiggle that turns the square's first half-edge down, which moves e1
    from first to last around V but keeps the cyclic order, and the one of
    test_jiggle_blocked_by_vertex_order, which the star rule blocks."""
    calls, want, at_v = [0], [0], [0]
    build, analyze, apply_splice = diagram_mod._order, diagram_mod._analyze, moves_mod._apply_splice

    def order(d):
        calls[0] += 1
        return build(d)

    def fresh(d):
        a = analyze(d)
        want[0] += not a.violations
        return a

    def spliced(d, splice):
        reach = reaches_v(splice)
        at_v[0] += reach
        try:
            d2, additions = apply_splice(d, splice)
        except MoveBlocked as exc:
            want[0] += str(exc) == "jiggle would reorder the vertex star"
            raise
        want[0] += reach
        assert analysis(d2).order is analysis(d).order
        assert analysis(d2).order == analysis(rebuilt(d2)).order
        return d2, additions

    monkeypatch.setattr(diagram_mod, "_order", order)
    monkeypatch.setattr(diagram_mod, "_analyze", fresh)
    monkeypatch.setattr(moves_mod, "_apply_splice", spliced)
    d = square_and_petal()
    d2 = apply_move(d, MoveSpec.from_line("Jiggle 0 0 1 0/1 -1/8"))

    def counterclockwise(d):
        star = vertex_directions(d)
        return [str(star[i][0]) for i in angle_sort([v for _, v in star])]

    assert (counterclockwise(d), counterclockwise(d2)) == (["e1", "e2", "e2^-1", "e1^-1"],
                                                            ["e2", "e2^-1", "e1^-1", "e1"])
    with pytest.raises(MoveBlocked, match="^jiggle would reorder the vertex star$"):
        apply_move(d, MoveSpec("Jiggle", 0, 0, 1, (rat(0), rat(1, 4))))
    assert str(inv1(d2)) == "e1,e1^-1,e2^-1,e2"
    splices = at_v[0]
    for seed in range(6):
        d = realize(random_tuple(seed % 3 + 1, seed))
        rng = random.Random(seed)
        for _ in range(40):
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    assert calls == want and at_v[0] - splices >= 15, (calls, want, at_v)


def test_a_jiggle_that_swaps_a_partner_strand_is_blocked():
    """Moving point 17 makes segment 16 cross segment 13 instead of 12: the
    strands change though the count and frame do not."""
    d = realize(random_tuple(1, 325664383))
    for seed in (703013335, 663429604, 748087104, 123375122, 734025962, 551198391):
        _, d = random_move_applied(d, seed)
    assert [(c.param_a.seg, c.param_b.seg) for c in crossings(d)] == [(4, 6), (8, 10), (12, 16), (18, 20)]
    spec = MoveSpec.from_line("Jiggle 0 0 17 -69/34816 -69/278528")

    def on_16(d):
        pairs = [(c.param_a.seg, c.param_b.seg, c.frame) for c in crossings(d)]
        return [p for p in pairs if 16 in p[:2]]

    assert on_16(d) == [(12, 16, -1)]
    assert on_16(rebuilt(moves_mod._build_jiggle(d, spec).d2)) == [(13, 16, -1)]
    with pytest.raises(MoveBlocked, match="^jiggle would change the crossing pattern$"):
        apply_move(d, spec)


def test_template_through_an_existing_crossing_is_blocked(wedge):
    # loop 0's segment 1 crosses loop 1's segment 2 at (15/64, -15/64); moving
    # the point (-3/8, 0) to (1/2, -1/2) sends segment 3 through that crossing,
    # so it meets both strands there
    assert [c.location for c in crossings(wedge)] == [pt("15/64", "-15/64")]
    with pytest.raises(MoveBlocked, match="^two crossings would coincide$"):
        apply_move(wedge, MoveSpec("Jiggle", 0, 0, 3, (rat(7, 8), rat(-1, 2))))


def test_huge_jiggle_is_blocked_before_records_are_built(quad):
    # a point far outside the disk has no float box: the structural check
    # must block it first
    with pytest.raises(MoveBlocked, match="PointOutsideDisk"):
        apply_move(quad, MoveSpec("Jiggle", 0, 0, 1, (rat(10 ** 400), rat(0))))


# ---------------------------------------------------------------------------
# the walk drops unbuilt only proposals that are certainly blocked
# ---------------------------------------------------------------------------

def dropping_rule(d, spec):
    """The rule by which a walk drops spec unbuilt, or None if it builds it."""
    if not moves_mod._certainly_blocked(d, spec):
        return None
    if spec.kind == "FingerPush":
        _, (_, f1, f2, _) = moves_mod._finger_points(d, spec)
        return "outside" if max(unit_circle_side(_point(*f)) for f in (f1, f2)) >= 0 else "strand"
    return spec.kind


def assert_dropped_only_if_blocked(d, specs, tally):
    """Every spec a walk drops is a Detour or a FingerPush that apply_move
    blocks.  tally counts, per rule, the dropped specs, and the Detours and
    FingerPushes apply_move blocks ("blocked") and of those the ones dropped
    ("dropped")."""
    for spec in specs:
        rule = dropping_rule(d, spec)
        if spec.kind not in ("Detour", "FingerPush"):
            assert rule is None, spec.to_line()
            continue
        try:
            apply_move(d, spec)
        except MoveBlocked:
            tally["blocked"] = tally.get("blocked", 0) + 1
            tally["dropped"] = tally.get("dropped", 0) + bool(rule)
        else:
            assert rule is None, f"dropped a move that applies: {spec.to_line()}"
        if rule:
            tally[rule] = tally.get(rule, 0) + 1


def walk_proposals():
    """(d, specs) on chains of n = 1, 2, 3 loops grown to 300 segments: at
    each diagram of a chain, four proposals and the hostile specs."""
    for n in (1, 2, 3):
        rng = random.Random(f"walk-drops:{n}")
        d = realize(random_tuple(n, rng.randrange(10 ** 9)))
        while sum(1 for _ in d.iter_segments()) < 300:
            specs = [moves_mod._propose_move(d, rng) for _ in range(4)]
            yield d, [s for s in specs if s] + hostile_specs(d, rng)
            _, d = random_move_applied(d, rng.randrange(10 ** 9))


def test_the_walk_drops_only_blocked_proposals():
    """On the walk chains, each proposal and hostile spec that
    _certainly_blocked rejects is blocked; each rule fires, and together they
    catch most blocked Detours and FingerPushes."""
    tally = {}
    for d, specs in walk_proposals():
        assert_dropped_only_if_blocked(d, specs, tally)
    assert min(tally.get(rule, 0) for rule in ("Detour", "outside", "strand")) >= 5, tally
    assert tally["dropped"] >= 0.85 * tally["blocked"], tally


def template_ints(d, spec):
    """The int points the drop check reads for a Detour or FingerPush, in
    the order the builder splices them, or None on a bad parameter."""
    try:
        if spec.kind == "Detour":
            return [p for chain in moves_mod._detour_points(d, spec)[2] for p in chain]
        return list(moves_mod._finger_points(d, spec)[1])
    except MoveBlocked:
        return None


def spliced_template(splice, spec):
    """The same points as the builder spliced them into its candidate: a
    finger follows the target's start, and an excursion follows the Detour's
    two curls of four points each, each seam transition starting a leg."""
    legs, s = splice.d2.loops[spec.loop].legs, spec.segment
    if spec.kind == "FingerPush":
        return legs[spec.leg].points[s + 1:s + 5]
    return legs[spec.leg].points[s + 9:s + 11] + legs[spec.leg + 1].points[:3] + legs[spec.leg + 2].points[:3]


def test_the_drop_check_reads_the_floats_of_the_spliced_points():
    """On the walk chains, the int points of every Detour and FingerPush,
    rounded by int division as the drop check rounds them, are float() of
    the `Rat` points its builder splices, coordinate by coordinate: so _B
    holds for them."""
    seen = {"Detour": 0, "FingerPush": 0}
    for d, specs in walk_proposals():
        for spec in specs:
            ints = template_ints(d, spec) if spec.kind in seen else None
            if ints is None:
                continue
            spliced = spliced_template(moves_mod._BUILDERS[spec.kind][0](d, spec), spec)
            assert [(xn / xd, yn / yd) for xn, xd, yn, yd in ints] \
                == [(float(p.x), float(p.y)) for p in spliced], spec.to_line()
            seen[spec.kind] += 1
    assert min(seen.values()) >= 100, seen


def test_the_float_pass_decides_most_drop_checks_and_agrees(monkeypatch):
    """On the walk chains, the drop check gives every Detour and FingerPush
    the verdict of its exact scan (_sure disabled, so every pair goes to
    the exact predicates), and at least 90% of those checks build no `Rat`
    end point and call no exact predicate."""
    exact = {"calls": 0}

    def counted(f):
        def wrapper(*args):
            exact["calls"] += 1
            return f(*args)
        return wrapper

    checks = decided = 0
    for d, specs in walk_proposals():
        for spec in specs:
            if spec.kind not in ("Detour", "FingerPush"):
                continue
            with monkeypatch.context() as m:
                m.setattr(diagram_mod, "_sure", lambda s, t: None)
                want = moves_mod._certainly_blocked(d, spec)
            with monkeypatch.context() as m:
                for name in ("_point", "_meet", "_kind", "orient2d"):
                    m.setattr(diagram_mod, name, counted(getattr(diagram_mod, name)))
                before = exact["calls"]
                assert moves_mod._certainly_blocked(d, spec) == want, spec.to_line()
            checks += 1
            decided += exact["calls"] == before
    assert checks > 500 and decided >= 0.9 * checks, (checks, decided)


def test_the_drop_check_gives_hostile_parameters_their_verdict(quad):
    """A finger of reach 10^400 lies far outside the disk: the exact circle
    test proves it blocked before any of its coordinates is rounded.  A
    Detour or a FingerPush whose t or w lies outside (0, 1) gets no verdict,
    and apply_move blocks it on its parameters."""
    push = MoveSpec("FingerPush", 0, 0, 1, (rat(1, 2), rat(1, 8), rat(0), rat(0), rat(3), rat(1, 2),
                                            rat(10 ** 400)))
    assert moves_mod._certainly_blocked(quad, push)
    with pytest.raises(MoveBlocked, match="PointOutsideDisk"):
        apply_move(quad, push)
    huge = rat(10 ** 400)
    cases = [
        (MoveSpec("Detour", 0, 0, 1, (rat(1), huge, rat(1, 8), rat(1, 2), rat(-2))), "detour window"),
        (MoveSpec("Detour", 0, 0, 1, (rat(1), rat(1, 2), rat(-1, 8), rat(1, 2), rat(-2))), "detour window"),
        (MoveSpec("FingerPush", 0, 0, 1, (rat(1, 2), huge, rat(0), rat(0), rat(3), rat(1, 2), rat(1, 4))),
         "finger push window"),
        (MoveSpec("FingerPush", 0, 0, 1, (rat(3, 2), rat(1, 8), rat(0), rat(0), rat(3), rat(1, 2), rat(1, 4))),
         "finger push window"),
    ]
    for spec, message in cases:
        assert not moves_mod._certainly_blocked(quad, spec), spec.to_line()
        with pytest.raises(MoveBlocked, match=message):
            apply_move(quad, spec)


def test_meet_sees_only_the_pairs_sure_leaves_open(monkeypatch):
    """Both scans, a fresh validate's and a splice's, drop each box-meeting
    pair that _sure proves disjoint and hand _meet the frame _sure gave, on
    a realized diagram and the applied moves of a seeded chain from it."""
    meet, sure = diagram_mod._meet, diagram_mod._sure
    calls = []

    def wrapped(s, t, frame=0):
        calls.append((sure(s, t), frame))
        return meet(s, t, frame)

    monkeypatch.setattr(diagram_mod, "_meet", wrapped)
    rng = random.Random("meet-after-sure")
    d = realize(random_tuple(2, 5))
    fresh = spliced = 0
    for _ in range(40):
        calls.clear()
        validate(rebuilt(d))
        fresh += len(calls)
        assert all(frame == want != 0 for want, frame in calls)
        spec = moves_mod._propose_move(d, rng)
        calls.clear()
        try:
            d = apply_move(d, spec) if spec else d
        except MoveBlocked:
            pass
        spliced += len(calls)
        assert all(frame == want != 0 for want, frame in calls)
    assert fresh > 200 and spliced > 40, (fresh, spliced)
    pairs = list(diagram_mod._all_pairs(analysis(d).records, analysis(d).leg_starts))
    assert sum(sure(*((s, t) if i < j else (t, s))) == 0 for s, t, i, j in pairs) > len(pairs) / 4


def needle(m, digits):
    """One loop from V through (1/3 + k e, +-1/5 + k e), k = 0..m-1, e =
    10^-digits, the sign alternating in k, and back to V."""
    e = rat(1, 10 ** digits)
    v = pt(0, 0)
    return BouquetDiagram(1, v, (LoopPath((Leg((v, *(pt(rat(1, 3) + k * e, rat((-1) ** k, 5) + k * e)
                                                     for k in range(m)), v)),)),))


def test_a_crowded_float_cell_is_held_as_a_set(monkeypatch):
    """The needle's m - 2 crossings, of the segment back to V with the
    needles, all round to one float point: _located holds them as a list,
    then, past 4, as a set of lowest-terms ints, in a fresh validate and in
    a splice.  A Subdivide of that segment finds each crossing again, looking
    it up in the crowded cell of the replaced ones, and gets the verdict of
    reference_verdict."""
    m = 12
    d = needle(m, 40)
    assert validate(d) == [] and len(crossings(d)) == m - 2
    assert len({(float(c.location.x), float(c.location.y)) for c in crossings(d)}) == 1
    located, lookups = diagram_mod._located, set()

    def watched(spots, at, add=False):
        xn, xd, yn, yd = at
        lookups.add((type(spots.get((xn / xd, yn / yd))) is set, add))
        return located(spots, at, add)

    monkeypatch.setattr(diagram_mod, "_located", watched)
    assert validate(rebuilt(d)) == []
    assert lookups == {(False, True), (True, True)}
    tally = {}
    assert_verdicts_agree(d, [MoveSpec("Subdivide", 0, 0, m, (rat(1, 2),))], tally)
    assert tally == {"applied": 1} and (True, False) in lookups
    assert_kept_analysis_is_fresh(apply_move(d, MoveSpec("Subdivide", 0, 0, m, (rat(1, 2),))))


def test_certain_addition_decides_a_tiny_crossing_exactly(quad, monkeypatch):
    """A chord 2^-59 long across the quad's top side rounds to one float
    point, so no float sign is certain; the exact scan finds the crossing."""
    meet = diagram_mod._meet
    calls = []
    monkeypatch.setattr(diagram_mod, "_meet", lambda s, t: calls.append(1) or meet(s, t))
    tiny = rat(1, 2 ** 60)
    chord = (pt("1/4", rat(1, 2) - tiny), pt("1/4", rat(1, 2) + tiny))
    assert diagram_mod._certain_addition(quad, (0, 0, 1), int_chords([chord]))
    assert calls


def strands(c):
    return (c.loop_a, c.param_a.leg, c.param_a.seg), (c.loop_b, c.param_b.leg, c.param_b.seg)


def reference_addition(d, target, chords, loop, spared, spare_target=True, skip_spots=True):
    """_certain_addition by brute force: segment_intersection over every
    pair of non-consecutive chords and every pair of a chord and a segment
    of d, with the exemptions that the flags leave on; False if a chord end
    lies outside [-1, 1]^2."""
    if any(abs(p.x) > 1 or abs(p.y) > 1 for chord in chords for p in chord):
        return False
    spots = {c.location for c in crossings(d) if target in strands(c)} if skip_spots else set()
    left_out = {spared, target} if spare_target else {spared}
    others = [(a, b) for li, ki, si, a, b in d.iter_segments()
              if loop in (None, li) and (li, ki, si) not in left_out]
    pairs = [(s, t) for i, s in enumerate(chords) for t in chords[i + 2:]]
    pairs += [(s, t) for s in chords for t in others]
    hits = (segment_intersection(*s, *t) for s, t in pairs)
    return any(h.kind is SegKind.PROPER and h.point not in spots for h in hits)


def int_chords(chords):
    """The chords as _certain_addition takes them: pairs of int points."""
    return [(_ints(a), _ints(b)) for a, b in chords]


def test_certain_addition_matches_a_brute_force_scan():
    """On seeded chains, _certain_addition answers as a brute-force scan for
    chords drawn across the target at its crossings, at another point of it,
    at a point of the spared strand and at a random point; each exemption
    (the target, its crossing locations, the spared strand) changes the
    answer on some of them."""
    changed = {"target": 0, "spots": 0, "spared": 0}
    checked = 0
    for seed in range(6):
        rng = random.Random(f"certain-addition:{seed}")
        d = realize(random_tuple(seed % 3 + 1, rng.randrange(10 ** 9)))
        for _ in range(rng.randrange(5, 25)):
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
        keys = segment_keys(d)
        crossed = [strands(c)[0] for c in crossings(d)]
        for _ in range(40):
            target, spared = rng.choice(rng.choice((keys, crossed))), rng.choice(keys + [None])
            if spared == target:
                continue
            loop = rng.choice((None, target[0]))
            a, b = d.segment(*target)
            e = b - a
            spots = [c.location for c in crossings(d) if target in strands(c)]
            on = [_point(*moves_mod._along(_ints(a), _ints(b), rng.randrange(1, 16), 16))]
            if spared:
                on.append(_point(*moves_mod._along(*map(_ints, d.segment(*spared)), rng.randrange(1, 16), 16)))
            chords = []
            for _ in range(rng.randrange(1, 3)):
                p = rng.choice(rng.choice([spots or on, on, [pt(rat(rng.randrange(-11, 12), 16),
                                                              rat(rng.randrange(-11, 12), 16))]]))
                # across the target's direction, about a tenth of its length
                v = (pt(-e.y, e.x) + e.scale(rat(rng.randrange(-8, 9), 8))).scale(rat(1, 16))
                chords.append((p - v, p + v))
            want = reference_addition(d, target, chords, loop, spared)
            assert diagram_mod._certain_addition(d, target, int_chords(chords), loop, spared) == want, \
                (target, spared, loop, chords)
            changed["target"] += want != reference_addition(d, target, chords, loop, spared,
                                                           spare_target=False)
            changed["spots"] += want != reference_addition(d, target, chords, loop, spared, skip_spots=False)
            changed["spared"] += spared is not None and want != reference_addition(d, target, chords,
                                                                                  loop, None)
            checked += 1
    assert checked > 200 and min(changed.values()) >= 10, (checked, changed)


def test_certain_addition_gives_no_verdict_past_the_square(quad):
    """_meet's float bound holds for points in [-1, 1]^2 only: a chord that
    reaches past it gets no verdict, although it crosses the quad twice."""
    assert diagram_mod._certain_addition(quad, (0, 0, 1), int_chords([(pt("1/4", -1), pt("1/4", 1))]))
    assert not diagram_mod._certain_addition(quad, (0, 0, 1), int_chords([(pt("1/4", -2), pt("1/4", 2))]))


# ---------------------------------------------------------------------------
# decisions are pinned: the acceptance campaign applies the same moves
# ---------------------------------------------------------------------------

# SHA-256 of the move lines of the first 30 trials of the seed-20260815
# acceptance campaign; any change to a proposal or to an accept/reject
# decision changes it
FIRST_30_TRIALS_DIGEST = "8a10fa2a24d8f7f4f30435b834bb9d60118262f82efda5c8fff01c0e35607a6f"


def test_first_30_acceptance_trials_apply_the_same_moves():
    lines = []
    for trial in range(30):
        rng = random.Random(f"rp2bouquet-fuzz:20260815:{trial}")
        d = realize(random_tuple(rng.choice((1, 2, 3)), rng.randrange(10 ** 9)))
        for _ in range(20):
            spec, d = random_move_applied(d, rng.randrange(10 ** 9))
            lines.append(spec.to_line())
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == FIRST_30_TRIALS_DIGEST


# SHA-256 of the outcome of every spec of window_specs on 14 seeded chains of
# 24 states: applied and blocked decisions alike, so a changed block message or
# a changed crossing of an applied move changes it
OUTCOME_DIGEST = "74af53c816d511306d3cd58653d4c165e94748d5ab8073c7f259744c46d8d6ab"


def rat_text(r):
    return f"{r.numerator}/{r.denominator}"


def outcome_line(d, spec):
    try:
        d2 = apply_move(d, spec) if isinstance(spec, MoveSpec) else apply_edit(d, spec)
    except MoveBlocked as exc:
        return f"{spec.to_line()} | blocked: {exc}\n"
    crs = ";".join(f"{c.loop_a} {c.loop_b} {c.param_a.leg} {c.param_a.seg} {rat_text(c.param_a.frac)} "
                   f"{c.param_b.leg} {c.param_b.seg} {rat_text(c.param_b.frac)} "
                   f"{rat_text(c.location.x)} {rat_text(c.location.y)} {c.frame}" for c in crossings(d2))
    return f"{spec.to_line()} | applied: {crs} | {dumps(d2)}"


def test_every_decision_is_pinned():
    digest = hashlib.sha256()
    specs = 0
    for seed in range(14):
        rng = random.Random(f"outcome-digest:{seed}")
        d = realize(random_tuple(rng.choice((1, 2, 3)), rng.randrange(10 ** 9)))
        for _ in range(24):
            for spec in window_specs(d, rng):
                digest.update(outcome_line(d, spec).encode())
                specs += 1
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    assert specs >= 5000
    assert digest.hexdigest() == OUTCOME_DIGEST, (specs, digest.hexdigest())


# SHA-256 of the "\n"-joined move lines of the scale chain, the seeded walk
# from realize(random_tuple(2, 7)) to 3,000 segments
CHAIN_3000_DIGEST = "52263db3a88fab57094d6d5d459d632dbbbf8a388a0073617e2b667e08bcf032"


def test_a_walk_to_3000_segments_keeps_its_moves_and_its_analysis():
    """The scale chain, ten times the size of the long-chain workload: each
    step keeps the invariants, its move lines, size and crossings are
    pinned, and its kept analysis equals a fresh one field by field."""
    d = realize(random_tuple(2, 7))
    rng = random.Random(7)
    start, lines = invariants(d), []
    while len(analysis(d).records) < 3000:
        spec, d = random_move_applied(d, rng.randrange(10 ** 9))
        assert invariants(d) == start, spec.to_line()
        lines.append(spec.to_line())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CHAIN_3000_DIGEST
    assert (len(lines), sum(1 for _ in d.iter_segments()), len(crossings(d))) == (867, 3002, 694)
    kept, fresh = analysis(d), analysis(rebuilt(d))
    # the kept crossings, in no fixed order, are compared as the public tuple
    for name in [f.name for f in dataclasses.fields(kept) if f.name != "pairs"] + ["crossings"]:
        assert getattr(kept, name) == getattr(fresh, name), name


# ---------------------------------------------------------------------------
# the kept analysis is diagram.py's own
# ---------------------------------------------------------------------------

def private_imports(module, siblings=("diagram", "moves")):
    """{sibling module: the private names `module` imports from it}, for
    imports from the `siblings`."""
    found = {}
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in siblings:
            found.setdefault(node.module, set()).update(
                alias.name for alias in node.names if alias.name.startswith("_"))
    return found


def test_moves_reach_the_kept_analysis_only_through_the_splice_entry_points():
    """moves.py builds a splice, applies it, reads a valid diagram's records
    and gaps and asks whether chords certainly cross, all through diagram.py;
    normal_form.py reads the gaps only.  Neither knows the analysis layout or
    the scan helpers."""
    assert private_imports(moves_mod) == {
        "diagram": {"_Splice", "_splice_points", "_apply_splice", "_generic_analysis", "_key", "_segment_gaps",
                    "_certain_addition"}}
    # the splice keeps the vertex star: moves reads only the index terms of invariants
    assert private_imports(moves_mod, ("invariants",)) == {"invariants": {"_index_term"}}
    assert private_imports(normal_form) == {"diagram": {"_segment_gaps"}, "moves": set()}


def test_the_readers_take_one_star_and_one_crossing_order_from_diagram():
    """invariants.py reads the kept analysis, its order word among it,
    through the validity guard alone, and spells a parsed word by the
    canonical form that word is in; cli.py takes the same guard and the one
    function that orders the kept crossings.  Neither builds a second star
    or order."""
    assert private_imports(invariants_mod) == {"diagram": {"_canonical", "_generic_analysis"}}
    assert private_imports(cli_mod) == {"diagram": {"_generic_analysis", "_crossing_order"}, "moves": set()}
