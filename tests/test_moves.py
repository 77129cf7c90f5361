import hashlib
import random

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
    invariants,
    pt,
    random_edit,
    random_move,
    random_move_applied,
    signed_index,
    validate,
)
from rp2bouquet import moves as moves_mod
from rp2bouquet import realize
from rp2bouquet.diagram import (
    InvalidDiagram,
    _segment_records,
    _structural_violations,
    analysis,
    vertex_directions,
)
from rp2bouquet.geometry import rat
from rp2bouquet.normal_form import random_tuple


def locations(d):
    return sorted((c.x, c.y) for c in crossings(d))


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


def test_jiggle_blocked_by_vertex_order():
    # moving the corner (1/2, 0) up to (1/2, 1/4) turns loop 0's first
    # half-edge past both half-edges of the petal without meeting it
    square = LoopPath((Leg((pt(0, 0), pt("1/2", 0), pt("1/2", "-1/2"), pt(0, "-1/2"),
                            pt(0, 0))),))
    petal = LoopPath((Leg((pt(0, 0), pt("1/8", "1/40"), pt("1/8", "1/20"), pt(0, 0))),))
    d = BouquetDiagram(2, pt(0, 0), (square, petal))
    assert validate(d) == []
    with pytest.raises(MoveBlocked, match="reorder the vertex star"):
        apply_move(d, MoveSpec("Jiggle", 0, 0, 1, (rat(0), rat(1, 4))))


def test_subdivide_preserves_geometry(chord):
    d2 = apply_move(chord, MoveSpec("Subdivide", 0, 0, 0, (rat(1, 3),)))
    assert validate(d2) == []
    assert d2.loops[0].legs[0].points == (pt(0, 0), pt("1/3", 0), pt(1, 0))
    assert locations(d2) == locations(chord)
    assert invariants(d2) == invariants(chord)


def test_subdivide_requires_interior_point(chord):
    for t in (rat(0), rat(1), rat(2), rat(-1, 2)):
        with pytest.raises(MoveBlocked, match="interior"):
            apply_move(chord, MoveSpec("Subdivide", 0, 0, 0, (t,)))


def test_bad_target_indices(chord):
    with pytest.raises(MoveBlocked):
        apply_move(chord, MoveSpec("Subdivide", 3, 0, 0, (rat(1, 2),)))
    with pytest.raises(MoveBlocked):
        apply_move(chord, MoveSpec("Subdivide", 0, 0, 9, (rat(1, 2),)))


def test_moves_refuse_invalid_input():
    bad = BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((pt(0, 0), pt("9/8", 0),
                                                      pt("1/4", "1/4"), pt(0, 0))),)),))
    with pytest.raises(InvalidDiagram):
        apply_move(bad, MoveSpec("Subdivide", 0, 0, 1, (rat(1, 2),)))


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


# ---------------------------------------------------------------------------
# the incremental crossing update agrees with a from-scratch analysis
# ---------------------------------------------------------------------------

def rebuilt(d):
    return BouquetDiagram(d.n, d.vertex, d.loops)


def assert_kept_analysis_is_fresh(d):
    fresh = rebuilt(d)
    assert validate(fresh) == []
    assert crossings(fresh) == crossings(d)
    # the segment records and crossing locations carried from move to move
    assert analysis(d).records == tuple(_segment_records(d))
    assert analysis(d).locations == analysis(fresh).locations


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
                        splice = moves_mod._MOVE_BUILDERS[spec.kind](d, spec)
                    except MoveBlocked:
                        continue
                    d2 = moves_mod._spliced(d, splice)
                    _, _, new, p, q = moves_mod._splice_window(analysis(d).records, d2, splice.loop)
                    touched = moves_mod._structural_ok(d2, splice.loop, new[p:q])
                    full = _structural_violations(d2)
                    assert touched == (full[0] if full else None), spec.to_line()
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
    keys = moves_mod._segment_keys(d)
    for _ in range(3):
        key = keys[rng.randrange(len(keys))]
        window = moves_mod._free_window(d, rng, key)
        if window:
            center, half = window
            w = half / rng.choice((1, 2))  # random_edit takes half / 2
            specs.append(EditSpec("SingleKink", *key, (center, w, w * rat(rng.choice((-1, 1)), 4))))
    return specs


def outcome(d, spec):
    """("applied", dumps, crossings, records, locations) or ("blocked", message)."""
    try:
        d2 = apply_move(d, spec) if isinstance(spec, MoveSpec) else apply_edit(d, spec)
    except MoveBlocked as exc:
        return "blocked", str(exc)
    kept = analysis(d2)
    return "applied", dumps(d2), kept.crossings, kept.records, kept.locations


def test_contract_cap_keeps_every_decision(monkeypatch, chord):
    """Every spec gets the same decision, and an applied one the same diagram
    and kept analysis, with and without the cap of its builder."""
    def uncapped(build):
        def wrapped(d, spec):
            splice = build(d, spec)
            splice.cap = None
            return splice
        return wrapped

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
                table = moves_mod._MOVE_BUILDERS if isinstance(spec, MoveSpec) \
                    else moves_mod._EDIT_BUILDERS
                with monkeypatch.context() as m:
                    m.setitem(table, spec.kind, uncapped(table[spec.kind]))
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
# the splice window is derived from segment identity
# ---------------------------------------------------------------------------

def loop_segments(loop):
    return [(ki, si, leg.points[si], leg.points[si + 1])
            for ki, leg in enumerate(loop.legs) for si in range(len(leg.points) - 1)]


def identity_window(d, d2, loop):
    """Brute force: (replaced, changed, address map) by matching each new
    segment's (a, b) object pair against every old one."""
    old = {(id(a), id(b)): (k, s) for k, s, a, b in loop_segments(d.loops[loop])}
    new = {(id(a), id(b)): (k, s) for k, s, a, b in loop_segments(d2.loops[loop])}
    kept = old.keys() & new.keys()
    return ({old[x] for x in old.keys() - kept}, {new[x] for x in new.keys() - kept},
            {old[x]: new[x] for x in kept})


def window_specs(d, rng):
    """Seeded proposals, hostile and SingleKink specs, SeamReroute edits and
    a jiggle by zero (a new point equal in value to the old one)."""
    specs = [moves_mod._propose_move(d, rng) for _ in range(8)]
    specs = [s for s in specs if s] + hostile_specs(d, rng) + single_kink_specs(d, rng)
    loop, leg, seg = key = rng.choice(moves_mod._segment_keys(d))
    window = moves_mod._free_window(d, rng, key)
    if window:
        center, half = window
        uq = moves_mod._seam_u(d, rng, key, center)
        specs.append(EditSpec("SeamReroute", loop, leg, seg, (center, half, uq)))
    if len(d.loops[loop].legs[leg].points) > 2:
        specs.append(MoveSpec("Jiggle", loop, leg, 1, (rat(0), rat(0))))
    return specs


def test_splice_window_matches_segment_identity():
    """For every builder, the window found by the prefix and suffix scans
    replaces, re-examines and re-addresses exactly the segments that the
    brute-force identity match says, and the spliced records of a generic
    result equal freshly built ones."""
    builders = {**moves_mod._MOVE_BUILDERS, **moves_mod._EDIT_BUILDERS}
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
                d2 = moves_mod._spliced(d, splice)
                base = analysis(d).records
                window = moves_mod._splice_window(base, d2, splice.loop)
                records, changed, replaced, moved = moves_mod._splice_records(
                    base, splice.loop, window)
                want_replaced, want_changed, want_map = identity_window(d, d2, splice.loop)
                assert replaced == want_replaced, spec.to_line()
                assert {(r.leg, r.seg) for r in changed} == want_changed, spec.to_line()
                assert {k: moved.get(k, k) for k in want_map} == want_map, spec.to_line()
                assert moved.keys() <= want_map.keys(), spec.to_line()
                _, _, new, p, q = window
                if moves_mod._structural_ok(d2, splice.loop, new[p:q]) is None:
                    assert records == tuple(_segment_records(d2)), spec.to_line()
                kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    assert set(kinds) == set(builders) and min(kinds.values()) >= 50, kinds


def test_huge_jiggle_is_blocked_before_records_are_built(quad):
    # a point far outside the disk has no float box: the structural check
    # must block it first
    with pytest.raises(MoveBlocked, match="PointOutsideDisk"):
        apply_move(quad, MoveSpec("Jiggle", 0, 0, 1, (rat(10 ** 400), rat(0))))


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
