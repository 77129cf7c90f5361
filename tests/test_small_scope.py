"""Four small-scope exhaustive families, with V at the origin and interior
points on the grid {-1/2, -1/4, 0, 1/4, 1/2}^2 less the origin.

* One loop, one leg, two or three interior points: 24^2 + 24^3 = 14,400
  diagrams.
* One loop, two legs V -> p -> q and -q -> p' -> V through one of the 12
  rational unit-circle points q with denominator 1 or 5, and grid points p
  and p': 12 * 24^2 = 6,912 diagrams.
* Two loops of two legs each, V -> p -> q and -q -> s -> V, through any two
  of the 12 circle points q: 12^2 = 144 diagrams.  Each loop's p is fixed and
  its s is the reflected exit step from -q, so only the seam table, which
  compares the two seam exits, can fail.
* Three loops: the fixed one-leg triangles V -> (1/2, 0) -> (0, 1/2) -> V and
  V -> (1/2, 1/2) -> (-1/2, 1/4) -> V, valid together with 3 crossings, and
  a third V -> p -> q -> V for grid points p and q: 24^2 = 576 diagrams.
  The third loop can touch the triangles' segments and run through their
  crossings, so this family reaches the pair scan's kinds.

Degenerate configurations (collinear runs, shared points, contacts at V,
misaligned seam joints) are common on a grid, which is where exact code
breaks."""

import itertools
import random
from collections import Counter

import pytest

from rp2bouquet import BouquetDiagram, Leg, LoopPath, MoveBlocked, apply_move, crossings, invariants, pt, validate
from rp2bouquet import moves as moves_mod
from rp2bouquet import random_move_applied, realize
from rp2bouquet.diagram import _apply_splice, _ray, _star
from rp2bouquet.geometry import mat_apply, rat, seam_reflection
from rp2bouquet.normal_form import random_tuple

from test_diagram import brute_force_crossings, normalize_engine, normalize_oracle
from test_moves import (VERDICT_CATEGORIES, assert_dropped_only_if_blocked, assert_gaps_tile_each_segment,
                        assert_kept_analysis_is_fresh, assert_verdicts_agree, hostile_specs, single_kink_specs)

V = pt(0, 0)
COORDS = [(x, y) for y in range(-2, 3) for x in range(-2, 3) if x or y]  # in quarters
GRID = [pt(rat(x, 4), rat(y, 4)) for x, y in COORDS]
CIRCLE_COORDS = [(5, 0), (0, 5), (-5, 0), (0, -5)] + [
    (sx * a, sy * b) for a, b in ((3, 4), (4, 3)) for sx in (1, -1) for sy in (1, -1)]  # in fifths
CIRCLE = [pt(rat(x, 5), rat(y, 5)) for x, y in CIRCLE_COORDS]


def symmetries(coords):
    """The grid's 8 symmetries (x, y) -> (±x, ±y), (±y, ±x) as permutations
    of the indices of coords, a list they map to itself: each is a disk
    isometry that fixes V and commutes with the antipodal map."""
    return [[coords.index((sx * x, sy * y) if keep else (sy * y, sx * x)) for x, y in coords]
            for sx in (1, -1) for sy in (1, -1) for keep in (True, False)]


SYMMETRIES = symmetries(COORDS)
CIRCLE_SYMMETRIES = symmetries(CIRCLE_COORDS)
# The Violation kinds the one-leg family reaches.  It cannot express the others:
# - BadLoopCount, VertexOutsideDisk: there is one loop, and V is the origin;
# - ShortLeg, LoopEndpointNotVertex: the one leg runs from V through 2-3 points to V;
# - PointOutsideDisk, PointOnCircle: the grid lies inside the disk, |p| <= 1/sqrt(2);
# - SeamPointOffCircle, SeamNotAntipodal, SeamRegularity, CoincidentSeamPoints and
#   AntipodalSeamPoints: a one-leg loop has no seam point;
# - NonTransversal, TriplePoint: the pair scan runs only on a structurally valid
#   diagram, and on a leg of at most four segments from V to V, an end point on a
#   segment not next to it folds the leg back (a Cusp) or puts two half-edges on
#   one ray from V (CodirectionalAtVertex); two crossings at one point X put X on
#   the two middle segments, which share a point, so they fold back too.  The
#   three-loop family reaches both.
REACHED = {"RepeatedPoint", "Cusp", "CodirectionalAtVertex"}
# The kinds the two-leg family reaches.  It cannot express the others:
# - BadLoopCount, VertexOutsideDisk, PointOutsideDisk, PointOnCircle: as above;
# - ShortLeg, LoopEndpointNotVertex: each leg has three points, the first leg's
#   first and the second leg's last being V;
# - RepeatedPoint: p and p' are not V, and grid points are not on the circle;
# - SeamPointOffCircle, SeamNotAntipodal: q is on the circle, the second leg
#   starts at -q;
# - CoincidentSeamPoints, AntipodalSeamPoints: they compare two seam exits, and
#   the loop has one (the two-exit family reaches both);
# - NonTransversal, TriplePoint: the pair scan runs only on a structurally valid
#   diagram, where SeamRegularity puts -q -> p' on the mirror image of the line
#   through p and q in the line L through V normal to q.  So a touch puts V
#   inside a segment (a Cusp at p or p'), p' on V -> p or p on p' -> V
#   (CodirectionalAtVertex), or p' inside p -> q or p inside -q -> p', and then
#   on L, where no grid point lies inside such a segment; among four segments,
#   two crossings at one point need a touch.  The three-loop family reaches both.
TWO_LEG_REACHED = {"SeamRegularity", "Cusp", "CodirectionalAtVertex"}
# The kinds the three-loop family reaches.  It cannot express the others:
# - BadLoopCount, VertexOutsideDisk, PointOutsideDisk, PointOnCircle: as above;
# - ShortLeg, LoopEndpointNotVertex: each loop's one leg runs from V through two
#   points to V;
# - SeamPointOffCircle, SeamNotAntipodal, SeamRegularity, CoincidentSeamPoints and
#   AntipodalSeamPoints: a one-leg loop has no seam point.
THREE_LOOP_REACHED = {"RepeatedPoint", "Cusp", "CodirectionalAtVertex", "NonTransversal", "TriplePoint"}
TRIANGLES = (LoopPath((Leg((V, pt("1/2", 0), pt(0, "1/2"), V)),)),
             LoopPath((Leg((V, pt("1/2", "1/2"), pt("-1/2", "1/4"), V)),)))


def one_leg_family():
    """(indices into GRID of its interior points, diagram) for every diagram of
    the family, two interior points before three, each in lexicographic order."""
    for k in (2, 3):
        for idx in itertools.product(range(len(GRID)), repeat=k):
            yield idx, BouquetDiagram(1, V, (LoopPath((Leg((V, *(GRID[i] for i in idx), V)),)),))


def two_leg_family():
    """((index of p in GRID, of q in CIRCLE, of p' in GRID), diagram) for every
    diagram of the family."""
    for k, q in enumerate(CIRCLE):
        for i, j in itertools.product(range(len(GRID)), repeat=2):
            yield (i, k, j), BouquetDiagram(1, V, (LoopPath((Leg((V, GRID[i], q)), Leg((-q, GRID[j], V)))),))


# The first interior point of each loop in the two-exit family.  Neither lies on
# a line through V and one of the 12 circle points, so no leg folds back at it.
EXIT_P = (pt("1/4", "1/4"), pt("-1/2", "1/4"))


def exit_loop(p, q):
    """V -> p -> q, then -q -> s -> V for s = -q + M(q)(q - p) / 8 inside the
    disk, so that the joint is regular (see seam_reflection)."""
    s = -q + mat_apply(seam_reflection(q), q - p).scale(rat(1, 8))
    return LoopPath((Leg((V, p, q)), Leg((-q, s, V))))


def two_exit_family():
    """((index in CIRCLE of loop 0's q, of loop 1's), diagram) for every
    diagram of the family."""
    for k, m in itertools.product(range(len(CIRCLE)), repeat=2):
        yield (k, m), BouquetDiagram(2, V, (exit_loop(EXIT_P[0], CIRCLE[k]), exit_loop(EXIT_P[1], CIRCLE[m])))


def three_loop_family():
    """((index of p in GRID, of q in GRID), diagram) for every diagram of the
    family."""
    for i, j in itertools.product(range(len(GRID)), repeat=2):
        yield (i, j), BouquetDiagram(3, V, (*TRIANGLES, LoopPath((Leg((V, GRID[i], GRID[j], V)),))))


@pytest.fixture(scope="module")
def family():
    family = dict(one_leg_family())
    assert len(family) == 14_400
    return family


@pytest.fixture(scope="module")
def valid(family):
    return [d for d in family.values() if not validate(d)]


@pytest.fixture(scope="module")
def two_leg():
    family = dict(two_leg_family())
    assert len(family) == 6_912
    return family


@pytest.fixture(scope="module")
def two_leg_valid(two_leg):
    return [d for d in two_leg.values() if not validate(d)]


@pytest.fixture(scope="module")
def three_loop():
    family = dict(three_loop_family())
    assert len(family) == 576
    return family


@pytest.fixture(scope="module")
def three_loop_valid(three_loop):
    return [d for d in three_loop.values() if not validate(d)]


def assert_walk_and_moves(valid, tally) -> int:
    """The first two proposals on each valid diagram: every one a walk drops
    unbuilt is blocked, and each that applies keeps the invariants and a
    kept analysis equal to a fresh one.  Returns the count applied."""
    applied = 0
    for seed, d in enumerate(valid):
        rng = random.Random(seed)
        specs = [s for s in (moves_mod._propose_move(d, rng) for _ in range(2)) if s]
        assert_dropped_only_if_blocked(d, specs, tally)
        for spec in specs:
            try:
                d2 = apply_move(d, spec)
            except MoveBlocked:
                continue
            assert invariants(d2) == invariants(d), spec.to_line()
            assert_kept_analysis_is_fresh(d2)
            applied += 1
    return applied


def assert_orbits_share_kinds_and_invariants(family, image) -> Counter:
    """Groups the family into orbits of the 8 symmetries, by the least image
    image(n, idx) of each diagram's index tuple under symmetry n: every
    member of an orbit has the same multiset of validate kinds and, when
    valid, the same invariants.  Returns the count of orbits of each size."""
    orbits = {}
    for idx in family:
        orbits.setdefault(min(image(n, idx) for n in range(8)), []).append(idx)
    for members in orbits.values():
        ds = [family[idx] for idx in members]
        assert len({tuple(sorted(v.kind for v in validate(d))) for d in ds}) == 1, members
        if not validate(ds[0]):
            assert len({invariants(d) for d in ds}) == 1, members
    return Counter(map(len, orbits.values()))


def test_the_family_has_its_valid_diagrams_and_their_crossings(valid):
    assert len(valid) == 9_840
    for d in valid:
        assert normalize_engine(crossings(d)) == normalize_oracle(brute_force_crossings(d))
        assert_gaps_tile_each_segment(d)


def test_the_family_reaches_exactly_the_kinds_it_can_express(family):
    assert {v.kind for d in family.values() for v in validate(d)} == REACHED


def test_each_symmetry_orbit_shares_its_kinds_and_invariants(family):
    sizes = assert_orbits_share_kinds_and_invariants(family, lambda n, idx: tuple(SYMMETRIES[n][i] for i in idx))
    # 80 orbits of diagrams that one symmetry besides the identity fixes
    assert sizes == {8: 1_760, 4: 80}


def test_the_walk_drops_only_blocked_proposals_on_the_family(valid):
    """The first two proposals on each valid diagram: every one a walk drops
    unbuilt is blocked, and each rule fires."""
    tally = {}
    for seed, d in enumerate(valid):
        rng = random.Random(seed)
        specs = [moves_mod._propose_move(d, rng) for _ in range(2)]
        assert_dropped_only_if_blocked(d, [s for s in specs if s], tally)
    assert min(tally.get(rule, 0) for rule in ("Detour", "outside", "strand")) >= 5, tally
    assert tally["dropped"] >= 0.85 * tally["blocked"], tally


def test_the_two_leg_family_has_its_valid_diagrams_and_their_crossings(two_leg_valid):
    assert Counter(len(crossings(d)) for d in two_leg_valid) == {0: 96, 3: 32}
    for d in two_leg_valid:
        assert normalize_engine(crossings(d)) == normalize_oracle(brute_force_crossings(d))
        assert_gaps_tile_each_segment(d)


def test_the_two_leg_family_reaches_exactly_the_kinds_it_can_express(two_leg):
    assert {v.kind for d in two_leg.values() for v in validate(d)} == TWO_LEG_REACHED


def test_each_two_leg_orbit_shares_its_kinds_and_invariants(two_leg):
    """A symmetry maps p, q and p' alike, so it maps each diagram of the family
    to one of the family."""
    sizes = assert_orbits_share_kinds_and_invariants(
        two_leg, lambda n, idx: (SYMMETRIES[n][idx[0]], CIRCLE_SYMMETRIES[n][idx[1]], SYMMETRIES[n][idx[2]]))
    # 16 orbits of diagrams that one symmetry besides the identity fixes
    assert sizes == {8: 856, 4: 16}


def test_the_walk_and_its_moves_on_the_two_leg_family(two_leg_valid):
    tally = {}
    applied = assert_walk_and_moves(two_leg_valid, tally)
    assert min(tally.get(rule, 0) for rule in ("Detour", "outside", "strand")) >= 5, tally
    assert applied >= 100, (applied, tally)


def test_the_two_exit_family_reaches_the_seam_table_kinds_and_no_other():
    """A diagram of the family is invalid exactly when its two seam exits
    coincide or are antipodal, and then the seam table reports just that;
    the valid ones have the crossings of the brute-force oracle, and the
    walk and its moves keep their contracts on them."""
    family = dict(two_exit_family())
    assert len(family) == 144
    for (k, m), d in family.items():
        kinds = [v.kind for v in validate(d)]
        if CIRCLE[k] == CIRCLE[m]:
            assert kinds == ["CoincidentSeamPoints"], (k, m)
        elif CIRCLE[k] == -CIRCLE[m]:
            assert kinds == ["AntipodalSeamPoints"], (k, m)
        else:
            assert kinds == [], (k, m)
            assert normalize_engine(crossings(d)) == normalize_oracle(brute_force_crossings(d))
            assert_gaps_tile_each_segment(d)
    valid = [d for d in family.values() if not validate(d)]
    assert assert_walk_and_moves(valid, {}) >= 50


def test_the_three_loop_family_has_its_valid_diagrams_and_their_crossings(three_loop_valid):
    assert len(three_loop_valid) == 222
    for d in three_loop_valid:
        assert normalize_engine(crossings(d)) == normalize_oracle(brute_force_crossings(d))
        assert_gaps_tile_each_segment(d)


def test_the_three_loop_family_reaches_exactly_the_kinds_it_can_express(three_loop):
    reached = Counter(kind for d in three_loop.values() for kind in {v.kind for v in validate(d)})
    assert set(reached) == THREE_LOOP_REACHED
    assert (reached["NonTransversal"], reached["TriplePoint"]) == (14, 12), reached


def test_the_walk_and_its_moves_on_the_three_loop_family(three_loop_valid):
    """As on the two-leg family.  A FingerPush here seldom puts a finger
    point outside the disk (once in this family), so the outside rule gets
    no floor."""
    tally = {}
    applied = assert_walk_and_moves(three_loop_valid, tally)
    assert min(tally.get(rule, 0) for rule in ("Detour", "strand")) >= 5, tally
    assert tally["dropped"] >= 0.85 * tally["blocked"], tally
    assert applied >= 200, (applied, tally)


def test_every_family_verdict_matches_the_from_scratch_reference(family, two_leg_valid, three_loop_valid):
    """The first proposal on every valid diagram of the two-leg, two-exit and
    three-loop families, and of the one-leg family on one valid diagram per
    symmetry orbit (the least index tuple), gets the verdict of
    reference_verdict; every category but persistence fires (no proposal
    window holds a crossing)."""
    orbits = {min(tuple(SYMMETRIES[n][i] for i in idx) for n in range(8)) for idx in family}
    one_leg = [family[idx] for idx in sorted(orbits) if not validate(family[idx])]
    two_exit = [d for _, d in two_exit_family() if not validate(d)]
    tally = {}
    for valid in (one_leg, two_leg_valid, two_exit, three_loop_valid):
        for seed, d in enumerate(valid):
            rng = random.Random(seed)
            assert_verdicts_agree(d, [s for s in [moves_mod._propose_move(d, rng)] if s], tally)
    assert len(one_leg) == 1_230
    assert set(tally) == set(VERDICT_CATEGORIES) - {"persistence"} | {"applied"}, tally


def rays(d):
    """Each half-edge at V with the ray of its direction."""
    return [(h, _ray(v)) for h, v in _star(d)]


def assert_templates_keep_the_star(d, specs, reached):
    """Each spec whose splice reaches its loop's first or last segment leaves
    every half-edge's ray as it is, applied or not; reached counts by kind the
    applied ones."""
    for spec in specs:
        try:
            splice = moves_mod._BUILDERS[spec.kind][0](d, spec)
        except MoveBlocked:
            continue
        legs = splice.d2.loops[splice.loop].legs
        if not any(k == 0 and segs.start == 0 or k == len(legs) - 1 and segs.stop == len(legs[k].points) - 1
                   for k, segs in splice.new):
            continue
        assert rays(splice.d2) == rays(d), spec.to_line()
        try:
            _apply_splice(d, splice)
        except MoveBlocked:
            continue
        reached[spec.kind] += 1


def test_only_a_jiggle_turns_a_half_edge(valid, two_leg_valid, three_loop_valid):
    """The precondition of the splice's star rule: a template starts and ends
    on its target segment, so every move and edit kind but Jiggle keeps the
    direction of each half-edge at V, on seeded chains' proposals, hostile
    specs and the small-scope families; each kind reaches V and applies."""
    reached = Counter()

    def specs(d, rng, moves):
        edits = [moves_mod._propose_edit(d, moves_mod.EDIT_KINDS, rng) for _ in range(2)]
        found = [moves_mod._propose_move(d, rng) for _ in range(moves)] + edits
        return [s for s in found + hostile_specs(d, rng) + single_kink_specs(d, rng) if s and s.kind != "Jiggle"]

    for seed in range(6):
        rng = random.Random(f"star-kept:{seed}")
        d = realize(random_tuple(rng.choice((1, 2, 3)), rng.randrange(10 ** 9)))
        for _ in range(12):
            assert_templates_keep_the_star(d, specs(d, rng, 8), reached)
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
    for seed, d in enumerate(valid[::8] + two_leg_valid + three_loop_valid):
        assert_templates_keep_the_star(d, specs(d, random.Random(seed), 2), reached)
    assert set(reached) == set(moves_mod.MOVE_KINDS + moves_mod.EDIT_KINDS) - {"Jiggle"}, reached
