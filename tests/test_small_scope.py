"""A small-scope exhaustive family: every one-loop, one-leg diagram with V at
the origin and two or three interior points on the grid {-1/2, -1/4, 0, 1/4,
1/2}^2 less the origin, 24^2 + 24^3 = 14,400 diagrams.  Degenerate
configurations (collinear runs, shared points, contacts at V) are common on
a grid, which is where exact code breaks."""

import itertools
import random
from collections import Counter

import pytest

from rp2bouquet import BouquetDiagram, Leg, LoopPath, crossings, invariants, pt, validate
from rp2bouquet import moves as moves_mod
from rp2bouquet.geometry import rat

from test_diagram import brute_force_crossings, normalize_engine, normalize_oracle
from test_moves import assert_dropped_only_if_blocked

V = pt(0, 0)
COORDS = [(x, y) for y in range(-2, 3) for x in range(-2, 3) if x or y]  # in quarters
GRID = [pt(rat(x, 4), rat(y, 4)) for x, y in COORDS]
# the grid's 8 symmetries (x, y) -> (±x, ±y), (±y, ±x) as permutations of its
# indices: each is a disk isometry that fixes V and maps the grid to itself
SYMMETRIES = [[COORDS.index((sx * x, sy * y) if keep else (sy * y, sx * x)) for x, y in COORDS]
              for sx in (1, -1) for sy in (1, -1) for keep in (True, False)]
# The Violation kinds the family reaches.  It cannot express the others:
# - BadLoopCount, VertexOutsideDisk: there is one loop, and V is the origin;
# - ShortLeg, LoopEndpointNotVertex: the one leg runs from V through 2-3 points to V;
# - PointOutsideDisk, PointOnCircle: the grid lies inside the disk, |p| <= 1/sqrt(2);
# - SeamPointOffCircle, SeamNotAntipodal, SeamRegularity, CoincidentSeamPoints and
#   AntipodalSeamPoints: a one-leg loop has no seam point;
# - NonTransversal, TriplePoint: the pair scan runs only on a structurally valid
#   diagram, and on a leg of at most four segments from V to V, an end point on a
#   segment not next to it folds the leg back (a Cusp) or puts two half-edges on
#   one ray from V (CodirectionalAtVertex); two crossings at one point X put X on
#   the two middle segments, which share a point, so they fold back too.
REACHED = {"RepeatedPoint", "Cusp", "CodirectionalAtVertex"}


def one_leg_family():
    """(indices into GRID of its interior points, diagram) for every diagram of
    the family, two interior points before three, each in lexicographic order."""
    for k in (2, 3):
        for idx in itertools.product(range(len(GRID)), repeat=k):
            yield idx, BouquetDiagram(1, V, (LoopPath((Leg((V, *(GRID[i] for i in idx), V)),)),))


@pytest.fixture(scope="module")
def family():
    family = dict(one_leg_family())
    assert len(family) == 14_400
    return family


@pytest.fixture(scope="module")
def valid(family):
    return [d for d in family.values() if not validate(d)]


def test_the_family_has_its_valid_diagrams_and_their_crossings(valid):
    assert len(valid) == 9_840
    for d in valid:
        assert normalize_engine(crossings(d)) == normalize_oracle(brute_force_crossings(d))


def test_the_family_reaches_exactly_the_kinds_it_can_express(family):
    assert {v.kind for d in family.values() for v in validate(d)} == REACHED


def test_each_symmetry_orbit_shares_its_kinds_and_invariants(family):
    """Grouped into orbits of the 8 symmetries, by the least image of each
    diagram's index tuple: every member of an orbit has the same multiset of
    validate kinds and, when valid, the same invariants."""
    orbits = {}
    for idx in family:
        orbits.setdefault(min(tuple(s[i] for i in idx) for s in SYMMETRIES), []).append(idx)
    # 80 orbits of diagrams that one symmetry besides the identity fixes
    assert Counter(map(len, orbits.values())) == {8: 1_760, 4: 80}
    for members in orbits.values():
        ds = [family[idx] for idx in members]
        assert len({tuple(sorted(v.kind for v in validate(d))) for d in ds}) == 1, members
        if not validate(ds[0]):
            assert len({invariants(d) for d in ds}) == 1, members


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
