"""A small-scope exhaustive family: every one-loop, one-leg diagram with V at
the origin and two or three interior points on the grid {-1/2, -1/4, 0, 1/4,
1/2}^2 less the origin, 24^2 + 24^3 = 14,400 diagrams.  Degenerate
configurations (collinear runs, shared points, contacts at V) are common on
a grid, which is where exact code breaks."""

import itertools
import random

import pytest

from rp2bouquet import BouquetDiagram, Leg, LoopPath, crossings, pt, validate
from rp2bouquet import moves as moves_mod
from rp2bouquet.geometry import rat

from test_diagram import brute_force_crossings, normalize_engine, normalize_oracle
from test_moves import assert_dropped_only_if_blocked

V = pt(0, 0)
GRID = [pt(rat(x, 4), rat(y, 4)) for y in range(-2, 3) for x in range(-2, 3) if x or y]


def one_leg_family():
    """Every diagram of the family, two interior points before three, each in
    the lexicographic order of its points."""
    for k in (2, 3):
        for points in itertools.product(GRID, repeat=k):
            yield BouquetDiagram(1, V, (LoopPath((Leg((V, *points, V)),)),))


@pytest.fixture(scope="module")
def valid():
    family = list(one_leg_family())
    assert len(family) == 14_400
    return [d for d in family if not validate(d)]


def test_the_family_has_its_valid_diagrams_and_their_crossings(valid):
    assert len(valid) == 9_840
    for d in valid:
        assert normalize_engine(crossings(d)) == normalize_oracle(brute_force_crossings(d))


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
