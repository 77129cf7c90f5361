import dataclasses
import random
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rp2bouquet import (
    BouquetDiagram,
    CyclicWord,
    DuplicateSymbol,
    EDIT_KINDS,
    HalfEdge,
    InvariantTuple,
    Leg,
    LoopPath,
    MismatchedLoopCount,
    MissingSymbol,
    MOVE_KINDS,
    MoveBlocked,
    MoveSpec,
    apply_edit,
    apply_move,
    canonical_cyclic_word,
    crossings,
    dumps,
    enumerate_classes,
    equiv,
    inv1,
    inv2,
    inv3,
    invariants,
    pt,
    random_move_applied,
    rat,
    realize,
    signed_index,
    validate,
)
from rp2bouquet import moves as moves_mod
from rp2bouquet.geometry import Point, circle_point, mat_apply
from rp2bouquet.normal_form import random_tuple

from test_moves import hostile_specs


def symbols_of(n):
    return [HalfEdge(i, inv) for i in range(n) for inv in (False, True)]


# ---------------------------------------------------------------------------
# half-edge symbols and cyclic words
# ---------------------------------------------------------------------------

def test_half_edge_text_roundtrip():
    for sym in symbols_of(3):
        assert HalfEdge.parse(str(sym)) == sym
    assert str(HalfEdge(0, False)) == "e1"
    assert str(HalfEdge(1, True)) == "e2^-1"


def test_symbol_order():
    assert sorted(symbols_of(2)) == [HalfEdge(0, False), HalfEdge(0, True),
                                     HalfEdge(1, False), HalfEdge(1, True)]


def test_canonical_word_worked_example():
    w = canonical_cyclic_word([HalfEdge(1, False), HalfEdge(0, False),
                               HalfEdge(1, True), HalfEdge(0, True)])
    assert str(w) == "e1,e2,e1^-1,e2^-1"


def test_word_rejects_duplicates_and_gaps():
    with pytest.raises(DuplicateSymbol):
        canonical_cyclic_word([HalfEdge(0, False), HalfEdge(0, False)])
    with pytest.raises(MissingSymbol):
        canonical_cyclic_word([HalfEdge(0, False), HalfEdge(1, True)])
    with pytest.raises(MissingSymbol, match="^a bouquet word has 2n symbols, got 3$"):
        CyclicWord.parse("e1,e1^-1,e2")


@st.composite
def words(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(symbols_of(n)))
    return tuple(perm)


@given(words())
def test_canonical_equals_brute_force_minimum(symbols):
    expected = min(
        cand
        for base in (symbols, tuple(reversed(symbols)))
        for r in range(len(base))
        for cand in [base[r:] + base[:r]]
    )
    assert canonical_cyclic_word(symbols).symbols == expected


def test_canonical_word_of_8000_loops_is_fast():
    symbols = symbols_of(8000)
    random.Random(8000).shuffle(symbols)
    start = time.perf_counter()
    w = canonical_cyclic_word(symbols)
    assert time.perf_counter() - start < 1.0
    assert w.symbols[0] == HalfEdge(0, False) and len(w.symbols) == 16000


@given(words(), st.integers(0, 7), st.booleans())
def test_canonical_invariant_under_rotation_and_reversal(symbols, r, flip):
    moved = symbols[r % len(symbols):] + symbols[:r % len(symbols)]
    if flip:
        moved = tuple(reversed(moved))
    assert canonical_cyclic_word(moved) == canonical_cyclic_word(symbols)


def test_word_text_roundtrip():
    w = CyclicWord.parse("e2,e1,e2^-1,e1^-1")
    assert CyclicWord.parse(str(w)) == w


# ---------------------------------------------------------------------------
# tuple text format
# ---------------------------------------------------------------------------

def test_tuple_text_roundtrip():
    t = InvariantTuple.parse("order=e1,e2,e1^-1,e2^-1; h=10; w=01")
    assert InvariantTuple.parse(t.text()) == t
    assert t.n == 2
    (enumerated,) = [c for c in enumerate_classes(2) if c.text() == t.text()]
    assert enumerated == t and hash(enumerated) == hash(t)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.h = (0, 0)


@pytest.mark.parametrize("bad", [
    "order=e1,e1^-1; h=0",
    "order=e1,e1^-1; h=2; w=0",
    "order=e1,e1^-1; h=00; w=0",
    "order=e1,e1; h=0; w=0",
    "h=0; w=0",
    "order=e1,e1^-1; h=1; w=0; h=0",
    "order=e1,e1^-1; h=0; w=0; bogus=7",
    "order=e1,e1^-1; h=0; w=0; junk",
])
def test_tuple_text_errors(bad):
    with pytest.raises(ValueError):
        InvariantTuple.parse(bad)


def test_tuple_text_skips_empty_chunks():
    assert InvariantTuple.parse(";order=e1,e1^-1;; h=1; w=0;") \
        == InvariantTuple.parse("order=e1,e1^-1; h=1; w=0")


# ---------------------------------------------------------------------------
# the three components on known diagrams
# ---------------------------------------------------------------------------

def test_chord_invariants(chord):
    assert invariants(chord).text() == "order=e1,e1^-1; h=1; w=0"
    assert signed_index(chord, 0) == 0


def test_quad_invariants(quad):
    assert invariants(quad).text() == "order=e1,e1^-1; h=0; w=0"


def test_wedge_word(wedge):
    assert str(inv1(wedge)) == "e1,e2,e1^-1,e2^-1"
    assert inv2(wedge) == (0, 0)
    assert inv3(wedge) == (0, 0)
    # the single crossing is between distinct loops, so both indices are 0
    assert signed_index(wedge, 0) == 0 and signed_index(wedge, 1) == 0


def test_inv2_counts_seam_passages():
    t = InvariantTuple.parse("order=e1,e2,e1^-1,e2^-1; h=10; w=00")
    d = realize(t)
    assert [len(loop.legs) for loop in d.loops] == [2, 1]
    assert inv2(d) == (1, 0)


def test_invalid_diagram_rejected_by_invariants():
    d = BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((pt(0, 0), pt("9/8", 0),
                                                    pt("1/4", "1/4"), pt(0, 0))),)),))
    from rp2bouquet import InvalidDiagram
    with pytest.raises(InvalidDiagram):
        invariants(d)


# ---------------------------------------------------------------------------
# signed index properties
# ---------------------------------------------------------------------------

def sample_diagrams(count, seed0=0):
    out = []
    s = seed0
    while len(out) < count:
        n = 1 + (s % 3)
        d = realize(random_tuple(n, s))
        _, d = random_move_applied(d, s)
        out.append(d)
        s += 1
    return out


def test_orientation_antisymmetry_sampled():
    for d in sample_diagrams(40):
        for i in range(d.n):
            plus = signed_index(d, i, 1)
            minus = signed_index(d, i, -1)
            assert plus == -minus
            assert plus % 2 == minus % 2 == inv3(d)[i]


def test_inv3_equals_crossing_parity_oracle():
    for d in sample_diagrams(40, seed0=1000):
        cs = crossings(d)
        for i in range(d.n):
            raw = sum(1 for c in cs if c.loop_a == i and c.loop_b == i)
            assert inv3(d)[i] == raw % 2


def test_signed_index_orientation_argument():
    d = realize(InvariantTuple.parse("order=e1,e1^-1; h=0; w=1"))
    with pytest.raises(ValueError):
        signed_index(d, 0, 0)
    with pytest.raises(IndexError):
        signed_index(d, 5)
    with pytest.raises(IndexError):
        signed_index(d, -1)


# ---------------------------------------------------------------------------
# symmetry: reflected and rotated diagrams carry the same invariants
# ---------------------------------------------------------------------------

def transform(d, f):
    loops = tuple(
        LoopPath(tuple(Leg(tuple(f(p) for p in leg.points)) for leg in loop.legs))
        for loop in d.loops
    )
    return BouquetDiagram(d.n, f(d.vertex), loops)


TURN = circle_point(rat(1, 2))  # (3/5, 4/5)
ROTATION = ((TURN.x, -TURN.y), (TURN.y, TURN.x))


def rotate(p):
    return mat_apply(ROTATION, p)


def reflect(p):
    return pt(p.x, -p.y)


def test_mirror_image_same_invariants():
    for s in range(12):
        n = 1 + (s % 3)
        d = realize(random_tuple(n, 100 + s))
        mirrored = transform(d, reflect)
        assert validate(mirrored) == []
        assert invariants(mirrored) == invariants(d)


def test_rotated_diagram_same_invariants():
    for s in range(12):
        n = 1 + (s % 3)
        d = realize(random_tuple(n, 200 + s))
        rotated = transform(d, rotate)
        assert validate(rotated) == []
        assert invariants(rotated) == invariants(d)


@pytest.fixture(scope="module")
def symmetry_cases():
    # every realized class with n <= 2, and six 20-move chains with n = 3
    cases = [realize(t) for n in (1, 2) for t in enumerate_classes(n)]
    for chain in range(6):
        d = realize(random_tuple(3, 300 + chain))
        for k in range(20):
            _, d = random_move_applied(d, 97 * chain + k)
        cases.append(d)
    return cases


def pinched(d):
    """d with loop 0's point 1 moved onto the midpoint of the middle segment
    of the last loop's last leg."""
    pts = d.loops[-1].legs[-1].points
    m = (len(pts) - 1) // 2
    mid = (pts[m] + pts[m + 1]).scale(rat(1, 2))
    legs = d.loops[0].legs
    first = Leg((legs[0].points[0], mid) + legs[0].points[2:])
    return BouquetDiagram(d.n, d.vertex, (LoopPath((first,) + legs[1:]),) + d.loops[1:])


def violation_kinds(d):
    return Counter(v.kind for v in validate(d))


@pytest.mark.parametrize("f,sign", [(rotate, 1), (reflect, -1)], ids=["rotation", "reflection"])
def test_isometries_commute_with_the_engine(symmetry_cases, f, sign):
    # isometries of the disk that fix the origin commute with the antipodal
    # map, so each exact answer must transform as the geometry does: crossing
    # parameters are kept, and the frame and the signed index keep their sign
    # under a rotation and flip under a reflection
    for d in symmetry_cases:
        image = transform(d, f)
        assert validate(image) == []
        assert invariants(image) == invariants(d)
        assert [(c.loop_a, c.loop_b, c.param_a, c.param_b, c.location, c.frame)
                for c in crossings(image)] == [
                   (c.loop_a, c.loop_b, c.param_a, c.param_b, f(c.location), sign * c.frame)
                   for c in crossings(d)]
        loops = range(d.n)
        assert [signed_index(image, i) for i in loops] == [sign * signed_index(d, i) for i in loops]
        # an invalid variant fails the same checks; their order may differ,
        # since the pair scan sweeps in x
        variant = pinched(d)
        kinds = violation_kinds(variant)
        assert kinds and violation_kinds(transform(variant, f)) == kinds


SEAM_PARAMS = {"Detour": (3, 4), "SeamReroute": (2,)}


def rotated_spec(spec):
    """The spec that does on the rotated diagram what spec does on d: a
    seam parameter u adds half-angles, u -> (u + 1/2) / (1 - u/2), and a
    jiggle's (dx, dy) turns; None when a seam point lands on (-1, 0)."""
    params = list(spec.params)
    if spec.kind == "Jiggle":
        turned = rotate(pt(*params))
        params = [turned.x, turned.y]
    for i in SEAM_PARAMS.get(spec.kind, ()):
        if params[i] == 2:
            return None
        params[i] = (params[i] + rat(1, 2)) / (1 - params[i] / 2)
    return dataclasses.replace(spec, params=tuple(params))


def reflected_spec(spec):
    """The spec that does on the reflected diagram what spec does on d: the
    reflection swaps left and right of a segment, so each curl side h (and
    a detour's sigma, which picks it) flips, as do the seam parameters and a
    jiggle's dy."""
    flipped = {"KinkPair": (3,), "SingleKink": (2,), "Detour": (0, 3, 4), "SeamReroute": (2,),
               "Jiggle": (1,)}.get(spec.kind, ())
    params = tuple(-p if i in flipped else p for i, p in enumerate(spec.params))
    return dataclasses.replace(spec, params=params)


def applied_or_none(d, spec):
    try:
        return (apply_move if isinstance(spec, MoveSpec) else apply_edit)(d, spec)
    except MoveBlocked:
        return None


@pytest.mark.parametrize("f,spec_image", [(rotate, rotated_spec), (reflect, reflected_spec)],
                         ids=["rotation", "reflection"])
def test_isometries_commute_with_the_moves(symmetry_cases, f, spec_image):
    # a spec and its image are accepted together, and their results agree
    outcomes = Counter()
    for k, d in enumerate(symmetry_cases):
        rng = random.Random(f"transformed-specs:{k}")
        specs = [moves_mod._propose_move(d, rng) for _ in range(8)]
        specs += [moves_mod._propose_edit(d, EDIT_KINDS, rng) for _ in range(2)]
        image = transform(d, f)
        for spec in [s for s in specs if s] + hostile_specs(d, rng):
            spec2 = spec_image(spec)
            if spec2 is None:
                continue
            d2, moved = applied_or_none(d, spec), applied_or_none(image, spec2)
            assert (d2 is None) == (moved is None), spec.to_line()
            if d2 is not None:
                assert dumps(moved) == dumps(transform(d2, f)), spec.to_line()
            outcomes[spec.kind, d2 is not None] += 1
    assert all(outcomes[kind, True] for kind in MOVE_KINDS + EDIT_KINDS), outcomes
    assert outcomes["Jiggle", False] and outcomes["Detour", False], outcomes


# ---------------------------------------------------------------------------
# equivalence decision
# ---------------------------------------------------------------------------

def test_equiv_reflexive_and_tuple_driven(quad, chord):
    assert equiv(quad, quad)
    assert not equiv(quad, chord)  # h differs


def test_equiv_rejects_loop_count_mismatch(quad, wedge):
    with pytest.raises(MismatchedLoopCount):
        equiv(quad, wedge)
