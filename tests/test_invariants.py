import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rp2bouquet import (
    BouquetDiagram,
    CyclicWord,
    DuplicateSymbol,
    HalfEdge,
    InvariantTuple,
    Leg,
    LoopPath,
    MismatchedLoopCount,
    MissingSymbol,
    canonical_cyclic_word,
    crossings,
    enumerate_classes,
    equiv,
    inv1,
    inv2,
    inv3,
    invariants,
    pt,
    rat,
    realize,
    signed_index,
    validate,
)
from rp2bouquet.geometry import Point, mat_apply
from rp2bouquet.normal_form import random_tuple


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
])
def test_tuple_text_errors(bad):
    with pytest.raises(ValueError):
        InvariantTuple.parse(bad)


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
    from rp2bouquet import random_move_applied
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


def test_mirror_image_same_invariants():
    for s in range(12):
        n = 1 + (s % 3)
        d = realize(random_tuple(n, 100 + s))
        mirrored = transform(d, lambda p: pt(p.x, -p.y))
        assert validate(mirrored) == []
        assert invariants(mirrored) == invariants(d)


def test_rotated_diagram_same_invariants():
    rot = ((rat(3, 5), rat(-4, 5)), (rat(4, 5), rat(3, 5)))  # exact rotation
    for s in range(12):
        n = 1 + (s % 3)
        d = realize(random_tuple(n, 200 + s))
        rotated = transform(d, lambda p: mat_apply(rot, p))
        assert validate(rotated) == []
        assert invariants(rotated) == invariants(d)


# ---------------------------------------------------------------------------
# equivalence decision
# ---------------------------------------------------------------------------

def test_equiv_reflexive_and_tuple_driven(quad, chord):
    assert equiv(quad, quad)
    assert not equiv(quad, chord)  # h differs


def test_equiv_rejects_loop_count_mismatch(quad, wedge):
    with pytest.raises(MismatchedLoopCount):
        equiv(quad, wedge)
