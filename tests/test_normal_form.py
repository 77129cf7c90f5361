import hashlib
from itertools import groupby, permutations

import pytest

from rp2bouquet import (
    CyclicWord,
    HalfEdge,
    InvariantTuple,
    LimitExceeded,
    MAX_ENUM_N,
    RealizationError,
    classify,
    dumps,
    enumerate_classes,
    equiv,
    invariants,
    realize,
    validate,
)
from rp2bouquet.normal_form import _class_count, random_tuple

# SHA-256 of the n = 4 enumeration text, one tuple per line
ENUMERATE_4_SHA256 = "16c6837266c038bf594fd9925a1dc28f4a2b8af0c8170a4b7bbe9ce690b94b62"


def symbols_of(n):
    return [HalfEdge(i, inv) for i in range(n) for inv in (False, True)]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(1, 4), (2, 48), (3, 3840)])
def test_class_counts(n, count):
    classes = enumerate_classes(n)
    assert len(classes) == count
    assert len(set(classes)) == count
    assert classes == sorted(classes, key=lambda t: (t.order.symbols, t.h, t.w))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_words_match_brute_force_canonicalization(n):
    brute = {CyclicWord.from_symbols(p) for p in permutations(symbols_of(n))}
    enumerated = {t.order for t in enumerate_classes(n)}
    assert enumerated == brute
    assert len(enumerate_classes(n)) == len(brute) * 4 ** n


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_classes(0)
    with pytest.raises(LimitExceeded):
        enumerate_classes(MAX_ENUM_N + 1)


def test_enumerate_largest_supported():
    classes = enumerate_classes(4)
    assert len(classes) == 645120 == _class_count(4)  # (2*4-1)!/2 * 4^4
    text = "\n".join(t.text() for t in classes) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_4_SHA256
    keys = [(t.order.symbols, t.h, t.w) for t in classes]
    assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, no duplicates
    # consecutive runs are the distinct words, since the keys strictly ascend
    words = [word for word, _ in groupby(classes, key=lambda t: t.order)]
    assert len(words) == 2520
    assert all(CyclicWord.from_symbols(word.symbols) == word for word in words)


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_realize_roundtrip_exhaustive(n):
    for t in enumerate_classes(n):
        d = realize(t)
        assert validate(d) == []
        assert classify(d) == t


def test_realize_roundtrip_sampled_n3():
    for seed in range(60):
        t = random_tuple(3, seed)
        d = realize(t)
        assert validate(d) == []
        assert classify(d) == t


@pytest.mark.parametrize("n,seed", [(9, 22), (10, 35), (10, 49)])
def test_realize_moves_petals_apart(n, seed):
    # two h = 0 petals touch at every common scale of the petals, so these
    # realize only once the retries scale the petals apart
    t = random_tuple(n, seed)
    d = realize(t)
    assert validate(d) == []
    assert classify(d) == t


def test_realize_deterministic():
    t = InvariantTuple.parse("order=e1,e2,e1^-1,e2^-1; h=10; w=11")
    assert dumps(realize(t)) == dumps(realize(t))


def test_realizations_of_distinct_tuples_are_distinct():
    classes = enumerate_classes(1)
    ds = [realize(t) for t in classes]
    for i, a in enumerate(ds):
        for j, b in enumerate(ds):
            assert equiv(a, b) == (i == j)


def test_classify_is_invariants(quad):
    assert classify(quad) == invariants(quad)


# ---------------------------------------------------------------------------
# rejected inputs
# ---------------------------------------------------------------------------

def test_realize_rejects_noncanonical_spelling():
    raw = CyclicWord((HalfEdge(0, True), HalfEdge(0, False)))
    with pytest.raises(RealizationError, match="canonical"):
        realize(InvariantTuple(raw, (0,), (0,)))


def test_realize_rejects_bad_symbols():
    raw = CyclicWord((HalfEdge(0, False), HalfEdge(0, False)))
    with pytest.raises(RealizationError, match="exactly once"):
        realize(InvariantTuple(raw, (0,), (0,)))


def test_realize_rejects_bad_bits():
    word = CyclicWord.parse("e1,e1^-1")
    for h, w in (((0, 0), (0,)), ((0,), (2,)), ((), (0,)), ((0,), (0, 1))):
        with pytest.raises(RealizationError, match="bits"):
            realize(InvariantTuple(word, h, w))


# ---------------------------------------------------------------------------
# random tuples
# ---------------------------------------------------------------------------

def test_random_tuple_deterministic_and_valid():
    for n in (1, 2, 3):
        for seed in (0, 1, 99):
            t = random_tuple(n, seed)
            assert t == random_tuple(n, seed)
            assert t.n == n
            assert CyclicWord.from_symbols(t.order.symbols) == t.order
            assert all(b in (0, 1) for b in t.h + t.w)


def test_random_tuple_covers_classes():
    seen = {random_tuple(1, s) for s in range(200)}
    assert seen == set(enumerate_classes(1))
