import dataclasses
import gc
import hashlib
from itertools import groupby, permutations, product, starmap

import pytest

from rp2bouquet import (
    CyclicWord,
    HalfEdge,
    InvariantTuple,
    LimitExceeded,
    MAX_ENUM_N,
    MoveBlocked,
    RealizationError,
    classify,
    dumps,
    enumerate_classes,
    equiv,
    invariants,
    realize,
    validate,
)
from rp2bouquet import normal_form
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_table_matches_the_constructor(n):
    words = sorted({CyclicWord.from_symbols(p) for p in permutations(symbols_of(n))},
                   key=lambda word: word.symbols)
    bits = list(product((0, 1), repeat=n))
    reference = list(starmap(InvariantTuple, product(words, bits, bits)))
    classes = enumerate_classes(n)
    assert classes == reference
    assert enumerate_classes(n) is not classes
    for t, ref in zip(classes, reference):
        assert type(t) is InvariantTuple
        assert dataclasses.replace(t) == t
        assert hash(t) == hash(ref)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.w = ref.w


def test_class_table_bypass_guard():
    # the table sets the slots directly, skipping __init__: a new field or a
    # validating __post_init__ would be skipped silently
    assert [f.name for f in dataclasses.fields(InvariantTuple)] == ["order", "h", "w"]
    assert not hasattr(InvariantTuple, "__post_init__")


def test_enumerate_leaves_gc_settings_alone():
    def settings():
        return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()

    before = settings()
    enumerate_classes(4)
    assert settings() == before


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


@pytest.mark.parametrize("n,seed", [(9, 22), (10, 35), (10, 49), (16, 1)])
def test_realize_moves_petals_apart(monkeypatch, n, seed):
    # two h = 0 petals touch at every common scale of the petals, so these
    # realize only once the retries scale the petals apart: the first retry
    build = normal_form._build_base
    attempts = []

    def counted(t, n, attempt):
        attempts.append(attempt)
        return build(t, n, attempt)

    monkeypatch.setattr(normal_form, "_build_base", counted)
    t = random_tuple(n, seed)
    d = realize(t)
    assert attempts == [0, 1]
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


def test_realize_rejects_an_empty_word():
    # the word's own check raises MissingSymbol here, which realize reports
    with pytest.raises(RealizationError, match="^word must use each half-edge symbol exactly once$"):
        realize(InvariantTuple(CyclicWord(()), (), ()))


def test_realize_rejects_bad_bits():
    word = CyclicWord.parse("e1,e1^-1")
    for h, w in (((0, 0), (0,)), ((0,), (2,)), ((), (0,)), ((0,), (0, 1))):
        with pytest.raises(RealizationError, match="bits"):
            realize(InvariantTuple(word, h, w))


ODD_LOOP = InvariantTuple(CyclicWord.parse("e1,e1^-1"), (0,), (1,))


def test_realize_reports_a_kink_that_cannot_be_placed(monkeypatch):
    def blocked(d, spec):
        raise MoveBlocked("blocked on purpose")

    monkeypatch.setattr(normal_form, "apply_edit", blocked)
    with pytest.raises(RealizationError, match=r"^could not realize .*: "
                       "could not place a parity kink on loop 0$"):
        realize(ODD_LOOP)


def test_realize_reports_its_last_failure(monkeypatch):
    def fail(d, loop):
        raise RealizationError("parity flip failed on purpose")

    monkeypatch.setattr(normal_form, "_flip_parity", fail)
    with pytest.raises(RealizationError, match="^could not realize .*: parity flip failed on purpose$"):
        realize(ODD_LOOP)
    monkeypatch.undo()
    monkeypatch.setattr(normal_form, "invariants", lambda d: None)
    with pytest.raises(RealizationError, match=r"^could not realize .*: self-check failed \(attempt 79\)$"):
        realize(ODD_LOOP)


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
