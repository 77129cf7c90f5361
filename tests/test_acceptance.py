"""Acceptance gate: the seven headline guarantees, each as one test.

Every test prints a single summary line (visible under ``pytest -s``) and
fails loudly otherwise.  Numbers follow the stated budgets: trial counts are
exact, the fuzz campaign must finish inside its two-minute allowance, and the
byte-stability hashes are frozen values computed once from the exact rational
pipeline (they are platform-independent by construction).
"""

import hashlib
import time
from itertools import permutations

from rp2bouquet import (
    CyclicWord,
    HalfEdge,
    InvariantTuple,
    crossings,
    dumps,
    enumerate_classes,
    equiv,
    invariants,
    loads,
    random_edit,
    random_move_applied,
    realize,
    signed_index,
)
from rp2bouquet.cli import render_svg, run_fuzz
from rp2bouquet.normal_form import random_tuple

SEED = 20260815


def sample_diagram(seed, max_moves=0):
    """Deterministic valid diagram: realized random tuple plus random moves."""
    n = 1 + (seed % 3)
    d = realize(random_tuple(n, seed))
    for k in range(max_moves and (seed % (max_moves + 1))):
        _, d = random_move_applied(d, seed * 101 + k)
    return d


# ---------------------------------------------------------------------------
# 1. invariance under random regular moves, at scale and on a time budget
# ---------------------------------------------------------------------------

def test_acceptance_1_fuzz_campaign_1000_trials():
    start = time.perf_counter()
    report = run_fuzz(seed=SEED, steps=20, trials=1000)
    elapsed = time.perf_counter() - start
    assert report.violations == [], report.violations[:1]
    assert report.ok and report.trials == 1000
    assert report.moves_applied == 20000
    assert elapsed < 120.0, f"fuzz campaign took {elapsed:.1f}s (budget 120s)"
    print(f"PASS 1: 1000/1000 trials x 20 moves preserve invariants in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. detours shift the signed index by exactly twice their sign parameter
# ---------------------------------------------------------------------------

def test_acceptance_2_detour_shifts_index_by_two_sigma():
    applied = 0
    signs = set()
    # seeds 1-2,603 give the 100 detours today; the bound turns a move that
    # can no longer apply into a failure instead of an endless loop
    for seed in range(1, 10_001):
        d = sample_diagram(seed, max_moves=2)
        spec, d2 = random_move_applied(d, seed * 7 + 3)
        if spec.kind != "Detour":
            continue
        sigma = int(spec.params[0])
        assert signed_index(d2, spec.loop) - signed_index(d, spec.loop) == 2 * sigma
        assert invariants(d2) == invariants(d)
        signs.add(sigma)
        applied += 1
        if applied == 100:
            break
    assert applied == 100, f"only {applied} detours applied over seeds 1-10,000"
    assert signs == {1, -1}
    print("PASS 2: 100/100 legal detours changed signed_index by exactly 2*sigma")


# ---------------------------------------------------------------------------
# 3. negative controls hit exactly the targeted invariant component
# ---------------------------------------------------------------------------

def test_acceptance_3_single_kink_flips_only_target_index_bit():
    for seed in range(200):
        d = sample_diagram(seed, max_moves=1)
        t = invariants(d)
        spec, out = random_edit(d, seed * 13 + 1, kind="SingleKink")
        t2 = invariants(out.diagram)
        assert out.created_self == 1 and out.parity_flip == 1
        assert t2.order == t.order and t2.h == t.h
        expected_w = tuple(b ^ (i == spec.loop) for i, b in enumerate(t.w))
        assert t2.w == expected_w
    print("PASS 3a: 200/200 single kinks flipped exactly the targeted index bit")


def test_acceptance_3_seam_reroute_flips_only_target_seam_bit():
    for seed in range(200):
        d = sample_diagram(seed + 1000, max_moves=1)
        t = invariants(d)
        spec, out = random_edit(d, seed * 13 + 5, kind="SeamReroute")
        t2 = invariants(out.diagram)
        assert t2.order == t.order
        expected_h = tuple(b ^ (i == spec.loop) for i, b in enumerate(t.h))
        assert t2.h == expected_h
        expected_w = tuple(b ^ (out.parity_flip * (i == spec.loop))
                           for i, b in enumerate(t.w))
        assert t2.w == expected_w
    print("PASS 3b: 200/200 seam reroutes flipped exactly the targeted seam bit")


# ---------------------------------------------------------------------------
# 4. enumeration is complete at desk scale and realization round-trips
# ---------------------------------------------------------------------------

def test_acceptance_4_enumeration_and_roundtrip():
    expected_counts = {1: 4, 2: 48, 3: 3840}
    for n, count in expected_counts.items():
        classes = enumerate_classes(n)
        assert len(classes) == len(set(classes)) == count
        symbols = [HalfEdge(i, inv) for i in range(n) for inv in (False, True)]
        brute = {CyclicWord.from_symbols(p) for p in permutations(symbols)}
        assert {t.order for t in classes} == brute
        assert count == len(brute) * 4 ** n
    for n in (1, 2):
        for t in enumerate_classes(n):
            assert invariants(realize(t)) == t
    for seed in range(100):
        t = random_tuple(3, seed)
        assert invariants(realize(t)) == t
    print("PASS 4: counts 4/48/3840 match brute force; realize/classify round-trips")


# ---------------------------------------------------------------------------
# 5. the index parity is orientation-independent and equals crossing parity
# ---------------------------------------------------------------------------

def test_acceptance_5_orientation_independence_500_diagrams():
    for seed in range(500):
        d = sample_diagram(seed, max_moves=3)
        t = invariants(d)
        cs = crossings(d)
        for i in range(d.n):
            plus = signed_index(d, i, 1)
            minus = signed_index(d, i, -1)
            assert plus == -minus
            raw = sum(1 for c in cs if c.loop_a == i and c.loop_b == i)
            assert t.w[i] == plus % 2 == minus % 2 == raw % 2
    print("PASS 5: 500/500 diagrams orientation-independent; parity matches raw count")


# ---------------------------------------------------------------------------
# 6. the equivalence decision agrees with tuple equality
# ---------------------------------------------------------------------------

def test_acceptance_6_equivalence_decision():
    for seed in range(100):
        n = 1 + (seed % 3)
        t1 = random_tuple(n, seed * 2)
        t2 = t1 if seed % 3 == 0 else random_tuple(n, seed * 2 + 1)
        assert equiv(realize(t1), realize(t2)) == (t1 == t2)
    for seed in range(100):
        d = sample_diagram(seed, max_moves=0)
        d2 = d
        for k in range(3):
            _, d2 = random_move_applied(d2, seed * 31 + k)
        assert equiv(d, d2)
    print("PASS 6: equiv(realize,realize) iff equal tuples; equiv survives move chains")


# ---------------------------------------------------------------------------
# 7. all golden outputs are byte-identical across runs
# ---------------------------------------------------------------------------

GOLDEN_SHA256 = {
    "enumerate_1": "4172991a511505845c635fb1a36812cb075e4fffb1fb806aded8cebd7e632720",
    "enumerate_2": "fec8eb1ff85a0f7e20e2f61f92cd2be257abd1bb717c9256bbd9ea1b08bf769c",
    "enumerate_3": "249f286150e27b9b77914cb89cd0cd18d007e22a949b788340dce1402155f1ce",
    "realize_1": "c79bd671632121c64df532713336a7ca7a6582f55d56f6450618108dceb72923",
    "svg": "32d0ecb3a67027b3c8820c3d21345895a153010e122167fb7e609ee7f9eee654",
}

# render_svg of each valid fixture in tests/data
FIXTURE_SVG_SHA256 = {
    "chord_kink.json": "4380c496fd8761c822225fb368b3671e6bbc79b8c3744eba08b4a6825889cfb8",
    "circle.json": "01f385c9b65f936b7f31e284c473f6a95d382574ae5336733701794846498601",
    "circle_after_moves.json": "45b9bb5193de03fe700030163f10fb14a1c88c089d1cc52804bbc2b600c37db0",
    "figure_eight.json": "2496c072662a39bdc2e490d54a1b6b9fa3ef957715f19d6d8d80035b3db28aa8",
    "seam_chord.json": "4cf73e25a5b83c162f88b9296f12df20f8d4cb3050adc7e3cf0df4aca671dd74",
    "three_loops.json": "37c87fab44ea792e50e743c9a47152c5676b2221f453bd10edf1564aafa38291",
    "two_loops.json": "b0bf73467203d0352d4bb60f96a1803d8224452de444a08f56a25db028c6c786",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_acceptance_7_byte_stable_golden_outputs(data_dir):
    for n in (1, 2, 3):
        text = "\n".join(t.text() for t in enumerate_classes(n)) + "\n"
        assert text == "\n".join(t.text() for t in enumerate_classes(n)) + "\n"
        assert _sha(text) == GOLDEN_SHA256[f"enumerate_{n}"]
    blob = "\n".join(dumps(realize(t)) for t in enumerate_classes(1)) + "\n"
    assert _sha(blob) == GOLDEN_SHA256["realize_1"]
    t = InvariantTuple.parse("order=e1,e2,e1^-1,e2^-1; h=10; w=01")
    svg = render_svg(realize(t))
    assert svg == render_svg(realize(t))
    assert _sha(svg) == GOLDEN_SHA256["svg"]
    for path in sorted(data_dir.glob("*.json")):
        if path.name in ("invalid_seam.json", "malformed.json"):
            continue
        text = path.read_text()
        assert dumps(loads(text)) == text
    print("PASS 7: enumeration, realization, SVG, and JSON round trips byte-identical")


def test_acceptance_7_fixture_svgs_are_pinned(data_dir):
    valid = [p for p in sorted(data_dir.glob("*.json")) if p.name not in ("invalid_seam.json", "malformed.json")]
    assert {p.name: _sha(render_svg(loads(p.read_text()))) for p in valid} == FIXTURE_SVG_SHA256
