import copy
import dataclasses
import hashlib
import io
import json
import random
import runpy
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rp2bouquet import (
    MAX_REALIZE_N,
    BouquetDiagram,
    Crossing,
    Exhausted,
    InvalidDiagram,
    InvariantTuple,
    Leg,
    LoopPath,
    crossings,
    dumps,
    inv3,
    invariants,
    loads,
    pt,
    random_move_applied,
    random_tuple,
    rat,
    realize,
    validate,
)
from rp2bouquet import cli as cli_mod
from rp2bouquet import diagram as diagram_mod
from rp2bouquet.normal_form import _flip_parity
from rp2bouquet.cli import main, render_svg, run_fuzz, run_replay
from rp2bouquet.diagram import analysis
from conftest import reference_svg
from test_normal_form import ENUMERATE_4_SHA256


def run(args):
    buf = io.StringIO()
    code = main([str(a) for a in args], buf)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok(data_dir):
    code, out = run(["validate", data_dir / "circle.json"])
    assert code == 0 and out == "OK\n"


def test_the_package_runs_as_a_program(data_dir, monkeypatch, capsys):
    """`python -m rp2bouquet validate`, in-process: __main__ exits with main's code."""
    monkeypatch.setattr(sys, "argv", ["rp2bouquet", "validate", str(data_dir / "circle.json")])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("rp2bouquet", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "OK\n"


def test_validate_reports_violations(data_dir):
    code, out = run(["validate", data_dir / "invalid_seam.json"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "VIOLATION: SeamPointOffCircle loop=0 leg=0 segment=1"
    assert all(line.startswith("VIOLATION: ") for line in lines)


@pytest.mark.parametrize("verb", ["invariants", "render-svg"])
def test_verbs_print_violations_of_invalid_input(data_dir, verb):
    path = data_dir / "invalid_seam.json"
    assert run([verb, path]) == run(["validate", path])


def test_validate_malformed_json(data_dir):
    code, out = run(["validate", data_dir / "malformed.json"])
    assert code == 2 and out.startswith("ERROR: not valid JSON")


def test_validate_missing_file(data_dir):
    code, out = run(["validate", data_dir / "no_such_file.json"])
    assert code == 2 and out.startswith("ERROR: cannot read")


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 50_000], ids=["lists", "objects"])
def test_validate_deep_nesting(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out = run(["validate", path])
    assert code == 2 and out.startswith("ERROR: not valid JSON: maximum recursion depth")


def test_validate_int_past_digit_limit(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"n":1,"vertex":[' + "7" * 5000 + ',1,0,1],"loops":[]}')
    code, out = run(["validate", path])
    assert code == 2 and out.startswith("ERROR: not valid JSON: Exceeds the limit")


@pytest.mark.parametrize("old,new", [('"n":1', '"n":true'), ("[0,1,0,1]", "[false,1,0,1]"),
                                     ("[1,2,0,1]", "[1,2,true,1]")])
def test_validate_rejects_booleans(data_dir, tmp_path, old, new):
    text = (data_dir / "circle.json").read_text()
    assert old in text
    path = tmp_path / "bools.json"
    path.write_text(text.replace(old, new, 1))
    code, out = run(["validate", path])
    assert code == 2 and out.startswith("ERROR: ")


FIXTURES = ["circle.json", "chord_kink.json", "invalid_seam.json", "three_loops.json"]
# stand-ins spliced into the text after json.dumps: an int of 4,000 digits
# (parsed), one of 5,000 (past the digit limit) and 50,000 nested lists
BIG, HUGE, DEEP = "@big@", "@huge@", "@deep@"


def json_paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from json_paths(value, prefix + (key,))


@settings(max_examples=150, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(FIXTURES), data=st.data())
def test_hostile_fixture_mutations_never_crash(data_dir, tmp_path, name, data):
    obj = json.loads((data_dir / name).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(json_paths(obj))))
        replacement = data.draw(st.one_of(
            st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30), st.booleans(), st.floats(),
            st.sampled_from([BIG, HUGE, DEEP, None, {}, [], "e1", "delete"]),
            st.lists(st.integers(-3, 3), max_size=5)))
        if not path:
            obj = replacement
            continue
        *head, last = path
        parent = obj
        for key in head:
            parent = parent[key]
        if replacement == "delete":
            del parent[last]
        else:
            parent[last] = replacement
    text = json.dumps(obj).replace(f'"{BIG}"', "7" * 4000).replace(f'"{HUGE}"', "9" * 5000)
    text = text.replace(f'"{DEEP}"', "[" * 50_000 + "]" * 50_000)
    file = tmp_path / "mutated.json"
    file.write_text(text)
    code, _ = run(["validate", file])
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# invariants / equiv
# ---------------------------------------------------------------------------

GOLDEN_TUPLES = {
    "circle.json": "order=e1,e1^-1; h=0; w=0",
    "figure_eight.json": "order=e1,e1^-1; h=0; w=1",
    "seam_chord.json": "order=e1,e1^-1; h=1; w=0",
    "chord_kink.json": "order=e1,e1^-1; h=1; w=1",
    "two_loops.json": "order=e1,e2,e1^-1,e2^-1; h=00; w=00",
    "three_loops.json": "order=e1,e2,e3,e1^-1,e2^-1,e3^-1; h=010; w=001",
    "circle_after_moves.json": "order=e1,e1^-1; h=0; w=0",
}


@pytest.mark.parametrize("name,text", sorted(GOLDEN_TUPLES.items()))
def test_invariants_golden(data_dir, name, text):
    code, out = run(["invariants", data_dir / name])
    assert code == 0 and out == text + "\n"


def test_equiv_after_moves(data_dir):
    code, out = run(["equiv", data_dir / "circle.json", data_dir / "circle_after_moves.json"])
    assert (code, out) == (0, "EQUIVALENT\n")


@pytest.mark.parametrize("other,expected", [
    ("figure_eight.json", "DISTINCT (w)\n"),
    ("seam_chord.json", "DISTINCT (h)\n"),
    ("chord_kink.json", "DISTINCT (h,w)\n"),
])
def test_equiv_distinct_components(data_dir, other, expected):
    code, out = run(["equiv", data_dir / "circle.json", data_dir / other])
    assert (code, out) == (0, expected)


def test_equiv_loop_count_mismatch(data_dir):
    code, out = run(["equiv", data_dir / "circle.json", data_dir / "two_loops.json"])
    assert code == 1
    assert out == "ERROR: MismatchedLoopCount: cannot compare bouquets of 1 and 2 loops\n"


def test_equiv_rejects_invalid_operand(data_dir):
    code, out = run(["equiv", data_dir / "circle.json", data_dir / "invalid_seam.json"])
    assert code == 1 and out.startswith("VIOLATION: SeamPointOffCircle")


# ---------------------------------------------------------------------------
# realize / enumerate
# ---------------------------------------------------------------------------

def test_realize_roundtrips_through_files(tmp_path):
    text = "order=e1,e2,e1^-1,e2^-1; h=10; w=01"
    out_path = tmp_path / "d.json"
    code, out = run(["realize", text, "--out", out_path])
    assert code == 0 and out == ""
    code, out = run(["invariants", out_path])
    assert code == 0 and out == text + "\n"


def test_realize_stdout_is_loadable():
    code, out = run(["realize", "order=e1,e1^-1; h=1; w=1"])
    assert code == 0
    d = loads(out)
    assert d.n == 1


def test_realize_out_into_missing_directory(tmp_path):
    code, out = run(["realize", "order=e1,e1^-1; h=0; w=0", "--out", tmp_path / "no" / "x.json"])
    assert code == 2 and out.startswith("ERROR: ") and "No such file or directory" in out


def test_realize_parse_error():
    code, out = run(["realize", "order=e1,e1; h=0; w=0"])
    assert code == 2 and out.startswith("ERROR: ")


def test_realize_rejects_a_repeated_key():
    code, out = run(["realize", "order=e1,e1^-1; h=1; w=0; h=0"])
    assert (code, out) == (2, "ERROR: h given twice\n")


def test_realize_over_cap_exits_1():
    n = MAX_REALIZE_N + 1
    word = ",".join([f"e{i}" for i in range(1, n + 1)] + [f"e{i}^-1" for i in range(1, n + 1)])
    code, out = run(["realize", f"order={word}; h={'0' * n}; w={'1' * n}"])
    assert code == 1
    assert out == f"ERROR: RealizationError: realize is capped at n = {MAX_REALIZE_N}; got n = {n}\n"


def test_enumerate_one_loop():
    code, out = run(["enumerate", 1])
    assert code == 0
    assert out == ("order=e1,e1^-1; h=0; w=0\n"
                   "order=e1,e1^-1; h=0; w=1\n"
                   "order=e1,e1^-1; h=1; w=0\n"
                   "order=e1,e1^-1; h=1; w=1\n")


def test_enumerate_counts():
    code, out = run(["enumerate", 2])
    assert code == 0 and len(out.splitlines()) == 48
    lines = out.splitlines()
    assert lines == sorted(lines, key=lambda s: InvariantTuple.parse(s).order.symbols)


@pytest.mark.parametrize("n", [5, 713, 10 ** 9])
def test_enumerate_over_limit(n):
    # the refusal must not compute (2n-1)! nor print a number of thousands of digits
    start = time.perf_counter()
    code, out = run(["enumerate", n])
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert out.startswith("ERROR: LimitExceeded: enumerate_classes is capped at n = 4")
    if n == 5:
        assert "185794560 entries" in out


def test_enumerate_4_text_is_pinned():
    code, out = run(["enumerate", 4])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_4_SHA256


def test_enumerate_rejects_nonpositive():
    code, out = run(["enumerate", 0])
    assert code == 2 and out.startswith("ERROR: ")


# ---------------------------------------------------------------------------
# fuzz / replay
# ---------------------------------------------------------------------------

def test_fuzz_small_campaign():
    code, out = run(["fuzz", "--seed", 11, "--trials", 4, "--steps", 5])
    assert code == 0
    assert out == "OK 4/4 trials, 20 moves\n"


def test_fuzz_stdout_is_byte_stable(capsys):
    """The wall time goes to stderr, so two runs print the same bytes."""
    args = ["fuzz", "--seed", 11, "--trials", 4, "--steps", 5]
    assert run(args) == run(args)
    assert capsys.readouterr().err.startswith("fuzz took ")


def assert_replay_repeats_the_fuzz(fuzz_out, script):
    """The replay of a violation script prints the fuzz's own text for its
    trial, at the move after the fuzz's step: one judge decides both."""
    prefix = f"VIOLATION trial={script.stem.rsplit('trial', 1)[1]} step="
    line = next(ln for ln in fuzz_out.splitlines() if ln.startswith(prefix))
    step, message = line[len(prefix):].split(": ", 1)
    code, out = run(["fuzz", "--replay", script])
    assert code == 3
    assert out == f"reproduced at move {int(step) + 1}: {message}\n"


def test_fuzz_cross_check(tmp_path, monkeypatch):
    args = ["fuzz", "--seed", 20260815, "--trials", 3, "--cross-check", "--out", tmp_path]
    code, out = run(args)
    assert code == 0 and out.startswith("OK 3/3 trials, 60 moves")

    set_analysis = diagram_mod._set_analysis

    def corrupted(d, value):
        # only a splice keeps an analysis: its first record's float box widened (a record's
        # __init__ takes its end points' floats, so the copy is widened in place)
        first = copy.copy(value.records[0])
        first.fminx -= 1
        set_analysis(d, dataclasses.replace(value, records=(first,) + value.records[1:]))

    monkeypatch.setattr(diagram_mod, "_set_analysis", corrupted)
    code, out = run(args)
    assert code == 3
    assert "kept records diverge from a rebuilt analysis" in out
    scripts = sorted(tmp_path.glob("fuzz_violation_seed20260815_trial*.txt"))
    assert scripts
    # a replay always cross-checks, so it reproduces the divergence
    assert_replay_repeats_the_fuzz(out, scripts[0])


def test_fuzz_cross_check_compares_the_kept_leg_rows(tmp_path, monkeypatch):
    set_analysis = diagram_mod._set_analysis

    def shifted(d, value):
        rows = tuple(tuple(i + 1 for i in row) for row in value.leg_starts)
        set_analysis(d, dataclasses.replace(value, leg_starts=rows))

    monkeypatch.setattr(diagram_mod, "_set_analysis", shifted)
    code, out = run(["fuzz", "--seed", 20260815, "--trials", 1, "--cross-check", "--out", tmp_path])
    assert code == 3
    assert "kept leg_starts diverge from a rebuilt analysis" in out


def test_fuzz_cross_check_compares_the_kept_crossings_and_order(tmp_path, monkeypatch):
    """A kept crossing's frame flipped, or the kept order word reversed, shows
    in the public tuple or the order word a rebuilt analysis gives."""
    set_analysis = diagram_mod._set_analysis

    def flipped(d, value):
        if value.pairs:
            (a, b, frame, ints), *rest = value.pairs
            value = dataclasses.replace(value, pairs=((a, b, -frame, ints), *rest))
        set_analysis(d, value)

    def reversed_order(d, value):
        set_analysis(d, dataclasses.replace(value, order=value.order[::-1]))

    for corrupted, name in ((flipped, "crossings"), (reversed_order, "order")):
        monkeypatch.setattr(diagram_mod, "_set_analysis", corrupted)
        code, out = run(["fuzz", "--seed", 20260815, "--trials", 1, "--cross-check", "--out", tmp_path])
        assert code == 3
        assert f"kept {name} diverge from a rebuilt analysis" in out


def test_fuzz_reports_an_exhausted_generator(tmp_path, monkeypatch):
    def exhausted(d, seed):
        raise Exhausted(f"no legal move found in 0 attempts (seed {seed})")

    monkeypatch.setattr(cli_mod, "random_move_applied", exhausted)
    code, out = run(["fuzz", "--seed", 5, "--trials", 1, "--steps", 3, "--out", tmp_path])
    assert code == 3
    assert out.startswith("VIOLATION trial=0 step=0: move generator exhausted: no legal move found")


def test_fuzz_and_replay_report_a_changed_invariant(tmp_path, monkeypatch):
    """An invariants() that flips the w bits after its first call in a
    trial or a replay stands in for a move that breaks the invariant."""
    real = cli_mod.invariants
    calls = []

    def drifting(d):
        t = real(d)
        calls.append(t)
        return t if len(calls) == 1 else dataclasses.replace(t, w=tuple(1 - b for b in t.w))

    monkeypatch.setattr(cli_mod, "invariants", drifting)
    code, out = run(["fuzz", "--seed", 5, "--trials", 1, "--steps", 3, "--out", tmp_path])
    assert code == 3
    assert out.startswith("VIOLATION trial=0 step=0: invariants changed after ")
    calls.clear()
    assert_replay_repeats_the_fuzz(out, tmp_path / "fuzz_violation_seed5_trial0.txt")


def test_run_fuzz_prints_progress_every_100_trials():
    out = io.StringIO()
    report = run_fuzz(seed=3, steps=0, trials=100, out=out)
    assert report.ok and out.getvalue() == "  100/100 trials, 0 moves applied\n"


@pytest.mark.parametrize("counts", [["--trials", -3], ["--trials", 2, "--steps", -4]])
def test_fuzz_rejects_negative_counts(counts):
    code, out = run(["fuzz", *counts])
    assert code == 2 and out.startswith("ERROR: fuzz counts must be non-negative")


def test_run_fuzz_report_fields():
    report = run_fuzz(seed=2, steps=3, trials=5)
    assert report.ok and report.violations == []
    assert report.trials == 5 and report.moves_applied == 15


def passing_script(seed=0, steps=3):
    d = realize(InvariantTuple.parse("order=e1,e1^-1; h=1; w=0"))
    lines = ["# regression script", dumps(d)]
    for s in range(seed, seed + steps):
        spec, d = random_move_applied(d, s)
        lines.append(spec.to_line())
    return lines


def test_replay_passing_script(tmp_path):
    path = tmp_path / "script.txt"
    path.write_text("\n".join(passing_script()) + "\n")
    code, out = run(["fuzz", "--replay", path])
    assert code == 0
    assert out == "all 3 moves preserve 'order=e1,e1^-1; h=1; w=0'\n"


def test_replay_blocked_move_reports_failure(tmp_path):
    d = realize(InvariantTuple.parse("order=e1,e1^-1; h=0; w=0"))
    path = tmp_path / "script.txt"
    path.write_text(dumps(d) + "\nJiggle 0 0 1 99/1 0/1\n")
    code, out = run(["fuzz", "--replay", path])
    assert code == 3 and out.startswith("replay failed: move 1 (Jiggle)")


def test_replay_malformed_line(tmp_path):
    d = realize(InvariantTuple.parse("order=e1,e1^-1; h=0; w=0"))
    path = tmp_path / "script.txt"
    path.write_text(dumps(d) + "\nSubdivide 0 0\n")
    code, out = run(["fuzz", "--replay", path])
    assert code == 2 and out.startswith("ERROR: malformed move line")


def test_replay_zero_denominator(tmp_path):
    d = realize(InvariantTuple.parse("order=e1,e1^-1; h=0; w=0"))
    path = tmp_path / "script.txt"
    path.write_text(dumps(d) + "\nSubdivide 0 0 0 1/0\n")
    code, out = run(["fuzz", "--replay", path])
    assert (code, out) == (2, "ERROR: zero denominator in '1/0'\n")


def test_replay_invalid_start_diagram(data_dir, tmp_path):
    path = tmp_path / "script.txt"
    path.write_text((data_dir / "invalid_seam.json").read_text())
    code, out = run(["fuzz", "--replay", path])
    assert (code, out) == (2, "ERROR: replay start diagram invalid: "
                              "SeamPointOffCircle loop=0 leg=0 segment=1\n")


def test_run_replay_requires_diagram_line():
    with pytest.raises(Exception):
        run_replay(["# only a comment"])


# ---------------------------------------------------------------------------
# render-svg
# ---------------------------------------------------------------------------

def test_render_svg_file_output(data_dir, tmp_path):
    out_path = tmp_path / "pic.svg"
    code, out = run(["render-svg", data_dir / "three_loops.json", "--out", out_path])
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_render_svg_structure(data_dir):
    d = loads((data_dir / "two_loops.json").read_text())
    svg = render_svg(d)
    assert svg.count("<polyline") == sum(len(loop.legs) for loop in d.loops)
    assert render_svg(d) == svg  # byte-stable


def test_render_svg_marks_seam_and_crossings(data_dir):
    d = loads((data_dir / "seam_chord.json").read_text())
    svg = render_svg(d)
    assert "<rect" in svg  # seam transition markers
    assert svg.endswith("</svg>\n")
    code, out = run(["render-svg", data_dir / "seam_chord.json"])
    assert code == 0 and out == svg


def test_render_svg_refuses_an_invalid_diagram(data_dir):
    """The library call raises instead of drawing a figure without its
    crossing marks; the CLI prints the violations first, as before."""
    d = loads((data_dir / "invalid_seam.json").read_text())
    with pytest.raises(InvalidDiagram, match="SeamPointOffCircle"):
        render_svg(d)


def valid_fixtures(data_dir):
    return [loads(p.read_text()) for p in sorted(data_dir.glob("*.json"))
            if p.name not in ("invalid_seam.json", "malformed.json")]


def walk_diagrams():
    """Seeded walks of 1 to 4 loops, each cut after 0 to 40 moves."""
    for seed in range(48):
        rng = random.Random(f"render-svg:{seed}")
        d = realize(random_tuple(1 + seed % 4, rng.randrange(10 ** 9)))
        for _ in range(rng.randrange(41)):
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
        yield d


def test_render_svg_equals_the_reference_on_every_fixture(data_dir):
    ds = valid_fixtures(data_dir)
    assert len(ds) == 7
    for d in ds:
        assert render_svg(d) == reference_svg(d)


def test_render_svg_equals_the_reference_on_seeded_walks():
    """Byte-equal to the reference on walks that reach loops of several legs
    (seam marks) and segments that carry several crossings as strand a
    (ordered by their parameters there)."""
    seams = shared = 0
    for d in walk_diagrams():
        assert render_svg(d) == reference_svg(d)
        seams += sum(len(loop.legs) - 1 for loop in d.loops)
        firsts = [(c.loop_a, c.param_a.leg, c.param_a.seg) for c in crossings(d)]
        shared += len(firsts) - len(set(firsts))
    assert seams > 20 and shared > 20


def test_the_read_path_builds_no_fraction(data_dir, monkeypatch):
    """loads, validate, invariants, dumps and render_svg read the ints a Point
    holds: on every valid fixture and on 20 seeded walks of 40 moves, none of
    them builds a Fraction."""
    texts = [dumps(d) for d in valid_fixtures(data_dir)]
    for seed in range(20):
        rng = random.Random(f"read-path:{seed}")
        d = realize(random_tuple(1 + seed % 4, rng.randrange(10 ** 9)))
        for _ in range(40):
            _, d = random_move_applied(d, rng.randrange(10 ** 9))
        texts.append(dumps(d))
    built = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert Fraction(1, 2) and built == 1  # the counter counts
    built = 0
    for text in texts:
        d = loads(text)
        assert validate(d) == []
        invariants(d)
        assert dumps(d) == text
        render_svg(d)
    assert built == 0


def test_cross_check_compares_the_kept_w_bits(monkeypatch):
    """A splice that left its loop's w bit unflipped, here a mutant of
    diagram._flipped, shows against a rebuilt analysis once an edit adds one
    self-crossing; the splice itself flips it."""
    d = realize(InvariantTuple.parse("order=e1,e2,e1^-1,e2^-1; h=01; w=00"))
    with monkeypatch.context() as m:
        m.setattr(diagram_mod, "_flipped", lambda w, held: w)
        mutant = _flip_parity(d, 1)
    edited = _flip_parity(d, 1)
    assert inv3(edited) == (0, 1) == analysis(BouquetDiagram(2, d.vertex, edited.loops)).w
    assert inv3(mutant) == (0, 0)
    assert cli_mod._violation(edited, "SingleKink", invariants(edited), True) is None
    assert (cli_mod._violation(mutant, "SingleKink", invariants(edited), True)
            == "kept w diverge from a rebuilt analysis after SingleKink")


# the midpoint of two adjacent floats whose texts at 9 decimals are
# 0.250000000 and 0.250000001
MIDPOINT = rat(9007199272755391, 2 ** 55)


def two_close_crossings(e, m):
    """One loop whose first segment, along y = 0 from V to (3/4 m, 0), is
    crossed at x = m (MIDPOINT - e) and then at x = m (MIDPOINT + e): for a
    tiny e both parameters there round to one float, yet the two circles
    print apart.  For m = -1 the sweep, by least x, meets them in reverse."""
    xs = [m * x for x in (rat(3, 4), MIDPOINT - e, MIDPOINT + e, rat(-1, 4))]
    return BouquetDiagram(1, pt(0, 0), (LoopPath((Leg((
        pt(0, 0), pt(xs[0], 0), pt(xs[0], "1/2"), pt(xs[1], "1/2"), pt(xs[1], "-1/4"),
        pt(xs[2], "-1/4"), pt(xs[2], "1/4"), pt(xs[3], "1/4"), pt(0, 0))),)),))


@pytest.mark.parametrize("m", [1, -1])
@pytest.mark.parametrize("e", [rat(1, 10 ** 30), rat(-1, 10 ** 30), rat(1, 16)])
def test_render_svg_orders_crossings_whose_floats_tie(e, m):
    """Crossings on one segment whose parameters' floats tie are drawn in
    the exact order of those parameters."""
    d = two_close_crossings(e, m)
    cs = [c for c in crossings(d) if (c.param_a.leg, c.param_a.seg) == (0, 0)]
    assert len(cs) == 2
    assert (float(cs[0].param_a.frac) == float(cs[1].param_a.frac)) == (abs(e) < rat(1, 16))
    first, second = (f'cx="{float(c.location.x):.9f}"' for c in cs)
    svg = render_svg(d)
    assert svg == reference_svg(d)
    assert first != second and svg.index(first) < svg.index(second)


def test_crossings_come_in_sort_key_order():
    """crossings(d), built in diagram._crossing_order's order, equals its own
    sort by Crossing.sort_key, kept and rebuilt: on the six two_close_crossings
    cases, four of whose parameters tie as floats, and on seeded walks."""
    ds = [two_close_crossings(e, m) for e in (rat(1, 10 ** 30), rat(-1, 10 ** 30), rat(1, 16)) for m in (1, -1)]
    for d in ds + list(walk_diagrams()):
        for x in (d, BouquetDiagram(d.n, d.vertex, d.loops)):
            cs = crossings(x)
            assert list(cs) == sorted(cs, key=Crossing.sort_key)

    def tied(d):
        firsts = [(c.loop_a, c.param_a.leg, c.param_a.seg, float(c.param_a.frac)) for c in crossings(d)]
        return len(set(firsts)) < len(firsts)

    assert [tied(d) for d in ds] == [True] * 4 + [False] * 2


def test_render_svg_builds_no_crossing(data_dir, monkeypatch):
    """render_svg reads the kept crossings: with _pair_crossing, which makes
    each Crossing, patched to raise it draws the same bytes and leaves the
    public tuple unbuilt."""
    ds = valid_fixtures(data_dir) + list(islice(walk_diagrams(), 12))
    want = [reference_svg(BouquetDiagram(d.n, d.vertex, d.loops)) for d in ds]

    def build(*args):
        raise AssertionError("render_svg built a Crossing")

    monkeypatch.setattr(diagram_mod, "_pair_crossing", build)
    for d, svg in zip(ds, want):
        assert render_svg(d) == svg
        assert "crossings" not in vars(analysis(d))


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"], io.StringIO())
    assert exc.value.code == 2


def test_no_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([], io.StringIO())
    assert exc.value.code == 2
