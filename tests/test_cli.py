import dataclasses
import hashlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rp2bouquet import (
    MAX_REALIZE_N,
    Exhausted,
    InvalidDiagram,
    InvariantTuple,
    dumps,
    loads,
    random_move_applied,
    realize,
)
from rp2bouquet import cli as cli_mod
from rp2bouquet import diagram as diagram_mod
from rp2bouquet.cli import main, render_svg, run_fuzz, run_replay
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
    assert out.startswith("OK 4/4 trials, 20 moves")


def test_fuzz_cross_check(tmp_path, monkeypatch):
    args = ["fuzz", "--seed", 20260815, "--trials", 3, "--cross-check", "--out", tmp_path]
    code, out = run(args)
    assert code == 0 and out.startswith("OK 3/3 trials, 60 moves")

    structural_ok = diagram_mod._structural_ok

    def corrupted(d2, splice, records):
        # a passed check's first new record, its float box widened
        bad = structural_ok(d2, splice, records)
        if bad is None:
            records[0] = dataclasses.replace(records[0], fminx=records[0].fminx - 1)
        return bad

    monkeypatch.setattr(diagram_mod, "_structural_ok", corrupted)
    code, out = run(args)
    assert code == 3
    assert "kept records diverge from a rebuilt analysis" in out
    scripts = sorted(tmp_path.glob("fuzz_violation_seed20260815_trial*.txt"))
    assert scripts
    # a replay always cross-checks, so it reproduces the divergence
    code, out = run(["fuzz", "--replay", scripts[0]])
    assert code == 3
    assert out.startswith("reproduced at move 1: kept records diverge from a rebuilt analysis")


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
    code, out = run(["fuzz", "--replay", tmp_path / "fuzz_violation_seed5_trial0.txt"])
    assert code == 3
    assert out.startswith("reproduced: invariants changed at move 1 (")


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
