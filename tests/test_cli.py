import dataclasses
import io
import time

import pytest

from rp2bouquet import (
    InvariantTuple,
    dumps,
    loads,
    random_move_applied,
    realize,
)
from rp2bouquet import moves as moves_mod
from rp2bouquet.cli import main, render_svg, run_fuzz, run_replay


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


def test_validate_malformed_json(data_dir):
    code, out = run(["validate", data_dir / "malformed.json"])
    assert code == 2 and out.startswith("ERROR: not valid JSON")


def test_validate_missing_file(data_dir):
    code, out = run(["validate", data_dir / "no_such_file.json"])
    assert code == 2 and out.startswith("ERROR: cannot read")


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


def test_realize_parse_error():
    code, out = run(["realize", "order=e1,e1; h=0; w=0"])
    assert code == 2 and out.startswith("ERROR: ")


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

    splice_records = moves_mod._splice_records

    def corrupted(records, d2, splice):
        records, changed = splice_records(records, d2, splice)
        first = dataclasses.replace(records[0], fminx=records[0].fminx - 1)
        return (first,) + records[1:], changed

    monkeypatch.setattr(moves_mod, "_splice_records", corrupted)
    code, out = run(args)
    assert code == 3
    assert "kept records diverge from a rebuilt analysis" in out
    assert list(tmp_path.glob("fuzz_violation_seed20260815_trial*.txt"))


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
