"""The committed files under tests/data are what scripts/make_fixtures.py
writes, and scripts/render_gallery.py draws them."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_make_fixtures_reproduces_committed_data(data_dir, tmp_path, monkeypatch):
    script = load_script("make_fixtures")
    monkeypatch.setattr(script, "DATA", tmp_path)
    assert script.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    # circle_after_moves.json pins five random-move decisions
    assert "circle_after_moves.json" in written
    for name in written:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name


def test_render_gallery_draws_classes_and_samples(data_dir, tmp_path, monkeypatch):
    script = load_script("render_gallery")
    monkeypatch.setattr(sys, "argv", ["render_gallery.py", "--n", "1", "--out", str(tmp_path)])
    assert script.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    # the four n = 1 classes, and every sample that loads and is valid (all
    # but malformed.json and invalid_seam.json: render_svg refuses the latter)
    samples = sorted(f"sample_{p.stem}.svg" for p in data_dir.glob("*.json")
                     if p.name not in ("malformed.json", "invalid_seam.json"))
    normal = [w for w in written if w.startswith("normal_")]
    assert len(normal) == 4 and len(samples) == 7
    assert written == normal + samples
