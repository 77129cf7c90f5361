"""The committed files under tests/data are what scripts/make_fixtures.py writes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def test_make_fixtures_reproduces_committed_data(data_dir, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", tmp_path)
    assert script.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    # circle_after_moves.json pins five random-move decisions
    assert "circle_after_moves.json" in written
    for name in written:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name
