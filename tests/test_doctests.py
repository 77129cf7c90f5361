import doctest
import re
from importlib import import_module
from pathlib import Path

import pytest

# the package re-exports functions under some module names (invariants), so
# the modules are imported by their full names
MODULES = [import_module(f"rp2bouquet.{name}")
           for name in ("cli", "diagram", "geometry", "invariants", "moves", "normal_form")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    assert doctest.testmod(module).failed == 0


def test_every_docstring_example_is_run():
    # 8 in geometry, 2 in invariants
    assert sum(doctest.testmod(m).attempted for m in MODULES) == 10


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_names_every_committed_bench_run():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert [p.name for p in sorted(root.glob("BENCH_*.json")) if f"`{p.name}`" not in readme] == []
