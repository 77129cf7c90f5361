import doctest
from importlib import import_module

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
