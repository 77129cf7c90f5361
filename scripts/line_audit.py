"""List the statement lines of src/rp2bouquet that the Tier-1 tests never run.

    python3 scripts/line_audit.py [extra pytest arguments]

The tracer is installed before anything imports rp2bouquet, so module-level
lines (imports, definitions, constants) count as run when the tests import
them; tracing that starts later, e.g. in a pytest hook, would miss them all.
Tracing costs 3-4x the untraced run time, so this is a tool to run on
demand, not a test.

Each unexecuted statement line is printed as ``path:line: text``.  Lines
that stay unreached on purpose are listed apart with their reason, from the
REASONS table below; every other line is a line without a test.  A reason
that matches no unexecuted statement is stale (a test now runs the line, or
the line is gone) and is listed too.  The exit code is pytest's when the
tests fail, 1 when a line without a reason or a stale reason is left, and 0
otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "rp2bouquet"
FILES = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}

# (file name, stripped line text) -> why no test runs the line
REASONS: dict[tuple[str, str], str] = {}

hits: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in FILES else None


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statement_lines(path: Path) -> list[int]:
    """First lines of the statements that compile to code of their own (a
    docstring or a bare `else:` has none)."""
    source = path.read_text()
    compiled = _code_lines(compile(source, str(path), "exec"))
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt) and node.lineno in compiled})


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    threading.settrace(_global)
    sys.settrace(_global)
    os.chdir(ROOT)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing, reasoned, used = [], [], set()
    for name, path in FILES.items():
        text = path.read_text().splitlines()
        for line in statement_lines(path):
            if (name, line) not in hits:
                stmt = text[line - 1].strip()
                reason = REASONS.get((path.name, stmt))
                where = f"{path.relative_to(ROOT)}:{line}: {stmt}"
                if reason:
                    reasoned.append(f"{where}  [{reason}]")
                    used.add((path.name, stmt))
                else:
                    missing.append(where)
    stale = [f"{name}: {stmt}" for name, stmt in REASONS if (name, stmt) not in used]
    print(f"\n{len(missing)} unexecuted statement lines without a reason:")
    print("\n".join(missing))
    print(f"\n{len(reasoned)} unexecuted on purpose:")
    print("\n".join(reasoned))
    print(f"\n{len(stale)} stale reasons (no unexecuted statement matches them):")
    print("\n".join(stale))
    if code != 0:
        return int(code)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
