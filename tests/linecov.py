"""Statements of ``src/diagalg`` that no test runs, found with ``sys.settrace``.

Run it by hand from the repository root; pytest does not collect it:

    python tests/linecov.py [pytest arguments]

It runs pytest in this process under a line tracer, then prints, per
module, each statement that never ran, and the total.  With no arguments
it runs the whole of ``tests``.  Code run in a child process (the CLI
tests that start ``python -m diagalg``) is not seen.  The tracer makes the
tests about five times slower, so this is not part of the test suite, and
a test that bounds its own CPU time (the ``tl basis`` budget test
in ``test_cli.py``) can fail under it; its lines are still counted.

A statement counts as run when the tracer saw any line of it; for a
``def``, ``class`` or other compound statement, any line of its header
(decorators included) and not of its body.  Statements that compile to
no code of their own are left out: constant expressions such as
docstrings, ``global`` and ``nonlocal``, and the ``try`` line.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diagalg"

_SILENT = (ast.Global, ast.Nonlocal, ast.Try, getattr(ast, "TryStar", ast.Try))


def statements(source: str) -> dict[int, range]:
    """First line of every statement that leaves a line event -> the lines that show it ran."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SILENT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        found[node.lineno] = range(first, max(first, last) + 1)
    return found


def trace_tests(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest with ``args`` under a line tracer: (exit code, lines seen per package file)."""
    seen: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    by_name: dict[str, set[int] | None] = {}

    def lines_of(filename: str) -> set[int] | None:
        if filename not in by_name:
            by_name[filename] = seen.get(Path(filename).resolve())
        return by_name[filename]

    def on_line(frame, event, arg):
        if event == "line":
            lines_of(frame.f_code.co_filename).add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if lines_of(frame.f_code.co_filename) is not None else None

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    code, seen = trace_tests(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    if not any(seen.values()):
        print(f"no line of {PACKAGE} ran: is diagalg imported from elsewhere?", file=sys.stderr)
        return 2
    total = missed = 0
    for path in sorted(seen):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        found = statements(source)
        unrun = [line for line, shown_by in sorted(found.items()) if not seen[path].intersection(shown_by)]
        total += len(found)
        missed += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} of {len(found)} statements not run")
            for line in unrun:
                print(f"  {line}: {text[line - 1].strip()}")
    print(f"total: {missed} of {total} statements in {PACKAGE.relative_to(ROOT)} not run (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
