"""Statements of ``src/streamgp`` that no test runs, module by module.

``python tests/unexecuted.py [PYTEST_ARGS ...]`` runs pytest in this
process (with ``-q`` and the given arguments; run it from the repository
root) under a ``sys.settrace`` / ``threading.settrace`` line tracer that
follows only code under ``src/streamgp``, then lists, per module, every
statement (an ``ast.stmt``, docstrings left out) whose lines never ran.
A compound statement counts as run if its own lines (its header, the
``except``/``else``/``finally`` lines) or any statement inside it ran.
Tests that run the library in a subprocess (``src`` is put on their
``PYTHONPATH``) are not traced, so what only they run is listed too.  The
script reports and asserts nothing; tests slowed by the tracer may fail,
and the pytest exit code is printed.  Edit no module while it runs: the
lines are read back after the tests.
Standard library only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "streamgp"


class LineTracer:
    """Line numbers run in each file under ``prefix``."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hits: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}  # per file: its line tracer, or None

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        local = self._local.get(filename, False)
        if local is False:
            local = None
            if os.path.realpath(filename).startswith(self.prefix):
                local = self._line_tracer(self.hits.setdefault(os.path.realpath(filename), set()))
            self._local[filename] = local
        return local

    @staticmethod
    def _line_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace

        return trace


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _children(node: ast.AST) -> list[ast.stmt]:
    """The statements directly inside ``node`` (handler bodies included)."""
    out: list[ast.stmt] = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            out.append(child)
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            out.extend(_children(child))
    return out


def unexecuted(source: str, hits: set[int]) -> tuple[list[ast.stmt], int]:
    """Statements of ``source`` none of whose own lines is in ``hits`` and
    none of whose inner statements ran, in source order, and the number of
    statements."""
    missed: list[ast.stmt] = []
    total = 0

    def walk(node: ast.stmt, parent: ast.AST) -> bool:
        """Whether ``node`` ran; records it and what it holds if not."""
        nonlocal total
        inner = _children(node)
        ran_inside = [walk(child, node) for child in inner]
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(start, node.end_lineno + 1))
        for child in inner:
            own -= set(range(child.lineno, child.end_lineno + 1))
        ran = bool(own & hits) or any(ran_inside)
        if not _is_docstring(node, parent):
            total += 1
            if not ran:
                missed.append(node)
        return ran

    tree = ast.parse(source)
    for node in tree.body:
        walk(node, tree)
    return sorted(missed, key=lambda n: (n.lineno, n.col_offset)), total


def main(argv: list[str]) -> int:
    if "streamgp" in sys.modules:
        raise SystemExit("streamgp is already imported; its module-level lines would be missed")
    sys.path.insert(0, str(ROOT / "src"))
    # Subprocess tests import this tree too, untraced.
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    tracer = LineTracer(str(PACKAGE) + os.sep)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        import pytest

        code = pytest.main(["-q", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit code {int(code)}. Statements of src/streamgp that no traced test ran")
    print("(tests that run the library in a subprocess are not traced):")
    n_missed = n_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        missed, total = unexecuted(source, tracer.hits.get(os.path.realpath(path), set()))
        n_missed += len(missed)
        n_total += total
        print(f"{path.relative_to(ROOT / 'src')}: {len(missed)} of {total} statements never ran")
        for node in missed:
            print(f"  {node.lineno:4d}  {lines[node.lineno - 1].strip()[:90]}")
    print(f"total: {n_missed} of {n_total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
