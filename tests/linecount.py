"""Line counts of the modules of a ``src`` tree, printed as JSON.

``python tests/linecount.py [SRC] [--against OTHER_SRC]`` counts, for every
``.py`` file under SRC (default: this checkout's ``src``), its total lines
and its code lines: lines that hold a token other than a comment, with
docstrings left out.  A docstring is the string that opens a module, class
or function body (found with ``ast``); the other tokens come from
``tokenize``.  With ``--against``, both trees are counted, ``against``
first, and each module's numbers are printed as ``[against, this]``.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of a module and its classes
    and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """Total and code lines of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return {"total": len(text.splitlines()), "code": len(code)}


def count_tree(src: Path) -> dict:
    """Counts of every module under ``src``, keyed by path relative to it,
    with their sums."""
    modules = {
        str(path.relative_to(src)): count(path.read_text(encoding="utf-8"))
        for path in sorted(src.rglob("*.py"))
    }
    return {
        "modules": modules,
        "total": sum(m["total"] for m in modules.values()),
        "code": sum(m["code"] for m in modules.values()),
    }


def compare(against: dict, this: dict) -> dict:
    """Each module's and the sums' counts as [against, this]; a module that
    one tree lacks counts 0 there."""
    zero = {"total": 0, "code": 0}
    names = sorted(set(against["modules"]) | set(this["modules"]))
    return {
        "modules": {
            name: {
                key: [against["modules"].get(name, zero)[key], this["modules"].get(name, zero)[key]]
                for key in ("total", "code")
            }
            for name in names
        },
        "total": [against["total"], this["total"]],
        "code": [against["code"], this["code"]],
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src", help="tree to count")
    parser.add_argument("--against", type=Path, help="another src tree, counted beside it")
    args = parser.parse_args(argv)
    this = count_tree(args.src)
    print(json.dumps(this if args.against is None else compare(count_tree(args.against), this), indent=1))


if __name__ == "__main__":
    main()
