#!/usr/bin/env python
"""Count the lines under ``src/repro/`` that carry code.

A line carries code when at least one token on it is neither a comment nor
part of a docstring: blank lines, comment-only lines and docstrings (the
leading string expression of a module, class or function) are not counted.
This is the one definition ROADMAP's "lines of code in ``src/``" targets are
measured by, so deleting comments cannot meet them.

    python scripts/count_code.py            # per-package table + total
    python scripts/count_code.py --max N    # additionally exit 1 above N
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(source: str) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of lines of ``source`` that carry code."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(source))


def count_tree(root: Path) -> Dict[str, int]:
    """Code-bearing lines per top-level package (or module) under ``root``."""
    counts: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = relative.parts[0] if len(relative.parts) > 1 else "(top level)"
        counts[package] = counts.get(package, 0) + count_code_lines(path.read_text(encoding="utf-8"))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT / "src" / "repro")
    parser.add_argument("--max", type=int, default=None, help="exit 1 when the total exceeds this")
    args = parser.parse_args(argv)
    counts = count_tree(args.root)
    total = sum(counts.values())
    for package, lines in counts.items():
        print(f"{package:<14}{lines:>7}")
    print(f"{'total':<14}{total:>7}")
    if args.max is not None and total > args.max:
        print(f"FAIL: {total} code-bearing lines exceed --max {args.max}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
