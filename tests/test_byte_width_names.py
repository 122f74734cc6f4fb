"""No module in ``src/repro/`` outside ``network/serialization.py`` names a
per-element byte width.

What one vector message costs is decided by one rule,
:func:`repro.network.serialization.message_nbytes`: the transport charges it,
the ledger folds it and the cost model prices it.  A second width anywhere
else (a ``bytes_per_element`` knob, a ``*_BYTES_PER_ELEMENT`` constant) would
be a second byte count.  This walks the AST of every module and fails on any
identifier of that form: a name, an attribute, a parameter, a keyword, an
import or a definition.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
RULE = Path("network") / "serialization.py"
WIDTH = re.compile(r"^(bytes_per_element|\w*_BYTES_PER_ELEMENT)$")


def width_names(source: str) -> List[str]:
    """``line: identifier`` of every identifier in ``source`` that names a byte width."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.arg, ast.keyword)):
            names = [node.arg]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found += [(node.lineno, name) for name in names if name and WIDTH.match(name)]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_byte_width_is_named_outside_the_rule():
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC) != RULE and (hits := width_names(path.read_text(encoding="utf-8")))
    }
    assert not offenders, f"per-element byte widths named outside {RULE}: {offenders}"


def test_the_walk_sees_every_form_of_a_width():
    source = (
        "PAPER_BYTES_PER_ELEMENT = 4\n"
        "a = link.bytes_per_element\n"
        "def size(d, bytes_per_element=8): pass\n"
        "size(3, bytes_per_element=4)\n"
        "from x import WIRE_BYTES_PER_ELEMENT\n"
        "bytes_per_elements = elements_per_byte = 1\n"
    )
    assert width_names(source) == [
        "1: PAPER_BYTES_PER_ELEMENT",
        "2: bytes_per_element",
        "3: bytes_per_element",
        "4: bytes_per_element",
        "5: WIRE_BYTES_PER_ELEMENT",
    ]
