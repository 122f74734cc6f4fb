"""No code in ``src/repro/`` outside ``src/repro/apps/`` tests a deployment's name.

Everything outside the strategies reads what a strategy declares — its
:class:`~repro.core.cluster.DeploymentShape` — so a registered third-party
strategy is validated, built, priced and fuzzed like a bundled one.  This
walks the AST of every module and fails on a comparison (``==``, ``!=``,
``in``, ``not in``) against a string literal naming a registered deployment,
alone or inside a literal tuple, list or set.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set

from repro.core.session import available_applications

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
COMPARISONS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def name_tests(source: str, names: Set[str]) -> List[str]:
    """``line: names`` of every comparison in ``source`` against a literal in ``names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare) or not any(isinstance(op, COMPARISONS) for op in node.ops):
            continue
        for operand in (node.left, *node.comparators):
            literals = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
            hits = sorted(
                literal.value
                for literal in literals
                if isinstance(literal, ast.Constant) and isinstance(literal.value, str) and literal.value in names
            )
            if hits:
                found.append(f"{node.lineno}: {hits}")
    return found


def test_no_deployment_name_is_tested_outside_the_strategies():
    names = set(available_applications())
    offenders = {
        str(path.relative_to(SRC)): hits
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "apps"
        and (hits := name_tests(path.read_text(encoding="utf-8"), names))
    }
    assert not offenders, f"deployment names tested outside src/repro/apps/: {offenders}"


def test_the_walk_sees_every_form_of_a_name_test():
    names = {"msmw", "ssmw"}
    source = (
        'a = deployment == "msmw"\n'
        'b = "ssmw" != deployment\n'
        'c = deployment in ("ssmw", "other")\n'
        'd = deployment not in ["msmw"]\n'
        'DEFAULTS = ("ssmw", "msmw")\n'
        'e = deployment == "other"\n'
    )
    assert name_tests(source, names) == ["1: ['msmw']", "2: ['ssmw']", "3: ['ssmw']", "4: ['msmw']"]
