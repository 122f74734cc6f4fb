#!/usr/bin/env python3
"""Lightweight documentation checker.

Validates that the documentation surface stays truthful as the code moves:

* every relative markdown link in ``README.md`` and ``docs/*.md`` resolves to
  an existing file or directory;
* every backtick-quoted repository path (``src/repro/...``, ``benchmarks/...``,
  ``tests/...``, ``examples/...``, ``docs/...``, ``scripts/...``) exists;
* every ``repro.<module>`` dotted reference in the docs imports to a real
  module file under ``src/``;
* every backticked ``Class.attr`` / ``Class.method(...)`` whose ``Class`` is
  defined under ``src/repro/`` names something that class (or a base class
  defined there) really has — a method, a class-level name or an attribute
  assigned on ``self``;
* the documents are non-empty and start with a top-level heading.

Run directly (``python scripts/check_docs.py``) or via ``make docs-check``;
the tier-1 suite also runs it through ``tests/test_docs.py``.  Exits non-zero
with one line per problem.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documents that make up the documentation surface.
DOCUMENTS = (
    "README.md",
    "docs/api.md",
    "docs/architecture.md",
    "docs/benchmarks.md",
    "docs/scenarios.md",
    "docs/fuzzing.md",
    "docs/performance.md",
    "docs/detection.md",
    "docs/resilience.md",
    "docs/sharding.md",
)

#: Top-level directories a backtick path may point into (plus lone files).
PATH_PREFIXES = ("src/", "benchmarks/", "tests/", "examples/", "docs/", "scripts/")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)#\s]+)[^)]*\)")
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
MODULE_RE = re.compile(r"^repro(\.[A-Za-z_][A-Za-z0-9_]*)+$")
#: ``Class.attr``, optionally followed by a call, an index or a deeper chain.
CLASS_ATTR_RE = re.compile(r"^([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:[(.\[].*)?$")


def iter_documents() -> Iterator[Tuple[str, str]]:
    for name in DOCUMENTS:
        path = REPO_ROOT / name
        if not path.is_file():
            yield name, ""
        else:
            yield name, path.read_text(encoding="utf-8")


def check_links(doc: str, text: str) -> List[str]:
    problems = []
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (REPO_ROOT / doc).parent / target
        if not resolved.exists():
            problems.append(f"{doc}: broken link target '{target}'")
    return problems


def looks_like_repo_path(token: str) -> bool:
    if any(ch in token for ch in " ()<>*|,="):
        return False
    return token.startswith(PATH_PREFIXES) or token in ("Makefile", "setup.py")


def check_backtick_paths(doc: str, text: str) -> List[str]:
    problems = []
    for token in BACKTICK_RE.findall(text):
        token = token.rstrip("/")
        if looks_like_repo_path(token) and not (REPO_ROOT / token).exists():
            problems.append(f"{doc}: referenced path '{token}' does not exist")
    return problems


def resolves_to_module(parts: List[str]) -> bool:
    base = REPO_ROOT / "src" / Path(*parts)
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


@functools.lru_cache(maxsize=1)
def top_level_exports() -> frozenset:
    """Names the top-level package exports (``repro.train`` and friends).

    Parsed from the ``__all__`` / ``_LAZY_EXPORTS`` assignments in
    ``src/repro/__init__.py`` via the AST — not a raw string scan, so quoted
    words in docstrings cannot masquerade as exports — keeping the checker
    import-free.
    """
    init = REPO_ROOT / "src" / "repro" / "__init__.py"
    if not init.is_file():  # pragma: no cover - the package always exists
        return frozenset()
    names: set = set()
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Assign):
            continue
        targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
        if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
            names.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
        if "_LAZY_EXPORTS" in targets and isinstance(node.value, ast.Dict):
            names.update(
                key.value
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return frozenset(names)


def check_module_references(doc: str, text: str) -> List[str]:
    problems = []
    for token in set(BACKTICK_RE.findall(text)):
        if not MODULE_RE.match(token):
            continue
        parts = token.split(".")
        # Accept `repro.pkg.module` as well as attribute references like
        # `repro.pkg.module.ClassName` — some prefix of at least two
        # components must resolve to a real module.
        if any(resolves_to_module(parts[:cut]) for cut in range(len(parts), 1, -1)):
            continue
        # ... and `repro.<name>` for the package's lazily-exported API.
        if len(parts) == 2 and parts[1] in top_level_exports():
            continue
        problems.append(f"{doc}: dotted reference '{token}' is not a repro module")
    return problems


def _own_names(cls: ast.ClassDef) -> Set[str]:
    """Names bound in a class body, plus attributes its methods set on ``self``."""
    names: Set[str] = set()
    for statement in cls.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(statement.name)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            # ast.walk covers tuple targets; a class-level statement stores nothing else.
            names.update(
                node.id
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            )
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


@functools.lru_cache(maxsize=1)
def class_attributes() -> Dict[str, frozenset]:
    """Class name -> every attribute name the docs may hang off it.

    Built from the AST of ``src/repro/**/*.py`` (import-free, like the rest of
    the checker).  Base classes are followed by name while they are defined
    under ``src/repro/`` too; classes sharing a name are merged, which can
    only make the check more lenient.
    """
    own: Dict[str, Set[str]] = {}
    bases: Dict[str, Set[str]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                own.setdefault(node.name, set()).update(_own_names(node))
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                    for base in node.bases
                )

    def resolve(name: str, seen: Tuple[str, ...] = ()) -> Set[str]:
        names = set(own[name])
        for base in bases[name]:
            if base in own and base not in seen:
                names |= resolve(base, seen + (name,))
        return names

    return {name: frozenset(resolve(name)) for name in own}


def check_class_references(doc: str, text: str) -> List[str]:
    problems = []
    known = class_attributes()
    for token in sorted(set(BACKTICK_RE.findall(text))):
        match = CLASS_ATTR_RE.match(token)
        if match is None or match.group(1) not in known:
            continue
        owner, attr = match.group(1), match.group(2)
        if attr not in known[owner] and not attr.startswith("__"):
            problems.append(f"{doc}: '{token}' names no attribute of class {owner}")
    return problems


def check_structure(doc: str, text: str) -> List[str]:
    if not text.strip():
        return [f"{doc}: missing or empty"]
    if not text.lstrip().startswith("# "):
        return [f"{doc}: should start with a top-level '# ' heading"]
    return []


def main() -> int:
    problems: List[str] = []
    for doc, text in iter_documents():
        problems.extend(check_structure(doc, text))
        if not text:
            continue
        problems.extend(check_links(doc, text))
        problems.extend(check_backtick_paths(doc, text))
        problems.extend(check_module_references(doc, text))
        problems.extend(check_class_references(doc, text))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"docs-check: {len(DOCUMENTS)} documents OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
