"""Documentation surface checks, wired into the tier-1 test flow.

Runs the same validation as ``make docs-check`` / ``scripts/check_docs.py``:
the README and the docs/ pages must exist, their relative links must resolve,
and every repository path or ``repro.*`` module they reference must be real.
This keeps the documentation from drifting as modules move.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "scripts" / "check_docs.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_docs():
    return load_checker()


def test_documents_exist(check_docs):
    # Single source of truth: the checker's DOCUMENTS tuple drives both this
    # existence check and the full validation below.
    assert "docs/performance.md" in check_docs.DOCUMENTS
    for name in check_docs.DOCUMENTS:
        assert (REPO_ROOT / name).is_file(), f"{name} is missing"


def test_docs_check_passes(check_docs, capsys):
    assert check_docs.main() == 0, capsys.readouterr().err


def test_top_level_exports_track_real_exports_only(check_docs):
    """`repro.<attr>` references validate against __all__/_LAZY_EXPORTS, not
    arbitrary quoted words from the package docstring."""
    exports = check_docs.top_level_exports()
    assert {"train", "Session", "RoundResult"} <= exports
    # 'ssmw' appears quoted in the package docstring example but is NOT an
    # export; a sloppy scan would accept the broken reference `repro.ssmw`.
    assert "ssmw" not in exports


def test_class_attribute_references_resolve_against_class_bodies(check_docs):
    """A backticked `Class.attr` must exist on that class (or a base under src/)."""
    text = (
        "`Transport.pull_many(source, ...)` `Transport.hedge` `Server.node_id` "  # method, self attr, inherited
        "`HedgePolicy.tracker.observe` `PullOutcome.deadline` "  # dataclass / NamedTuple fields
        "`Transport._pull_many_hedged` `HedgePolicy.percentile` "  # deleted
        "`BENCHMARK.json` `NotAClass.method()`"  # not classes under src/: ignored
    )
    problems = check_docs.check_class_references("doc.md", text)
    assert [problem.split("'")[1] for problem in problems] == [
        "HedgePolicy.percentile",
        "Transport._pull_many_hedged",
    ]


def test_readme_covers_the_required_sections(check_docs):
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for needle in (
        "GARFIELD",
        "DSN 2021",            # paper citation
        "## Install",
        "## Quickstart",
        "## Architecture",
        "examples/quickstart.py",
        "docs/architecture.md",
        "docs/benchmarks.md",
        "make test",
    ):
        assert needle in text, f"README.md should mention {needle!r}"


def test_architecture_documents_the_listing_api_and_executor():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for needle in (
        "get_gradients(t, q)",
        "get_models(q)",
        "update_model",
        "src/repro/core/executor.py",
        "SerialExecutor",
        "ThreadedExecutor",
        "n ≥ 2f + 3",  # Krum precondition in the GAR table
        "n ≥ 4f + 3",  # Bulyan precondition
    ):
        assert needle in text, f"architecture.md should mention {needle!r}"


def test_benchmarks_doc_maps_every_bench_script():
    text = (REPO_ROOT / "docs" / "benchmarks.md").read_text(encoding="utf-8")
    bench_dir = REPO_ROOT / "benchmarks"
    for script in sorted(bench_dir.glob("bench_*.py")):
        assert script.name in text, f"docs/benchmarks.md should map {script.name}"


def test_makefile_has_the_documented_targets():
    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    for target in ("test:", "bench-smoke:", "docs-check:"):
        assert target in makefile, f"Makefile should define {target}"


def test_count_code_counts_only_code_bearing_lines():
    """`make loc`: blank lines, comments and docstrings are not code."""
    spec = importlib.util.spec_from_file_location("count_code", REPO_ROOT / "scripts" / "count_code.py")
    count_code = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(count_code)
    fixture = (
        '"""Module docstring,\nspanning two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comments do not uncount a line\n"
        "\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    text = '''a string that is\n"
        "    not a docstring'''\n"
        "    return (\n"
        "        x\n"
        "    )\n"
    )
    assert count_code.count_code_lines(fixture) == 7
    assert sum(count_code.count_tree(REPO_ROOT / "src" / "repro").values()) > 0


def test_package_exports_resolve():
    """Every name a module under ``repro`` lists in ``__all__`` is really there.

    A stale export is otherwise only caught by ``from x import *``.
    """
    import importlib
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
    declaring = [module for module in modules if hasattr(module, "__all__")]
    assert len(declaring) >= 9
    assert "Membership" in importlib.import_module("repro.detection").__all__
    for module in declaring:
        exported = module.__all__
        assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists names it does not define: {missing}"
