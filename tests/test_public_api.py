"""The package names the benchmark harness imports must keep existing.

The harness's own self-test is slow and not part of this suite, so a
removed or renamed public name would otherwise first fail in a benchmark
run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def importable(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds: an attribute of the
    module, or else its submodule of that name."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{module}.{name}":
            raise
        return False
    return True


def test_names_imported_by_the_benchmark_exist():
    imported = [
        (node.module, alias.name)
        for source in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "abrenergy"
        for alias in node.names
    ]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported if not importable(module, name)]
    assert missing == []


def test_every_lazily_loaded_name_resolves():
    # a name in the table that its module does not define fails here, not on first use
    import abrenergy

    table = abrenergy._MODULE_OF
    assert "SessionReport" in table and "normalize" in table
    assert [name for name in table if not hasattr(abrenergy, name)] == []
    assert set(table) <= set(dir(abrenergy))
    assert not hasattr(abrenergy, "no_such_name")
