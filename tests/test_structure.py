"""Import structure of the package."""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cryf"


def relative_imports(path: Path) -> set[str]:
    """Package modules that `path` imports relatively, at any depth of its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_package_imports_have_no_cycle():
    graph = {p.stem: relative_imports(p) for p in PACKAGE.glob("*.py")}
    graph.pop("__init__")
    # the parse sees the imports: cli imports flow, and flow imports analysis
    assert "flow" in graph["cli"] and "analysis" in graph["flow"]
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
