"""Import structure of the package, which of its names the program reaches, and the run
table of tools/compare_outputs.py."""

import ast
import functools
import graphlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cryf"
# the nodes that reference a name, and the field that holds it
REFERENCES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.Constant: "value"}


@functools.cache
def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def relative_imports(path: Path) -> set[str]:
    """Package modules that `path` imports relatively, at any depth of its body."""
    found = set()
    for node in ast.walk(parsed(path)):
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


def referenced_names(tree: ast.Module) -> set:
    return {getattr(node, REFERENCES[type(node)]) for node in ast.walk(tree)
            if type(node) in REFERENCES}


def public_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned names that do not start with _."""
    names = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    names += [t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_is_reached_outside_tests():
    # reached: referenced by a package module (its own included), perfbench or
    # tools; perfbench's REQUIRED names the functions it wraps as strings
    modules = {p.stem: parsed(p) for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    used = set().union(*map(referenced_names, modules.values()))
    unused = {f"{stem}.{name}": name for stem, tree in modules.items()
              for name in public_definitions(tree) if name not in used}
    # a file is parsed only if a name not yet reached occurs in it as a word
    for path in [*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")]:
        text = path.read_text(encoding="utf-8")
        if any(re.search(rf"\b{name}\b", text) for name in unused.values()):
            used = referenced_names(ast.parse(text))
            unused = {key: name for key, name in unused.items() if name not in used}
    assert sorted(unused) == ["snapshot.read_snapshot"]


def test_run_settings_are_declared_only_in_config():
    # every section class of the run configuration lives in config, which
    # does not import the integrator that reads [flow]
    assert "flow" not in relative_imports(PACKAGE / "config.py")
    owners = {p.stem for p in PACKAGE.glob("*.py") for node in parsed(p).body
              if isinstance(node, ast.ClassDef) and node.name.endswith("Config")}
    assert owners == {"config"}


def test_compare_outputs_runs_are_consistent():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # the shipped configs are read as the tool loads; each run has its own
    # directory, which holds its --out
    names = [run.name for run in tool.RUNS]
    assert len(names) == len(set(names))
    assert all(run.out is None or run.out.startswith(run.name + "/") for run in tool.RUNS)


def test_only_the_program_entry_sets_the_allocator_policy():
    # ctypes and mallopt appear in cli alone, mallopt only inside the helper,
    # and the helper is called only from main, so importing cryf sets nothing
    def names(node):
        return {name for name in referenced_names(node) if isinstance(name, str)}

    refs = {p.stem: names(parsed(p)) for p in PACKAGE.glob("*.py")}
    assert {stem for stem, found in refs.items() if "ctypes" in found} == {"cli"}
    assert {stem for stem, found in refs.items() if "mallopt" in found} == {"cli"}
    cli = parsed(PACKAGE / "cli.py").body
    users = [node for node in cli if {"mallopt", "_keep_freed_memory"} & names(node)]
    assert [getattr(node, "name", None) for node in users] == ["_keep_freed_memory", "main"]
    assert "mallopt" not in names(users[1])
