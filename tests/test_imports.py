"""The package's imports: every import sits in a module's import block,
and the modules of siegel import each other without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "siegel"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _local_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the imports inside function bodies."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.extend(inner.lineno for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(set(lines))


def _internal_imports(tree: ast.Module, modules: set[str]) -> set[str]:
    """The modules of the package that a module imports, relatively or by
    the absolute name siegel.x."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "siegel." * node.level + (node.module or "")
            base = base.rstrip(".")
            names += [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return {name.split(".")[1] for name in names
            if name.startswith("siegel.")} & modules


def test_no_import_inside_a_function():
    local = {name: lines for name, tree in _trees().items()
             if (lines := _local_imports(tree))}
    assert local == {}


def test_internal_import_graph_is_acyclic():
    trees = _trees()
    modules = set(trees) - {"__init__"}
    graph = {name: _internal_imports(trees[name], modules)
             for name in modules}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle {exc.args[1]}") from None
    assert "operators" in graph["connection"]
    assert "connection" not in graph["operators"]


def test_qseries_takes_only_the_degeneracy_error_from_symplectic():
    # the exact solver lives beside its one caller, membership_in_Mw
    taken = [alias.name for node in ast.walk(_trees()["qseries"])
             if isinstance(node, ast.ImportFrom)
             and node.module == "symplectic"
             for alias in node.names]
    assert taken == ["DegeneracyError"]
