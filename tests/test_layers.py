"""Module layering of the package, read from the source with ast.

The order is ring/dense -> poly -> arith -> factor/interp.  Term-level
jobs (building, packing, shifting, splitting and evaluating terms) live
in poly, and arith, below factor and interp, imports neither.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "supersparse"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}

# The term representation and the policy for building terms in bulk.
TERM_LEVEL = {"Term", "make_terms", "gc_paused"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Sibling modules a module imports from, as bare names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def _names_used(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_modules_found():
    assert {"arith", "dense", "factor", "interp", "poly", "ring"} <= set(MODULES)


def test_no_import_inside_a_function():
    nested = [
        f"{name}.py:{inner.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_arith_imports_neither_factor_nor_interp():
    assert not _imported_modules(MODULES["arith"]) & {"factor", "interp"}


def test_term_level_names_stay_in_poly():
    # __init__ is exempt: it re-exports Term as public API and builds nothing.
    users = {
        name: sorted(_names_used(tree) & TERM_LEVEL)
        for name, tree in MODULES.items()
        if name not in ("poly", "__init__") and _names_used(tree) & TERM_LEVEL
    }
    assert users == {}
