"""Imports are plain, read from the source with ast.

numpy is a declared dependency, so no module guards an import with
try/except ImportError to run in a configuration without it, and no module
reads numpy through another module's handle (`dense._np`): each one that
uses numpy imports it itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "supersparse"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
IMPORT_ERRORS = {"ImportError", "ModuleNotFoundError"}
NUMPY_NAMES = {"numpy", "np", "_np"}


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(node, ast.Name) and node.id in IMPORT_ERRORS for node in caught)


def test_no_import_guarded_by_import_error():
    guarded = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Try)
        and any(_catches_import_error(h) for h in node.handlers)
        and any(isinstance(inner, (ast.Import, ast.ImportFrom)) for s in node.body for inner in ast.walk(s))
    ]
    assert guarded == []


def test_no_module_reads_another_modules_numpy():
    reads = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
            and node.attr in NUMPY_NAMES
        )
        or (isinstance(node, ast.ImportFrom) and any(a.name in NUMPY_NAMES for a in node.names))
    ]
    assert reads == []
