"""Keyword-only parameters of the public API, read from the source with ast.

A keyword-only parameter is an option; one that no call ever passes is a
knob nobody turns, and its default is the only value the code runs with.
So every keyword-only parameter of a function that supersparse/__init__.py
exports must be passed by name, to that same function, in some call under
src/ or tests/.  An environment variable would be a knob that no call
passes, so no module under src/ reads the environment.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supersparse"
TREES = {
    path: ast.parse(path.read_text(), str(path))
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
}


def _exported() -> dict[str, set[str]]:
    """Module stem -> names that __init__ imports from it."""
    out: dict[str, set[str]] = {}
    for node in TREES[SRC / "__init__.py"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


def _keyword_only() -> dict[str, list[str]]:
    """Exported function name -> its keyword-only parameters, in order."""
    out = {}
    for module, names in _exported().items():
        for node in TREES[SRC / f"{module}.py"].body:
            if isinstance(node, ast.FunctionDef) and node.name in names and node.args.kwonlyargs:
                out[node.name] = [arg.arg for arg in node.args.kwonlyargs]
    return out


def _keywords_passed() -> set[tuple[str, str]]:
    """(function name, keyword) for every call that passes a keyword by name."""
    out = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            out.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return out


def test_no_library_call_pseudo_divides():
    # Every division that decides something divides strictly; pseudo-division
    # is reached only by the divmod command's --pseudo flag.
    passed = [
        (path.name, ast.unparse(kw.value))
        for path, tree in TREES.items()
        if path.parent == SRC
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "pseudo"
    ]
    assert passed == [("cli.py", "args.pseudo")]


def test_no_module_reads_the_environment():
    environment = {"environ", "environb", "getenv", "getenvb"}
    reads = [
        f"{path.name}:{node.lineno}"
        for path, tree in TREES.items()
        if path.parent == SRC
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in environment
            and isinstance(node.value, ast.Name) and node.value.id == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and environment & {alias.name for alias in node.names})
    ]
    assert not reads, f"environment reads under src/: {reads}"


def test_exports_found():
    assert {"SparsePoly", "mul", "interpolate_multivariate", "to_dense"} <= set().union(
        *_exported().values()
    )


def test_every_keyword_only_parameter_is_passed_somewhere():
    passed = _keywords_passed()
    unset = [
        f"{name}({param}=)"
        for name, params in sorted(_keyword_only().items())
        for param in params
        if (name, param) not in passed
    ]
    assert not unset, f"keyword-only parameters that no call passes: {unset}"
