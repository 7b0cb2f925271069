"""Where the package checks that columns are canonical.

from_columns trusts its caller and, as shipped, skips the whole-column
checks; conftest turns them back on for every other test.  So the tests
here pin two things: each from_columns call site in src/ is one whose
columns are canonical by construction, and, with the checks as shipped,
input from outside the package is still checked where it enters.
"""

import ast
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import ArityError, FormatError, SparsePoly, Term, canonicalize, from_pairs, poly
from supersparse.polyfile import loads

from test_columns import ORDER, RESIDUE, ZERO, canonical_columns
from test_reference_parse import outcome

SRC = Path(__file__).resolve().parent.parent / "src" / "supersparse"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}

# Every use of from_columns in src/, by module and enclosing function, with
# why the columns it is handed are canonical.  A new call site fails
# test_every_from_columns_site_is_listed until it is reviewed and listed.
TRUSTED_SITES = [
    ("poly.from_terms", "the caller's columns, flattened; the tuples are checked first when checks are on"),
    ("poly.canonicalize_columns",
     "sorted and merged unless strictly ascending, reduced mod p, zeros compressed out"),
    ("poly.kronecker_pack", "every exponent is checked below the bound: packing is injective, in order"),
    ("poly.kronecker_unpack", "every key is checked below bound**nvars: unpacking is injective, in order"),
    ("poly.shift", "f's coefficients; the shift keeps the order and the lowest exponent is checked"),
    ("poly.gap_split", "a block is a run of f's terms, all shifted down by the run's lowest exponent"),
    ("poly.from_dense", "DensePoly holds canonical residues; zeros are dropped in exponent order"),
    ("arith._merge", "_merge_keyed emits ascending distinct keys of compatible operands, no zero sum"),
    ("arith.mul_naive", "rows of ascending keys and nonzero products merge through _merge_keyed"),
    ("arith.mul_heap", "the heap pops keys in ascending order once each; zero sums are skipped"),
    ("arith.mul", "sorted unique keys from the reduce; zero sums masked out after the reduction mod p"),
    ("arith.divmod_heap", "quotient terms come in descending exponent, nonzero, and are reversed"),
    ("arith.divmod_heap", "remainder terms come in descending exponent, nonzero, and are reversed"),
    ("arith._primitive", "f's exponents; dividing by the content keeps every coefficient nonzero"),
]


class _Uses(ast.NodeVisitor):
    """Every load of one name, by enclosing module and function."""

    def __init__(self, module: str, name: str):
        self.scope = [module]
        self.name = name
        self.sites: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id == self.name:
            self.sites.append(".".join(self.scope))

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def _sites(name: str) -> list[str]:
    found = []
    for module, tree in MODULES.items():
        uses = _Uses(module, name)
        uses.visit(tree)
        found += uses.sites
    return sorted(found)


def test_every_from_terms_site_is_listed():
    # from_terms is the tuple-column wrapper kept for callers outside the
    # package: every build in src/ goes through from_columns.
    assert _sites("from_terms") == []


def test_every_from_columns_site_is_listed():
    assert _sites("from_columns") == sorted(site for site, _ in TRUSTED_SITES)
    assert all(reason for _, reason in TRUSTED_SITES)


def test_shipped_default_is_off():
    # conftest switches the checks on for the suite, so read the source.
    assigned = [
        (name, ast.unparse(node.value))
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if getattr(target, "id", getattr(target, "attr", None)) == "_CHECK_BUILDS"
    ]
    assert assigned == [("poly", "False")]


@contextmanager
def checks(on: bool):
    was = poly._CHECK_BUILDS
    poly._CHECK_BUILDS = on
    try:
        yield
    finally:
        poly._CHECK_BUILDS = was


def _text(ring, nvars, coeffs, exps) -> str:
    lines = "".join(f"{c}{''.join(f' {e}' for e in es)}\n" for c, es in zip(coeffs, exps))
    return f"sp 1\nring {ring}\nnvars {nvars}\nterms {len(coeffs)}\n{lines}"


@settings(max_examples=300, deadline=None)
@given(canonical_columns(), st.data())
def test_one_fault_is_caught_at_the_boundary_as_shipped(case, data):
    # The faults of test_columns' test_one_fault_raises_the_same_error_through_both_routes.
    ring, nvars, coeffs, exps = case
    kinds = ["arity-long", "arity-short", "zero"]
    if ring.is_field:
        kinds.append("residue")
    if len(exps) >= 2:
        kinds += ["swap", "repeat"]
    if not exps:
        coeffs, exps = [1], [(0,) * nvars]
    kind = data.draw(st.sampled_from(kinds))
    i = data.draw(st.integers(0, len(exps) - 1))
    if kind.startswith("arity"):
        bad = exps[i] + (0,) if kind == "arity-long" else exps[i][1:]
        exps[i] = bad
        expected = (ArityError, f"exponent tuple {bad} does not have arity {nvars}")
    elif kind == "zero":
        coeffs[i] = 0
        expected = ZERO
    elif kind == "residue":
        coeffs[i] = data.draw(st.sampled_from([-1, ring.modulus, ring.modulus + coeffs[i]]))
        expected = RESIDUE
    else:
        i = min(i, len(exps) - 2)
        if kind == "swap":
            exps[i], exps[i + 1] = exps[i + 1], exps[i]
        else:
            exps[i + 1] = exps[i]
        expected = ORDER
    pairs = list(zip(coeffs, exps))
    routes = {
        "SparsePoly": lambda: SparsePoly(ring, nvars, [Term(c, e) for c, e in pairs]),
        "canonicalize": lambda: canonicalize(pairs, nvars, ring),
        "from_pairs": lambda: from_pairs(ring, nvars, pairs),
        "loads": lambda: loads(_text(ring, nvars, coeffs, exps)),
    }
    with checks(False):
        shipped = {name: outcome(build) for name, build in routes.items()}
    with checks(True):
        checked = {name: outcome(build) for name, build in routes.items()}
    assert shipped == checked
    assert shipped["SparsePoly"] == expected
    if kind.startswith("arity"):
        assert shipped["canonicalize"] == shipped["from_pairs"] == expected
        assert shipped["loads"][0] is FormatError
    else:
        # The other faults are what canonicalize and the parser repair.
        assert isinstance(shipped["canonicalize"], SparsePoly)
        assert shipped["loads"] == shipped["from_pairs"] == shipped["canonicalize"]
