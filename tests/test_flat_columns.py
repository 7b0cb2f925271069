"""The flat exponent column of SparsePoly.

A polynomial stores its exponents as one term-major column of plain ints,
so building, reading and writing a t-term polynomial makes no container
per term.  The exponent tuples (.exps) are a view that only poly reads;
every route into a polynomial gives the same columns, hash and views.
"""

import ast
import gc
import random
from itertools import chain
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import ZZ, SparsePoly, Term, Zp, canonicalize, divmod_heap, from_pairs, mul, polyfile, zero
from supersparse.bench import random_sparse_poly
from supersparse.poly import from_columns, from_terms
from supersparse.polyfile import dumps, loads

from test_cli import sp_texts
from test_columns import canonical_columns
from test_reference_parse import outcome, reference_loads

SRC = Path(__file__).resolve().parent.parent / "src" / "supersparse"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_only_poly_reads_exps():
    # __init__ is exempt for the same reason as in test_layers: it builds nothing.
    readers = sorted(
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        if name not in ("poly", "__init__")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "exps"
    )
    assert readers == []


def test_flat_column_layout():
    f = from_pairs(ZZ, 2, [(3, (5, 0)), (4, (1, 2))])
    assert f.flat_exps == (5, 0, 1, 2) and f.exps == ((5, 0), (1, 2))
    g = from_pairs(Zp(7), 1, [(1, 9), (2, 4)])
    assert g.flat_exps == (4, 9) and g.exps == ((4,), (9,))
    for nvars in (1, 3, 10**6):
        assert zero(ZZ, nvars).flat_exps == () and zero(ZZ, nvars).exps == ()


def _text(ring, nvars, coeffs, exps) -> str:
    lines = "".join(f"{c}{''.join(f' {e}' for e in es)}\n" for c, es in zip(coeffs, exps))
    return f"sp 1\nring {ring}\nnvars {nvars}\nterms {len(coeffs)}\n{lines}"


@settings(max_examples=200, deadline=None)
@given(canonical_columns(), st.randoms(use_true_random=False))
def test_every_route_builds_the_same_polynomial(case, rnd):
    ring, nvars, coeffs, exps = case
    flat = list(chain.from_iterable(exps))
    shuffled = list(zip(coeffs, exps))
    rnd.shuffle(shuffled)
    routes = [
        from_columns(ring, nvars, coeffs, flat),
        from_terms(ring, nvars, coeffs, exps),
        SparsePoly(ring, nvars, [Term(c, e) for c, e in zip(coeffs, exps)]),
        canonicalize(shuffled, nvars, ring),
        loads(_text(ring, nvars, *zip(*shuffled)) if shuffled else _text(ring, nvars, [], [])),
    ]
    first = routes[0]
    assert first.flat_exps == tuple(flat) and first.coeffs == tuple(coeffs)
    for f in routes:
        assert f == first and hash(f) == hash(first)
        assert f.exps == tuple(exps)
        assert f.terms == tuple(Term(c, e) for c, e in zip(coeffs, exps))
    assert loads(dumps(first)) == first


@settings(max_examples=300, deadline=None)
@given(sp_texts())
def test_loads_in_passes_of_two_lines_matches_the_per_line_parser(text):
    # The parser checks its lines in blocks; small blocks put the first
    # fault past a block boundary, where it must still win.
    was = polyfile._LINES_PER_PASS
    polyfile._LINES_PER_PASS = 2
    try:
        assert outcome(loads, text) == reference_loads(text)
    finally:
        polyfile._LINES_PER_PASS = was


def _objects_kept(call):
    """How many more objects the collector tracks after call() than before it.

    The collector stays off in between, so a container made per term
    would still be tracked when the count is taken.
    """
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = call()
        grown = len(gc.get_objects()) - before
    finally:
        if was:
            gc.enable()
    del kept
    return grown


def test_no_container_per_term():
    rng = random.Random(20)
    f = random_sparse_poly(rng, terms=20_000, degbits=60)
    g = from_pairs(ZZ, 1, [(3, 0), (1, 1)])
    fg = mul(f, g)
    text = dumps(f)
    grown = {
        "mul": _objects_kept(lambda: mul(f, g)),
        "loads": _objects_kept(lambda: loads(text)),
        "divmod_heap": _objects_kept(lambda: divmod_heap(fg, g)),
    }
    assert all(n < 64 for n in grown.values()), grown
