"""The column representation of SparsePoly.

A polynomial stores a coefficient column and an exponent column.  The
Term view (.terms) is built on first read for callers outside the
package; inside it only poly touches terms.  Both routes into a
polynomial, columns through from_terms and Terms through SparsePoly,
run the same checks, so they give the same polynomial, and the same
error type and text for an input with one fault.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import ArityError, SparsePoly, Term, ZZ, Zp
from supersparse.poly import from_terms

SRC = Path(__file__).resolve().parent.parent / "src" / "supersparse"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}

F7 = Zp(7)


def test_only_poly_reads_terms():
    # __init__ is exempt for the same reason as in test_layers: it builds nothing.
    readers = sorted(
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        if name not in ("poly", "__init__")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    )
    assert readers == []


@st.composite
def canonical_columns(draw):
    """(ring, nvars, coeffs, exps) of a canonical polynomial, possibly zero."""
    ring = draw(st.sampled_from([ZZ, F7]))
    nvars = draw(st.integers(1, 3))
    exps = draw(st.sets(st.tuples(*[st.integers(0, 1 << 70)] * nvars), max_size=8))
    exps = sorted(exps, key=lambda e: e[::-1])
    if ring.is_field:
        coeff = st.integers(1, ring.modulus - 1)
    else:
        coeff = st.integers(-(1 << 80), 1 << 80).filter(bool)
    coeffs = [draw(coeff) for _ in exps]
    return ring, nvars, coeffs, exps


def _terms(coeffs, exps):
    return [Term(c, e) for c, e in zip(coeffs, exps)]


@settings(max_examples=200)
@given(canonical_columns())
def test_columns_and_terms_build_the_same_polynomial(case):
    ring, nvars, coeffs, exps = case
    f = from_terms(ring, nvars, coeffs, exps)
    g = SparsePoly(ring, nvars, _terms(coeffs, exps))
    assert f == g and hash(f) == hash(g)
    assert f.coeffs == tuple(coeffs) and f.exps == tuple(exps)
    assert f.terms == tuple(_terms(coeffs, exps))
    assert all(type(t) is Term for t in f.terms)
    assert SparsePoly(ring, nvars, f.terms) == f
    assert len(f) == len(coeffs) and f.is_zero() == (not coeffs)


def test_terms_view_is_read_only():
    f = from_terms(ZZ, 1, [1, 2], [(0,), (3,)])
    assert f.terms is f.terms
    for name in ("terms", "coeffs", "exps"):
        with pytest.raises(AttributeError):
            setattr(f, name, ())


def test_columns_of_different_lengths_are_refused():
    for coeffs, exps in (([1, 2], [(0,)]), ([1], [(0,), (1,)])):
        with pytest.raises(ValueError, match="columns differ in length"):
            from_terms(ZZ, 1, coeffs, exps)


# Each fault breaks exactly one check; the error it must raise.
ZERO = (ValueError, "zero coefficient stored in canonical form")
RESIDUE = (ValueError, "coefficient not a canonical representative")
ORDER = (ValueError, "terms not strictly ascending in canonical order")


@settings(max_examples=300)
@given(canonical_columns(), st.data())
def test_one_fault_raises_the_same_error_through_both_routes(case, data):
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
    if kind == "arity-long":
        bad = exps[i] + (0,)
        exps[i] = bad
        expected = (ArityError, f"exponent tuple {bad} does not have arity {nvars}")
    elif kind == "arity-short":
        bad = exps[i][1:]
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
    raised = []
    for build in (
        lambda: from_terms(ring, nvars, coeffs, exps),
        lambda: SparsePoly(ring, nvars, _terms(coeffs, exps)),
    ):
        with pytest.raises(Exception) as info:
            build()
        raised.append((type(info.value), str(info.value)))
    assert raised == [expected, expected]
