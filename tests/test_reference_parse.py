"""The column parser and canonicalize against the per-term code they replaced.

The references below are the earlier per-line parser and per-term
sort-and-merge, kept verbatim apart from their names.  The new code must
give the same polynomial, or the same exception type and text, on every
input.  The one intended difference: load and loads now refuse non-blank
text after the block, which the reference ignored.
"""

import sys
from operator import itemgetter
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import ZZ, ArityError, FormatError, RingSpec, SparsePoly, Zp, canonicalize
from supersparse.poly import from_terms
from supersparse.polyfile import MAGIC, _digit_limit, _header_int, _next_line, loads

from test_cli import sp_texts

# Colex sort key of an exponent tuple: the tuple reversed.
_colex_key = itemgetter(slice(None, None, -1))


def reference_canonicalize(raw_terms: Iterable, nvars: int, ring: RingSpec) -> SparsePoly:
    colex = nvars > 1  # one variable: exps is its own sort key
    keyed = []
    for item in raw_terms:
        coeff, exps = item
        exps = tuple(exps)
        if len(exps) != nvars:
            raise ArityError(f"exponent tuple {exps} does not have arity {nvars}")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be natural numbers")
        keyed.append((_colex_key(exps) if colex else exps, coeff, exps))
    keyed.sort(key=itemgetter(0))
    out_c: list[int] = []
    out_e: list[tuple[int, ...]] = []
    i = 0
    while i < len(keyed):
        key, coeff, exps = keyed[i]
        i += 1
        while i < len(keyed) and keyed[i][0] == key:
            coeff += keyed[i][1]
            i += 1
        coeff = ring.normalize(coeff)
        if coeff != 0:
            out_c.append(coeff)
            out_e.append(exps)
    # The sort keys are dead; freeing them first keeps a large input's
    # peak memory below that of keys and terms together.
    del keyed
    return from_terms(ring, nvars, out_c, out_e)


def reference_read_block(lines: Iterator[str]) -> SparsePoly:
    if _next_line(lines, "magic") != MAGIC:
        raise FormatError(f"expected magic line '{MAGIC}'")
    ring_line = _next_line(lines, "ring").split()
    if ring_line == ["ring", "Z"]:
        ring: RingSpec = ZZ
    elif len(ring_line) == 3 and ring_line[:2] == ["ring", "Zp"]:
        try:
            ring = Zp(int(ring_line[2]))
        except ValueError as e:
            raise FormatError(str(e)) from e
    else:
        raise FormatError(f"bad ring line: {' '.join(ring_line)}")
    nvars = _header_int(lines, "nvars")
    count = _header_int(lines, "terms")
    if count < 0:
        raise FormatError(f"negative terms count: {count}")
    raw_terms = []
    for _ in range(count):
        parts = _next_line(lines, "a term").split()
        if len(parts) != 1 + nvars:
            raise FormatError(f"term line has {len(parts)} fields, expected {1 + nvars}")
        try:
            coeff = int(parts[0])
            exps = tuple(int(x) for x in parts[1:])
        except ValueError as e:
            limit = sys.get_int_max_str_digits()
            if any(len(x) > limit and x.lstrip("+-").isdigit() for x in parts):
                raise _digit_limit("a term line field") from None
            raise FormatError(f"non-integer field in term line: {e}") from e
        if any(e < 0 for e in exps):
            raise FormatError("negative exponent")
        raw_terms.append((coeff, exps))
    try:
        return reference_canonicalize(raw_terms, nvars, ring)
    except Exception as e:
        raise FormatError(str(e)) from e


def outcome(call, *args):
    """The value of call(*args), or the type and text of what it raised."""
    try:
        return call(*args)
    except Exception as e:  # the comparison is the point: any type may differ
        return type(e), str(e)


def reference_loads(text: str):
    lines = iter(text.splitlines())
    expected = outcome(reference_read_block, lines)
    if isinstance(expected, SparsePoly) and any(map(str.strip, lines)):
        return FormatError, "text after the end of the polynomial block"
    return expected


@settings(max_examples=600, deadline=None)
@given(sp_texts())
def test_loads_matches_the_per_line_parser(text):
    assert outcome(loads, text) == reference_loads(text)


@pytest.mark.parametrize("text", [
    "sp 1\nring Z\nnvars 1\nterms 99999999999999999999999\n1 0\n",
    "sp 1\nring Z\nnvars 0\nterms 1\n5\n",
    "sp 1\nring Z\nnvars 0\nterms 2\n5\n",
    "sp 1\nring Z\nnvars -1\nterms 1\n5\n",
    "sp 1\nring Z\nnvars 2\nterms 1\n-1 0 -1\n",
    "sp 1\nring Z\nnvars 2\nterms 2\n1 -1 x\n1 2\n",
    "sp 1\nring Z\nnvars 2\nterms 2\n1 2\n1 -1 x\n",
    "sp 1\nring Zp 7\nnvars 2\nterms 3\n\n3 1 1\n  \n4 1 1\n1 0 0\n",
    "sp 1\nring Z\nnvars 1\nterms 1\n1 " + "9" * (sys.get_int_max_str_digits() + 1) + "\n",
])
def test_loads_matches_the_per_line_parser_on_edge_cases(text):
    assert outcome(loads, text) == reference_loads(text)


@st.composite
def raw_term_lists(draw):
    """Shuffled (coeff, exps) pairs: duplicate exponents, sums that vanish,
    residues outside [0, p), and at times a wrong arity or a negative
    exponent, alone or together."""
    nvars = draw(st.integers(1, 3))
    ring = draw(st.sampled_from([ZZ, Zp(2), Zp(97), Zp(2**61 - 1)]))
    exp = st.one_of(st.integers(0, 3), st.integers(0, 1 << 70))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70))
    pairs = draw(st.lists(st.tuples(coeff, st.tuples(*[exp] * nvars)), max_size=12))
    pairs += [(-c, e) for c, e in draw(st.lists(st.sampled_from(pairs), max_size=3))] if pairs else []
    if draw(st.booleans()):
        # Canonical order with no duplicate, as the writer emits it.
        pairs = [(c, e) for e, c in sorted(dict((e, c) for c, e in pairs).items(), key=lambda ec: ec[0][::-1])]
    else:
        pairs = draw(st.permutations(pairs))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        bad = draw(st.sampled_from([
            (0,) * (nvars + 1), (1,) * (nvars - 1), (-1,) + (0,) * (nvars - 1),
            (0,) * (nvars - 1) + (-(1 << 70),),
        ]))
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(coeff), bad))
    return pairs, nvars, ring


@settings(max_examples=400, deadline=None)
@given(raw_term_lists())
def test_canonicalize_matches_the_per_term_merge(case):
    pairs, nvars, ring = case
    assert outcome(canonicalize, pairs, nvars, ring) == outcome(reference_canonicalize, pairs, nvars, ring)
