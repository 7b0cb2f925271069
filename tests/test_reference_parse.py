"""The column parser and canonicalize against the per-term code they replaced.

The references below are the earlier per-line parser and per-term
sort-and-merge, kept verbatim apart from their names.  The new code must
give the same polynomial, or the same exception type and text, on every
input.  The one intended difference: load and loads now refuse non-blank
text after the block, which the reference ignored.
"""

import random
import sys
import warnings
from operator import itemgetter
from typing import Iterable, Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import ZZ, ArityError, FormatError, RingSpec, SparsePoly, Zp, canonicalize, from_pairs, polyfile
from supersparse.bench import random_sparse_poly
from supersparse.cli import main
from supersparse.poly import from_terms
from supersparse.polyfile import MAGIC, _digit_limit, _header_int, _next_line, dumps, load, loads, read_block

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


# The block reader hands each block of raw term lines to numpy's C reader
# and sends a block it refuses to the per-line path.  The fields below sit
# on both sides of what numpy reads: the int64 edges and the first value
# past them, spellings int() reads and numpy refuses, and whitespace that
# str.split splits on.
_INT64_FIELDS = [str(-(1 << 63)), str((1 << 63) - 1), str(1 << 63), str(-(1 << 63) - 1)]
_BLOCK_FIELDS = st.one_of(
    st.integers(0, 99).map(str),
    st.sampled_from(_INT64_FIELDS),
    st.integers(10**19, 10**30).map(str),
    st.integers(0, 99).map(lambda v: f"+{v}"),
    st.integers(0, 99).map(lambda v: f"00{v}"),
    st.sampled_from(["1_0", "١", "-3"]),
    st.sampled_from(["1.0", "1.5", "1e3", "nan", "inf"]),
)
_SEPARATORS = st.sampled_from([" ", "\t", "\r", "\f", "\xa0", " \t "])
_BLANK_LINES = st.sampled_from(["", " ", "\t", "\xa0", "\f \r"])


@st.composite
def term_block_lines(draw):
    """The lines of one block whose term lines mix the fields above, with
    blank lines among them and at times one ragged line."""
    nvars = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(["ring Z", f"ring Zp {(1 << 61) - 1}"]))
    plain = draw(st.booleans())  # a block numpy reads whole
    field = st.integers(0, 1 << 62).map(str) if plain else _BLOCK_FIELDS
    rows = draw(st.lists(st.lists(field, min_size=1 + nvars, max_size=1 + nvars), max_size=8))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    if plain:
        terms = [" ".join(r) for r in rows]
    else:
        terms = [draw(_SEPARATORS).join(r) + draw(st.sampled_from(["", " ", "\r"])) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        terms.insert(draw(st.integers(0, len(terms))), draw(_BLANK_LINES))
    count = len(rows) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return ["sp 1", ring, f"nvars {nvars}", f"terms {count}"] + terms + draw(st.sampled_from([[], ["1 2"]]))


def _read_and_rest(read, lines):
    """What read makes of the lines and, when it returns, the lines it left."""
    it = iter(lines)
    got = outcome(read, it)
    return got, list(it) if isinstance(got, SparsePoly) else None


@settings(max_examples=500, deadline=None)
@given(term_block_lines())
def test_block_reader_matches_the_per_line_parser(lines):
    expected = _read_and_rest(reference_read_block, lines)
    text = "\n".join(lines) + "\n"
    for per_pass in (polyfile._LINES_PER_PASS, 2):
        with mock.patch.object(polyfile, "_LINES_PER_PASS", per_pass), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # recorded, so the reader runs as it does unobserved
            assert _read_and_rest(read_block, lines) == expected
            assert outcome(loads, text) == reference_loads(text)
        assert caught == []


@pytest.mark.parametrize("lines", [
    ["1 " + str(-(1 << 63))],
    ["-9223372036854775808 1", "9223372036854775807 2", "9223372036854775808 3"],
    ["1 00", "+2 01", "00000000000000000000000000000000000003 2"],
    ["1\t2", "3\f4", "5\xa06", "7\r8"],
    ["1_0 2"],
    ["١ 2"],
    ["1 2", "", "  ", "\xa0", "3 4"],
    ["1 2", "3 4 5"],
    ["1 2", "3"],
    ["1 2\n3 4"],
    ["1.0 2"],
    ["1.5 2"],
    ["1e3 2"],
    ["nan 2"],
    ["inf 2"],
])
def test_block_reader_matches_the_per_line_parser_on_edge_cases(lines):
    lines = ["sp 1", "ring Z", "nvars 1", f"terms {sum(1 for s in lines if s.split())}"] + lines
    expected = _read_and_rest(reference_read_block, lines)
    for per_pass in (polyfile._LINES_PER_PASS, 2):
        with mock.patch.object(polyfile, "_LINES_PER_PASS", per_pass):
            assert _read_and_rest(read_block, lines) == expected


@pytest.fixture
def split_blocks(monkeypatch):
    """The row counts of the blocks that reach the per-line path."""
    seen = []
    split = polyfile._split_block

    def spy(width, rows):
        seen.append(len(rows))
        return split(width, rows)

    monkeypatch.setattr(polyfile, "_split_block", spy)
    return seen


def _file_of(tmp_path, f):
    path = tmp_path / "f.sp"
    path.write_text(dumps(f))
    return str(path)


_LOADTXT = np.loadtxt


def _loadtxt_casting_floats(fname, dtype=float, **kwargs):
    """numpy.loadtxt as numpy 1.23 made it: an int64 field that the integer
    parse refuses is read as a float and cast, with a DeprecationWarning."""
    try:
        return _LOADTXT(fname, dtype=dtype, **kwargs)
    except ValueError:
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        with np.errstate(invalid="ignore"):
            return _LOADTXT(fname, dtype=np.float64, **kwargs).astype(dtype)


@pytest.fixture
def casting_loadtxt(monkeypatch):
    monkeypatch.setattr(np, "loadtxt", _loadtxt_casting_floats)
    polyfile._c_reader_is_exact.cache_clear()
    yield
    polyfile._c_reader_is_exact.cache_clear()


@pytest.mark.parametrize("lines", [["1.5 2"], ["1 2", "1e3 3", "nan 4"], [f"{1 << 63} 2"], ["1 2", "3 4"]])
def test_a_numpy_that_casts_floats_sends_every_block_to_the_per_line_path(lines, casting_loadtxt, split_blocks):
    with pytest.warns(DeprecationWarning):
        assert np.loadtxt(["1.5 2"], dtype=np.int64).tolist() == [1, 2]
    lines = ["sp 1", "ring Z", "nvars 1", f"terms {len(lines)}"] + lines
    assert _read_and_rest(read_block, lines) == _read_and_rest(reference_read_block, lines)
    assert split_blocks == [len(lines) - 4]


def test_word_size_file_never_reaches_the_per_line_path(tmp_path, split_blocks):
    f = random_sparse_poly(random.Random(3), terms=10_000, degbits=60, coeff_bits=40)
    assert load(_file_of(tmp_path, f)) == f
    assert split_blocks == []


def test_one_wide_exponent_sends_one_block_to_the_per_line_path(tmp_path, split_blocks):
    f = random_sparse_poly(random.Random(4), terms=10_000, degbits=60)
    f = from_pairs(ZZ, 1, [(t.coeff, t.exps) for t in f.terms] + [(7, (1 << 70,))])
    assert load(_file_of(tmp_path, f)) == f
    assert split_blocks == [len(f) % polyfile._LINES_PER_PASS]


def test_block_reader_writes_no_warning(tmp_path, capsys, split_blocks):
    # With two terms due the second block is one raw line, here a blank
    # one: a block with no data, which numpy's reader would warn about.
    path = tmp_path / "f.sp"
    path.write_text("sp 1\nring Z\nnvars 1\nterms 2\n1 0\n\n\n2 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load(str(path)) == from_pairs(ZZ, 1, [(1, (0,)), (2, (1,))])
        assert main(["mul", str(path), str(path), "-o", str(tmp_path / "out.sp")]) == 0
    assert caught == [] and capsys.readouterr().err == ""
    assert split_blocks == []
