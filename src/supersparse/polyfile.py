"""The textual polynomial file format.

    sp 1
    ring Z            (or: ring Zp <p>)
    nvars <n>
    terms <t>
    <coeff> <e1> ... <en>     (t lines)

UTF-8 text of whitespace-separated decimals, newline terminated, no locale formatting.
The writer emits canonical order; the parser canonicalizes whatever it
reads, so write(read(file)) is byte-identical for canonical inputs, and
canonical input is never sorted.  load and loads read exactly one block
and refuse text after it; read_block reads one block of a stream of
concatenated blocks.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

from .errors import ArityError, FormatError
from .poly import SparsePoly, _exponent_columns, _interleave, canonicalize_columns
from .ring import ZZ, RingSpec, Zp

MAGIC = "sp 1"


def dumps(f: SparsePoly) -> str:
    """The file text of f.

    The term block is one %-format call over the coefficient column
    interleaved with the flat exponent column, so no per-line string is
    built.
    """
    t = len(f)
    n = f.nvars
    if t:
        fields = _interleave([f.coeffs, *_exponent_columns(f)])
        try:
            body = ("%d" + " %d" * n + "\n") * t % tuple(fields)
        except ValueError:  # %d refuses integers past the int-to-text limit
            raise _digit_limit("a number to write") from None
    else:
        body = ""
    return f"{MAGIC}\nring {f.ring}\nnvars {n}\nterms {t}\n{body}"


def _digit_limit(what: str) -> FormatError:
    limit = sys.get_int_max_str_digits()
    return FormatError(f"{what} has more than {limit} digits, Python's int-str conversion limit")


def dump(f: SparsePoly, path: str) -> None:
    Path(path).write_text(dumps(f), newline="\n")


def _end_of_file(what: str) -> FormatError:
    return FormatError(f"unexpected end of file while reading {what}")


def _raise_at_end(what: str) -> Iterator:
    raise _end_of_file(what)
    yield  # a generator: the error is raised when iteration reaches it


def _next_line(lines: Iterator[str], what: str) -> str:
    return next(chain(filter(None, map(str.strip, lines)), _raise_at_end(what)))


def _header_int(lines: Iterator[str], key: str) -> int:
    parts = _next_line(lines, key).split()
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"bad {key} line")
    try:
        return int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer {key}: {parts[1]}") from None


# Term lines parsed per block of the whole-column passes: enough that the
# passes run in C, few enough that the split lines stay small beside the columns.
_LINES_PER_PASS = 1 << 12


def _term_columns(width: int, rows: Iterator[list[str]]) -> tuple[list[int], list[int]]:
    """The coefficient column and the flat exponent column of the term lines' fields.

    Lines go in blocks of _LINES_PER_PASS, each checked and converted by
    whole-column passes: one field-count scan, one map(int, ...) over every
    field, the coefficients cut out of the result, one scan for a negative
    exponent.  A block that fails a pass is walked line by line by
    _first_fault, so the error is the first faulty line's, as ever.
    """
    coeffs: list[int] = []
    flat: list[int] = []
    while block := list(islice(rows, _LINES_PER_PASS)):
        if any(map(width.__ne__, map(len, block))):
            _first_fault(width, block)
        try:
            ints = list(map(int, chain.from_iterable(block)))
        except ValueError:
            _first_fault(width, block)
        coeffs += ints[::width]
        del ints[::width]
        if ints and min(ints) < 0:
            _first_fault(width, block)
        flat += ints
    return coeffs, flat


def _first_fault(width: int, block: list[list[str]]) -> None:
    """Raise the FormatError of the first faulty line among the block's lines."""
    for fields in block:
        if len(fields) != width:
            raise FormatError(f"term line has {len(fields)} fields, expected {width}")
        try:
            exps = list(map(int, fields))[1:]
        except ValueError as err:
            limit = sys.get_int_max_str_digits()
            if any(len(x) > limit and x.lstrip("+-").isdigit() for x in fields):
                raise _digit_limit("a term line field") from None
            raise FormatError(f"non-integer field in term line: {err}") from err
        if exps and min(exps) < 0:
            raise FormatError("negative exponent")


def read_block(lines: Iterator[str]) -> SparsePoly:
    """Parse one polynomial block from a line iterator, leaving it at the block's end."""
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
    # Blank lines split to nothing and are skipped.  A count past
    # sys.maxsize is more lines than any stream holds.
    rows = islice(filter(None, map(str.split, lines)), min(count, sys.maxsize))
    coeffs, flat = _term_columns(1 + nvars, rows)
    if len(coeffs) < count:
        raise _end_of_file("a term")
    try:
        return canonicalize_columns(coeffs, flat, nvars, ring)
    except (ArityError, ValueError) as e:
        raise FormatError(str(e)) from e


def _read_whole(lines: Iterator[str]) -> SparsePoly:
    f = read_block(lines)
    if any(map(str.strip, lines)):
        raise FormatError("text after the end of the polynomial block")
    return f


def loads(text: str) -> SparsePoly:
    return _read_whole(iter(text.splitlines()))


def load(path: str) -> SparsePoly:
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_whole(iter(fh))
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text ({e.reason})") from None
