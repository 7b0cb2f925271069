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

Term lines are read in blocks of at most _LINES_PER_PASS raw lines.
numpy's C reader (numpy.loadtxt into int64) takes each block first; it
splits on the whitespace str.split splits on and skips the same blank
lines, and refuses ragged lines, values past int64 and every spelling
int reads differently (underscores, non-ASCII digits).  A block it
refuses, or whose field count is wrong, falls back to the per-line path:
str.split and whole-column int passes, walked line by line on a fault.
Either way a file gives the polynomial, or the error type and text, of
the per-line path alone.  That holds on every numpy from 1.24: from
numpy 1.23 until that deprecation expired, loadtxt read an int64 field
that failed the integer parse as a float and cast it ('1.5' as 1, 2^63
wrapped), warning only through a DeprecationWarning the default filters
hide.  One probe, run when the first term line is read, finds such a
numpy, and then every block takes the per-line path.
"""

from __future__ import annotations

import sys
import warnings
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

import numpy as np

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


# Raw term lines read per block: enough that the reader runs in C, few
# enough that a block's lines and fields stay small beside the columns.
_LINES_PER_PASS = 1 << 12


def _term_columns(width: int, lines: Iterator[str], count: int) -> tuple[list[int], list[int]]:
    """The coefficient column and the flat exponent column of the next count term lines.

    Raw lines go in blocks of at most _LINES_PER_PASS, never more than the
    term lines still due, so the stream is left just past the last one.
    numpy's C reader takes each block, and _split_block any it refuses.
    """
    coeffs: list[int] = []
    flat: list[int] = []
    while count > 0 and (block := list(islice(lines, min(count, _LINES_PER_PASS)))):
        ints = _read_block_c(width, block)
        if ints is None:
            rows = list(filter(None, map(str.split, block)))
            if not rows:
                continue
            ints = _split_block(width, rows)
        block_coeffs = ints[::width]
        del ints[::width]
        # Every line of the block has its fields as ints by now, so a
        # negative exponent is its first fault.  The check runs on the list:
        # a numpy comparison's first call costs more resident memory than a block.
        if ints and min(ints) < 0:
            raise FormatError("negative exponent")
        count -= len(block_coeffs)
        coeffs += block_coeffs
        flat += ints
    return coeffs, flat


def _read_block_c(width: int, block: list[str]) -> list[int] | None:
    """The fields of the block's term lines as ints, row after row, read by
    numpy's C reader; None where it refuses them or finds a wrong field count.

    A block of blank lines is not handed over, since loadtxt warns on it.
    """
    if not any(map(str.split, block)) or not _c_reader_is_exact():
        return None
    try:
        table = np.loadtxt(block, dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, TypeError):
        return None
    return table.ravel().tolist() if table.shape[1] == width else None


@cache
def _c_reader_is_exact() -> bool:
    """Whether numpy's loadtxt refuses int64 fields that only a float parse
    reads, rather than casting them from floats."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        for field in ("1.5", str(1 << 63)):
            try:
                np.loadtxt([field], dtype=np.int64, comments=None)
            except ValueError:
                continue
            return False
    return True


def _split_block(width: int, rows: list[list[str]]) -> list[int]:
    """The fields of the split term lines as ints, row after row.

    One field-count scan and one map(int, ...) over every field check and
    convert them.  A block that fails either is walked line by line by
    _first_fault, so the error is the first faulty line's.
    """
    if any(map(width.__ne__, map(len, rows))):
        _first_fault(width, rows)
    try:
        ints = list(map(int, chain.from_iterable(rows)))
    except ValueError:
        _first_fault(width, rows)
    return ints


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
    coeffs, flat = _term_columns(1 + nvars, lines, count)
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
