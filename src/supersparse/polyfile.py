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
from .poly import SparsePoly, canonicalize_columns
from .ring import ZZ, RingSpec, Zp

MAGIC = "sp 1"


def dumps(f: SparsePoly) -> str:
    """The file text of f.

    The term block is one %-format call over the coefficient and exponent
    columns, interleaved in C, so no per-line string is built.
    """
    t = len(f)
    flat = chain.from_iterable(chain.from_iterable(zip(zip(f.coeffs), f.exps)))
    line = "%d" + " %d" * f.nvars + "\n" if t else ""
    try:
        body = line * t % tuple(flat)
    except ValueError:  # %d refuses integers past the int-to-text limit
        raise _digit_limit("a number to write") from None
    return f"{MAGIC}\nring {f.ring}\nnvars {f.nvars}\nterms {t}\n{body}"


def _digit_limit(what: str) -> FormatError:
    limit = sys.get_int_max_str_digits()
    return FormatError(f"{what} has more than {limit} digits, Python's int-str conversion limit")


def dump(f: SparsePoly, path: str) -> None:
    Path(path).write_text(dumps(f), newline="\n")


def _end_of_file(what: str) -> Iterator:
    raise FormatError(f"unexpected end of file while reading {what}")
    yield  # a generator: the error is raised when iteration reaches it


def _next_line(lines: Iterator[str], what: str) -> str:
    return next(chain(filter(None, map(str.strip, lines)), _end_of_file(what)))


def _header_int(lines: Iterator[str], key: str) -> int:
    parts = _next_line(lines, key).split()
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"bad {key} line")
    try:
        return int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer {key}: {parts[1]}") from None


def _term_columns(width: int, rows: Iterator[list[str]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The coefficient column and the exponent column of the term lines' fields.

    Each line's coefficient and exponent tuple go straight onto their
    columns, so no (coeff, exps) pair is kept per term.
    """
    coeffs: list[int] = []
    exps: list[tuple[int, ...]] = []
    put_coeff = coeffs.append
    put_exps = exps.append
    for fields in rows:
        if len(fields) != width:
            raise FormatError(f"term line has {len(fields)} fields, expected {width}")
        try:
            coeff, *e = map(int, fields)
        except ValueError as err:
            limit = sys.get_int_max_str_digits()
            if any(len(x) > limit and x.lstrip("+-").isdigit() for x in fields):
                raise _digit_limit("a term line field") from None
            raise FormatError(f"non-integer field in term line: {err}") from err
        if e and min(e) < 0:
            raise FormatError("negative exponent")
        put_coeff(coeff)
        put_exps(tuple(e))
    return coeffs, exps


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
    # Blank lines split to nothing and are skipped.  No stream holds
    # sys.maxsize lines, so a larger count meets the end of the file.
    fields = chain(filter(None, map(str.split, lines)), _end_of_file("a term"))
    rows = islice(fields, min(count, sys.maxsize))
    coeffs, exps = _term_columns(1 + nvars, rows)
    try:
        return canonicalize_columns(coeffs, exps, nvars, ring)
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
