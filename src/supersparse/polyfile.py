"""The textual polynomial file format.

    sp 1
    ring Z            (or: ring Zp <p>)
    nvars <n>
    terms <t>
    <coeff> <e1> ... <en>     (t lines)

Whitespace-separated decimal, newline terminated, no locale formatting.
The writer emits canonical order; the parser canonicalizes whatever it
reads, so write(read(file)) is byte-identical for canonical inputs.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Iterator

from .errors import FormatError
from .poly import SparsePoly, canonicalize
from .ring import ZZ, RingSpec, Zp

MAGIC = "sp 1"


def dumps(f: SparsePoly) -> str:
    """The file text of f.

    The term block is one %-format call over the coefficient and exponent
    columns, interleaved in C, so no per-line string is built.
    """
    ring = f"ring Zp {f.ring.modulus}" if f.ring.is_field else "ring Z"
    t = len(f)
    flat = chain.from_iterable(chain.from_iterable(zip(zip(f.coeffs), f.exps)))
    line = "%d" + " %d" * f.nvars + "\n" if t else ""
    try:
        body = line * t % tuple(flat)
    except ValueError:  # %d refuses integers past the int-to-text limit
        raise _digit_limit("a number to write") from None
    return f"{MAGIC}\n{ring}\nnvars {f.nvars}\nterms {t}\n{body}"


def _digit_limit(what: str) -> FormatError:
    limit = sys.get_int_max_str_digits()
    return FormatError(f"{what} has more than {limit} digits, Python's int-str conversion limit")


def dump(f: SparsePoly, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(f))


def _next_line(lines: Iterator[str], what: str) -> str:
    for raw in lines:
        line = raw.strip()
        if line:
            return line
    raise FormatError(f"unexpected end of file while reading {what}")


def _header_int(lines: Iterator[str], key: str) -> int:
    parts = _next_line(lines, key).split()
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(f"bad {key} line")
    try:
        return int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer {key}: {parts[1]}") from None


def read_block(lines: Iterator[str]) -> SparsePoly:
    """Parse one polynomial block from a line iterator."""
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
        return canonicalize(raw_terms, nvars, ring)
    except Exception as e:
        raise FormatError(str(e)) from e


def loads(text: str) -> SparsePoly:
    return read_block(iter(text.splitlines()))


def load(path: str) -> SparsePoly:
    with open(path) as fh:
        return read_block(iter(fh))
