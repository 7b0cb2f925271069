"""Independent output checks, run outside the timed region.

Uses only builtin integer arithmetic and the benchmark's own streaming reader of
the `sp 1` text format; nothing here imports supersparse.  A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

from workloads import random_prime


class BadOutput(Exception):
    pass


def read_header(lines) -> tuple[int | None, int, int]:
    """(modulus or None, nvars, declared term count) of one polynomial block."""
    def nxt(what):
        for raw in lines:
            if raw.strip():
                return raw.split()
        raise BadOutput(f"file ends before the {what} line")

    if nxt("magic") != ["sp", "1"]:
        raise BadOutput("bad magic line")
    ring = nxt("ring")
    if ring == ["ring", "Z"]:
        p = None
    elif len(ring) == 3 and ring[:2] == ["ring", "Zp"]:
        p = int(ring[2])
    else:
        raise BadOutput(f"bad ring line {ring}")
    nv = nxt("nvars")
    t = nxt("terms")
    if nv[0] != "nvars" or t[0] != "terms":
        raise BadOutput("bad nvars/terms line")
    return p, int(nv[1]), int(t[1])


class Powers:
    """x^e mod P for many e: one table lookup and multiply per byte of e.

    Row k holds x^(j * 256^k) for j < 256, built with builtin pow; rows
    are added as longer exponents arrive.  About ten times faster than
    one pow(x, e, P) per term for 60-bit e.
    """

    def __init__(self, x: int, P: int):
        self.P = P
        self.x = x % P
        self.rows: list[list[int]] = []

    def _grow(self) -> None:
        base = pow(self.x, 256 ** len(self.rows), self.P)
        row = [1] * 256
        for j in range(1, 256):
            row[j] = row[j - 1] * base % self.P
        self.rows.append(row)

    def __call__(self, e: int) -> int:
        v = 1
        P = self.P
        for row in self.rows:
            if not e:
                return v
            v = v * row[e & 255] % P
            e >>= 8
        while e:
            self._grow()
            v = v * self.rows[-1][e & 255] % P
            e >>= 8
        return v


def evaluate(path: Path, point: tuple[int, ...], P: int) -> tuple[int, int | None, int]:
    """Stream a polynomial file: (value at point mod P, ring modulus, degree).

    Also rejects non-canonical content: zero or out-of-range coefficients,
    terms not strictly ascending in colex order, a wrong term count.
    The degree is the top exponent of a univariate file.
    """
    with open(path) as fh:
        p, nvars, count = read_header(fh)
        if nvars != len(point):
            raise BadOutput(f"nvars {nvars}, expected {len(point)}")
        powers = [Powers(x, P) for x in point]
        total = 0
        prev = None
        seen = 0
        for raw in fh:
            fields = raw.split()
            if not fields:
                continue
            seen += 1
            if len(fields) != 1 + nvars:
                raise BadOutput(f"term line with {len(fields)} fields")
            c = int(fields[0])
            exps = [int(x) for x in fields[1:]]
            key = exps[::-1]
            if c == 0 or (p is not None and not 0 < c < p):
                raise BadOutput(f"non-canonical coefficient {c}")
            if prev is not None and key <= prev:
                raise BadOutput("terms not strictly ascending")
            prev = key
            v = c
            for xe, e in zip(powers, exps):
                v = v * xe(e) % P
            total += v
    if seen != count:
        raise BadOutput(f"{seen} term lines, header says {count}")
    degree = prev[0] if prev is not None and nvars == 1 else -1
    return total % P, p, degree


def _field(workdir: Path, name: str, rng: random.Random) -> tuple[int, int]:
    """Modulus and arity for the identity check: the ring's own prime over
    Z_p, a fresh random 61-bit prime over Z."""
    with open(workdir / name) as fh:
        p, nvars, _ = read_header(fh)
    return (p if p is not None else random_prime(rng, 61)), nvars


def check_product(workdir: Path, chk: dict, rng: random.Random) -> None:
    P, nvars = _field(workdir, chk["f"], rng)
    x = tuple(rng.randrange(2, P) for _ in range(nvars))
    fx = evaluate(workdir / chk["f"], x, P)[0]
    gx = evaluate(workdir / chk["g"], x, P)[0]
    hx = evaluate(workdir / chk["out"], x, P)[0]
    if hx != fx * gx % P:
        raise BadOutput("f*g(x) != f(x)*g(x)")


def check_divmod(workdir: Path, chk: dict, rng: random.Random) -> None:
    P, _ = _field(workdir, chk["f"], rng)
    x = (rng.randrange(2, P),)
    fx = evaluate(workdir / chk["f"], x, P)[0]
    gx, _, dg = evaluate(workdir / chk["g"], x, P)
    qx = evaluate(workdir / chk["q"], x, P)[0]
    rx, _, dr = evaluate(workdir / chk["r"], x, P)
    if (qx * gx + rx - fx) % P:
        raise BadOutput("q*g + r != f")
    if dr >= dg:
        raise BadOutput(f"deg r = {dr} is not below deg g = {dg}")


def check_verdict(stdout: str, chk: dict) -> None:
    if stdout.strip() != chk["expect"]:
        raise BadOutput(f"verdict {stdout.strip()!r}, planted {chk['expect']!r}")


def check_roots(stdout: str, chk: dict) -> None:
    got = {Fraction(line) for line in stdout.split()}
    planted = {Fraction(r) for r in chk["expect"]}
    if planted - got:
        raise BadOutput(f"missed roots {sorted(map(str, planted - got))}")
    # f is the planted linear part times a cofactor with no rational
    # roots (unit trailing and leading coefficients, nonzero at +-1), so
    # an extra root r is a root of f iff the linear part vanishes at r.
    for r in got - planted:
        if math.prod(q.denominator * r - q.numerator for q in planted):
            raise BadOutput(f"reported non-root {r}")


def check_power(stdout: str, chk: dict) -> None:
    first = stdout.split("\n", 1)[0].strip()
    if first != f"k={chk['expect']}":
        raise BadOutput(f"{first!r}, planted k={chk['expect']}")


def check_same_file(workdir: Path, chk: dict) -> None:
    if (workdir / chk["out"]).read_bytes() != (workdir / chk["expect"]).read_bytes():
        raise BadOutput("interpolated polynomial differs from the oracle")


def check(workdir: Path, req: dict, stdout: str) -> str | None:
    """None if the request's output is right, else the reason."""
    chk = req["check"]
    rng = random.Random(req["seed"])
    try:
        kind = chk["type"]
        if kind == "product":
            check_product(workdir, chk, rng)
        elif kind == "divmod":
            check_divmod(workdir, chk, rng)
        elif kind == "verdict":
            check_verdict(stdout, chk)
        elif kind == "roots":
            check_roots(stdout, chk)
        elif kind == "power":
            check_power(stdout, chk)
        elif kind == "same-file":
            check_same_file(workdir, chk)
        else:
            raise BadOutput(f"unknown check {kind}")
    except (BadOutput, ValueError, OSError) as e:
        return f"{type(e).__name__}: {e}"
    return None


def output_paths(req: dict) -> list[str]:
    """Files a request writes; their bytes key the repeat-check cache."""
    chk = req["check"]
    return [chk[k] for k in ("out", "q", "r") if k in chk]
