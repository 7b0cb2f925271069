"""Dense univariate polynomials and the mod-g kernels built on them.

Coefficients are stored low-degree first; the zero polynomial is the
empty sequence.  The mod-p multiply packs both coefficient vectors into
single big integers (fixed-width limbs, width chosen so column sums
cannot carry across limbs) and lets one CPython bigint multiply do the
whole convolution.

Z_p[x]/(g) has one engine, ModEngine, with two kinds of residue.  It
holds int64 numpy arrays of length deg g when deg g >= 2 and
(deg g + 1)(p-1)^2 < 2^63, so every convolution column stays exact in
int64; otherwise it holds coefficient lists and multiplies through the
packed kernel above.  sum_of_powers computes sum c * (h^e mod g) over
one shared squaring chain, on a ModEngine or, for Z[x]/(g), on a
ZModEngine.  Operation counters account the scalar multiplies and adds
the same computation performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InexactDivisionError, UnsupportedRingError, ZeroPolynomialError
from .ring import INTEGERS, RingSpec

try:
    import numpy as _np
except ImportError:  # the packed-integer path covers everything
    _np = None

NEG_INF = float("-inf")


class OpCounter:
    """Mutable tally of scalar ring operations."""

    __slots__ = ("muls", "adds")

    def __init__(self):
        self.muls = 0
        self.adds = 0

    @property
    def total(self) -> int:
        return self.muls + self.adds


def dp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def dp_sub_modp(a, b, p, ops=None):
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    if ops is not None:
        ops.adds += len(b)
    return dp_trim(out)


def dp_scale_modp(a, s, p, ops=None):
    if ops is not None:
        ops.muls += len(a)
    return dp_trim([v * s % p for v in a])


def _limb_bytes(p: int, nmin: int) -> int:
    # Column sums are < nmin * (p-1)^2, so this width cannot carry.
    bits = 2 * p.bit_length() + nmin.bit_length() + 1
    return (bits + 7) // 8


def _pack(a: list[int], width: int) -> int:
    return int.from_bytes(
        b"".join(v.to_bytes(width, "little") for v in a), "little"
    )


def dp_mul_modp(a, b, p, ops=None):
    """Product of two residue vectors mod p via one bigint multiply.

    For word-sized p an int64 convolution is exact and faster; the
    overflow guard keeps column sums below 2^63 either way.
    """
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if ops is not None:
        ops.muls += la * lb
        ops.adds += la * lb - (la + lb - 1)
    if la * lb <= 16:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return dp_trim([v % p for v in out])
    if _np is not None and min(la, lb) * (p - 1) * (p - 1) < (1 << 63) - 1:
        conv = _np.convolve(
            _np.array(a, dtype=_np.int64), _np.array(b, dtype=_np.int64)
        )
        conv %= p
        return dp_trim(conv.tolist())
    width = _limb_bytes(p, min(la, lb))
    prod = _pack(a, width) * _pack(b, width)
    n = la + lb - 1
    raw = prod.to_bytes(width * (n + 1), "little")
    out = [
        int.from_bytes(raw[i * width:(i + 1) * width], "little") % p
        for i in range(n)
    ]
    return dp_trim(out)


def dp_mul_trunc_modp(a, b, prec, p, ops=None):
    """Low `prec` coefficients of a*b mod p."""
    full = dp_mul_modp(a[:prec], b[:prec], p, ops)
    return dp_trim(full[:prec])


def dp_divmod_modp(a, b, p, ops=None):
    """Classical division with remainder in Z_p[x]."""
    b = dp_trim(list(b))
    if not b:
        raise ZeroPolynomialError("division by the zero polynomial")
    r = list(a)
    dp_trim(r)
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], r
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % p
        if c == 0:
            continue
        qc = c * inv_lead % p
        q[i - db] = qc
        for j in range(db + 1):
            r[i - db + j] = (r[i - db + j] - qc * b[j]) % p
        if ops is not None:
            ops.muls += db + 2
            ops.adds += db + 1
    return dp_trim(q), dp_trim(r)


def dp_gcd_modp(a, b, p, ops=None):
    """Monic gcd in Z_p[x]."""
    a, b = dp_trim(list(a)), dp_trim(list(b))
    while b:
        a, b = b, dp_divmod_modp(a, b, p, ops)[1]
    if a and a[-1] != 1:
        a = dp_scale_modp(a, pow(a[-1], p - 2, p), p, ops)
    return a


def dp_series_inverse(f, prec, p, ops=None):
    """Inverse of a power series mod x^prec by Newton iteration."""
    inv = [pow(f[0], p - 2, p)]
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        t = dp_mul_trunc_modp(f[:k], inv, k, p, ops)
        corr = [(-v) % p for v in t]
        if corr:
            corr[0] = (corr[0] + 2) % p
        else:
            corr = [2 % p]
        inv = dp_mul_trunc_modp(inv, corr, k, p, ops)
    return inv


class ModEngine:
    """Arithmetic in Z_p[x]/(g), g made monic, for hot loops.

    Residues are opaque handles, numpy arrays or lists by the rule in
    the module docstring.  Both kinds reduce by quotient recovery from
    the series inverse of reversed g, so a mulmod is three
    multiplications and no coefficient loop.  Operation counters account
    the packed multiplies on lists and the classical scalar cost on
    arrays.
    """

    def __init__(self, g: list[int], p: int, ops: OpCounter | None = None):
        g = dp_trim([v % p for v in g])
        if not g:
            raise ZeroPolynomialError("zero modulus polynomial")
        self.p = p
        self.ops = ops
        if g[-1] != 1:
            g = dp_scale_modp(g, pow(g[-1], p - 2, p), p, ops)
        self.g = g
        m = self.deg = len(g) - 1
        if m >= 1:
            self._grev = g[::-1]
            self._inv = dp_series_inverse(self._grev, m, p, ops)
        self.use_np = (
            _np is not None and m >= 2 and (m + 1) * (p - 1) * (p - 1) < (1 << 63) - 1
        )
        if self.use_np:
            self._g_np = _np.array(g, dtype=_np.int64)
            inv = self._inv[: m - 1]
            self._inv_np = _np.array(inv + [0] * (m - 1 - len(inv)), dtype=_np.int64)

    def _reduce(self, a: list[int]) -> list[int]:
        a = dp_trim(list(a))
        m = self.deg
        if m == 0:
            return []
        while len(a) - 1 >= m:
            nq = len(a) - m
            if nq > len(self._inv):
                self._inv = dp_series_inverse(self._grev, nq, self.p, self.ops)
            qrev = dp_mul_trunc_modp(a[::-1], self._inv, nq, self.p, self.ops)
            qrev += [0] * (nq - len(qrev))
            qg = dp_mul_modp(qrev[::-1], self.g, self.p, self.ops)
            a = dp_sub_modp(a, qg, self.p, self.ops)
            assert len(a) - 1 < m
        return a

    def lift(self, coeffs: list[int]):
        r = self._reduce(coeffs)
        if not self.use_np:
            return r
        arr = _np.zeros(self.deg, dtype=_np.int64)
        arr[: len(r)] = r
        return arr

    def lower(self, h) -> list[int]:
        return dp_trim([int(v) for v in h])

    def is_zero(self, h) -> bool:
        if self.use_np:
            return not h.any()
        return not any(h)

    def one(self):
        return self.lift([1])

    def mulmod(self, a, b):
        p = self.p
        if not self.use_np:
            return self._reduce(dp_mul_modp(a, b, p, self.ops))
        m = self.deg
        if self.ops is not None:
            self.ops.muls += m * m + (m - 1) * (m - 1) + (m - 1) * (m + 1)
            self.ops.adds += m * m + (m - 1) * (m - 1) + (m - 1) * (m + 1)
        prod = _np.convolve(a, b)
        prod %= p
        qrev = _np.convolve(prod[:m - 1:-1], self._inv_np)[: m - 1]
        qrev %= p
        qg = _np.convolve(qrev[::-1], self._g_np)
        r = prod[:m] - qg[:m]
        r %= p
        return r

    def powmod(self, base, e: int):
        """base^e for a residue handle, by binary powering."""
        result = self.one()
        acc = base
        while e:
            if e & 1:
                result = self.mulmod(result, acc)
            e >>= 1
            if e:
                acc = self.mulmod(acc, acc)
        return result

    def addmul_into(self, acc, h, scalar: int):
        """acc += scalar * h, in place where possible."""
        p = self.p
        if self.use_np:
            acc += h * (scalar % p)
            acc %= p
            if self.ops is not None:
                self.ops.muls += self.deg
                self.ops.adds += self.deg
            return acc
        contrib = [scalar * v % p for v in h]
        n = max(len(acc), len(contrib))
        out = [
            ((acc[i] if i < len(acc) else 0) + (contrib[i] if i < len(contrib) else 0)) % p
            for i in range(n)
        ]
        if self.ops is not None:
            self.ops.muls += len(h)
            self.ops.adds += len(h)
        return out


class ZModEngine:
    """Z[x]/(g) with list residues: the ModEngine interface over Z.

    Remainders come from dp_divmod_z, so a reduction whose leading
    coefficient does not divide raises InexactDivisionError; for monic g
    that never happens.
    """

    def __init__(self, g: list[int], ops: OpCounter | None = None):
        self.g = dp_trim(list(g))
        self.ops = ops

    def lift(self, coeffs: list[int]) -> list[int]:
        return dp_divmod_z(coeffs, self.g, self.ops)[1]

    def one(self) -> list[int]:
        return self.lift([1])

    def mulmod(self, a: list[int], b: list[int]) -> list[int]:
        return self.lift(dp_mul_z(a, b, self.ops))

    def addmul_into(self, acc: list[int], h: list[int], scalar: int) -> list[int]:
        out = acc + [0] * (len(h) - len(acc))
        for i, v in enumerate(h):
            out[i] += scalar * v
        if self.ops is not None:
            self.ops.muls += len(h)
            self.ops.adds += len(h)
        return dp_trim(out)


def sum_of_powers(engine, h: list[int], terms):
    """Residue of the sum of c * h^e mod g over the (c, e) pairs in `terms`.

    h^(2^j) mod g is computed once for every bit j of the largest
    exponent (the shared squaring chain); each term then multiplies the
    chain entries of its own set bits.  That is O(t log max e) mulmods:
    the cost grows with the bit length of the exponents, never with
    their size.  `engine` is a ModEngine or a ZModEngine.
    """
    maxbits = max(e.bit_length() for _, e in terms)
    chain = [engine.lift(h)]
    for _ in range(1, maxbits):
        chain.append(engine.mulmod(chain[-1], chain[-1]))
    one = engine.one()
    acc = engine.lift([])
    for c, e in terms:
        cur = one
        bit = 0
        while e:
            if e & 1:
                cur = engine.mulmod(cur, chain[bit])
            e >>= 1
            bit += 1
        acc = engine.addmul_into(acc, cur, c)
    return acc


def dp_mul_z(a, b, ops=None):
    """Exact product over Z."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    if ops is not None:
        ops.muls += len(a) * len(b)
        ops.adds += len(a) * len(b)
    return dp_trim(out)


def dp_divmod_z(a, b, ops=None):
    """Division over Z; raises if a leading-coefficient division is inexact."""
    b = dp_trim(list(b))
    if not b:
        raise ZeroPolynomialError("division by the zero polynomial")
    r = list(a)
    dp_trim(r)
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], r
    lead = b[-1]
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c == 0:
            continue
        if c % lead:
            raise InexactDivisionError("leading coefficient does not divide")
        qc = c // lead
        q[i - db] = qc
        for j in range(db + 1):
            r[i - db + j] -= qc * b[j]
        if ops is not None:
            ops.muls += db + 2
            ops.adds += db + 1
    return dp_trim(q), dp_trim(r)


@dataclass(frozen=True)
class DensePoly:
    """Coefficient sequence indexed by exponent, low degree first.

    The leading stored coefficient is nonzero; the zero polynomial is
    the empty tuple.
    """

    ring: RingSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if self.ring.is_field:
            p = self.ring.modulus
            if any(not 0 <= c < p for c in self.coeffs):
                raise ValueError("coefficients must be canonical mod p")

    @classmethod
    def from_coeffs(cls, ring: RingSpec, coeffs) -> "DensePoly":
        c = [ring.normalize(v) for v in coeffs]
        return cls(ring, tuple(dp_trim(c)))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        acc = 0
        if self.ring.is_field:
            p = self.ring.modulus
            for c in reversed(self.coeffs):
                acc = (acc * x + c) % p
        else:
            for c in reversed(self.coeffs):
                acc = acc * x + c
        return acc

    def height(self) -> int:
        if self.ring.kind != INTEGERS:
            raise UnsupportedRingError("height is defined over Z only")
        return max((abs(c) for c in self.coeffs), default=0)
