"""Dense univariate polynomials and the mod-g kernels built on them.

Coefficients are stored low-degree first; the zero polynomial is the
empty sequence.  The mod-p multiply packs both coefficient vectors into
single big integers (fixed-width limbs, width chosen so column sums
cannot carry across limbs) and lets one CPython bigint multiply do the
whole convolution, or one faster numpy convolution when every column sum
fits int64.

Z_p[x]/(g) has one engine, ModEngine, with two kinds of residue.  It
holds int64 numpy arrays of length deg g when deg g >= 2 and
(deg g + 1)(p-1)^2 < 2^63, so every convolution column stays exact in
int64; otherwise it holds coefficient lists and multiplies through the
packed kernel above.  sum_of_powers computes sum c * (h^e mod g) over
one shared squaring chain, on a ModEngine or, for Z[x]/(g), on a
ZModEngine.  Operation counters account the scalar multiplies and adds
the same computation performs.

sum_of_powers has two paths and one rule picks between them: a ModEngine
with p < 2^62, 2 <= deg g <= 128 and at least 32 terms takes the batched
walk, on either residue kind; everything else (ZModEngine, larger p,
deg g 1 or above 128, fewer terms) takes the per-term loop, which is
the reference.  The bounds are measured: the walk pays a fixed cost per
exponent bit (two _LimbPlan calls, at deg g = 31 about 46 us for 28- and
31-bit p and 110 us for 61-bit p; the trimmed-length bookkeeping of list
residues; an m x m x m chain squaring), and at deg g = 1 the loop is
1.2-20x faster for every t <= 31.  Loop time over walk time at 16, 24
and 32 terms (60-bit exponents, general h, fresh engines with an
OpCounter, best of 7 in one process, two runs on a 2-vCPU x86-64 VM;
four runs for the 61-bit rows)
puts the walk ahead at 16 terms on list residues and on array residues
up to deg g = 31.  On array residues at deg g = 128 the loop wins below
32 terms and the two are about even at 32.  The 32-term floor stays
until a workload covers both sides of it:

    p                deg g  residues  16 terms   24 terms   32 terms
    P28 = 268435399      8  array     2.7-3.0    3.8        4.8-5.0
    P28 = 268435399     31  array     1.3-2.0    2.6        3.2-3.4
    P28 = 268435399    128  list      1.2-1.3    1.7-1.8    2.2-2.4
    151157837          128  array     0.51-0.54  0.65       0.89-0.94
    2^31 - 1             8  list      7.9-10.8   11.1-13.7  12.2-13.3
    2^31 - 1            31  list      16.4-18.1  22.0-22.9  27.8-28.8
    2^31 - 1           128  list      4.8-4.9    6.4-6.8    6.8-8.5
    2^61 - 1             8  list      4.7-5.9    7.3-7.7    8.3-11.1
    2^61 - 1            31  list      11.0-12.0  12.7-17.9  19.2-21.5
    2^61 - 1           128  list      3.7-4.8    4.4-5.3    4.7-7.2

The batched walk keeps every term's running residue as a row of one
uint64 matrix.  For each bit j of the exponents it forms M_j, the m x m
matrix of multiplication by h^(2^j) mod g (row i is x^i h^(2^j) mod g;
M_0 is built row by row, and M_(j+1) = M_j M_j), advances every term
whose bit j is set by one product with M_j, and at the end sums
c_i * row_i with one more product.  Terms go in blocks of at most 256
rows, so the temporaries stay bounded whatever t is; the first block
squares the chain and, when more blocks follow, keeps its nbits matrices
(nbits m^2 words) for them.  The walk charges each logical mulmod and
accumulation what the loop charges for operands of the same trimmed
lengths, so every count is the loop's.

Every matrix product mod p is exact, in one of two shapes that _LimbPlan
picks from p < 2^62 and the dot-product length n alone.  Both cut the
left operand into `count` limbs of w = ceil(bitlen(p-1)/count) bits,
A = sum_i 2^(w i) A_i with 0 <= A_i < 2^w, and make one float64
product; each shape's bound below caps its integer entries, so every
such entry and partial sum is an integer in [0, 2^53), exact in any
order.  Two-sided: the fewest limbs with count * n * (2^w - 1)^2 < 2^53
(count <= 3 and w <= 21 for every p < 2^62 and n <= 256, the sizes the
walk uses).  The right operand is first scaled, B_i = 2^(w i) B mod p,
then cut, B_i = sum_j 2^(w j) B_ij, and each B_i / p rides along as one
more float column.  So the product gives S_j = sum_i A_i B_ij, each
below count n (2^w - 1)^2 < 2^53, and Q, a float estimate of V / p for
V = sum_i A_i B_i = sum_j 2^(w j) S_j, which is A B mod p.  Q is close:
B_i and p are rounded to float and divided, each A_i (B_i / p) is
rounded once and the N = count n products are summed in some order, so
with u = 2^-53 every term is off by a factor within (1 + u)^(N + 3)
of 1; as V / p < N 2^w, |Q - V / p| < 1.01 (N + 3) N 2^w u, which is
below 2^-12 for every two-sided plan with n <= 256.  Q < N 2^w + 1
< 2^31 floors exactly.  Shifts and adds in uint64, which wraps mod 2^64,
give V and then r = V - floor(Q) p exactly mod 2^64.  As floor(Q) is
floor(V / p) or one off either way, r lies in [-p, 2p), inside int64
for p < 2^62.  Two steps end it: x = min(x, x + p) lifts [-p, 0),
which uint64 holds as 2^64 + r, to [0, p) and leaves [0, 2p) alone, as
3p < 2^64; then x = min(x, x - p) takes [p, 2p) down and leaves [0, p)
alone, where x - p wraps above 2^63.  The scale B 2^(w i) mod p reduces
the same way: its quotient is below 2^(w (count - 1)) <= 2^42, and the
float estimate fl(B) fl(2^(w i) / fl(p)) is within 2^42 5u < 2^-8 of
it, so its floor is the quotient or one off.

One-sided, taken instead when some count up to the two-sided count^2
(no more limb products) has n (2^w - 1)(p - 1) < 2^53, the fewest such:
B stays whole, S_i = A_i B, and A B = sum_i 2^(w i) S_i folds back by
Horner with shifts in uint64: acc = S_(count-1) mod p, then
acc = (acc 2^w + S_i) mod p.  Each step stays below
(p - 1) 2^w + 2^53 < 2^53 / n + p + 2^53 < 2^64.  Every 28- and 31-bit
p takes it for n <= 256; no 61- or 62-bit p does, as n (p - 1) >= 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as _np

from .errors import BudgetError, InexactDivisionError, ZeroPolynomialError
from .ring import RingSpec

NEG_INF = float("-inf")
DEFAULT_EVAL_BIT_BUDGET = 1 << 22
_WORD_MAX = (1 << 63) - 1  # the largest int64


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
        b"".join(map(int.to_bytes, a, repeat(width), repeat("little"))), "little"
    )


def _unpack(raw: bytes, width: int, p: int) -> list[int]:
    """The width-byte little-endian slots of raw, each reduced mod p."""
    return [int.from_bytes(raw[i:i + width], "little") % p for i in range(0, len(raw), width)]


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
    if min(la, lb) * (p - 1) * (p - 1) < _WORD_MAX:
        conv = _np.convolve(
            _np.array(a, dtype=_np.int64), _np.array(b, dtype=_np.int64)
        )
        conv %= p
        return dp_trim(conv.tolist())
    width = _limb_bytes(p, min(la, lb))
    prod = _pack(a, width) * _pack(b, width)
    n = la + lb - 1
    return dp_trim(_unpack(prod.to_bytes(width * (n + 1), "little")[:width * n], width, p))


def dp_graeffe_modp(a, b, p, steps):
    """`steps` tangent Graeffe steps on A + eps*B mod p, for deg B < deg A = len(a) - 1.

    A step maps (A, B) to (A_e^2 - z*A_o^2, A_e*B_e - z*A_o*B_o), where A = A_e(z^2) +
    z*A_o(z^2): the tangent step without its factor 2.  The coefficients given may lie
    anywhere in [0, 3p); it returns len(a) of A and len(a) - 1 of B, reduced.  Both stay
    packed, w bytes a slot, from step to step, and a step's inputs lie in [0, 3p).  So with
    h = ceil(len(a)/2) every column sum is below beta = 9*h*p^2, and a bias of beta (0 mod p)
    per slot keeps each slot of E + bias - z*O in [0, 2*beta), below 2^xb: no borrows.  The
    next step cuts the slots into even and odd halves, 2w bytes apart, and reduces each by
    Barrett: with s = bitlen(p) - 1 and mu = floor(2^xb / p), the quotient
    q = floor(floor(x / 2^s) * mu / 2^(xb-s)) is floor(x/p) or at most 2 less, so x - q*p
    lies in [0, 3p).  Both factors of q are below 2^(xb-s), so their product, like every
    shifted-in bit the masks clear, stays inside its 2w bytes.
    """
    n = len(a)
    beta = 9 * ((n + 1) // 2) * p * p
    xb = (2 * beta - 1).bit_length()
    w, s = (xb + 7) // 8, p.bit_length() - 1
    mu, bits = (1 << xb) // p, 8 * w

    def repeat_slot(v, width, k):
        return int.from_bytes(v.to_bytes(width, "little") * k, "little")

    # Per slot count k: how many 2w-byte slots a half takes, and the masks that keep a whole
    # w-byte slot, x >> s and the quotient within each of them.
    masks = {}
    for k in (n, n - 1):
        half = (k + 1) // 2
        masks[k] = half, [
            repeat_slot((1 << top) - 1, 2 * w, half) for top in (bits, 2 * bits - s, 2 * bits - xb + s)
        ]

    def halves(x, k):
        """The even and the odd slots of x's k slots, each reduced to [0, 3p) and repacked."""
        half, (whole, shifted, quotient) = masks[k]
        out = []
        for y in (x & whole, (x >> bits) & whole):
            y -= ((((y >> s) & shifted) * mu >> (xb - s)) & quotient) * p
            rows = _np.frombuffer(y.to_bytes(2 * w * half, "little"), dtype=_np.uint8)
            out.append(int.from_bytes(rows.reshape(half, 2 * w)[:, :w].tobytes(), "little"))
        return out

    bias_a, bias_b = repeat_slot(beta, w, n), repeat_slot(beta, w, n - 1)
    x_a, x_b = _pack(a, w), _pack(b, w)
    for _ in range(steps):
        (ae, ao), (be, bo) = halves(x_a, n), halves(x_b, n - 1)
        x_a = ae * ae + bias_a - (ao * ao << bits)
        x_b = ae * be + bias_b - (ao * bo << bits)
    return (
        _unpack(x_a.to_bytes(w * n, "little"), w, p),
        _unpack(x_b.to_bytes(w * (n - 1), "little"), w, p),
    )


def dp_chirp_eval_modp(c, powers, p):
    """c(w^j) mod p for every j < n = len(powers), where powers[i] = w^i and w has order n.

    Bluestein's chirp: ij = C(i+j, 2) - C(i, 2) - C(j, 2), so c(w^j) = w^-C(j,2) times
    sum_i c_i w^-C(i,2) w^C(i+j,2), a correlation that one packed product computes for every
    j.  Each chirp factor is a lookup in powers.  As w^(n/2) = -1, w^C(k+n,2) = -w^C(k,2),
    so the product needs the chirp for k < n only: the terms with i + j >= n come out in its
    low slots and are subtracted.  A c longer than n is folded mod z^n - 1 first; a shorter
    one is not padded.
    """
    n = len(powers)
    if len(c) > n:
        c = [sum(c[i::n]) for i in range(n)]
    m = len(c)
    if not m:
        return [0] * n
    up = [powers[(i * (i - 1) >> 1) % n] for i in range(n)]  # w^C(i,2)
    down = [powers[-(i * (i - 1) >> 1) % n] for i in range(n)]  # w^-C(i,2)
    w = _limb_bytes(p, m)
    prod = _pack([x * y % p for x, y in zip(c, down)][::-1], w) * _pack(up, w)
    # Slot m - 1 + j holds the terms with i + j < n, slot m - 1 + j - n the others.  A bias
    # of m*p^2 (0 mod p) per slot keeps every difference nonnegative and within its slot.
    low = 8 * w * (m - 1)
    bias = int.from_bytes((m * p * p).to_bytes(w, "little") * n, "little")
    sums = (prod >> low) + bias - ((prod & ((1 << low) - 1)) << 8 * w * (n - m + 1))
    return [x * y % p for x, y in zip(_unpack(sums.to_bytes(w * n, "little"), w, p), down)]


def dp_mul_trunc_modp(a, b, prec, p, ops=None):
    """Low `prec` coefficients of a*b mod p."""
    full = dp_mul_modp(a[:prec], b[:prec], p, ops)
    return dp_trim(full[:prec])


def dp_divmod_modp(a, b, p):
    """Classical division with remainder in Z_p[x]."""
    b = dp_trim(list(b))
    if not b:
        raise ZeroPolynomialError("division by the zero polynomial")
    r = list(a)
    dp_trim(r)
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], r
    inv_lead = pow(b[-1], -1, p)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % p
        if c == 0:
            continue
        qc = c * inv_lead % p
        q[i - db] = qc
        for j in range(db + 1):
            r[i - db + j] = (r[i - db + j] - qc * b[j]) % p
    return dp_trim(q), dp_trim(r)


def dp_gcd_modp(a, b, p):
    """Monic gcd in Z_p[x]."""
    a, b = dp_trim(list(a)), dp_trim(list(b))
    while b:
        a, b = b, dp_divmod_modp(a, b, p)[1]
    if a and a[-1] != 1:
        a = dp_scale_modp(a, pow(a[-1], -1, p), p)
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


def _array_mulmod_ops(m: int) -> int:
    """Scalar multiplies, and as many adds, one mulmod on array residues charges."""
    return m * m + (m - 1) * (m - 1) + (m - 1) * (m + 1)


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
            # _inv is trimmed, so its length can fall short of the
            # precision it was computed to; that precision is kept apart.
            self._inv_prec = m
            self._inv = dp_series_inverse(self._grev, m, p, ops)
        self.use_np = m >= 2 and (m + 1) * (p - 1) * (p - 1) < _WORD_MAX
        if self.use_np:
            self._g_np = _np.array(g, dtype=_np.int64)
            inv = self._inv[: m - 1]
            self._inv_np = _np.array(inv + [0] * (m - 1 - len(inv)), dtype=_np.int64)

    def _reduce(self, a: list[int]) -> list[int]:
        # _list_mulmod_ops charges what this costs in closed form: change
        # both together.
        a = dp_trim(list(a))
        m = self.deg
        if m == 0:
            return []
        while len(a) - 1 >= m:
            nq = len(a) - m
            if nq > self._inv_prec:
                self._inv_prec = nq
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
            self.ops.muls += _array_mulmod_ops(m)
            self.ops.adds += _array_mulmod_ops(m)
        prod = _np.convolve(a, b)
        prod %= p
        qrev = _np.convolve(prod[:m - 1:-1], self._inv_np)[: m - 1]
        qrev %= p
        qg = _np.convolve(qrev[::-1], self._g_np)
        r = prod[:m] - qg[:m]
        r %= p
        return r

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
    that never happens.  Coefficients can double in size with every
    squaring, so a residue whose coefficients take more than
    DEFAULT_EVAL_BIT_BUDGET bits in all raises BudgetError.
    """

    def __init__(self, g: list[int], ops: OpCounter | None = None):
        self.g = dp_trim(list(g))
        self.ops = ops

    def lift(self, coeffs: list[int]) -> list[int]:
        r = dp_divmod_z(coeffs, self.g, self.ops)[1]
        if sum(map(int.bit_length, r)) > DEFAULT_EVAL_BIT_BUDGET:
            raise BudgetError(
                f"coefficients of a residue mod g exceed the bit budget {DEFAULT_EVAL_BIT_BUDGET}"
            )
        return r

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


# The batched walk's measured range (module docstring).
_BATCH_MIN_DEG = 2
_BATCH_MAX_DEG = 128
_BATCH_MIN_TERMS = 32
_BATCH_ROWS = 256


class _LimbPlan:
    """The limb split (module docstring) for n-term dot products mod p; `whole` if one-sided."""

    def __init__(self, p: int, n: int):
        bits = (p - 1).bit_length()
        top = [(1 << -(-bits // c)) - 1 for c in range(1, bits + 1)]  # 2^w - 1 with c = 1, 2, ... limbs
        count = 1
        while count * n * top[count - 1] ** 2 >= 1 << 53:
            count += 1
        whole = [c for c, t in enumerate(top[:count * count], 1) if n * t * (p - 1) < 1 << 53]
        self.whole = bool(whole)
        count = whole[0] if whole else count
        w = self.w = -(-bits // count)
        self.p, self.count, self.mask = p, count, (1 << w) - 1
        self.shifts = [w * i for i in range(count)]
        if not self.whole:  # count >= 2 here: one limb would pass the one-sided test
            self.lifts = _np.array(self.shifts[1:], dtype=_np.uint64)[:, None, None]
            self.ratios = _np.array([2.0 ** s / p for s in self.shifts[1:]])[:, None, None]

    def _reduce(self, x, q):
        """x - q p mod p, in place, for uint64 x and q with x - q p in [-p, 2p) (mod 2^64)."""
        q *= self.p
        x -= q
        _np.minimum(x, x + self.p, out=x)
        _np.minimum(x, x - self.p, out=x)
        return x

    def right(self, b):
        """b (n x c, entries in [0, p)) as float64: whole, or its limb matrix and quotient column."""
        if self.whole:
            return b.astype(_np.float64)
        n, c = b.shape
        high = self._reduce(b << self.lifts, (b * self.ratios).astype(_np.uint64))
        scaled = _np.concatenate([b[None], high])
        big = _np.empty((self.count, n, self.count + 1, c))
        for j, shift in enumerate(self.shifts):
            big[:, :, j] = (scaled >> shift) & self.mask
        big[:, :, -1] = scaled / self.p
        return big.reshape(self.count * n, -1)

    def product(self, a, big):
        """a b mod p for uint64 a (entries in [0, p)) and b from right()."""
        rows, n = a.shape
        lim = _np.empty((rows, self.count, n))
        for i, shift in enumerate(self.shifts):
            limb = a >> shift
            limb &= self.mask
            lim[:, i] = limb
        s = (lim.reshape(-1, len(big)) @ big).astype(_np.uint64)
        del lim
        if self.whole:
            s = s.reshape(rows, self.count, -1)
            out = s[:, -1] % self.p
            for i in range(self.count - 2, -1, -1):
                out = ((out << self.w) + s[:, i]) % self.p
            return out
        s = s.reshape(rows, self.count + 1, -1)
        v = s[:, 0].copy()
        for j, shift in enumerate(self.shifts[1:], 1):
            v += s[:, j] << shift
        return self._reduce(v, s[:, -1])


def _trimmed_lengths(x):
    """Length of each row of x without its trailing zeros."""
    return ((x != 0) * _np.arange(1, x.shape[1] + 1)).max(axis=1)


def _list_mulmod_ops(engine: ModEngine, calls) -> tuple[int, int]:
    """(muls, adds) ModEngine.mulmod charges on list residues.

    calls[la, lb] counts mulmods of operands with trimmed lengths la and
    lb.  Over a field their product has length n = la + lb - 1; when
    n > m one reduction follows, with nq = n - m quotient terms: a
    truncated product with the stored inverse, the quotient times g and
    one subtraction of length n.  nq <= m - 1 never exceeds the
    inverse's precision, so no product recomputes it.
    """
    m, stored = engine.deg, len(engine._inv)
    la, lb = _np.indices(calls.shape)
    calls = calls * ((la > 0) & (lb > 0))
    n = la + lb - 1
    nq = _np.where(n > m, n - m, 0)
    li = _np.minimum(nq, stored)
    red = nq * li + nq * (m + 1)
    muls = int((calls * (la * lb + red)).sum())
    adds = int((calls * (la * lb - n + _np.where(nq > 0, red - nq - li + 1, 0))).sum())
    return muls, adds


def _sum_of_powers_batched(engine: ModEngine, h: list[int], coeffs, exps):
    """sum_of_powers on the batched walk (module docstring): same residue and counts."""
    p, m, arrays = engine.p, engine.deg, engine.use_np
    nbits = max(e.bit_length() for e in exps)
    nbytes = (nbits + 7) // 8
    row = engine.lower(engine.lift(h))
    row += [0] * (m - len(row))
    neg_g = [(-v) % p for v in engine.g[:m]]
    m0 = [row]  # M_0: row i is x^i h mod g
    for _ in range(m - 1):
        lead, row = row[-1], [0] + row[:-1]
        if lead:
            row = [(a + lead * b) % p for a, b in zip(row, neg_g)]
        m0.append(row)
    m0 = _np.array(m0, dtype=_np.uint64)
    plan = _LimbPlan(p, m)

    acc = _np.zeros(m, dtype=_np.uint64)
    calls = _np.zeros((m + 1, m + 1), dtype=_np.int64)  # list mulmods by (la, lb)
    term_mulmods = accumulated = longest = 0
    chain = [m0] if len(exps) > _BATCH_ROWS else None  # M_j for the later blocks
    for start in range(0, len(exps), _BATCH_ROWS):
        block = exps[start:start + _BATCH_ROWS]
        t = len(block)
        packed = b"".join(e.to_bytes(nbytes, "little") for e in block)
        bits = _np.frombuffer(packed, dtype=_np.uint8).reshape(t, nbytes)
        state = _np.zeros((t, m), dtype=_np.uint64)
        state[:, 0] = 1
        lens = _np.ones(t, dtype=_np.int64)  # trimmed lengths, for list residues
        mat = m0
        for j in range(nbits):
            big = plan.right(mat)
            idx = _np.flatnonzero((bits[:, j >> 3] >> (j & 7)) & 1)
            rows = state[idx]
            term_mulmods += len(idx)
            square = start == 0 and j + 1 < nbits
            if not arrays:
                lb = m if mat[0, -1] else int(_trimmed_lengths(mat[:1])[0])
                calls[:, lb] += _np.bincount(lens[idx], minlength=m + 1)
                if square:
                    calls[lb, lb] += 1  # the chain squaring, charged once
            if square:
                # The chain squaring M_(j+1) = M_j M_j rides along.
                out = plan.product(_np.concatenate([mat, rows]), big)
                mat, rows = out[:m], out[m:]
                if chain is not None:
                    chain.append(mat.copy())
            else:
                if len(idx):
                    rows = plan.product(rows, big)
                if j + 1 < nbits:
                    mat = chain[j + 1]
            state[idx] = rows
            if not arrays:  # a row is shorter than m only if its top coefficient is 0
                lens[idx] = m
                short = idx[rows[:, -1] == 0]
                if len(short):
                    lens[short] = _trimmed_lengths(state[short])
        column = _np.array([[c % p] for c in coeffs[start:start + t]], dtype=_np.uint64)
        cplan = _LimbPlan(p, t)
        acc += cplan.product(state.T, cplan.right(column))[:, 0]
        acc %= p
        accumulated += t * m if arrays else int(lens.sum())
        longest = max(longest, int(lens.max()))
    if engine.ops is not None:
        if arrays:
            muls = adds = _array_mulmod_ops(m) * (max(nbits - 1, 0) + term_mulmods)
        else:
            muls, adds = _list_mulmod_ops(engine, calls)
        engine.ops.muls += muls + accumulated
        engine.ops.adds += adds + accumulated
    if arrays:
        return acc.astype(_np.int64)
    return [int(v) for v in acc[:longest]]


def sum_of_powers(engine, h: list[int], coeffs, exps):
    """Residue of the sum of coeffs[i] * h^exps[i] mod g over two columns of equal length.

    h^(2^j) mod g is computed once for every bit j of the largest
    exponent (the shared squaring chain); each term then multiplies the
    chain entries of its own set bits.  That is O(t log max e) mulmods:
    the cost grows with the bit length of the exponents, never with
    their size.  `engine` is a ModEngine or a ZModEngine.  The module
    docstring states the rule for the batched walk; the per-term loop is
    the reference for the rest.  No terms give the zero residue.
    """
    if not exps:
        return engine.lift([])
    if (
        isinstance(engine, ModEngine)
        and engine.p < 1 << 62
        and _BATCH_MIN_DEG <= engine.deg <= _BATCH_MAX_DEG
        and len(exps) >= _BATCH_MIN_TERMS
    ):
        return _sum_of_powers_batched(engine, h, coeffs, exps)
    return _sum_of_powers_loop(engine, h, coeffs, exps)


def _sum_of_powers_loop(engine, h: list[int], coeffs, exps):
    """sum_of_powers one term at a time along the shared chain: the reference."""
    maxbits = max(e.bit_length() for e in exps)
    chain = [engine.lift(h)]
    for _ in range(1, maxbits):
        chain.append(engine.mulmod(chain[-1], chain[-1]))
    one = engine.one()
    acc = engine.lift([])
    for c, e in zip(coeffs, exps):
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
