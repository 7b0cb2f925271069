"""Sparse interpolation from black-box evaluations.

The pipeline over a smooth prime field: probe the oracle on a geometric
progression of the subgroup generator, fit the minimal linear recurrence
(Berlekamp-Massey), find its roots inside the order-2^k subgroup, each
together with its exponent, then solve one transposed Vandermonde
system for the coefficients.  The root stage runs a tangent Graeffe
pass, which finds most roots with the low bits of their exponents from
chirp evaluations at the 2^s-th roots of unity (one packed product
each), before a bit-by-bit gcd descent for the roots whose low bits
collide.

An n-variate oracle is probed as it is, at Kronecker points: the j-th
probe is (w^j, w^(jD), ..., w^(jD^(n-1))) for the per-variable degree
bound D, so the sequence is that of the univariate image of degree
below D^n, whose exponents unpack base D.  Term counts do not change.

Probes are drawn one at a time from `ProbeCountingOracle.stream`.  An
oracle built from a reference polynomial serves the geometric points
with one multiply per term per probe; an oracle built from functions is
probed point by point.

Integer coefficients are recovered by reusing the discovered support
modulo additional ordinary primes, each with one random base per
variable, and Chinese remaindering until the modulus clears twice the
height bound.  Requiring the subgroup order to reach D^n makes packed
exponents injective in the subgroup, so no collision analysis is needed
anywhere.  Verification probes the n-variate oracle at random
n-variate points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import accumulate, islice, repeat, zip_longest
from operator import mul
from typing import Callable, Iterator, Sequence

from .dense import DensePoly, ModEngine, dp_divmod_modp, dp_gcd_modp, dp_trim
from .dense import dp_chirp_eval_modp, dp_graeffe_modp, dp_mul_modp
from .errors import (
    ArityError,
    BoundError,
    BudgetError,
    NonSplitError,
    UnsupportedRingError,
    VerificationError,
)
from .poly import (
    SparsePoly,
    _term_values,
    canonicalize_columns,
    evaluate,
    evaluate_mod,
    geometric_stream,
    kronecker_unpack,
    zero,
)
from .ring import (
    INTEGERS,
    RingSpec,
    SmoothPrimeContext,
    context_from_prime,
    find_smooth_prime,
    random_prime,
    read_exponent,
)


# Early termination stops once the recurrence has not changed for this
# many probes, and as many probes lie past twice its degree.
_STABLE_PROBES = 4

# The most probes one Prony run may draw.  A term bound T asks for 2T of
# them (plus the window under early termination), each kept for the
# recurrence fit, so a larger T is refused before the first probe.
_MAX_PROBES = 1 << 20


@dataclass
class InterpConfig:
    """Bounds and knobs for an interpolation run.

    T bounds the number of nonzero terms, D the degree in each variable
    (every exponent must lie in [0, D)), H the height when coefficients
    are integers.
    """

    T: int
    D: int
    H: int | None = None
    early_termination: bool = False
    verify_trials: int = 0
    seed: int = 0
    coeff_prime_bits: int = 62

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if self.D < 1:
            raise ValueError("D must be at least 1")
        if self.H is not None and self.H < 1:
            raise ValueError("H must be at least 1 when given")


@dataclass
class InterpStats:
    """What an interpolation run did; filled in by the pipeline."""

    probes: int = 0
    recurrence_degree: int = 0
    support_prime: int = 0
    crt_primes: list[int] = field(default_factory=list)
    # Whether probing stopped before the 2T + window cap.
    early_stopped: bool = False
    graeffe_roots: int = 0
    verify_trials: int = 0


class ProbeCountingOracle:
    """Black box wrapping a function or a reference polynomial.

    Every evaluation request increments the probe counter by exactly
    one.  Over the integers the oracle answers modular queries: a point
    together with a prime, returning the value mod that prime.
    """

    def __init__(
        self,
        ring: RingSpec,
        nvars: int,
        fn: Callable[[tuple], int] | None = None,
        modfn: Callable[[tuple, int], int] | None = None,
    ):
        self.ring = ring
        self.nvars = nvars
        self._fn = fn
        self._modfn = modfn
        self._poly: SparsePoly | None = None
        self.probes = 0

    @classmethod
    def from_poly(cls, f: SparsePoly) -> "ProbeCountingOracle":
        modfn = None if f.ring.is_field else (lambda pt, p: evaluate_mod(f, pt, p))
        bb = cls(f.ring, f.nvars, fn=lambda pt: evaluate(f, pt), modfn=modfn)
        bb._poly = f
        return bb

    def eval(self, point: tuple) -> int:
        if self._fn is None:
            raise UnsupportedRingError("oracle has no exact evaluator")
        self.probes += 1
        return self._fn(tuple(point))

    def eval_at_mod(self, point: tuple, p: int) -> int:
        if self._modfn is None:
            if self.ring.is_field:
                raise UnsupportedRingError("field oracle takes no modulus")
            raise UnsupportedRingError("oracle has no modular evaluator")
        self.probes += 1
        return self._modfn(tuple(point), p)

    def stream(self, bases: Sequence[int], p: int | None = None) -> Iterator[int]:
        """Lazy f(b_1^j, ..., b_n^j) for j = 0, 1, 2, ..., mod p when given.

        Each value drawn is one probe; creating the stream is none.  A
        reference polynomial serves it with one multiply per term per
        value; a function oracle is probed point by point.  A field
        oracle takes no modulus other than its own.
        """
        bases = tuple(bases)
        if self.ring.is_field and p not in (None, self.ring.modulus):
            raise UnsupportedRingError("field oracle takes no modulus")
        if self._poly is not None and (p is not None or self.ring.is_field):
            return self._charged(geometric_stream(self._poly, bases, p))
        return self._pointwise(bases, p)

    def _charged(self, values: Iterator[int]) -> Iterator[int]:
        for v in values:
            self.probes += 1
            yield v

    def _pointwise(self, bases: tuple, p: int | None) -> Iterator[int]:
        if p is None or self.ring.is_field:
            probe, m = self.eval, self.ring.modulus
        else:
            probe, m = (lambda pt: self.eval_at_mod(pt, p)), p
        point = (1,) * len(bases)
        while True:
            yield probe(point)
            point = tuple(x * b % m if m else x * b for x, b in zip(point, bases))


# ---------------------------------------------------------------------------
# Berlekamp-Massey.

class _BMState:
    """Incremental minimal-recurrence fit over Z_p."""

    def __init__(self, p: int):
        self.p = p
        self.seq: list[int] = []
        self.C = [1]
        self.B = [1]
        self.L = 0
        self.m = 1
        self.b = 1

    def update(self, s: int) -> bool:
        """Feed one sequence element; True if the connection poly changed."""
        p = self.p
        seq = self.seq
        n = len(seq)
        seq.append(s % p)
        C = self.C
        # C[0] = 1, so this is seq[n] + sum of C[i]*seq[n - i], 1 <= i <= min(L, deg C).
        d = sum(map(mul, C[:min(self.L, len(C) - 1) + 1], reversed(seq))) % p
        if d == 0:
            self.m += 1
            return False
        coef = d * pow(self.b, -1, p) % p
        m = self.m
        newC = C[:m] + [0] * (m - len(C))  # C - coef*z^m*B leaves these as they are
        newC += [(x - coef * y) % p for x, y in zip_longest(C[m:], self.B, fillvalue=0)]
        self.C = dp_trim(newC) or [1]
        if 2 * self.L <= n:
            self.L = n + 1 - self.L
            self.B = C
            self.b = d
            self.m = 1
        else:
            self.m += 1
        return True

    def min_poly(self) -> list[int]:
        """Monic minimal polynomial (ascending coefficients, degree L)."""
        L = self.L
        C = self.C + [0] * (L + 1 - len(self.C))
        return [C[L - j] for j in range(L + 1)]


def berlekamp_massey(seq: Sequence[int], p: int) -> DensePoly:
    """Monic minimal polynomial of the shortest recurrence generating seq."""
    state = _BMState(p)
    for s in seq:
        state.update(s)
    return DensePoly(RingSpec("Zp", p), tuple(state.min_poly()))


# ---------------------------------------------------------------------------
# Roots and exponents inside the subgroup.

def _roots_with_exponents(
    lam: DensePoly, ctx: SmoothPrimeContext, stats: InterpStats | None = None
) -> list[tuple[int, int]]:
    """(e, omega^e) for every root of lam, required simple and in the 2^k subgroup, sorted.

    First a tangent Graeffe pass (Grenet, van der Hoeven and Lecerf, ISSAC
    2015): A + eps*B starts as lam(z + eps) mod eps^2, and k - s steps,
    s = min(k, ceil(log2 4 deg lam)), send each root rho = omega^e to
    rho^N = w^j, N = 2^(k-s), w = omega^N and j = e mod 2^s.  A simple
    root w^j of A has one preimage rho, and as the steps leave out a factor
    2 each, B(w^j) = rho^(N-1)*A'(w^j).  Roots whose low s bits collide give
    multiple roots; exact division leaves them to the bit-by-bit descent,
    which certifies them.  When the pass finds every root, the division
    proves that lam splits.  stats.graeffe_roots counts the pass's roots.
    No random choices: the result depends on lam and ctx alone.
    """
    p, k = ctx.p, ctx.k
    coeffs = [c % p for c in lam.coeffs]
    dp_trim(coeffs)
    if len(coeffs) <= 1:
        return []
    if coeffs[0] == 0:
        raise NonSplitError("recurrence polynomial vanishes at zero")
    if coeffs[-1] != 1:
        inv = pow(coeffs[-1], -1, p)
        coeffs = [c * inv % p for c in coeffs]
    s = min(k, (4 * len(coeffs) - 5).bit_length())
    n, w = 1 << s, pow(ctx.omega, 1 << (k - s), p)
    powers = list(accumulate(repeat(w, n - 1), lambda x, _: x * w % p, initial=1))
    a, b = coeffs, [i * c % p for i, c in enumerate(coeffs)][1:]
    a, b = dp_graeffe_modp(a, b, p, k - s)
    # A, A' and B at every w^j.
    va, da, vb = (
        dp_chirp_eval_modp(c, powers, p)
        for c in (a, [i * c % p for i, c in enumerate(a)][1:], b)
    )
    logs = {x: v for v, x in enumerate(powers)}
    found = []
    for j in range(n):
        if va[j] == 0 and da[j]:
            r = powers[j] * da[j] * pow(vb[j], -1, p) % p
            found.append((read_exponent(ctx, r, j, s, logs), r))
    if stats is not None:
        stats.graeffe_roots = len(found)
    coeffs, rem = dp_divmod_modp(coeffs, _from_roots([r for _, r in found], p), p)
    if rem:
        raise NonSplitError("roots are not distinct subgroup elements")
    return sorted(found + _descend(coeffs, ctx, logs))


def _from_roots(roots: Sequence[int], p: int) -> list[int]:
    """prod(z - r) over the roots, by a product tree."""
    if len(roots) <= 1:
        return [-roots[0] % p, 1] if roots else [1]
    h = len(roots) // 2
    return dp_mul_modp(_from_roots(roots[:h], p), _from_roots(roots[h:], p), p)


def _descend(h: list[int], ctx: SmoothPrimeContext, logs: dict) -> list[tuple[int, int]]:
    """(e, omega^e) for every root of monic h, one exponent bit at a time.

    Certifies z^(2^k) = 1 mod h, keeping the chain z^(2^i) mod h.  A factor whose roots share
    e = e_low mod 2^j splits by bit j: gcd(h, z^(2^(k-1-j)) - omega^(e_low*2^(k-1-j))) holds
    the roots with bit j = 0, the cofactor those with bit 1.
    """
    p, k = ctx.p, ctx.k
    if len(h) <= 1:
        return []
    engine = ModEngine(h, p)
    chain = [engine.lift([0, 1])]
    for _ in range(k):
        chain.append(engine.mulmod(chain[-1], chain[-1]))
    if engine.lower(chain[k]) != [1]:
        raise NonSplitError("roots are not distinct subgroup elements")
    chain = [engine.lower(c) for c in chain[:k]]
    out: list[tuple[int, int]] = []
    stack = [(h, 0, 0)]
    while stack:
        h, j, e = stack.pop()
        if len(h) == 2:
            r = (-h[0]) % p
            out.append((read_exponent(ctx, r, e, j, logs), r))
            continue
        # Reducing mod h is the first step of the gcd.
        s = list(chain[k - 1 - j])
        s[0] = (s[0] - pow(ctx.omega, e << (k - 1 - j), p)) % p
        h0 = dp_gcd_modp(s, h, p)
        h1 = dp_divmod_modp(h, h0, p)[0]
        for f, bit in ((h0, 0), (h1, 1 << j)):
            if len(f) > 1:
                stack.append((f, j + 1, e | bit))
    return out


def find_roots_subgroup(
    lam: DensePoly,
    ctx: SmoothPrimeContext,
    rng: random.Random | None = None,
) -> list[int]:
    """All roots of lam, required simple and inside the order-2^k subgroup.

    Deterministic; rng is accepted for compatibility and unused.
    """
    return [r for _, r in _roots_with_exponents(lam, ctx)]


def solve_transposed_vandermonde(roots: Sequence[int], values: Sequence[int], p: int) -> list[int]:
    """Coefficients c with sum_i c_i * roots_i^j = values_j for j < t.

    With lam = prod(z - r_i), sum_j values_j z^j = sum_i c_i / (1 - r_i z) mod z^t, so its
    product with z^t lam(1/z) is sum_i c_i prod(1 - r_l z, l != i) mod z^t.  Reversed to
    degree t - 1, that polynomial takes the value c_i * lam'(r_i) at r_i.
    """
    t = len(roots)
    if len({r % p for r in roots}) != t:
        raise ValueError("roots must be pairwise distinct")
    if any(r % p == 0 for r in roots):
        raise ValueError("roots must be nonzero")
    if len(values) < t:
        raise ValueError("need at least t sequence values")
    lam = _from_roots(roots, p)
    num = (dp_mul_modp(lam[::-1], [v % p for v in values[:t]], p) + [0] * t)[:t][::-1]
    dlam = [i * c % p for i, c in enumerate(lam)][1:]
    pairs = list(zip(reversed(num), reversed(dlam)))
    out = []
    for r in roots:
        x = y = 0  # num(r) and lam'(r) by one Horner pass: both have t coefficients
        for a, b in pairs:
            x = (x * r + a) % p
            y = (y * r + b) % p
        out.append(x * pow(y, -1, p) % p)
    return out


# ---------------------------------------------------------------------------
# The pipelines.

def _packing_point(theta: int, D: int, n: int, p: int) -> tuple[int, ...]:
    """(theta, theta^D, ..., theta^(D^(n-1))) mod p, the Kronecker image of theta."""
    return tuple(pow(theta, D ** i, p) for i in range(n))


def interpolate_prony(
    bb: ProbeCountingOracle,
    ctx: SmoothPrimeContext,
    cfg: InterpConfig,
    stats: InterpStats | None = None,
) -> SparsePoly:
    """Recovery over Z_p with exactly 2T probes, or fewer under early termination.

    A T whose probes would pass _MAX_PROBES raises BudgetError up front.

    An n-variate oracle is probed at the Kronecker points omega^j packed
    to (x, x^D, ..., x^(D^(n-1))); the univariate image, of degree below
    D^n, is unpacked base D.  An integer oracle yields its image over
    ctx.field().  Verification probes the oracle at n-variate points.
    """
    if stats is None:
        stats = InterpStats()
    if bb.ring.is_field and bb.ring.modulus != ctx.p:
        raise UnsupportedRingError("oracle field must match the subgroup context")
    n = bb.nvars
    bound = cfg.D ** n
    if (1 << ctx.k) < bound:
        raise BoundError("subgroup order 2^k must reach the degree bound D^n")
    p, ring = ctx.p, ctx.field()
    stats.support_prime = p
    window = _STABLE_PROBES if cfg.early_termination else 0
    cap = 2 * cfg.T + window
    if cap > _MAX_PROBES:
        raise BudgetError(f"T = {cfg.T} needs {cap} probes, past the budget of {_MAX_PROBES}")
    state = _BMState(p)
    # The probes are kept once, reduced mod p, in state.seq.
    seq = state.seq
    probes = bb.stream(_packing_point(ctx.omega, cfg.D, n, p), p)
    last_change = 0
    while len(seq) < cap:
        if state.update(next(probes)):
            last_change = len(seq)
        m = len(seq)
        if window and m - last_change >= window and m >= 2 * state.L + window:
            break
    stats.early_stopped = len(seq) < cap
    t = stats.recurrence_degree = state.L
    try:
        pairs = _roots_with_exponents(DensePoly(ring, tuple(state.min_poly())), ctx, stats)
    except NonSplitError as e:
        # A recurrence of the full degree T may be a truncation of a longer one.
        if t < cfg.T:
            raise
        raise NonSplitError(
            f"{e}: the recurrence has the full degree T = {cfg.T}, so the oracle "
            "may have more than T terms; raise --T"
        ) from None
    for e, _ in pairs:
        if e >= bound:
            raise BoundError(f"recovered exponent {e} is not below D^n = {bound}")
    coeffs = solve_transposed_vandermonde([r for _, r in pairs], seq[:t], p)
    result = canonicalize_columns(coeffs, [e for e, _ in pairs], 1, ring)
    if n > 1:
        result = kronecker_unpack(result, cfg.D, n)
    if cfg.verify_trials and not verify(
        result, bb, cfg.verify_trials, random.Random(cfg.seed)
    ):
        raise VerificationError("verification probes contradict the candidate")
    stats.verify_trials = cfg.verify_trials
    stats.probes = bb.probes
    return result


def interpolate_early_termination(
    bb: ProbeCountingOracle,
    ctx: SmoothPrimeContext,
    cfg: InterpConfig,
    stats: InterpStats | None = None,
) -> SparsePoly:
    """Stop probing once the recurrence stays stable for the window.

    Total probes are at most 2t + 4 for a t-sparse oracle.  Monte
    Carlo: a sequence can look stable prematurely, with
    probability at most about t*D^n/p per window position, vanishing for
    the prime sizes in use; verify_trials buys additional assurance.
    """
    return interpolate_prony(bb, ctx, replace(cfg, early_termination=True), stats)


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    inv = pow(m1 % m2, -1, m2)
    return (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)


def interpolate_integer(
    bb: ProbeCountingOracle,
    cfg: InterpConfig,
    stats: InterpStats | None = None,
) -> SparsePoly:
    """Exact integer-coefficient recovery of an n-variate oracle.

    The support comes from interpolate_prony modulo one smooth prime
    with subgroup order at least D^n.  Each further prime p2 draws one
    random base b_v per variable; a term x^e then has root
    prod b_v^(e_v) mod p2, and its coefficient comes from a Vandermonde
    solve on the stream f(b_1^j, ..., b_n^j).  The residues are Chinese
    remaindered until the modulus exceeds 2H + 1 and lifted to signed
    representatives.
    """
    if stats is None:
        stats = InterpStats()
    if bb.ring.kind != INTEGERS:
        raise UnsupportedRingError("interpolate_integer expects an integer oracle")
    if cfg.H is None:
        raise ValueError("a height bound H is required over the integers")
    n = bb.nvars
    rng = random.Random(cfg.seed)
    ctx = find_smooth_prime(max(2, cfg.D ** n), 2, rng)
    modpoly = interpolate_prony(bb, ctx, replace(cfg, verify_trials=0), stats)
    stats.crt_primes = [ctx.p]
    if modpoly.is_zero():
        return zero(bb.ring, n)
    residues = modpoly.coeffs
    modulus = ctx.p
    target = 2 * cfg.H + 1
    used = {ctx.p}
    guard = 0
    while modulus <= target:
        guard += 1
        if guard > 512:
            raise NonSplitError("could not assemble enough coefficient primes")
        p2 = random_prime(rng, cfg.coeff_prime_bits)
        if p2 in used:
            continue
        bases = [rng.randrange(2, p2) for _ in range(n)]
        roots2 = _term_values(modpoly, bases, p2)
        if len(set(roots2)) != len(roots2):
            continue
        used.add(p2)
        values2 = list(islice(bb.stream(bases, p2), len(residues)))
        c2 = solve_transposed_vandermonde(roots2, values2, p2)
        residues = [
            _crt_pair(r, modulus, v, p2) for r, v in zip(residues, c2)
        ]
        modulus *= p2
        stats.crt_primes.append(p2)
    half = modulus // 2
    coeffs = [c - modulus if c > half else c for c in residues]
    result = canonicalize_columns(coeffs, modpoly.flat_exps, n, bb.ring)
    if cfg.verify_trials and not verify(result, bb, cfg.verify_trials, rng):
        raise VerificationError(
            "verification probe mismatch; height or term bounds were violated"
        )
    stats.verify_trials = cfg.verify_trials
    stats.probes = bb.probes
    return result


def interpolate_multivariate(
    bb: ProbeCountingOracle,
    cfg: InterpConfig,
    n: int,
    D: int,
    stats: InterpStats | None = None,
) -> SparsePoly:
    """Recover an n-variate polynomial with per-variable degree bound D.

    Dispatches on the oracle's ring: interpolate_integer over Z,
    interpolate_prony over Z_p.  Both probe the n-variate oracle at
    Kronecker points and verify on n-variate points.
    """
    if n != bb.nvars:
        raise ArityError(f"oracle has {bb.nvars} variables, not {n}")
    cfg = replace(cfg, D=D)
    if bb.ring.kind == INTEGERS:
        return interpolate_integer(bb, cfg, stats)
    ctx = context_from_prime(bb.ring.modulus, D ** n, random.Random(cfg.seed))
    return interpolate_prony(bb, ctx, cfg, stats)


def verify(
    candidate: SparsePoly,
    bb: ProbeCountingOracle,
    trials: int,
    rng: random.Random,
) -> bool:
    """Monte Carlo identity test between a candidate and the oracle.

    Each trial compares the two at one random point with one coordinate
    per oracle variable.  Over Z_p (also for the image of an integer
    oracle) the per-trial false-accept probability is at most n*D/p by
    Schwartz-Zippel, with D the per-variable degree bound; over Z each
    trial uses a fresh random 62-bit prime and point.
    """
    for _ in range(trials):
        if candidate.ring.is_field:
            p = candidate.ring.modulus
            point = tuple(rng.randrange(p) for _ in range(bb.nvars))
            want = bb.eval(point) if bb.ring.is_field else bb.eval_at_mod(point, p)
            if evaluate(candidate, point) != want:
                return False
        else:
            q = random_prime(rng, 62)
            point = tuple(rng.randrange(q) for _ in range(bb.nvars))
            if evaluate_mod(candidate, point, q) != bb.eval_at_mod(point, q):
                return False
    return True
