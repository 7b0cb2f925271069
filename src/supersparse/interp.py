"""Sparse interpolation from black-box evaluations.

The pipeline over a smooth prime field: probe the oracle on a geometric
progression of the subgroup generator, fit the minimal linear recurrence
(Berlekamp-Massey), split its roots inside the power-of-two subgroup,
read exponents off the roots by discrete logarithm, then solve one
transposed Vandermonde system for the coefficients.

Integer coefficients are recovered by reusing the discovered support
modulo additional ordinary primes and Chinese remaindering until the
modulus clears twice the height bound.  Requiring the subgroup order to
reach the degree bound makes exponents injective in the subgroup, so no
collision analysis is needed anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .dense import DensePoly, ModEngine, dp_divmod_modp, dp_gcd_modp, dp_trim
from .errors import (
    BoundError,
    NonSplitError,
    UnsupportedRingError,
    VerificationError,
)
from .poly import (
    SparsePoly,
    canonicalize,
    evaluate,
    evaluate_mod,
    zero,
)
from .ring import (
    INTEGERS,
    RingSpec,
    SmoothPrimeContext,
    discrete_log_pow2,
    find_smooth_prime,
    pow_mod,
    random_prime,
)


@dataclass
class InterpConfig:
    """Bounds and knobs for an interpolation run.

    T bounds the number of nonzero terms, D the degree (exponents must
    lie in [0, D)), H the height when coefficients are integers.
    """

    T: int
    D: int
    H: int | None = None
    early_termination: bool = False
    verify_trials: int = 0
    seed: int = 0
    stability_window: int = 2
    coeff_prime_bits: int = 62
    min_smooth_modulus: int = 2

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
    early_stopped: bool = False


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
        self.probes = 0

    @classmethod
    def from_poly(cls, f: SparsePoly) -> "ProbeCountingOracle":
        if f.ring.is_field:
            return cls(f.ring, f.nvars, fn=lambda pt: evaluate(f, pt))
        return cls(
            f.ring,
            f.nvars,
            fn=lambda pt: evaluate(f, pt),
            modfn=lambda pt, p: evaluate_mod(f, pt, p),
        )

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
        d = seq[n]
        C = self.C
        for i in range(1, min(self.L, len(C) - 1) + 1):
            d = (d + C[i] * seq[n - i]) % p
        if d == 0:
            self.m += 1
            return False
        coef = d * pow(self.b, p - 2, p) % p
        shifted = [0] * self.m + self.B
        if 2 * self.L <= n:
            old = C[:]
            width = max(len(C), len(shifted))
            newC = [
                ((C[i] if i < len(C) else 0) - coef * (shifted[i] if i < len(shifted) else 0)) % p
                for i in range(width)
            ]
            self.C = dp_trim(newC) or [1]
            self.L = n + 1 - self.L
            self.B = old
            self.b = d
            self.m = 1
        else:
            width = max(len(C), len(shifted))
            newC = [
                ((C[i] if i < len(C) else 0) - coef * (shifted[i] if i < len(shifted) else 0)) % p
                for i in range(width)
            ]
            self.C = dp_trim(newC) or [1]
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
# Root finding inside the subgroup.

def find_roots_subgroup(
    lam: DensePoly,
    ctx: SmoothPrimeContext,
    rng: random.Random,
    *,
    max_retries: int = 64,
) -> list[int]:
    """All roots of lam, required simple and inside the order-2^k subgroup.

    First certifies lam divides z^(2^k) - 1 (distinct subgroup roots),
    then splits by gcds with random shifts (z + b)^((p-1)/2) - 1.
    """
    p = ctx.p
    coeffs = [c % p for c in lam.coeffs]
    dp_trim(coeffs)
    t = len(coeffs) - 1
    if t <= 0:
        return []
    if coeffs[0] == 0:
        raise NonSplitError("recurrence polynomial vanishes at zero")
    if coeffs[-1] != 1:
        inv = pow(coeffs[-1], p - 2, p)
        coeffs = [c * inv % p for c in coeffs]
    engine = ModEngine(coeffs, p)
    if engine.lower(engine.powmod(engine.lift([0, 1]), 1 << ctx.k)) != [1]:
        raise NonSplitError("roots are not distinct subgroup elements")
    half = (p - 1) // 2
    roots: list[int] = []
    stack = [coeffs]
    while stack:
        h = stack.pop()
        dh = len(h) - 1
        if dh == 1:
            roots.append((-h[0]) % p)
            continue
        engine = ModEngine(h, p)
        for _ in range(max_retries):
            shift = rng.randrange(p)
            s = engine.lower(engine.powmod(engine.lift([shift, 1]), half))
            if s:
                s[0] = (s[0] - 1) % p
            else:
                s = [p - 1]
            g1 = dp_gcd_modp(s, h, p)
            d1 = len(g1) - 1
            if 0 < d1 < dh:
                g2, rem = dp_divmod_modp(h, g1, p)
                assert not rem
                stack.append(g1)
                stack.append(g2)
                break
        else:
            raise NonSplitError(
                f"failed to split a degree-{dh} factor in {max_retries} tries"
            )
    return roots


def solve_transposed_vandermonde(roots: Sequence[int], values: Sequence[int], p: int) -> list[int]:
    """Coefficients c with sum_i c_i * roots_i^j = values_j for j < t.

    Master-polynomial method: c_i is the inner product of values with
    the coefficients of prod(z - r_j, j != i) / prod(r_i - r_j, j != i).
    """
    t = len(roots)
    if len(set(roots)) != t:
        raise ValueError("roots must be pairwise distinct")
    if any(r % p == 0 for r in roots):
        raise ValueError("roots must be nonzero")
    if len(values) < t:
        raise ValueError("need at least t sequence values")
    master = [1]
    for r in roots:
        nxt = [0] * (len(master) + 1)
        for i, c in enumerate(master):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - c * r) % p
        master = nxt
    out = []
    for r in roots:
        # Synthetic division of the master polynomial by (z - r).
        q = [0] * t
        carry = master[t]
        for i in range(t - 1, -1, -1):
            q[i] = carry
            carry = (master[i] + carry * r) % p
        denom = 0
        acc = 0
        rpow = 1
        for i in range(t):
            denom = (denom + q[i] * rpow) % p
            acc = (acc + q[i] * values[i]) % p
            rpow = rpow * r % p
        out.append(acc * pow(denom, p - 2, p) % p)
    return out


# ---------------------------------------------------------------------------
# The univariate pipelines.

def _finish_from_sequence(
    bb_ring: RingSpec,
    ctx: SmoothPrimeContext,
    cfg: InterpConfig,
    seq: list[int],
    lam: list[int],
    rng: random.Random,
    stats: InterpStats,
) -> SparsePoly:
    p = ctx.p
    t = len(lam) - 1
    stats.recurrence_degree = t
    if t == 0:
        return zero(bb_ring, 1)
    roots = find_roots_subgroup(DensePoly(bb_ring, tuple(lam)), ctx, rng)
    exps = [discrete_log_pow2(ctx, r) for r in roots]
    for e in exps:
        if e >= cfg.D:
            raise BoundError(f"recovered exponent {e} is not below D = {cfg.D}")
    coeffs = solve_transposed_vandermonde(roots, seq[:t], p)
    return canonicalize(zip(coeffs, [(e,) for e in exps]), 1, bb_ring)


def interpolate_prony(
    bb: ProbeCountingOracle,
    ctx: SmoothPrimeContext,
    cfg: InterpConfig,
    stats: InterpStats | None = None,
) -> SparsePoly:
    """Full recovery with exactly 2T probes (early termination off)."""
    if stats is None:
        stats = InterpStats()
    if not bb.ring.is_field or bb.ring.modulus != ctx.p:
        raise UnsupportedRingError("oracle field must match the subgroup context")
    if (1 << ctx.k) < cfg.D:
        raise BoundError("subgroup order 2^k must reach the degree bound D")
    rng = random.Random(cfg.seed)
    p = ctx.p
    stats.support_prime = p
    if cfg.early_termination:
        return _interpolate_et(bb, ctx, cfg, rng, stats)
    seq = []
    point = 1
    for _ in range(2 * cfg.T):
        seq.append(bb.eval((point,)))
        point = point * ctx.omega % p
    state = _BMState(p)
    for s in seq:
        state.update(s)
    result = _finish_from_sequence(bb.ring, ctx, cfg, seq, state.min_poly(), rng, stats)
    if cfg.verify_trials and not verify(result, bb, cfg.verify_trials, rng):
        raise VerificationError("verification probes contradict the candidate")
    stats.probes = bb.probes
    return result


def _interpolate_et(
    bb: ProbeCountingOracle,
    ctx: SmoothPrimeContext,
    cfg: InterpConfig,
    rng: random.Random,
    stats: InterpStats,
) -> SparsePoly:
    p = ctx.p
    lam_window = 2 * cfg.stability_window
    cap = 2 * cfg.T + lam_window
    state = _BMState(p)
    seq: list[int] = []
    point = 1
    last_change = 0
    while True:
        seq.append(bb.eval((point,)))
        point = point * ctx.omega % p
        if state.update(seq[-1]):
            last_change = len(seq)
        n = len(seq)
        if n - last_change >= lam_window and n >= 2 * state.L + lam_window:
            break
        if n >= cap:
            break
    stats.early_stopped = True
    result = _finish_from_sequence(bb.ring, ctx, cfg, seq, state.min_poly(), rng, stats)
    if cfg.verify_trials and not verify(result, bb, cfg.verify_trials, rng):
        raise VerificationError("verification probes contradict the candidate")
    stats.probes = bb.probes
    return result


def interpolate_early_termination(
    bb: ProbeCountingOracle,
    ctx: SmoothPrimeContext,
    cfg: InterpConfig,
    stats: InterpStats | None = None,
) -> SparsePoly:
    """Stop probing once the recurrence stays stable for the window.

    Total probes are at most 2t + 2*stability_window for a t-sparse
    oracle.  Monte Carlo: a sequence can look stable prematurely, with
    probability at most about t*D/p per window position, vanishing for
    the prime sizes in use; verify_trials buys additional assurance.
    """
    return interpolate_prony(bb, ctx, replace(cfg, early_termination=True), stats)


class _ModView:
    """Univariate prime-field face of an integer modular oracle."""

    def __init__(self, bb: ProbeCountingOracle, p: int):
        self._bb = bb
        self.ring = RingSpec("Zp", p)
        self.nvars = 1
        self._p = p

    @property
    def probes(self) -> int:
        return self._bb.probes

    def eval(self, point: tuple) -> int:
        return self._bb.eval_at_mod(point, self._p)


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    inv = pow(m1 % m2, -1, m2)
    return (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)


def interpolate_integer(
    bb: ProbeCountingOracle,
    cfg: InterpConfig,
    stats: InterpStats | None = None,
) -> SparsePoly:
    """Exact integer-coefficient recovery.

    The support comes from one smooth prime with subgroup order at least
    D; coefficients are then Chinese-remaindered from Vandermonde solves
    modulo ordinary primes until the modulus exceeds 2H + 1, and lifted
    to signed representatives.
    """
    if stats is None:
        stats = InterpStats()
    if bb.ring.kind != INTEGERS:
        raise UnsupportedRingError("interpolate_integer expects an integer oracle")
    if cfg.H is None:
        raise ValueError("a height bound H is required over the integers")
    rng = random.Random(cfg.seed)
    ctx = find_smooth_prime(max(2, cfg.D), cfg.min_smooth_modulus, rng)
    view = _ModView(bb, ctx.p)
    sub_cfg = replace(cfg, verify_trials=0)
    modpoly = interpolate_prony(view, ctx, sub_cfg, stats)
    stats.support_prime = ctx.p
    stats.crt_primes = [ctx.p]
    if modpoly.is_zero():
        stats.probes = bb.probes
        return zero(bb.ring, 1)
    exps = [t.exps[0] for t in modpoly.terms]
    residues = [t.coeff for t in modpoly.terms]
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
        theta = rng.randrange(2, p2)
        roots2 = [pow(theta, e % (p2 - 1), p2) for e in exps]
        if len(set(roots2)) != len(roots2):
            continue
        used.add(p2)
        values2 = [
            bb.eval_at_mod((pow(theta, j, p2),), p2) for j in range(len(exps))
        ]
        c2 = solve_transposed_vandermonde(roots2, values2, p2)
        residues = [
            _crt_pair(r, modulus, v, p2) for r, v in zip(residues, c2)
        ]
        modulus *= p2
        stats.crt_primes.append(p2)
    half = modulus // 2
    coeffs = [c - modulus if c > half else c for c in residues]
    result = canonicalize(zip(coeffs, [(e,) for e in exps]), 1, bb.ring)
    if cfg.verify_trials and not verify(result, bb, cfg.verify_trials, rng):
        raise VerificationError(
            "verification probe mismatch; height or term bounds were violated"
        )
    stats.probes = bb.probes
    return result


class _KroneckerView:
    """Univariate face of an n-variate oracle through the packing point."""

    def __init__(self, bb: ProbeCountingOracle, bound: int, n: int):
        self._bb = bb
        self._bound = bound
        self._n = n
        self.ring = bb.ring
        self.nvars = 1

    @property
    def probes(self) -> int:
        return self._bb.probes

    def _point(self, theta: int, p: int | None) -> tuple:
        if p is None:
            return tuple(theta ** (self._bound ** j) for j in range(self._n))
        ring = RingSpec("Zp", p)
        return tuple(pow_mod(theta, self._bound ** j, ring) for j in range(self._n))

    def eval(self, point: tuple) -> int:
        (theta,) = point
        if self.ring.is_field:
            return self._bb.eval((self._point(theta, self.ring.modulus)))
        return self._bb.eval(self._point(theta, None))

    def eval_at_mod(self, point: tuple, p: int) -> int:
        (theta,) = point
        return self._bb.eval_at_mod(self._point(theta, p), p)


def interpolate_multivariate(
    bb: ProbeCountingOracle,
    cfg: InterpConfig,
    n: int,
    D: int,
    stats: InterpStats | None = None,
) -> SparsePoly:
    """Recover an n-variate polynomial through one-variable reduction.

    The oracle is probed at packing points (x, x^D, ..., x^(D^(n-1))),
    the univariate image is interpolated with degree bound D^n, and the
    exponents are unpacked base D.  Sparsity is unchanged by the map.
    """
    from .poly import kronecker_unpack
    from .ring import context_from_prime

    if stats is None:
        stats = InterpStats()
    if n < 1:
        raise ValueError("n must be at least 1")
    packed_cfg = replace(cfg, D=D ** n)
    view = _KroneckerView(bb, D, n) if n > 1 else bb
    if bb.ring.kind == INTEGERS:
        uni = interpolate_integer(view, packed_cfg, stats)
    else:
        rng = random.Random(cfg.seed)
        ctx = context_from_prime(bb.ring.modulus, D ** n, rng)
        uni = interpolate_prony(view, ctx, packed_cfg, stats)
    if n == 1:
        return uni
    return kronecker_unpack(uni, D, n)


def verify(
    candidate: SparsePoly,
    bb: ProbeCountingOracle,
    trials: int,
    rng: random.Random,
) -> bool:
    """Monte Carlo identity test between a candidate and the oracle.

    Over a field the per-trial false-accept probability is at most D/p;
    over Z each trial uses a fresh random prime and point.
    """
    for _ in range(trials):
        if candidate.ring.is_field:
            p = candidate.ring.modulus
            point = tuple(rng.randrange(p) for _ in range(bb.nvars))
            if evaluate(candidate, point) != bb.eval(point):
                return False
        else:
            q = random_prime(rng, 62)
            point = tuple(rng.randrange(q) for _ in range(bb.nvars))
            if evaluate_mod(candidate, point, q) != bb.eval_at_mod(point, q):
                return False
    return True
