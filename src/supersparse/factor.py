"""Tractable factorization fragments for supersparse integer polynomials.

Complete factorization is hopeless here (x^D - 1 has a dense factor with
D terms), but three fragments are exact and cheap: splitting at large
exponent gaps, rational linear factors confirmed through the gap
structure, and perfect-power detection with a deterministic certificate.
Factors of modulus-one roots (x - 1, x + 1) fall outside the gap
argument and are decided by exact signed coefficient sums instead.
Pollard rho factors the coefficients for rational-root candidates under
a step budget: past it the search raises BudgetError instead of running on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import _check_compat, _primitive, linear_divides_exact, power
from .errors import BoundError, BudgetError, UnsupportedRingError, ZeroPolynomialError
from .poly import SparsePoly, _coeff_sums_at_pm_one, degree, evaluate_mod, shift

# Gap splitting is a term-level job of poly; factor re-exports it.
from .poly import GapSplit, default_gap_threshold, gap_split, reassemble
from .ring import INTEGERS, is_prime, prime_one_mod


@dataclass(frozen=True)
class PowerReport:
    """Largest power k with f = g^k for some g; k = 1 means none found.

    k > 1 is Monte Carlo with the stated confidence; certify_power gives
    the deterministic check once a candidate g is in hand.
    """

    k: int
    confidence: float
    witnesses: tuple[tuple[int, int], ...] = ()


def eval_at_pm_one(f: SparsePoly) -> tuple[int, int]:
    """(f(1), f(-1)) as exact signed coefficient sums, O(t) additions."""
    if f.ring.kind != INTEGERS:
        raise UnsupportedRingError("eval_at_pm_one is defined over Z")
    return _coeff_sums_at_pm_one(f)


def content_and_primitive(f: SparsePoly) -> tuple[int, SparsePoly]:
    """Integer content (carrying the leading sign) and primitive part."""
    if f.ring.kind != INTEGERS:
        raise UnsupportedRingError("content is defined over Z")
    return _primitive(f)


# Pollard rho steps per split, a step being one advance of the sequence.
# A cycle that Floyd's search (three advances and a gcd a step) closes at
# step i, Brent's closes by step 4i + 2 plus one batch, for the same c; so
# 2^22 steps reach as far as 2^20 Floyd steps: factors up to about 40 bits.
# At about 0.8 us a step (128-bit n, 2-vCPU VM) a refusal takes 3-3.5 s.
_RHO_STEPS = 1 << 22
# Differences multiplied together per gcd in the rho search.
_RHO_BATCH = 128
# Divisors of an end coefficient, and (a, b) pairs, a linear factor search may try.
_CANDIDATE_BUDGET = 10_000


def _divisors(n: int, budget: int) -> list[int]:
    """All positive divisors of |n|, via factoring; budget caps the count."""
    n = abs(n)
    if n == 0:
        raise ValueError("zero has no divisor list")
    factors: dict[int, int] = {}

    def factor_into(m: int):
        for q in (2, 3, 5):
            while m % q == 0:
                factors[q] = factors.get(q, 0) + 1
                m //= q
        if m == 1:
            return
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            return
        d = _pollard_rho(m)
        if d is None:
            raise BudgetError(
                f"factoring the coefficient {n} exceeds {_RHO_STEPS} Pollard rho steps"
            )
        factor_into(d)
        factor_into(m // d)

    factor_into(n)
    divs = [1]
    for q, e in factors.items():
        divs = [d * q ** j for d in divs for j in range(e + 1)]
        if len(divs) > budget:
            raise BudgetError(
                f"divisor count of {n} exceeds the candidate budget {budget}"
            )
    return sorted(divs)


def _pollard_rho(n: int) -> int | None:
    """A factor 1 < d < n of the odd composite n, or None past _RHO_STEPS steps.

    Brent's cycle search on x -> x^2 + c: y walks the sequence, x holds
    y's value at the start of each doubling stage, and the differences
    x - y of a stage's second half are multiplied together mod n, so one
    gcd serves a batch of _RHO_BATCH of them.  When a batch's gcd is n,
    the batch is walked again one step at a time.  A step is one
    advance of y, and _RHO_STEPS bounds them for every c tried.
    """
    rng = random.Random(n)
    steps = 0
    while steps < _RHO_STEPS:
        c = rng.randrange(1, n)
        y = rng.randrange(2, n)
        d = 1
        r = 1
        while d == 1 and steps < _RHO_STEPS:
            x = y
            skip = min(r, _RHO_STEPS - steps)
            for _ in range(skip):
                y = (y * y + c) % n
            steps += skip
            k = 0
            while k < r and d == 1 and steps < _RHO_STEPS:
                batch_start = y
                batch = min(_RHO_BATCH, r - k, _RHO_STEPS - steps)
                q = 1
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                steps += batch
                k += batch
            r *= 2
        if d == n:
            y = batch_start
            d = 1
            while d == 1:
                y = (y * y + c) % n
                d = math.gcd(x - y, n)
        if 1 < d < n:
            return d
    return None


def linear_rational_factors(f: SparsePoly, rng: random.Random | None = None) -> list[tuple[int, int]]:
    """All (a, b) with gcd(a, b) = 1, b > 0 and (b*x - a) dividing f.

    Candidates come from divisor pairs of the trailing and leading
    coefficients, and each one goes to linear_divides_exact.  That test
    walks the gap blocks of f: it rejects a candidate at the first block
    whose image at a * b^-1 modulo one fixed prime is nonzero, and
    evaluates a block exactly only when that image vanishes.  The search
    is deterministic and the output exact; rng is accepted for
    compatibility and unused.  Multiplicities are not reported.
    """
    if f.ring.kind != INTEGERS:
        raise UnsupportedRingError("linear factor search is defined over Z")
    if f.nvars != 1:
        raise UnsupportedRingError("linear factor search is univariate")
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has every root")
    _, fp = content_and_primitive(f)
    found: list[tuple[int, int]] = []
    v = fp.flat_exps[0]
    if v >= 1:
        found.append((0, 1))
        fp = shift(fp, -v)
    if degree(fp) == 0:
        return found
    trail = fp.coeffs[0]
    lead = fp.coeffs[-1]
    nums = _divisors(trail, _CANDIDATE_BUDGET)
    dens = _divisors(lead, _CANDIDATE_BUDGET)
    if len(nums) * len(dens) > _CANDIDATE_BUDGET:
        raise BudgetError("candidate pair count exceeds the budget")
    for b in dens:
        for a_abs in nums:
            if math.gcd(a_abs, b) != 1:
                continue
            for a in (a_abs, -a_abs):
                if linear_divides_exact(fp, a, b):
                    found.append((a, b))
    found.sort(key=lambda ab: Fraction(ab[0], ab[1]))
    return found


def detect_perfect_power(
    f: SparsePoly, rng: random.Random, confidence_target: float = 0.999999
) -> PowerReport:
    """Largest k with f = g^k for some g, by power-residue sampling.

    For each candidate prime power q^m dividing deg f, f(a) mod p must be
    a q^m-th power residue at every sampled (a, p) with p = 1 mod q^m; a
    true power always passes, so only overestimates of k are possible
    and their probability is bounded by the reported confidence.
    Content is removed first, so k describes the primitive part.
    """
    if f.ring.kind != INTEGERS:
        raise UnsupportedRingError("perfect-power detection is defined over Z")
    if f.nvars != 1:
        raise UnsupportedRingError("perfect-power detection is univariate")
    if f.is_zero() or degree(f) == 0:
        raise BoundError("f must be nonzero and nonconstant")
    _, fp = content_and_primitive(f)
    d = int(degree(fp))
    if len(fp) == 1:
        # +-x^e is exactly the e-th power of x.
        return PowerReport(k=d, confidence=1.0)
    loglog = math.log2(max(math.log2(max(d, 4)), 1.0))
    qs = [q for q in _primes_up_to(int(64 * (1 + loglog))) if d % q == 0]
    est_tests = max(1, sum(_max_power(d, q) for q in qs))
    per_test = (1.0 - confidence_target) / est_tests
    k = 1
    witnesses: list[tuple[int, int]] = []
    err_bound = 0.0
    for q in qs:
        m = 0
        while d % q ** (m + 1) == 0:
            qm = q ** (m + 1)
            trials = max(2, math.ceil(-math.log(max(per_test, 1e-18)) / math.log(qm)))
            ok = True
            for _ in range(trials):
                p = prime_one_mod(rng, qm, min_bits=32)
                for _ in range(64):
                    a = rng.randrange(1, p)
                    v = evaluate_mod(fp, (a,), p)
                    if v != 0:
                        break
                else:
                    ok = False
                    break
                witnesses.append((p, a))
                if pow(v, (p - 1) // qm, p) != 1:
                    ok = False
                    break
            if not ok:
                break
            err_bound += qm ** -trials
            m += 1
        k *= q ** m
    confidence = max(0.0, 1.0 - err_bound) if k > 1 else 1.0
    return PowerReport(k=k, confidence=confidence, witnesses=tuple(witnesses))


def _max_power(d: int, q: int) -> int:
    m = 0
    while d % q ** (m + 1) == 0:
        m += 1
    return m


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    out = []
    for q in range(2, n + 1):
        if sieve[q]:
            out.append(q)
            for mult in range(q * q, n + 1, q):
                sieve[mult] = 0
    return out


def certify_power(f: SparsePoly, g: SparsePoly, k: int) -> bool:
    """Deterministic certificate: does g^k equal f exactly?"""
    _check_compat(f, g)
    if k < 1:
        raise ValueError("k must be at least 1")
    return power(g, k) == f
