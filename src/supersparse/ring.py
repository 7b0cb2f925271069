"""Coefficient rings and the number theory behind sparse interpolation.

Two rings are supported: the integers, and prime fields Z_p with
canonical representatives in [0, p).  Interpolation works over primes of
the shape p = c*2^k + 1 with c odd, so that the multiplicative group has
a subgroup of order 2^k in which discrete logarithms come out one bit at
a time.  Exponents are arbitrary-precision throughout; powering always
reduces the exponent modulo p - 1 first, so its cost depends on log(e),
never on e.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    NotInSubgroupError,
    PrimeSearchError,
    UnsupportedRingError,
)

INTEGERS = "Z"
PRIME_FIELD = "Zp"

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)

# Deterministic Miller-Rabin witness set, valid for all n < 2^64.
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic below 2^64; above that, 40 rounds with bases drawn from
    a PRNG seeded by n itself, so results are reproducible.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < 1 << 64:
        witnesses = _MR_WITNESSES_64
    else:
        gen = random.Random(n)
        witnesses = [gen.randrange(2, n - 1) for _ in range(40)]
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """A coefficient ring: the integers, or Z_p for prime p."""

    kind: str
    modulus: int | None = None

    @property
    def is_field(self) -> bool:
        return self.kind == PRIME_FIELD

    def normalize(self, a: int) -> int:
        return a % self.modulus if self.modulus else a

    def neg(self, a: int) -> int:
        return -a % self.modulus if self.modulus else -a

    def inv(self, a: int) -> int:
        if not self.is_field:
            if a in (1, -1):
                return a
            raise UnsupportedRingError(f"{a} is not a unit in Z")
        return pow(a, self.modulus - 2, self.modulus)

    def __str__(self) -> str:
        return "Z" if self.kind == INTEGERS else f"Zp {self.modulus}"


ZZ = RingSpec(INTEGERS)


def Zp(p: int) -> RingSpec:
    """Prime field with modulus p (primality is checked)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return RingSpec(PRIME_FIELD, p)


@dataclass(frozen=True)
class SmoothPrimeContext:
    """A prime p = c*2^k + 1 (c odd) with a generator of the 2^k subgroup."""

    p: int
    k: int
    c: int
    omega: int

    def __post_init__(self):
        if self.c % 2 == 0 or self.p != self.c * (1 << self.k) + 1:
            raise ValueError("p must equal c*2^k + 1 with c odd")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if pow(self.omega, 1 << self.k, self.p) != 1 or (
            self.k >= 1 and pow(self.omega, 1 << (self.k - 1), self.p) == 1
        ):
            raise ValueError("omega does not have order exactly 2^k")

    @property
    def subgroup_order(self) -> int:
        return 1 << self.k

    def field(self) -> RingSpec:
        return RingSpec(PRIME_FIELD, self.p)

    @cached_property
    def inverse_squares(self) -> list[int]:
        """omega^(-2^i) mod p for i < k, by k - 1 squarings of omega^-1."""
        out = [pow(self.omega, -1, self.p)]
        for _ in range(self.k - 1):
            out.append(out[-1] * out[-1] % self.p)
        return out


def _find_subgroup_generator(p: int, c: int, k: int, rng: random.Random) -> int | None:
    # omega = g^c has order dividing 2^k; it is exact iff omega^(2^(k-1)) != 1.
    # The subgroup of order 2^0 (p = 2) is {1}.
    if k == 0:
        return 1
    half = 1 << (k - 1)
    for _ in range(64):
        g = rng.randrange(2, p - 1) if p > 3 else 2
        omega = pow(g, c, p)
        if omega != 1 and pow(omega, half, p) != 1:
            return omega
    return None


def find_smooth_prime(
    min_subgroup: int,
    min_modulus: int,
    rng: random.Random,
    *,
    max_attempts: int = 200_000,
) -> SmoothPrimeContext:
    """Search for p = c*2^k + 1 prime with 2^k >= min_subgroup and p >= min_modulus.

    Odd multipliers c are sampled from a window that doubles as attempts
    fail, rather than scanned sequentially.
    """
    if min_subgroup < 2:
        raise ValueError("min_subgroup must be at least 2")
    k = max(1, (min_subgroup - 1).bit_length())
    two_k = 1 << k
    c_floor = max(1, -(-(min_modulus - 1) // two_k))
    hi = c_floor + 64
    attempts = 0
    while attempts < max_attempts:
        for _ in range(64):
            attempts += 1
            c = rng.randrange(c_floor, hi) | 1
            p = c * two_k + 1
            if p < min_modulus or not is_prime(p):
                continue
            omega = _find_subgroup_generator(p, c, k, rng)
            if omega is not None:
                return SmoothPrimeContext(p=p, k=k, c=c, omega=omega)
        hi = 2 * hi
    raise PrimeSearchError(
        f"no prime c*2^{k}+1 >= {min_modulus} found in {max_attempts} attempts"
    )


def context_from_prime(p: int, min_subgroup: int, rng: random.Random) -> SmoothPrimeContext:
    """Build a subgroup context for an existing prime p.

    Fails if the power-of-two part of p - 1 is below min_subgroup.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k = ((p - 1) & -(p - 1)).bit_length() - 1
    if (1 << k) < min_subgroup:
        raise PrimeSearchError(
            f"2-part of {p} - 1 is 2^{k}, below required subgroup {min_subgroup}"
        )
    c = (p - 1) >> k
    omega = _find_subgroup_generator(p, c, k, rng)
    if omega is None:
        raise PrimeSearchError(f"could not find a subgroup generator mod {p}")
    return SmoothPrimeContext(p=p, k=k, c=c, omega=omega)


def pow_mod(a: int, e: int, ring: RingSpec) -> int:
    """a^e in Z_p with the exponent first reduced modulo p - 1.

    Cost is polynomial in log(e) and log(p).  a = 0 is handled directly
    (0^0 = 1 by the empty-product convention).
    """
    if not ring.is_field:
        raise UnsupportedRingError("pow_mod requires a prime field")
    if e < 0:
        raise ValueError("exponent must be a natural number")
    p = ring.modulus
    a %= p
    if a == 0:
        return 1 % p if e == 0 else 0
    return pow(a, e % (p - 1), p)


def discrete_log_pow2(ctx: SmoothPrimeContext, y: int) -> int:
    """The unique e in [0, 2^k) with omega^e = y, found bit by bit.

    Uses the base-2 Pohlig-Hellman reduction; O(k^2) multiplications.
    """
    p, k = ctx.p, ctx.k
    y %= p
    if y == 0 or pow(y, 1 << k, p) != 1:
        raise NotInSubgroupError(f"{y} is not in the order-2^{k} subgroup mod {p}")
    return read_exponent(ctx, y, 0, 0, {1: 0, p - 1: 1})


def read_exponent(ctx: SmoothPrimeContext, r: int, e: int, j: int, logs: dict) -> int:
    """The exponent e' of r = omega^e', given e, its low j bits, s bits per step.

    logs maps w^v to v for w = omega^(2^(k-s)) of order 2^s = len(logs).  With
    y = r*omega^(-e) and i = min(j, k - s), y^(2^(k-s-i)) = w^v holds bits i..i+s-1 of e' - e.
    y is corrected by one factor of ctx.inverse_squares per set bit.
    """
    p, k, s = ctx.p, ctx.k, len(logs).bit_length() - 1
    inv = ctx.inverse_squares
    y, d, i = r, e, 0  # y*omega^-(d << i) = r*omega^-e
    while j < k:
        while d:  # one table factor per set bit
            low = d & -d
            y = y * inv[i + low.bit_length() - 1] % p
            d ^= low
        i = min(j, k - s)
        d = logs[pow(y, 1 << (k - s - i), p)]
        e, j = e + (d << i), i + s
    return e


def qth_power_residue(p: int, a: int, q: int) -> bool:
    """True iff a is a q-th power modulo p, for prime q dividing p - 1."""
    if (p - 1) % q != 0:
        raise ValueError(f"{q} does not divide {p} - 1")
    a %= p
    if a == 0:
        raise ValueError("a must be nonzero mod p")
    return pow(a, (p - 1) // q, p) == 1


def random_prime(rng: random.Random, bits: int) -> int:
    """A random prime with exactly `bits` bits."""
    if bits < 2:
        raise ValueError("bits must be at least 2")
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(n):
            return n


def prime_one_mod(rng: random.Random, m: int, *, min_bits: int = 16) -> int:
    """A random prime congruent to 1 modulo m."""
    lo = max(2, (1 << min_bits) // m)
    while True:
        r = rng.randrange(lo, 4 * lo)
        p = r * m + 1
        if is_prime(p):
            return p
