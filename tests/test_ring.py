import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import (
    NotInSubgroupError,
    PrimeSearchError,
    SmoothPrimeContext,
    Zp,
    discrete_log_pow2,
    find_smooth_prime,
    is_prime,
    pow_mod,
    qth_power_residue,
)
from supersparse.ring import context_from_prime, prime_one_mod, random_prime, read_exponent


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def slow_pow_full_exponent(a, e, p):
    # square-and-multiply on the full exponent, no Fermat reduction
    result = 1
    base = a % p
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def test_is_prime_against_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_large():
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 62) - 1)
    assert is_prime(2 ** 89 - 1)


def test_find_smooth_prime_small_subgroups():
    rng = random.Random(0)
    ctx = find_smooth_prime(1 << 5, 2, rng)
    assert trial_division_is_prime(ctx.p)
    assert ctx.p % (1 << 5) == 1
    assert (1 << ctx.k) >= 1 << 5
    ctx = find_smooth_prime(1 << 8, 2, rng)
    assert trial_division_is_prime(ctx.p)
    assert ctx.p % (1 << 8) == 1


def test_smallest_admissible_prime_is_three():
    # 3 = 1*2 + 1 passes every context invariant
    ctx = SmoothPrimeContext(p=3, k=1, c=1, omega=2)
    assert ctx.subgroup_order == 2
    found = find_smooth_prime(2, 2, random.Random(1))
    assert found.p >= 3


def test_context_invariants_generated():
    rng = random.Random(5)
    for min_sub in (2, 1 << 4, 1 << 10, 1 << 20):
        ctx = find_smooth_prime(min_sub, 2, rng)
        assert is_prime(ctx.p)
        assert ctx.c % 2 == 1
        assert ctx.p == ctx.c * (1 << ctx.k) + 1
        assert pow(ctx.omega, 1 << ctx.k, ctx.p) == 1
        assert pow(ctx.omega, 1 << (ctx.k - 1), ctx.p) != 1


def test_find_smooth_prime_min_modulus():
    rng = random.Random(2)
    ctx = find_smooth_prime(4, 10 ** 6, rng)
    assert ctx.p >= 10 ** 6


def test_find_smooth_prime_budget_error():
    with pytest.raises(PrimeSearchError):
        find_smooth_prime(4, 2, random.Random(0), max_attempts=0)


def test_pow_mod_examples():
    F97 = Zp(97)
    assert pow_mod(5, 0, F97) == 1
    assert pow_mod(2, 96, F97) == 1
    e = 1 << 64
    assert pow_mod(3, e, F97) == pow(3, e % 96, 97)
    assert pow_mod(3, e, F97) == slow_pow_full_exponent(3, e, 97)


def test_pow_mod_zero_base():
    F97 = Zp(97)
    assert pow_mod(0, 0, F97) == 1
    assert pow_mod(0, 5, F97) == 0
    assert pow_mod(97, 3, F97) == 0


def test_pow_mod_fermat_reduction_property():
    rng = random.Random(3)
    for _ in range(200):
        p = random_prime(rng, 40)
        F = Zp(p)
        a = rng.randrange(1, p)
        e = rng.randrange(0, 1 << 200)
        assert pow_mod(a, e, F) == pow_mod(a, e % (p - 1), F)
        assert pow_mod(a, e, F) == slow_pow_full_exponent(a, e % (p - 1), p)


def test_discrete_log_examples():
    rng = random.Random(4)
    ctx = find_smooth_prime(1 << 16, 2, rng)
    assert discrete_log_pow2(ctx, 1) == 0
    assert discrete_log_pow2(ctx, ctx.omega) == 1


def test_discrete_log_round_trip():
    rng = random.Random(6)
    ctx = find_smooth_prime(1 << 20, 2, rng)
    for _ in range(200):
        e = rng.randrange(1 << 20)
        y = pow(ctx.omega, e, ctx.p)
        assert discrete_log_pow2(ctx, y) == e


def test_discrete_log_rejects_outsiders():
    rng = random.Random(7)
    ctx = find_smooth_prime(1 << 8, 2, rng)
    # an element of odd order c > 1 is outside the 2^k subgroup
    for g in range(2, ctx.p):
        y = pow(g, 1 << ctx.k, ctx.p)
        if y != 1:
            with pytest.raises(NotInSubgroupError):
                discrete_log_pow2(ctx, y)
            break
    with pytest.raises(NotInSubgroupError):
        discrete_log_pow2(ctx, 0)


def test_qth_power_residue_quadratic_exhaustive():
    squares = {x * x % 97 for x in range(1, 97)}
    for a in range(1, 97):
        assert qth_power_residue(97, a, 2) == (a in squares)


def test_qth_power_residue_cubes():
    rng = random.Random(8)
    assert qth_power_residue(97, 1, 2)
    assert qth_power_residue(97, 1, 3)
    for _ in range(50):
        b = rng.randrange(1, 97)
        assert qth_power_residue(97, pow(b, 3, 97), 3)


def test_qth_power_residue_precondition():
    with pytest.raises(ValueError):
        qth_power_residue(97, 5, 5)  # 5 does not divide 96
    with pytest.raises(ValueError):
        qth_power_residue(97, 0, 2)


def test_qth_power_residue_qth_powers_always_pass():
    rng = random.Random(9)
    for _ in range(50):
        q = rng.choice([2, 3, 5, 7])
        p = prime_one_mod(rng, q, min_bits=20)
        a = rng.randrange(1, p)
        assert qth_power_residue(p, pow(a, q, p), q)


def test_context_from_prime():
    rng = random.Random(10)
    ctx = find_smooth_prime(1 << 12, 2, rng)
    rebuilt = context_from_prime(ctx.p, 1 << 12, rng)
    assert rebuilt.p == ctx.p and rebuilt.k == ctx.k
    with pytest.raises(PrimeSearchError):
        context_from_prime(7, 1 << 12, rng)  # 7 - 1 has 2-part 2


_READ_CTXS = {k: find_smooth_prime(1 << k, 2, random.Random(k)) for k in (1, 5, 32, 60, 64)}
assert all(ctx.k == k for k, ctx in _READ_CTXS.items())


@st.composite
def _read_cases(draw):
    """A context, s bits per step, an exponent e and how many of its low bits are given."""
    ctx = _READ_CTXS[draw(st.sampled_from(sorted(_READ_CTXS)))]
    s = draw(st.integers(1, min(ctx.k, 10)))
    e = draw(st.integers(0, (1 << ctx.k) - 1))
    # j past k - s makes the last step overlap the bits already given.
    j = draw(st.one_of(st.integers(0, ctx.k), st.integers(max(0, ctx.k - s), ctx.k)))
    return ctx, s, e, j


@settings(max_examples=150, deadline=None)
@given(_read_cases())
def test_read_exponent_recovers_every_exponent(case):
    ctx, s, e, j = case
    p, k = ctx.p, ctx.k
    w = pow(ctx.omega, 1 << (k - s), p)
    logs = {pow(w, v, p): v for v in range(1 << s)}
    r = pow(ctx.omega, e, p)
    assert read_exponent(ctx, r, e & ((1 << j) - 1), j, logs) == e

