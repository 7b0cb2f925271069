"""The dense layer: the Z_p[x]/(g) engine against schoolbook references,
exact dense division over Z inside `divides`, and pinned op counts."""

import math
import random
from fractions import Fraction

import pytest

from supersparse import (
    ZZ,
    ArithStats,
    DensePoly,
    UnsupportedRingError,
    Zp,
    divides,
    eval_mod,
    from_pairs,
    mul_heap,
)
from supersparse.dense import ModEngine, sum_of_powers

P28 = 268435399  # (m + 1)(p - 1)^2 < 2^63 up to m = 127: numpy residues
P61 = (1 << 61) - 1  # above the int64 rule for every m >= 2: list residues


def ref_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ref_trim(out)


def ref_mod(a, g, p):
    r = ref_trim([v % p for v in a])
    inv = pow(g[-1], p - 2, p)
    while len(r) >= len(g):
        c = r[-1] * inv % p
        shift = len(r) - len(g)
        for j, v in enumerate(g):
            r[shift + j] = (r[shift + j] - c * v) % p
        ref_trim(r)
    return r


def ref_pow(a, e, g, p):
    result = ref_mod([1], g, p)
    for _ in range(e):
        result = ref_mod(ref_mul(result, a, p), g, p)
    return result


MODULI = {
    "deg0": [5],
    "deg1-nonmonic": [3, 7],
    "deg5-nonmonic": [2, 0, 9, 1, 4, 6],
    "deg12-monic": [1, 3, 0, 0, 5, 0, 0, 0, 2, 0, 0, 7, 1],
}


@pytest.mark.parametrize("p", [P28, P61], ids=["p28", "p61"])
@pytest.mark.parametrize("name", sorted(MODULI))
def test_engine_matches_schoolbook(p, name):
    g = MODULI[name]
    m = len(g) - 1
    engine = ModEngine(g, p)
    assert engine.deg == m
    assert engine.use_np == (p == P28 and m >= 2)
    rng = random.Random(m * 1000 + p % 1000)

    def rand(n):
        return [rng.randrange(p) for _ in range(n)]

    for _ in range(10):
        a = rand(rng.randrange(0, 3 * m + 3))
        b = rand(rng.randrange(0, 3 * m + 3))
        ra, rb = ref_mod(a, g, p), ref_mod(b, g, p)
        ha, hb = engine.lift(a), engine.lift(b)
        assert engine.lower(ha) == ra
        assert engine.is_zero(ha) == (not ra)
        assert engine.lower(engine.mulmod(ha, hb)) == ref_mod(ref_mul(ra, rb, p), g, p)
        c = rng.randrange(p)
        want = ref_mod([x + c * y for x, y in zip(ra + [0] * len(rb), rb + [0] * len(ra))], g, p)
        assert engine.lower(engine.addmul_into(engine.lift(a), hb, c)) == want
        for e in (0, 1, 2, 7, 33):
            assert engine.lower(engine.powmod(ha, e)) == ref_pow(ra, e, g, p)
    assert engine.lower(engine.one()) == ref_mod([1], g, p)


@pytest.mark.parametrize("p", [P28, P61], ids=["p28", "p61"])
def test_engine_powmod_large_exponent_and_sum_of_powers(p):
    g = MODULI["deg5-nonmonic"]
    engine = ModEngine(g, p)
    h = [3, 1, 4]
    e = (1 << 64) + 12345

    def sq_mul_pow(a, n):
        result, acc = ref_mod([1], g, p), ref_mod(a, g, p)
        while n:
            if n & 1:
                result = ref_mod(ref_mul(result, acc, p), g, p)
            acc = ref_mod(ref_mul(acc, acc, p), g, p)
            n >>= 1
        return result

    assert engine.lower(engine.powmod(engine.lift(h), e)) == sq_mul_pow(h, e)
    terms = [(5, 0), (p - 1, 1), (7, e), (11, 3 * e + 1)]
    want = []
    for c, n in terms:
        term = [c * v for v in sq_mul_pow(h, n)]
        want = ref_mod([x + y for x, y in zip(want + [0] * len(term), term + [0] * len(want))], g, p)
    assert engine.lower(sum_of_powers(engine, h, terms)) == want


def frac_divides(f, g):
    """Reference: g | f over Q by Fraction long division (g primitive)."""
    fc = [Fraction(0)] * (f.terms[-1].exps[0] + 1)
    for t in f.terms:
        fc[t.exps[0]] = Fraction(t.coeff)
    gc = [0] * (g.terms[-1].exps[0] + 1)
    for t in g.terms:
        gc[t.exps[0]] = t.coeff
    while len(fc) >= len(gc):
        c = fc[-1] / gc[-1]
        shift = len(fc) - len(gc)
        for j, v in enumerate(gc):
            fc[shift + j] -= c * v
        fc.pop()
    return not any(fc)


def test_divides_z_nonmonic_primitive_divisor():
    g = from_pairs(ZZ, 1, [(2, 0), (1, 1), (3, 2)])  # 3x^2 + x + 2, primitive
    q = from_pairs(ZZ, 1, [(7, 0), (5, 1), (1, 3)])
    f, _ = mul_heap(g, q)
    stats = ArithStats()
    assert divides(f, g, stats=stats)
    assert stats.method == "dense-exact"
    # The first leading-coefficient step divides, a later one does not.
    near = from_pairs(ZZ, 1, [(t.coeff, t.exps[0]) for t in f.terms] + [(1, 2)])
    assert not divides(near, g, stats=stats)
    assert stats.method == "dense-exact"
    assert not divides(from_pairs(ZZ, 1, [(1, 0), (1, 4)]), g)


def test_divides_z_agrees_with_rational_division():
    rng = random.Random(5)
    for _ in range(200):
        dg = rng.randrange(2, 5)
        gc = [rng.randrange(-4, 5) for _ in range(dg)] + [rng.choice([-3, -2, 2, 3, 5])]
        g = from_pairs(ZZ, 1, list(zip(gc, range(dg + 1))))
        if math.gcd(*gc) != 1 or gc[0] == 0:
            continue
        q = from_pairs(ZZ, 1, [(rng.randrange(-3, 4), e) for e in range(rng.randrange(1, 5))])
        if q.is_zero():
            continue
        f, _ = mul_heap(g, q)
        if rng.random() < 0.5:
            f = from_pairs(ZZ, 1, [(t.coeff, t.exps[0]) for t in f.terms] + [(1, rng.randrange(6))])
        if f.is_zero():
            continue
        assert divides(f, g) == frac_divides(f, g)


def test_divides_z_gap_blocks_with_non_primitive_block():
    g = from_pairs(ZZ, 1, [(1, 0), (1, 1), (2, 2)])  # 2x^2 + x + 1, primitive
    shift = 10**9
    blocks = [
        from_pairs(ZZ, 1, [(2 * t.coeff, t.exps[0]) for t in g.terms]),  # content 2
        from_pairs(ZZ, 1, [(3 * t.coeff, t.exps[0] + shift) for t in g.terms]),  # content 3
    ]
    f = from_pairs(ZZ, 1, [(t.coeff, t.exps[0]) for b in blocks for t in b.terms])
    stats = ArithStats()
    assert divides(f, g, stats=stats)
    assert stats.method == "gap-blocks" and not stats.monte_carlo
    broken = from_pairs(ZZ, 1, [(t.coeff, t.exps[0]) for t in f.terms] + [(1, shift)])
    assert not divides(broken, g, stats=stats)


def test_eval_mod_z_nonmonic_inexact_raises():
    f = from_pairs(ZZ, 1, [(1, 3)])
    h = DensePoly.from_coeffs(ZZ, [0, 1])
    g = DensePoly.from_coeffs(ZZ, [1, 0, 2])  # 2x^2 + 1: x^3 needs 1/2
    with pytest.raises(UnsupportedRingError):
        eval_mod(f, h, g)


def _pinned_case(p, seed):
    rng = random.Random(seed)
    F = Zp(p)
    g = from_pairs(
        F, 1,
        [(rng.randrange(1, p), e) for e in rng.sample(range(31), 15)]
        + [(1 + rng.randrange(p - 1), 31)],
    )
    q = from_pairs(F, 1, [(rng.randrange(1, p), rng.getrandbits(60)) for _ in range(4)])
    f, _ = mul_heap(g, q)
    return f, g


@pytest.mark.parametrize(
    "p, seed, ring_ops",
    [(P28, 28, 11612000), (P61, 61, 9234718)],
    ids=["p28-numpy", "p61-lists"],
)
def test_divides_ring_ops_pinned(p, seed, ring_ops):
    # Counts measured before the two mod-g classes were merged: the merge
    # must not change a single counted operation.
    f, g = _pinned_case(p, seed)
    assert len(f.terms) == 64
    stats = ArithStats()
    assert divides(f, g, stats=stats)
    assert stats.method == "dense-modpow"
    assert stats.ring_ops == ring_ops
