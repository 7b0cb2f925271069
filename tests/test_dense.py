"""The dense layer: the Z_p[x]/(g) engine against schoolbook references,
exact dense division over Z inside `divides`, and pinned op counts."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import (
    ZZ,
    ArithStats,
    BudgetError,
    DensePoly,
    UnsupportedRingError,
    Zp,
    divides,
    eval_mod,
    from_pairs,
    mul_heap,
)
from supersparse import dense
from supersparse.dense import (
    ModEngine,
    OpCounter,
    ZModEngine,
    dp_chirp_eval_modp,
    dp_graeffe_modp,
    sum_of_powers,
)
from supersparse.ring import context_from_prime, find_smooth_prime

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


@pytest.mark.parametrize(
    "p, la, lb, packed",
    [
        (P28, 4, 4, False),  # la * lb = 16: schoolbook
        (P61, 4, 4, False),
        (P28, 1, 17, False),  # int64 convolution
        (P28, 17, 1, False),
        (P28, 128, 131, False),  # 128 (p - 1)^2 < 2^63: still int64
        (P28, 131, 129, True),  # 129 (p - 1)^2 >= 2^63: packed bigints
        (P61, 1, 17, True),
        (P61, 20, 9, True),
    ],
)
def test_dp_mul_modp_matches_schoolbook(monkeypatch, p, la, lb, packed):
    packs = []
    real = dense._pack
    monkeypatch.setattr(dense, "_pack", lambda a, width: packs.append(width) or real(a, width))
    rng = random.Random(la * 1000 + lb)
    # Random entries, then all p - 1: every column sum at its bound.
    for a, b in (
        ([rng.randrange(p) for _ in range(la)], [rng.randrange(p) for _ in range(lb)]),
        ([p - 1] * la, [p - 1] * lb),
    ):
        ops = OpCounter()
        assert dense.dp_mul_modp(a, b, p, ops) == ref_mul(a, b, p)
        assert (ops.muls, ops.adds) == (la * lb, la * lb - (la + lb - 1))
    assert bool(packs) == packed


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
            assert engine.lower(sum_of_powers(engine, ra, [1], [e])) == ref_pow(ra, e, g, p)
    assert engine.lower(engine.one()) == ref_mod([1], g, p)


@pytest.mark.parametrize("p", [P28, P61], ids=["p28", "p61"])
def test_engine_sum_of_powers_large_exponent(p):
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

    assert engine.lower(sum_of_powers(engine, h, [1], [e])) == sq_mul_pow(h, e)
    coeffs, exps = [5, p - 1, 7, 11], [0, 1, e, 3 * e + 1]
    want = []
    for c, n in zip(coeffs, exps):
        term = [c * v for v in sq_mul_pow(h, n)]
        want = ref_mod([x + y for x, y in zip(want + [0] * len(term), term + [0] * len(want))], g, p)
    assert engine.lower(sum_of_powers(engine, h, coeffs, exps)) == want


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


def test_divides_z_dense_rungs_count_their_ring_ops():
    # dense-exact divides densely, modular-screen runs images mod p and
    # gap-blocks divides each block: each rung charges its kernels.
    g = from_pairs(ZZ, 1, [(1, 0), (1, 1), (2, 2)])  # 2x^2 + x + 1, primitive
    near, _ = mul_heap(g, from_pairs(ZZ, 1, [(7, 0), (5, 1), (1, 3)]))
    far = from_pairs(ZZ, 1, [(1, 0), (1, 10**9)])
    split = from_pairs(
        ZZ, 1, [(2 * c, e) for c, (e,) in g.terms] + [(3 * c, e + 10**9) for c, (e,) in g.terms]
    )
    for f, answer, method in [
        (near, True, "dense-exact"),
        (far, False, "modular-screen"),
        (split, True, "gap-blocks"),
    ]:
        stats = ArithStats()
        assert divides(f, g, stats=stats) is answer
        assert stats.method == method and not stats.monte_carlo
        assert stats.ring_ops > 0


def test_eval_mod_z_bit_budget():
    # Monic and in budget: the value of the per-term chain, with its count.
    f = from_pairs(ZZ, 1, [(3, 1000), (-1, 7), (5, 0)])
    h = DensePoly.from_coeffs(ZZ, [1, 2])  # 2x + 1
    g = DensePoly.from_coeffs(ZZ, [1, -1, 0, 1])  # x^3 - x + 1
    want = [0, 0, 0]
    for c, (e,) in f.terms:
        power = [1]
        for _ in range(e):
            power = dense.dp_divmod_z(dense.dp_mul_z(power, list(h.coeffs)), list(g.coeffs))[1]
        for i, v in enumerate(power):
            want[i] += c * v
    ops = OpCounter()
    assert list(eval_mod(f, h, g, ops).coeffs) == ref_trim(want)
    assert ops.total == 557
    # (2x)^(2^i) mod x^2 + 1 = +-2^(2^i): coefficients double in size per squaring.
    with pytest.raises(BudgetError):
        eval_mod(
            from_pairs(ZZ, 1, [(1, 1 << 40)]),
            DensePoly.from_coeffs(ZZ, [0, 2]),
            DensePoly.from_coeffs(ZZ, [1, 0, 1]),
        )


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
    [(P28, 28, 11612000), (P61, 61, 9234718), ((1 << 31) - 1, 31, 10330123)],
    ids=["p28-numpy", "p61-lists", "p31-lists"],
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


# The batched walk of sum_of_powers against the per-term loop: both
# paths are called directly and must give the same residue and charge the
# same counts.  Which path sum_of_powers takes is tested on its own.

P62 = (1 << 62) - 57  # the largest prime below 2^62
P62_UP = (1 << 62) + 135  # the smallest prime above 2^62: always the loop
BATCH_PRIMES = [2, 3, P28, (1 << 31) - 1, (1 << 31) + 11, P61, P62]


def _same_as_loop(p, g, h, coeffs, exps):
    ops_b, ops_l = OpCounter(), OpCounter()
    eng_b, eng_l = ModEngine(g, p, ops_b), ModEngine(g, p, ops_l)
    got = dense._sum_of_powers_batched(eng_b, h, coeffs, exps)
    want = dense._sum_of_powers_loop(eng_l, h, coeffs, exps)
    assert type(got) is type(want)
    if eng_b.use_np:
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    else:
        assert got == want  # lists, with the loop's untrimmed length
    assert (ops_b.muls, ops_b.adds) == (ops_l.muls, ops_l.adds)
    return eng_b.lower(got), ops_b.total


def _case(rng, p, m, general_h, t=4):
    g = [rng.randrange(p) for _ in range(m)] + [rng.randrange(1, p)]
    h = [rng.randrange(p) for _ in range(m)] if general_h else [0, 1]
    top = (1 << 70) - 1
    exps = [0, top, 1 << 64, (1 << 64) + 1] + [rng.getrandbits(rng.choice([8, 40, 70])) for _ in range(t)]
    coeffs = [rng.randrange(-p, 2 * p) for _ in exps]
    coeffs[1] = 5 * p  # a coefficient that vanishes mod p
    return g, h, coeffs, exps


@pytest.mark.parametrize("p", BATCH_PRIMES, ids=lambda p: f"p{p.bit_length()}-{p % 1000}")
@pytest.mark.parametrize("m", [1, 2, 31])
@pytest.mark.parametrize("general_h", [False, True], ids=["h=x", "h-general"])
def test_batched_walk_matches_loop(p, m, general_h):
    rng = random.Random(p % 10007 + 100 * m + general_h)
    g, h, coeffs, exps = _case(rng, p, m, general_h)
    if m == 1:
        h = h[:1] if general_h else h  # deg h < deg g, or x reduced once
    _same_as_loop(p, g, h, coeffs, exps)
    _same_as_loop(p, g, h, coeffs[2:3], exps[2:3])  # t = 1, exponent 2^64
    _same_as_loop(p, g, h, [7], [0])  # no chain bit at all


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(BATCH_PRIMES),
    st.one_of(  # (deg g, terms), apart at the top: the loop at deg 128 on lists takes 1.5 s at t = 40
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        st.tuples(st.just(dense._BATCH_MAX_DEG), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(dense._BATCH_ROWS + 1)),
    ),
    st.booleans(),
    st.booleans(),
    st.integers(0, 1 << 32),
    st.data(),
)
def test_batched_walk_matches_loop_on_generated_input(p, shape, general_h, binomial, seed, data):
    m, t = shape
    rng = random.Random(seed)
    if binomial:  # x^m + c
        g = [rng.randrange(p)] + [0] * (m - 1) + [1]
    else:
        g = [rng.randrange(p) for _ in range(m)] + [rng.randrange(1, p)]
    h = [rng.randrange(p) for _ in range(m)] if general_h else [0, 1]
    exps = data.draw(st.lists(st.integers(0, 1 << 80), min_size=t, max_size=t))
    coeffs = [rng.randrange(-p, 2 * p) for _ in exps]
    _same_as_loop(p, g, h, coeffs, exps)


@pytest.mark.parametrize("p", [P28, P61, P62], ids=["p28", "p61", "p62"])
def test_batched_walk_at_the_degree_limit(p):
    rng = random.Random(p % 101)
    g, h, coeffs, exps = _case(rng, p, dense._BATCH_MAX_DEG, True, t=1)
    _same_as_loop(p, g, h, coeffs, exps)


@pytest.mark.parametrize(
    "p, m, t, walk",
    [
        (P28, 31, 32, True),
        ((1 << 31) - 1, 31, 32, True),
        (P62, 31, 32, True),
        (P62_UP, 31, 32, False),
        (P61, 31, 31, False),
        (P28, 31, 31, False),
        (P61, 2, 32, True),
        (P61, 1, 32, False),
        (P28, 128, 32, True),
        (P61, 128, 32, True),
        (P28, 129, 32, False),
        (P61, 129, 32, False),
    ],
)
def test_sum_of_powers_path_rule(monkeypatch, p, m, t, walk):
    taken = []
    monkeypatch.setattr(dense, "_sum_of_powers_batched", lambda *a: taken.append("walk"))
    monkeypatch.setattr(dense, "_sum_of_powers_loop", lambda *a: taken.append("loop"))
    g = [1] * m + [1]
    coeffs, exps = [1] * t, list(range(t))
    sum_of_powers(ModEngine(g, p), [0, 1], coeffs, exps)
    sum_of_powers(ZModEngine(g), [0, 1], coeffs, exps)
    assert taken == ["walk" if walk else "loop", "loop"]


def test_prime_above_2_62_takes_the_loop():
    rng = random.Random(62)
    g, h, coeffs, exps = _case(rng, P62_UP, 5, True, t=dense._BATCH_MIN_TERMS)
    engine = ModEngine(g, P62_UP)
    want = _reference_sum(g, h, coeffs, exps, P62_UP)
    assert engine.lower(sum_of_powers(engine, h, coeffs, exps)) == want


def _reference_sum(g, h, coeffs, exps, p):
    def sq_mul_pow(n):
        result, acc = ref_mod([1], g, p), ref_mod(h, g, p)
        while n:
            if n & 1:
                result = ref_mod(ref_mul(result, acc, p), g, p)
            acc = ref_mod(ref_mul(acc, acc, p), g, p)
            n >>= 1
        return result

    want = []
    for c, n in zip(coeffs, exps):
        term = [c * v for v in sq_mul_pow(n)]
        want = ref_mod([x + y for x, y in zip(want + [0] * len(term), term + [0] * len(want))], g, p)
    return want


@pytest.mark.parametrize("p", [P28, P61], ids=["p28", "p61"])
def test_batched_walk_matches_schoolbook(p):
    rng = random.Random(p % 97)
    g, h, coeffs, exps = _case(rng, p, 6, True, t=dense._BATCH_MIN_TERMS)
    engine = ModEngine(g, p)
    got = dense._sum_of_powers_batched(engine, h, coeffs, exps)
    assert engine.lower(got) == _reference_sum(g, h, coeffs, exps, p)


def test_batched_walk_row_blocks(monkeypatch):
    rng = random.Random(7)
    g = [rng.randrange(P61) for _ in range(3)] + [1]
    coeffs = [rng.randrange(P61) for _ in range(dense._BATCH_ROWS + 1)]
    exps = [rng.getrandbits(50) for _ in coeffs]
    _same_as_loop(P61, g, [0, 1], coeffs, exps)  # one block and one row past it
    for rows in (1, 2, 5):
        monkeypatch.setattr(dense, "_BATCH_ROWS", rows)
        _same_as_loop(P61, g, [0, 1], coeffs[:11], exps[:11])


@pytest.mark.parametrize("p", [P28, (1 << 31) - 1, P61], ids=["p28", "p31", "p61"])
def test_batched_walk_when_the_engine_recomputes_its_inverse(p):
    # g = x^m + 3 reverses to 1 + 3x^m, whose inverse mod x^m is 1: the
    # trimmed inverse is shorter than most quotients on list residues.
    rng = random.Random(3)
    for m in (3, 5, 31):
        g = [3] + [0] * (m - 1) + [1]
        h = [rng.randrange(p) for _ in range(m)]
        coeffs = [rng.randrange(p) for _ in range(6)]
        _same_as_loop(p, g, h, coeffs, [rng.getrandbits(40) for _ in coeffs])


def test_engine_keeps_its_inverse_across_mulmods(monkeypatch):
    # The inverse of 1 + 3x^31 mod x^31 trims to [1]; its precision, not
    # its length, decides whether a reduction needs a longer one.
    m = 31
    engine = ModEngine([3] + [0] * (m - 1) + [1], P61)
    assert not engine.use_np and engine._inv == [1]
    calls = []
    real = dense.dp_series_inverse

    def counted(f, prec, p, ops=None):
        calls.append(prec)
        return real(f, prec, p, ops)

    monkeypatch.setattr(dense, "dp_series_inverse", counted)
    rng = random.Random(5)
    a = engine.lift([rng.randrange(P61) for _ in range(m)])
    for _ in range(20):
        a = engine.mulmod(a, a)
    assert calls == []
    engine.lift([1] * (3 * m))  # a quotient longer than the precision
    assert calls == [2 * m]


def test_batched_walk_zero_chain_entry():
    # g = x^4 and h = x: h^4 and every later chain entry are 0.
    coeffs, exps = [3, 5, 7, 9], [1, 3, 4, 1 << 65]
    for p in (P28, P61):
        lowered, _ = _same_as_loop(p, [0, 0, 0, 0, 1], [0, 1], coeffs, exps)
        assert lowered == [0, 3, 0, 5]


def test_sum_of_powers_without_terms():
    # max() over no exponents used to raise ValueError on every path.
    np_engine = ModEngine([1, 2, 3, 1], P28)
    assert np_engine.use_np and sum_of_powers(np_engine, [0, 1], [], []).tolist() == [0, 0, 0]
    for engine in (ModEngine([1, 2, 3, 1], P61), ModEngine([1, 1], P61), ZModEngine([1, 0, 1])):
        assert sum_of_powers(engine, [0, 1], [], []) == []


# The limb plans behind every walk product, against Python ints.  A plan is one-sided
# (the right operand whole) when some count of at most the two-sided count^2 limbs of w
# bits keeps n (2^w - 1)(p - 1) below 2^53; each EDGES pair is the last prime inside that
# bound at its n and the first outside.  n runs over deg g and the accumulation's rows.
PLAN_SIZES = [1, 2, 31, 128, dense._BATCH_ROWS]
EDGES = {
    1: (4400195043833, 4400195043859),
    2: (2200097521891, 2200097521943),
    31: (284022301729, 284022301763),
    128: (68786651191, 68786651203),
    256: (68719476731, 68719476767),
}
# A 61-bit prime far from 2^61: modulo 2^61 - 1, B 2^s mod p is a bit rotation of B, which
# can hide a wrong scale in a two-sided plan's right operand.
P61_PLAIN = (3 << 59) + 17


@pytest.mark.parametrize(
    "p, sizes, shape",
    [
        (2, PLAN_SIZES, (True, 1)),
        (3, PLAN_SIZES, (True, 1)),
        (P28, PLAN_SIZES, (True, 2)),
        ((1 << 31) - 1, [1, 2, 31], (True, 2)),
        ((1 << 31) - 1, [128, 256], (True, 3)),
        ((1 << 31) + 11, [1, 2, 31], (True, 2)),
        ((1 << 31) + 11, [128, 256], (True, 3)),
        (P61, PLAN_SIZES, (False, 3)),
        (P62, PLAN_SIZES, (False, 3)),
    ]
    + [(inside, [n], (True, 4)) for n, (inside, _) in EDGES.items()]
    + [(outside, [n], (False, 2)) for n, (_, outside) in EDGES.items()],
)
def test_limb_plan_shape(p, sizes, shape):
    for n in sizes:
        plan = dense._LimbPlan(p, n)
        assert (plan.whole, plan.count) == shape
        assert plan.whole or plan.count >= 2


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(PLAN_SIZES),
    st.data(),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from(["random", "top", "mixed"]),
    st.integers(0, 1 << 32),
)
def test_limb_plan_product_matches_python_ints(n, data, rows, cols, fill, seed):
    p = data.draw(st.sampled_from(BATCH_PRIMES + [P61_PLAIN] + list(EDGES[n])))
    rng = random.Random(seed)
    draw = {
        "random": lambda: rng.randrange(p),
        "top": lambda: p - 1,  # every dot product at its largest
        "mixed": lambda: rng.choice([0, 1, p - 1, rng.randrange(p)]),
    }[fill]
    a = [[draw() for _ in range(n)] for _ in range(rows)]
    b = [[draw() for _ in range(cols)] for _ in range(n)]
    plan = dense._LimbPlan(p, n)
    got = plan.product(np.array(a, dtype=np.uint64), plan.right(np.array(b, dtype=np.uint64)))
    want = [[sum(x * y[j] for x, y in zip(row, b)) % p for j in range(cols)] for row in a]
    assert got.dtype == np.uint64 and got.tolist() == want


def _plan_product(p, a, b):
    plan = dense._LimbPlan(p, len(b))
    assert not plan.whole
    return plan.product(np.array(a, dtype=np.uint64), plan.right(np.array(b, dtype=np.uint64)))


def test_limb_plan_product_at_the_largest_quotient():
    # Every entry p - 1 at the widest prime and the longest dot product: the float
    # quotient column is at its largest.
    n = dense._BATCH_ROWS
    got = _plan_product(P62, [[P62 - 1] * n] * 3, [[P62 - 1] * 2] * n)
    assert got.tolist() == [[n * (P62 - 1) ** 2 % P62] * 2] * 3


@pytest.mark.parametrize("n", PLAN_SIZES)
@pytest.mark.parametrize("p", [P61, P61_PLAIN, P62], ids=["p61", "p61-plain", "p62"])
def test_limb_plan_product_next_to_a_multiple_of_p(p, n):
    # The unreduced limb sum V is congruent to a b, so rows made to give a b = 0 or -1 mod p
    # put V/p on an integer or just below one: there the float quotient can land on either
    # side, and each of the two correcting steps has rows that need it.
    rng = random.Random(n)
    b = [[rng.randrange(1, p), rng.randrange(p)] for _ in range(n)]
    targets = [0, p - 1] * 32
    a = []
    for target in targets:
        row = [rng.randrange(p) for _ in range(n - 1)]
        rest = (target - sum(x * y[0] for x, y in zip(row, b))) * pow(b[-1][0], -1, p)
        a.append(row + [rest % p])
    got = _plan_product(p, a, b)
    assert got[:, 0].tolist() == targets
    assert got[:, 1].tolist() == [sum(x * y[1] for x, y in zip(row, b)) % p for row in a]


# The chirp transform against the direct sum: a small prime and a 66-bit
# one, each with a 2^9 subgroup or larger, at every size 2^s up to 2^9.
_CHIRP_CTXS = [
    context_from_prime(7681, 1 << 9, random.Random(1)),  # 15 * 2^9 + 1
    find_smooth_prime(1 << 60, 2, random.Random(0)),
]
assert _CHIRP_CTXS[1].p.bit_length() == 66


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_CHIRP_CTXS),
    st.integers(0, 9),
    st.sampled_from(["random", "top", "zero"]),
    st.data(),
)
def test_chirp_eval_matches_the_direct_sum(ctx, s, fill, data):
    p, n = ctx.p, 1 << s
    w = pow(ctx.omega, 1 << (ctx.k - s), p)
    powers = [pow(w, i, p) for i in range(n)]
    length = data.draw(st.integers(0, 2 * n + 1))  # past n the transform folds mod z^n - 1
    rng = random.Random(data.draw(st.integers(0, 1 << 32)))
    c = [{"random": rng.randrange(p), "top": p - 1, "zero": 0}[fill] for _ in range(length)]
    want = [sum(x * powers[i * j % n] for i, x in enumerate(c)) % p for j in range(n)]
    assert dp_chirp_eval_modp(c, powers, p) == want


def _graeffe_step(a, b, p):
    """One tangent Graeffe step, schoolbook: A_e^2 - z*A_o^2 and A_e*B_e - z*A_o*B_o."""
    def times(f, g):
        out = [0] * (len(a) + 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    ae, ao, be, bo = a[::2], a[1::2], b[::2], b[1::2]
    na = [x - y for x, y in zip(times(ae, ae), [0] + times(ao, ao))]
    nb = [x - y for x, y in zip(times(ae, be), [0] + times(ao, bo))]
    return [v % p for v in na[:len(a)]], [v % p for v in nb[:len(a) - 1]]


# Word, 66-bit and tiny primes: every Barrett shift and mask width differs.  Inputs may lie
# anywhere in [0, 3p), as between steps; 3p - 1 everywhere makes every column sum its largest.
@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 7681, P61, (1 << 64) - (1 << 32) + 1, _CHIRP_CTXS[1].p]),
    st.integers(1, 24),
    st.integers(0, 12),
    st.sampled_from(["random", "top", "lazy"]),
    st.integers(0, 1 << 32),
)
def test_graeffe_steps_match_the_schoolbook_step(p, n, steps, fill, seed):
    rng = random.Random(seed)
    draw = {
        "random": lambda: rng.randrange(3 * p),
        "top": lambda: p - 1,
        "lazy": lambda: 3 * p - 1,
    }[fill]
    a = [draw() for _ in range(n - 1)] + [1]
    b = [draw() for _ in range(n - 1)]
    want = [v % p for v in a], [v % p for v in b]
    for _ in range(steps):
        want = _graeffe_step(*want, p)
    assert dp_graeffe_modp(a, b, p, steps) == want

