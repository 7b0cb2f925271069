import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import (
    ArithStats,
    ArityError,
    BudgetError,
    InexactDivisionError,
    RingMismatchError,
    ZZ,
    ZeroPolynomialError,
    Zp,
    add,
    canonicalize,
    divides,
    divmod_heap,
    from_pairs,
    linear_divides_exact,
    mul_heap,
    mul_kronecker,
    mul_naive,
    power,
    sub,
    zero,
)
from supersparse.bench import random_sparse_poly

F101 = Zp(101)


def poly(pairs, ring=ZZ, nvars=1):
    return from_pairs(ring, nvars, pairs)


def test_add_identity():
    rng = random.Random(0)
    f = random_sparse_poly(rng, terms=10, degbits=40)
    assert add(f, zero(ZZ, 1)) == f
    assert add(zero(ZZ, 1), f) == f


def test_add_merge_and_cancel():
    f = poly([(1, 1), (1, 0)])
    g = poly([(1, 1), (-1, 0)])
    out = add(f, g)
    assert [(t.coeff, t.exps) for t in out.terms] == [(2, (1,))]


def test_add_huge_exponents():
    e = 1 << 40
    f = poly([(1, e), (1, 0)])
    g = poly([(1, e), (-1, 0)])
    out = add(f, g)
    assert [(t.coeff, t.exps) for t in out.terms] == [(2, (e,))]


def test_add_output_size_and_cost():
    rng = random.Random(1)
    f = random_sparse_poly(rng, terms=30, degbits=50)
    g = random_sparse_poly(rng, terms=40, degbits=50)
    stats = ArithStats()
    out = add(f, g, stats)
    assert len(out.terms) <= 70
    assert stats.comparisons <= 70


def test_sub_self_is_zero():
    rng = random.Random(2)
    f = random_sparse_poly(rng, terms=25, degbits=45)
    assert sub(f, f).is_zero()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        add(poly([(1, 0)]), poly([(1, 0)], ring=F101))
    with pytest.raises(ArityError):
        add(poly([(1, 0)]), from_pairs(ZZ, 2, [(1, (0, 0))]))


def test_mul_naive_examples():
    f = poly([(1, 1), (1, 0)])
    g = poly([(1, 1), (-1, 0)])
    assert [(t.coeff, t.exps) for t in mul_naive(f, g).terms] == [(-1, (0,)), (1, (2,))]
    a = poly([(1, 0), (1, 1), (1, 2)])
    b = poly([(1, 0), (1, 3), (1, 6)])
    out = mul_naive(a, b)
    assert [(t.coeff, t.exps[0]) for t in out.terms] == [(1, i) for i in range(9)]


def test_mul_output_can_be_quadratic():
    rng = random.Random(3)
    for _ in range(20):
        f = random_sparse_poly(rng, terms=3, degbits=40)
        g = random_sparse_poly(rng, terms=3, degbits=40)
        out = mul_naive(f, g)
        assert len(out.terms) <= 9


def test_mul_heap_absorbing_identity():
    rng = random.Random(4)
    f = random_sparse_poly(rng, terms=12, degbits=40)
    prod, _ = mul_heap(f, zero(ZZ, 1))
    assert prod.is_zero()
    prod, _ = mul_heap(f, poly([(1, 0)]))
    assert prod == f


def test_mul_heap_example_with_heap_bound():
    f = poly([(1, 1), (1, 0)])
    g = poly([(1, 1), (-1, 0)])
    prod, stats = mul_heap(f, g)
    assert [(t.coeff, t.exps) for t in prod.terms] == [(-1, (0,)), (1, (2,))]
    assert stats.peak_heap <= 2


def test_mul_heap_matches_naive_random():
    rng = random.Random(5)
    for _ in range(150):
        tf = rng.randrange(1, 30)
        tg = rng.randrange(1, 30)
        f = random_sparse_poly(rng, terms=tf, degbits=60)
        g = random_sparse_poly(rng, terms=tg, degbits=60)
        prod, stats = mul_heap(f, g)
        assert prod == mul_naive(f, g)
        assert stats.peak_heap <= min(tf, tg)


def test_mul_heap_matches_naive_field():
    rng = random.Random(6)
    for _ in range(50):
        f = random_sparse_poly(rng, terms=rng.randrange(1, 20), degbits=30, ring=F101)
        g = random_sparse_poly(rng, terms=rng.randrange(1, 20), degbits=30, ring=F101)
        prod, _ = mul_heap(f, g)
        assert prod == mul_naive(f, g)


def test_mul_heap_dense_collisions():
    # dense supports exercise chaining: many equal keys in flight
    rng = random.Random(7)
    for _ in range(20):
        f = random_sparse_poly(rng, terms=20, degbits=5)
        g = random_sparse_poly(rng, terms=25, degbits=5)
        prod, stats = mul_heap(f, g)
        assert prod == mul_naive(f, g)
        assert stats.peak_heap <= 20


def test_mul_heap_multivariate():
    rng = random.Random(8)
    for _ in range(30):
        f = random_sparse_poly(rng, terms=10, degbits=20, nvars=3)
        g = random_sparse_poly(rng, terms=12, degbits=20, nvars=3)
        prod, _ = mul_heap(f, g)
        assert prod == mul_naive(f, g)


def test_ring_axioms_via_heap():
    rng = random.Random(9)
    for _ in range(20):
        f = random_sparse_poly(rng, terms=8, degbits=30)
        g = random_sparse_poly(rng, terms=8, degbits=30)
        h = random_sparse_poly(rng, terms=8, degbits=30)
        fg, _ = mul_heap(f, g)
        gf, _ = mul_heap(g, f)
        assert fg == gf
        lhs, _ = mul_heap(f, add(g, h))
        assert lhs == add(mul_heap(f, g)[0], mul_heap(f, h)[0])
        a1, _ = mul_heap(fg, h)
        gh, _ = mul_heap(g, h)
        a2, _ = mul_heap(f, gh)
        assert a1 == a2


def test_mul_kronecker_cross_check():
    rng = random.Random(10)
    for _ in range(30):
        f = random_sparse_poly(rng, terms=10, degbits=20, nvars=2)
        g = random_sparse_poly(rng, terms=10, degbits=20, nvars=2)
        direct, _ = mul_heap(f, g)
        assert mul_kronecker(f, g) == direct


def test_divmod_exact_self():
    rng = random.Random(11)
    f = random_sparse_poly(rng, terms=10, degbits=40)
    q, r, _ = divmod_heap(f, f)
    assert [(t.coeff, t.exps) for t in q.terms] == [(1, (0,))]
    assert r.is_zero()


def test_divmod_quotient_blowup_small():
    D = 1000
    f = poly([(1, D), (-1, 0)])
    g = poly([(1, 1), (-1, 0)])
    q, r, stats = divmod_heap(f, g)
    assert r.is_zero()
    assert len(q.terms) == D
    assert all(t.coeff == 1 for t in q.terms)
    assert stats.peak_heap <= 1


def test_divmod_reconstruction_field():
    rng = random.Random(12)
    for _ in range(100):
        q = random_sparse_poly(rng, terms=rng.randrange(1, 15), degbits=40, ring=F101)
        g = random_sparse_poly(rng, terms=rng.randrange(1, 15), degbits=40, ring=F101)
        dg = g.terms[-1].exps[0]
        if dg == 0:
            continue
        r = canonicalize(
            [(rng.randrange(1, 101), (rng.randrange(dg),)) for _ in range(rng.randrange(1, 8))],
            1,
            F101,
        )
        f = add(mul_heap(q, g)[0], r)
        q2, r2, _ = divmod_heap(f, g)
        assert q2 == q and r2 == r


def test_divmod_matches_dense_division_oracle():
    # classical coefficient-array long division as the independent check
    rng = random.Random(19)
    p = 101
    for _ in range(60):
        df = rng.randrange(0, 24)
        dg = rng.randrange(1, 10)
        fc = [rng.randrange(p) for _ in range(df)] + [rng.randrange(1, p)]
        gc = [rng.randrange(p) for _ in range(dg)] + [rng.randrange(1, p)]
        f = canonicalize([(c, (e,)) for e, c in enumerate(fc)], 1, F101)
        g = canonicalize([(c, (e,)) for e, c in enumerate(gc)], 1, F101)
        q, r, _ = divmod_heap(f, g)
        rr = fc[:]
        qq = [0] * max(0, len(rr) - dg)
        inv = pow(gc[-1], p - 2, p)
        for i in range(len(rr) - 1, dg - 1, -1):
            c = rr[i] % p
            if c == 0:
                continue
            qc = c * inv % p
            qq[i - dg] = qc
            for j in range(dg + 1):
                rr[i - dg + j] = (rr[i - dg + j] - qc * gc[j]) % p
        assert q == canonicalize([(c, (e,)) for e, c in enumerate(qq)], 1, F101)
        assert r == canonicalize([(c, (e,)) for e, c in enumerate(rr[:dg])], 1, F101)


def test_divides_integer_trailing_power_and_gap_blocks():
    # x^3 does not divide something with trailing exponent 2
    assert not divides(poly([(1, 2), (1, 5)]), poly([(1, 3)]))
    # supersparse positive accepted exactly through the gap-block argument
    rng = random.Random(20)
    g = poly([(1, 2), (1, 0)])  # x^2 + 1
    s = random_sparse_poly(rng, terms=6, degbits=50, coeff_bits=8)
    f, _ = mul_heap(g, s)
    stats = ArithStats()
    assert divides(f, g, stats=stats)
    assert stats.method in ("gap-blocks", "heap-divmod")
    assert not stats.monte_carlo


def test_divmod_strict_integer_division():
    f = poly([(1, 2)])
    g = poly([(2, 1)])
    with pytest.raises(InexactDivisionError):
        divmod_heap(f, g)


def test_divmod_pseudo_division_identity():
    # degrees stay tiny: a sparse-by-sparse quotient is generically huge
    rng = random.Random(13)
    for _ in range(40):
        f = random_sparse_poly(rng, terms=rng.randrange(1, 12), degbits=5, coeff_bits=8)
        g = random_sparse_poly(rng, terms=rng.randrange(1, 6), degbits=3, coeff_bits=8)
        q, r, stats = divmod_heap(f, g, pseudo=True)
        lead = g.terms[-1].coeff
        scaled = canonicalize(
            [(t.coeff * lead ** stats.pseudo_events, t.exps) for t in f.terms], 1, ZZ
        )
        assert add(mul_heap(q, g)[0], r) == scaled
        if not r.is_zero():
            assert r.terms[-1].exps[0] < g.terms[-1].exps[0]


def test_divmod_zero_divisor():
    with pytest.raises(ZeroPolynomialError):
        divmod_heap(poly([(1, 1)]), zero(ZZ, 1))


def test_divides_examples():
    e = 1 << 40
    f = poly([(1, e), (-1, 0)])
    assert divides(f, poly([(1, 1), (-1, 0)]))  # x - 1 | x^(2^40) - 1
    assert divides(poly([(1, 4), (-1, 0)]), poly([(1, 2), (1, 0)]))  # x^2+1 | x^4-1
    f30 = poly([(1, 1 << 30), (-1, 0)])
    assert not divides(f30, poly([(1, 1), (-2, 0)]))  # x - 2 does not divide


def test_divides_x_minus_2_against_modular_oracle():
    # screen with independent primes: f(2) = 2^(2^30) - 1 != 0
    rng = random.Random(14)
    f = poly([(1, 1 << 30), (-1, 0)])
    for _ in range(3):
        p = rng.choice([10007, 30011, 65537])
        v = (pow(2, pow(2, 30, p - 1), p) - 1) % p
        if v != 0:
            break
    else:
        pytest.skip("all screening primes degenerate")
    assert not divides(f, poly([(1, 1), (-2, 0)]))


def test_divides_field_dense_path():
    rng = random.Random(15)
    for _ in range(25):
        g = random_sparse_poly(rng, terms=6, degbits=5, ring=F101)
        s = random_sparse_poly(rng, terms=8, degbits=50, ring=F101)
        f, _ = mul_heap(g, s)
        stats = ArithStats()
        assert divides(f, g, stats=stats)
        assert stats.method == "dense-modpow"
        bad = add(f, poly([(1, 3)], ring=F101))
        if not bad.is_zero() and bad != f:
            assert not divides(bad, g)


def test_divides_field_heap_fallback():
    rng = random.Random(16)
    g = random_sparse_poly(rng, terms=4, degbits=10, ring=F101)
    s = random_sparse_poly(rng, terms=5, degbits=12, ring=F101)
    f, _ = mul_heap(g, s)
    stats = ArithStats()
    assert divides(f, g, dense_budget_terms=1, stats=stats)
    assert stats.method == "heap-divmod"


def test_divides_integers_small_dense():
    assert divides(poly([(1, 4), (-1, 0)]), poly([(1, 2), (-1, 0)]))
    assert not divides(poly([(1, 4), (1, 0)]), poly([(1, 2), (-1, 0)]))


def test_divides_integer_content():
    f = poly([(4, 5), (2, 0)])
    assert divides(f, poly([(2, 0)]))
    assert not divides(f, poly([(3, 0)]))


def test_divides_zero_cases():
    g = poly([(1, 1), (-1, 0)])
    assert divides(zero(ZZ, 1), g)
    with pytest.raises(ZeroPolynomialError):
        divides(g, zero(ZZ, 1))


def test_linear_divides_exact_planted():
    rng = random.Random(17)
    for _ in range(40):
        a = rng.choice([x for x in range(-50, 51) if x != 0])
        b = rng.randrange(1, 51)
        import math

        d = math.gcd(abs(a), b)
        a //= d
        b //= d
        s = random_sparse_poly(rng, terms=8, degbits=45, coeff_bits=10)
        factor_poly = poly([(b, 1), (-a, 0)])
        f, _ = mul_heap(factor_poly, s)
        assert linear_divides_exact(f, a, b)
        # perturb the trailing coefficient: root destroyed
        bad = add(f, poly([(1, f.terms[0].exps[0])]))
        if not bad.is_zero() and len(bad.terms) == len(f.terms):
            assert not linear_divides_exact(bad, a, b)


def test_linear_divides_exact_dense_quotient_case():
    # 2^(N+1) x^(N+1) - 1 has the rational root 1/2 with a dense cofactor;
    # the dynamic gap threshold keeps this in one block and stays exact.
    N = 64
    f = poly([(1 << (N + 1), N + 1), (-1, 0)])
    assert linear_divides_exact(f, 1, 2)
    assert not linear_divides_exact(f, -1, 2)


def test_power_examples():
    f = poly([(1, 1), (1, 0)])
    sq = power(f, 2)
    assert [(t.coeff, t.exps[0]) for t in sq.terms] == [(1, 0), (2, 1), (1, 2)]
    assert power(f, 1) == f
    assert power(f, 0) == poly([(1, 0)])


def test_power_binomial_huge_exponent():
    e = 1 << 20
    f = poly([(1, e), (1, 0)])
    cube = power(f, 3)
    assert [(t.coeff, t.exps[0]) for t in cube.terms] == [
        (1, 0), (3, e), (3, 2 * e), (1, 3 * e),
    ]


def test_power_budget():
    rng = random.Random(18)
    f = random_sparse_poly(rng, terms=50, degbits=50)
    with pytest.raises(BudgetError):
        power(f, 8, term_budget=1000)


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 1 << 50)), max_size=8),
    st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 1 << 50)), max_size=8),
)
def test_mul_heap_matches_naive_property(pf, pg):
    f = canonicalize([(c, (e,)) for c, e in pf], 1, ZZ)
    g = canonicalize([(c, (e,)) for c, e in pg], 1, ZZ)
    prod, stats = mul_heap(f, g)
    assert prod == mul_naive(f, g)
    if f.terms and g.terms:
        assert stats.peak_heap <= min(len(f.terms), len(g.terms))


def test_divides_field_heap_fallback_is_budgeted():
    # deg g is far above the dense budget and the quotient would have
    # 10^7 terms; past heap_term_budget there is no verdict over Z_p.
    import time

    F = Zp(1_000_003)
    f = from_pairs(F, 1, [(1, 10**15), (1, 0)])
    g = from_pairs(F, 1, [(1, 10**8), (1, 0)])
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        divides(f, g, heap_term_budget=1000)
    assert time.perf_counter() - start < 5
