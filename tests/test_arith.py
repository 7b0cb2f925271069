import gc
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supersparse import (
    ArithStats,
    ArityError,
    BudgetError,
    DensePoly,
    InexactDivisionError,
    RingMismatchError,
    ZZ,
    ZeroPolynomialError,
    Zp,
    add,
    canonicalize,
    content_and_primitive,
    degree,
    divides,
    divmod_heap,
    from_dense,
    from_pairs,
    gap_split,
    linear_divides_exact,
    mul,
    mul_heap,
    mul_kronecker,
    mul_naive,
    power,
    sub,
    to_dense,
    zero,
)
from supersparse import arith, dense
from supersparse.bench import random_sparse_poly
from supersparse.poly import default_gap_threshold
from supersparse.ring import is_prime

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


def test_add_sub_of_zero_operands_cost_nothing_per_variable():
    # The packing bases come from the exponent columns, so two zero
    # operands get none, however many variables they have.
    import tracemalloc

    z = zero(ZZ, 3_000_000)
    tracemalloc.start()
    try:
        sums = [add(z, z), sub(z, z)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(s == z for s in sums) and peak < 1 << 16


def test_ring_mismatch():
    for op in (add, sub):
        with pytest.raises(RingMismatchError):
            op(poly([(1, 0)]), poly([(1, 0)], ring=F101))
        with pytest.raises(ArityError):
            op(poly([(1, 0)]), from_pairs(ZZ, 2, [(1, (0, 0))]))


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


WORD_MAX = (1 << 63) - 1


def mul_both(f, g):
    """mul and mul_heap on the same operands: equal products and ring_ops."""
    s_mul, s_heap = ArithStats(), ArithStats()
    prod = mul(f, g, s_mul)
    ref, _ = mul_heap(f, g, s_heap)
    assert prod == ref
    assert s_mul.ring_ops == s_heap.ring_ops
    assert s_mul.out_terms == s_heap.out_terms
    return prod, s_mul.method


def test_mul_matches_heap_on_c04_corpus():
    # The operand generator of acceptance criterion C04.
    for seed in range(1000):
        gen = random.Random(40_000 + seed)
        tf = gen.randrange(1, 101)
        tg = gen.randrange(1, 101)
        f = random_sparse_poly(gen, terms=tf, degbits=60, coeff_bits=16)
        g = random_sparse_poly(gen, terms=tg, degbits=60, coeff_bits=16)
        assert mul_both(f, g)[1] == "word-vector", f"seed {seed}"


@pytest.mark.parametrize("top, method", [(WORD_MAX, "word-vector"), (WORD_MAX + 1, "wide-vector")])
def test_mul_packed_key_sum_at_word_limit(top, method):
    a = 1 << 62
    f = poly([(3, a), (-1, 5), (2, 0)])
    g = poly([(1, top - a), (7, 5), (-4, 0)])
    assert mul_both(f, g)[1] == method


def overlapping_pair(t, cf, cg, ring=ZZ):
    # Every product x^i * x^(t-1-i) lands on x^(t-1): one column of t
    # equal-signed products, so its sum is exactly t * cf * cg.
    f = poly([(cf, i) for i in range(t)], ring)
    g = poly([(cg, i) for i in range(t)], ring)
    return f, g


@pytest.mark.parametrize("t, cf, cg, method", [
    (7, 7 * 73 * 127, 337 * 92737 * 649657, "word-vector"),   # t*cf*cg = 2^63 - 1
    (7, -7 * 73 * 127, 337 * 92737 * 649657, "word-vector"),
    (2, 1 << 31, 1 << 31, "wide-vector"),                     # t*cf*cg = 2^63
    (2, 1 << 31, -(1 << 31), "wide-vector"),
])
def test_mul_coefficient_bound_at_word_limit(t, cf, cg, method):
    f, g = overlapping_pair(t, cf, cg)
    prod, got = mul_both(f, g)
    assert got == method
    assert prod.terms[t - 1].coeff == t * cf * cg


@pytest.mark.parametrize("t", [2, 5])
def test_mul_field_at_word_limit(t):
    # The largest prime p with (p - 1)^2 * t <= 2^63 - 1 takes the vector
    # path with every coefficient p - 1; the next prime takes object columns.
    p = isqrt(WORD_MAX // t) + 1
    while not is_prime(p):
        p -= 1
    q = p + 1
    while not is_prime(q):
        q += 1
    assert (p - 1) ** 2 * t <= WORD_MAX < (q - 1) ** 2 * t
    for prime, method in ((p, "word-vector"), (q, "wide-vector")):
        ring = Zp(prime)
        f, g = overlapping_pair(t, prime - 1, prime - 1, ring)
        prod, got = mul_both(f, g)
        assert got == method
        assert prod == mul_naive(f, g)
        assert prod.terms[t - 1].coeff == t % prime


@pytest.mark.parametrize("nvars, degbits", [(2, 20), (3, 12), (3, 20)])
def test_mul_multivariate_packing(nvars, degbits):
    rng = random.Random(nvars * 100 + degbits)
    for ring in (ZZ, F101):
        for _ in range(10):
            f = random_sparse_poly(rng, terms=rng.randrange(1, 40), degbits=degbits,
                                   nvars=nvars, ring=ring)
            g = random_sparse_poly(rng, terms=rng.randrange(1, 40), degbits=degbits,
                                   nvars=nvars, ring=ring)
            prod, method = mul_both(f, g)
            assert method == "word-vector"
            assert prod == mul_naive(f, g)
    # Exponents stay int64 columns while each variable's sum fits a word,
    # even when all three together need more than 63 bits.
    f = from_pairs(ZZ, 3, [(1, (1 << 30, 0, 1 << 30)), (2, (0, 1, 0))])
    assert mul_both(f, f)[1] == "word-vector"
    # One variable's largest exponents adding to 2^63 - 1 still fit; to 2^63
    # they take an object column.
    f = from_pairs(ZZ, 3, [(1, (0, 1, 0)), (2, (1 << 40, 0, 1 << 62))])
    g = from_pairs(ZZ, 3, [(3, (0, 5, 0)), (4, (7, 0, (1 << 62) - 1))])
    for a, b, method in ((f, g, "word-vector"), (f, f, "wide-vector")):
        prod, got = mul_both(a, b)
        assert got == method
        assert prod == mul_naive(a, b)


def test_mul_cancelling_columns():
    F7 = Zp(7)
    cases = [
        (poly([(1, 1), (1, 0)]), poly([(1, 1), (-1, 0)]), poly([(1, 2), (-1, 0)])),
        (poly([(1, 1), (1, 0)]), poly([(1, 2), (-1, 1), (1, 0)]), poly([(1, 3), (1, 0)])),
        (poly([(1, 1), (1, 0)], F7), poly([(1, 1), (6, 0)], F7), poly([(1, 2), (6, 0)], F7)),
        (
            from_pairs(ZZ, 2, [(1, (1, 0)), (1, (0, 1))]),
            from_pairs(ZZ, 2, [(1, (1, 0)), (-1, (0, 1))]),
            from_pairs(ZZ, 2, [(1, (2, 0)), (-1, (0, 2))]),
        ),
    ]
    for f, g, expected in cases:
        prod, method = mul_both(f, g)
        assert method == "word-vector"
        assert prod == expected


def test_mul_just_past_one_chunk():
    # 513 * 512 term pairs is past one chunk, and 11-bit supports make
    # output keys that both chunks contribute to.
    rng = random.Random(44)
    f = random_sparse_poly(rng, terms=513, degbits=11)
    g = random_sparse_poly(rng, terms=512, degbits=11)
    assert len(f) * len(g) > arith._CHUNK_PAIRS
    assert mul_both(f, g)[1] == "word-vector"


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_mul_small_chunks_split_rows_and_columns(monkeypatch, chunk):
    monkeypatch.setattr(arith, "_CHUNK_PAIRS", chunk)
    rng = random.Random(chunk)
    for ring in (ZZ, F101):
        f = random_sparse_poly(rng, terms=30, degbits=7, ring=ring)
        g = random_sparse_poly(rng, terms=90, degbits=7, ring=ring)
        assert mul_both(f, g)[1] == "word-vector"
        assert mul_both(g, f)[0] == mul_naive(f, g)


def test_mul_zero_operand_and_stats_method():
    f = poly([(2, 9), (1, 0)])
    stats = ArithStats()
    assert mul(f, zero(ZZ, 1), stats).is_zero()
    assert stats.method == "heap"
    stats = ArithStats()
    mul_naive(f, f, stats)
    assert stats.method == "naive"
    stats = ArithStats()
    mul(f, f, stats)
    assert (stats.method, stats.comparisons, stats.peak_heap) == ("word-vector", 0, 0)


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


def test_divides_integer_heap_fallback_counts_ops():
    # a negative dense budget rules out the dense and gap-block paths
    f = poly([(3, 100), (-2, 7), (5, 0)])
    for g in (f, poly([(1, 2), (1, 0)])):
        stats = ArithStats()
        fg, _ = mul_heap(f, g)
        assert divides(fg, g, dense_budget_terms=-3, stats=stats)
        assert stats.method == "heap-divmod"
        assert stats.ring_ops > 0 and stats.comparisons > 0


def test_divides_integer_divisor_past_the_budget_has_no_monte_carlo_answer(monkeypatch):
    # x^2 + x + 1 divides x^3003 - 1, with a 2002-term quotient.  With deg g
    # past the dense budget no image runs, so a heap that runs out of
    # quotient terms has no verdict.
    calls = _spy_rungs(monkeypatch)
    f = poly([(1, 3003), (-1, 0)])
    g = poly([(1, 2), (1, 1), (1, 0)])
    stats = ArithStats()
    with pytest.raises(BudgetError):
        divides(f, g, dense_budget_terms=1, heap_term_budget=2001, stats=stats)
    assert calls == [] and not stats.monte_carlo
    assert divides(f, g, dense_budget_terms=1, heap_term_budget=2002, stats=stats)
    assert (stats.method, stats.monte_carlo) == ("heap-divmod", False)


def test_divmod_strict_integer_division():
    f = poly([(1, 2)])
    g = poly([(2, 1)])
    with pytest.raises(InexactDivisionError):
        divmod_heap(f, g)
    # A raise after some heap steps still charges them.
    stats = ArithStats()
    with pytest.raises(InexactDivisionError):
        divmod_heap(poly([(2, 3), (4, 2), (1, 1)]), poly([(2, 1), (1, 0)]), stats=stats)
    assert (stats.ring_ops, stats.comparisons, stats.peak_heap) == (3, 2, 1)


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


@st.composite
def primitive_division_cases(draw):
    """(f, g) over Z with g primitive: f random, or g*s, or g*s plus a small r."""
    dg = draw(st.integers(0, 4))
    gc = draw(st.lists(st.integers(-9, 9), min_size=dg + 1, max_size=dg + 1))
    assume(gc[-1] and gcd(*gc) == 1)
    g = poly(list(zip(gc, range(dg + 1))))
    pairs = st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 12)), max_size=6)
    kind = draw(st.sampled_from(["random", "multiple", "near-multiple"]))
    if kind == "random":
        return canonicalize([(c, (e,)) for c, e in draw(pairs)], 1, ZZ), g
    f = mul(g, canonicalize([(c, (e,)) for c, e in draw(pairs)], 1, ZZ))
    if kind == "near-multiple":
        f = add(f, canonicalize([(c, (e,)) for c, e in draw(pairs)], 1, ZZ))
    return f, g


@settings(max_examples=300, deadline=None)
@given(primitive_division_cases())
def test_strict_division_by_a_primitive_divisor_decides_as_pseudo_division(case):
    # Gauss's lemma: a primitive g that divides f in Z[x] leaves an integral
    # quotient, so strict division fails or leaves a remainder exactly when
    # the pseudo-remainder is nonzero.
    f, g = case
    pseudo_divides = divmod_heap(f, g, pseudo=True)[1].is_zero()
    try:
        q, r, stats = divmod_heap(f, g)
    except InexactDivisionError:
        assert not pseudo_divides
        return
    assert stats.pseudo_events == 0
    assert add(mul(q, g), r) == f
    assert r.is_zero() is pseudo_divides


def test_pseudo_division_stops_at_the_bit_budget():
    # Each pseudo event rescales every live coefficient by lead(g) = 2, so the
    # coefficients of q grow without bound long before 10^15 quotient terms.
    f = poly([(-1, 0), (1, 10**15)])
    g = poly([(-1, 0), (2, 1)])
    stats = ArithStats()
    with pytest.raises(BudgetError, match="bit budget"):
        divmod_heap(f, g, pseudo=True, max_quotient_terms=10**6, stats=stats)
    events = stats.pseudo_events
    # The events before the stop add 2 bits per live coefficient, about events^2 in all.
    assert events * (events - 1) <= dense.DEFAULT_EVAL_BIT_BUDGET < events * (events + 1)
    # Strict division stops at the first step that does not divide.
    with pytest.raises(InexactDivisionError):
        divmod_heap(f, g)


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


@pytest.mark.parametrize("budget, method", [(None, "unit-divisor"), (-1, "heap-divmod")])
def test_divides_field_constant_divisor(budget, method):
    # Over Z_p a nonzero constant is a unit and divides with no ring
    # operation; a negative budget rules the dense path out, so the heap
    # divides instead.
    f = poly([(1, 0), (100, 7), (3, 40)], ring=F101)
    g = poly([(5, 0)], ring=F101)
    stats = ArithStats()
    assert divides(f, g, dense_budget_terms=budget, stats=stats)
    assert stats.method == method
    assert (stats.ring_ops == 0) == (method == "unit-divisor")
    assert divmod_heap(f, g)[1].is_zero()


@pytest.mark.parametrize("budget, accept, reject", [
    (None, "dense-exact", "dense-exact"),
    (8, "gap-blocks", "modular-screen"),  # two blocks of degree 4 after the shift
])
def test_divides_z_divisor_with_a_power_of_x(budget, accept, reject):
    # g = x^3 (1 + 2x^2 + x^4): the ladder shifts x^3 out of f and g.
    g = poly([(1, 3), (2, 5), (1, 7)])
    f = mul(g, poly([(5, 0), (-7, 300)]))
    for dividend, verdict, method in ((f, True, accept), (add(f, poly([(1, 4)])), False, reject)):
        stats = ArithStats()
        assert divides(dividend, g, dense_budget_terms=budget, stats=stats) is verdict
        assert (stats.method, stats.monte_carlo) == (method, False)
        assert divmod_heap(dividend, g, pseudo=True)[1].is_zero() is verdict


# Cyclotomic divisors by the order of their roots: g divides x^N - 1
# exactly when the order divides N.
_CYCLOTOMIC = {3: [(1, 2), (1, 1), (1, 0)], 4: [(1, 2), (1, 0)],
               5: [(1, 4), (1, 3), (1, 2), (1, 1), (1, 0)], 6: [(1, 2), (-1, 1), (1, 0)]}


@st.composite
def z_divides_cases(draw):
    """(f, g, budget) over Z that reach the supersparse rungs of divides.

    planted: f = g*s with the terms of s at least 2^20 apart, so every
    gap block of f is a multiple of g.  remainder: the same f plus a
    nonzero r with deg r < deg g, which lands in the lowest block.
    cyclotomic: x^N - 1 by a cyclotomic g, whose blocks do not divide
    even when g does.  The budget falls on both sides of the blocks'
    total degree.
    """
    kind = draw(st.sampled_from(["planted", "remainder", "cyclotomic"]))
    if kind == "cyclotomic":
        order = draw(st.sampled_from(sorted(_CYCLOTOMIC)))
        n = order * draw(st.integers(1, 80)) + draw(st.sampled_from([0, 0, 1]))
        return poly([(1, n), (-1, 0)]), poly(_CYCLOTOMIC[order]), draw(st.integers(-3, n - 1))
    dg = draw(st.integers(2, 6))
    gc = draw(st.lists(st.integers(-9, 9), min_size=dg + 1, max_size=dg + 1))
    assume(gc[0] and gc[-1] and gcd(*gc) == 1)
    g = poly(list(zip(gc, range(dg + 1))))
    e = draw(st.integers(0, 1 << 40))
    s = []
    for _ in range(draw(st.integers(1, 5))):
        s.append((draw(st.integers(-50, 50).filter(bool)), e))
        e += draw(st.integers(1 << 20, 1 << 40))
    f = mul(g, poly(s))
    if kind == "remainder":
        r = poly(list(zip(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=dg)), range(dg))))
        assume(not r.is_zero())
        f = add(f, r)
    return f, g, draw(st.sampled_from([-3, 0, dg, 2 * dg, 5 * dg, 1 << 16]))


def _ladder_method(f, g, budget, divisible):
    """The rung that decides, for a primitive g with g(0) != 0 and deg g >= 2."""
    if degree(g) > budget:
        return "heap-divmod"
    _, fp = content_and_primitive(f)
    if degree(fp) <= budget:
        return "dense-exact"
    blocks = [block for block, _ in gap_split(fp, default_gap_threshold(fp)).blocks]

    def blocks_divide():
        return all(
            degree(b) <= budget and divmod_heap(b, g, pseudo=True)[1].is_zero() for b in blocks
        )

    if sum(degree(b) for b in blocks) <= budget and blocks_divide():
        return "gap-blocks"
    if not divisible:
        return "modular-screen"
    return "gap-blocks" if blocks_divide() else "heap-divmod"


@settings(max_examples=150, deadline=None)
@given(z_divides_cases())
def test_divides_z_matches_pseudo_remainder_and_ladder(case):
    f, g, budget = case
    divisible = divmod_heap(f, g, pseudo=True)[1].is_zero()
    stats = ArithStats()
    assert divides(f, g, dense_budget_terms=budget, stats=stats) == divisible
    assert stats.method == _ladder_method(f, g, budget, divisible)
    assert not stats.monte_carlo


def _divides_z_request_case(seed):
    """The shape of perfbench's divides-z request: a primitive 16-term g of
    degree 31 with g(0) = 1, times two terms with 60-bit exponents."""
    rng = random.Random(seed)
    exps = [0, *sorted(rng.sample(range(1, 31), 14)), 31]
    g = poly([(1 if e == 0 else rng.randrange(1, 1 << 20), e) for e in exps])
    s = poly([(rng.randrange(1, 1 << 20), rng.randrange(1 << 59, 1 << 60)) for _ in range(2)])
    return mul(g, s), g


def _spy_rungs(monkeypatch):
    """Record, in order, each modular image and each block division."""
    calls = []
    for name, tag in (("_divides_dense_field", "image"), ("_divides_dense_z_small", "block")):
        real = getattr(arith, name)

        def spy(*args, real=real, tag=tag):
            calls.append(tag)
            return real(*args)

        monkeypatch.setattr(arith, name, spy)
    return calls


def test_divides_z_gap_blocks_accept_draws_no_prime(monkeypatch):
    calls = _spy_rungs(monkeypatch)
    f, g = _divides_z_request_case(1)
    rng = random.Random(5)
    state = rng.getstate()
    stats = ArithStats()
    assert divides(f, g, rng=rng, stats=stats)
    assert (stats.method, stats.monte_carlo) == ("gap-blocks", False)
    assert calls == ["block", "block"] and rng.getstate() == state
    # Each block is c * x^e * g: one quotient term of dp_divmod_z, which
    # charges deg g + 2 products and deg g + 1 sums.  Three modular images
    # of this f cost about 13 million.
    assert stats.ring_ops == 2 * (2 * 31 + 3) == 130


@pytest.mark.parametrize("budget, order", [
    (62, ["block", "block"]),  # the blocks' total degree is 2 * 31
    (61, ["image"] * 3 + ["block", "block"]),
])
def test_divides_z_blocks_past_the_budget_keep_images_first(monkeypatch, budget, order):
    calls = _spy_rungs(monkeypatch)
    f, g = _divides_z_request_case(2)
    stats = ArithStats()
    assert divides(f, g, dense_budget_terms=budget, stats=stats)
    assert stats.method == "gap-blocks" and calls == order
    # A remainder in the lowest block: blocks-first pays its failed block
    # (deg r < deg g charges nothing) and then the images reject.
    calls.clear()
    assert not divides(add(f, poly([(1, 5)])), g, dense_budget_terms=budget, stats=stats)
    assert stats.method == "modular-screen"
    assert calls == (["block", "image"] if budget == 62 else ["image"])


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


@pytest.mark.parametrize("k", [21, 23])
def test_linear_divides_exact_wide_block_image(k):
    # 1 + sum_{i<k} x^(2^i) + 6 x^(2^k) is one 2^k-wide gap block at 1/2
    # and 1/3; its image modulo the fixed prime is nonzero, so the answer
    # comes without the exact block value (past the bit budget at k = 23).
    f = poly([(1, 0)] + [(1, 1 << i) for i in range(k)] + [(6, 1 << k)])
    assert not linear_divides_exact(f, 1, 2)
    assert not linear_divides_exact(f, 1, 3)


def test_linear_divides_exact_true_root_just_under_the_budget():
    # (3x - 1)(1 + sum_{i<21} x^(2^i)) is one 42-term block 2^20 + 1 wide
    # at 1/3 whose image vanishes, so the exact block value is computed.
    s = poly([(1, 0)] + [(1, 1 << i) for i in range(21)])
    f = mul(poly([(3, 1), (-1, 0)]), s)
    assert linear_divides_exact(f, 1, 3)


def _root(kind, u, v):
    """(a, b) with gcd(a, b) = 1 and b > 0 of the given kind, from coprime u, v >= 1."""
    lo, hi = sorted((u, v))
    a, b = {"|a|<b": (lo, hi), "|a|>b": (hi, lo), "|a|=b": (1, 1), "a=0": (0, 1)}[kind]
    return (-a if u % 2 else a), b


@pytest.mark.parametrize("kind", ["|a|<b", "|a|>b", "|a|=b", "a=0"])
@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 55)), min_size=1, max_size=6),
    u=st.integers(1, 40),
    v=st.integers(1, 40),
    planted=st.booleans(),
)
def test_linear_divides_exact_matches_fraction_evaluation(kind, pairs, u, v, planted):
    assume(gcd(u, v) == 1 and (u != v or kind in ("|a|=b", "a=0")))
    a, b = _root(kind, u, v)
    f = poly(pairs)
    assume(not f.is_zero())
    if planted:
        f = mul(poly([(b, 1), (-a, 0)]), f)
    root = Fraction(a, b)
    want = sum(c * root ** e for c, (e,) in zip(f.coeffs, f.exps)) == 0
    assert linear_divides_exact(f, a, b) == want


def test_block_value_matches_naive_formula():
    rng = random.Random(41)
    for _ in range(200):
        exps = sorted(rng.sample(range(400), rng.randrange(1, 12)))
        coeffs = [rng.choice([-1, 1]) * rng.randrange(1, 1 << 40) for _ in exps]
        a = rng.randrange(-60, 61)
        b = rng.randrange(1, 61)
        span = exps[-1] - exps[0]
        naive = sum(
            c * a ** (e - exps[0]) * b ** (span - (e - exps[0]))
            for c, e in zip(coeffs, exps)
        )
        assert arith._block_value(coeffs, exps, a, b) == naive


def test_linear_divides_exact_denominator_at_the_image_prime():
    q = arith._IMAGE_PRIME
    s = poly([(1, 90), (-5, 4), (2, 0)])
    f, _ = mul_heap(poly([(q, 1), (-3, 0)]), s)
    assert linear_divides_exact(f, 3, q)
    assert not linear_divides_exact(f, -3, q)
    assert not linear_divides_exact(f, q, 3)  # scanned as 3/q on the reversed f


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


@pytest.mark.parametrize("ring, nvars, degbits, coeff_bits", [
    (ZZ, 1, 200, 8), (ZZ, 1, 20, 40), (ZZ, 3, 48, 4), (Zp((1 << 127) - 1), 1, 30, 0),
])
def test_power_matches_repeated_mul_heap(ring, nvars, degbits, coeff_bits):
    # Wide exponents or coefficients: power multiplies on object columns.
    rng = random.Random(degbits + coeff_bits)
    f = random_sparse_poly(rng, terms=4, degbits=degbits, nvars=nvars, ring=ring, coeff_bits=coeff_bits or 1)
    expected = f
    for k in range(2, 8):
        expected = mul_heap(expected, f)[0]
        assert power(f, k) == expected


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
    assert mul(f, g) == prod
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


def test_products_and_division_leave_collector_state(collector):
    rng = random.Random(46)
    f = random_sparse_poly(rng, terms=40, degbits=30)
    g = random_sparse_poly(rng, terms=30, degbits=30)
    stats = ArithStats()
    prod = mul(f, g, stats)
    assert stats.method == "word-vector"
    assert gc.isenabled() == collector
    wide = poly([(1 << 70, 1), (1, 0)])
    assert mul(f, wide, stats) == mul_heap(f, wide)[0]
    assert stats.method == "wide-vector"
    assert gc.isenabled() == collector
    assert mul_heap(f, g)[0] == prod
    assert gc.isenabled() == collector
    q, r, _ = divmod_heap(prod, g)
    assert q == f and r.is_zero()
    assert gc.isenabled() == collector
    with pytest.raises(InexactDivisionError):
        divmod_heap(poly([(1, 3), (1, 0)]), poly([(2, 1), (1, 0)]))
    assert gc.isenabled() == collector


def _boundary_operand(draw, top_exp, top_coeff, terms, coeff_cap):
    # One term carries the top exponent with top_coeff; the others have
    # distinct exponents below it and |coefficients| up to coeff_cap, so
    # nothing merges.
    n = min(terms - 1, top_exp)
    exps = draw(st.lists(st.integers(0, max(top_exp - 1, 0)), min_size=n, max_size=n, unique=True))
    coeffs = draw(st.lists(st.integers(-coeff_cap, coeff_cap).filter(bool), min_size=n, max_size=n))
    return canonicalize([(top_coeff, (top_exp,))] + [(c, (e,)) for c, e in zip(coeffs, exps)], 1, ZZ)


# 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657.
WORD_MAX_FACTORS = [7, 7, 73, 127, 337, 92737, 649657]


@st.composite
def word_rule_operands(draw):
    """(f, g) on either side of one of mul's two word-path conditions."""
    if draw(st.booleans()):
        # Packed-key side: the top exponents add to 2^63 - 1 + delta.
        top = WORD_MAX + draw(st.sampled_from([-1, 0, 1, 2]))
        a = draw(st.integers(0, top))
        f = _boundary_operand(draw, a, draw(st.integers(1, 9)), draw(st.integers(1, 6)), 9)
        g = _boundary_operand(draw, top - a, draw(st.integers(-9, -1)), draw(st.integers(1, 6)), 9)
        return f, g
    # Coefficient side: max|c_f| * max|c_g| * t with t = t_g <= t_f at
    # 2^63 - 1 exactly or just past it.  All keys are small and distinct
    # per operand, so each column collects at most t products.
    t = draw(st.sampled_from([1, 2, 7]))
    rest = list(WORD_MAX_FACTORS)
    if t == 7:
        rest.remove(7)
    mask = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    cf = 1
    for p, m in zip(rest, mask):
        cf *= p if m else 1
    cg = (WORD_MAX // t) // cf + draw(st.sampled_from([0, 1]))
    signs = draw(st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])))
    tf = t + draw(st.integers(0, 3))
    f = _boundary_operand(draw, 40, signs[0] * cf, tf, cf)
    g = _boundary_operand(draw, 40, signs[1] * cg, t, cg)
    return f, g


@settings(max_examples=150, deadline=None)
@given(word_rule_operands())
def test_mul_matches_heap_across_the_word_rule(pair):
    f, g = pair
    s_mul, s_heap = ArithStats(), ArithStats()
    prod = mul(f, g, s_mul)
    ref, _ = mul_heap(f, g, s_heap)
    assert prod == ref
    assert s_mul.ring_ops == s_heap.ring_ops
    assert s_mul.out_terms == s_heap.out_terms
    cf = max(abs(t.coeff) for t in f.terms)
    cg = max(abs(t.coeff) for t in g.terms)
    fits = (
        f.terms[-1].exps[0] + g.terms[-1].exps[0] <= WORD_MAX
        and cf * cg * min(len(f), len(g)) <= WORD_MAX
    )
    assert s_mul.method == ("word-vector" if fits else "wide-vector")


# Primes p >= 2^62: (p - 1)^2 alone is past 2^63 - 1.
WIDE_PRIMES = [(1 << 62) + 135, (1 << 64) - 59, (1 << 127) - 1]


def _dict_poly(pairs: dict, nvars: int, ring):
    return canonicalize([(c, e) for e, c in pairs.items()], nvars, ring)


def column_tops(f):
    return [max(f.flat_exps[v::f.nvars]) for v in range(f.nvars)]


@st.composite
def object_column_operands(draw):
    """(f, g, cancels) whose packed exponent keys or coefficient products
    outgrow a word; all but "3var48" take an object column in mul.

    Supports mix a few small exponents, which collide in the product, with
    wide ones.  When cancels is set, f = a + x^S*b and g = a - x^S*b with S
    past twice every exponent of a and b, so every cross column a_i*b_j
    sums to zero.
    """
    kind = draw(st.sampled_from(["exp200", "3var48", "coeff-z", "coeff-zp", "cancel"]))
    small = st.integers(-9, 9).filter(bool)
    wide_coeff = st.integers(-(1 << 100), 1 << 100).filter(bool)
    terms = st.integers(1, 10)
    if kind == "exp200":
        exp = st.one_of(st.integers(0, 7), st.integers((1 << 199) - 8, 1 << 199), st.integers(0, 1 << 200))
        ops = [draw(st.dictionaries(st.tuples(exp), small, min_size=1, max_size=10)) for _ in "fg"]
        ops[0][((1 << 200) - draw(st.integers(0, 3)),)] = draw(small)
        return _dict_poly(ops[0], 1, ZZ), _dict_poly(ops[1], 1, ZZ), False
    if kind == "3var48":
        exp = st.one_of(st.integers(0, 3), st.integers((1 << 48) - 4, (1 << 48) - 1))
        ring = draw(st.sampled_from([ZZ, F101]))
        coeff = small if ring is ZZ else st.integers(1, 100)
        ops = [draw(st.dictionaries(st.tuples(exp, exp, exp), coeff, min_size=1, max_size=10)) for _ in "fg"]
        ops[0][((1 << 48) - 1,) * 3] = draw(coeff)
        return _dict_poly(ops[0], 3, ring), _dict_poly(ops[1], 3, ring), False
    if kind == "coeff-z":
        nvars = draw(st.integers(1, 2))
        exp = st.tuples(*[st.integers(0, 5)] * nvars)
        ops = [draw(st.dictionaries(exp, st.one_of(small, wide_coeff), min_size=1, max_size=10)) for _ in "fg"]
        for op in ops:
            op[(6,) * nvars] = draw(st.integers(1 << 32, 1 << 100))
        return _dict_poly(ops[0], nvars, ZZ), _dict_poly(ops[1], nvars, ZZ), False
    if kind == "coeff-zp":
        ring = Zp(draw(st.sampled_from(WIDE_PRIMES)))
        coeff = st.integers(1, ring.modulus - 1)
        ops = [draw(st.dictionaries(st.tuples(st.integers(0, 9)), coeff, min_size=1, max_size=10)) for _ in "fg"]
        for op in ops:
            op[(10,)] = draw(st.integers(1 << 32, ring.modulus - 1))
        return _dict_poly(ops[0], 1, ring), _dict_poly(ops[1], 1, ring), False
    # Cancelling columns, with object keys (S = 2^62) or object values only.
    ring = draw(st.sampled_from([ZZ, Zp(WIDE_PRIMES[0])]))
    wide_keys = ring is ZZ and draw(st.booleans())
    top = 60 if wide_keys else 6
    exp = st.tuples(st.one_of(st.integers(0, 3), st.integers(0, (1 << top) - 1)))
    coeff = st.integers(1, ring.modulus - 1) if ring.modulus else st.one_of(small, wide_coeff)
    a, b = (draw(st.dictionaries(exp, coeff, min_size=1, max_size=draw(terms))) for _ in "ab")
    if not wide_keys:
        a[(1 << top) - 1,] = draw(st.integers(1 << 32, (ring.modulus or 1 << 100) - 1))
    shift = 1 << (top + 2)
    f = {**a, **{(e + shift,): c for (e,), c in b.items()}}
    g = {**a, **{(e + shift,): -c for (e,), c in b.items()}}
    return _dict_poly(f, 1, ring), _dict_poly(g, 1, ring), True


@pytest.mark.parametrize("chunk", [None, 1, 7, 64])
@settings(max_examples=80, deadline=None)
@given(object_column_operands())
def test_mul_object_columns_match_heap(chunk, case):
    # chunk None keeps the real cap, under which every case here is one chunk.
    f, g, cancels = case
    s_mul, s_heap = ArithStats(), ArithStats()
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(arith, "_WIDE_CHUNK_PAIRS", chunk)
        prod = mul(f, g, s_mul)
    assert prod == mul_heap(f, g, s_heap)[0]
    assert (s_mul.ring_ops, s_mul.out_terms) == (s_heap.ring_ops, s_heap.out_terms)
    # Word-vector only when every exponent column and the coefficient column
    # are int64: each variable's exponent sums and the coefficient bound fit.
    exps_fit = all(a + b <= WORD_MAX for a, b in zip(column_tops(f), column_tops(g)))
    coeff_bound = max(map(abs, f.coeffs)) * max(map(abs, g.coeffs)) * min(len(f), len(g))
    method = "word-vector" if exps_fit and coeff_bound <= WORD_MAX else "wide-vector"
    assert (s_mul.method, s_mul.comparisons, s_mul.peak_heap) == (method, 0, 0)
    if cancels:
        distinct = 2 * len(f) * len(g) - s_mul.ring_ops
        assert s_mul.out_terms < distinct


@st.composite
def prefix_tie_operands(draw):
    """(f, g) whose product rows often share mul's 63-bit sort prefix.

    "3var": the last variable ranges over 0..3 and the middle one over
    top..top + 7, so many rows agree on every bit the prefix keeps and
    differ only below it, in the middle or the first variable.
    "exp200": univariate exponents near 2^200, whose sums agree on their
    top 63 bits.  "2var70": the last variable passes 2^63, so the exponent
    columns are object.
    """
    ring = draw(st.sampled_from([ZZ, F101, Zp(WIDE_PRIMES[0])]))
    coeff = st.integers(-9, 9).filter(bool) if ring is ZZ else st.integers(1, ring.modulus - 1)
    kind = draw(st.sampled_from(["3var", "exp200", "2var70"]))
    if kind == "3var":
        top = draw(st.sampled_from([1 << 40, 1 << 61, (1 << 62) - 16]))
        first = st.one_of(st.integers(0, 7), st.integers(0, 1 << 48))
        exp = st.tuples(first, st.integers(top, top + 7), st.integers(0, 3))
    elif kind == "exp200":
        exp = st.tuples(st.one_of(st.integers(0, 3), st.integers(1 << 200, (1 << 200) + 63)))
    else:
        exp = st.tuples(st.integers(0, 7), st.integers(1 << 70, (1 << 70) + 7))
    f, g = (draw(st.dictionaries(exp, coeff, min_size=1, max_size=12)) for _ in "fg")
    nvars = len(next(iter(f)))
    return _dict_poly(f, nvars, ring), _dict_poly(g, nvars, ring)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=60, deadline=None)
@given(prefix_tie_operands())
def test_mul_prefix_ties_match_heap(chunk, case):
    f, g = case
    s_mul, s_heap = ArithStats(), ArithStats()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_CHUNK_PAIRS", chunk)
        mp.setattr(arith, "_WIDE_CHUNK_PAIRS", chunk)
        prod = mul(f, g, s_mul)
    assert prod == mul_heap(f, g, s_heap)[0]
    assert (s_mul.ring_ops, s_mul.out_terms) == (s_heap.ring_ops, s_heap.out_terms)


@st.composite
def add_operands(draw):
    """Two polynomials in 1 to 3 variables, on small supports that collide
    or on wide ones that rarely do, the zero polynomial included."""
    ring = draw(st.sampled_from([ZZ, Zp(2), F101, Zp((1 << 61) - 1)]))
    nvars = draw(st.integers(1, 3))
    top = draw(st.sampled_from([2, 1 << 70]))
    exps = st.tuples(*[st.integers(0, top)] * nvars)
    terms = st.lists(st.tuples(st.integers(-(1 << 70), 1 << 70), exps), max_size=12)
    return canonicalize(draw(terms), nvars, ring), canonicalize(draw(terms), nvars, ring)


@settings(max_examples=200, deadline=None)
@given(add_operands())
def test_add_sub_match_dict_sum_property(pair):
    f, g = pair
    shared = {t.exps for t in f.terms} & {t.exps for t in g.terms}
    for op, sign in ((add, 1), (sub, -1)):
        sums = {}
        for t in f.terms:
            sums[t.exps] = t.coeff
        for t in g.terms:
            sums[t.exps] = sums.get(t.exps, 0) + sign * t.coeff
        expected = canonicalize([(c, e) for e, c in sums.items()], f.nvars, f.ring)
        stats = ArithStats()
        assert op(f, g, stats) == expected
        assert stats.comparisons <= len(f) + len(g)
        assert stats.ring_ops == len(shared)
        assert stats.out_terms == len(expected)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 7, 101, (1 << 61) - 1]),
    st.lists(st.tuples(st.integers(), st.integers(0, 40)), max_size=15),
    st.lists(st.tuples(st.integers(), st.integers(0, 12)), min_size=1, max_size=6),
)
def test_divmod_heap_matches_dense_division_property(p, pf, pg):
    F = Zp(p)
    f = canonicalize([(c, (e,)) for c, e in pf], 1, F)
    g = canonicalize([(c, (e,)) for c, e in pg], 1, F)
    assume(not g.is_zero())
    stats = ArithStats()
    q, r, _ = divmod_heap(f, g, stats=stats)
    dq, dr = dense.dp_divmod_modp(to_dense(f).coeffs, to_dense(g).coeffs, p)
    assert q == from_dense(DensePoly(F, tuple(dq)))
    assert r == from_dense(DensePoly(F, tuple(dr)))
    assert stats.peak_heap <= len(g) - 1
