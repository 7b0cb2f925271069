import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import (
    ArityError,
    BoundError,
    BudgetError,
    DensePoly,
    SparsePoly,
    Term,
    UnsupportedRingError,
    ZZ,
    Zp,
    canonicalize,
    degree,
    eval_geometric,
    eval_mod,
    evaluate,
    evaluate_mod,
    from_dense,
    from_pairs,
    geometric_stream,
    height,
    kronecker_pack,
    kronecker_unpack,
    to_dense,
    zero,
)
from supersparse.bench import random_sparse_poly
from supersparse.ring import is_prime, random_prime

F97 = Zp(97)


def test_canonicalize_merges_duplicates():
    f = canonicalize([(1, (0,)), (1, (0,))], 1, ZZ)
    assert [(t.coeff, t.exps) for t in f.terms] == [(2, (0,))]


def test_canonicalize_cancellation_gives_zero():
    f = canonicalize([(1, (5,)), (-1, (5,))], 1, ZZ)
    assert f.is_zero()


def test_canonicalize_sorts():
    f = canonicalize([(3, (2,)), (1, (0,))], 1, ZZ)
    assert [(t.coeff, t.exps) for t in f.terms] == [(1, (0,)), (3, (2,))]


def test_canonicalize_arity_error():
    with pytest.raises(ArityError):
        canonicalize([(1, (0, 1))], 1, ZZ)


def test_canonicalize_colex_order_multivariate():
    # colex: compare the last variable first
    f = canonicalize([(1, (0, 1)), (2, (5, 0)), (3, (1, 1))], 2, ZZ)
    assert [t.exps for t in f.terms] == [(5, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("nvars", [1, 2])
def test_sparse_poly_validation_errors(nvars):
    # lo < hi in canonical (colex) order; for two variables lo > hi in
    # plain lexicographic order, so only the colex comparison accepts it.
    lo, hi = ((3,), (4,)) if nvars == 1 else ((5, 0), (0, 1))
    assert SparsePoly(ZZ, nvars, (Term(1, lo), Term(-2, hi))).terms[1].coeff == -2
    bad = [
        (ZZ, (Term(0, lo),), ValueError, "zero coefficient stored in canonical form"),
        (F97, (Term(97, lo),), ValueError, "coefficient not a canonical representative"),
        (F97, (Term(-1, lo),), ValueError, "coefficient not a canonical representative"),
        (ZZ, (Term(1, hi), Term(1, lo)), ValueError,
         "terms not strictly ascending in canonical order"),
        (ZZ, (Term(1, lo), Term(2, lo)), ValueError,
         "terms not strictly ascending in canonical order"),
        (ZZ, (Term(1, lo + (0,)),), ArityError,
         f"exponent tuple {lo + (0,)} does not have arity {nvars}"),
        (ZZ, (Term(1, lo), Term(1, hi[1:])), ArityError,
         f"exponent tuple {hi[1:]} does not have arity {nvars}"),
        (ZZ, (Term(1, (-1,) + lo[1:]), Term(2, hi)), ValueError,
         "exponents must be natural numbers"),
        # The first fault in term order wins.
        (ZZ, (Term(1, (-1,) + lo[1:]), Term(1, lo + (0,))), ValueError,
         "exponents must be natural numbers"),
        (ZZ, (Term(1, lo + (0,)), Term(1, (-1,) + lo[1:])), ArityError,
         f"exponent tuple {lo + (0,)} does not have arity {nvars}"),
    ]
    for ring, terms, error, message in bad:
        with pytest.raises(error) as info:
            SparsePoly(ring, nvars, terms)
        assert type(info.value) is error and str(info.value) == message
    with pytest.raises(ArityError, match="a polynomial needs at least one variable"):
        SparsePoly(ZZ, 0, ())


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.integers(-50, 50),
            st.tuples(st.integers(0, 1 << 70), st.integers(0, 1 << 70)),
        ),
        max_size=12,
    )
)
def test_canonicalize_invariants(pairs):
    f = canonicalize(pairs, 2, ZZ)
    keys = [t.exps[::-1] for t in f.terms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(t.coeff != 0 for t in f.terms)


def test_height_examples():
    assert height(zero(ZZ, 1)) == 0
    f = from_pairs(ZZ, 1, [(3, 5), (-7, 0)])
    assert height(f) == 7
    with pytest.raises(UnsupportedRingError):
        height(from_pairs(F97, 1, [(3, 5)]))


def test_height_triangle_inequality():
    from supersparse import add

    rng = random.Random(0)
    for _ in range(20):
        f = random_sparse_poly(rng, terms=10, degbits=30)
        assert height(add(f, f)) <= 2 * height(f)


def test_evaluate_examples():
    f = from_pairs(ZZ, 1, [(1, 1 << 50), (-1, 0)])
    assert evaluate(f, (1,)) == 0
    g = from_pairs(ZZ, 1, [(3, 5), (2, 0)])
    assert evaluate(g, (2,)) == 98


def test_evaluate_budget_guard():
    f = from_pairs(ZZ, 1, [(1, 1 << 50), (-1, 0)])
    with pytest.raises(BudgetError):
        evaluate(f, (2,))
    # -1, 0, 1 are always fine
    assert evaluate(f, (-1,)) == 0
    assert evaluate(f, (0,)) == -1


def _naive_value(f, point, p):
    """f at point mod p with one plain pow per variable and term."""
    total = 0
    for coeff, exps in f.terms:
        for x, e in zip(point, exps):
            coeff *= pow(x, e, p)
        total += coeff
    return total % p


def _multivariate_cases(rng, ring, **kw):
    """(f, point) with 2 and 3 variables, including bases = 0 mod 97 against exponent 0."""
    zeros = from_pairs(ring, 3, [(5, (0, 3, 0)), (-7, (2, 0, 0)), (11, (0, 0, 0)), (3, (1, 4, 9))])
    for point in [(0, 2, 97), (97, 0, 5), (0, 0, 0), (194, 3, 0)]:
        yield zeros, point
        yield from_pairs(ring, 2, [(c, e[:2]) for c, e in zeros.terms]), point[:2]
    for nvars in (2, 3):
        for _ in range(10):
            f = random_sparse_poly(rng, terms=12, degbits=40, nvars=nvars, ring=ring, **kw)
            yield f, tuple(rng.randrange(97) for _ in range(nvars))


def test_evaluate_field_matches_naive_powering():
    rng = random.Random(1)
    for _ in range(30):
        f = random_sparse_poly(rng, terms=20, degbits=64, ring=F97)
        x = rng.randrange(97)
        expected = sum(t.coeff * pow(x, t.exps[0], 97) for t in f.terms) % 97
        assert evaluate(f, (x,)) == expected
    for f, point in _multivariate_cases(rng, F97):
        assert evaluate(f, point) == _naive_value(f, point, 97)


def test_evaluate_mod_matches_field_eval():
    rng = random.Random(2)
    for _ in range(30):
        f = random_sparse_poly(rng, terms=15, degbits=50, coeff_bits=30)
        x = rng.randrange(97)
        expected = sum(t.coeff * pow(x, t.exps[0], 97) for t in f.terms) % 97
        assert evaluate_mod(f, (x,), 97) == expected
    for f, point in _multivariate_cases(rng, ZZ, coeff_bits=30):
        assert evaluate_mod(f, point, 97) == _naive_value(f, point, 97)


def test_evaluate_arity_error():
    f = from_pairs(ZZ, 2, [(1, (1, 2))])
    with pytest.raises(ArityError):
        evaluate(f, (1,))


def test_eval_geometric_constant():
    f = from_pairs(F97, 1, [(2, 0)])
    assert eval_geometric(f, 5, 4) == [2, 2, 2, 2]


def test_eval_geometric_x():
    f = from_pairs(F97, 1, [(1, 1)])
    assert eval_geometric(f, 3, 3) == [1, 3, 9]


def test_eval_geometric_matches_pointwise():
    rng = random.Random(3)
    for _ in range(20):
        f = random_sparse_poly(rng, terms=12, degbits=40, ring=F97)
        w = rng.randrange(1, 97)
        m = 24
        got = eval_geometric(f, w, m)
        want = [evaluate(f, (pow(w, j, 97),)) for j in range(m)]
        assert got == want


def _pointwise(f, bases, p, m):
    """The first m values f(b^j) by per-point evaluation."""
    out = []
    for j in range(m):
        point = tuple(pow(b, j, p) for b in bases)
        out.append(evaluate(f, point) if f.ring.is_field else evaluate_mod(f, point, p))
    return out


def _drawn(stream, m):
    return [next(stream) for _ in range(m)]


def test_geometric_stream_multivariate_bases():
    rng = random.Random(21)
    for _ in range(10):
        f = random_sparse_poly(rng, terms=9, degbits=30, nvars=3, ring=F97)
        bases = tuple(rng.randrange(97) for _ in range(3))
        assert _drawn(geometric_stream(f, bases), 20) == _pointwise(f, bases, 97, 20)


def test_geometric_stream_base_zero_and_exponent_zero():
    # x^0 y^5 + 3 x^4 y^0 + 2: exponent 0 against a base that is 0 mod p
    f = from_pairs(F97, 2, [(1, (0, 5)), (3, (4, 0)), (2, (0, 0))])
    for bases in [(0, 5), (97, 5), (5, 0), (0, 0), (1, 1)]:
        assert _drawn(geometric_stream(f, bases), 6) == _pointwise(f, bases, 97, 6)
    g = from_pairs(ZZ, 1, [(7, 0), (-4, 3)])
    assert _drawn(geometric_stream(g, (2 * 101,), 101), 5) == [3, 7, 7, 7, 7]


def test_geometric_stream_zero_polynomial():
    assert _drawn(geometric_stream(zero(F97, 2), (3, 4)), 5) == [0] * 5
    assert _drawn(geometric_stream(zero(ZZ, 1), (3,), 101), 5) == [0] * 5


def test_geometric_stream_integer_wide_coefficients():
    rng = random.Random(22)
    p = random_prime(rng, 62)
    for _ in range(5):
        f = random_sparse_poly(rng, terms=15, degbits=60, coeff_bits=150, nvars=2)
        bases = (rng.randrange(p), rng.randrange(p))
        assert _drawn(geometric_stream(f, bases, p), 30) == _pointwise(f, bases, p, 30)


def test_geometric_stream_ring_and_arity_errors():
    f = from_pairs(F97, 1, [(1, 3)])
    assert _drawn(geometric_stream(f, (5,), 97), 3) == _pointwise(f, (5,), 97, 3)
    with pytest.raises(UnsupportedRingError):
        geometric_stream(f, (5,), 101)
    with pytest.raises(UnsupportedRingError):
        geometric_stream(from_pairs(ZZ, 1, [(1, 3)]), (5,))
    with pytest.raises(ArityError):
        geometric_stream(f, (5, 6))


_PRIMES = [p for p in range(2, 400) if is_prime(p)] + [(1 << 61) - 1]


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.integers(-(1 << 80), 1 << 80),
            st.tuples(st.integers(0, 1 << 64), st.integers(0, 1 << 64)),
        ),
        max_size=8,
    ),
    st.tuples(st.integers(0, 1 << 70), st.integers(0, 1 << 70)),
    st.sampled_from(_PRIMES),
    st.booleans(),
)
def test_geometric_stream_equals_pointwise_property(pairs, bases, p, over_field):
    ring = Zp(p) if over_field else ZZ
    f = from_pairs(ring, 2, pairs)
    got = _drawn(geometric_stream(f, bases, None if over_field else p), 6)
    assert got == _pointwise(f, bases, p, 6)


def test_eval_mod_constant_modulus_point():
    # g = x, h = theta reduces to plain evaluation
    f = from_pairs(ZZ, 1, [(3, 5), (2, 0)])
    h = DensePoly.from_coeffs(ZZ, [2])
    g = DensePoly.from_coeffs(ZZ, [0, 1])
    out = eval_mod(f, h, g)
    assert list(out.coeffs) == [98]


def test_eval_mod_x5_mod_x2_plus_1():
    f = from_pairs(ZZ, 1, [(1, 5)])
    h = DensePoly.from_coeffs(ZZ, [0, 1])
    g = DensePoly.from_coeffs(ZZ, [1, 0, 1])
    out = eval_mod(f, h, g)
    assert list(out.coeffs) == [0, 1]  # x^4 = 1 mod x^2+1, so x^5 = x


def test_eval_mod_against_dense_expansion():
    rng = random.Random(4)
    p = 10007
    Fp = Zp(p)
    for _ in range(20):
        f = random_sparse_poly(rng, terms=12, degbits=8, ring=Fp)  # deg < 256
        gd = [rng.randrange(p) for _ in range(8)] + [1]
        hd = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
        g = DensePoly.from_coeffs(Fp, gd)
        h = DensePoly.from_coeffs(Fp, hd)
        got = eval_mod(f, h, g)
        # oracle: expand f(h) densely with schoolbook products, then reduce
        def dense_mul(a, b):
            out = [0] * (len(a) + len(b) - 1) if a and b else []
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
            return out
        def dense_mod(a, m):
            a = list(a)
            while len(a) >= len(m):
                c = a[-1]
                sh = len(a) - len(m)
                for j in range(len(m)):
                    a[sh + j] = (a[sh + j] - c * m[j]) % p
                while a and a[-1] == 0:
                    a.pop()
            return a
        acc = []
        for t in f.terms:
            cur = [1]
            for _ in range(t.exps[0]):
                cur = dense_mod(dense_mul(cur, hd), gd)
            cur = [v * t.coeff % p for v in cur]
            n = max(len(acc), len(cur))
            acc = [( (acc[i] if i < len(acc) else 0) + (cur[i] if i < len(cur) else 0)) % p for i in range(n)]
        while acc and acc[-1] == 0:
            acc.pop()
        assert list(got.coeffs) == acc


def test_eval_mod_errors():
    f = from_pairs(ZZ, 1, [(1, 5)])
    h = DensePoly.from_coeffs(ZZ, [0, 0, 1])
    g = DensePoly.from_coeffs(ZZ, [1, 1])
    from supersparse import ZeroPolynomialError

    with pytest.raises(BoundError):
        eval_mod(f, h, g)
    with pytest.raises(ZeroPolynomialError):
        eval_mod(f, DensePoly.from_coeffs(ZZ, []), DensePoly.from_coeffs(ZZ, []))
    # h or g over another ring used to be reduced silently into f's ring.
    from supersparse import RingMismatchError

    f5 = from_pairs(Zp(5), 1, [(1, 5)])
    with pytest.raises(RingMismatchError):
        eval_mod(f5, DensePoly.from_coeffs(Zp(5), [0, 1]), DensePoly.from_coeffs(Zp(7), [6, 0, 0, 1]))
    with pytest.raises(RingMismatchError):
        eval_mod(f5, DensePoly.from_coeffs(ZZ, [0, 1]), DensePoly.from_coeffs(Zp(5), [1, 0, 0, 1]))


def test_eval_mod_linear_modulus_matches_eval():
    # f(c) mod (x - theta) is the constant f(c): cross-primitive consistency
    rng = random.Random(11)
    p = 10007
    Fp = Zp(p)
    for _ in range(15):
        f = random_sparse_poly(rng, terms=10, degbits=40, ring=Fp)
        theta = rng.randrange(p)
        c = rng.randrange(p)
        g = DensePoly.from_coeffs(Fp, [(-theta) % p, 1])
        h = DensePoly.from_coeffs(Fp, [c])
        out = eval_mod(f, h, g)
        expected = evaluate(f, (c,))
        assert list(out.coeffs) == ([expected] if expected else [])


def test_kronecker_pack_example():
    f = from_pairs(ZZ, 2, [(1, (1, 0)), (1, (0, 2))])  # x + y^2
    packed = kronecker_pack(f, 3)
    assert [(t.coeff, t.exps) for t in packed.terms] == [(1, (1,)), (1, (6,))]
    assert kronecker_unpack(packed, 3, 2) == f


def test_kronecker_univariate_identity():
    f = from_pairs(ZZ, 1, [(1, 10), (2, 3)])
    assert kronecker_pack(f, 100) == f


def test_kronecker_bound_error():
    f = from_pairs(ZZ, 2, [(1, (3, 0))])
    with pytest.raises(BoundError):
        kronecker_pack(f, 3)
    g = from_pairs(ZZ, 1, [(1, 9)])
    with pytest.raises(BoundError):
        kronecker_unpack(g, 3, 2)
    # A bound of -2 used to write the exponent -1 for x^3 with 2 variables.
    for bound in (0, -2):
        with pytest.raises(BoundError, match="packing bound must be positive"):
            kronecker_unpack(from_pairs(ZZ, 1, [(1, 3), (1, 0)]), bound, 2)


def test_kronecker_unpack_range_check_at_the_limit():
    # The bit-length screen must neither pass nor refuse an exponent that
    # only bound**nvars itself decides; the first refused one is named.
    for bound in (1, 2, 3, 4, 7, 8, 9):
        for nvars in (1, 2, 3, 5):
            limit = bound ** nvars
            ok = from_pairs(ZZ, 1, [(1, limit - 1), (1, 0)] if limit > 1 else [(1, 0)])
            assert kronecker_pack(kronecker_unpack(ok, bound, nvars), bound) == ok
            over = from_pairs(ZZ, 1, [(1, limit), (1, limit + 1), (1, 2 * limit + 5)])
            with pytest.raises(BoundError, match=rf"^exponent {limit} is not below bound\*\*nvars$"):
                kronecker_unpack(over, bound, nvars)


def test_kronecker_zero_costs_nothing_per_variable():
    # With no terms there is nothing to pack or unpack, so neither call
    # builds a per-variable list of bounds or the number bound**nvars.
    import time
    import tracemalloc

    n = 10_000_000
    tracemalloc.start()
    try:
        packed = kronecker_pack(zero(ZZ, n), 2)
        start = time.perf_counter()
        unpacked = kronecker_unpack(zero(ZZ), 3, n)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packed == zero(ZZ) and unpacked == zero(ZZ, n)
    assert peak < 1 << 16 and elapsed < 0.5


def test_kronecker_round_trip_random():
    rng = random.Random(5)
    for _ in range(30):
        f = random_sparse_poly(rng, terms=20, degbits=16, nvars=4)
        packed = kronecker_pack(f, 1 << 16)
        assert len(packed.terms) == len(f.terms)
        assert kronecker_unpack(packed, 1 << 16, 4) == f


def test_kronecker_unpack_pack_round_trip():
    rng = random.Random(6)
    for _ in range(30):
        g = random_sparse_poly(rng, terms=20, degbits=64)
        assert kronecker_pack(kronecker_unpack(g, 1 << 16, 4), 1 << 16) == g


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.integers(-9, 9).filter(lambda c: c != 0),
            st.tuples(st.integers(0, 999), st.integers(0, 999)),
        ),
        max_size=10,
    )
)
def test_kronecker_pack_preserves_order(pairs):
    f = canonicalize(pairs, 2, ZZ)
    packed = kronecker_pack(f, 1000)
    exps = [t.exps[0] for t in packed.terms]
    assert exps == sorted(exps)
    assert len(packed.terms) == len(f.terms)


def test_to_dense_round_trip():
    f = from_pairs(ZZ, 1, [(-1, 0), (1, 3)])
    d = to_dense(f)
    assert list(d.coeffs) == [-1, 0, 0, 1]
    assert from_dense(d) == f
    assert to_dense(zero(ZZ, 1)).is_zero()
    assert from_dense(DensePoly.from_coeffs(ZZ, [])).is_zero()


def test_to_dense_budget():
    f = from_pairs(ZZ, 1, [(1, 1 << 40)])
    with pytest.raises(BudgetError):
        to_dense(f)


def test_to_dense_budget_override():
    f = from_pairs(ZZ, 1, [(1, 1 << 17)])
    with pytest.raises(BudgetError):
        to_dense(f, budget=None)
    assert to_dense(f, budget=1 << 18).degree == 1 << 17


def test_to_dense_random_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        f = random_sparse_poly(rng, terms=30, degbits=13)
        assert from_dense(to_dense(f)) == f


def test_degree_sentinel():
    z = zero(ZZ, 1)
    assert degree(z) == float("-inf")
    assert degree(z) < 0
    f = from_pairs(ZZ, 1, [(1, 0)])
    assert degree(f) == 0


def test_representation_never_stores_zeros():
    rng = random.Random(8)
    for _ in range(50):
        f = random_sparse_poly(rng, terms=15, degbits=30)
        assert all(t.coeff != 0 for t in f.terms)
        assert len({t.exps for t in f.terms}) == len(f.terms)


def test_canonicalize_leaves_collector_state(collector):
    f = canonicalize([(2, (1, 0)), (3, (0, 1)), (-2, (1, 0))], 2, ZZ)
    assert f == from_pairs(ZZ, 2, [(3, (0, 1))])
    assert gc.isenabled() == collector
    with pytest.raises(ArityError):
        canonicalize([(1, (0, 1)), (1, (2,))], 2, ZZ)
    assert gc.isenabled() == collector
