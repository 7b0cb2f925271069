import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import (
    ZZ,
    ArityError,
    BudgetError,
    GapSplit,
    RingMismatchError,
    ZeroPolynomialError,
    Zp,
    canonicalize,
    certify_power,
    content_and_primitive,
    detect_perfect_power,
    eval_at_pm_one,
    evaluate,
    from_pairs,
    gap_split,
    linear_rational_factors,
    mul_heap,
    power,
    zero,
)
from supersparse import factor
from supersparse.bench import random_sparse_poly
from supersparse.cli import main
from supersparse.factor import _divisors, reassemble
from supersparse.polyfile import dumps
from supersparse.ring import is_prime


def poly(pairs):
    return from_pairs(ZZ, 1, pairs)


def test_gap_split_example():
    f = poly([(1, 1000), (1, 999), (1, 1), (1, 0)])
    split = gap_split(f, 500)
    assert len(split.blocks) == 2
    (b0, s0), (b1, s1) = split.blocks
    assert s0 == 0 and [(t.coeff, t.exps[0]) for t in b0.terms] == [(1, 0), (1, 1)]
    assert s1 == 999 and [(t.coeff, t.exps[0]) for t in b1.terms] == [(1, 0), (1, 1)]


def test_gap_split_dense_single_block():
    f = poly([(1, 0), (1, 1), (2, 2), (1, 3)])
    split = gap_split(f, 2)
    assert len(split.blocks) == 1
    assert split.blocks[0][1] == 0


def test_gap_split_invariants():
    rng = random.Random(0)
    for _ in range(40):
        f = random_sparse_poly(rng, terms=20, degbits=40)
        gamma = 64
        split = gap_split(f, gamma)
        assert reassemble(split, ZZ) == f
        for block, shift in split.blocks:
            exps = [t.exps[0] for t in block.terms]
            assert exps[0] == 0
            for a, b in zip(exps, exps[1:]):
                assert b - a < gamma
        tops = [s + block.terms[-1].exps[0] for block, s in split.blocks]
        bottoms = [s for _, s in split.blocks]
        for top, nxt in zip(tops, bottoms[1:]):
            assert nxt - top >= gamma


@settings(max_examples=120)
@given(
    st.lists(st.tuples(st.integers(-99, 99), st.integers(0, 1 << 48)), max_size=14),
    st.integers(1, 1 << 20),
)
def test_gap_split_reassembly_property(pairs, gamma):
    f = canonicalize([(c, (e,)) for c, e in pairs], 1, ZZ)
    split = gap_split(f, gamma)
    assert reassemble(split, ZZ) == f


def test_reassemble_rejects_negative_shift():
    one = poly([(1, 0)])
    with pytest.raises(ValueError, match="^exponents must be natural numbers$"):
        reassemble(GapSplit(((one, -5),), 64), ZZ)


def test_eval_at_pm_one_examples():
    even = poly([(1, 1 << 20), (-1, 0)])
    assert eval_at_pm_one(even) == (0, 0)
    odd = poly([(1, (1 << 20) + 1), (-1, 0)])
    assert eval_at_pm_one(odd) == (0, -2)
    assert eval_at_pm_one(zero(ZZ, 1)) == (0, 0)


def test_eval_at_pm_one_matches_eval():
    rng = random.Random(1)
    for _ in range(40):
        f = random_sparse_poly(rng, terms=15, degbits=40)
        plus, minus = eval_at_pm_one(f)
        assert plus == evaluate(f, (1,))
        assert minus == evaluate(f, (-1,))


def test_content_and_primitive():
    f = poly([(6, 10), (-9, 0)])
    c, prim = content_and_primitive(f)
    assert c == 3
    assert [(t.coeff, t.exps[0]) for t in prim.terms] == [(-3, 0), (2, 10)]
    g = poly([(-4, 3), (-2, 0)])
    c, prim = content_and_primitive(g)
    assert c == -2 and prim.terms[-1].coeff > 0


def test_linear_factors_cyclotomic_pair():
    f = poly([(1, 1 << 20), (-1, 0)])
    roots = linear_rational_factors(f, random.Random(0))
    assert roots == [(-1, 1), (1, 1)]


def test_linear_factors_screens_minus_one():
    f = poly([(2, 5), (-2, 0)])
    roots = linear_rational_factors(f, random.Random(1))
    assert roots == [(1, 1)]


def test_linear_factors_planted_rational():
    factor_poly = poly([(2, 1), (-3, 0)])
    s = poly([(1, 100), (1, 1), (1, 0)])
    f, _ = mul_heap(factor_poly, s)
    for seed in (2, 1807):  # the search is deterministic: rng is unused
        roots = linear_rational_factors(f, random.Random(seed))
        # candidate set rules everything else out: s has no rational roots
        assert roots == [(3, 2)]


def test_linear_factors_zero_root_reported():
    f = poly([(1, 5), (1, 4)])  # x^4 (x + 1)
    roots = linear_rational_factors(f, random.Random(3))
    assert (0, 1) in roots and (-1, 1) in roots


def test_linear_factors_soundness_random():
    rng = random.Random(4)
    for _ in range(25):
        f = random_sparse_poly(rng, terms=8, degbits=30, coeff_bits=8)
        for a, b in linear_rational_factors(f, rng):
            if a == 0:
                assert f.terms[0].exps[0] >= 1
            elif abs(a) == b:
                assert evaluate(f, (a // b,)) == 0
            else:
                from supersparse import linear_divides_exact

                assert linear_divides_exact(f, a, b)


@pytest.mark.parametrize("k", [21, 23])
def test_linear_factors_wide_block_rejected_by_its_image(k):
    # At denominators 2, 3 and 6, 1 + sum_{i<k} x^(2^i) + 6 x^(2^k) leaves
    # no gap past the threshold: its one gap block is 2^k wide, and its
    # exact value is past the bit budget at b = 6 (at every b for k = 23).
    # The image modulo the fixed prime rejects every candidate first.
    f = poly([(1, 0)] + [(1, 1 << i) for i in range(k)] + [(6, 1 << k)])
    assert linear_rational_factors(f, random.Random(k)) == []


def test_linear_factors_wide_block_true_root_raises(tmp_path, capsys):
    # A true root has a vanishing image, so the wide block must be
    # evaluated exactly: over the bit budget that is an error, never a
    # missing root.
    s = poly([(1, 0)] + [(1, 1 << i) for i in range(23)])
    f, _ = mul_heap(poly([(2, 1), (-1, 0)]), s)
    with pytest.raises(BudgetError):
        linear_rational_factors(f, random.Random(0))
    path = tmp_path / "f.sp"
    path.write_text(dumps(f))
    assert main(["roots-linear", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(1, 10**7),
        st.builds(lambda i, j, k: 7**i * 11**j * 13**k, *[st.integers(0, 3)] * 3),
    )
)
def test_divisors_match_trial_division(n):
    # Only 2, 3 and 5 are divided out; rho splits every other composite,
    # prime powers included.
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    assert _divisors(n, 10**4) == sorted(set(small + [n // d for d in small]))


def test_divisors_below_60000_match_a_sieve():
    divs = [[] for _ in range(60000)]
    for d in range(1, 60000):
        for m in range(d, 60000, d):
            divs[m].append(d)
    assert all(_divisors(n, 10**4) == divs[n] for n in range(1, 60000))


def test_rho_answer_does_not_depend_on_the_batch(monkeypatch):
    # A batch whose gcd is n is walked again one step at a time, so the
    # search stops at the same step, with the same factor, as a gcd per
    # step would.  Batches spanning whole stages often take in the cycles
    # of both factors, which makes that walk-back the common case.
    rng = random.Random(9)
    ns = [_next_prime(rng.randrange(1 << 10, 1 << 16)) * _next_prime(rng.randrange(1 << 10, 1 << 16))
          for _ in range(60)]
    answers = []
    for batch in (1, 3, 128, 1 << 16):
        monkeypatch.setattr(factor, "_RHO_BATCH", batch)
        answers.append([factor._pollard_rho(n) for n in ns])
    assert all(1 < d < n and n % d == 0 for d, n in zip(answers[0], ns))
    assert answers[1:] == answers[:1] * 3


def test_linear_factors_split_a_semiprime_coefficient():
    # (x - p)(x^7 - q) = x^8 - p x^7 - q x + p q: rho splits the 30-bit
    # trailing coefficient, and only the root p survives the search.
    p, q = _next_prime(3 << 13), _next_prime(7 << 12)
    assert (p * q).bit_length() == 30
    assert _divisors(p * q, 100) == [1, p, q, p * q]
    f = poly([(1, 8), (-p, 7), (-q, 1), (p * q, 0)])
    assert linear_rational_factors(f, random.Random(0)) == [(p, 1)]


def test_linear_factors_refuse_a_64_bit_semiprime(monkeypatch, tmp_path, capsys):
    # x^7 + p q with 64-bit primes: rho would need about 2^32 steps, so the
    # search stops at its step budget and names the coefficient.  The
    # library call runs under a smaller budget, the CLI under the real one.
    n = _next_prime(1 << 63) * _next_prime(3 << 62)
    f = poly([(1, 7), (n, 0)])
    with monkeypatch.context() as m:
        m.setattr(factor, "_RHO_STEPS", 1 << 10)
        with pytest.raises(BudgetError, match=f"coefficient {n} exceeds"):
            linear_rational_factors(f, random.Random(0))
    path = tmp_path / "f.sp"
    path.write_text(dumps(f))
    assert main(["roots-linear", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_linear_factors_zero_error():
    with pytest.raises(ZeroPolynomialError):
        linear_rational_factors(zero(ZZ, 1), random.Random(0))


def test_detect_power_square():
    f = poly([(1, 2), (2, 1), (1, 0)])
    report = detect_perfect_power(f, random.Random(0))
    assert report.k == 2
    assert certify_power(f, poly([(1, 1), (1, 0)]), 2)


def test_detect_power_degree_one():
    report = detect_perfect_power(poly([(1, 1), (2, 0)]), random.Random(1))
    assert report.k == 1
    assert report.confidence == 1.0


def test_detect_power_cube_of_sparse():
    g = poly([(1, 1000), (1, 1), (1, 0)])
    f = power(g, 3)
    report = detect_perfect_power(f, random.Random(2))
    assert report.k == 3
    assert certify_power(f, g, 3)
    assert not certify_power(f, g, 2)


def test_detect_power_prime_power_exponents():
    g = poly([(2, 7), (1, 0)])
    for k in (4, 8, 9, 12, 16):
        f = power(g, k)
        report = detect_perfect_power(f, random.Random(k))
        assert report.k == k, (k, report.k)


def test_detect_power_monomial():
    f = poly([(1, 64)])
    report = detect_perfect_power(f, random.Random(3))
    assert report.k == 64
    assert certify_power(f, poly([(1, 1)]), 64)


def test_detect_power_content_is_separated():
    g = poly([(1, 9), (3, 0)])
    f = power(g, 2)
    scaled = canonicalize([(6 * t.coeff, t.exps) for t in f.terms], 1, ZZ)
    report = detect_perfect_power(scaled, random.Random(4))
    assert report.k == 2  # content 6 is not part of the power structure


def test_detect_power_negative_controls():
    rng = random.Random(5)
    hits = 0
    for seed in range(25):
        gen = random.Random(1000 + seed)
        # even degree on purpose, so divisibility filters do not shortcut
        f = random_sparse_poly(gen, terms=6, degbits=6, coeff_bits=10)
        d = f.terms[-1].exps[0]
        if d % 2:
            f = canonicalize(
                [(t.coeff, (t.exps[0] + (0 if t.exps[0] != d else 1),)) for t in f.terms],
                1,
                ZZ,
            )
        if f.is_zero() or f.terms[-1].exps[0] == 0:
            continue
        report = detect_perfect_power(f, rng)
        if report.k != 1:
            # allowed only with the stated (tiny) probability; confirm exactly
            hits += 1
    assert hits == 0


def test_detect_power_square_times_squarefree_is_not_a_power():
    rng = random.Random(6)
    for seed in range(15):
        gen = random.Random(2000 + seed)
        g = random_sparse_poly(gen, terms=3, degbits=4, coeff_bits=4)
        h = poly([(1, 1), (1, 0)]) if seed % 2 else poly([(1, 3), (1, 1), (1, 0)])
        f, _ = mul_heap(power(g, 2), h)
        if f.is_zero() or f.terms[-1].exps[0] == 0:
            continue
        report = detect_perfect_power(f, rng)
        if report.k > 1:
            # only acceptable if f really is that power; confirm it is not
            assert False, f"seed {seed}: reported k={report.k}"


def test_certify_power_examples():
    f = poly([(1, 2), (2, 1), (1, 0)])
    assert certify_power(f, poly([(1, 1), (1, 0)]), 2)
    assert certify_power(f, f, 1)
    with pytest.raises(ValueError):
        certify_power(f, f, 0)


def test_certify_power_rejects_incompatible_operands():
    # x^2 in two variables against x in one, and x^2 over Z_7 against x
    # over Z, used to compare unequal and answer False.
    x = poly([(1, 1)])
    x2_bivariate = canonicalize([(1, (2, 0))], 2, ZZ)
    with pytest.raises(ArityError, match="^arities differ: 2 vs 1$"):
        certify_power(x2_bivariate, x, 2)
    with pytest.raises(RingMismatchError, match="^rings differ: "):
        certify_power(from_pairs(Zp(7), 1, [(1, 2)]), x, 2)
