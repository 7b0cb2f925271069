import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supersparse import (
    ArityError,
    BoundError,
    BudgetError,
    InterpConfig,
    InterpStats,
    ProbeCountingOracle,
    UnsupportedRingError,
    VerificationError,
    ZZ,
    Zp,
    berlekamp_massey,
    canonicalize,
    evaluate,
    evaluate_mod,
    find_roots_subgroup,
    find_smooth_prime,
    from_pairs,
    interpolate_early_termination,
    interpolate_integer,
    interpolate_multivariate,
    interpolate_prony,
    solve_transposed_vandermonde,
    verify,
    zero,
)
from supersparse import interp
from supersparse.bench import random_sparse_poly
from supersparse.dense import DensePoly


def gauss_solve_modp(matrix, rhs, p):
    """Dense Gaussian elimination over Z_p; returns the solution vector."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] % p != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], p - 2, p)
        m[col] = [v * inv % p for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def seq_from_roots(roots, coeffs, length, p):
    return [sum(c * pow(r, j, p) for c, r in zip(coeffs, roots)) % p for j in range(length)]


def test_bm_constant_sequence():
    lam = berlekamp_massey([2, 2, 2, 2], 97)
    assert list(lam.coeffs) == [96, 1]  # z - 1


def test_bm_zero_sequence():
    lam = berlekamp_massey([0, 0, 0, 0], 97)
    assert list(lam.coeffs) == [1]


def test_bm_two_term_polynomial():
    rng = random.Random(0)
    ctx = find_smooth_prime(64, 100, rng)
    p = ctx.p
    # evaluations of 3*x^5 + 2 at powers of omega
    seq = [(3 * pow(ctx.omega, 5 * j, p) + 2) % p for j in range(8)]
    lam = berlekamp_massey(seq, p)
    w5 = pow(ctx.omega, 5, p)
    # (z - 1)(z - w^5)
    expected = [w5 % p, (-1 - w5) % p, 1]
    assert list(lam.coeffs) == expected


def test_bm_annihilates_sequence():
    rng = random.Random(1)
    p = 10007
    for _ in range(40):
        t = rng.randrange(1, 6)
        roots = rng.sample(range(1, p), t)
        coeffs = [rng.randrange(1, p) for _ in range(t)]
        seq = seq_from_roots(roots, coeffs, 2 * t + 4, p)
        lam = berlekamp_massey(seq, p)
        L = len(lam.coeffs) - 1
        assert L <= t
        for i in range(len(seq) - L):
            acc = sum(lam.coeffs[j] * seq[i + j] for j in range(L + 1)) % p
            assert acc == 0


def brute_force_min_recurrence(seq, p):
    """Smallest L (with monic connection) generating seq; exhaustive check."""
    n = len(seq)
    for L in range(0, n + 1):
        if L == 0:
            if all(s % p == 0 for s in seq):
                return 0
            continue
        # try to solve for coefficients lam with seq[i+L] = -sum lam_j seq[i+j]
        rows = [[seq[i + j] for j in range(L)] for i in range(n - L)]
        rhs = [(-seq[i + L]) % p for i in range(n - L)]
        sol = _solve_least_consistent(rows, rhs, p)
        if sol is not None:
            return L
    return n


def _solve_least_consistent(rows, rhs, p):
    # Gaussian elimination allowing overdetermined consistent systems
    if not rows:
        return []
    ncols = len(rows[0])
    m = [row[:] + [r] for row, r in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                factor = m[i][c]
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][ncols] % p != 0:
            return None
    sol = [0] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncols]
    return sol


def test_bm_minimality_against_brute_force():
    rng = random.Random(42)
    p = 101
    for _ in range(150):
        n = rng.randrange(1, 9)
        seq = [rng.randrange(p) for _ in range(n)]
        lam = berlekamp_massey(seq, p)
        L = len(lam.coeffs) - 1
        assert L == brute_force_min_recurrence(seq, p)


def test_bm_matches_hankel_gauss():
    rng = random.Random(2)
    p = 10007
    for _ in range(60):
        t = rng.randrange(1, 9)
        roots = rng.sample(range(1, p), t)
        coeffs = [rng.randrange(1, p) for _ in range(t)]
        seq = seq_from_roots(roots, coeffs, 2 * t, p)
        lam = berlekamp_massey(seq, p)
        assert len(lam.coeffs) - 1 == t
        # explicit Hankel system for the monic recurrence
        matrix = [[seq[i + j] for j in range(t)] for i in range(t)]
        rhs = [(-seq[i + t]) % p for i in range(t)]
        low = gauss_solve_modp(matrix, rhs, p)
        assert list(lam.coeffs[:-1]) == low


def test_roots_subgroup_examples():
    rng = random.Random(3)
    ctx = find_smooth_prime(1 << 10, 2, rng)
    p = ctx.p
    F = Zp(p)
    lam = DensePoly(F, ((p - 1) % p, 1))  # z - 1
    assert find_roots_subgroup(lam, ctx, rng) == [1]
    a = pow(ctx.omega, 5, p)
    b = pow(ctx.omega, 9, p)
    lam2 = DensePoly(F, (a * b % p, (-(a + b)) % p, 1))
    assert sorted(find_roots_subgroup(lam2, ctx, rng)) == sorted([a, b])


def test_roots_subgroup_random_support():
    rng = random.Random(4)
    ctx = find_smooth_prime(1 << 16, 2, rng)
    p = ctx.p
    F = Zp(p)
    for _ in range(10):
        exps = rng.sample(range(1 << 16), 10)
        roots = [pow(ctx.omega, e, p) for e in exps]
        coeffs = [1]
        for r in roots:
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = (nxt[i + 1] + c) % p
                nxt[i] = (nxt[i] - c * r) % p
            coeffs = nxt
        lam = DensePoly(F, tuple(coeffs))
        got = find_roots_subgroup(lam, ctx, rng)
        assert sorted(got) == sorted(roots)
        for r in got:
            acc = sum(c * pow(r, j, p) for j, c in enumerate(coeffs)) % p
            assert acc == 0


def test_vandermonde_singleton():
    assert solve_transposed_vandermonde([5], [7], 97) == [7]


def test_vandermonde_constructed_pair():
    p = 97
    w = 5
    c1, c2 = 11, 23
    values = [(c1 + c2) % p, (c1 + c2 * w) % p]
    assert solve_transposed_vandermonde([1, w], values, p) == [c1, c2]


def test_vandermonde_matches_gauss():
    rng = random.Random(5)
    p = 10007
    for _ in range(60):
        t = rng.randrange(1, 9)
        roots = rng.sample(range(1, p), t)
        coeffs = [rng.randrange(0, p) for _ in range(t)]
        values = seq_from_roots(roots, coeffs, t, p)
        got = solve_transposed_vandermonde(roots, values, p)
        matrix = [[pow(r, j, p) for r in roots] for j in range(t)]
        want = gauss_solve_modp(matrix, values, p)
        assert got == want == [c % p for c in coeffs]


def test_vandermonde_duplicate_roots_rejected():
    with pytest.raises(ValueError):
        solve_transposed_vandermonde([3, 3], [1, 2], 97)
    with pytest.raises(ValueError, match="distinct"):
        solve_transposed_vandermonde([3, 100], [1, 2], 97)  # equal mod p


def test_prony_constant_oracle():
    rng = random.Random(6)
    ctx = find_smooth_prime(4, 100, rng)
    F = Zp(ctx.p)
    ref = from_pairs(F, 1, [(7, 0)])
    bb = ProbeCountingOracle.from_poly(ref)
    out = interpolate_prony(bb, ctx, InterpConfig(T=1, D=2, seed=0))
    assert out == ref
    assert bb.probes == 2


def test_prony_zero_oracle_probe_count():
    rng = random.Random(7)
    ctx = find_smooth_prime(16, 100, rng)
    F = Zp(ctx.p)
    bb = ProbeCountingOracle.from_poly(zero(F, 1))
    out = interpolate_prony(bb, ctx, InterpConfig(T=5, D=10, seed=0))
    assert out.is_zero()
    assert bb.probes == 10


def test_prony_round_trip_field():
    rng = random.Random(8)
    ctx = find_smooth_prime(1 << 40, 2, rng)
    F = Zp(ctx.p)
    for seed in range(5):
        gen = random.Random(seed)
        ref = random_sparse_poly(gen, terms=25, degbits=40, ring=F)
        bb = ProbeCountingOracle.from_poly(ref)
        stats = InterpStats()
        out = interpolate_prony(bb, ctx, InterpConfig(T=25, D=1 << 40, seed=seed), stats)
        assert out == ref
        assert stats.probes == 50
        assert stats.recurrence_degree == len(ref.terms)


def test_prony_exponent_bound_violation():
    rng = random.Random(9)
    ctx = find_smooth_prime(1 << 10, 2, rng)
    F = Zp(ctx.p)
    ref = from_pairs(F, 1, [(3, 900)])
    bb = ProbeCountingOracle.from_poly(ref)
    with pytest.raises(BoundError):
        interpolate_prony(bb, ctx, InterpConfig(T=2, D=8, seed=0))


def test_early_termination_probe_counts():
    rng = random.Random(10)
    ctx = find_smooth_prime(1 << 20, 2, rng)
    F = Zp(ctx.p)
    # zero oracle stops after the stability window alone
    bb = ProbeCountingOracle.from_poly(zero(F, 1))
    out = interpolate_early_termination(bb, ctx, InterpConfig(T=50, D=1 << 20, seed=0))
    assert out.is_zero() and bb.probes == 4
    # constant oracle: t = 1
    ref = from_pairs(F, 1, [(9, 0)])
    bb = ProbeCountingOracle.from_poly(ref)
    out = interpolate_early_termination(bb, ctx, InterpConfig(T=50, D=1 << 20, seed=0))
    assert out == ref and bb.probes <= 6
    # t = 3
    gen = random.Random(11)
    ref = random_sparse_poly(gen, terms=3, degbits=20, ring=F)
    bb = ProbeCountingOracle.from_poly(ref)
    out = interpolate_early_termination(bb, ctx, InterpConfig(T=100, D=1 << 20, seed=1))
    assert out == ref and bb.probes <= 10


@pytest.mark.parametrize("early, T, refused", [
    (False, 5, False), (False, 6, True), (True, 3, False), (True, 4, True),
])
def test_prony_refuses_a_T_past_the_probe_budget(monkeypatch, early, T, refused):
    # Under a budget of 10 probes: 2T probes plain, 2T + 4 under early termination.
    monkeypatch.setattr(interp, "_MAX_PROBES", 10)
    rng = random.Random(13)
    ctx = find_smooth_prime(1 << 20, 2, rng)
    ref = random_sparse_poly(rng, terms=2, degbits=20, ring=Zp(ctx.p))
    bb = ProbeCountingOracle.from_poly(ref)
    cfg = InterpConfig(T=T, D=1 << 20, early_termination=early, seed=0)
    if not refused:
        assert interpolate_prony(bb, ctx, cfg) == ref
        return
    with pytest.raises(BudgetError, match=f"T = {T} needs"):
        interpolate_prony(bb, ctx, cfg)
    assert bb.probes == 0


@pytest.mark.parametrize(
    "early, T, stopped",
    [(True, 16, True), (True, 4, False), (False, 16, False)],
    ids=["early-T=4t", "early-T=t", "plain"],
)
def test_early_stopped_reports_whether_probing_stopped_early(early, T, stopped):
    # With T = t the stability window ends exactly at the 2T + window cap,
    # so probing ran in full even though early termination was on.
    rng = random.Random(12)
    ctx = find_smooth_prime(1 << 20, 2, rng)
    ref = random_sparse_poly(rng, terms=4, degbits=20, ring=Zp(ctx.p))
    bb = ProbeCountingOracle.from_poly(ref)
    stats = InterpStats()
    cfg = InterpConfig(T=T, D=1 << 20, early_termination=early, seed=0)
    assert interpolate_prony(bb, ctx, cfg, stats) == ref
    assert stats.early_stopped == stopped


def test_integer_round_trip_with_crt():
    # small smooth prime forces coefficient recovery through extra primes
    ref = from_pairs(ZZ, 1, [(1, 1), (-(10 ** 9), 0)])
    bb = ProbeCountingOracle.from_poly(ref)
    cfg = InterpConfig(T=2, D=2, H=10 ** 9, seed=0, coeff_prime_bits=20)
    stats = InterpStats()
    out = interpolate_integer(bb, cfg, stats)
    assert out == ref
    assert len(stats.crt_primes) >= 3  # smooth prime plus >= 2 word-size primes


def test_integer_zero():
    bb = ProbeCountingOracle.from_poly(zero(ZZ, 1))
    out = interpolate_integer(bb, InterpConfig(T=3, D=16, H=5, seed=0))
    assert out.is_zero()
    assert bb.probes == 6


def test_integer_round_trip_large_heights():
    rng = random.Random(12)
    for seed in range(3):
        gen = random.Random(seed + 100)
        ref = random_sparse_poly(gen, terms=20, degbits=40, coeff_bits=100)
        bb = ProbeCountingOracle.from_poly(ref)
        cfg = InterpConfig(T=20, D=1 << 40, H=1 << 100, seed=seed)
        stats = InterpStats()
        out = interpolate_integer(bb, cfg, stats)
        assert out == ref
        assert len(stats.crt_primes) >= 2


def test_integer_boundary_height_and_degree():
    H = (1 << 40) - 1
    D = 1 << 10
    ref = from_pairs(ZZ, 1, [(H, D - 1), (-H, 0)])
    bb = ProbeCountingOracle.from_poly(ref)
    out = interpolate_integer(bb, InterpConfig(T=2, D=D, H=H, seed=5))
    assert out == ref


def test_integer_verification_probe():
    ref = from_pairs(ZZ, 1, [(5, 3), (1, 0)])
    bb = ProbeCountingOracle.from_poly(ref)
    cfg = InterpConfig(T=2, D=8, H=8, seed=1, verify_trials=2)
    out = interpolate_integer(bb, cfg)
    assert out == ref
    assert bb.probes == 4 + 2  # 2T support probes plus the verification probes


def test_multivariate_example():
    ref = from_pairs(ZZ, 2, [(1, (1, 0)), (1, (0, 2))])  # x + y^2
    bb = ProbeCountingOracle.from_poly(ref)
    cfg = InterpConfig(T=2, D=3, H=2, seed=0)
    out = interpolate_multivariate(bb, cfg, 2, 3)
    assert out == ref


def test_multivariate_univariate_degenerate():
    ref = from_pairs(ZZ, 1, [(4, 7), (-2, 0)])
    bb = ProbeCountingOracle.from_poly(ref)
    out = interpolate_multivariate(bb, InterpConfig(T=2, D=8, H=4, seed=0), 1, 8)
    assert out == ref


def test_multivariate_round_trip():
    for seed in range(3):
        gen = random.Random(200 + seed)
        ref = random_sparse_poly(gen, terms=12, degbits=16, nvars=4, coeff_bits=20)
        bb = ProbeCountingOracle.from_poly(ref)
        cfg = InterpConfig(T=12, D=1 << 16, H=1 << 20, seed=seed)
        out = interpolate_multivariate(bb, cfg, 4, 1 << 16)
        assert out == ref


def test_verify_accepts_and_rejects():
    rng = random.Random(13)
    p = 2 ** 31 - 1
    F = Zp(p)
    gen = random.Random(14)
    ref = random_sparse_poly(gen, terms=10, degbits=20, ring=F)
    bb = ProbeCountingOracle.from_poly(ref)
    assert verify(ref, bb, 5, rng)
    from supersparse import add

    wrong = add(ref, from_pairs(F, 1, [(1, 2)]))
    rejected = 0
    for seed in range(20):
        if not verify(wrong, bb, 3, random.Random(seed)):
            rejected += 1
    assert rejected == 20  # mismatch probability per trial is about D/p


def test_verify_integer_oracle():
    rng = random.Random(15)
    ref = from_pairs(ZZ, 1, [(3, 1 << 30), (-2, 5)])
    bb = ProbeCountingOracle.from_poly(ref)
    assert verify(ref, bb, 4, rng)
    wrong = from_pairs(ZZ, 1, [(3, 1 << 30), (-2, 5), (1, 0)])
    assert not verify(wrong, bb, 4, rng)


def test_verify_zero_against_zero():
    rng = random.Random(17)
    bb = ProbeCountingOracle.from_poly(zero(ZZ, 1))
    assert verify(zero(ZZ, 1), bb, 3, rng)


def test_roots_subgroup_rejects_outsider_root():
    from supersparse import NonSplitError

    rng = random.Random(18)
    ctx = find_smooth_prime(1 << 8, 2, rng)
    p = ctx.p
    # an element of odd order c > 1 lies outside the 2^k subgroup
    outsider = None
    for g in range(2, p):
        y = pow(g, 1 << ctx.k, p)
        if y != 1:
            outsider = y
            break
    assert outsider is not None
    lam = DensePoly(Zp(p), ((-outsider) % p, 1))
    with pytest.raises(NonSplitError):
        find_roots_subgroup(lam, ctx, rng)


def test_interp_too_small_T_names_the_term_bound():
    from supersparse import NonSplitError

    f = from_pairs(ZZ, 1, [(1, 3), (1, 0)])
    cfg = InterpConfig(T=1, D=4, H=1)
    with pytest.raises(NonSplitError, match=r"full degree T = 1, so .* more than T terms"):
        interpolate_integer(ProbeCountingOracle.from_poly(f), cfg)
    ctx = find_smooth_prime(4, 2, random.Random(3))
    fp = from_pairs(ctx.field(), 1, [(1, 3), (1, 0)])
    with pytest.raises(NonSplitError, match=r"raise --T$"):
        interpolate_prony(ProbeCountingOracle.from_poly(fp), ctx, InterpConfig(T=1, D=4))
    assert interpolate_integer(ProbeCountingOracle.from_poly(f), replace(cfg, T=2)) == f


def lam_from_exps(ctx, exps):
    """Monic prod(z - omega^e) over the exponents, as a DensePoly."""
    p = ctx.p
    coeffs = [1]
    for e in exps:
        r = pow(ctx.omega, e, p)
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - c * r) % p
        coeffs = nxt
    return DensePoly(Zp(p), tuple(coeffs))


def test_roots_subgroup_ignores_rng():
    ctx = find_smooth_prime(1 << 40, 2, random.Random(30))
    lam = lam_from_exps(ctx, random.Random(31).sample(range(1 << 40), 25))
    first = find_roots_subgroup(lam, ctx, random.Random(1))
    assert find_roots_subgroup(lam, ctx, random.Random(2)) == first
    assert find_roots_subgroup(lam, ctx) == first


def _ctx_60():
    return find_smooth_prime(1 << 60, 2, random.Random(32))


def _ctx_goldilocks():
    # p = 2^64 - 2^32 + 1 = (2^32 - 1) * 2^32 + 1: a 64-bit prime with k = 32.
    from supersparse.ring import context_from_prime

    ctx = context_from_prime(2**64 - 2**32 + 1, 1 << 32, random.Random(33))
    assert ctx.k == 32
    return ctx


def _shared_low_bits(ctx):
    rng = random.Random(34)
    low = rng.randrange(1 << 40)
    highs = rng.sample(range(1 << (ctx.k - 40)), 40)
    return [low | (h << 40) for h in highs]


@pytest.mark.parametrize(
    "make_ctx, make_exps",
    [
        (_ctx_60, _shared_low_bits),
        (_ctx_60, lambda ctx: [0, (1 << ctx.k) - 1]),
        (_ctx_60, lambda ctx: [(1 << ctx.k) - 1]),
        (_ctx_60, lambda ctx: [0]),
        (_ctx_60, lambda ctx: random.Random(35).sample(range(1 << ctx.k), 40)),
        (_ctx_goldilocks, lambda ctx: random.Random(36).sample(range(1 << 32), 40)),
        (_ctx_goldilocks, lambda ctx: [0, 1, (1 << 31), (1 << 32) - 1]),
        (_ctx_60, lambda ctx: [h << 8 for h in random.Random(41).sample(range(1 << 52), 40)]),
        (lambda: find_smooth_prime(1 << 8, 2, random.Random(42)),
         lambda ctx: random.Random(43).sample(range(1 << 8), 40)),
    ],
    ids=["low-40-bits-shared", "zero-and-top", "t1-top", "t1-zero", "random-40",
         "goldilocks-random-40", "goldilocks-extremes", "all-colliding-40", "k8-whole-subgroup-40"],
)
def test_roots_with_exponents_match_discrete_logs(make_ctx, make_exps):
    from supersparse.interp import _roots_with_exponents
    from supersparse.ring import discrete_log_pow2

    ctx = make_ctx()
    exps = make_exps(ctx)
    pairs = _roots_with_exponents(lam_from_exps(ctx, exps), ctx)
    assert sorted(e for e, _ in pairs) == sorted(exps)
    for e, r in pairs:
        assert discrete_log_pow2(ctx, r) == e
        assert pow(ctx.omega, e, ctx.p) == r


def test_roots_subgroup_rejects_zero_and_repeated_roots():
    from supersparse import NonSplitError

    ctx = find_smooth_prime(1 << 8, 2, random.Random(37))
    p = ctx.p
    # z * (z - 1): a zero root
    with pytest.raises(NonSplitError):
        find_roots_subgroup(DensePoly(Zp(p), (0, p - 1, 1)), ctx)
    # (z - omega)^2: a subgroup root, but not simple
    w = ctx.omega
    with pytest.raises(NonSplitError):
        find_roots_subgroup(DensePoly(Zp(p), (w * w % p, (-2 * w) % p, 1)), ctx)


def test_probe_counter_reference_reproducible():
    gen = random.Random(16)
    ref = random_sparse_poly(gen, terms=8, degbits=30, ring=Zp(97))
    bb1 = ProbeCountingOracle.from_poly(ref)
    bb2 = ProbeCountingOracle.from_poly(ref)
    pts = [(i,) for i in range(5)]
    assert [bb1.eval(q) for q in pts] == [bb2.eval(q) for q in pts]
    assert bb1.probes == bb2.probes == 5


def _function_oracle(f):
    """An oracle for f built from lambdas only: it is probed point by point."""
    if f.ring.is_field:
        return ProbeCountingOracle(f.ring, f.nvars, fn=lambda pt: evaluate(f, pt))
    return ProbeCountingOracle(
        f.ring,
        f.nvars,
        fn=lambda pt: evaluate(f, pt),
        modfn=lambda pt, p: evaluate_mod(f, pt, p),
    )


def test_stream_charges_one_probe_per_value_drawn():
    f = from_pairs(ZZ, 2, [(5, (3, 1)), (-2, (0, 4))])
    for bb in (ProbeCountingOracle.from_poly(f), _function_oracle(f)):
        values = bb.stream((3, 7), 101)
        assert bb.probes == 0
        drawn = [next(values) for _ in range(9)]
        assert bb.probes == 9
        assert drawn == [
            evaluate_mod(f, (pow(3, j, 101), pow(7, j, 101)), 101) for j in range(9)
        ]
    F = Zp(97)
    g = from_pairs(F, 1, [(4, 10), (1, 0)])
    for bb in (ProbeCountingOracle.from_poly(g), _function_oracle(g)):
        values = bb.stream((5,))
        drawn = [next(values) for _ in range(6)]
        assert bb.probes == 6
        assert drawn == [evaluate(g, (pow(5, j, 97),)) for j in range(6)]


def test_stream_field_oracle_rejects_another_modulus():
    g = from_pairs(Zp(97), 1, [(4, 10), (1, 0)])
    for bb in (ProbeCountingOracle.from_poly(g), _function_oracle(g)):
        with pytest.raises(UnsupportedRingError):
            bb.stream((5,), 101)
        with pytest.raises(UnsupportedRingError):
            bb.eval_at_mod((5,), 101)
        assert bb.probes == 0


def _same_run(ref, run):
    """run(oracle) on the reference oracle and on the function oracle."""
    fast = ProbeCountingOracle.from_poly(ref)
    slow = _function_oracle(ref)
    out_fast = run(fast)
    out_slow = run(slow)
    assert out_fast == out_slow == ref
    assert fast.probes == slow.probes
    return fast.probes


def test_stream_and_pointwise_oracles_agree_prony():
    ctx = find_smooth_prime(1 << 40, 2, random.Random(50))
    F = Zp(ctx.p)
    for seed in range(3):
        ref = random_sparse_poly(random.Random(seed), terms=20, degbits=40, ring=F)
        cfg = InterpConfig(T=25, D=1 << 40, seed=seed)
        assert _same_run(ref, lambda bb: interpolate_prony(bb, ctx, cfg)) == 50
        early = _same_run(ref, lambda bb: interpolate_early_termination(bb, ctx, cfg))
        assert early <= 2 * 20 + 4


def test_stream_and_pointwise_oracles_agree_integer_crt():
    ref = random_sparse_poly(random.Random(51), terms=15, degbits=40, coeff_bits=150)
    cfg = InterpConfig(T=15, D=1 << 40, H=1 << 150, seed=3)
    primes = []

    def run(bb):
        stats = InterpStats()
        out = interpolate_integer(bb, cfg, stats)
        primes.append(stats.crt_primes)
        return out

    assert _same_run(ref, run) == 30 + 2 * 15
    assert primes[0] == primes[1] and len(primes[0]) == 3


def test_stream_and_pointwise_oracles_agree_multivariate():
    D = 1 << 10
    ref = random_sparse_poly(random.Random(52), terms=12, degbits=10, nvars=3, coeff_bits=30)
    cfg = InterpConfig(T=12, D=D, H=1 << 30, seed=4)
    _same_run(ref, lambda bb: interpolate_multivariate(bb, cfg, 3, D))
    F = Zp(find_smooth_prime(D ** 3, 2, random.Random(53)).p)
    ref = random_sparse_poly(random.Random(54), terms=12, degbits=10, nvars=3, ring=F)
    cfg = InterpConfig(T=12, D=D, seed=5)
    assert _same_run(ref, lambda bb: interpolate_multivariate(bb, cfg, 3, D)) == 24


def test_stream_and_pointwise_oracles_agree_with_verification():
    ref = random_sparse_poly(random.Random(55), terms=10, degbits=30, coeff_bits=40)
    cfg = InterpConfig(T=10, D=1 << 30, H=1 << 40, seed=6, verify_trials=2)
    # 2T support probes, T at one coefficient prime, the verification probes
    assert _same_run(ref, lambda bb: interpolate_integer(bb, cfg)) == 20 + 10 + 2
    ctx = find_smooth_prime(1 << 30, 2, random.Random(56))
    ref = random_sparse_poly(random.Random(57), terms=10, degbits=30, ring=Zp(ctx.p))
    assert _same_run(ref, lambda bb: interpolate_prony(bb, ctx, cfg)) == 20 + 2


def test_multivariate_integer_crt_verifies_on_the_n_variate_oracle():
    D = 1 << 20
    ref = random_sparse_poly(random.Random(60), terms=12, degbits=20, nvars=3, coeff_bits=150)
    cfg = InterpConfig(T=12, D=D, H=1 << 150, seed=8, verify_trials=2)
    primes = []

    def run(bb):
        stats = InterpStats()
        out = interpolate_multivariate(bb, cfg, 3, D, stats)
        primes.append(stats.crt_primes)
        return out

    probes = _same_run(ref, run)
    assert primes[0] == primes[1] and len(primes[0]) >= 2
    # 2T support probes, T per further CRT prime, the verification probes
    assert probes == 2 * 12 + 12 * (len(primes[0]) - 1) + 2


def test_multivariate_field_with_verification_probe_count():
    D = 1 << 10
    F = Zp(find_smooth_prime(D ** 3, 2, random.Random(61)).p)
    ref = random_sparse_poly(random.Random(62), terms=12, degbits=10, nvars=3, ring=F)
    cfg = InterpConfig(T=12, D=D, seed=9, verify_trials=2)
    assert _same_run(ref, lambda bb: interpolate_multivariate(bb, cfg, 3, D)) == 2 * 12 + 2


@pytest.mark.parametrize("nvars", [1, 3])
@pytest.mark.parametrize("trials", [0, 2])
def test_prony_on_integer_oracle_returns_the_image_mod_p(nvars, trials):
    D = 1 << 10
    ctx = find_smooth_prime(D ** nvars, 2, random.Random(63))
    ref = random_sparse_poly(random.Random(64), terms=8, degbits=10, nvars=nvars, coeff_bits=100)
    image = canonicalize([(t.coeff, t.exps) for t in ref.terms], nvars, ctx.field())
    cfg = InterpConfig(T=8, D=D, seed=10, verify_trials=trials)
    for bb in (ProbeCountingOracle.from_poly(ref), _function_oracle(ref)):
        assert interpolate_prony(bb, ctx, cfg) == image
        assert bb.probes == 2 * 8 + trials


def test_multivariate_rejects_arity_mismatch():
    bb = ProbeCountingOracle.from_poly(from_pairs(ZZ, 2, [(1, (1, 0)), (1, (0, 2))]))
    for n in (1, 3):
        with pytest.raises(ArityError):
            interpolate_multivariate(bb, InterpConfig(T=2, D=3, H=2), n, 3)
    assert bb.probes == 0


@pytest.mark.parametrize("field", [False, True], ids=["Z", "Zp"])
def test_multivariate_verification_catches_kronecker_alias(field):
    # x^D breaks the per-variable bound and packs to the image of y; only
    # a check on the 2-variate oracle tells the two apart.
    D = 4
    ring = Zp(find_smooth_prime(D ** 2, 2, random.Random(65)).p) if field else ZZ
    bb = ProbeCountingOracle.from_poly(from_pairs(ring, 2, [(1, (D, 0))]))
    cfg = InterpConfig(T=1, D=D, H=None if field else 1, seed=11, verify_trials=2)
    with pytest.raises(VerificationError):
        interpolate_multivariate(bb, cfg, 2, D)


# ---------------------------------------------------------------------------
# The root stage: tangent Graeffe pass, residual descent.

def _graeffe_bits(ctx, t):
    """s, the number of low exponent bits the Graeffe pass reads for deg lam = t."""
    return min(ctx.k, (4 * t - 1).bit_length())


_STAGE_CTXS = {
    "k60": _ctx_60(),
    "goldilocks": _ctx_goldilocks(),
    "k8": find_smooth_prime(1 << 8, 2, random.Random(38)),
    "k4": find_smooth_prime(1 << 4, 2, random.Random(39)),
}


@st.composite
def _stage_cases(draw):
    """A context and a set of exponents of one of the shapes the pass treats apart."""
    ctx = _STAGE_CTXS[draw(st.sampled_from(sorted(_STAGE_CTXS)))]
    k = ctx.k
    t = draw(st.integers(1, min(40, 1 << k)))
    s = _graeffe_bits(ctx, t)
    shape = draw(st.sampled_from(["random", "shared-low", "all-colliding"]))
    if shape == "random" or s == k:
        exps = st.integers(0, (1 << k) - 1)
    elif shape == "shared-low":
        # Few low-bit classes, so most roots collide in the pass.
        lows = draw(st.lists(st.integers(0, (1 << s) - 1), min_size=1, max_size=3))
        exps = st.builds(lambda lo, hi: lo | hi << s, st.sampled_from(lows),
                         st.integers(0, (1 << (k - s)) - 1))
    else:
        exps = st.integers(0, (1 << (k - s)) - 1).map(lambda hi: hi << s)
    room = 1 << (k - s if shape == "all-colliding" and s < k else k)
    t = min(t, room)
    return ctx, draw(st.lists(exps, min_size=t, max_size=t, unique=True))


@settings(max_examples=120, deadline=None)
@given(_stage_cases())
def test_graeffe_stage_matches_descent_alone(case):
    from supersparse.interp import _descend, _roots_with_exponents

    ctx, exps = case
    lam = lam_from_exps(ctx, exps)
    stats = InterpStats()
    got = _roots_with_exponents(lam, ctx, stats)
    # The descent alone on all of lam, reading one exponent bit per step.
    alone = _descend(list(lam.coeffs), ctx, {1: 0, ctx.p - 1: 1})
    assert sorted(got) == sorted(alone) == sorted((e, pow(ctx.omega, e, ctx.p)) for e in exps)
    assert 0 <= stats.graeffe_roots <= len(exps)


def test_graeffe_roots_counts_the_pass():
    ctx = _ctx_60()
    rng = random.Random(40)
    s = _graeffe_bits(ctx, 40)
    spread = [lo | rng.randrange(1 << (60 - s)) << s for lo in rng.sample(range(1 << s), 40)]
    colliding = [hi << s for hi in rng.sample(range(1 << (60 - s)), 40)]
    for exps, want in ((spread, 40), (colliding, 0)):
        f = from_pairs(ctx.field(), 1, [(rng.randrange(1, ctx.p), e) for e in exps])
        stats = InterpStats()
        cfg = InterpConfig(T=40, D=1 << 60)
        assert interpolate_prony(ProbeCountingOracle.from_poly(f), ctx, cfg, stats) == f
        assert stats.graeffe_roots == want and stats.probes == 80


def _non_residue(p):
    return next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) != 1)


def _times(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


@pytest.mark.parametrize("name", ["k60", "k8"])
@pytest.mark.parametrize("bad", ["irreducible", "outsider", "repeated", "zero"])
def test_root_stage_rejections_keep_their_text(name, bad):
    from supersparse import NonSplitError

    ctx = _STAGE_CTXS[name]
    p, w = ctx.p, ctx.omega
    odd = pow(3, 1 << ctx.k, p)  # of odd order: outside the 2^k subgroup
    assert odd != 1
    factor = {
        "irreducible": [(-_non_residue(p)) % p, 0, 1],
        "outsider": [(-odd) % p, 1],
        "repeated": [w * w % p, (-2 * w) % p, 1],
        "zero": [0, 1],
    }[bad]
    text = "roots are not distinct subgroup elements"
    if bad == "zero":
        text = "recurrence polynomial vanishes at zero"
    # Alone, and beside roots the pass finds.
    split = list(lam_from_exps(ctx, [1, 2, 7]).coeffs)
    for coeffs in (factor, _times(factor, split, p)):
        with pytest.raises(NonSplitError, match=f"^{text}$"):
            find_roots_subgroup(DensePoly(Zp(p), tuple(coeffs)), ctx)
