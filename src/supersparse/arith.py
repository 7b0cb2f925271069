"""Sparse arithmetic: merge addition, heap multiplication and division,
divisibility testing, and powering.

Multiplication and division key their heaps on packed exponents
(arbitrary-precision integers under the canonical order) and chain
entries with equal keys, so the heap never holds more than one entry per
term of the smaller operand.  That O(t) intermediate space, not the
asymptotic operation count, is what makes the heap algorithms usable on
outputs with millions of terms.

All operation counts reported in ArithStats are measured, not modeled:
ring_ops counts scalar multiplications and additions actually performed
(dense kernels account the classical scalar cost of their packed
equivalents), comparisons counts key comparisons in merges and heap
sifts, and peak_heap is the high-water mark of the heap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .dense import ModEngine, OpCounter, dp_divmod_z, sum_of_powers
from .errors import (
    ArityError,
    BudgetError,
    InexactDivisionError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .poly import (
    SparsePoly,
    Term,
    _coeff_sums_at_pm_one,
    canonicalize,
    constant,
    dense_budget,
    to_dense,
    zero,
)
from .ring import random_prime


@dataclass
class ArithStats:
    """Operation counters for one arithmetic call."""

    ring_ops: int = 0
    comparisons: int = 0
    peak_heap: int = 0
    out_terms: int = 0
    pseudo_events: int = 0
    method: str = ""
    monte_carlo: bool = False
    extra: dict = field(default_factory=dict)


def _check_compat(f: SparsePoly, g: SparsePoly) -> None:
    if f.ring != g.ring:
        raise RingMismatchError(f"rings differ: {f.ring} vs {g.ring}")
    if f.nvars != g.nvars:
        raise ArityError(f"arities differ: {f.nvars} vs {g.nvars}")


# ---------------------------------------------------------------------------
# Counting binary heap over integer keys.

def _hpush(h: list[int], key: int) -> int:
    comps = 0
    i = len(h)
    h.append(key)
    while i > 0:
        j = (i - 1) >> 1
        parent = h[j]
        comps += 1
        if key < parent:
            h[i] = parent
            i = j
        else:
            break
    h[i] = key
    return comps


def _hpop(h: list[int]) -> tuple[int, int]:
    last = h.pop()
    if not h:
        return last, 0
    root = h[0]
    comps = 0
    n = len(h)
    i = 0
    child = 1
    while child < n:
        right = child + 1
        if right < n:
            comps += 1
            if h[right] < h[child]:
                child = right
        comps += 1
        if h[child] < last:
            h[i] = h[child]
            i = child
            child = 2 * i + 1
        else:
            break
    h[i] = last
    return root, comps


# ---------------------------------------------------------------------------
# Exponent packing shared by the product-style operations.

def _pack_maps(f: SparsePoly, g: SparsePoly):
    """Packed exponent lists for both operands plus an unpacker.

    Bases are sized so packed exponents add without digit carries, which
    keeps the packing additive: pack(e + e') = pack(e) + pack(e').
    """
    nv = f.nvars
    if nv == 1:
        pf = [t.exps[0] for t in f.terms]
        pg = [t.exps[0] for t in g.terms]
        return pf, pg, None
    maxf = [0] * nv
    maxg = [0] * nv
    for t in f.terms:
        for v, e in enumerate(t.exps):
            if e > maxf[v]:
                maxf[v] = e
    for t in g.terms:
        for v, e in enumerate(t.exps):
            if e > maxg[v]:
                maxg[v] = e
    bases = [maxf[v] + maxg[v] + 1 for v in range(nv)]

    def pack(exps):
        key = 0
        for v in range(nv - 1, -1, -1):
            key = key * bases[v] + exps[v]
        return key

    def unpack(key):
        out = []
        for v in range(nv):
            key, e = divmod(key, bases[v])
            out.append(e)
        return tuple(out)

    pf = [pack(t.exps) for t in f.terms]
    pg = [pack(t.exps) for t in g.terms]
    return pf, pg, unpack


# ---------------------------------------------------------------------------
# Addition and subtraction: one linear merge.

def _merge(f: SparsePoly, g: SparsePoly, negate_g: bool, stats: ArithStats | None) -> SparsePoly:
    ring = f.ring
    ft, gt = f.terms, g.terms
    i = j = 0
    out = []
    comps = 0
    ops = 0
    while i < len(ft) and j < len(gt):
        ka = ft[i].exps[::-1]
        kb = gt[j].exps[::-1]
        comps += 1
        if ka < kb:
            out.append(ft[i])
            i += 1
        elif kb < ka:
            c = gt[j].coeff
            out.append(Term(ring.neg(c), gt[j].exps) if negate_g else gt[j])
            j += 1
        else:
            c = gt[j].coeff
            s = ring.sub(ft[i].coeff, c) if negate_g else ring.add(ft[i].coeff, c)
            ops += 1
            if s != 0:
                out.append(Term(s, ft[i].exps))
            i += 1
            j += 1
    out.extend(ft[i:])
    for t in gt[j:]:
        out.append(Term(ring.neg(t.coeff), t.exps) if negate_g else t)
    if stats is not None:
        stats.comparisons += comps
        stats.ring_ops += ops
        stats.out_terms = len(out)
    return SparsePoly(ring, f.nvars, tuple(out))


def add(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> SparsePoly:
    _check_compat(f, g)
    return _merge(f, g, False, stats)


def sub(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> SparsePoly:
    _check_compat(f, g)
    return _merge(f, g, True, stats)


# ---------------------------------------------------------------------------
# Multiplication.

def mul_naive(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> SparsePoly:
    """All t_f * t_g term products, combined by balanced pairwise merges."""
    _check_compat(f, g)
    ring = f.ring
    if not f.terms or not g.terms:
        return zero(ring, f.nvars)
    pf, pg, unpack = _pack_maps(f, g)
    cf = [t.coeff for t in f.terms]
    cg = [t.coeff for t in g.terms]
    is_field = ring.is_field
    p = ring.modulus
    muls = 0
    rows = []
    for i, base in enumerate(pf):
        ci = cf[i]
        if is_field:
            row = [(base + pg[j], ci * cg[j] % p) for j in range(len(pg))]
        else:
            row = [(base + pg[j], ci * cg[j]) for j in range(len(pg))]
        muls += len(pg)
        rows.append(row)
    adds = 0
    comps = 0
    while len(rows) > 1:
        nxt = []
        for i in range(0, len(rows) - 1, 2):
            a, b = rows[i], rows[i + 1]
            merged = []
            x = y = 0
            while x < len(a) and y < len(b):
                comps += 1
                if a[x][0] < b[y][0]:
                    merged.append(a[x])
                    x += 1
                elif b[y][0] < a[x][0]:
                    merged.append(b[y])
                    y += 1
                else:
                    s = (a[x][1] + b[y][1]) % p if is_field else a[x][1] + b[y][1]
                    adds += 1
                    if s != 0:
                        merged.append((a[x][0], s))
                    x += 1
                    y += 1
            merged.extend(a[x:])
            merged.extend(b[y:])
            nxt.append(merged)
        if len(rows) % 2:
            nxt.append(rows[-1])
        rows = nxt
    result = rows[0]
    if stats is not None:
        stats.ring_ops += muls + adds
        stats.comparisons += comps
        stats.out_terms = len(result)
    if unpack is None:
        terms = tuple(Term(c, (k,)) for k, c in result)
    else:
        terms = tuple(Term(c, unpack(k)) for k, c in result)
    return SparsePoly(ring, f.nvars, terms)


def mul_heap(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> tuple[SparsePoly, ArithStats]:
    """Heap multiplication with equal-key chaining.

    Streams one successor per extracted pair, seeded with (i, 0) for each
    term of the smaller operand, so the heap plus chain table never holds
    more than min(t_f, t_g) pending pairs.  Terms of the product are
    emitted in canonical order with like terms combined on extraction.
    """
    _check_compat(f, g)
    if stats is None:
        stats = ArithStats()
    ring = f.ring
    nv = f.nvars
    if not f.terms or not g.terms:
        return zero(ring, nv), stats
    if len(f.terms) > len(g.terms):
        f, g = g, f
    pf, pg, unpack = _pack_maps(f, g)
    cf = [t.coeff for t in f.terms]
    cg = [t.coeff for t in g.terms]
    tg = len(pg)
    is_field = ring.is_field
    p = ring.modulus
    heap: list[int] = []
    chains: dict[int, list] = {}
    comps = 0
    peak = 0
    pg0 = pg[0]
    for i in range(len(pf)):
        key = pf[i] + pg0
        chain = chains.get(key)
        if chain is None:
            chains[key] = [(i, 0)]
            comps += _hpush(heap, key)
        else:
            chain.append((i, 0))
    peak = len(heap)
    muls = 0
    adds = 0
    out_c: list[int] = []
    out_k: list[int] = []
    while heap:
        key, c0 = _hpop(heap)
        comps += c0
        pending = chains.pop(key)
        acc = 0
        first = True
        for i, j in pending:
            v = cf[i] * cg[j]
            muls += 1
            if first:
                acc = v
                first = False
            else:
                acc += v
                adds += 1
            j += 1
            if j < tg:
                k2 = pf[i] + pg[j]
                chain = chains.get(k2)
                if chain is None:
                    chains[k2] = [(i, j)]
                    comps += _hpush(heap, k2)
                    if len(heap) > peak:
                        peak = len(heap)
                else:
                    chain.append((i, j))
        if is_field:
            acc %= p
        if acc != 0:
            out_c.append(acc)
            out_k.append(key)
    stats.ring_ops += muls + adds
    stats.comparisons += comps
    stats.peak_heap = max(stats.peak_heap, peak)
    stats.out_terms = len(out_c)
    if unpack is None:
        terms = tuple(Term(c, (k,)) for c, k in zip(out_c, out_k))
    else:
        terms = tuple(Term(c, unpack(k)) for c, k in zip(out_c, out_k))
    return SparsePoly(ring, nv, terms), stats


def mul_kronecker(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> SparsePoly:
    """f * g through one-variable exponent packing.

    mul_heap already packs exponents order-preservingly, so this is
    mul_heap returning the product alone.
    """
    prod, _ = mul_heap(f, g, stats)
    return prod


# ---------------------------------------------------------------------------
# Division with remainder.

def divmod_heap(
    f: SparsePoly,
    g: SparsePoly,
    *,
    pseudo: bool = False,
    max_quotient_terms: int | None = None,
    stats: ArithStats | None = None,
) -> tuple[SparsePoly, SparsePoly, ArithStats]:
    """Heap division of univariate polynomials: f = q*g + r, deg r < deg g.

    Over a field every step divides; over Z a non-dividing leading
    coefficient raises InexactDivisionError unless pseudo=True, in which
    case all live state is rescaled by the leading coefficient and the
    result satisfies lead(g)^pseudo_events * f = q*g + r.

    The heap holds at most one pending product per non-leading term of g.
    """
    _check_compat(f, g)
    if f.nvars != 1:
        raise ArityError("divmod_heap is univariate")
    if not g.terms:
        raise ZeroPolynomialError("division by the zero polynomial")
    if stats is None:
        stats = ArithStats()
    ring = f.ring
    is_field = ring.is_field
    p = ring.modulus
    fe = [t.exps[0] for t in reversed(f.terms)]
    fc = [t.coeff for t in reversed(f.terms)]
    dg = g.terms[-1].exps[0]
    lead = g.terms[-1].coeff
    inv_lead = ring.inv(lead) if is_field else None
    gre = [t.exps[0] for t in reversed(g.terms[:-1])]
    grc = [t.coeff for t in reversed(g.terms[:-1])]
    nrest = len(gre)
    heap: list[int] = []
    chains: dict[int, list] = {}
    waiting = list(range(nrest))
    qc: list[int] = []
    qe: list[int] = []
    rc: list[int] = []
    re_: list[int] = []
    fi = 0
    fscale = 1
    comps = 0
    peak = 0
    muls = 0
    adds = 0
    nf = len(fe)
    while True:
        have_f = fi < nf
        have_h = bool(heap)
        if not have_f and not have_h:
            break
        if have_f and have_h:
            comps += 1
            top = -heap[0]
            e = fe[fi] if fe[fi] >= top else top
        elif have_f:
            e = fe[fi]
        else:
            e = -heap[0]
        acc = 0
        if have_f and fe[fi] == e:
            acc = fc[fi] if fscale == 1 else fc[fi] * fscale
            if fscale != 1:
                muls += 1
            fi += 1
        if have_h and -heap[0] == e:
            _, c0 = _hpop(heap)
            comps += c0
            pending = chains.pop(-e)
            for m, l in pending:
                acc -= grc[m] * qc[l]
                muls += 1
                adds += 1
                l += 1
                if l < len(qc):
                    k2 = qe[l] + gre[m]
                    chain = chains.get(-k2)
                    if chain is None:
                        chains[-k2] = [(m, l)]
                        comps += _hpush(heap, -k2)
                        if len(heap) > peak:
                            peak = len(heap)
                    else:
                        chain.append((m, l))
                else:
                    waiting.append(m)
        if is_field:
            acc %= p
        if acc == 0:
            continue
        if e >= dg:
            if is_field:
                qcoef = acc * inv_lead % p
                muls += 1
            elif acc % lead == 0:
                qcoef = acc // lead
                muls += 1
            elif pseudo:
                stats.pseudo_events += 1
                fscale *= lead
                for idx in range(len(qc)):
                    qc[idx] *= lead
                for idx in range(len(rc)):
                    rc[idx] *= lead
                muls += len(qc) + len(rc) + 1
                qcoef = acc
            else:
                raise InexactDivisionError(
                    f"{lead} does not divide {acc} at exponent {e}"
                )
            if max_quotient_terms is not None and len(qc) >= max_quotient_terms:
                raise BudgetError("quotient term budget exceeded")
            qc.append(qcoef)
            qe.append(e - dg)
            if nrest and waiting:
                l_new = len(qc) - 1
                for m in waiting:
                    k2 = qe[l_new] + gre[m]
                    chain = chains.get(-k2)
                    if chain is None:
                        chains[-k2] = [(m, l_new)]
                        comps += _hpush(heap, -k2)
                        if len(heap) > peak:
                            peak = len(heap)
                    else:
                        chain.append((m, l_new))
                waiting = []
        else:
            rc.append(acc)
            re_.append(e)
    stats.ring_ops += muls + adds
    stats.comparisons += comps
    stats.peak_heap = max(stats.peak_heap, peak)
    q = SparsePoly(ring, 1, tuple(Term(c, (e,)) for c, e in zip(reversed(qc), reversed(qe))))
    r = SparsePoly(ring, 1, tuple(Term(c, (e,)) for c, e in zip(reversed(rc), reversed(re_))))
    stats.out_terms = len(q.terms) + len(r.terms)
    return q, r, stats


# ---------------------------------------------------------------------------
# Divisibility.

def _divides_dense_field(f: SparsePoly, g: SparsePoly, stats: ArithStats) -> bool:
    """Sum of c_i * (x^{e_i} mod g) over Z_p, with one shared squaring chain."""
    ops = OpCounter()
    gd = to_dense(g, budget=max(int(g.terms[-1].exps[0]), 1))
    engine = ModEngine(list(gd.coeffs), f.ring.modulus, ops)
    if engine.deg == 0:
        stats.method = "unit-divisor"
        return True
    acc = sum_of_powers(engine, [0, 1], [(t.coeff, t.exps[0]) for t in f.terms])
    stats.ring_ops += ops.total
    stats.method = "dense-modpow"
    return engine.is_zero(acc)


def _divides_dense_field_modimage(f: SparsePoly, g: SparsePoly, p: int) -> bool:
    """Image of the dense fast path mod p for integer f, g (lead g nonzero mod p)."""
    from .ring import Zp

    fp = canonicalize([(t.coeff % p, t.exps) for t in f.terms], 1, Zp(p))
    gp = canonicalize([(t.coeff % p, t.exps) for t in g.terms], 1, Zp(p))
    return _divides_dense_field(fp, gp, ArithStats())


def _content(f: SparsePoly) -> int:
    import math

    c = 0
    for t in f.terms:
        c = math.gcd(c, t.coeff)
    return c


def _primitive(f: SparsePoly) -> tuple[int, SparsePoly]:
    """(content with the leading sign, primitive part with positive lead)."""
    c = _content(f)
    if c == 0:
        return 0, f
    if f.terms[-1].coeff < 0:
        c = -c
    prim = SparsePoly(f.ring, f.nvars, tuple(Term(t.coeff // c, t.exps) for t in f.terms))
    return c, prim


def _shift_down(f: SparsePoly, v: int) -> SparsePoly:
    return SparsePoly(f.ring, 1, tuple(Term(t.coeff, (t.exps[0] - v,)) for t in f.terms))


def _linear_gap_threshold(span: int, denom: int, hbits: int) -> int:
    # Sufficient gap so any nonzero block value dominates the tail at a
    # rational root with denominator `denom` in lowest terms, |root| < 1:
    # gap > denom * (span*ln(denom) + ln(height*denom)).  bit_length
    # over-approximates ln, keeping the test in exact integers.
    dbits = max(1, denom.bit_length())
    return denom * (span * dbits + hbits + dbits + 2) + 1


def _linear_divides_small_root(f: SparsePoly, a: int, b: int, bit_budget: int) -> bool:
    """Exact test that (b*x - a) divides f, for |a| < b, gcd(a, b) = 1.

    Scans exponents upward; a gap beyond the dynamic threshold forces
    every factor with this root to divide both sides of the split, so f
    vanishes at a/b iff every block does.  Blocks are evaluated exactly
    with span-sized integer arithmetic.
    """
    from .poly import height

    hbits = max(1, height(f).bit_length())
    exps = [t.exps[0] for t in f.terms]
    coeffs = [t.coeff for t in f.terms]
    start = 0
    n = len(exps)
    while start < n:
        e0 = exps[start]
        i = start
        while i + 1 < n:
            span = exps[i] - e0
            if exps[i + 1] - e0 >= _linear_gap_threshold(span, b, hbits):
                break
            i += 1
        span = exps[i] - e0
        if span * max(1, max(abs(a), b).bit_length()) > bit_budget:
            raise BudgetError("linear-factor block evaluation exceeds bit budget")
        value = 0
        for j in range(start, i + 1):
            d = exps[j] - e0
            value += coeffs[j] * a ** d * b ** (span - d)
        if value != 0:
            return False
        start = i + 1
    return True


def _reverse_poly(f: SparsePoly) -> SparsePoly:
    d = f.terms[-1].exps[0]
    return SparsePoly(
        f.ring, 1, tuple(Term(t.coeff, (d - t.exps[0],)) for t in reversed(f.terms))
    )


def linear_divides_exact(f: SparsePoly, a: int, b: int, *, bit_budget: int = 1 << 22) -> bool:
    """Exact divisibility of integer f by (b*x - a), gcd(a, b) = 1, b > 0.

    Roots of modulus one (a = +-b) reduce to signed coefficient sums; the
    rest go through the gap-split scan, on the reversed polynomial when
    |a| > b so the root seen by the scan has modulus below one.
    """
    if f.is_zero():
        return True
    if a == 0:
        return f.terms[0].exps[0] >= 1
    if abs(a) == b:
        plus, minus = _coeff_sums_at_pm_one(f)
        return (plus if a > 0 else minus) == 0
    if abs(a) < b:
        return _linear_divides_small_root(f, a, b, bit_budget)
    rev = _reverse_poly(f)
    # x = a/b root of f  <=>  x = b/a root of reverse(f).
    aa, bb = (b, a) if a > 0 else (-b, -a)
    return _linear_divides_small_root(rev, aa, bb, bit_budget)


def _divides_integers(
    f: SparsePoly,
    g: SparsePoly,
    budget: int,
    rng: random.Random,
    stats: ArithStats,
    heap_term_budget: int,
) -> bool:
    from .poly import degree

    cf, fp = _primitive(f)
    cg, gp = _primitive(g)
    if abs(cf) % abs(cg) != 0:
        stats.method = "content"
        return False
    vg = gp.terms[0].exps[0]
    vf = fp.terms[0].exps[0]
    if vg > vf:
        stats.method = "trailing-power"
        return False
    if vg:
        gp = _shift_down(gp, vg)
        fp = _shift_down(fp, vg)
    dgp = degree(gp)
    if dgp == 0:
        stats.method = "unit-divisor"
        return True
    if dgp == 1:
        b = gp.terms[-1].coeff
        a = -gp.terms[0].coeff if gp.terms[0].exps[0] == 0 else 0
        stats.method = "linear-exact"
        return linear_divides_exact(fp, a, b)
    if degree(fp) <= budget:
        stats.method = "dense-exact"
        return _divides_dense_z_small(fp, gp)
    # Supersparse dividend: sound rejection by modular images, sound
    # acceptance when every gap block divides; the heap division is the
    # exact fallback, abandoned past the term budget.
    for _ in range(3):
        p = random_prime(rng, 61)
        if gp.terms[-1].coeff % p == 0:
            continue
        if not _divides_dense_field_modimage(fp, gp, p):
            stats.method = "modular-screen"
            return False
    from .factor import gap_split

    split = gap_split(fp, max(64, _height_bits(fp)))
    all_blocks = True
    for block, _shift in split.blocks:
        if degree(block) > budget or not _divides_dense_z_small(block, gp):
            all_blocks = False
            break
    if all_blocks:
        stats.method = "gap-blocks"
        return True
    try:
        _, r, _ = divmod_heap(fp, gp, pseudo=True, max_quotient_terms=heap_term_budget)
        stats.method = "heap-divmod"
        return r.is_zero()
    except BudgetError:
        stats.method = "modular-screen"
        stats.monte_carlo = True
        return True


def _height_bits(f: SparsePoly) -> int:
    from .poly import height

    return max(1, height(f).bit_length())


def _divides_dense_z_small(f: SparsePoly, g: SparsePoly) -> bool:
    """Exact dense divisibility over Z by a primitive g.

    By Gauss's lemma a primitive g divides f in Z[x] iff it does in
    Q[x], and then every quotient coefficient is an integer; so a
    leading coefficient that does not divide proves g does not divide f.
    """
    from .poly import degree

    fd = to_dense(f, budget=degree(f))
    gd = to_dense(g, budget=degree(g))
    try:
        _, r = dp_divmod_z(fd.coeffs, gd.coeffs)
    except InexactDivisionError:
        return False
    return not r


def divides(
    f: SparsePoly,
    g: SparsePoly,
    *,
    dense_budget_terms: int | None = None,
    rng: random.Random | None = None,
    heap_term_budget: int = 200_000,
    stats: ArithStats | None = None,
) -> bool:
    """Whether g divides f exactly.

    When deg g is within the dense budget the test is a sum of
    c_i * (x^{e_i} mod g) by repeated squaring, whose operation count
    depends on log(deg f) but never deg f.  Beyond the budget it falls
    back to heap division and flags the quadratic path in stats; over
    Z_p that division raises BudgetError past heap_term_budget quotient
    terms.
    """
    _check_compat(f, g)
    if f.nvars != 1:
        raise ArityError("divides is univariate")
    if not g.terms:
        raise ZeroPolynomialError("divisor is the zero polynomial")
    if stats is None:
        stats = ArithStats()
    if not f.terms:
        stats.method = "zero-dividend"
        return True
    budget = dense_budget_terms if dense_budget_terms is not None else dense_budget()
    if rng is None:
        rng = random.Random(0)
    if f.ring.is_field:
        dg = g.terms[-1].exps[0]
        if dg <= budget:
            return _divides_dense_field(f, g, stats)
        # No modular screen applies over Z_p, so past the quotient-term
        # budget there is no verdict: BudgetError propagates.
        _, r, _ = divmod_heap(f, g, max_quotient_terms=heap_term_budget, stats=stats)
        stats.method = "heap-divmod"
        return r.is_zero()
    return _divides_integers(f, g, budget, rng, stats, heap_term_budget)


# ---------------------------------------------------------------------------
# Powering.

def power(f: SparsePoly, k: int, *, term_budget: int = 1_000_000) -> SparsePoly:
    """f^k by binary powering over mul_heap, with a term-count guard."""
    if k < 0:
        raise ValueError("exponent must be a natural number")
    if k == 0:
        return constant(f.ring, f.nvars, 1)
    result = None
    acc = f
    while k:
        if k & 1:
            if result is None:
                result = acc
            else:
                if len(result.terms) * len(acc.terms) > term_budget:
                    raise BudgetError("powering would exceed the term budget")
                result, _ = mul_heap(result, acc)
        k >>= 1
        if k:
            if len(acc.terms) ** 2 > term_budget:
                raise BudgetError("powering would exceed the term budget")
            acc, _ = mul_heap(acc, acc)
    return result
