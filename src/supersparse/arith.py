"""Sparse arithmetic: merge addition, vector and heap multiplication, heap
division, divisibility testing, and powering.

mul forms all t_f * t_g products in numpy columns, one exponent column
per variable, int64 where words suffice and Python ints elsewhere, sorts
them by a one-word colex prefix and sums equal rows.  mul_heap and
divmod_heap key their heaps on packed exponents and chain entries with
equal keys, so the heap never holds more than one entry per term of the
smaller operand; that O(t) intermediate space is what makes the heap
usable on outputs with millions of terms, and mul_heap stays the counted
reference for mul.  Both heaps are heapq's, over the distinct pending
keys: a pending product whose key is already on the heap joins that key's
chain, and a new key is pushed.
add, sub and mul_naive combine sorted terms through one two-way merge,
_merge_keyed.

All operation counts reported in ArithStats are measured, not modeled:
ring_ops counts scalar multiplications and additions actually performed
(dense kernels account the classical scalar cost of their packed
equivalents), comparisons counts key comparisons in merges and, in a
heap kernel, one per push and one per pop (heapq sifts in C, where its
own comparisons cannot be counted; each sift is O(log heap) of them),
and peak_heap is the high-water mark of the heap.  A heap grows only
between pops, so its size is read once before each pop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress, zip_longest

import numpy as np

from .dense import _WORD_MAX, DEFAULT_EVAL_BIT_BUDGET, ModEngine, OpCounter, dp_divmod_z, sum_of_powers
from .errors import (
    ArityError,
    BudgetError,
    InexactDivisionError,
    RingMismatchError,
    ZeroPolynomialError,
)
from .poly import (
    DEFAULT_DENSE_BUDGET,
    SparsePoly,
    _coeff_sums_at_pm_one,
    _exponent_columns,
    constant,
    default_gap_threshold,
    degree,
    from_columns,
    gap_split,
    height_bits,
    pack_exponents,
    shift,
    to_dense,
    unpack_exponents,
    zero,
)
from .ring import random_prime


@dataclass
class ArithStats:
    """Operation counters for one arithmetic call.

    comparisons counts key comparisons in a merge, and one per push and
    one per pop in a heap kernel (mul_heap, divmod_heap).
    """

    ring_ops: int = 0
    comparisons: int = 0
    peak_heap: int = 0
    out_terms: int = 0
    pseudo_events: int = 0
    method: str = ""
    monte_carlo: bool = False


def _check_compat(f: SparsePoly, g: SparsePoly) -> None:
    if f.ring != g.ring:
        raise RingMismatchError(f"rings differ: {f.ring} vs {g.ring}")
    if f.nvars != g.nvars:
        raise ArityError(f"arities differ: {f.nvars} vs {g.nvars}")


# ---------------------------------------------------------------------------
# Exponent packing shared by the product-style operations.

def _pack_maps(f: SparsePoly, g: SparsePoly):
    """Packed exponent lists of two operands, and the bases that unpack them.

    Bases are sized so packed exponents add without digit carries, which
    keeps the packing additive: pack(e + e') = pack(e) + pack(e').  They
    come from the operands' exponent columns, so two zero operands get no
    bases and cost nothing per variable.
    """
    tops = zip_longest(_column_tops(f), _column_tops(g), fillvalue=0)
    bases = [a + b + 1 for a, b in tops]
    return pack_exponents(f, bases), pack_exponents(g, bases), bases


def _column_tops(f: SparsePoly) -> list[int]:
    """The largest exponent of each variable in f; empty for the zero polynomial."""
    return list(map(max, _exponent_columns(f)))


# ---------------------------------------------------------------------------
# Addition and subtraction: one linear merge.

def _merge_keyed(a: tuple, b: tuple, p: int | None) -> tuple[list, list, int, int]:
    """Merge two ascending (packed keys, coeffs) column pairs, adding equal keys' coefficients.

    Sums are reduced mod p when p is set, and zero sums drop out.  Returns
    the merged key and coefficient columns, the key comparisons and the
    additions made.
    """
    (ak, ac), (bk, bc) = a, b
    keys: list[int] = []
    coeffs: list[int] = []
    x = y = comps = adds = 0
    na, nb = len(ak), len(bk)
    while x < na and y < nb:
        ka = ak[x]
        kb = bk[y]
        comps += 1
        if ka < kb:
            keys.append(ka)
            coeffs.append(ac[x])
            x += 1
        elif kb < ka:
            keys.append(kb)
            coeffs.append(bc[y])
            y += 1
        else:
            s = ac[x] + bc[y]
            if p:
                s %= p
            adds += 1
            if s != 0:
                keys.append(ka)
                coeffs.append(s)
            x += 1
            y += 1
    keys += ak[x:]
    coeffs += ac[x:]
    keys += bk[y:]
    coeffs += bc[y:]
    return keys, coeffs, comps, adds


def add(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> SparsePoly:
    """f + g by one _merge_keyed pass over the packed terms."""
    return _merge(f, g, g.coeffs, stats)


def sub(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> SparsePoly:
    """f - g, merged as by add with g's coefficients negated up front."""
    return _merge(f, g, list(map(g.ring.neg, g.coeffs)), stats)


def _merge(f: SparsePoly, g: SparsePoly, gc, stats: ArithStats | None) -> SparsePoly:
    """f plus the terms of g with their coefficients replaced by gc."""
    _check_compat(f, g)
    pf, pg, bases = _pack_maps(f, g)
    keys, coeffs, comps, adds = _merge_keyed((pf, f.coeffs), (pg, gc), f.ring.modulus)
    if stats is not None:
        stats.comparisons += comps
        stats.ring_ops += adds
        stats.out_terms = len(coeffs)
    return from_columns(f.ring, f.nvars, coeffs, unpack_exponents(keys, bases))


# ---------------------------------------------------------------------------
# Multiplication.

def mul_naive(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> SparsePoly:
    """All t_f * t_g term products, combined by balanced pairwise merges.

    One row per term of f; rows merge through _merge_keyed, the loop that
    add and sub use.  No heap runs here, so this is an independent
    reference for mul_heap.
    """
    _check_compat(f, g)
    ring = f.ring
    if f.is_zero() or g.is_zero():
        return zero(ring, f.nvars)
    pf, pg, bases = _pack_maps(f, g)
    cg = g.coeffs
    p = ring.modulus
    rows = []
    for base, ci in zip(pf, f.coeffs):
        keys = [base + k for k in pg]
        rows.append((keys, [ci * c % p for c in cg] if p else [ci * c for c in cg]))
    adds = comps = 0
    while len(rows) > 1:
        nxt = []
        for i in range(0, len(rows) - 1, 2):
            keys, coeffs, c, a = _merge_keyed(rows[i], rows[i + 1], p)
            comps += c
            adds += a
            nxt.append((keys, coeffs))
        if len(rows) % 2:
            nxt.append(rows[-1])
        rows = nxt
    keys, coeffs = rows[0]
    if stats is not None:
        stats.ring_ops += len(pf) * len(pg) + adds
        stats.comparisons += comps
        stats.out_terms = len(coeffs)
        stats.method = "naive"
    return from_columns(ring, f.nvars, coeffs, unpack_exponents(keys, bases))


def mul_heap(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> tuple[SparsePoly, ArithStats]:
    """Heap multiplication with equal-key chaining.

    Streams one successor per extracted pair, seeded with (i, 0) for each
    term of the smaller operand, so the heap plus chain table never holds
    more than min(t_f, t_g) pending pairs.  Terms of the product are
    emitted in canonical order with like terms combined on extraction.
    comparisons counts one per push and one per pop; every key pushed is
    popped, so it is twice the pops.
    """
    _check_compat(f, g)
    if stats is None:
        stats = ArithStats()
    stats.method = "heap"
    ring = f.ring
    nv = f.nvars
    if f.is_zero() or g.is_zero():
        return zero(ring, nv), stats
    if len(f) > len(g):
        f, g = g, f
    pf, pg, bases = _pack_maps(f, g)
    cf = f.coeffs
    cg = g.coeffs
    tg = len(pg)
    p = ring.modulus
    # The seeds' keys ascend with pf, so their list is already a heap.
    pg0 = pg[0]
    heap = [e + pg0 for e in pf]
    chains = {key: [(i, 0)] for i, key in enumerate(heap)}
    peak = popped = 0
    out_c: list[int] = []
    out_k: list[int] = []
    while heap:
        if len(heap) > peak:
            peak = len(heap)
        top = heappop(heap)
        popped += 1
        acc = 0
        for i, j in chains.pop(top):
            acc += cf[i] * cg[j]
            j += 1
            if j < tg:
                key = pf[i] + pg[j]
                # The insert: a pending key's chain takes the pair, a new key
                # is pushed.  It is written out here and twice in divmod_heap,
                # since a helper call per push costs 7% of divmod_heap.
                chain = chains.setdefault(key, [])
                if not chain:
                    heappush(heap, key)
                chain.append((i, j))
        if p:
            acc %= p
        if acc != 0:
            out_c.append(acc)
            out_k.append(top)
    # One multiplication per pair, one addition per pair beyond a key's first.
    stats.ring_ops += 2 * len(pf) * tg - popped
    stats.comparisons += 2 * popped
    stats.peak_heap = max(stats.peak_heap, peak)
    stats.out_terms = len(out_c)
    return from_columns(ring, nv, out_c, unpack_exponents(out_k, bases)), stats


# Term pairs per numpy chunk of the product, over the n variables.  A
# chunk's int64 temporaries (exponent rows, products, prefix, order) take
# about 8·n + 32 bytes a pair, so this bounds them near 10 MiB whatever
# t_f * t_g is; the reduced chunks take 8·n + 8 bytes per distinct row.
_CHUNK_PAIRS = 1 << 18
# The same bound for a chunk with an object column, whose entries are
# Python ints of 30-60 bytes each on top of the 8-byte references.
_WIDE_CHUNK_PAIRS = 1 << 16


def _colex_prefix(rows, widths):
    """The int64 sort prefix of exponent rows: their top 63 bits in colex order.

    widths[v] bounds the bit length of column v.  The prefix packs the
    top bits of each column, the last first, until 63 bits are used, so it
    ascends weakly with the rows' colex order, and strictly when
    sum(widths) <= 63, since then it holds every bit.
    """
    prefix = None
    room = 63
    for v in reversed(range(len(widths))):
        take = min(widths[v], room)
        top = rows[:, v]
        if take < widths[v]:
            top = top >> (widths[v] - take)
        top = top.astype(np.int64, copy=False)
        # A whole last column is the prefix itself, with no copy.
        prefix = top if prefix is None else (prefix << take) | top
        room -= take
        if not room:
            break
    return prefix


def _combine_equal_rows(rows, vals, widths):
    """Sort exponent rows into colex order and sum the values of equal rows.

    Rows are sorted by their _colex_prefix.  When it drops bits, the rows
    whose prefix ties with a neighbour's are sorted again by all their
    bits, last column first; they keep the places the prefix gave them as
    a set, since the prefix ascends with the full key.
    """
    prefix = _colex_prefix(rows, widths)
    order = np.argsort(prefix)
    prefix = prefix[order]
    # One int64 column is its own prefix, so it is sorted already, and the
    # unsorted rows are freed for vals[order] to reuse.
    rows = prefix[:, None] if len(widths) == 1 and widths[0] <= 63 else rows.take(order, 0)
    vals = vals[order]
    step = np.concatenate(([True], prefix[1:] != prefix[:-1]))
    del prefix, order
    if sum(widths) > 63:
        tie = ~step
        at = np.flatnonzero(tie | np.append(tie[1:], False))
        sub = at[np.lexsort(rows.take(at, 0).T)]
        rows[at] = rows.take(sub, 0)
        vals[at] = vals[sub]
        # Rows that share a prefix are equal only if all their bits are.
        at = np.flatnonzero(tie)
        step[at] = (rows.take(at - 1, 0) != rows.take(at, 0)).any(axis=1)
    starts = np.flatnonzero(step)
    return rows.take(starts, 0), np.add.reduceat(vals, starts)


def mul(f: SparsePoly, g: SparsePoly, stats: ArithStats | None = None) -> SparsePoly:
    """f * g by one sort-and-reduce kernel over numpy columns.

    Exponents are an (N, n) matrix, one column per variable, int64 when
    each variable's largest exponents in f and g add to at most 2^63 - 1
    and object otherwise.  Coefficients are int64 when
    max|c_f| * max|c_g| * min(t_f, t_g) <= 2^63 - 1: an output term
    collects at most one product per term of the smaller operand, so every
    partial column sum fits.  Over Z_p the sums are reduced mod p once per
    term, at the end.  Rows of the smaller operand go in chunks of at most
    _CHUNK_PAIRS // n term pairs, or _WIDE_CHUNK_PAIRS // n when a column
    is object; each chunk is sorted by _combine_equal_rows and reduced,
    then the chunks are merged by one more sort and reduce.

    The product and ring_ops equal mul_heap's: t_f * t_g products plus one
    addition per product beyond the first of each term.  stats.method
    reads "word-vector" when every column is int64 and "wide-vector" when
    one is object; no heap runs, so comparisons and peak_heap stay 0.
    A zero operand goes to mul_heap, which returns zero at no cost.
    """
    _check_compat(f, g)
    if f.is_zero() or g.is_zero():
        return mul_heap(f, g, stats)[0]
    n = f.nvars
    tops = [a + b for a, b in zip(_column_tops(f), _column_tops(g))]
    widths = [top.bit_length() for top in tops]
    exp_type = object if max(tops) > _WORD_MAX else np.int64
    cf = f.coeffs
    cg = g.coeffs
    bound = max(map(abs, cf)) * max(map(abs, cg)) * min(len(cf), len(cg))
    val_type = object if bound > _WORD_MAX else np.int64
    wide = object in (exp_type, val_type)
    if len(cf) > len(cg):
        f, g, cf, cg = g, f, cg, cf
    ef = np.array(f.flat_exps, dtype=exp_type).reshape(-1, n)
    eg = np.array(g.flat_exps, dtype=exp_type).reshape(-1, n)
    vf = np.array(cf, dtype=val_type)
    vg = np.array(cg, dtype=val_type)
    cap = max(1, (_WIDE_CHUNK_PAIRS if wide else _CHUNK_PAIRS) // n)
    cols = min(len(cg), cap)
    step = cap // cols
    chunks = [
        _combine_equal_rows(
            (ef[r:r + step, None] + eg[None, c:c + cols]).reshape(-1, n),
            (vf[r:r + step, None] * vg[None, c:c + cols]).ravel(),
            widths,
        )
        for r in range(0, len(cf), step)
        for c in range(0, len(cg), cols)
    ]
    if len(chunks) == 1:
        rows, vals = chunks[0]
    else:
        rows, vals = _combine_equal_rows(
            np.concatenate([e for e, _ in chunks]), np.concatenate([v for _, v in chunks]), widths
        )
    del chunks, ef, eg, vf, vg
    ring = f.ring
    pairs = len(cf) * len(cg)
    distinct = len(vals)
    if ring.is_field:
        vals %= ring.modulus
    live = vals != 0
    out_e = rows.compress(live, 0).ravel().tolist()
    out_c = vals[live].tolist()
    del rows, vals, live
    if stats is not None:
        stats.ring_ops += 2 * pairs - distinct
        stats.out_terms = len(out_c)
        stats.method = "wide-vector" if wide else "word-vector"
    return from_columns(ring, n, out_c, out_e)


# f * g through one-variable exponent packing: mul's sort prefix is a
# Kronecker packing of each row's top bits, so this is the same function.
mul_kronecker = mul


# ---------------------------------------------------------------------------
# Division with remainder.

# The term budget of a result that could grow without bound: quotient terms
# of the CLI's divmod, term pairs of each product in power.
DEFAULT_TERM_BUDGET = 1_000_000


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
    result satisfies lead(g)^pseudo_events * f = q*g + r.  Each rescaling
    grows every live coefficient by lead(g)'s bits; past
    DEFAULT_EVAL_BIT_BUDGET bits of such growth in all, BudgetError.

    The heap holds at most one pending product per non-leading term of g,
    chained by key as in mul_heap.  comparisons counts one per push and
    one per pop.
    """
    _check_compat(f, g)
    if f.nvars != 1:
        raise ArityError("divmod_heap is univariate")
    if g.is_zero():
        raise ZeroPolynomialError("division by the zero polynomial")
    if stats is None:
        stats = ArithStats()
    ring = f.ring
    p = ring.modulus
    fe = f.flat_exps[::-1]
    fc = f.coeffs[::-1]
    nf = len(fe)
    dg = g.flat_exps[-1]
    lead = g.coeffs[-1]
    inv_lead = ring.inv(lead) if p else None
    # Keys are negated exponents, so the heap's least key is the largest
    # exponent: g's term m times quotient term l has key gre[m] - qe[l].
    gre = [-e for e in g.flat_exps[-2::-1]]
    grc = g.coeffs[-2::-1]
    heap: list[int] = []
    chains: dict[int, list] = {}
    waiting = list(range(len(gre)))
    qc: list[int] = []
    qe: list[int] = []
    rc: list[int] = []
    re_: list[int] = []
    fi = 0
    fscale = 1
    pops = peak = ops = grown = 0
    try:
        while fi < nf or heap:
            if len(heap) > peak:
                peak = len(heap)
            # Exponents are natural, so -1 stands below every term.
            e = -heap[0] if heap else -1
            acc = 0
            if fi < nf and fe[fi] >= e:
                e = fe[fi]
                acc = fc[fi]
                if fscale != 1:
                    acc *= fscale
                    ops += 1
                fi += 1
            if heap and heap[0] == -e:
                heappop(heap)
                pops += 1
                pairs = chains.pop(-e)
                ops += 2 * len(pairs)
                nq = len(qc)
                for m, l in pairs:
                    acc -= grc[m] * qc[l]
                    l += 1
                    if l < nq:
                        key = gre[m] - qe[l]
                        chain = chains.setdefault(key, [])
                        if not chain:
                            heappush(heap, key)
                        chain.append((m, l))
                    else:
                        waiting.append(m)
            if p:
                acc %= p
            if acc == 0:
                continue
            if e >= dg:
                if p:
                    qcoef = acc * inv_lead % p
                    ops += 1
                elif acc % lead == 0:
                    qcoef = acc // lead
                    ops += 1
                elif pseudo:
                    grown += lead.bit_length() * (len(qc) + len(rc))
                    if grown > DEFAULT_EVAL_BIT_BUDGET:
                        raise BudgetError("pseudo-division coefficient growth exceeds bit budget")
                    stats.pseudo_events += 1
                    fscale *= lead
                    qc = [c * lead for c in qc]
                    rc = [c * lead for c in rc]
                    ops += len(qc) + len(rc) + 1
                    qcoef = acc
                else:
                    raise InexactDivisionError(
                        f"{lead} does not divide {acc} at exponent {e}"
                    )
                if max_quotient_terms is not None and len(qc) >= max_quotient_terms:
                    raise BudgetError("quotient term budget exceeded")
                qc.append(qcoef)
                qe.append(e - dg)
                l = len(qc) - 1
                for m in waiting:
                    key = gre[m] - qe[l]
                    chain = chains.setdefault(key, [])
                    if not chain:
                        heappush(heap, key)
                    chain.append((m, l))
                waiting = []
            else:
                rc.append(acc)
                re_.append(e)
    finally:
        stats.ring_ops += ops
        # Every key put on the heap is popped or still on it.
        stats.comparisons += 2 * pops + len(heap)
        stats.peak_heap = max(stats.peak_heap, peak, len(heap))
    q = from_columns(ring, 1, reversed(qc), reversed(qe))
    r = from_columns(ring, 1, reversed(rc), reversed(re_))
    stats.out_terms = len(q) + len(r)
    return q, r, stats


# ---------------------------------------------------------------------------
# Divisibility.

def _divides_dense_field(coeffs, exps, gd, p: int, stats: ArithStats) -> bool:
    """Whether sum c_i * (x^{e_i} mod g) vanishes over Z_p, by one shared squaring chain.

    f comes as its columns, g (deg >= 1 mod p) as its dense coefficients;
    the ops are charged to stats, and the caller sets the method.
    """
    ops = OpCounter()
    engine = ModEngine(gd, p, ops)
    acc = sum_of_powers(engine, [0, 1], coeffs, exps)
    stats.ring_ops += ops.total
    return engine.is_zero(acc)


def _primitive(f: SparsePoly) -> tuple[int, SparsePoly]:
    """(content with the leading sign, primitive part with positive lead)."""
    c = math.gcd(*f.coeffs)
    if c == 0:
        return 0, f
    if f.coeffs[-1] < 0:
        c = -c
    return c, from_columns(f.ring, f.nvars, [x // c for x in f.coeffs], f.flat_exps)


def _linear_gap_threshold(span: int, denom: int, hbits: int) -> int:
    # Sufficient gap so any nonzero block value dominates the tail at a
    # rational root with denominator `denom` in lowest terms, |root| < 1:
    # gap > denom * (span*ln(denom) + ln(height*denom)).  bit_length
    # over-approximates ln, keeping the test in exact integers.
    dbits = max(1, denom.bit_length())
    return denom * (span * dbits + hbits + dbits + 2) + 1


# The fixed prime (Mersenne 2^61 - 1) for the block images below.
_IMAGE_PRIME = (1 << 61) - 1


def _block_value(coeffs: list[int], exps: list[int], a: int, b: int) -> int:
    """sum_j c_j * a^(e_j - e_0) * b^(e_top - e_j) over ascending exponents.

    Homogeneous Horner from the top term down: each gap costs one power
    of a and one of b, so the whole block costs powers of total size
    e_top - e_0 instead of two such powers per term.
    """
    value = coeffs[-1]
    bpow = 1
    for j in range(len(exps) - 2, -1, -1):
        gap = exps[j + 1] - exps[j]
        bpow *= b ** gap
        value = value * a ** gap + coeffs[j] * bpow
    return value


def _linear_divides_small_root(coeffs, exps, hbits: int, a: int, b: int) -> bool:
    """Exact test that (b*x - a) divides f, for |a| < b, gcd(a, b) = 1.

    f comes as its columns, exponents ascending, and hbits, the bit length
    of its height.

    Scans exponents upward; a gap beyond the dynamic threshold forces
    every factor with this root to divide both sides of the split, so f
    vanishes at a/b iff every block does.  Each block is first evaluated
    at a * b^-1 modulo the fixed prime _IMAGE_PRIME (when b is a unit
    there): the exact block value is congruent to b^span times that
    image, so a nonzero image proves a nonzero block and the answer is
    False.  Only a vanishing image leads to the exact evaluation, with
    span-sized integer arithmetic under DEFAULT_EVAL_BIT_BUDGET.  Every answer
    is exact.
    """
    q = _IMAGE_PRIME
    r = a * pow(b, -1, q) % q if b % q else None
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
        if r is not None:
            image = sum(coeffs[j] * pow(r, exps[j] - e0, q) for j in range(start, i + 1))
            if image % q:
                return False
        span = exps[i] - e0
        if span * max(1, max(abs(a), b).bit_length()) > DEFAULT_EVAL_BIT_BUDGET:
            raise BudgetError("linear-factor block evaluation exceeds bit budget")
        if _block_value(coeffs[start:i + 1], exps[start:i + 1], a, b) != 0:
            return False
        start = i + 1
    return True


def linear_divides_exact(f: SparsePoly, a: int, b: int) -> bool:
    """Exact divisibility of integer f by (b*x - a), gcd(a, b) = 1, b > 0.

    Roots of modulus one (a = +-b) reduce to signed coefficient sums; the
    rest go through the gap-split scan, on the reversed polynomial when
    |a| > b so the root seen by the scan has modulus below one.
    """
    if f.is_zero():
        return True
    if a == 0:
        return f.flat_exps[0] >= 1
    if abs(a) == b:
        plus, minus = _coeff_sums_at_pm_one(f)
        return (plus if a > 0 else minus) == 0
    exps = f.flat_exps
    hbits = height_bits(f)
    if abs(a) < b:
        return _linear_divides_small_root(f.coeffs, exps, hbits, a, b)
    # x = a/b root of f  <=>  x = b/a root of the reversal x^d f(1/x).
    rev = [exps[-1] - e for e in reversed(exps)]
    aa, bb = (b, a) if a > 0 else (-b, -a)
    return _linear_divides_small_root(f.coeffs[::-1], rev, hbits, aa, bb)


def _divides_integers(
    f: SparsePoly,
    g: SparsePoly,
    budget: int,
    rng: random.Random,
    stats: ArithStats,
    heap_term_budget: int,
) -> bool:
    """The divides ladder over Z; stats.method names the rung that decided.

    Rungs, in order: content, trailing power of x, unit divisor, linear
    divisor (exact).  The primitive divisor is expanded densely once, for
    every rung up to the heap; a divisor past the budget skips them all.
    Otherwise dense division comes next when deg f fits the budget.  Past
    that f is supersparse and is split once into gap blocks.  When the
    blocks' total degree fits the budget, the blocks are divided first
    and accept (gap-blocks) before any prime is drawn; otherwise three
    images mod random 61-bit primes (f's coefficient column reduced mod
    p) come first and reject (modular-screen), and the blocks follow.  A
    rejected request may thus be charged a failed block division as well
    as its images.  Last comes heap division within heap_term_budget
    quotient terms, strict like the dense rungs: g is primitive, so a
    step whose leading coefficient does not divide proves false (Gauss's
    lemma).  Past the term budget, every step so far having divided, the
    answer is the images' Monte Carlo true, or, when g was past the
    budget and no image ran, its BudgetError propagates.
    """
    cf, fp = _primitive(f)
    cg, gp = _primitive(g)
    if abs(cf) % abs(cg) != 0:
        stats.method = "content"
        return False
    vg = gp.flat_exps[0]
    vf = fp.flat_exps[0]
    if vg > vf:
        stats.method = "trailing-power"
        return False
    if vg:
        gp = shift(gp, -vg)
        fp = shift(fp, -vg)
    dgp = degree(gp)
    if dgp == 0:
        stats.method = "unit-divisor"
        return True
    if dgp == 1:
        stats.method = "linear-exact"
        return linear_divides_exact(fp, -gp.coeffs[0], gp.coeffs[-1])
    screened = dgp <= budget
    if screened:
        gd = to_dense(gp, budget=dgp).coeffs
        if degree(fp) <= budget:
            stats.method = "dense-exact"
            return _divides_dense_z_small(fp, gd, stats)
        # Both the block test and the images are sound, so their order
        # changes no verdict, only the cost.
        blocks = [block for block, _shift in gap_split(fp, default_gap_threshold(fp)).blocks]
        blocks_first = sum(degree(block) for block in blocks) <= budget
        if blocks_first and _blocks_divide(blocks, gd, budget, stats):
            stats.method = "gap-blocks"
            return True
        for _ in range(3):
            p = random_prime(rng, 61)
            if gd[-1] % p == 0:
                continue
            image = [c % p for c in fp.coeffs]  # terms that vanish mod p drop out
            exps = list(compress(fp.flat_exps, image))
            if not _divides_dense_field(list(filter(None, image)), exps, gd, p, stats):
                stats.method = "modular-screen"
                return False
        if not blocks_first and _blocks_divide(blocks, gd, budget, stats):
            stats.method = "gap-blocks"
            return True
    try:
        _, r, _ = divmod_heap(fp, gp, max_quotient_terms=heap_term_budget, stats=stats)
        divisible = r.is_zero()
    except InexactDivisionError:
        # gp is primitive, so a divisor leaves an integral quotient (Gauss's lemma).
        divisible = False
    except BudgetError:
        if not screened:
            raise
        stats.method = "modular-screen"
        stats.monte_carlo = True
        return True
    stats.method = "heap-divmod"
    return divisible


def _blocks_divide(blocks: list[SparsePoly], gd, budget: int, stats: ArithStats) -> bool:
    """Whether g, as its dense coefficients gd, divides every gap block within the budget.

    If so, g divides their sum f: the blocks are f's terms between gaps,
    each stripped of its power of x.  The test stops at the first block
    that fails, and charges the divisions it made to stats.
    """
    return all(
        degree(block) <= budget and _divides_dense_z_small(block, gd, stats) for block in blocks
    )


def _divides_dense_z_small(f: SparsePoly, gd, stats: ArithStats) -> bool:
    """Exact dense divisibility over Z by a primitive g (dense coefficients gd), charged to stats.

    By Gauss's lemma a primitive g divides f in Z[x] iff it does in
    Q[x], and then every quotient coefficient is an integer; so a
    leading coefficient that does not divide proves g does not divide f.
    """
    fd = to_dense(f, budget=degree(f))
    ops = OpCounter()
    try:
        return not dp_divmod_z(fd.coeffs, gd, ops)[1]
    except InexactDivisionError:
        return False
    finally:
        stats.ring_ops += ops.total


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

    The dense budget is dense_budget_terms, or DEFAULT_DENSE_BUDGET when
    None.  Over Z_p, when deg g is within it the test is a sum of
    c_i * (x^{e_i} mod g) by repeated squaring, whose operation count
    depends on log(deg f) but never deg f.  Beyond the budget it falls
    back to heap division and flags the quadratic path in stats; that
    division raises BudgetError past heap_term_budget quotient terms.

    Over Z exact certificates come first: content, trailing power,
    linear and dense rungs, then the gap blocks of f when together they
    fit the dense budget; g is expanded densely once for all of them.
    The same squaring-chain test modulo random primes (drawn from rng)
    only rejects.  One heap division ends the ladder: it is the exact
    fallback and, like every division the ladder runs, strict, since
    the primitive part of g leaves an integral quotient whenever it
    divides.  Past its term budget the verdict is flagged monte_carlo,
    or, for a divisor past the dense budget (which skips every dense
    rung and image), BudgetError propagates as over Z_p.
    See _divides_integers for the order.
    """
    _check_compat(f, g)
    if f.nvars != 1:
        raise ArityError("divides is univariate")
    if g.is_zero():
        raise ZeroPolynomialError("divisor is the zero polynomial")
    if stats is None:
        stats = ArithStats()
    if f.is_zero():
        stats.method = "zero-dividend"
        return True
    budget = dense_budget_terms if dense_budget_terms is not None else DEFAULT_DENSE_BUDGET
    if rng is None:
        rng = random.Random(0)
    if f.ring.is_field:
        dg = g.flat_exps[-1]
        if dg <= budget:
            if dg == 0:
                stats.method = "unit-divisor"
                return True
            stats.method = "dense-modpow"
            gd = to_dense(g, budget=dg).coeffs
            return _divides_dense_field(f.coeffs, f.flat_exps, gd, f.ring.modulus, stats)
        # No modular screen applies over Z_p, so past the quotient-term
        # budget there is no verdict: BudgetError propagates.
        _, r, _ = divmod_heap(f, g, max_quotient_terms=heap_term_budget, stats=stats)
        stats.method = "heap-divmod"
        return r.is_zero()
    return _divides_integers(f, g, budget, rng, stats, heap_term_budget)


# ---------------------------------------------------------------------------
# Powering.

def power(f: SparsePoly, k: int, *, term_budget: int = DEFAULT_TERM_BUDGET) -> SparsePoly:
    """f^k by binary powering over mul, with a term-count guard."""
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
                if len(result) * len(acc) > term_budget:
                    raise BudgetError("powering would exceed the term budget")
                result = mul(result, acc)
        k >>= 1
        if k:
            if len(acc) ** 2 > term_budget:
                raise BudgetError("powering would exceed the term budget")
            acc = mul(acc, acc)
    return result
