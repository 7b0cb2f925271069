"""Exact ArithStats of the heap, merge and naive kernels on fixed seeded inputs.

The counters are measured, not modeled, so a change to how a kernel walks
its heap or merges its terms shows up here even when the result is the
same.  Each case pins ring_ops, comparisons, peak_heap, pseudo_events,
out_terms and method.
"""

import random

import pytest

from supersparse import (
    ZZ,
    ArithStats,
    BudgetError,
    Zp,
    add,
    divmod_heap,
    from_pairs,
    mul_heap,
    mul_naive,
    sub,
)
from supersparse.bench import random_sparse_poly

P61 = Zp((1 << 61) - 1)


def _operands(seed, tf, tg, **kw):
    rng = random.Random(seed)
    return random_sparse_poly(rng, terms=tf, **kw), random_sparse_poly(rng, terms=tg, **kw)


def _poly(seed, terms, **kw):
    return random_sparse_poly(random.Random(seed), terms=terms, **kw)


def _with_lead(g, lead, exp):
    """g plus the term lead*x^exp, exp above every exponent of g."""
    return from_pairs(g.ring, 1, [(t.coeff, t.exps[0]) for t in g.terms] + [(lead, exp)])


def _mul_heap(seed, tf, tg, **kw):
    f, g = _operands(seed, tf, tg, **kw)
    stats = ArithStats()
    _, same = mul_heap(f, g, stats)
    assert same is stats
    return stats


def _divmod(f, g, **kw):
    stats = ArithStats()
    q, r, same = divmod_heap(f, g, stats=stats, **kw)
    assert same is stats
    return q, r, stats


def mul_1var_60bit():
    return _mul_heap(1, 40, 30, degbits=60)


def mul_3var_48bit():
    return _mul_heap(2, 25, 20, degbits=48, nvars=3)


def mul_zp61():
    return _mul_heap(3, 30, 30, degbits=40, ring=P61)


def mul_overlapping_12bit():
    return _mul_heap(4, 60, 50, degbits=12)


def divmod_exact():
    q, g = _operands(5, 20, 8, degbits=20)
    g = _with_lead(g, 1, 1 << 21)
    f, _ = mul_heap(q, g)
    quo, rem, stats = _divmod(f, g)
    assert quo == q and rem.is_zero()
    return stats


def divmod_remainder():
    f = _poly(6, 40, degbits=12, ring=Zp(101))
    g = _poly(60, 6, degbits=5, ring=Zp(101))
    _, rem, stats = _divmod(f, _with_lead(g, 7, 1 << 6))
    assert not rem.is_zero()
    return stats


def divmod_pseudo():
    f = _poly(7, 12, degbits=8)
    g = _poly(70, 3, degbits=3)
    return _divmod(f, _with_lead(g, 3, 8), pseudo=True)[2]


def divmod_budget_stop():
    f = from_pairs(ZZ, 1, [(1, 100_000), (5, 37), (-1, 0)])
    g = from_pairs(ZZ, 1, [(2, 3), (1, 1), (-1, 0)])
    stats = ArithStats()
    with pytest.raises(BudgetError):
        divmod_heap(f, g, pseudo=True, max_quotient_terms=50, stats=stats)
    return stats


def add_overlapping():
    f, g = _operands(8, 50, 40, degbits=3, nvars=2)
    stats = ArithStats()
    add(f, g, stats)
    return stats


def sub_overlapping():
    f, g = _operands(9, 50, 40, degbits=3, nvars=2)
    stats = ArithStats()
    sub(f, g, stats)
    return stats


def sub_self():
    f = _poly(10, 30, degbits=50)
    stats = ArithStats()
    assert sub(f, f, stats).is_zero()
    return stats


def naive_overlapping():
    f, g = _operands(11, 23, 17, degbits=9)
    stats = ArithStats()
    mul_naive(f, g, stats)
    return stats


def naive_zp61():
    f, g = _operands(12, 15, 12, degbits=30, nvars=2, ring=P61)
    stats = ArithStats()
    mul_naive(f, g, stats)
    return stats


# (ring_ops, comparisons, peak_heap, pseudo_events, out_terms, method)
PINNED = {
    mul_1var_60bit: (1200, 2400, 30, 0, 1200, 'heap'),
    mul_3var_48bit: (500, 1000, 20, 0, 500, 'heap'),
    mul_zp61: (900, 1800, 30, 0, 900, 'heap'),
    mul_overlapping_12bit: (3618, 4764, 50, 0, 2382, 'heap'),
    divmod_exact: (340, 320, 8, 0, 20, ''),
    divmod_remainder: (49816, 7856, 6, 0, 3888, ''),
    divmod_pseudo: (7240, 442, 3, 54, 222, ''),
    divmod_budget_stop: (870, 101, 2, 26, 0, ''),
    add_overlapping: (30, 60, 0, 0, 60, ''),
    sub_overlapping: (30, 60, 0, 0, 60, ''),
    sub_self: (30, 30, 0, 0, 0, ''),
    naive_overlapping: (455, 1527, 0, 0, 327, 'naive'),
    naive_zp61: (180, 587, 0, 0, 180, 'naive'),
}


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: c.__name__)
def test_counters_are_pinned(case):
    s = case()
    got = (s.ring_ops, s.comparisons, s.peak_heap, s.pseudo_events, s.out_terms, s.method)
    assert got == PINNED[case]
