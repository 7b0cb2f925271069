"""Sparse polynomials in distributed form.

A polynomial is a sorted tuple of (coefficient, exponent-tuple) terms.
Zero coefficients are never stored and the zero polynomial is the empty
tuple, so a t-term polynomial stores exactly t coefficients and t*n
exponents.  Exponents are arbitrary-precision naturals: degrees far
beyond machine words are the normal operating regime, and nothing here
assumes an exponent fits in a word.

Terms are ordered colexicographically (the last variable is most
significant).  That order coincides with ascending packed exponent under
the one-variable reduction map, so packing and unpacking are
order-preserving term-by-term maps rather than sorts.

Variable names are not stored; only the arity is.  Naming belongs to the
file format.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .dense import NEG_INF, DensePoly, ModEngine, OpCounter, ZModEngine, sum_of_powers
from .errors import (
    ArityError,
    BoundError,
    BudgetError,
    InexactDivisionError,
    UnsupportedRingError,
    ZeroPolynomialError,
)
from .ring import INTEGERS, RingSpec, pow_mod

DENSE_BUDGET_ENV = "SUPERSPARSE_DENSE_BUDGET"
DEFAULT_DENSE_BUDGET = 1 << 16
DEFAULT_EVAL_BIT_BUDGET = 1 << 22


class Term(NamedTuple):
    coeff: int
    exps: tuple[int, ...]


def _colex_key(exps: tuple[int, ...]):
    return exps[::-1]


@dataclass(frozen=True)
class SparsePoly:
    """Canonical sorted term sequence over a declared coefficient ring."""

    ring: RingSpec
    nvars: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.nvars < 1:
            raise ArityError("a polynomial needs at least one variable")
        p = self.ring.modulus
        prev = None
        for term in self.terms:
            if len(term.exps) != self.nvars:
                raise ArityError(
                    f"exponent tuple {term.exps} does not have arity {self.nvars}"
                )
            if term.coeff == 0:
                raise ValueError("zero coefficient stored in canonical form")
            if p is not None and not 0 < term.coeff < p:
                raise ValueError("coefficient not a canonical representative")
            key = _colex_key(term.exps)
            if prev is not None and key <= prev:
                raise ValueError("terms not strictly ascending in canonical order")
            prev = key

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def leading(self) -> Term:
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        return self.terms[-1]

    def trailing(self) -> Term:
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no trailing term")
        return self.terms[0]


def zero(ring: RingSpec, nvars: int = 1) -> SparsePoly:
    return SparsePoly(ring, nvars, ())


def one(ring: RingSpec, nvars: int = 1) -> SparsePoly:
    return constant(ring, nvars, 1)


def constant(ring: RingSpec, nvars: int, c: int) -> SparsePoly:
    c = ring.normalize(c)
    if c == 0:
        return zero(ring, nvars)
    return SparsePoly(ring, nvars, (Term(c, (0,) * nvars),))


def monomial(ring: RingSpec, nvars: int, coeff: int, exps) -> SparsePoly:
    return canonicalize([(coeff, tuple(exps))], nvars, ring)


def from_pairs(ring: RingSpec, nvars: int, pairs) -> SparsePoly:
    """Build a polynomial from (coeff, exponent-or-tuple) pairs."""
    fixed = []
    for coeff, exps in pairs:
        if isinstance(exps, int):
            exps = (exps,)
        fixed.append((coeff, tuple(exps)))
    return canonicalize(fixed, nvars, ring)


def canonicalize(raw_terms: Iterable, nvars: int, ring: RingSpec) -> SparsePoly:
    """Sort, merge duplicate exponents, drop zeros.

    Input may be arbitrary (coeff, exps) pairs or Terms, in any order.
    """
    keyed = []
    for item in raw_terms:
        coeff, exps = item
        exps = tuple(exps)
        if len(exps) != nvars:
            raise ArityError(f"exponent tuple {exps} does not have arity {nvars}")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be natural numbers")
        keyed.append((_colex_key(exps), coeff, exps))
    keyed.sort(key=lambda kce: kce[0])
    merged: list[Term] = []
    i = 0
    while i < len(keyed):
        key, coeff, exps = keyed[i]
        i += 1
        while i < len(keyed) and keyed[i][0] == key:
            coeff += keyed[i][1]
            i += 1
        coeff = ring.normalize(coeff)
        if coeff != 0:
            merged.append(Term(coeff, exps))
    return SparsePoly(ring, nvars, tuple(merged))


def degree(f: SparsePoly):
    """Top exponent of a univariate polynomial; -inf for zero."""
    if f.nvars != 1:
        raise ArityError("degree is a univariate query; use max_degree")
    if not f.terms:
        return NEG_INF
    return f.terms[-1].exps[0]


def max_degree(f: SparsePoly):
    """Largest exponent of any variable in any term; -inf for zero."""
    if not f.terms:
        return NEG_INF
    return max(max(t.exps) for t in f.terms)


def height(f: SparsePoly) -> int:
    """Maximum coefficient magnitude over Z; 0 for the zero polynomial."""
    if f.ring.kind != INTEGERS:
        raise UnsupportedRingError("height is defined over Z only")
    return max((abs(t.coeff) for t in f.terms), default=0)


def neg(f: SparsePoly) -> SparsePoly:
    ring = f.ring
    return SparsePoly(
        f.ring, f.nvars, tuple(Term(ring.neg(t.coeff), t.exps) for t in f.terms)
    )


def scale(f: SparsePoly, s: int) -> SparsePoly:
    ring = f.ring
    s = ring.normalize(s)
    if s == 0:
        return zero(ring, f.nvars)
    return canonicalize([(ring.mul(t.coeff, s), t.exps) for t in f.terms], f.nvars, ring)


def _coeff_sums_at_pm_one(f: SparsePoly) -> tuple[int, int]:
    # Signed coefficient sums: (f(1), f(-1)); -1 weights by parity of the
    # packed total exponent, which for one variable is just the exponent.
    plus = 0
    minus = 0
    for coeff, exps in f.terms:
        plus += coeff
        minus += coeff if sum(exps) % 2 == 0 else -coeff
    return plus, minus


def evaluate(f: SparsePoly, point: Sequence[int], *, bit_budget: int = DEFAULT_EVAL_BIT_BUDGET) -> int:
    """Exact value of f at the given point.

    Over Z, evaluations whose result would exceed `bit_budget` bits are
    refused: with supersparse exponents and |x| > 1 the value is
    astronomically large, and nothing downstream ever needs it.
    """
    if len(point) != f.nvars:
        raise ArityError(f"point has arity {len(point)}, expected {f.nvars}")
    if f.ring.is_field:
        p = f.ring.modulus
        total = 0
        pt = [x % p for x in point]
        for coeff, exps in f.terms:
            v = coeff
            for x, e in zip(pt, exps):
                v = v * pow_mod(x, e, f.ring) % p
            total = (total + v) % p
        return total
    xbits = [abs(x).bit_length() if abs(x) > 1 else 0 for x in point]
    if any(xbits):
        for _, exps in f.terms:
            if sum(e * b for e, b in zip(exps, xbits)) > bit_budget:
                raise BudgetError("integer evaluation would exceed the bit budget")
    total = 0
    for coeff, exps in f.terms:
        v = coeff
        for x, e in zip(point, exps):
            if e:
                v *= x ** e
        total += v
    return total


def evaluate_mod(f: SparsePoly, point: Sequence[int], p: int) -> int:
    """Value of an integer polynomial at a point, reduced mod a prime p.

    p must be prime: exponents are reduced mod p - 1 (Fermat), which
    gives wrong values for a composite modulus.
    """
    if f.ring.kind != INTEGERS:
        raise UnsupportedRingError("evaluate_mod applies to integer polynomials")
    if len(point) != f.nvars:
        raise ArityError(f"point has arity {len(point)}, expected {f.nvars}")
    ring = RingSpec("Zp", p)
    total = 0
    for coeff, exps in f.terms:
        v = coeff % p
        for x, e in zip(point, exps):
            v = v * pow_mod(x, e, ring) % p
        total = (total + v) % p
    return total


def eval_geometric(f: SparsePoly, w: int, m: int) -> list[int]:
    """(f(w^0), ..., f(w^(m-1))) for univariate f over a prime field.

    Each term contributes through one exponent reduction and then one
    multiply per point, so the cost is O(t*(m + log e)) ring operations.
    """
    if f.nvars != 1:
        raise ArityError("eval_geometric is univariate")
    if not f.ring.is_field:
        raise UnsupportedRingError("eval_geometric requires a prime field")
    p = f.ring.modulus
    cur = [t.coeff for t in f.terms]
    step = [pow_mod(w, t.exps[0], f.ring) for t in f.terms]
    out = []
    for _ in range(m):
        out.append(sum(cur) % p)
        cur = [c * r % p for c, r in zip(cur, step)]
    return out


def eval_mod(f: SparsePoly, h: DensePoly, g: DensePoly, ops: OpCounter | None = None) -> DensePoly:
    """f(h) mod g for univariate f, computed per term as c * (h^e mod g).

    Powers of h share one squaring chain, so the cost is polynomial in
    t, deg g and log(deg f), never in deg f itself.  Over Z the
    remainders must stay integral step by step, which holds for monic g;
    for non-monic g a reduction step that does not divide exactly raises
    UnsupportedRingError.
    """
    if f.nvars != 1:
        raise ArityError("eval_mod is univariate")
    if g.is_zero():
        raise ZeroPolynomialError("modulus polynomial is zero")
    if not h.is_zero() and h.degree >= g.degree:
        raise BoundError("deg h must be below deg g")
    ring = f.ring
    if g.degree == 0 or not f.terms:
        return DensePoly(ring, ())
    terms = [(t.coeff, t.exps[0]) for t in f.terms]
    if ring.is_field:
        engine = ModEngine(list(g.coeffs), ring.modulus, ops)
        return DensePoly(ring, tuple(engine.lower(sum_of_powers(engine, list(h.coeffs), terms))))
    # Over Z the coefficients of h^e mod g can grow with e; callers are
    # expected to keep degrees and exponents modest here.
    try:
        acc = sum_of_powers(ZModEngine(list(g.coeffs), ops), list(h.coeffs), terms)
    except InexactDivisionError:
        raise UnsupportedRingError("non-integral remainder over Z") from None
    return DensePoly(ring, tuple(acc))


def _check_pack_bound(f: SparsePoly, bound: int) -> None:
    for t in f.terms:
        if any(e >= bound for e in t.exps):
            raise BoundError(f"exponent {max(t.exps)} is not below the bound {bound}")


def kronecker_pack(f: SparsePoly, bound: int) -> SparsePoly:
    """Map an n-variate polynomial to one variable by base-`bound` packing.

    Every per-variable exponent must be below the bound.  Term count and
    term order are preserved exactly.
    """
    if bound < 1:
        raise BoundError("packing bound must be positive")
    _check_pack_bound(f, bound)
    if f.nvars == 1:
        return f
    packed = []
    for coeff, exps in f.terms:
        key = 0
        for e in reversed(exps):
            key = key * bound + e
        packed.append(Term(coeff, (key,)))
    return SparsePoly(f.ring, 1, tuple(packed))


def kronecker_unpack(g: SparsePoly, bound: int, nvars: int) -> SparsePoly:
    """Inverse of kronecker_pack: base-`bound` digit expansion of exponents."""
    if g.nvars != 1:
        raise ArityError("kronecker_unpack expects a univariate polynomial")
    if nvars < 1:
        raise ArityError("nvars must be at least 1")
    limit = bound ** nvars
    out = []
    for coeff, (e,) in g.terms:
        if e >= limit:
            raise BoundError(f"exponent {e} is not below bound**nvars")
        digits = []
        rem = e
        for _ in range(nvars):
            digits.append(rem % bound)
            rem //= bound
        out.append(Term(coeff, tuple(digits)))
    return SparsePoly(g.ring, nvars, tuple(out))


def dense_budget() -> int:
    env = os.environ.get(DENSE_BUDGET_ENV)
    if env:
        return int(env)
    return DEFAULT_DENSE_BUDGET


def to_dense(f: SparsePoly, *, budget: int | None = None) -> DensePoly:
    """Expand a univariate polynomial to a coefficient vector.

    Refused when the degree exceeds the dense budget: that is exactly the
    supersparse regime where the expansion would not fit in memory.
    """
    if f.nvars != 1:
        raise ArityError("to_dense is univariate")
    limit = budget if budget is not None else dense_budget()
    if not f.terms:
        return DensePoly(f.ring, ())
    d = f.terms[-1].exps[0]
    if d > limit:
        raise BudgetError(f"degree {d} exceeds the dense budget {limit}")
    coeffs = [0] * (d + 1)
    for coeff, (e,) in f.terms:
        coeffs[e] = coeff
    return DensePoly(f.ring, tuple(coeffs))


def from_dense(d: DensePoly, nvars: int = 1) -> SparsePoly:
    """Sparse view of a dense polynomial (univariate)."""
    if nvars != 1:
        raise ArityError("from_dense produces univariate polynomials")
    terms = tuple(
        Term(c, (e,)) for e, c in enumerate(d.coeffs) if c != 0
    )
    return SparsePoly(d.ring, 1, terms)
