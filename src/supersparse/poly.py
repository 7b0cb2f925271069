"""Sparse polynomials in distributed form.

A polynomial stores two flat columns of plain ints: its coefficients and,
in the same order, its exponents, term-major.  With n variables, term i's
exponents are flat_exps[i*n:(i+1)*n], so a univariate column is exactly
its exponents.  Zero coefficients are never stored and the zero
polynomial has empty columns, so a t-term polynomial stores exactly t
coefficients and t*n exponents, and no container per term.  Exponents are
arbitrary-precision naturals: degrees far beyond machine words are the
normal operating regime, and nothing here assumes an exponent fits in a
word.

Terms are ordered colexicographically (the last variable is most
significant).  That order coincides with ascending packed exponent under
the one-variable reduction map, so packing and unpacking are
order-preserving column maps rather than sorts.

Every bulk build goes through from_columns, which trusts its callers;
input from outside the package is checked where it enters.  The exponent
tuples (.exps) and the Term pairs (.terms) are views built on first read;
nothing else in the package reads them.

Variable names are not stored; only the arity is.  Naming belongs to the
file format.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, pairwise, repeat, starmap
from operator import itemgetter, lt, mod, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .dense import (
    DEFAULT_EVAL_BIT_BUDGET,
    NEG_INF,
    DensePoly,
    ModEngine,
    OpCounter,
    ZModEngine,
    sum_of_powers,
)
from .errors import (
    ArityError,
    BoundError,
    BudgetError,
    InexactDivisionError,
    RingMismatchError,
    UnsupportedRingError,
    ZeroPolynomialError,
)
from .ring import INTEGERS, PRIME_FIELD, RingSpec, pow_mod

DEFAULT_DENSE_BUDGET = 1 << 16
# Whether from_columns checks its columns: off, as its callers hand it
# canonical ones.  The test suite turns it on to catch a kernel that does not.
_CHECK_BUILDS = False
_LENGTHS_DIFFER = "coefficient and exponent columns differ in length"


class Term(NamedTuple):
    coeff: int
    exps: tuple[int, ...]


def from_columns(
    ring: RingSpec, nvars: int, coeffs: Iterable[int], flat_exps: Iterable[int]
) -> SparsePoly:
    """The polynomial with the given canonical coefficient and flat exponent columns.

    Every bulk build of terms goes through here; only nvars and the column
    lengths are checked (see _CHECK_BUILDS).
    """
    f = SparsePoly.__new__(SparsePoly)
    f._set_columns(ring, nvars, tuple(coeffs), tuple(flat_exps), _CHECK_BUILDS)
    return f


def from_terms(
    ring: RingSpec, nvars: int, coeffs: Iterable[int], exps: Iterable[tuple[int, ...]]
) -> SparsePoly:
    """from_columns on a column of exponent tuples, which it flattens.

    The columns are checked as from_columns checks them, the tuples'
    arity and natural exponents first.
    """
    coeffs = tuple(coeffs)
    exps = tuple(exps)
    if nvars >= 1 and len(coeffs) != len(exps):
        raise ValueError(_LENGTHS_DIFFER)
    return from_columns(ring, nvars, coeffs, _flatten(exps, nvars, _CHECK_BUILDS))


def _flatten(exps: Sequence[Sequence[int]], nvars: int, check: bool) -> tuple[int, ...]:
    """The flat column of exponent tuples; with check, after _check_exponents."""
    if check and nvars >= 1:  # a bad nvars is refused where the columns are stored
        _check_exponents(exps, nvars)
    return tuple(chain.from_iterable(exps))


def _term_rows(flat_exps: Sequence[int], nvars: int) -> Iterator[tuple[int, ...]]:
    """The exponent tuple of each term, in term order; no work per variable for zero."""
    return zip(*[iter(flat_exps)] * nvars) if flat_exps else iter(())


def _colex_keys(flat_exps: Sequence[int], nvars: int) -> Iterable:
    """Each term's colex sort key: the exponent itself for one variable,
    else the term's exponents last variable first."""
    if nvars == 1:
        return flat_exps
    return zip(*[flat_exps[v::nvars] for v in range(nvars - 1, -1, -1)])


def _exponent_columns(f: SparsePoly) -> list[Sequence[int]]:
    """Each variable's exponents, one column per variable; none for zero."""
    flat = f.flat_exps
    return [flat[v::f.nvars] for v in range(f.nvars)] if flat else []


def _interleave(columns: Sequence[Sequence[int]]) -> list[int]:
    """Equal-length columns interleaved term-major: term i's entries, one per column, in turn."""
    n = len(columns)
    flat = [0] * (n * len(columns[0]))
    for v, column in enumerate(columns):
        flat[v::n] = column
    return flat


def _ascending(flat_exps: Sequence[int], nvars: int) -> bool:
    if len(flat_exps) <= nvars:  # at most one term, and no work per variable
        return True
    return all(starmap(lt, pairwise(_colex_keys(flat_exps, nvars))))


@dataclass(frozen=True, init=False)
class SparsePoly:
    """Canonical sparse polynomial over a declared coefficient ring.

    coeffs[i] is the coefficient of the term whose exponents are
    flat_exps[i*nvars:(i+1)*nvars].  SparsePoly(ring, nvars, terms) takes
    (coeff, exps) pairs and checks that they are canonical; from_columns
    takes trusted columns.
    """

    ring: RingSpec
    nvars: int
    coeffs: tuple[int, ...]
    flat_exps: tuple[int, ...]

    def __init__(self, ring: RingSpec, nvars: int, terms: Iterable[Term] = ()):
        terms = tuple(terms)
        coeffs = tuple(map(itemgetter(0), terms))
        flat = _flatten(tuple(map(itemgetter(1), terms)), nvars, True)
        self._set_columns(ring, nvars, coeffs, flat, True)

    def _set_columns(self, ring: RingSpec, nvars: int, coeffs: tuple, flat_exps: tuple, check: bool):
        """Store the columns; with check, after one pass over them per rule."""
        if nvars < 1:
            raise ArityError("a polynomial needs at least one variable")
        if len(flat_exps) != nvars * len(coeffs):
            raise ValueError(_LENGTHS_DIFFER)
        if check:
            if flat_exps and min(flat_exps) < 0:
                raise ValueError("exponents must be natural numbers")
            if 0 in coeffs:
                raise ValueError("zero coefficient stored in canonical form")
            p = ring.modulus
            if p is not None and coeffs and not (0 < min(coeffs) and max(coeffs) < p):
                raise ValueError("coefficient not a canonical representative")
            if not _ascending(flat_exps, nvars):
                raise ValueError("terms not strictly ascending in canonical order")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "flat_exps", flat_exps)

    @cached_property
    def exps(self) -> tuple[tuple[int, ...], ...]:
        """The exponent tuple of each term, built on first read."""
        return tuple(_term_rows(self.flat_exps, self.nvars))

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """The terms as (coeff, exps) pairs, built on first read."""
        return tuple(starmap(Term, zip(self.coeffs, self.exps)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)


def zero(ring: RingSpec, nvars: int = 1) -> SparsePoly:
    return SparsePoly(ring, nvars)


def constant(ring: RingSpec, nvars: int, c: int) -> SparsePoly:
    return canonicalize([(c, (0,) * nvars)], nvars, ring)


def from_pairs(ring: RingSpec, nvars: int, pairs) -> SparsePoly:
    """Build a polynomial from (coeff, exponent-or-tuple) pairs."""
    return canonicalize(((c, (e,) if isinstance(e, int) else e) for c, e in pairs), nvars, ring)


def canonicalize(raw_terms: Iterable, nvars: int, ring: RingSpec) -> SparsePoly:
    """Sort, merge duplicate exponents, drop zeros.

    Input may be arbitrary (coeff, exps) pairs or Terms, in any order.
    Their exponents are checked here; canonicalize_columns does the rest.
    """
    terms = list(raw_terms)
    coeffs = tuple(map(itemgetter(0), terms))
    exps = tuple(map(tuple, map(itemgetter(1), terms)))
    del terms
    _check_exponents(exps, nvars)
    return canonicalize_columns(coeffs, _flatten(exps, nvars, False), nvars, ring)


def _check_exponents(exps: Sequence[tuple[int, ...]], nvars: int) -> None:
    """Raise unless every exponent tuple holds nvars natural numbers."""
    bad = next((i for i, e in enumerate(exps) if len(e) != nvars), len(exps))
    # The first fault in term order wins: a negative exponent before it too.
    if min(chain.from_iterable(islice(exps, bad)), default=0) < 0:
        raise ValueError("exponents must be natural numbers")
    if bad < len(exps):
        raise ArityError(f"exponent tuple {exps[bad]} does not have arity {nvars}")


def canonicalize_columns(
    coeffs: Sequence[int], flat_exps: Sequence[int], nvars: int, ring: RingSpec
) -> SparsePoly:
    """canonicalize on a coefficient column and the flat exponent column of its terms.

    The exponents must be nvars naturals per term, as the parser and
    canonicalize check.  Ascending input is neither sorted nor merged.
    """
    if not _ascending(flat_exps, nvars):
        sums: dict = {}
        for c, key in zip(coeffs, _colex_keys(flat_exps, nvars)):
            sums[key] = sums.get(key, 0) + c
        keys = sorted(sums)
        coeffs = tuple(map(sums.__getitem__, keys))
        # A colex key lists the term's exponents last variable first.
        flat_exps = keys if nvars == 1 else _interleave(list(zip(*keys))[::-1])
    if ring.modulus:
        coeffs = tuple(map(mod, coeffs, repeat(ring.modulus)))
    if 0 in coeffs:
        kept = coeffs if nvars == 1 else chain.from_iterable(zip(*[coeffs] * nvars))
        flat_exps = compress(flat_exps, kept)
        coeffs = filter(None, coeffs)
    return from_columns(ring, nvars, coeffs, flat_exps)


def degree(f: SparsePoly):
    """Top exponent of a univariate polynomial; -inf for zero."""
    if f.nvars != 1:
        raise ArityError("degree is a univariate query; use max_degree")
    if not f.flat_exps:
        return NEG_INF
    return f.flat_exps[-1]


def max_degree(f: SparsePoly):
    """Largest exponent of any variable in any term; -inf for zero."""
    return max(f.flat_exps, default=NEG_INF)


def height(f: SparsePoly) -> int:
    """Maximum coefficient magnitude over Z; 0 for the zero polynomial."""
    if f.ring.kind != INTEGERS:
        raise UnsupportedRingError("height is defined over Z only")
    return max(map(abs, f.coeffs), default=0)


def height_bits(f: SparsePoly) -> int:
    """Bit length of the height over Z, at least 1."""
    return max(1, height(f).bit_length())


def _coeff_sums_at_pm_one(f: SparsePoly) -> tuple[int, int]:
    # Signed coefficient sums: (f(1), f(-1)); -1 weights by parity of the
    # packed total exponent, which for one variable is just the exponent.
    plus = 0
    minus = 0
    for coeff, exps in zip(f.coeffs, _term_rows(f.flat_exps, f.nvars)):
        plus += coeff
        minus += coeff if sum(exps) % 2 == 0 else -coeff
    return plus, minus


def evaluate(f: SparsePoly, point: Sequence[int]) -> int:
    """Exact value of f at the given point.

    Over Z, evaluations whose result would exceed DEFAULT_EVAL_BIT_BUDGET
    bits are refused: with supersparse exponents and |x| > 1 the value is
    astronomically large, and nothing downstream ever needs it.
    """
    if len(point) != f.nvars:
        raise ArityError(f"point has arity {len(point)}, expected {f.nvars}")
    if f.ring.is_field:
        p = f.ring.modulus
        return sum(map(mul, f.coeffs, _term_values(f, point, p))) % p
    xbits = [abs(x).bit_length() if abs(x) > 1 else 0 for x in point]
    if any(xbits):
        for exps in _term_rows(f.flat_exps, f.nvars):
            if sum(e * b for e, b in zip(exps, xbits)) > DEFAULT_EVAL_BIT_BUDGET:
                raise BudgetError("integer evaluation would exceed the bit budget")
    total = 0
    for coeff, exps in zip(f.coeffs, _term_rows(f.flat_exps, f.nvars)):
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
    return sum(map(mul, f.coeffs, _term_values(f, point, p))) % p


def _term_values(f: SparsePoly, point: Sequence[int], p: int) -> list[int]:
    """prod_v point_v^(e_v) mod the prime p for every term of f, in term order."""
    ring = RingSpec(PRIME_FIELD, p)
    values = []
    for exps in _term_rows(f.flat_exps, f.nvars):
        v = 1
        for x, e in zip(point, exps):
            v = v * pow_mod(x, e, ring) % p
        values.append(v)
    return values


def geometric_stream(f: SparsePoly, bases: Sequence[int], p: int | None = None) -> Iterator[int]:
    """f(b_1^j, ..., b_n^j) for j = 0, 1, 2, ..., without end.

    Over a prime field p is None or the field's own modulus; an integer f
    is reduced mod the prime p.  Each term costs one pow_mod per variable
    up front and then one multiply per value, so m values cost
    O(t*(m + n*log e)) ring operations.
    """
    if len(bases) != f.nvars:
        raise ArityError(f"point has arity {len(bases)}, expected {f.nvars}")
    if f.ring.is_field:
        if p is not None and p != f.ring.modulus:
            raise UnsupportedRingError("a field polynomial takes no other modulus")
        p = f.ring.modulus
    elif p is None:
        raise UnsupportedRingError("an integer polynomial streams modulo a prime p")
    cur = [c % p for c in f.coeffs]
    return _geometric_values(cur, _term_values(f, bases, p), p)


def _geometric_values(cur: list[int], step: list[int], p: int) -> Iterator[int]:
    while True:
        yield sum(cur) % p
        cur = [c * r % p for c, r in zip(cur, step)]


def eval_geometric(f: SparsePoly, w: int, m: int) -> list[int]:
    """(f(w^0), ..., f(w^(m-1))) for univariate f over a prime field."""
    if f.nvars != 1:
        raise ArityError("eval_geometric is univariate")
    if not f.ring.is_field:
        raise UnsupportedRingError("eval_geometric requires a prime field")
    return list(islice(geometric_stream(f, (w,)), m))


def eval_mod(f: SparsePoly, h: DensePoly, g: DensePoly, ops: OpCounter | None = None) -> DensePoly:
    """f(h) mod g for univariate f, computed per term as c * (h^e mod g).

    Powers of h share one squaring chain, so the cost is polynomial in
    t, deg g and log(deg f), never in deg f itself.  Over Z the
    remainders must stay integral step by step, which holds for monic g;
    for non-monic g a reduction step that does not divide exactly raises
    UnsupportedRingError, and a remainder whose coefficients pass the
    bit budget raises BudgetError.
    """
    if f.nvars != 1:
        raise ArityError("eval_mod is univariate")
    for other in (h, g):
        if other.ring != f.ring:
            raise RingMismatchError(f"rings differ: {f.ring} vs {other.ring}")
    if g.is_zero():
        raise ZeroPolynomialError("modulus polynomial is zero")
    if not h.is_zero() and h.degree >= g.degree:
        raise BoundError("deg h must be below deg g")
    ring = f.ring
    if g.degree == 0 or not f.coeffs:
        return DensePoly(ring, ())
    if ring.is_field:
        engine = ModEngine(list(g.coeffs), ring.modulus, ops)
        acc = sum_of_powers(engine, list(h.coeffs), f.coeffs, f.flat_exps)
        return DensePoly(ring, tuple(engine.lower(acc)))
    try:
        acc = sum_of_powers(ZModEngine(list(g.coeffs), ops), list(h.coeffs), f.coeffs, f.flat_exps)
    except InexactDivisionError:
        raise UnsupportedRingError("non-integral remainder over Z") from None
    return DensePoly(ring, tuple(acc))


def pack_exponents(f: SparsePoly, bases: Sequence[int]) -> Sequence[int]:
    """Mixed-radix key of each term's exponents, in term order.

    The last variable is the most significant digit.  With every
    exponent of variable v below bases[v] the map is injective and
    increasing in the canonical order, so packing and unpacking are
    column maps rather than sorts.  One variable's keys are its exponent
    column itself; otherwise the keys are built one variable at a time
    over the whole column.
    """
    if len(bases) == 1:
        return f.flat_exps
    columns = _exponent_columns(f)
    keys = columns.pop() if columns else []
    for b, column in zip(bases[-2::-1], reversed(columns)):
        keys = [k * b + e for k, e in zip(keys, column)]
    return keys


def unpack_exponents(keys: Sequence[int], bases: Sequence[int]) -> Sequence[int]:
    """The flat exponent column of mixed-radix keys: the inverse of pack_exponents.

    One variable at a time over the whole key column: its exponents are
    the keys mod its base, and the keys go on divided by it.
    """
    if len(bases) == 1 or not keys:
        return keys
    columns = []
    for b in bases[:-1]:
        columns.append([k % b for k in keys])
        keys = [k // b for k in keys]
    columns.append(keys)
    return _interleave(columns)


def kronecker_pack(f: SparsePoly, bound: int) -> SparsePoly:
    """Map an n-variate polynomial to one variable by base-`bound` packing.

    Every per-variable exponent must be below the bound.  Term count and
    term order are preserved exactly.
    """
    if bound < 1:
        raise BoundError("packing bound must be positive")
    flat = f.flat_exps
    if flat and max(flat) >= bound:
        n = f.nvars
        first = next(i for i, e in enumerate(flat) if e >= bound) // n * n
        raise BoundError(f"exponent {max(flat[first:first + n])} is not below the bound {bound}")
    if f.nvars == 1:
        return f
    if not flat:
        return zero(f.ring)
    return from_columns(f.ring, 1, f.coeffs, pack_exponents(f, [bound] * f.nvars))


def kronecker_unpack(g: SparsePoly, bound: int, nvars: int) -> SparsePoly:
    """Inverse of kronecker_pack: base-`bound` digit expansion of exponents."""
    if g.nvars != 1:
        raise ArityError("kronecker_unpack expects a univariate polynomial")
    if nvars < 1:
        raise ArityError("nvars must be at least 1")
    if bound < 1:
        raise BoundError("packing bound must be positive")
    keys = g.flat_exps
    if not keys:
        return zero(g.ring, nvars)
    # bound**nvars >= 2**((b - 1)*nvars), b the bit length of bound: it is built
    # only for a top exponent at least that long, so it is at most twice as long.
    if keys[-1].bit_length() > (bound.bit_length() - 1) * nvars:
        first = bisect_left(keys, bound ** nvars)
        if first < len(keys):
            raise BoundError(f"exponent {keys[first]} is not below bound**nvars")
    return from_columns(g.ring, nvars, g.coeffs, unpack_exponents(keys, [bound] * nvars))


def shift(f: SparsePoly, by: int) -> SparsePoly:
    """f * x^by for univariate f; a negative `by` may not pass the lowest exponent."""
    if f.nvars != 1:
        raise ArityError("shift is univariate")
    if f.flat_exps and f.flat_exps[0] + by < 0:
        raise ValueError("exponents must be natural numbers")
    return from_columns(f.ring, 1, f.coeffs, _shifted(f.flat_exps, by))


def _shifted(exps: Iterable[int], by: int) -> list[int]:
    return [e + by for e in exps]


@dataclass(frozen=True)
class GapSplit:
    """f as a sum of shifted low-spread blocks separated by large gaps."""

    blocks: tuple[tuple[SparsePoly, int], ...]
    gap_threshold: int


def default_gap_threshold(f: SparsePoly) -> int:
    return max(64, height_bits(f))


def gap_split(f: SparsePoly, gamma: int) -> GapSplit:
    """Split at every exponent gap of at least gamma.

    Within a block consecutive gaps stay below gamma; blocks are stored
    with their shift stripped, so reassembly is sum(block * x^shift).
    """
    if f.nvars != 1:
        raise UnsupportedRingError("gap_split is univariate")
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    blocks = []
    start = 0
    exps = f.flat_exps
    for i in range(1, len(exps) + 1):
        if i == len(exps) or exps[i] - exps[i - 1] >= gamma:
            low = exps[start]
            block = from_columns(f.ring, 1, f.coeffs[start:i], _shifted(exps[start:i], -low))
            blocks.append((block, low))
            start = i
    return GapSplit(tuple(blocks), gamma)


def reassemble(split: GapSplit, ring: RingSpec, nvars: int = 1) -> SparsePoly:
    """sum(block * x^shift) over a gap split, checked: hand-made blocks may overlap."""
    coeffs = chain.from_iterable(block.coeffs for block, _ in split.blocks)
    exps = chain.from_iterable(_shifted(block.flat_exps, low) for block, low in split.blocks)
    return SparsePoly(ring, nvars, zip(coeffs, zip(exps)))


def to_dense(f: SparsePoly, *, budget: int | None = None) -> DensePoly:
    """Expand a univariate polynomial to a coefficient vector.

    Refused when the degree exceeds budget (DEFAULT_DENSE_BUDGET when
    None): that is exactly the supersparse regime where the expansion
    would not fit in memory.
    """
    if f.nvars != 1:
        raise ArityError("to_dense is univariate")
    limit = budget if budget is not None else DEFAULT_DENSE_BUDGET
    if not f.flat_exps:
        return DensePoly(f.ring, ())
    d = f.flat_exps[-1]
    if d > limit:
        raise BudgetError(f"degree {d} exceeds the dense budget {limit}")
    coeffs = [0] * (d + 1)
    for coeff, e in zip(f.coeffs, f.flat_exps):
        coeffs[e] = coeff
    return DensePoly(f.ring, tuple(coeffs))


def from_dense(d: DensePoly, nvars: int = 1) -> SparsePoly:
    """Sparse view of a dense polynomial (univariate)."""
    if nvars != 1:
        raise ArityError("from_dense produces univariate polynomials")
    exps = [e for e, c in enumerate(d.coeffs) if c != 0]
    return from_columns(d.ring, 1, filter(None, d.coeffs), exps)
