"""Exact arithmetic, interpolation, and factorization for supersparse
polynomials in the distributed sparse representation."""

from .arith import (
    ArithStats,
    add,
    divides,
    divmod_heap,
    linear_divides_exact,
    mul,
    mul_heap,
    mul_kronecker,
    mul_naive,
    power,
    sub,
)
from .dense import DensePoly, OpCounter
from .errors import (
    ArityError,
    BoundError,
    BudgetError,
    FormatError,
    InexactDivisionError,
    NonSplitError,
    NotInSubgroupError,
    PrimeSearchError,
    RingMismatchError,
    SupersparseError,
    UnsupportedRingError,
    VerificationError,
    ZeroPolynomialError,
)
from .factor import (
    GapSplit,
    PowerReport,
    certify_power,
    content_and_primitive,
    detect_perfect_power,
    eval_at_pm_one,
    gap_split,
    linear_rational_factors,
)
from .interp import (
    InterpConfig,
    InterpStats,
    ProbeCountingOracle,
    berlekamp_massey,
    find_roots_subgroup,
    interpolate_early_termination,
    interpolate_integer,
    interpolate_multivariate,
    interpolate_prony,
    solve_transposed_vandermonde,
    verify,
)
from .poly import (
    SparsePoly,
    Term,
    canonicalize,
    constant,
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
    max_degree,
    to_dense,
    zero,
)
from .ring import (
    ZZ,
    RingSpec,
    SmoothPrimeContext,
    Zp,
    context_from_prime,
    discrete_log_pow2,
    find_smooth_prime,
    is_prime,
    pow_mod,
    qth_power_residue,
)

__version__ = "0.1.0"
