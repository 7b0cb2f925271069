"""Command-line surface.

Every subcommand is a thin adapter over the library; no algebra happens
here.  Exit codes: 0 success, 1 domain error (one-line diagnostic on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import arith, bench, factor, interp, polyfile
from .dense import OpCounter
from .errors import BoundError, SupersparseError
from .poly import (
    DEFAULT_DENSE_BUDGET,
    SparsePoly,
    eval_mod,
    evaluate,
    evaluate_mod,
    from_dense,
    height,
    kronecker_pack,
    kronecker_unpack,
    max_degree,
    to_dense,
)
from .ring import is_prime


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _natural_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number: {text}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1: {text}")
    return value


def _prime(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"not a prime: {text}")
    return value


def _point(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _emit_poly(f: SparsePoly, out: str | None) -> None:
    if out:
        polyfile.dump(f, out)
    else:
        sys.stdout.write(polyfile.dumps(f))


def _emit_stats(enabled: bool, **kv) -> None:
    if not enabled:
        return
    for key, value in kv.items():
        print(f"{key}={value}", file=sys.stderr)


def _arith_stats_kv(stats: arith.ArithStats) -> dict:
    return {
        "ring_ops": stats.ring_ops,
        "comparisons": stats.comparisons,
        "peak_heap": stats.peak_heap,
    }


def _cmd_addsub(args) -> int:
    f = polyfile.load(args.f)
    g = polyfile.load(args.g)
    stats = arith.ArithStats()
    out = arith.add(f, g, stats) if args.op == "add" else arith.sub(f, g, stats)
    _emit_poly(out, args.output)
    _emit_stats(args.stats, **_arith_stats_kv(stats))
    return 0


def _cmd_mul(args) -> int:
    f = polyfile.load(args.f)
    g = polyfile.load(args.g)
    stats = arith.ArithStats()
    if args.algo == "heap":
        out, stats = arith.mul_heap(f, g, stats)
    elif args.algo == "naive":
        out = arith.mul_naive(f, g, stats)
    else:
        out = arith.mul(f, g, stats)
    _emit_poly(out, args.output)
    _emit_stats(args.stats, **_arith_stats_kv(stats), method=stats.method)
    return 0


def _cmd_divmod(args) -> int:
    f = polyfile.load(args.f)
    g = polyfile.load(args.g)
    stats = arith.ArithStats()
    q, r, stats = arith.divmod_heap(
        f, g, pseudo=args.pseudo, max_quotient_terms=arith.DEFAULT_TERM_BUDGET, stats=stats
    )
    if args.quotient_out or args.remainder_out:
        if args.quotient_out:
            polyfile.dump(q, args.quotient_out)
        if args.remainder_out:
            polyfile.dump(r, args.remainder_out)
    else:
        sys.stdout.write(polyfile.dumps(q))
        sys.stdout.write(polyfile.dumps(r))
    _emit_stats(args.stats, **_arith_stats_kv(stats), pseudo_events=stats.pseudo_events)
    return 0


def _cmd_divides(args) -> int:
    f = polyfile.load(args.f)
    g = polyfile.load(args.g)
    stats = arith.ArithStats()
    answer = arith.divides(
        f, g, dense_budget_terms=args.dense_budget_terms,
        rng=random.Random(args.seed), stats=stats,
    )
    print("true" if answer else "false")
    _emit_stats(
        args.stats, **_arith_stats_kv(stats), method=stats.method, monte_carlo=stats.monte_carlo
    )
    return 0


def _cmd_eval(args) -> int:
    f = polyfile.load(args.f)
    if args.mod is not None:
        value = evaluate_mod(f, args.point, args.mod)
    else:
        value = evaluate(f, args.point)
    try:
        text = str(value)
    except ValueError:  # past the int-to-text limit
        raise polyfile._digit_limit("a number to write") from None
    print(text)
    return 0


def _cmd_evalmod(args) -> int:
    f = polyfile.load(args.f)
    h = to_dense(polyfile.load(args.h))
    g = to_dense(polyfile.load(args.g))
    ops = OpCounter()
    out = eval_mod(f, h, g, ops)
    _emit_poly(from_dense(out), args.output)
    _emit_stats(args.stats, ring_ops=ops.total)
    return 0


def _cmd_pack(args) -> int:
    f = polyfile.load(args.f)
    _emit_poly(kronecker_pack(f, args.bound), args.output)
    return 0


def _cmd_unpack(args) -> int:
    f = polyfile.load(args.f)
    _emit_poly(kronecker_unpack(f, args.bound, args.nvars), args.output)
    return 0


def _cmd_interp(args) -> int:
    ref = polyfile.load(args.oracle)
    # Exponents at or above D would alias modulo the subgroup order.
    top = max_degree(ref)
    if top >= args.D:
        raise BoundError(f"oracle exponent {top} is not below D = {args.D}")
    # The oracle is the polynomial itself, so its height is exact.
    H = None if ref.ring.is_field else max(1, height(ref))
    cfg = interp.InterpConfig(
        T=args.T, D=args.D, H=H, early_termination=args.early,
        verify_trials=args.verify, seed=args.seed,
    )
    bb = interp.ProbeCountingOracle.from_poly(ref)
    stats = interp.InterpStats()
    out = interp.interpolate_multivariate(bb, cfg, ref.nvars, args.D, stats)
    _emit_poly(out, args.output)
    _emit_stats(
        args.stats,
        probes=stats.probes,
        recurrence_degree=stats.recurrence_degree,
        crt_primes=len(stats.crt_primes),
        early_stopped=stats.early_stopped,
        verify_trials=stats.verify_trials,
    )
    return 0


def _cmd_gapsplit(args) -> int:
    f = polyfile.load(args.f)
    gamma = args.gamma if args.gamma is not None else factor.default_gap_threshold(f)
    split = factor.gap_split(f, gamma)
    for block, shift in split.blocks:
        print(f"shift {shift}")
        sys.stdout.write(polyfile.dumps(block))
    return 0


def _cmd_roots_linear(args) -> int:
    f = polyfile.load(args.f)
    roots = factor.linear_rational_factors(f, random.Random(args.seed))
    for a, b in roots:
        print(f"{a}/{b}")
    return 0


def _cmd_perfect_power(args) -> int:
    f = polyfile.load(args.f)
    report = factor.detect_perfect_power(
        f, random.Random(args.seed), confidence_target=args.confidence
    )
    print(f"k={report.k}")
    print(f"confidence={report.confidence}")
    return 0


def _cmd_certify_power(args) -> int:
    f = polyfile.load(args.f)
    g = polyfile.load(args.g)
    print("true" if factor.certify_power(f, g, args.k) else "false")
    return 0


def _cmd_bench(args) -> int:
    if (args.term_count - 1) >> args.degbits:
        print(
            f"error: --terms {args.term_count} is more than the 2^{args.degbits} "
            "distinct exponents that --degbits allows",
            file=sys.stderr,
        )
        return 2
    records = bench.run_bench(args.op, args.term_count, args.degbits, args.trials, args.seed)
    sys.stdout.write(bench.to_csv(records))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="supersparse",
        description="Exact arithmetic, interpolation and factorization "
        "for supersparse polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        if output:
            p.add_argument("-o", "--output", help="write the result here instead of stdout")
        p.add_argument("--stats", action="store_true", help="print key=value counters on stderr")

    for name in ("add", "sub"):
        p = sub.add_parser(name, help=f"{name} two polynomials")
        p.add_argument("f")
        p.add_argument("g")
        add_common(p)
        p.set_defaults(func=_cmd_addsub, op=name)

    p = sub.add_parser("mul", help="multiply two polynomials")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--algo", choices=("heap", "naive", "kronecker"), default=None,
                   help="heap or naive forces that path; the default (alias: "
                   "kronecker) takes the vector kernel, on int64 columns where "
                   "machine words suffice and on Python-int columns elsewhere")
    add_common(p)
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("divmod", help="quotient and remainder")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("-q", "--quotient-out")
    p.add_argument("-r", "--remainder-out")
    p.add_argument("--pseudo", action="store_true", help="allow pseudo-division over Z")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_divmod)

    p = sub.add_parser("divides", help="exact divisibility test")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--dense-budget", dest="dense_budget_terms", type=int, default=None,
                   help=f"dense fast-path degree budget (default {DEFAULT_DENSE_BUDGET})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_divides)

    p = sub.add_parser("eval", help="evaluate at a point")
    p.add_argument("f")
    p.add_argument("--point", type=_point, required=True, help="comma-separated coordinates")
    p.add_argument("--mod", type=_prime, default=None, help="reduce modulo this prime")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("evalmod", help="f(h) mod g with dense h, g")
    p.add_argument("f")
    p.add_argument("--h", dest="h", required=True)
    p.add_argument("--g", dest="g", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_evalmod)

    p = sub.add_parser("pack", help="pack multivariate exponents to one variable")
    p.add_argument("f")
    p.add_argument("--bound", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("unpack", help="unpack a one-variable polynomial")
    p.add_argument("f")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--nvars", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_unpack)

    p = sub.add_parser("interp", help="interpolate a reference-backed oracle")
    p.add_argument("--oracle", required=True)
    p.add_argument("--T", type=_positive_int, required=True)
    p.add_argument("--D", type=_positive_int, required=True)
    p.add_argument("--early", action="store_true")
    p.add_argument("--verify", type=_natural_int, default=0)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("gapsplit", help="split at large exponent gaps")
    p.add_argument("f")
    p.add_argument("--gamma", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_gapsplit)

    p = sub.add_parser("roots-linear", help="rational roots (a/b per line)")
    p.add_argument("f")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_roots_linear)

    p = sub.add_parser("perfect-power", help="detect f = g^k")
    p.add_argument("f")
    p.add_argument("--confidence", type=_probability, default=0.999999)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_perfect_power)

    p = sub.add_parser("certify-power", help="check g^k = f exactly")
    p.add_argument("f")
    p.add_argument("--g", dest="g", required=True)
    p.add_argument("--k", dest="k", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_certify_power)

    p = sub.add_parser("bench", help="benchmark an operation, CSV on stdout")
    p.add_argument("op", choices=("mul", "mul-naive", "divides", "divides-z", "interp"))
    p.add_argument("--terms", dest="term_count", metavar="TERMS", type=_positive_int, default=100)
    p.add_argument("--degbits", type=_positive_int, default=40)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except SupersparseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
