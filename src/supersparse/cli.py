"""Command-line surface.

Every subcommand is a thin adapter over the library; no algebra happens
here.  Exit codes: 0 success, 1 domain error (one-line diagnostic on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import arith, bench, factor, interp, polyfile
from .errors import SupersparseError
from .poly import (
    SparsePoly,
    dense_budget,
    evaluate,
    evaluate_mod,
    from_dense,
    kronecker_pack,
    kronecker_unpack,
    to_dense,
)
from .ring import context_from_prime, is_prime


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _prime(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"not a prime: {text}")
    return value


def _point(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _emit_poly(f: SparsePoly, out: str | None) -> None:
    text = polyfile.dumps(f)
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        out = arith.mul_kronecker(f, g, stats)
    _emit_poly(out, args.output)
    _emit_stats(args.stats, **_arith_stats_kv(stats))
    return 0


def _cmd_divmod(args) -> int:
    f = polyfile.load(args.f)
    g = polyfile.load(args.g)
    stats = arith.ArithStats()
    q, r, stats = arith.divmod_heap(f, g, pseudo=args.pseudo, stats=stats)
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
        f, g, dense_budget_terms=args.dense_budget,
        rng=random.Random(args.seed), stats=stats,
    )
    print("true" if answer else "false")
    _emit_stats(args.stats, **_arith_stats_kv(stats), method=stats.method)
    return 0


def _cmd_eval(args) -> int:
    f = polyfile.load(args.f)
    if args.mod is not None:
        print(evaluate_mod(f, args.point, args.mod))
    else:
        print(evaluate(f, args.point))
    return 0


def _cmd_evalmod(args) -> int:
    f = polyfile.load(args.f)
    h = to_dense(polyfile.load(args.h))
    g = to_dense(polyfile.load(args.g))
    from .poly import eval_mod

    out = eval_mod(f, h, g)
    _emit_poly(from_dense(out), args.output)
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
    bb = interp.ProbeCountingOracle.from_poly(ref)
    stats = interp.InterpStats()
    if ref.ring.is_field:
        cfg = interp.InterpConfig(
            T=args.T, D=args.D, early_termination=args.early,
            verify_trials=args.verify, seed=args.seed,
        )
        if ref.nvars == 1:
            ctx = context_from_prime(ref.ring.modulus, args.D, random.Random(args.seed))
            out = interp.interpolate_prony(bb, ctx, cfg, stats)
        else:
            out = interp.interpolate_multivariate(bb, cfg, ref.nvars, args.D, stats)
    else:
        from .poly import height

        H = args.H if args.H is not None else max(1, height(ref))
        cfg = interp.InterpConfig(
            T=args.T, D=args.D, H=H, early_termination=args.early,
            verify_trials=args.verify, seed=args.seed,
        )
        if ref.nvars == 1:
            out = interp.interpolate_integer(bb, cfg, stats)
        else:
            out = interp.interpolate_multivariate(bb, cfg, ref.nvars, args.D, stats)
    _emit_poly(out, args.output)
    _emit_stats(
        args.stats,
        probes=stats.probes,
        recurrence_degree=stats.recurrence_degree,
        crt_primes=len(stats.crt_primes),
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
    records = bench.run_bench(args.op, args.terms, args.degbits, args.trials, args.seed)
    sys.stdout.write(bench.to_csv(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--algo", choices=("heap", "naive", "kronecker"), default="heap")
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
    p.add_argument("--dense-budget", type=int, default=None,
                   help=f"dense fast-path degree budget (default {dense_budget()})")
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
    p.add_argument("--H", type=_positive_int, default=None)
    p.add_argument("--early", action="store_true")
    p.add_argument("--verify", type=int, default=0)
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
    p.add_argument("--confidence", type=float, default=0.999999)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_perfect_power)

    p = sub.add_parser("certify-power", help="check g^k = f exactly")
    p.add_argument("f")
    p.add_argument("--g", dest="g", required=True)
    p.add_argument("--k", dest="k", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_certify_power)

    p = sub.add_parser("bench", help="benchmark an operation, CSV on stdout")
    p.add_argument("op", choices=("mul", "mul-naive", "divides", "interp"))
    p.add_argument("--terms", type=int, default=100)
    p.add_argument("--degbits", type=int, default=40)
    p.add_argument("--trials", type=int, default=1)
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
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
