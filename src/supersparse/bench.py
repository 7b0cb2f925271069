"""Benchmark harness emitting one CSV row per trial.

Rows report operation counters next to wall time: the scaling claims of
interest are about counted ring operations, and wall time alone is
machine noise.  Everything except wall_nanoseconds is reproducible from
the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import astuple, dataclass, fields

from . import arith, factor, interp
from .errors import VerificationError
from .poly import SparsePoly, canonicalize, height
from .ring import ZZ, RingSpec, Zp, random_prime


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row; the fields, in order, are the columns."""

    operation: str
    t_f: int
    t_g: int
    t_out: int
    log2_degree_bound: int
    ring_ops: int
    comparisons: int
    peak_heap: int
    probes: int
    wall_nanoseconds: int
    seed: int

    def csv_row(self) -> str:
        return ",".join(map(str, astuple(self)))


CSV_HEADER = ",".join(field.name for field in fields(BenchRecord))


def random_sparse_poly(
    rng: random.Random,
    *,
    terms: int,
    degbits: int,
    nvars: int = 1,
    ring: RingSpec = ZZ,
    coeff_bits: int = 20,
) -> SparsePoly:
    """Uniform random support below 2^degbits per variable, nonzero coeffs.

    Raises ValueError when fewer than `terms` distinct exponents exist.
    """
    bound = 1 << degbits
    if terms > bound ** nvars:
        raise ValueError(
            f"{terms} terms need more than the {bound ** nvars} exponents "
            f"below 2^{degbits} in {nvars} variable(s)"
        )
    support: set[tuple[int, ...]] = set()
    while len(support) < terms:
        support.add(tuple(rng.randrange(bound) for _ in range(nvars)))
    pairs = []
    for exps in support:
        if ring.is_field:
            c = rng.randrange(1, ring.modulus)
        else:
            c = rng.randrange(1, 1 << coeff_bits)
            if rng.random() < 0.5:
                c = -c
        pairs.append((c, exps))
    return canonicalize(pairs, nvars, ring)


def _record(
    operation: str,
    seed: int,
    degbits: int,
    wall: int,
    f: SparsePoly,
    g: SparsePoly | None = None,
    out: SparsePoly | None = None,
    stats: arith.ArithStats | None = None,
    probes: int = 0,
) -> BenchRecord:
    """The record of one trial; absent operands and counters read 0."""
    stats = stats or arith.ArithStats()
    return BenchRecord(
        operation=operation,
        t_f=len(f),
        t_g=len(g) if g is not None else 0,
        t_out=len(out) if out is not None else 0,
        log2_degree_bound=degbits,
        ring_ops=stats.ring_ops,
        comparisons=stats.comparisons,
        peak_heap=stats.peak_heap,
        probes=probes,
        wall_nanoseconds=wall,
        seed=seed,
    )


def _bench_mul(seed: int, terms: int, degbits: int, naive: bool) -> BenchRecord:
    rng = random.Random(seed)
    f = random_sparse_poly(rng, terms=terms, degbits=degbits)
    g = random_sparse_poly(rng, terms=terms, degbits=degbits)
    stats = arith.ArithStats()
    start = time.perf_counter_ns()
    if naive:
        out = arith.mul_naive(f, g, stats)
    else:
        out = arith.mul(f, g, stats)
    wall = time.perf_counter_ns() - start
    return _record(f"mul-{stats.method}", seed, degbits, wall, f, g, out, stats)


def _bench_divides(seed: int, terms: int, degbits: int) -> BenchRecord:
    rng = random.Random(seed)
    ring = Zp(random_prime(rng, 31))
    g = random_sparse_poly(rng, terms=16, degbits=5, ring=ring)
    s = random_sparse_poly(rng, terms=max(1, terms // max(1, len(g))), degbits=degbits, ring=ring)
    f, _ = arith.mul_heap(g, s)
    stats = arith.ArithStats()
    start = time.perf_counter_ns()
    arith.divides(f, g, stats=stats)
    wall = time.perf_counter_ns() - start
    return _record("divides", seed, degbits, wall, f, g, stats=stats)


def _bench_divides_z(seed: int, terms: int, degbits: int) -> BenchRecord:
    """divides over Z on a planted divisor; the operation names the deciding rung.

    ring_ops counts every rung the call ran through, so on a planted
    divisor it is the cost of the rung that accepts.
    """
    rng = random.Random(seed)
    _, g = factor.content_and_primitive(random_sparse_poly(rng, terms=16, degbits=5))
    s = random_sparse_poly(rng, terms=max(1, terms // len(g)), degbits=degbits)
    f = arith.mul(g, s)
    stats = arith.ArithStats()
    start = time.perf_counter_ns()
    arith.divides(f, g, stats=stats)
    wall = time.perf_counter_ns() - start
    return _record(f"divides-z-{stats.method}", seed, degbits, wall, f, g, stats=stats)


def _bench_interp(seed: int, terms: int, degbits: int) -> BenchRecord:
    rng = random.Random(seed)
    f = random_sparse_poly(rng, terms=terms, degbits=degbits)
    bb = interp.ProbeCountingOracle.from_poly(f)
    cfg = interp.InterpConfig(
        T=terms, D=1 << degbits, H=max(1, height(f)), seed=seed
    )
    stats = interp.InterpStats()
    start = time.perf_counter_ns()
    out = interp.interpolate_integer(bb, cfg, stats)
    wall = time.perf_counter_ns() - start
    if out != f:
        raise VerificationError("interpolation recovered a polynomial other than the oracle's")
    return _record("interp", seed, degbits, wall, f, out=out, probes=stats.probes)


def run_bench(op: str, terms: int, degbits: int, trials: int, seed: int) -> list[BenchRecord]:
    """Run `trials` independent trials; trial i uses seed + i."""
    records = []
    for i in range(trials):
        s = seed + i
        if op == "mul":
            records.append(_bench_mul(s, terms, degbits, False))
        elif op == "mul-naive":
            records.append(_bench_mul(s, terms, degbits, True))
        elif op == "divides":
            records.append(_bench_divides(s, terms, degbits))
        elif op == "divides-z":
            records.append(_bench_divides_z(s, terms, degbits))
        elif op == "interp":
            records.append(_bench_interp(s, terms, degbits))
        else:
            raise ValueError(f"unknown bench operation: {op}")
    return records


def to_csv(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"
