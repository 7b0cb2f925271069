#!/usr/bin/env python3
"""Seeded CLI-level benchmark for supersparse.

    python3 perfbench/run.py --workload divides --seed 1 --seconds 20 --trace 0

Drives `supersparse.cli.main(argv)` in-process on input files written by
this benchmark's own generator, as one closed-loop client: the next
request starts when the previous one returns.  The loop runs whole
cycles of the workload's request mix until the timed requests add up to
--seconds.  Every output is checked outside the timed region.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 every request runs twice, untraced then traced,
and the metrics are the per-layer ones plus the tracing overhead.
The line before it is a JSON detail record (error rate, tail
percentile, the exact --stats counts).  See perfbench/README.md.
"""

import os
import sys

# Pin native thread pools before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in fresh processes, some before the timed loop and
# some after it, so that the median spans the run's machine drift.
SETUP_BEFORE = 3
SETUP_AFTER = 2
SMOKE_SCALE = 0.1
# The tail is the mean of the slowest fifth of the timed requests: a
# mean over many samples moves smoothly when the machine drifts, where a
# single order statistic jumps between request kinds.  A run goes on
# to at least MIN_REQUESTS requests, so the tail holds at least 10.
TAIL_PCT = 80
MIN_REQUESTS = 50

RUNGS = ("zero-dividend", "unit-divisor", "dense-modpow", "heap-divmod", "content",
         "trailing-power", "linear-exact", "dense-exact", "modular-screen", "gap-blocks")

END_TO_END_UNITS = {
    "ops_per_s": "req/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Fail(Exception):
    """The benchmark cannot run at all: no result is printed."""


def workdir_for(args) -> Path:
    return HERE / "_work" / (args.workload + ("-smoke" if args.smoke else ""))


def import_cli():
    """Import supersparse.cli from this checkout's src/, nowhere else."""
    if not (SRC / "supersparse" / "cli.py").is_file():
        raise Fail(f"no supersparse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from supersparse import cli

    if Path(cli.__file__).resolve().parent != SRC / "supersparse":
        raise Fail(f"imported supersparse from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv, tracer=None, execution=0):
    """One timed cli.main call: (seconds, exit code or None, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    traced = tracer.request(execution) if tracer else contextlib.nullcontext()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), traced:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as e:  # a traceback is a failed request, not a crashed benchmark
            error = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue(), error


def parse_stats(stderr: str) -> dict:
    stats = {}
    for line in stderr.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.isidentifier():
            stats[key] = int(value) if value.lstrip("-").isdigit() else value
    return stats


def setup(args) -> None:
    """Everything between process start and the first timed request."""
    cli = import_cli()
    workdir = workdir_for(args)
    mix = workloads.build(args.workload, args.seed, SMOKE_SCALE if args.smoke else 1.0)
    workloads.write(mix, workdir)
    os.chdir(workdir)
    call(cli, mix.requests[0]["argv"])


def timed_setups(args, repeats: int) -> list[float]:
    """Wall time of fresh processes that only set up, median-ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as e:
            raise Fail("set-up process took more than 120 s") from e
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise Fail(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
    return times


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def request_p50(records: list[dict]) -> float:
    """Median over the mix's requests of each request's mean latency.

    Each request of the cycle runs once per cycle; averaging its repeats
    first spreads every request over the whole run, so the median moves
    with the run's mean speed instead of jumping between request kinds."""
    by: dict[str, list[float]] = {}
    for r in records:
        by.setdefault(r["id"], []).append(r["dt"])
    return quantile([statistics.mean(v) for v in by.values()], 0.5)


def tail_mean(values: list[float]) -> tuple[float, int]:
    """Mean of the slowest (100 - TAIL_PCT)% of samples, and their count."""
    k = max(1, round(len(values) * (100 - TAIL_PCT) / 100))
    return statistics.mean(sorted(values)[-k:]), k


class Runner:
    """Executes requests, checks outputs, and keeps the exact counts."""

    def __init__(self, cli, workdir: Path, requests: list[dict], tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.requests = requests
        self.tracer = tracer
        self.records: list[dict] = []          # one per execution
        self.verified: dict[tuple, str | None] = {}
        self.first_stats: dict[str, dict] = {}
        self.failures: list[str] = []
        self.check_s = 0.0

    def execute(self, req: dict, traced: bool) -> None:
        execution = len(self.records)
        dt, rc, out, err, error = call(
            self.cli, req["argv"], self.tracer if traced else None, execution)
        reason = error or (None if rc == 0 else f"exit code {rc}: {err.strip()[-200:]}")
        if reason is None:
            t0 = time.perf_counter()
            reason = self.verify(req, out)
            self.check_s += time.perf_counter() - t0
        stats = parse_stats(err)
        first = self.first_stats.setdefault(req["id"], stats)
        if reason is None and stats != first:
            reason = f"--stats counts changed on repeat: {first} then {stats}"
        if reason is not None:
            self.failures.append(f"{req['id']}: {reason}")
        self.records.append({"id": req["id"], "traced": traced, "dt": dt,
                             "ok": reason is None, "execution": execution})

    def verify(self, req: dict, stdout: str) -> str | None:
        # Identical output bytes for the same request were already checked.
        digest = hashlib.sha256(stdout.encode())
        for name in checks.output_paths(req):
            digest.update((self.workdir / name).read_bytes())
        key = (req["id"], digest.hexdigest())
        if key not in self.verified:
            self.verified[key] = checks.check(self.workdir, req, stdout)
        return self.verified[key]

    def run(self, seconds: float) -> int:
        """Whole cycles until the timed requests reach `seconds`; an
        untraced run also goes on to at least MIN_REQUESTS requests.

        When tracing, each request runs untraced and traced back to back;
        the order alternates by cycle, because a repeat of a request runs
        faster on the memory its predecessor just freed.
        """
        cycles = 0
        timed = 0.0
        min_cycles = 1 if self.tracer else -(-MIN_REQUESTS // len(self.requests))
        while cycles < min_cycles or timed < seconds:
            if self.tracer is None:
                order = (False,)
            else:
                order = (False, True) if cycles % 2 == 0 else (True, False)
            for req in self.requests:
                for traced in order:
                    self.execute(req, traced)
                    timed += self.records[-1]["dt"]
            cycles += 1
        return cycles

    def stats_counts(self) -> dict:
        """Per-cycle totals of the CLI's --stats counters."""
        per = list(self.first_stats.values())
        out = {
            "arith.ring_ops": sum(s.get("ring_ops", 0) for s in per),
            "arith.comparisons": sum(s.get("comparisons", 0) for s in per),
            "arith.peak_heap": max([s.get("peak_heap", 0) for s in per] + [0]),
            "interp.probes": sum(s.get("probes", 0) for s in per),
            "interp.recurrence_degree": sum(s.get("recurrence_degree", 0) for s in per),
            "interp.crt_primes": sum(s.get("crt_primes", 0) for s in per),
        }
        for rung in RUNGS:
            out[f"arith.divides.method.{rung}"] = sum(s.get("method") == rung for s in per)
        return out


def counts_path(workdir: Path, seed: int) -> Path:
    """Where this seed's counts live, keyed by the benchmark and program
    sources, so that only runs of the same code on the same inputs meet."""
    digest = hashlib.sha256((workdir / "manifest.json").read_bytes())
    for src in sorted(HERE.glob("*.py")) + sorted((SRC / "supersparse").glob("*.py")):
        digest.update(src.read_bytes())
    return workdir / f"counts-{seed}-{digest.hexdigest()[:12]}.json"


def check_repeat(path: Path, counts: dict) -> str | None:
    """Same seed, same code, same counts: compare with an earlier run."""
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
            return f"counts differ from an earlier run with this seed: {diff}"
        return None
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if "SUPERSPARSE_DENSE_BUDGET" in os.environ:
            raise Fail("SUPERSPARSE_DENSE_BUDGET is set; the workloads assume the default budget")
        if args.setup_only:
            setup(args)
            return 0
        return measure(args)
    except Fail as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


def measure(args) -> int:
    start = time.perf_counter()
    setup_times = timed_setups(args, SETUP_BEFORE)
    cli = import_cli()
    workdir = workdir_for(args)
    requests = json.loads((workdir / "manifest.json").read_text())
    os.chdir(workdir)
    call(cli, requests[0]["argv"])  # untimed warm-up, as in each timed set-up

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    runner = Runner(cli, workdir, requests, tracer)
    cycles = runner.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += timed_setups(args, SETUP_AFTER)

    counts = runner.stats_counts()
    repeat = check_repeat(counts_path(workdir, args.seed), counts)
    if repeat:
        runner.failures.append(repeat)

    plain = [r for r in runner.records if not r["traced"]]
    lat = [r["dt"] for r in plain]
    passed = sum(r["ok"] for r in plain)
    failed = sum(not r["ok"] for r in runner.records)
    tail, tail_samples = tail_mean(lat)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cycles": cycles,
        "requests_per_cycle": len(requests),
        "error_rate": failed / len(runner.records),
        "latency_tail_pct": TAIL_PCT,
        "latency_tail_samples": tail_samples,
        "sample_p50_s": quantile(lat, 0.5),
        "sample_p80_s": quantile(lat, TAIL_PCT / 100),
        "kind_p50_s": kind_medians(runner.requests, plain),
        "setup_samples_s": setup_times,
        "timed_s": sum(r["dt"] for r in runner.records),
        "check_s": runner.check_s,
        "wall_s": time.perf_counter() - start,
        "counts": counts,
        "failures": runner.failures[:10],
    }

    if tracer is None:
        values = {
            "ops_per_s": passed / sum(lat),
            "latency_p50_s": request_p50(plain),
            "latency_tail_s": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        seen: set[str] = set()
        first = set()
        for r in runner.records:
            if r["traced"] and r["id"] not in seen:
                seen.add(r["id"])
                first.add(r["execution"])
        layers = tracer.layer_metrics(first)
        layers.update(counts)
        traced_p50 = request_p50([r for r in runner.records if r["traced"]])
        plain_p50 = request_p50(plain)
        layers["trace.overhead_s"] = traced_p50 - plain_p50
        layers["trace.overhead_frac"] = (traced_p50 - plain_p50) / plain_p50
        layers["trace.spans_per_request"] = len(tracer.spans) / max(1, len(runner.records) - len(plain))
        detail["selfcheck"] = span_consistency(tracer)
        if detail["selfcheck"]:
            runner.failures.append(detail["selfcheck"])
        tracer.write(workdir / "spans.csv",
                     {r["execution"]: r["id"] for r in runner.records})
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}

    for reason in runner.failures[:10]:
        print(f"perfbench: {reason}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def kind_medians(requests: list[dict], records: list[dict]) -> dict[str, float]:
    kind = {r["id"]: r["kind"] for r in requests}
    by: dict[str, list[float]] = {}
    for r in records:
        by.setdefault(kind[r["id"]], []).append(r["dt"])
    return {k: statistics.median(v) for k, v in by.items()}


def span_consistency(tracer) -> str | None:
    """Self times are non-negative and children fit inside their parent."""
    for s, st in zip(tracer.spans, tracer.self_times()):
        if st < 0:
            return f"span {s[1]} ({s[3]}) has negative self time {st} ns"
        if s[2] >= 0:
            parent = tracer.spans[s[2]]
            if s[4] < parent[4] or s[5] > parent[5]:
                return f"span {s[1]} ({s[3]}) outlives its parent {parent[3]}"
    return None


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.startswith("polyfile.bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
