"""Spans at the supersparse module boundaries, recorded from outside.

The tracer wraps public functions of each module for the length of one
request and restores the originals afterwards, so untraced requests run
the unmodified program.  A name bound by `from x import y` is a separate
reference, so it is wrapped in every module that imports it (for example
`factor.evaluate_mod` beside `poly.evaluate_mod`); methods are wrapped
on the class.

A span is (execution, id, parent, name, start, end).  Spans stay in
memory and are written out once, when the run ends.  A span nested
directly inside a span of the same name (`polyfile.dump` calling
`polyfile.dumps`) counts as that span's child but not again in the
layer's inclusive time.

A module, class or function that a later refactor removes is skipped:
its metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# Per-layer time metrics: metric -> (span name, "incl" or "self").
# "incl" sums whole spans; "self" subtracts the time covered by child spans.
TIMES = {
    "cli.glue_s": ("cli", "self"),
    "polyfile.load_s": ("polyfile.load", "incl"),
    "polyfile.dump_s": ("polyfile.dump", "incl"),
    "arith.mul_heap_s": ("arith.mul_heap", "incl"),
    "arith.divmod_heap_s": ("arith.divmod_heap", "incl"),
    "arith.power_s": ("arith.power", "incl"),
    "arith.divides_s": ("arith.divides", "incl"),
    "arith.linear_divides_exact_s": ("arith.linear_divides_exact", "incl"),
    "dense.chain_s": ("dense.chain", "incl"),
    "dense.term_s": ("dense.term", "incl"),
    "dense.accumulate_s": ("dense.accumulate", "incl"),
    "dense.powmod_s": ("dense.powmod", "incl"),
    "dense.gcd_s": ("dense.gcd", "incl"),
    "interp.probe_s": ("interp.probe", "incl"),
    "interp.bm_s": ("interp.prony", "self"),
    "interp.roots_s": ("interp.roots", "incl"),
    "interp.dlog_s": ("interp.dlog", "incl"),
    "interp.vandermonde_s": ("interp.vandermonde", "incl"),
    "interp.crt_s": ("interp.integer", "self"),
    "interp.verify_s": ("interp.verify", "incl"),
    "interp.smooth_prime_s": ("interp.smooth_prime", "incl"),
    "ring.random_prime_s": ("ring.random_prime", "incl"),
    "ring.prime_one_mod_s": ("ring.prime_one_mod", "incl"),
    "poly.evaluate_mod_s": ("poly.evaluate_mod", "incl"),
    "factor.linear_rational_factors_s": ("factor.linear_rational_factors", "incl"),
    "factor.detect_perfect_power_s": ("factor.detect_perfect_power", "incl"),
    "factor.certify_power_s": ("factor.certify_power", "incl"),
}

# Per-layer call counts: metric -> span names counted.
CALLS = {
    "polyfile.load_calls": ("polyfile.load",),
    "arith.mul_heap_calls": ("arith.mul_heap",),
    "arith.linear_divides_exact_calls": ("arith.linear_divides_exact",),
    "dense.mulmod_calls": ("dense.chain", "dense.term"),
    "ring.random_prime_calls": ("ring.random_prime",),
    "poly.evaluate_mod_calls": ("poly.evaluate_mod",),
}

# The interpolation pipeline entry points; their outermost span is interp.total_s.
PIPELINES = ("interp.prony", "interp.integer", "interp.multivariate")

MODULES = ("arith", "dense", "factor", "interp", "poly", "polyfile", "ring")


def load_modules() -> dict:
    """The supersparse modules present in this checkout (None if absent)."""
    out = {}
    for name in MODULES:
        try:
            out[name] = importlib.import_module(f"supersparse.{name}")
        except ModuleNotFoundError:
            out[name] = None
    return out


class Tracer:
    """Records spans and boundary counters, one execution at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.execution = -1
        self._stack: list[int] = []
        # Engines that have accumulated a term: their later mulmods walk
        # per-term exponents, earlier ones build the shared squaring chain.
        self._accumulating: weakref.WeakSet = weakref.WeakSet()
        self._targets = _targets(self, load_modules())

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        nested = parent >= 0 and self.spans[parent][3] == name
        idx = len(self.spans)
        self.spans.append([self.execution, idx, parent, name, time.perf_counter_ns(), 0, nested])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][5] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[self.execution][key] += n

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name, after):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def request(self, execution: int):
        """Trace one request: wrap every target, open the root span."""
        self.execution = execution
        saved = []
        for owner, attr, name, after in self._targets:
            orig = vars(owner).get(attr)
            if orig is None:
                continue
            saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, after))
        root = self.begin("cli")
        try:
            yield
        finally:
            self.end(root)
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span, in ns: duration minus child durations."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[5] - s[4]
        return [s[5] - s[4] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, first: set[int]) -> dict[str, float]:
        """Mean time per traced request for each layer, and per-cycle counts.

        Times average over every traced execution; counts and byte totals
        sum over `first`, the first traced execution of each request in
        the cycle, so they repeat exactly for a seed.
        """
        executions = {s[0] for s in self.spans if s[3] == "cli"}
        n = max(1, len(executions))
        selfs = self.self_times()
        incl = defaultdict(int)
        own = defaultdict(int)
        calls = defaultdict(int)
        total = 0
        for s, st in zip(self.spans, selfs):
            name = s[3]
            own[name] += st
            if not s[6]:
                incl[name] += s[5] - s[4]
            if s[0] in first:
                calls[name] += 1
            if name in PIPELINES and s[2] >= 0 and self.spans[s[2]][3] == "cli":
                total += s[5] - s[4]
        out = {}
        for metric, (name, how) in TIMES.items():
            out[metric] = (own if how == "self" else incl)[name] / n / 1e9
        out["interp.total_s"] = total / n / 1e9
        out["interp.oracle_frac"] = incl["interp.probe"] / total if total else 0.0
        for metric, names in CALLS.items():
            out[metric] = sum(calls[nm] for nm in names)
        tally = defaultdict(int)
        for execution in first:
            for key, v in self.counters[execution].items():
                tally[key] += v
        out["polyfile.bytes_in"] = tally["bytes_in"]
        out["polyfile.bytes_out"] = tally["bytes_out"]
        out["dense.engines"] = tally["engines"]
        out["dense.numpy_frac"] = tally["numpy_engines"] / tally["engines"] if tally["engines"] else 0.0
        out["arith.divides.verdicts"] = tally["verdicts"]
        out["arith.divides.monte_carlo_frac"] = (
            tally["monte_carlo"] / tally["verdicts"] if tally["verdicts"] else 0.0
        )
        return out

    def write(self, path, request_ids: dict[int, str]) -> None:
        with open(path, "w") as fh:
            fh.write("request,execution,span,parent,name,start_ns,end_ns\n")
            for s in self.spans:
                fh.write(f"{request_ids[s[0]]},{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n")


def _targets(tracer: Tracer, m: dict) -> list[tuple]:
    """(owner, attribute, span name, after-hook) for every wrapped callable."""
    arith, dense, factor, interp, poly, polyfile, ring = (m[k] for k in MODULES)
    engine = getattr(dense, "ModEngine", None)
    modp = getattr(dense, "DenseModP", None)
    oracle = getattr(interp, "ProbeCountingOracle", None)

    def bytes_in(args, kwargs, out):
        tracer.count("bytes_in", os.path.getsize(args[0]))

    def bytes_out(args, kwargs, out):
        tracer.count("bytes_out", len(out))

    def engine_made(args, kwargs, out):
        tracer.count("engines")
        tracer.count("numpy_engines", int(bool(args[0].use_np)))

    def accumulated(args, kwargs, out):
        tracer._accumulating.add(args[0])

    def verdict(args, kwargs, out):
        tracer.count("verdicts")
        stats = kwargs.get("stats")
        tracer.count("monte_carlo", int(bool(stats is not None and stats.monte_carlo)))

    def mulmod_name(args):
        return "dense.term" if args[0] in tracer._accumulating else "dense.chain"

    targets = [
        (polyfile, "load", "polyfile.load", bytes_in),
        (polyfile, "dumps", "polyfile.dump", bytes_out),
        (polyfile, "dump", "polyfile.dump", None),
        (arith, "mul_heap", "arith.mul_heap", None),
        (arith, "divmod_heap", "arith.divmod_heap", None),
        (arith, "power", "arith.power", None),
        (factor, "power", "arith.power", None),
        (arith, "divides", "arith.divides", verdict),
        (arith, "linear_divides_exact", "arith.linear_divides_exact", None),
        (factor, "linear_divides_exact", "arith.linear_divides_exact", None),
        (arith, "random_prime", "ring.random_prime", None),
        (engine, "__init__", "dense.engine", engine_made),
        (engine, "mulmod", mulmod_name, None),
        (engine, "addmul_into", "dense.accumulate", accumulated),
        (modp, "powmod", "dense.powmod", None),
        (dense, "dp_gcd_modp", "dense.gcd", None),
        (interp, "dp_gcd_modp", "dense.gcd", None),
        (oracle, "eval", "interp.probe", None),
        (oracle, "eval_at_mod", "interp.probe", None),
        (interp, "interpolate_prony", "interp.prony", None),
        (interp, "interpolate_integer", "interp.integer", None),
        (interp, "interpolate_multivariate", "interp.multivariate", None),
        (interp, "find_roots_subgroup", "interp.roots", None),
        (interp, "discrete_log_pow2", "interp.dlog", None),
        (interp, "solve_transposed_vandermonde", "interp.vandermonde", None),
        (interp, "verify", "interp.verify", None),
        (interp, "find_smooth_prime", "interp.smooth_prime", None),
        (interp, "random_prime", "ring.random_prime", None),
        (interp, "evaluate_mod", "poly.evaluate_mod", None),
        (ring, "random_prime", "ring.random_prime", None),
        (ring, "prime_one_mod", "ring.prime_one_mod", None),
        (factor, "prime_one_mod", "ring.prime_one_mod", None),
        (poly, "evaluate_mod", "poly.evaluate_mod", None),
        (factor, "evaluate_mod", "poly.evaluate_mod", None),
        (factor, "linear_rational_factors", "factor.linear_rational_factors", None),
        (factor, "detect_perfect_power", "factor.detect_perfect_power", None),
        (factor, "certify_power", "factor.certify_power", None),
    ]
    return [t for t in targets if t[0] is not None]
