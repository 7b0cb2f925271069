#!/usr/bin/env python3
"""Self-tests of the benchmark itself: generator, checker, tracer, smoke run.

    python3 perfbench/selftest.py

Needs the checkout's src/ for the tracer and smoke tests; the generator
and checker tests use only the benchmark's own code.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import checks
import workloads
from run import ROOT, SMOKE_SCALE, call, import_cli, request_p50, span_consistency, tail_mean

HERE = Path(__file__).resolve().parent
SCRATCH = HERE / "_work" / "selftest"


def bench_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class Generator(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in workloads.WORKLOADS:
            dirs = []
            for tag in ("a", "b"):
                d = SCRATCH / f"gen-{tag}" / w
                shutil.rmtree(d, ignore_errors=True)
                workloads.write(workloads.build(w, 7, SMOKE_SCALE), d)
                dirs.append(d)
            names = sorted(p.name for p in dirs[0].iterdir())
            self.assertEqual(names, sorted(p.name for p in dirs[1].iterdir()))
            for name in names:
                self.assertEqual((dirs[0] / name).read_bytes(), (dirs[1] / name).read_bytes(), name)
            other = workloads.build(w, 8, SMOKE_SCALE)
            self.assertNotEqual(other.files, workloads.build(w, 7, SMOKE_SCALE).files, w)

    def test_shapes_do_not_depend_on_seed(self):
        for w in workloads.WORKLOADS:
            kinds = [[r["kind"] for r in workloads.build(w, s, SMOKE_SCALE).requests] for s in (1, 2)]
            self.assertEqual(kinds[0], kinds[1])


class Checker(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(dir=SCRATCH))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_powers_match_builtin_pow(self):
        rng = workloads.random.Random(9)
        P = workloads.random_prime(rng, 61)
        xe = checks.Powers(rng.randrange(2, P), P)
        for bits in (0, 1, 8, 60, 200):
            e = rng.getrandbits(bits) if bits else 0
            self.assertEqual(xe(e), pow(xe.x, e, P))

    def write(self, name, d, nvars=1, p=None):
        (self.dir / name).write_text(workloads.sp_text(d, nvars, p))

    def test_flipped_product_coefficient(self):
        rng = workloads.random.Random(3)
        f = workloads.rand_poly(rng, 30)
        g = workloads.rand_poly(rng, 30)
        h = workloads.pmul(f, g)
        self.write("f.sp", f)
        self.write("g.sp", g)
        self.write("h.sp", h)
        req = {"seed": 1, "check": {"type": "product", "f": "f.sp", "g": "g.sp", "out": "h.sp"}}
        self.assertIsNone(checks.check(self.dir, req, ""))
        e = sorted(h)[len(h) // 2]
        h[e] += 1
        self.write("h.sp", h)
        self.assertIn("f*g(x)", checks.check(self.dir, req, ""))

    def test_flipped_divides_verdict(self):
        mix = workloads.build("divides", 1, SMOKE_SCALE)
        for req in mix.requests:
            if req["kind"].startswith("divides"):
                planted = req["check"]["expect"]
                flipped = "false" if planted == "true" else "true"
                self.assertIsNone(checks.check(self.dir, req, planted + "\n"))
                self.assertIsNotNone(checks.check(self.dir, req, flipped + "\n"))

    def test_dropped_interpolated_term(self):
        rng = workloads.random.Random(4)
        oracle = workloads.rand_poly(rng, 12)
        self.write("o.sp", oracle)
        self.write("out.sp", oracle)
        req = {"seed": 1, "check": {"type": "same-file", "expect": "o.sp", "out": "out.sp"}}
        self.assertIsNone(checks.check(self.dir, req, ""))
        del oracle[sorted(oracle)[5]]
        self.write("out.sp", oracle)
        self.assertIsNotNone(checks.check(self.dir, req, ""))

    def test_divmod_remainder_degree(self):
        g = {(0,): 1, (5,): 1}
        q = {(7,): 3}
        self.write("g.sp", g)
        self.write("q.sp", q)
        self.write("f.sp", workloads.padd(workloads.pmul(q, g), {(6,): 2}))
        self.write("r.sp", {(6,): 2})
        req = {"seed": 2, "check": {"type": "divmod", "f": "f.sp", "g": "g.sp", "q": "q.sp", "r": "r.sp"}}
        self.assertIn("deg r", checks.check(self.dir, req, ""))


class Statistics(unittest.TestCase):
    def test_tail_is_mean_of_slowest_fifth(self):
        self.assertEqual(tail_mean([float(v) for v in range(1, 11)]), (9.5, 2))
        self.assertEqual(tail_mean([3.0]), (3.0, 1))

    def test_p50_over_request_means(self):
        records = [{"id": "a", "dt": 1.0}, {"id": "b", "dt": 2.0}, {"id": "c", "dt": 9.0},
                   {"id": "a", "dt": 3.0}, {"id": "b", "dt": 4.0}, {"id": "c", "dt": 9.0}]
        self.assertEqual(request_p50(records), 3.0)  # means 2, 3, 9


class Spans(unittest.TestCase):
    def test_self_times_and_nesting(self):
        cli = import_cli()
        from spans import TIMES, Tracer

        tracer = Tracer()
        for w in workloads.WORKLOADS:
            d = SCRATCH / "spans" / w
            mix = workloads.build(w, 3, SMOKE_SCALE)
            workloads.write(mix, d)
            for req in mix.requests:
                argv = [str(d / a) if a.endswith(".sp") else a for a in req["argv"]]
                _, rc, _, _, error = call(cli, argv, tracer, len(tracer.spans))
                self.assertEqual((rc, error), (0, None), req["id"])
        self.assertIsNone(span_consistency(tracer))
        self.assertTrue(all(t >= 0 for t in tracer.self_times()))
        names = {s[3] for s in tracer.spans}
        for metric, (name, _) in TIMES.items():
            self.assertIn(name, names, metric)

    def test_missing_target_is_skipped(self):
        cli = import_cli()
        from supersparse import factor
        from spans import Tracer

        tracer = Tracer()
        d = SCRATCH / "spans-missing"
        mix = workloads.build("mul-word", 3, SMOKE_SCALE)
        workloads.write(mix, d)
        argv = [str(d / a) if a.endswith(".sp") else a for a in mix.requests[0]["argv"]]
        saved = factor.certify_power
        del factor.certify_power  # as if a refactor had removed it
        try:
            _, rc, _, _, error = call(cli, argv, tracer, 0)
            self.assertFalse(hasattr(factor, "certify_power"))
        finally:
            factor.certify_power = saved
        self.assertEqual((rc, error), (0, None))
        self.assertIn("arith.mul_heap", {s[3] for s in tracer.spans})


class Smoke(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        start = time.perf_counter()
        for w in workloads.WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer"), ("0", "end_to_end")):
                proc = run_bench("--workload", w, "--seed", "5", "--seconds", "0.5",
                                 "--trace", trace, "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stderr)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, bench_units(section))
        self.assertLess(time.perf_counter() - start, 120)

    def test_fails_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "interp", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    SCRATCH.mkdir(parents=True, exist_ok=True)
    unittest.main()
