import contextlib
import functools
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supersparse
from supersparse import ZZ, FormatError, Zp, canonicalize, from_dense, from_pairs, zero
from supersparse.bench import random_sparse_poly
from supersparse.cli import main
from supersparse.polyfile import dumps, load, loads, read_block

X_PLUS_1 = "sp 1\nring Z\nnvars 1\nterms 2\n1 0\n1 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


def test_polyfile_round_trip_text():
    f = from_pairs(ZZ, 1, [(1, 1), (1, 0)])
    assert dumps(f) == X_PLUS_1
    assert loads(X_PLUS_1) == f


def test_polyfile_round_trip_canonicalizes():
    messy = "sp 1\nring Z\nnvars 1\nterms 3\n2 5\n-1 5\n0 3\n"
    f = loads(messy)
    assert dumps(f) == "sp 1\nring Z\nnvars 1\nterms 1\n1 5\n"


def test_polyfile_field_and_zero():
    f = from_pairs(Zp(97), 1, [(5, 2)])
    assert loads(dumps(f)) == f
    z = zero(ZZ, 3)
    assert loads(dumps(z)) == z


def test_polyfile_random_byte_identity():
    rng = random.Random(0)
    for _ in range(25):
        f = random_sparse_poly(rng, terms=12, degbits=70, nvars=3)
        text = dumps(f)
        assert dumps(loads(text)) == text


def joined_dumps(f):
    """The writer's reference: one space-joined line per term."""
    ring = f"ring Zp {f.ring.modulus}" if f.ring.is_field else "ring Z"
    lines = ["sp 1", ring, f"nvars {f.nvars}", f"terms {len(f.terms)}"]
    lines += [" ".join([str(t.coeff)] + [str(e) for e in t.exps]) for t in f.terms]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("ring, nvars", [(ZZ, 1), (ZZ, 3), (Zp(2**61 - 1), 1), (Zp(97), 3)])
def test_polyfile_dumps_matches_joined_terms(ring, nvars):
    rng = random.Random(nvars)
    f = random_sparse_poly(rng, terms=40, degbits=80, nvars=nvars, ring=ring, coeff_bits=90)
    top = from_pairs(ring, nvars, [(-5, (1 << 100,) * nvars), (3, (0,) * nvars)])
    for poly in (f, top, zero(ring, nvars)):
        assert dumps(poly) == joined_dumps(poly)
    assert any(t.coeff < 0 for t in f.terms) == (ring == ZZ)
    assert any(e >= 1 << 64 for t in f.terms for e in t.exps)


@st.composite
def writer_inputs(draw):
    """Polynomials over Z and Z_p in 1 to 4 variables, the zero one included."""
    nvars = draw(st.integers(1, 4))
    ring = draw(st.sampled_from([ZZ, Zp(2), Zp(97), Zp(2**61 - 1), Zp(2**127 - 1)]))
    exps = st.tuples(*[st.integers(0, 1 << 200)] * nvars)
    coeffs = st.integers(-(1 << 150), 1 << 150)
    pairs = draw(st.lists(st.tuples(coeffs, exps), max_size=12))
    return canonicalize(pairs, nvars, ring)


@settings(max_examples=200, deadline=None)
@given(writer_inputs())
def test_polyfile_dumps_matches_joined_terms_property(f):
    text = dumps(f)
    assert text == joined_dumps(f)
    assert loads(text) == f


def test_polyfile_rejects_garbage():
    for bad in (
        "nope\n",
        "sp 1\nring Q\nnvars 1\nterms 0\n",
        "sp 1\nring Z\nnvars 1\nterms 2\n1 0\n",
        "sp 1\nring Z\nnvars 1\nterms 1\n1 0 3\n",
        "sp 1\nring Zp 15\nnvars 1\nterms 0\n",
        "sp 1\nring Z\nnvars 1\nterms 1\n1 -2\n",
        "sp 1\nring Z\nnvars 1\nterms -1\n",
        "sp 1\nring Z\nnvars 1\nterms 1\n1 0\n5 7\n",
    ):
        with pytest.raises(FormatError):
            loads(bad)


def test_cli_digit_limit_is_one_error_line(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()  # 4300 unless the interpreter is set otherwise
    # (10^d x)^2 with 2d + 1 > limit digits: readable, but the product is too long to write.
    d = limit * 2 // 3
    big = write(tmp_path, "big.sp", f"sp 1\nring Z\nnvars 1\nterms 1\n1{'0' * d} 1\n")
    assert main(["mul", big, big]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a number to write has more than {limit} digits, Python's int-str conversion limit\n"
    )
    out = tmp_path / "out.sp"
    assert main(["mul", big, big, "-o", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()
    # A coefficient of limit + 1 digits is too long to read.
    huge = write(tmp_path, "huge.sp", f"sp 1\nring Z\nnvars 1\nterms 1\n-1{'0' * limit} 1\n")
    assert main(["add", huge, big]) == 1
    assert capsys.readouterr().err == (
        f"error: a term line field has more than {limit} digits, Python's int-str conversion limit\n"
    )
    assert main(["add", write(tmp_path, "bad.sp", X_PLUS_1.replace("1 1", "1x 1")), big]) == 1
    assert "non-integer field" in capsys.readouterr().err


def test_dumps_zero_polynomial_builds_no_line_format():
    import tracemalloc

    text = "sp 1\nring Z\nnvars 10000000\nterms 0\n"
    f = loads(text)
    tracemalloc.start()
    try:
        out = dumps(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == text and peak < 1 << 20


# Spellings int() accepts besides plain decimals; the writer emits plain ones.
_ODD_INTS = ["+3", "1_0", "-0", "00", "\u0663"]
_COEFF_TOKENS = st.one_of(
    st.integers(-(1 << 80), 1 << 80).map(str), st.integers(-2, 2).map(str),
    st.sampled_from(_ODD_INTS),
)
_EXP_TOKENS = st.one_of(
    st.integers(0, 1 << 70).map(str), st.integers(0, 3).map(str), st.sampled_from(_ODD_INTS[1:]),
)
_BAD_TOKENS = st.sampled_from(["", "x", "1.5", "0x1f", "--1", "1e3", "-1", "+"])


@st.composite
def sp_texts(draw):
    """.sp text: a well-formed block, or one with a single header or term
    line broken; blank lines and trailing text in either case."""
    nvars = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(["ring Z", "ring Zp 2", "ring Zp 7", f"ring Zp {(1 << 61) - 1}"]))
    lines = [
        " ".join([draw(_COEFF_TOKENS)] + [draw(_EXP_TOKENS) for _ in range(nvars)])
        for _ in range(draw(st.integers(0, 6)))
    ]
    block = ["sp 1", ring, f"nvars {nvars}", f"terms {len(lines)}"] + lines
    if draw(st.booleans()):
        i = draw(st.integers(0, len(block) - 1))
        bad = [
            ["sp 2", "sp", "SP 1", "x"],
            ["ring Zp 15", "ring Zp 1", "ring Zp 0", "ring Zp -7", "ring Zp x", "ring Q",
             "ring Zp", "ring Z 5", "ring Zp 7 7"],
            ["nvars 0", "nvars -1", "nvars", "vars 1", "nvars x", f"nvars {nvars} 1",
             f"nvars {nvars + 1}"],
            ["terms -1", "terms", "terms x", f"terms {len(lines) + 1}", f"terms {len(lines) - 1}"],
        ]
        if i < 4:
            block[i] = draw(st.sampled_from(bad[i]))
        else:
            fields = draw(st.lists(st.one_of(_EXP_TOKENS, _BAD_TOKENS), max_size=nvars + 2))
            block[i] = " ".join(fields)
    for _ in range(draw(st.integers(0, 2))):
        block.insert(draw(st.integers(0, len(block))), draw(st.sampled_from(["", "   ", "\t"])))
    if draw(st.booleans()):
        block.append(draw(st.sampled_from(["1 2", "sp 1", "junk"])))
    return "\n".join(block) + draw(st.sampled_from(["\n", "", "\r\n"]))


@settings(max_examples=500, deadline=None)
@given(sp_texts())
def test_polyfile_loads_rejects_or_round_trips(text):
    try:
        f = loads(text)
    except FormatError:
        return
    out = dumps(f)
    assert dumps(loads(out)) == out


def test_polyfile_stream_blocks():
    f = from_pairs(ZZ, 1, [(1, 2)])
    g = from_pairs(ZZ, 1, [(3, 0)])
    stream = iter((dumps(f) + dumps(g)).splitlines())
    assert read_block(stream) == f
    assert read_block(stream) == g


def test_cli_mul_example(tmp_path, capsys):
    a = write(tmp_path, "a.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (1, 0)])))
    b = write(tmp_path, "b.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (-1, 0)])))
    out = str(tmp_path / "c.sp")
    assert main(["mul", a, b, "-o", out]) == 0
    assert load(out) == from_pairs(ZZ, 1, [(1, 2), (-1, 0)])


def test_cli_mul_algos_agree(tmp_path, capsys):
    rng = random.Random(1)
    f = random_sparse_poly(rng, terms=8, degbits=12, nvars=2)
    g = random_sparse_poly(rng, terms=9, degbits=12, nvars=2)
    a = write(tmp_path, "a.sp", dumps(f))
    b = write(tmp_path, "b.sp", dumps(g))
    outs = []
    for algo in ([], ["--algo", "heap"], ["--algo", "naive"], ["--algo", "kronecker"]):
        assert main(["mul", a, b, *algo]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] == outs[3]


@pytest.mark.parametrize(
    "algo, exp, method",
    [
        ([], 40, "word-vector"),
        ([], 1 << 70, "wide-vector"),
        (["--algo", "kronecker"], 40, "word-vector"),
        (["--algo", "heap"], 40, "heap"),
        (["--algo", "naive"], 40, "naive"),
    ],
)
def test_cli_mul_stats_method(tmp_path, capsys, algo, exp, method):
    a = write(tmp_path, "a.sp", dumps(from_pairs(ZZ, 1, [(1, exp), (1, 0)])))
    b = write(tmp_path, "b.sp", dumps(from_pairs(ZZ, 1, [(1, exp), (-1, 0)])))
    assert main(["mul", a, b, "--stats", *algo]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split("=")[0] for line in lines] == [
        "ring_ops", "comparisons", "peak_heap", "method"]
    assert lines[0] == "ring_ops=5" and lines[3] == f"method={method}"


def test_cli_add_sub_eval(tmp_path, capsys):
    a = write(tmp_path, "a.sp", dumps(from_pairs(ZZ, 1, [(3, 5), (2, 0)])))
    b = write(tmp_path, "b.sp", dumps(from_pairs(ZZ, 1, [(1, 5)])))
    assert main(["sub", a, b]) == 0
    assert loads(capsys.readouterr().out) == from_pairs(ZZ, 1, [(2, 5), (2, 0)])
    assert main(["eval", a, "--point", "2"]) == 0
    assert capsys.readouterr().out.strip() == "98"
    assert main(["eval", a, "--point", "2", "--mod", "97"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_divmod_stdout_blocks(tmp_path, capsys):
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 1000), (-1, 0)])))
    g = write(tmp_path, "g.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (-1, 0)])))
    assert main(["divmod", f, g]) == 0
    stream = iter(capsys.readouterr().out.splitlines())
    q = read_block(stream)
    r = read_block(stream)
    assert len(q.terms) == 1000 and r.is_zero()


def test_cli_divides_and_stats(tmp_path, capsys):
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 1 << 30), (-1, 0)])))
    g = write(tmp_path, "g.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (-1, 0)])))
    h = write(tmp_path, "h.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (-2, 0)])))
    assert main(["divides", f, g]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["divides", f, h, "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "false"
    assert "method=" in captured.err


def test_cli_interp_round_trip_with_probe_stats(tmp_path, capsys):
    rng = random.Random(2)
    ref = random_sparse_poly(rng, terms=20, degbits=40, coeff_bits=25)
    oracle = write(tmp_path, "f.sp", dumps(ref))
    assert main([
        "interp", "--oracle", oracle, "--T", "20", "--D", str(1 << 40),
        "--seed", "7", "--stats",
    ]) == 0
    captured = capsys.readouterr()
    assert loads(captured.out) == ref
    assert "probes=40" in captured.err


@pytest.mark.parametrize("flags, stopped", [(["--early"], True), ([], False)])
def test_cli_interp_stats_early_stopped(tmp_path, capsys, flags, stopped):
    rng = random.Random(4)
    ref = random_sparse_poly(rng, terms=5, degbits=30)
    oracle = write(tmp_path, "f.sp", dumps(ref))
    argv = ["interp", "--oracle", oracle, "--T", "20", "--D", str(1 << 30), "--stats"]
    assert main(argv + flags) == 0
    captured = capsys.readouterr()
    assert loads(captured.out) == ref
    assert captured.err.splitlines()[3] == f"early_stopped={stopped}"


@pytest.mark.parametrize("flags, trials", [(["--verify", "2"], 2), ([], 0)])
def test_cli_interp_stats_verify_trials(tmp_path, capsys, flags, trials):
    ref = random_sparse_poly(random.Random(6), terms=5, degbits=30)
    oracle = write(tmp_path, "f.sp", dumps(ref))
    argv = ["interp", "--oracle", oracle, "--T", "5", "--D", str(1 << 30), "--stats"]
    assert main(argv + flags) == 0
    captured = capsys.readouterr()
    assert loads(captured.out) == ref
    keys = [line.split("=")[0] for line in captured.err.splitlines()]
    assert keys == ["probes", "recurrence_degree", "crt_primes", "early_stopped", "verify_trials"]
    assert captured.err.splitlines()[-1] == f"verify_trials={trials}"


def test_cli_divides_stats_monte_carlo(tmp_path, capsys):
    # Past the dense budget, x^2 + x + 1 passes the modular screens, its gap
    # blocks do not divide, and its 2*10^5-term quotient exhausts the heap
    # budget: a Monte Carlo True.  x - 1 is decided exactly.
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 300003), (-1, 0)])))
    g = write(tmp_path, "g.sp", dumps(from_pairs(ZZ, 1, [(1, 2), (1, 1), (1, 0)])))
    h = write(tmp_path, "h.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (-1, 0)])))
    for divisor, method, flag in ((g, "modular-screen", True), (h, "linear-exact", False)):
        assert main(["divides", f, divisor, "--dense-budget", "10", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "true\n"
        assert captured.err.splitlines()[-2:] == [f"method={method}", f"monte_carlo={flag}"]


@pytest.mark.parametrize("dividend, verdict", [("one", "false"), ("big", "true")])
def test_cli_divides_z_divisor_past_the_dense_budget(tmp_path, capsys, dividend, verdict):
    # g = 1 + x^(10^18) is far past the dense budget: a dense rung or a
    # modular image would expand it.  Heap division decides exactly.
    import tracemalloc

    paths = {
        "one": write(tmp_path, "one.sp", dumps(from_pairs(ZZ, 1, [(1, 0)]))),
        "big": write(tmp_path, "big.sp", dumps(from_pairs(ZZ, 1, [(1, 0), (1, 10**18)]))),
    }
    tracemalloc.start()
    try:
        code = main(["divides", paths[dividend], paths["big"], "--stats"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0 and captured.out == f"{verdict}\n"
    assert captured.err.splitlines()[-2:] == ["method=heap-divmod", "monte_carlo=False"]
    assert peak < 1 << 20


@pytest.mark.parametrize("divisor, flags", [
    ("-1 0\n2 1000000\n", []),
    ("-1 0\n2 3\n", ["--dense-budget", "1"]),
], ids=["past-budget", "budget-1"])
def test_cli_divides_z_heap_rung_divides_strictly(tmp_path, capsys, divisor, flags):
    # The lead 2 does not divide the dividend's lead 1, so the heap rung's
    # first step proves g does not divide f.  Pseudo-division used to
    # rescale every live coefficient by 2 at each step and never returned.
    f = write(tmp_path, "f.sp", "sp 1\nring Z\nnvars 1\nterms 2\n-1 0\n1 1000000000000000\n")
    g = write(tmp_path, "g.sp", "sp 1\nring Z\nnvars 1\nterms 2\n" + divisor)
    assert main(["divides", f, g, "--stats", *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out == "false\n"
    stats = dict(line.split("=") for line in captured.err.splitlines())
    assert (stats["method"], stats["monte_carlo"]) == ("heap-divmod", "False")
    assert int(stats["ring_ops"]) < 10


def test_cli_divmod_pseudo_stops_at_the_bit_budget(tmp_path, capsys):
    f = write(tmp_path, "f.sp", "sp 1\nring Z\nnvars 1\nterms 2\n-1 0\n1 1000000000000000\n")
    g = write(tmp_path, "g.sp", "sp 1\nring Z\nnvars 1\nterms 2\n-1 0\n2 1\n")
    assert main(["divmod", f, g, "--pseudo"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_interp_spec_sizes(tmp_path, capsys):
    rng = random.Random(77)
    ref = random_sparse_poly(rng, terms=50, degbits=62, coeff_bits=39)
    oracle = write(tmp_path, "f.sp", dumps(ref))
    assert main([
        "interp", "--oracle", oracle, "--T", "50", "--D", str(1 << 62),
        "--seed", "7", "--stats",
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == dumps(ref)
    assert "probes=100" in captured.err


def test_cli_divmod_quotient_blowup(tmp_path, capsys):
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 100000), (-1, 0)])))
    g = write(tmp_path, "g.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (-1, 0)])))
    qout = str(tmp_path / "q.sp")
    rout = str(tmp_path / "r.sp")
    assert main(["divmod", f, g, "-q", qout, "-r", rout]) == 0
    q = load(qout)
    assert len(q.terms) == 100000 and all(t.coeff == 1 for t in q.terms)
    assert load(rout).is_zero()


def test_cli_divmod_stops_at_the_quotient_term_budget(tmp_path, capsys):
    # (x^(10^15) - 1) / (x - 1) has 10^15 quotient terms.
    f = write(tmp_path, "f.sp", "sp 1\nring Z\nnvars 1\nterms 2\n-1 0\n1 1000000000000000\n")
    g = write(tmp_path, "g.sp", "sp 1\nring Z\nnvars 1\nterms 2\n-1 0\n1 1\n")
    qout = tmp_path / "q.sp"
    assert main(["divmod", f, g, "-q", str(qout), "-r", str(tmp_path / "r.sp")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: quotient term budget exceeded\n"
    assert not qout.exists()


def test_cli_matches_library_results(tmp_path, capsys):
    # the CLI is a thin adapter: identical results to direct library calls
    import supersparse as sp

    rng = random.Random(88)
    f = random_sparse_poly(rng, terms=12, degbits=30, coeff_bits=10)
    g = random_sparse_poly(rng, terms=9, degbits=30, coeff_bits=10)
    fa = write(tmp_path, "a.sp", dumps(f))
    gb = write(tmp_path, "b.sp", dumps(g))
    assert main(["mul", fa, gb]) == 0
    assert loads(capsys.readouterr().out) == sp.mul_heap(f, g)[0]
    assert main(["add", fa, gb]) == 0
    assert loads(capsys.readouterr().out) == sp.add(f, g)
    assert main(["divides", fa, gb]) == 0
    answer = capsys.readouterr().out.strip() == "true"
    assert answer == sp.divides(f, g)
    assert main(["roots-linear", fa, "--seed", "3"]) == 0
    printed = capsys.readouterr().out.split()
    lib = [f"{a}/{b}" for a, b in sp.linear_rational_factors(f, random.Random(3))]
    assert printed == lib


def test_cli_interp_field_oracle(tmp_path, capsys):
    rng = random.Random(3)
    import supersparse as sp

    ctx = sp.find_smooth_prime(1 << 16, 2, rng)
    F = Zp(ctx.p)
    ref = random_sparse_poly(rng, terms=6, degbits=16, ring=F)
    oracle = write(tmp_path, "f.sp", dumps(ref))
    assert main([
        "interp", "--oracle", oracle, "--T", "6", "--D", str(1 << 16), "--seed", "1",
    ]) == 0
    assert loads(capsys.readouterr().out) == ref


@pytest.mark.parametrize("field", [False, True], ids=["Z", "Zp"])
@pytest.mark.parametrize("nvars", [1, 3])
def test_cli_interp_matches_library(tmp_path, capsys, field, nvars):
    import supersparse as sp

    D = 1 << 12
    rng = random.Random(10 * nvars + field)
    ring = Zp(sp.find_smooth_prime(D ** nvars, 2, rng).p) if field else ZZ
    ref = random_sparse_poly(rng, terms=10, degbits=12, nvars=nvars, coeff_bits=90, ring=ring)
    oracle = write(tmp_path, "f.sp", dumps(ref))
    assert main([
        "interp", "--oracle", oracle, "--T", "10", "--D", str(D),
        "--verify", "2", "--seed", "5", "--stats",
    ]) == 0
    captured = capsys.readouterr()
    H = None if field else sp.height(ref)
    cfg = sp.InterpConfig(T=10, D=D, H=H, verify_trials=2, seed=5)
    stats = sp.InterpStats()
    out = sp.interpolate_multivariate(sp.ProbeCountingOracle.from_poly(ref), cfg, nvars, D, stats)
    assert out == ref and captured.out == dumps(out)
    assert captured.err == (
        f"probes={stats.probes}\nrecurrence_degree={stats.recurrence_degree}\n"
        f"crt_primes={len(stats.crt_primes)}\nearly_stopped={stats.early_stopped}\n"
        f"verify_trials={stats.verify_trials}\n"
    )
    assert stats.verify_trials == 2


# A smooth prime with a subgroup for every packed degree below _INTERP_D^3.
_INTERP_D = 1 << 10


@functools.cache
def _interp_field():
    return Zp(supersparse.find_smooth_prime(_INTERP_D ** 3, 2, random.Random(0)).p)


@st.composite
def interp_oracles(draw):
    """Oracles over Z (20- or 100-bit heights) and over a smooth Z_p, t <= 8."""
    nvars = draw(st.integers(1, 3))
    if draw(st.booleans()):
        ring = _interp_field()
        coeffs = st.integers(1, ring.modulus - 1)
    else:
        ring = ZZ
        bound = 1 << draw(st.sampled_from([20, 100]))
        coeffs = st.integers(-bound, bound)
    exps = st.tuples(*[st.integers(0, _INTERP_D - 1)] * nvars)
    pairs = draw(st.lists(st.tuples(coeffs, exps), min_size=1, max_size=8))
    return canonicalize(pairs, nvars, ring)


@settings(max_examples=60, deadline=None)
@given(interp_oracles(), st.integers(0, 3), st.booleans(), st.integers(0, 1 << 16))
def test_cli_interp_matches_library_property(tmp_path_factory, ref, extra, early, seed):
    T = max(1, len(ref)) + extra
    oracle = write(tmp_path_factory.mktemp("interp"), "f.sp", dumps(ref))
    argv = ["interp", "--oracle", oracle, "--T", str(T), "--D", str(_INTERP_D),
            "--seed", str(seed), "--stats"] + ["--early"] * early
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    H = None if ref.ring.is_field else max(1, supersparse.height(ref))
    cfg = supersparse.InterpConfig(T=T, D=_INTERP_D, H=H, early_termination=early, seed=seed)
    stats = supersparse.InterpStats()
    oracle_bb = supersparse.ProbeCountingOracle.from_poly(ref)
    lib = supersparse.interpolate_multivariate(oracle_bb, cfg, ref.nvars, _INTERP_D, stats)
    assert lib == ref and out.getvalue() == dumps(lib)
    assert err.getvalue() == (
        f"probes={stats.probes}\nrecurrence_degree={stats.recurrence_degree}\n"
        f"crt_primes={len(stats.crt_primes)}\nearly_stopped={stats.early_stopped}\n"
        f"verify_trials={stats.verify_trials}\n"
    )


_DIFF_RINGS = (ZZ, Zp(2), Zp(97))


def _small_poly(draw, ring, nvars):
    coeffs = st.integers(-30, 30)
    exps = st.tuples(*[st.integers(0, 24)] * nvars)
    return canonicalize(draw(st.lists(st.tuples(coeffs, exps), max_size=6)), nvars, ring)


@st.composite
def cli_operands(draw):
    """Two small polynomials over Z, Z_2 or Z_97; now and then their rings or arities differ."""
    ring = draw(st.sampled_from(_DIFF_RINGS))
    nvars = draw(st.sampled_from([1, 1, 1, 2]))
    f = _small_poly(draw, ring, nvars)
    if draw(st.integers(0, 7)) == 0:
        ring = draw(st.sampled_from(_DIFF_RINGS))
        nvars = draw(st.integers(1, 2))
    return f, _small_poly(draw, ring, nvars)


def _cli_requests(fa, ga, f, g, draw):
    """(argv, library call, writer of the call's result as the CLI prints it) per subcommand."""
    budget = draw(st.sampled_from([None, 0, 3]))
    seed = draw(st.integers(0, 3))
    bound = draw(st.integers(1, 30))
    nvars = draw(st.integers(1, 3))
    gamma = draw(st.sampled_from([None, 1, 5]))
    budget_flag = [] if budget is None else ["--dense-budget", str(budget)]

    def divides_call():
        stats = supersparse.ArithStats()
        answer = supersparse.divides(
            f, g, dense_budget_terms=budget, rng=random.Random(seed), stats=stats
        )
        return answer, stats

    def divides_text(result):
        return "true\n" if result[0] else "false\n"

    def gapsplit_call():
        return supersparse.gap_split(f, gamma or supersparse.poly.default_gap_threshold(f))

    def gapsplit_text(split):
        return "".join(f"shift {shift}\n" + dumps(block) for block, shift in split.blocks)

    def divmod_call(pseudo):
        return lambda: supersparse.divmod_heap(
            f, g, pseudo=pseudo, max_quotient_terms=supersparse.arith.DEFAULT_TERM_BUDGET
        )[:2]

    yield ["add", fa, ga], lambda: supersparse.add(f, g), dumps
    yield ["sub", fa, ga], lambda: supersparse.sub(f, g), dumps
    yield ["mul", fa, ga], lambda: supersparse.mul(f, g), dumps
    yield ["mul", fa, ga, "--algo", "kronecker"], lambda: supersparse.mul_kronecker(f, g), dumps
    yield ["mul", fa, ga, "--algo", "heap"], lambda: supersparse.mul_heap(f, g)[0], dumps
    yield ["mul", fa, ga, "--algo", "naive"], lambda: supersparse.mul_naive(f, g), dumps
    for pseudo in (False, True):
        argv = ["divmod", fa, ga] + ["--pseudo"] * pseudo
        yield argv, divmod_call(pseudo), lambda qr: dumps(qr[0]) + dumps(qr[1])
    argv = ["divides", fa, ga, "--seed", str(seed), "--stats", *budget_flag]
    yield argv, divides_call, divides_text
    yield ["pack", fa, "--bound", str(bound)], lambda: supersparse.kronecker_pack(f, bound), dumps
    argv = ["unpack", fa, "--bound", str(bound), "--nvars", str(nvars)]
    yield argv, lambda: supersparse.kronecker_unpack(f, bound, nvars), dumps
    argv = ["gapsplit", fa] + ([] if gamma is None else ["--gamma", str(gamma)])
    yield argv, gapsplit_call, gapsplit_text


@settings(max_examples=200, deadline=None)
@given(cli_operands(), st.data())
def test_cli_matches_library_property(tmp_path_factory, operands, data):
    # Each subcommand prints what its library call returns, and exits 1 with
    # that call's one-line error exactly when the call raises a domain error.
    f, g = operands
    folder = tmp_path_factory.mktemp("diff")
    fa, ga = write(folder, "f.sp", dumps(f)), write(folder, "g.sp", dumps(g))
    for argv, call, text in _cli_requests(fa, ga, f, g, data.draw):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        try:
            result = call()
        except supersparse.SupersparseError as e:
            assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {e}\n"), argv
            continue
        assert (code, out.getvalue()) == (0, text(result)), argv
        if argv[0] == "divides":
            s = result[1]
            assert err.getvalue() == (
                f"ring_ops={s.ring_ops}\ncomparisons={s.comparisons}\npeak_heap={s.peak_heap}\n"
                f"method={s.method}\nmonte_carlo={s.monte_carlo}\n"
            ), argv


def test_cli_pack_unpack(tmp_path, capsys):
    f = from_pairs(ZZ, 2, [(1, (1, 0)), (1, (0, 2))])
    a = write(tmp_path, "f.sp", dumps(f))
    assert main(["pack", a, "--bound", "3"]) == 0
    packed_text = capsys.readouterr().out
    packed = loads(packed_text)
    assert [t.exps[0] for t in packed.terms] == [1, 6]
    b = write(tmp_path, "p.sp", packed_text)
    assert main(["unpack", b, "--bound", "3", "--nvars", "2"]) == 0
    assert loads(capsys.readouterr().out) == f


def test_cli_evalmod(tmp_path, capsys):
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 5)])))
    h = write(tmp_path, "h.sp", dumps(from_pairs(ZZ, 1, [(1, 1)])))
    g = write(tmp_path, "g.sp", dumps(from_pairs(ZZ, 1, [(1, 2), (1, 0)])))
    assert main(["evalmod", f, "--h", h, "--g", g]) == 0
    assert loads(capsys.readouterr().out) == from_pairs(ZZ, 1, [(1, 1)])


def test_cli_evalmod_rejects_mixed_rings(tmp_path, capsys):
    # g over Z_7 used to be reduced mod 5 silently.
    f = write(tmp_path, "f.sp", dumps(from_pairs(Zp(5), 1, [(1, 5)])))
    h = write(tmp_path, "h.sp", dumps(from_pairs(Zp(5), 1, [(1, 1)])))
    g = write(tmp_path, "g.sp", dumps(from_pairs(Zp(7), 1, [(1, 3), (6, 0)])))
    assert main(["evalmod", f, "--h", h, "--g", g]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_evalmod_z_past_the_bit_budget(tmp_path, capsys):
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 1 << 40)])))
    h = write(tmp_path, "h.sp", dumps(from_pairs(ZZ, 1, [(2, 1)])))
    g = write(tmp_path, "g.sp", dumps(from_pairs(ZZ, 1, [(1, 2), (1, 0)])))
    assert main(["evalmod", f, "--h", h, "--g", g]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_evalmod_stats_over_zp(tmp_path, capsys, monkeypatch):
    # h != x over a 31-bit prime: the CLI takes the batched walk, and its
    # output and ring_ops equal the per-term loop's.
    from supersparse import dense, eval_mod, to_dense

    F = Zp((1 << 31) - 1)
    rng = random.Random(31)
    f = random_sparse_poly(rng, terms=dense._BATCH_MIN_TERMS + 8, degbits=70, ring=F)
    h = from_pairs(F, 1, [(rng.randrange(1, F.modulus), e) for e in range(9)])
    g = from_pairs(F, 1, [(rng.randrange(1, F.modulus), e) for e in range(12)] + [(1, 12)])
    paths = [write(tmp_path, f"{n}.sp", dumps(q)) for n, q in (("f", f), ("h", h), ("g", g))]
    walks = []
    walk = dense._sum_of_powers_batched
    monkeypatch.setattr(dense, "_sum_of_powers_batched", lambda *a: walks.append(1) or walk(*a))
    assert main(["evalmod", paths[0], "--h", paths[1], "--g", paths[2], "--stats"]) == 0
    captured = capsys.readouterr()
    assert walks == [1]
    monkeypatch.setattr(dense, "_BATCH_MAX_DEG", 0)
    ops = dense.OpCounter()
    want = eval_mod(f, to_dense(h), to_dense(g), ops)
    assert loads(captured.out) == from_dense(want)
    assert ops.total > 0 and captured.err == f"ring_ops={ops.total}\n"


@pytest.mark.parametrize(
    "text, D",
    [
        ("sp 1\nring Z\nnvars 1\nterms 2\n1 0\n1 3\n", 2),
        ("sp 1\nring Z\nnvars 1\nterms 2\n1 0\n1 3\n", 3),
        ("sp 1\nring Z\nnvars 2\nterms 2\n1 0 1\n1 1 3\n", 2),
        ("sp 1\nring Z\nnvars 2\nterms 2\n1 0 1\n1 3 1\n", 3),
    ],
    ids=["x3-D2", "x3-D3", "2var-D2", "2var-first-D3"],
)
def test_cli_interp_rejects_oracle_above_degree_bound(tmp_path, capsys, text, D):
    # x^3 + 1 with D = 2 used to print x + 1 with exit 0: exponents alias
    # modulo 2^k when 2^k = D.
    oracle = write(tmp_path, "f.sp", text)
    assert main(["interp", "--oracle", oracle, "--T", "2", "--D", str(D)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: oracle exponent 3 is not below D = {D}\n"


def test_cli_interp_too_small_T_says_to_raise_it(tmp_path, capsys):
    # x^3 + 1 has two terms; with T = 1 the degree-1 recurrence fitted
    # to two probes does not split in the subgroup.
    oracle = write(tmp_path, "f.sp", "sp 1\nring Z\nnvars 1\nterms 2\n1 0\n1 3\n")
    assert main(["interp", "--oracle", oracle, "--T", "1", "--D", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: roots are not distinct subgroup elements: the recurrence has the full "
        "degree T = 1, so the oracle may have more than T terms; raise --T\n"
    )
    assert main(["interp", "--oracle", oracle, "--T", "2", "--D", "4"]) == 0
    assert loads(capsys.readouterr().out) == from_pairs(ZZ, 1, [(1, 3), (1, 0)])


def test_cli_gapsplit(tmp_path, capsys):
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 1000), (1, 999), (1, 1), (1, 0)])))
    assert main(["gapsplit", f, "--gamma", "500"]) == 0
    out = capsys.readouterr().out
    assert "shift 0" in out and "shift 999" in out


def test_cli_roots_and_powers(tmp_path, capsys):
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 1 << 20), (-1, 0)])))
    assert main(["roots-linear", f]) == 0
    assert capsys.readouterr().out.split() == ["-1/1", "1/1"]
    sq = write(tmp_path, "sq.sp", dumps(from_pairs(ZZ, 1, [(1, 2), (2, 1), (1, 0)])))
    assert main(["perfect-power", sq]) == 0
    out = capsys.readouterr().out
    assert "k=2" in out
    base = write(tmp_path, "base.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (1, 0)])))
    assert main(["certify-power", sq, "--g", base, "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "true"


@pytest.mark.parametrize(
    "f_text, message",
    [
        ("sp 1\nring Z\nnvars 2\nterms 1\n1 2 0\n", "error: arities differ: 2 vs 1\n"),
        ("sp 1\nring Zp 7\nnvars 1\nterms 1\n1 2\n", "error: rings differ: Zp 7 vs Z\n"),
    ],
    ids=["arity", "ring"],
)
def test_cli_certify_power_incompatible_is_one_line_error(tmp_path, capsys, f_text, message):
    # Both used to print "false" with exit 0: unlike operands compared unequal.
    f = write(tmp_path, "f.sp", f_text)
    x = write(tmp_path, "x.sp", "sp 1\nring Z\nnvars 1\nterms 1\n1 1\n")
    assert main(["certify-power", f, "--g", x, "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_cli_bench_determinism(capsys):
    assert main(["bench", "mul", "--terms", "40", "--degbits", "40", "--trials", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["bench", "mul", "--terms", "40", "--degbits", "40", "--trials", "3", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    rows1 = [line.split(",") for line in first.strip().splitlines()]
    rows2 = [line.split(",") for line in second.strip().splitlines()]
    assert rows1[0] == rows2[0]
    wall_idx = rows1[0].index("wall_nanoseconds")
    for r1, r2 in zip(rows1[1:], rows2[1:]):
        for i, (a, b) in enumerate(zip(r1, r2)):
            if i != wall_idx:
                assert a == b


def test_cli_bench_interp_wrong_result_is_one_line_error(capsys, monkeypatch):
    # A wrong interpolation must not be timed and printed as a normal row,
    # also under python -O, which strips assert statements.
    recover = supersparse.interp.interpolate_integer

    def off_by_one(bb, cfg, stats=None):
        return supersparse.add(recover(bb, cfg, stats), from_pairs(ZZ, 1, [(1, 0)]))

    monkeypatch.setattr(supersparse.interp, "interpolate_integer", off_by_one)
    assert main(["bench", "interp", "--terms", "5", "--degbits", "20", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: interpolation recovered a polynomial other than the oracle's\n"


def test_random_sparse_poly_rejects_impossible_support():
    # used to loop forever looking for distinct exponents
    rng = random.Random(0)
    for terms, degbits, nvars in ((5, 0, 1), (3, 1, 1), (5, 1, 2)):
        with pytest.raises(ValueError):
            random_sparse_poly(rng, terms=terms, degbits=degbits, nvars=nvars)
    f = random_sparse_poly(rng, terms=4, degbits=1, nvars=2)
    assert len(f.terms) == 4


def test_cli_bench_all_operations(capsys):
    for op in ("mul", "mul-naive", "divides", "divides-z", "interp"):
        assert main(["bench", op, "--terms", "12", "--degbits", "30",
                     "--trials", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("operation,t_f")
        assert len(out) == 3
        for row in out[1:]:
            fields = row.split(",")
            assert fields[0].startswith(op.split("-")[0]) or fields[0] == op
            assert int(fields[4]) == 30


def test_cli_bench_divides_z_names_the_deciding_rung(capsys):
    # Below the dense budget the whole product is divided.  Past it the
    # planted divisor of degree 31 is accepted by its six gap blocks, each
    # c * g: one quotient term of 31 + 2 products and 31 + 1 sums apiece.
    for degbits, operation in ((10, "divides-z-dense-exact"), (40, "divides-z-gap-blocks")):
        assert main(["bench", "divides-z", "--terms", "100", "--degbits", str(degbits),
                     "--seed", "1"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert (record["operation"], record["t_g"]) == (operation, "16")
    assert (record["t_f"], record["ring_ops"]) == ("96", str(6 * 65))


def test_cli_error_exit_codes(tmp_path, capsys):
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 1)])))
    z = write(tmp_path, "z.sp", dumps(zero(ZZ, 1)))
    assert main(["divmod", f, z]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["mul", f]) == 2  # missing operand: usage error
    assert main(["nonsense"]) == 2
    assert main(["mul", f, str(tmp_path / "missing.sp")]) == 1


def test_cli_subprocess_entry(tmp_path):
    a = tmp_path / "a.sp"
    a.write_text(X_PLUS_1)
    # The child imports the package under test, also when only pytest's
    # pythonpath setting put it on sys.path.
    src = str(Path(supersparse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "supersparse", "add", str(a), str(a)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert loads(proc.stdout) == from_pairs(ZZ, 1, [(2, 1), (2, 0)])


def test_cli_dense_budget_variable_is_ignored(tmp_path):
    # No environment variable moves the dense budget: a malformed value and
    # one that would rule out every dense rung both leave divides as it is.
    g = tmp_path / "g.sp"
    g.write_text("sp 1\nring Z\nnvars 1\nterms 2\n1 0\n1 2\n")
    f = tmp_path / "f.sp"  # (x^2 + 1)(x^3 + 2)
    f.write_text("sp 1\nring Z\nnvars 1\nterms 4\n2 0\n2 2\n1 3\n1 5\n")
    src = str(Path(supersparse.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "SUPERSPARSE_DENSE_BUDGET"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(env, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "supersparse", *map(str, argv)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        return proc.stdout, proc.stderr

    unset = run(base, "divides", f, g, "--stats")
    assert unset[0] == "true\n" and "method=dense-exact\n" in unset[1]
    for value in ("1e5", "-1"):
        env = {**base, "SUPERSPARSE_DENSE_BUDGET": value}
        run(env, "add", g, g)
        run(env, "divides", "--help")
        assert run(env, "divides", f, g, "--stats") == unset


@pytest.mark.parametrize("mod", ["4", "0", "1"])
def test_cli_eval_mod_requires_prime(tmp_path, capsys, mod):
    # pow_mod reduces exponents mod m - 1, which is only valid for prime
    # m: x^3 at 2 mod 4 used to print 1, and --mod 0 fell back to exact.
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 3)])))
    assert main(["eval", f, "--point", "2", "--mod", mod]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert main(["eval", f, "--point", "2", "--mod", "5"]) == 0
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize(
    "argv, text, code",
    [
        (["eval", "{f}", "--point", "3,a"], None, 2),
        (["interp", "--oracle", "{f}", "--T", "0", "--D", "8"], None, 2),
        (["interp", "--oracle", "{f}", "--T", "2", "--D", "0"], None, 2),
        (["gapsplit", "{f}", "--gamma", "-1"], None, 2),
        (["gapsplit", "{f}", "--gamma", "0"], None, 2),
        (["certify-power", "{f}", "--g", "{f}", "--k", "0"], None, 2),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars x\nterms 0\n", 1),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars 1\nterms 1.5\n", 1),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars 1\nterms 1\nc 0\n", 1),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars 1\nterms 1\n1 e\n", 1),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars 1\nterms -1\n", 1),
        (["perfect-power", "{f}", "--confidence", "nan"], None, 2),
        (["perfect-power", "{f}", "--confidence", "2"], None, 2),
        (["perfect-power", "{f}", "--confidence", "-1"], None, 2),
        (["perfect-power", "{f}", "--confidence", "1"], None, 2),
        (["perfect-power", "{f}"], "sp 1\nring Z\nnvars 1\nterms 0\n", 1),
        (["perfect-power", "{f}"], "sp 1\nring Z\nnvars 1\nterms 1\n5 0\n", 1),
        (["interp", "--oracle", "{f}", "--T", "2", "--D", "8", "--verify", "-1"], None, 2),
        # 2 * 10^8 probes is past the probe budget: refused before probing.
        (["interp", "--oracle", "{f}", "--T", "100000000", "--D", "8"], None, 1),
        (["bench", "mul", "--degbits", "0", "--terms", "5"], None, 2),
        (["bench", "interp", "--terms", "3", "--degbits", "1"], None, 2),
        (["bench", "mul", "--terms", "0"], None, 2),
        (["bench", "mul", "--trials", "-1"], None, 2),
        (["unpack", "{f}", "--bound", "-2", "--nvars", "2"], None, 1),
        # A term line past the declared count used to be dropped silently.
        (["add", "{f}", "{f}"], "sp 1\nring Z\nnvars 1\nterms 1\n1 0\n5 7\n", 1),
        # 10^3000 x at x = 10^2000 is readable but past the int-to-text limit.
        (["eval", "{f}", "--point", "1" + "0" * 2000],
         "sp 1\nring Z\nnvars 1\nterms 1\n1" + "0" * 3000 + " 1\n", 1),
        # A leading NAME=value sets that environment variable, as in a shell.
        # The dense budget reads none, so a malformed value changes nothing.
        (["SUPERSPARSE_DENSE_BUDGET=1e5", "divides", "{f}", "{f}"], None, 0),
        # "." is a directory: reading or writing it is an OSError, not a traceback.
        (["add", ".", "{f}"], None, 1),
        (["add", "{f}", "{f}"], b"sp 1\nring Z\nnvars 1\nterms 1\n\xff 0\n", 1),
        (["mul", "{f}", "{f}", "-o", "."], None, 1),
    ],
    ids=["point", "T0", "D0", "gamma-neg", "gamma0", "k0",
         "nvars-token", "terms-token", "coeff-token", "exp-token", "terms-negative",
         "confidence-nan", "confidence-2", "confidence-neg", "confidence-1",
         "perfect-power-zero", "perfect-power-constant",
         "verify-neg", "T-past-budget", "bench-degbits0", "bench-terms-over-support", "bench-terms0",
         "bench-trials-neg", "unpack-bound-neg", "trailing-text", "eval-long-value",
         "dense-budget-env", "read-directory", "not-utf8", "write-directory"],
)
def test_cli_bad_input_is_one_line_error(tmp_path, capsys, monkeypatch, argv, text, code):
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    f = write(tmp_path, "f.sp", text or dumps(from_pairs(ZZ, 1, [(1, 3), (1, 0)])))
    assert main([a.format(f=f) for a in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 1:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_eval_long_value_names_the_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    big = write(tmp_path, "big.sp", f"sp 1\nring Z\nnvars 1\nterms 1\n1{'0' * (limit - 1)} 1\n")
    assert main(["eval", big, "--point", "1" + "0" * (limit - 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a number to write has more than {limit} digits, Python's int-str conversion limit\n"
    )


def test_cli_calls_share_no_state(tmp_path, capsys):
    # One parser serves every call in a process; flags must not carry over.
    f = write(tmp_path, "f.sp", dumps(from_pairs(ZZ, 1, [(1, 1 << 30), (-1, 0)])))
    g = write(tmp_path, "g.sp", dumps(from_pairs(ZZ, 1, [(1, 1), (-1, 0)])))
    assert main(["divides", f, g, "--stats"]) == 0
    assert "method=" in capsys.readouterr().err
    assert main(["divides", f, g]) == 0
    captured = capsys.readouterr()
    assert captured.out == "true\n" and captured.err == ""
    assert main(["mul", f, g, "--algo", "naive", "--stats"]) == 0
    assert "method=naive" in capsys.readouterr().err.splitlines()
    assert main(["mul", f, g]) == 0
    assert capsys.readouterr().err == ""
    assert main(["mul", f, g, "--stats"]) == 0
    assert "method=word-vector" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("text", [
    "sp 1\nring Zp 2\nnvars 1\nterms 1\n1 0\n",
    "sp 1\nring Zp 2\nnvars 1\nterms 0\n",
], ids=["one", "zero"])
@pytest.mark.parametrize("flags", [[], ["--verify", "2"]], ids=["plain", "verify"])
def test_cli_interp_over_z2(tmp_path, capsys, text, flags):
    # Z_2 has the subgroup of order 2^0 = {1} only; building its context
    # used to end in "negative shift count" and a traceback.
    oracle = write(tmp_path, "f.sp", text)
    assert main(["interp", "--oracle", oracle, "--T", "1", "--D", "1", *flags]) == 0
    assert capsys.readouterr().out == text
    # D = 2 needs a subgroup of order 2, which Z_2 lacks.
    assert main(["interp", "--oracle", oracle, "--T", "1", "--D", "2"]) == 1
    assert capsys.readouterr().err == "error: 2-part of 2 - 1 is 2^0, below required subgroup 2\n"


# Small inputs at the edges of every reader: the zero polynomial, constants
# and x over Z_2 and Z_3, two variables, and an exponent past 2^64.
EDGE_INPUTS = {
    "zero": "sp 1\nring Z\nnvars 1\nterms 0\n",
    "zero-z2": "sp 1\nring Zp 2\nnvars 1\nterms 0\n",
    "one-z2": "sp 1\nring Zp 2\nnvars 1\nterms 1\n1 0\n",
    "x-z2": "sp 1\nring Zp 2\nnvars 1\nterms 1\n1 1\n",
    "two-z3": "sp 1\nring Zp 3\nnvars 1\nterms 1\n2 0\n",
    "x-z3": "sp 1\nring Zp 3\nnvars 1\nterms 2\n1 0\n1 1\n",
    "bivariate": "sp 1\nring Z\nnvars 2\nterms 2\n-1 0 5\n3 1 2\n",
    "huge": f"sp 1\nring Z\nnvars 1\nterms 2\n-2 0\n1 {(1 << 64) + 1}\n",
}


def _edge_argvs(paths: dict, nvars: dict):
    for name, f in paths.items():
        zeros = ",".join("0" * nvars[name])
        for D in ("1", "2", str(1 << 66)):
            for flags in ([], ["--early"], ["--verify", "2"]):
                yield ["interp", "--oracle", f, "--T", "2", "--D", D, *flags]
        yield ["eval", f, "--point", zeros]
        yield ["eval", f, "--point", zeros, "--mod", "3"]
        yield ["evalmod", f, "--h", f, "--g", f, "--stats"]
        yield ["pack", f, "--bound", "1"]
        yield ["unpack", f, "--bound", "1", "--nvars", "1"]
        yield ["gapsplit", f]
        yield ["roots-linear", f]
        yield ["perfect-power", f]
        yield ["certify-power", f, "--g", f, "--k", "1"]
        for g in paths.values():
            yield ["add", f, g]
            yield ["sub", f, g]
            for algo in ([], ["--algo", "heap"], ["--algo", "naive"], ["--algo", "kronecker"]):
                yield ["mul", f, g, *algo]
            yield ["divmod", f, g, "--pseudo", "--stats"]
            yield ["divides", f, g, "--stats"]


def test_cli_edge_inputs_never_raise(tmp_path, capsys):
    # Every subcommand over every edge input (and every pair of them) ends
    # in a result, a one-line domain error or a usage error.
    paths = {name: write(tmp_path, f"{name}.sp", text) for name, text in EDGE_INPUTS.items()}
    nvars = {name: loads(text).nvars for name, text in EDGE_INPUTS.items()}
    bad = []
    for argv in _edge_argvs(paths, nvars):
        code = main(argv)
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or code == 1 and not (
            err.startswith("error: ") and err.count("\n") == 1
        ):
            bad.append((argv, code, err))
    assert bad == []
