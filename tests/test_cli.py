import random
import subprocess
import sys

import pytest

from supersparse import ZZ, Zp, from_pairs, zero
from supersparse.bench import random_sparse_poly
from supersparse.cli import main
from supersparse.polyfile import dumps, load, loads, read_block

X_PLUS_1 = "sp 1\nring Z\nnvars 1\nterms 2\n1 0\n1 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
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


def test_polyfile_rejects_garbage():
    from supersparse import FormatError

    for bad in (
        "nope\n",
        "sp 1\nring Q\nnvars 1\nterms 0\n",
        "sp 1\nring Z\nnvars 1\nterms 2\n1 0\n",
        "sp 1\nring Z\nnvars 1\nterms 1\n1 0 3\n",
        "sp 1\nring Zp 15\nnvars 1\nterms 0\n",
        "sp 1\nring Z\nnvars 1\nterms 1\n1 -2\n",
    ):
        with pytest.raises(FormatError):
            loads(bad)


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
    for algo in ("heap", "naive", "kronecker"):
        assert main(["mul", a, b, "--algo", algo]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


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


def test_cli_bench_all_operations(capsys):
    for op in ("mul", "mul-naive", "divides", "interp"):
        assert main(["bench", op, "--terms", "12", "--degbits", "30",
                     "--trials", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("operation,t_f")
        assert len(out) == 3
        for row in out[1:]:
            fields = row.split(",")
            assert fields[0].startswith(op.split("-")[0]) or fields[0] == op
            assert int(fields[4]) == 30


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
    proc = subprocess.run(
        [sys.executable, "-m", "supersparse", "add", str(a), str(a)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert loads(proc.stdout) == from_pairs(ZZ, 1, [(2, 1), (2, 0)])


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
        (["interp", "--oracle", "{f}", "--T", "2", "--D", "8", "--H", "0"], None, 2),
        (["gapsplit", "{f}", "--gamma", "-1"], None, 2),
        (["gapsplit", "{f}", "--gamma", "0"], None, 2),
        (["certify-power", "{f}", "--g", "{f}", "--k", "0"], None, 2),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars x\nterms 0\n", 1),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars 1\nterms 1.5\n", 1),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars 1\nterms 1\nc 0\n", 1),
        (["eval", "{f}", "--point", "1"], "sp 1\nring Z\nnvars 1\nterms 1\n1 e\n", 1),
    ],
    ids=["point", "T0", "D0", "H0", "gamma-neg", "gamma0", "k0",
         "nvars-token", "terms-token", "coeff-token", "exp-token"],
)
def test_cli_bad_input_is_one_line_error(tmp_path, capsys, argv, text, code):
    f = write(tmp_path, "f.sp", text or dumps(from_pairs(ZZ, 1, [(1, 3), (1, 0)])))
    assert main([a.format(f=f) for a in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 1:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
