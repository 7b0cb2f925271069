"""Seeded request mixes for the four benchmark workloads.

Every workload is one *cycle*: a fixed list of CLI requests whose shapes
(operation, ring, term counts, exponent and coefficient sizes) are fixed
here and whose contents (exponents, coefficients, primes, planted
answers) come from the seed.  The same seed gives byte-identical input
files; a different seed changes contents but not shapes, so the cost of
a cycle stays put from seed to seed.

Nothing here imports supersparse: inputs are built and written with the
benchmark's own exact arithmetic, and planted answers (verdicts, roots,
powers) are known by construction.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("mul-word", "heap-wide", "divides", "interp")

# p = 2^64 - 2^32 + 1: p - 1 has a 2^32 subgroup, so D up to 2^32 fits.
GOLDILOCKS = (1 << 64) - (1 << 32) + 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below 3.3e24, far above any prime used here."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(n):
            return n


# ---------------------------------------------------------------------------
# Exact sparse arithmetic on {exponent tuple: coefficient} dicts.

def pmul(a: dict, b: dict, p: int | None = None) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return _clean(out, p)


def padd(a: dict, b: dict, p: int | None = None) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out, p)


def _clean(d: dict, p: int | None) -> dict:
    if p is not None:
        d = {e: c % p for e, c in d.items()}
    return {e: c for e, c in d.items() if c}


def rand_coeff(rng: random.Random, bits: int, p: int | None = None) -> int:
    if p is not None:
        return rng.randrange(1, p)
    c = rng.randrange(1, 1 << bits)
    return -c if rng.random() < 0.5 else c


def rand_poly(rng, terms, *, nvars=1, exp_bits=60, coeff_bits=20, p=None) -> dict:
    """`terms` distinct monomials with exponents below 2^exp_bits per variable."""
    out: dict = {}
    while len(out) < terms:
        e = tuple(rng.randrange(1 << exp_bits) for _ in range(nvars))
        out.setdefault(e, rand_coeff(rng, coeff_bits, p))
    return out


def sp_text(d: dict, nvars: int, p: int | None = None) -> str:
    """The canonical file text: terms ascending in colex order, no zeros."""
    ring = "ring Z" if p is None else f"ring Zp {p}"
    items = sorted(((e, c) for e, c in d.items() if c), key=lambda ec: ec[0][::-1])
    lines = ["sp 1", ring, f"nvars {nvars}", f"terms {len(items)}"]
    lines += [" ".join(map(str, (c,) + e)) for e, c in items]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Requests.

class Mix:
    """Collects one cycle: the input files to write and the requests."""

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: dict[str, str] = {}
        self.requests: list[dict] = []

    def poly(self, name: str, d: dict, nvars: int = 1, p: int | None = None) -> str:
        self.files[name] = sp_text(d, nvars, p)
        return name

    def add(self, kind: str, argv: list[str], check: dict, *, stats: bool = True) -> None:
        rid = f"{len(self.requests):02d}-{kind}"
        self.requests.append({
            "id": rid,
            "kind": kind,
            "argv": argv + (["--stats"] if stats else []),
            "check": check,
            "seed": self.rng.randrange(1 << 30),
        })


def _mul(mix: Mix, kind: str, tf: int, tg: int, **shape) -> None:
    i = len(mix.requests)
    a = mix.poly(f"r{i}_f.sp", rand_poly(mix.rng, tf, **shape), shape.get("nvars", 1), shape.get("p"))
    b = mix.poly(f"r{i}_g.sp", rand_poly(mix.rng, tg, **shape), shape.get("nvars", 1), shape.get("p"))
    out = f"r{i}_out.sp"
    mix.add(kind, ["mul", a, b, "-o", out], {"type": "product", "f": a, "g": b, "out": out})


def gen_mul_word(mix: Mix, scale: float) -> None:
    # 60-bit exponents and 20-bit coefficients: every packed key and every
    # coefficient product fits a machine word.  Every fourth pair draws
    # both supports from the same 12-bit range, so most products collide
    # and the heap's equal-key chaining carries the load.
    wide = [(200, 200), (200, 250), (225, 275), (250, 250), (250, 300),
            (275, 225), (300, 200), (300, 300), (225, 225)]
    overlap = [(300, 300), (400, 400), (500, 500)]
    for k in range(12):
        if k % 4 == 3:
            tf, tg = overlap[k // 4]
            _mul(mix, "mul-overlap12", _s(tf, scale), _s(tg, scale), exp_bits=12)
        else:
            tf, tg = wide[k - k // 4]
            _mul(mix, "mul-word60", _s(tf, scale), _s(tg, scale), exp_bits=60)


def gen_heap_wide(mix: Mix, scale: float) -> None:
    # Operands where packed keys or coefficients outgrow a machine word.
    p61 = random_prime(mix.rng, 61)
    for tf, tg in ((200, 200), (170, 240)):
        tf, tg = _s(tf, scale), _s(tg, scale)
        _mul(mix, "mul-3var48", tf, tg, nvars=3, exp_bits=48)
        _mul(mix, "mul-exp200", tf, tg, exp_bits=200)
        _mul(mix, "mul-coeff100", tf, tg, coeff_bits=100)
        _mul(mix, "mul-zp61", tf, tg, p=p61)
    # divmod: f = q*g + r with a monic 40-term divisor of degree > 2^40,
    # so the heap holds one pending product per divisor term.
    rng = mix.rng
    g = rand_poly(rng, 39, exp_bits=40)
    dg = (1 << 40) + rng.randrange(1 << 20)
    g[(dg,)] = 1
    q = rand_poly(rng, _s(2500, scale), exp_bits=60)
    r = {(rng.randrange(1, dg),): rand_coeff(rng, 20) for _ in range(20)}
    f = padd(pmul(q, g), r)
    i = len(mix.requests)
    fa = mix.poly(f"r{i}_f.sp", f)
    ga = mix.poly(f"r{i}_g.sp", g)
    qo, ro = f"r{i}_q.sp", f"r{i}_r.sp"
    mix.add("divmod", ["divmod", fa, ga, "-q", qo, "-r", ro],
            {"type": "divmod", "f": fa, "g": ga, "q": qo, "r": ro})


def _divisor(rng, p: int | None) -> dict:
    # 16 terms, degree exactly 31, nonzero constant term.
    g = {(e,): rand_coeff(rng, 20, p) for e in rng.sample(range(1, 31), 14)}
    g[(0,)] = rand_coeff(rng, 20, p)
    g[(31,)] = rand_coeff(rng, 20, p) if p is not None else rng.randrange(1, 1 << 20)
    if p is None:
        g[(0,)] = 1  # content 1, so the divisor is primitive
    return g


def _walk_exponent(rng) -> int:
    """A 60-bit exponent with exactly 30 bits set and the low 5 bits clear.

    Adding a divisor exponent below 32 then never carries, so every
    dividend exponent costs the same square-and-multiply walk, whatever
    the seed."""
    return (1 << 59) | sum(1 << b for b in rng.sample(range(5, 59), 29))


def _divides(mix: Mix, kind: str, p: int | None, s_terms: int, verdict: bool) -> None:
    rng = mix.rng
    g = _divisor(rng, p)
    s = {}
    while len(s) < s_terms:
        s[(_walk_exponent(rng),)] = rand_coeff(rng, 20, p)
    f = pmul(g, s, p)
    if not verdict:
        # f = g*s + r with 0 < deg r < deg g, so g leaves remainder r != 0.
        top = rng.randrange(1, 31)
        r = {(top,): rand_coeff(rng, 20, p)}
        r.update({(e,): rand_coeff(rng, 20, p) for e in rng.sample(range(top), min(2, top))})
        f = padd(f, r, p)
    i = len(mix.requests)
    fa = mix.poly(f"r{i}_f.sp", f, 1, p)
    ga = mix.poly(f"r{i}_g.sp", g, 1, p)
    mix.add(kind, ["divides", fa, ga, "--seed", str(rng.randrange(1 << 20))],
            {"type": "verdict", "expect": "true" if verdict else "false"})


def _no_rational_root_cofactor(rng, terms: int) -> dict:
    """s with s(0) = +-1 and lead +-1, so its only candidate rational
    roots are +-1 (rational root theorem); s(1), s(-1) != 0 rules those
    out too.  Exponents are spread so gaps dominate."""
    while True:
        s = {(0,): rng.choice((-1, 1))}
        e = 0
        for _ in range(terms - 2):
            e += rng.randrange(1 << 40, 1 << 41)
            s[(e,)] = rand_coeff(rng, 10)
        s[(e + rng.randrange(1 << 40, 1 << 41),)] = rng.choice((-1, 1))
        plus = sum(s.values())
        minus = sum(c if k[0] % 2 == 0 else -c for k, c in s.items())
        if plus and minus:
            return s


def _roots(mix: Mix, s_terms: int) -> None:
    # Numerators are the odd primes 3, 5, 7, 11 and denominators 1, 2, 4,
    # 8, paired and signed by the seed: the candidate list built from the
    # divisors of the end coefficients then has the same length every time.
    rng = mix.rng
    nums = [n * rng.choice((-1, 1)) for n in (3, 5, 7, 11)]
    dens = rng.sample((1, 2, 4, 8), 4)
    roots = [Fraction(a, b) for a, b in zip(nums, dens)]
    f = _no_rational_root_cofactor(rng, s_terms)
    for r in roots:
        f = pmul(f, {(0,): -r.numerator, (1,): r.denominator})
    i = len(mix.requests)
    fa = mix.poly(f"r{i}_f.sp", f)
    mix.add("roots-linear", ["roots-linear", fa, "--seed", str(rng.randrange(1 << 20))],
            {"type": "roots", "expect": sorted(f"{r.numerator}/{r.denominator}" for r in roots)},
            stats=False)


def _non_power_base(rng, terms: int) -> dict:
    """A base g that is no perfect power: its degree P is a 40-bit prime,
    so g = h^j forces j = P and h linear, and (a*x + b)^P has either one
    term or P + 1 terms, never 2 <= terms <= P."""
    P = random_prime(rng, 40)
    g = {(e,): rand_coeff(rng, 8) for e in rng.sample(range(1, P), terms - 2)}
    g[(0,)] = rand_coeff(rng, 8)
    g[(P,)] = rng.randrange(1, 1 << 8)
    return g


def _perfect_power(mix: Mix, g_terms: int, k: int) -> None:
    rng = mix.rng
    g = _non_power_base(rng, g_terms)
    f = {(0,): 1}
    for _ in range(k):
        f = pmul(f, g)
    i = len(mix.requests)
    fa = mix.poly(f"r{i}_f.sp", f)
    mix.add("perfect-power", ["perfect-power", fa, "--seed", str(rng.randrange(1 << 20))],
            {"type": "power", "expect": k}, stats=False)


def _certify(mix: Mix, g_terms: int, k: int, verdict: bool) -> None:
    rng = mix.rng
    g = rand_poly(rng, g_terms, exp_bits=60, coeff_bits=20)
    f = {(0,): 1}
    for _ in range(k):
        f = pmul(f, g)
    if not verdict:
        e = rng.choice(sorted(f))
        f[e] += 1
        f = _clean(f, None)
    i = len(mix.requests)
    fa = mix.poly(f"r{i}_f.sp", f)
    ga = mix.poly(f"r{i}_g.sp", g)
    mix.add("certify-power", ["certify-power", fa, "--g", ga, "--k", str(k)],
            {"type": "verdict", "expect": "true" if verdict else "false"}, stats=False)


def gen_divides(mix: Mix, scale: float) -> None:
    # Divisors of degree 31 with 16 terms over three prime sizes.  For a
    # 28-bit p the dense kernel's numpy path applies ((m+1)(p-1)^2 < 2^63);
    # for 31- and 61-bit p it falls back to packed bigints.  The 31- and
    # 61-bit requests are the largest group, so the median and the tail
    # fall inside them rather than between request kinds.
    rng = mix.rng
    primes = {bits: random_prime(rng, bits) for bits in (28, 31, 61)}
    s = _s(4, scale)
    _divides(mix, "divides-zp28", primes[28], s, True)
    _divides(mix, "divides-zp31", primes[31], s, False)
    _roots(mix, _s(16, scale))
    _divides(mix, "divides-zp61", primes[61], s, True)
    _divides(mix, "divides-z", None, _s(2, scale), True)
    _divides(mix, "divides-zp31", primes[31], s, True)
    _perfect_power(mix, 6, 2)
    _divides(mix, "divides-zp61", primes[61], s, False)
    _divides(mix, "divides-zp28", primes[28], s, False)
    _divides(mix, "divides-zp31", primes[31], s, True)
    _certify(mix, _s(12, scale), 3, True)
    _divides(mix, "divides-zp61", primes[61], s, False)
    _divides(mix, "divides-z", None, _s(2, scale), False)


def _interp(mix: Mix, kind: str, t: int, *, nvars=1, D_bits=60, coeff_bits=20,
            p=None, early=False, verify=0) -> None:
    rng = mix.rng
    exp_bits = D_bits // nvars
    oracle = rand_poly(rng, t, nvars=nvars, exp_bits=exp_bits, coeff_bits=coeff_bits, p=p)
    i = len(mix.requests)
    oa = mix.poly(f"r{i}_oracle.sp", oracle, nvars, p)
    out = f"r{i}_out.sp"
    T = 4 * t if early else t
    argv = ["interp", "--oracle", oa, "--T", str(T), "--D", str(1 << exp_bits),
            "--seed", str(rng.randrange(1 << 20)), "-o", out]
    if early:
        argv.append("--early")
    if verify:
        argv += ["--verify", str(verify)]
    mix.add(kind, argv, {"type": "same-file", "expect": oa, "out": out})


def gen_interp(mix: Mix, scale: float) -> None:
    # Integer oracles with a 60-bit degree bound: 20-bit coefficients need
    # only the support prime, 150-bit ones need three CRT primes.
    t = _s(40, scale)
    _interp(mix, "interp-z20", t)
    _interp(mix, "interp-z150", t, coeff_bits=150)
    _interp(mix, "interp-z150-early", t, coeff_bits=150, early=True)
    _interp(mix, "interp-3var", t, nvars=3)
    _interp(mix, "interp-z20", t)
    _interp(mix, "interp-z150", t, coeff_bits=150)
    _interp(mix, "interp-z20-verify", t, verify=2)
    _interp(mix, "interp-zp64", t, D_bits=32, p=GOLDILOCKS)


GENERATORS = {
    "mul-word": gen_mul_word,
    "heap-wide": gen_heap_wide,
    "divides": gen_divides,
    "interp": gen_interp,
}


def _s(n: int, scale: float) -> int:
    return max(2, round(n * scale))


def build(workload: str, seed: int, scale: float = 1.0) -> Mix:
    mix = Mix(seed, workload)
    GENERATORS[workload](mix, scale)
    return mix


def write(mix: Mix, workdir: Path) -> None:
    """Write every input file and the manifest the timed process reads."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in mix.files.items():
        (workdir / name).write_text(text)
    (workdir / "manifest.json").write_text(json.dumps(mix.requests, indent=1))
