"""Seeded op lists for the four workloads, and the check for each op.

An op is plain data: a kind, its arguments, and whether it is a domain probe
(an input outside the region the library handles today, ROADMAP item 4).
`call` runs an op against the library; `reference` computes what it must
return, from the mpmath oracle or from the closed form on the other side of
the identity; `check` compares the two.  The library only ever receives the
generated inputs.

Every library function is looked up through its module at call time, so the
traced run sees each call once the tracer has rebound the names.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

WORKLOADS = ("verify-full", "torsion-sums", "quadrature", "point-queries")

# Fixed shares of point-queries inputs outside today's working domain.
FAR_IM = (100.0, 3000.0)    # reduced Im tau range of the far-domain probes
EXTREME_LOG10_SCALE = (40.0, 50.0)  # |log10 lambda| of extreme-scale curves

# point-queries mix per pass.  No record of how users call the library
# exists, so the mix is an assumption: every kind gets the same number of
# ops, and the same share of each tau- or curve-based kind is a far-domain
# probe.  The CLI ops cycle through CLI_COMMANDS and have no probes.
POINT_KINDS = ("green", "green_torsion", "invariants", "log_norm_delta",
               "half_period_roots", "thomae", "round_trip", "cli")
OPS_PER_KIND = 40
PROBES_PER_KIND = 8         # a 20% share

# README CLI invocations other than verify
CLI_COMMANDS = (
    ("invariants", "--tau", "0+1i"),
    ("green", "--tau", "0.13+1.32i", "--z", "0.3+0.2i"),
    ("torsion-product", "--tau", "0+1i", "--n", "5"),
    ("energy", "--tau", "0+1i", "--subgroup", "1,0,2"),
    ("average", "--tau", "0.2+1.5i", "--n", "12"),
    ("weierstrass", "--tau", "0+1i"),
    ("periods", "--p", "4+0i", "--q", "0+0i"),
    ("faltings", "--input", None),  # None: the input file written at set-up
)
FALTINGS_INPUT = {"degree": 1, "log_norm_min_disc": 0.0,
                  "embeddings": [{"re": 0.0, "im": 1.0}]}

FALTINGS_PATH = Path(__file__).resolve().parent / "out" / "faltings-input.json"

SMALL_ORDERS = tuple(range(2, 13))
QUAD_TAUS = ((0.0, 1.0), (0.0, 3.0), (0.5, 1.2))  # the taus of verify's criterion 9
QUAD_GRIDS = (128, 512, 1024)  # 128^2 float64 fits in L2; 1024^2 (8 MiB) does not


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    probe: bool = False


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _reduced_tau(rng: random.Random, im_lo: float = 0.9, im_hi: float = 2.5) -> complex:
    while True:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(im_lo, im_hi))
        if abs(z) >= 1.0:
            return z


def _unreduced_tau(rng: random.Random) -> complex:
    # a reduced tau moved by a short random word in T^k and S, so the library
    # has to undo a few steps of reduction and transport its points
    z = _reduced_tau(rng)
    for _ in range(rng.randint(2, 3)):
        z = -1.0 / (z + rng.choice((-3, -2, -1, 1, 2, 3)))
    return z


def _far_tau(rng: random.Random, k: int, count: int) -> complex:
    # stratified in log Im tau over FAR_IM, so every seed covers the range
    lo, hi = (math.log(x) for x in FAR_IM)
    im = math.exp(lo + (hi - lo) * (k + rng.random()) / count)
    return complex(rng.uniform(-0.5, 0.5), im)


def _torsion_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    n = rng.randint(2, 12)
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        if i or j:
            return Fraction(i, n), Fraction(j, n)


def _verify_full(rng: random.Random) -> list[Op]:
    return [Op("run_checks", (rng.randrange(2 ** 31),))]


def cyclic_generators(n: int) -> list[tuple[int, int]]:
    """One generator (u, v) of each cyclic order-n subgroup of (Z/n)^2,
    found by brute force: the first generator of each new point set."""
    seen, out = set(), []
    for u in range(n):
        for v in range(n):
            points = frozenset(((k * u) % n, (k * v) % n) for k in range(n))
            if len(points) == n and points not in seen:
                seen.add(points)
                out.append((u, v))
    return out


def _torsion_sums(rng: random.Random) -> list[Op]:
    groups = []  # (kind, order); each group draws one tau
    for n in SMALL_ORDERS:
        groups += [("average", n), ("energy", n), ("torsion_product", n),
                   ("exact_order", n)]
    groups += [("average", 24), ("energy", 24), ("torsion_product", 30),
               ("exact_order", 30)]
    ops = []
    for g, (kind, n) in enumerate(groups):
        # every third group gets an unreduced tau: a fixed share, so the
        # cost of a pass does not depend on the seed
        tau = _unreduced_tau(rng) if g % 3 == 2 else _reduced_tau(rng)
        if kind == "energy":
            ops += [Op(kind, (tau.real, tau.imag, n, u, v)) for u, v in cyclic_generators(n)]
        else:
            ops.append(Op(kind, (tau.real, tau.imag, n)))
    return ops


def _quadrature(rng: random.Random) -> list[Op]:
    # one op refines one tau through every grid, as verify's criterion 9
    # does; Im tau in [1, 1.9] keeps the 9-term series window of Im tau = 1
    taus = QUAD_TAUS + ((rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.9)),)
    return [Op("mean_ladder", tau) for tau in taus]


def _point_queries(rng: random.Random) -> list[Op]:
    ops = []
    inside = OPS_PER_KIND - PROBES_PER_KIND
    for kind in POINT_KINDS:
        for k in range(OPS_PER_KIND):
            probe = k >= inside
            if kind == "cli":
                command = CLI_COMMANDS[k % len(CLI_COMMANDS)]
                argv = tuple(str(FALTINGS_PATH) if a is None else a for a in command)
                ops.append(Op(kind, argv))
                continue
            if kind == "round_trip":
                tau = _reduced_tau(rng, 1.01, 2.0)
                if probe:
                    e = rng.uniform(*EXTREME_LOG10_SCALE) * (1 if k % 2 else -1)
                else:
                    e = rng.uniform(-2.0, 2.0)
                ops.append(Op(kind, (tau.real, tau.imag, e), probe))
                continue
            if probe:
                tau = _far_tau(rng, k - inside, PROBES_PER_KIND)
            elif kind in ("half_period_roots", "thomae"):
                # these read the marking Z + tau*Z as given and do not reduce
                tau = _reduced_tau(rng)
            else:
                tau = _unreduced_tau(rng) if k % 4 == 3 else _reduced_tau(rng)
            args = (tau.real, tau.imag)
            if kind == "green":
                args += (rng.random(), rng.random())
            elif kind == "green_torsion":
                args += _torsion_point(rng)
            ops.append(Op(kind, args, probe))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one pass, shuffled; the same (workload, seed) gives the
    same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-full":
        ops = _verify_full(rng)
    elif workload == "torsion-sums":
        ops = _torsion_sums(rng)
    elif workload == "quadrature":
        ops = _quadrature(rng)
    else:
        ops = _point_queries(rng)
    rng.shuffle(ops)
    return ops


def write_faltings_input() -> None:
    """Write the input file of the `faltings` CLI op (a set-up step)."""
    FALTINGS_PATH.parent.mkdir(exist_ok=True)
    FALTINGS_PATH.write_text(json.dumps(FALTINGS_INPUT))


# ---------------------------------------------------------------------------
# calling the library
# ---------------------------------------------------------------------------

def _tau(eg, re, im):
    return eg.TauPoint(re, im)


def _call_cli(eg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eg.cli.main(list(argv))
    return code, out.getvalue()


def _call_round_trip(eg, re, im, e):
    curve = eg.eisenstein(_tau(eg, re, im))
    lam = 10.0 ** e
    # the user-facing form: coefficients only, the discriminant is formed
    # by the library
    scaled = eg.WeierstrassCurve(lam ** 4 * curve.p, lam ** 6 * curve.q)
    return eg.periods_from_curve(scaled)


CALLS = {
    "run_checks": lambda eg, seed: eg.verify.run_checks("full", seed),
    "average": lambda eg, re, im, n: eg.average_green_over_cyclic(_tau(eg, re, im), n),
    "energy": lambda eg, re, im, n, u, v: eg.energy(
        eg.quotient(_tau(eg, re, im), eg.CyclicSubgroup(n, u, v))),
    "torsion_product": lambda eg, re, im, n: eg.torsion_product(_tau(eg, re, im), n),
    "exact_order": lambda eg, re, im, m: eg.exact_order_log_green(_tau(eg, re, im), m),
    "mean_ladder": lambda eg, re, im: tuple(
        eg.green_mean_integral(_tau(eg, re, im), m) for m in QUAD_GRIDS),
    "green": lambda eg, re, im, a, b: eg.green(_tau(eg, re, im), eg.TorusPoint(a, b)),
    "green_torsion": lambda eg, re, im, a, b: eg.green(_tau(eg, re, im), eg.TorusPoint(a, b)),
    "invariants": lambda eg, re, im: eg.invariants(_tau(eg, re, im)),
    "log_norm_delta": lambda eg, re, im: eg.log_norm_delta(_tau(eg, re, im)),
    "half_period_roots": lambda eg, re, im: eg.half_period_roots(_tau(eg, re, im)),
    "thomae": lambda eg, re, im: eg.thomae_residuals(_tau(eg, re, im)),
    "round_trip": _call_round_trip,
    "cli": lambda eg, *argv: _call_cli(eg, argv),
}


def call(eg, op: Op):
    return CALLS[op.kind](eg, *op.args)


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------

def _factorization(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        r = 0
        while n % d == 0:
            n //= d
            r += 1
        if r:
            out.append((d, r))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def cyclic_constant(n: int) -> float:
    """Average summed log G over cyclic order-n subgroups (closed form)."""
    return math.fsum((p ** r - 1) / (p ** (r - 1) * (p * p - 1)) * math.log(p)
                     for p, r in _factorization(n))


def exact_order_constant(m: int) -> float:
    """Sum of log G over points of exact order m: log p for m = p^r, else 0."""
    f = _factorization(m)
    return math.log(f[0][0]) if len(f) == 1 else 0.0


def _cli_reference(argv):
    cmd, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))

    def flag(name):
        return complex(flags[name].replace("i", "j"))

    if cmd == "invariants":
        return oracle.mpmath.exp(oracle.log_norm_eta(flag("--tau")))
    if cmd == "green":
        tau, z = flag("--tau"), flag("--z")
        b = z.imag / tau.imag
        return oracle.log_green(tau, (z.real - b * tau.real) % 1.0, b % 1.0)
    if cmd == "torsion-product":
        return int(flags["--n"])
    if cmd == "energy":
        u, v, n = (int(x) for x in flags["--subgroup"].split(","))
        return oracle.energy_predicted(flag("--tau"), n, u, v)
    if cmd == "weierstrass":
        return oracle.half_period_roots(flag("--tau"))
    if cmd == "average":
        n = int(flags["--n"])
        return cyclic_constant(n), 0.5 * math.log(n) - cyclic_constant(n)
    if cmd == "periods":
        # y^2 = 4x^3 - 4x has roots 0, +-1: the square lattice
        return 1j
    if cmd == "faltings":
        taus = [complex(e["re"], e["im"]) for e in FALTINGS_INPUT["embeddings"]]
        return oracle.faltings_height(FALTINGS_INPUT["degree"],
                                      FALTINGS_INPUT["log_norm_min_disc"], taus)
    return None


def reference(op: Op):
    """What the op must return, computed without the library."""
    k, a = op.kind, op.args
    if k in ("green", "green_torsion"):
        return oracle.log_green(complex(a[0], a[1]), a[2], a[3])
    if k == "invariants":
        lne = oracle.log_norm_eta(complex(*a))
        ne = oracle.mpmath.exp(lne)
        return ne, oracle.mpmath.exp(24 * lne), 1 / (2 * oracle.mpmath.pi * ne * ne)
    if k == "log_norm_delta":
        return oracle.log_norm_delta(complex(*a))
    if k == "half_period_roots":
        return oracle.half_period_roots(complex(*a))
    if k == "energy":
        return oracle.energy_predicted(complex(a[0], a[1]), *a[2:])
    if k == "average":
        n = a[2]
        return cyclic_constant(n), 0.5 * math.log(n) - cyclic_constant(n)
    if k == "exact_order":
        return exact_order_constant(a[2])
    if k == "cli":
        return _cli_reference(a)
    return None


def _log_close(value: float, ref) -> bool:
    if ref == -oracle.mpmath.inf:
        return value == -math.inf
    return math.isfinite(value) and abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def _roots_close(roots, ref) -> bool:
    scale = max(abs(r) for r in ref)
    return len(roots) == 3 and all(abs(x - r) <= 1e-9 * scale for x, r in zip(roots, ref))


def _cli_table(text: str) -> dict:
    # the table renderer prints "  key  value" under each section
    rows = {}
    for line in text.splitlines():
        if line.startswith("  "):
            key, value = line.split(None, 1)
            rows[key] = value
    return rows


def _check_cli(result, argv, ref) -> bool:
    code, text = result
    if code != 0:
        return False
    rows = _cli_table(text)
    num = lambda key: float(rows[key])
    cmd = argv[0]
    if cmd == "invariants":
        return oracle.close(num("norm_eta"), ref, 1e-9)
    if cmd == "green":
        return _log_close(num("log_value"), ref)
    if cmd == "torsion-product":
        return abs(num("product") - ref) <= 1e-8 * ref
    if cmd == "energy":
        return all(oracle.close(num(key), ref, 1e-8) for key in ("product", "predicted"))
    if cmd == "average":
        return (abs(num("green_average") - ref[0]) < 1e-7
                and abs(num("delta_average") - ref[1]) < 1e-7)
    if cmd == "weierstrass":
        roots = [complex(num(f"alpha{i}_re"), num(f"alpha{i}_im")) for i in (1, 2, 3)]
        return _roots_close(roots, ref)
    if cmd == "periods":
        got = complex(num("tau_reduced_re"), num("tau_reduced_im"))
        return abs(got - ref) < 1e-8
    if cmd == "faltings":
        return abs(num("faltings_height") - ref) <= 1e-10 * max(1.0, abs(ref))
    return False


def check(op: Op, result, ref) -> bool:
    """True when the op's result matches its reference at verify's stated
    tolerances (or, for oracle values, to 1e-9 relative)."""
    k, a = op.kind, op.args
    if k == "run_checks":
        return len(result) > 0 and all(r.passed for r in result)
    if k == "average":
        return (abs(result.green_average - ref[0]) < 1e-7
                and abs(result.delta_average - ref[1]) < 1e-7)
    if k == "energy":
        return all(oracle.close(x, ref, 1e-8) for x in result)
    if k == "torsion_product":
        return abs(result - a[2]) < 1e-8 * a[2]
    if k == "exact_order":
        return abs(result - ref) < 1e-8
    if k == "mean_ladder":
        # verify's criterion 9: |mean| below 1e-3, shrinking as the grid refines
        mags = [abs(x) for x in result]
        return mags[0] < 1e-3 and all(b < a for a, b in zip(mags, mags[1:]))
    if k in ("green", "green_torsion"):
        return _log_close(result.log_value, ref)
    if k == "invariants":
        return all(oracle.close(x, r, 1e-9) for x, r in
                   zip((result.norm_eta, result.norm_delta, result.omega_norm), ref))
    if k == "log_norm_delta":
        return _log_close(result, ref)
    if k == "half_period_roots":
        return _roots_close(result.as_tuple(), ref)
    if k == "thomae":
        return max(result) < 1e-9
    if k == "round_trip":
        red, _ = oracle.reduce_tau(result.tau.z)
        return abs(red - complex(a[0], a[1])) < 1e-8
    if k == "cli":
        return _check_cli(result, a, ref)
    raise ValueError(f"no check for op kind {k!r}")
