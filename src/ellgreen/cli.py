"""Command-line front end.

Every subcommand prints one record, either as an aligned table (default)
or as JSON (--json); numbers are rendered identically in both so outputs
agree digit for digit.  Exit codes: 0 success, 1 verification failure,
2 usage/parse error, 3 numeric/domain error.

Each subcommand is declared once, by `@command` over its handler, which
returns the record's (inputs, results, residuals); `verify` prints its own
report and returns the exit code.  Handlers reach the library through this
module's globals, looked up at call time.  The parser is built on the first
`main` call and reused by later calls in the same process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .green import (
    energy,
    green,
    torsion_product,
)
from .heights import (
    CurveHeightInput,
    average_green_over_cyclic,
    cyclic_subgroup_count,
    faltings_height,
)
from .lattice import CyclicSubgroup, TauPoint, TorusPoint, quotient, reduce_tau
from .modular import SeriesTolerance, invariants
from .verify import run_checks
from .weierstrass import (WeierstrassCurve, eisenstein, half_period_roots, periods_from_curve,
                          thomae_residuals)


class UsageError(Exception):
    """Bad file contents or flag combinations surfaced as exit code 2."""


_COMPLEX_RE = re.compile(
    r"""^\s*
        (?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
        (?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?
        \s*$""",
    re.VERBOSE,
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' (no spaces); plain reals are accepted too.  A part
    too large for a double is a parse error, not an infinite coordinate."""
    m = _COMPLEX_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    re_part = float(m.group("re")) if m.group("re") else 0.0
    im_part = float(m.group("im")) if m.group("im") else 0.0
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise argparse.ArgumentTypeError(f"complex number {text!r} overflows a double")
    return complex(re_part, im_part)


def parse_subgroup(text: str) -> tuple[int, int, int]:
    """Parse 'u,v,N': the cyclic subgroup generated by (u/N, v/N)."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"subgroup must be 'u,v,N', got {text!r}")
    try:
        u, v, n = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return u, v, n


def _fmt(value) -> str:
    # repr of a float is the shortest digit string that round-trips, i.e.
    # full double precision; shared by the JSON and table renderers
    if isinstance(value, complex):  # an echoed input, as a+bi: parse_complex reads it back
        return f"{value.real!r}{value.imag:+}i"
    return repr(value) if isinstance(value, float) else str(value)


def _strict(value):
    # RFC 8259 has no inf or nan: a non-finite float becomes the string the table prints
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


def render(record: dict, as_json: bool) -> str:
    """One record: command, inputs, results, residuals and tolerance_used."""
    if as_json:
        return json.dumps(_strict(record), indent=2, allow_nan=False)
    lines = [f"command: {record['command']}"]
    for section in ("inputs", "results", "residuals"):
        entries = record[section]
        if not entries:
            continue
        lines.append(f"{section}:")
        width = max(len(k) for k in entries)
        for key, value in entries.items():
            lines.append(f"  {key:<{width}}  {_fmt(value)}")
    lines.append(f"tolerance_used: {_fmt(record['tolerance_used'])}")
    return "\n".join(lines)


def _re_im(**values) -> dict:
    """name_re and name_im for each complex value, in order."""
    parts = {}
    for name, value in values.items():
        parts[f"{name}_re"], parts[f"{name}_im"] = value.real, value.imag
    return parts


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

COMMANDS: dict = {}  # name -> (help line, flags, handler), filled at import by @command


def command(name: str, summary: str, /, **flags):
    """Declare subcommand `name`: its help line and, per keyword k, --k's add_argument keywords."""
    def declare(handler):
        COMMANDS[name] = (summary, flags, handler)
        return handler
    return declare


_COMPLEX = {"type": parse_complex, "required": True}
_INT = {"type": int, "required": True}


@command("invariants", "normalised eta/delta and the differential norm",
         tau=dict(_COMPLEX, help="lattice parameter, e.g. 0+1i"))
def cmd_invariants(args, tol):
    tau = TauPoint.from_complex(args.tau)
    inv = invariants(tau, tol)
    red, _ = reduce_tau(tau)
    results = {"norm_eta": inv.norm_eta, "norm_delta": inv.norm_delta,
               "omega_norm": inv.omega_norm, **_re_im(tau_reduced=red.z)}
    return ({"tau": _fmt(args.tau)}, results,
            {"norm_delta_vs_eta24": abs(inv.norm_delta - inv.norm_eta ** 24) / inv.norm_delta})


@command("green", "Green-function value G(0, z)",
         tau=_COMPLEX, z=dict(_COMPLEX, help="point of the complex plane, e.g. 0.3+0.2i"))
def cmd_green(args, tol):
    tau = TauPoint.from_complex(args.tau)
    b = args.z.imag / tau.im
    point = TorusPoint((args.z.real - b * tau.re) % 1.0, b % 1.0)
    value = green(tau, point, tol)
    return ({"tau": _fmt(args.tau), "z": _fmt(args.z)},
            {"value": value.value, "log_value": value.log_value,
             "a": float(point.a), "b": float(point.b)}, {})


@command("torsion-product", "product of G over nonzero N-torsion", tau=_COMPLEX, n=_INT)
def cmd_torsion_product(args, tol):
    product = torsion_product(TauPoint.from_complex(args.tau), args.n, tol)
    return ({"tau": _fmt(args.tau), "n": args.n},
            {"product": product, "expected": float(args.n)},
            {"relative": abs(product - args.n) / args.n})


@command("energy", "kernel energy of the quotient isogeny", tau=_COMPLEX,
         subgroup={"type": parse_subgroup, "required": True,
                   "help": "cyclic subgroup 'u,v,N' generated by (u/N, v/N)"})
def cmd_energy(args, tol):
    u, v, n = args.subgroup
    iso = quotient(TauPoint.from_complex(args.tau), CyclicSubgroup(n, u, v))
    product, predicted = energy(iso, tol)
    return ({"tau": _fmt(args.tau), "subgroup": f"{u},{v},{n}"},
            {"product": product, "predicted": predicted, **_re_im(target=iso.target.z)},
            {"product_vs_predicted": abs(product - predicted) / predicted})


@command("average", "averaged log-Green / height identities", tau=_COMPLEX, n=_INT)
def cmd_average(args, tol):
    report = average_green_over_cyclic(TauPoint.from_complex(args.tau), args.n, tol)
    return ({"tau": _fmt(args.tau), "n": args.n},
            {"subgroup_count": cyclic_subgroup_count(args.n),
             "green_average": report.green_average, "green_predicted": report.green_predicted,
             "delta_average": report.delta_average, "delta_predicted": report.delta_predicted},
            {"green": report.green_residual, "delta": report.delta_residual})


@command("weierstrass", "curve invariants and half-period roots", tau=_COMPLEX)
def cmd_weierstrass(args, tol):
    tau = TauPoint.from_complex(args.tau)
    curve = eisenstein(tau, tol)
    roots = half_period_roots(tau, tol)
    r13, r12, r23 = thomae_residuals(tau, tol)
    return ({"tau": _fmt(args.tau)},
            _re_im(p=curve.p, q=curve.q, alpha1=roots.alpha1, alpha2=roots.alpha2,
                   alpha3=roots.alpha3),
            {"thomae_13": r13, "thomae_12": r12, "thomae_23": r23})


@command("periods", "period basis of y^2 = 4x^3 - p*x - q", p=_COMPLEX, q=_COMPLEX)
def cmd_periods(args, tol):
    periods = periods_from_curve(WeierstrassCurve(args.p, args.q), tol)
    red, _ = reduce_tau(periods.tau)
    return ({"p": _fmt(args.p), "q": _fmt(args.q)},
            _re_im(omega1=periods.omega1, omega2=periods.omega2, tau=periods.tau.z,
                   tau_reduced=red.z), {})


@command("faltings", "explicit height from a JSON input file",
         input={"required": True,
                "help": 'JSON: {"degree": int, "log_norm_min_disc": float, '
                        '"embeddings": [{"re": .., "im": ..}, ..]}'})
def cmd_faltings(args, tol):
    try:
        with open(args.input) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.input!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {args.input!r}: {exc}") from None
    try:
        embeddings = tuple(
            TauPoint(float(e["re"]), float(e["im"])) for e in payload["embeddings"]
        )
        inp = CurveHeightInput(
            degree=payload["degree"],
            log_norm_min_disc=float(payload["log_norm_min_disc"]),
            embeddings=embeddings,
        )
    except KeyError as exc:
        raise UsageError(f"faltings input missing field: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad faltings input in {args.input!r}: {exc}") from None
    height = faltings_height(inp, tol)
    return ({"degree": inp.degree, "log_norm_min_disc": inp.log_norm_min_disc,
             "embeddings": len(inp.embeddings)}, {"faltings_height": height}, {})


@command("verify", "run the identity verification suite",
         level={"choices": ("quick", "full"), "default": "quick"},
         seed={"type": int, "default": 7})
def cmd_verify(args, tol) -> int:
    results = run_checks(level=args.level, seed=args.seed, tol=tol)
    if args.json:
        payload = [_strict({**dict(zip(r.__match_args__, r._astuple())), "passed": r.passed})
                   for r in results]
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        for r in results:
            print(r.line())
        failed = [r for r in results if not r.passed]
        print(f"{len(results)} checks, {len(results) - len(failed)} passed, "
              f"{len(failed)} failed")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ellgreen` parser, built on the first call; later calls, main's among
    them, get the same object, so a caller that changes it changes main."""
    parser = argparse.ArgumentParser(
        prog="ellgreen",
        description="Analytic invariants of genus-1 surfaces: normalised "
                    "theta/eta/discriminant, torus Green functions, isogeny "
                    "energies, averaged quotient heights.",
    )
    parser.add_argument("--tol", type=float, default=1e-12,
                        help="relative series tolerance (default 1e-12)")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, flags, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, keywords in flags.items():
            p.add_argument(f"--{flag}", **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; argv defaults to sys.argv[1:].  The parser is built on
    the first call and reused by later calls in the same process."""
    args = build_parser().parse_args(argv)
    if not (0.0 < args.tol < 1.0):
        print(f"error: --tol must lie in (0, 1), got {args.tol}", file=sys.stderr)
        return 2
    tol = SeriesTolerance(rel_tol=args.tol)
    try:
        outcome = args.func(args, tol)
    except (UsageError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3
    if isinstance(outcome, int):  # verify printed its own report
        return outcome
    inputs, results, residuals = outcome
    print(render({"command": args.subcommand, "inputs": inputs, "results": results,
                  "residuals": residuals, "tolerance_used": tol.rel_tol}, args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
