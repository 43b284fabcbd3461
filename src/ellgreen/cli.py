"""Command-line front end.

Every subcommand prints one record, either as an aligned table (default)
or as JSON (--json); numbers are rendered identically in both so outputs
agree digit for digit.  Exit codes: 0 success, 1 verification failure,
2 usage/parse error, 3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .green import (
    energy,
    energy_via_a,
    green,
    torsion_product,
)
from .heights import (
    CurveHeightInput,
    average_green_over_cyclic,
    cyclic_subgroup_count,
    faltings_height,
)
from .lattice import CyclicSubgroup, TauPoint, TorusPoint, _Value, quotient, reduce_tau
from .modular import SeriesTolerance, invariants
from .verify import run_checks
from .weierstrass import eisenstein, half_period_roots, periods_from_curve, thomae_residuals

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
    """Parse 'a+bi' / 'a-bi' (no spaces); plain reals are accepted too."""
    m = _COMPLEX_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    re_part = float(m.group("re")) if m.group("re") else 0.0
    im_part = float(m.group("im")) if m.group("im") else 0.0
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


class OutputRecord(_Value):
    """What one subcommand prints; unlike the library's values, mutable and unhashable."""

    __slots__ = __match_args__ = ("command", "inputs", "results", "residuals", "tolerance_used")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, command: str, inputs: dict | None = None, results: dict | None = None,
                 residuals: dict | None = None, tolerance_used: float = 0.0):
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.results = {} if results is None else results
        self.residuals = {} if residuals is None else residuals
        self.tolerance_used = tolerance_used


def _fields(value: _Value) -> dict:
    return dict(zip(value.__match_args__, value._astuple()))


def _fmt(value) -> str:
    # repr of a float is the shortest digit string that round-trips, i.e.
    # full double precision; shared by the JSON and table renderers
    return repr(value) if isinstance(value, float) else str(value)


def _strict(value):
    # RFC 8259 has no inf or nan: a non-finite float becomes the string the table prints
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    return _fmt(value) if isinstance(value, float) and not math.isfinite(value) else value


def render(record: OutputRecord, as_json: bool) -> str:
    if as_json:
        return json.dumps(_strict(_fields(record)), indent=2, allow_nan=False)
    lines = [f"command: {record.command}"]
    for section in ("inputs", "results", "residuals"):
        entries = getattr(record, section)
        if not entries:
            continue
        lines.append(f"{section}:")
        width = max(len(k) for k in entries)
        for key, value in entries.items():
            lines.append(f"  {key:<{width}}  {_fmt(value)}")
    lines.append(f"tolerance_used: {_fmt(record.tolerance_used)}")
    return "\n".join(lines)


def _tau_from_flag(value: complex) -> TauPoint:
    return TauPoint(value.real, value.imag)


def _torus_point_from_complex(z: complex, tau: TauPoint) -> TorusPoint:
    b = z.imag / tau.im
    a = z.real - b * tau.re
    return TorusPoint(a % 1.0, b % 1.0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_invariants(args, tol) -> OutputRecord:
    tau = _tau_from_flag(args.tau)
    inv = invariants(tau, tol)
    red, _ = reduce_tau(tau)
    return OutputRecord(
        command="invariants",
        inputs={"tau": str(args.tau)},
        results={
            "norm_eta": inv.norm_eta,
            "norm_delta": inv.norm_delta,
            "omega_norm": inv.omega_norm,
            "tau_reduced_re": red.re,
            "tau_reduced_im": red.im,
        },
        residuals={
            "norm_delta_vs_eta24": abs(inv.norm_delta - inv.norm_eta ** 24)
            / inv.norm_delta,
        },
        tolerance_used=tol.rel_tol,
    )


def cmd_green(args, tol) -> OutputRecord:
    tau = _tau_from_flag(args.tau)
    point = _torus_point_from_complex(args.z, tau)
    value = green(tau, point, tol)
    return OutputRecord(
        command="green",
        inputs={"tau": str(args.tau), "z": str(args.z)},
        results={
            "value": value.value,
            "log_value": value.log_value,
            "a": float(point.a),
            "b": float(point.b),
        },
        tolerance_used=tol.rel_tol,
    )


def cmd_torsion_product(args, tol) -> OutputRecord:
    tau = _tau_from_flag(args.tau)
    product = torsion_product(tau, args.n, tol)
    return OutputRecord(
        command="torsion-product",
        inputs={"tau": str(args.tau), "n": args.n},
        results={"product": product, "expected": float(args.n)},
        residuals={"relative": abs(product - args.n) / args.n},
        tolerance_used=tol.rel_tol,
    )


def cmd_energy(args, tol) -> OutputRecord:
    tau = _tau_from_flag(args.tau)
    u, v, n = args.subgroup
    sub = CyclicSubgroup(n, u, v)
    iso = quotient(tau, sub)
    product, predicted = energy(iso, tol)
    via_a = energy_via_a(iso, tol)
    return OutputRecord(
        command="energy",
        inputs={"tau": str(args.tau), "subgroup": f"{u},{v},{n}"},
        results={
            "product": product,
            "predicted": predicted,
            "predicted_via_omega_norm": via_a,
            "target_re": iso.target.re,
            "target_im": iso.target.im,
        },
        residuals={
            "product_vs_predicted": abs(product - predicted) / predicted,
            "predicted_vs_omega_form": abs(predicted - via_a) / predicted,
        },
        tolerance_used=tol.rel_tol,
    )


def cmd_average(args, tol) -> OutputRecord:
    tau = _tau_from_flag(args.tau)
    report = average_green_over_cyclic(tau, args.n, tol)
    return OutputRecord(
        command="average",
        inputs={"tau": str(args.tau), "n": args.n},
        results={
            "subgroup_count": cyclic_subgroup_count(args.n),
            "green_average": report.green_average,
            "green_predicted": report.green_predicted,
            "delta_average": report.delta_average,
            "delta_predicted": report.delta_predicted,
        },
        residuals={
            "green": report.green_residual,
            "delta": report.delta_residual,
        },
        tolerance_used=tol.rel_tol,
    )


def cmd_weierstrass(args, tol) -> OutputRecord:
    tau = _tau_from_flag(args.tau)
    curve = eisenstein(tau, tol)
    roots = half_period_roots(tau, tol)
    r13, r12, r23 = thomae_residuals(tau, tol)
    return OutputRecord(
        command="weierstrass",
        inputs={"tau": str(args.tau)},
        results={
            "p_re": curve.p.real, "p_im": curve.p.imag,
            "q_re": curve.q.real, "q_im": curve.q.imag,
            "alpha1_re": roots.alpha1.real, "alpha1_im": roots.alpha1.imag,
            "alpha2_re": roots.alpha2.real, "alpha2_im": roots.alpha2.imag,
            "alpha3_re": roots.alpha3.real, "alpha3_im": roots.alpha3.imag,
        },
        residuals={"thomae_13": r13, "thomae_12": r12, "thomae_23": r23},
        tolerance_used=tol.rel_tol,
    )


def cmd_periods(args, tol) -> OutputRecord:
    from .weierstrass import WeierstrassCurve

    curve = WeierstrassCurve(args.p, args.q)
    periods = periods_from_curve(curve, tol)
    red, _ = reduce_tau(periods.tau)
    return OutputRecord(
        command="periods",
        inputs={"p": str(args.p), "q": str(args.q)},
        results={
            "omega1_re": periods.omega1.real, "omega1_im": periods.omega1.imag,
            "omega2_re": periods.omega2.real, "omega2_im": periods.omega2.imag,
            "tau_re": periods.tau.re, "tau_im": periods.tau.im,
            "tau_reduced_re": red.re, "tau_reduced_im": red.im,
        },
        tolerance_used=tol.rel_tol,
    )


def cmd_faltings(args, tol) -> OutputRecord:
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
    return OutputRecord(
        command="faltings",
        inputs={
            "degree": inp.degree,
            "log_norm_min_disc": inp.log_norm_min_disc,
            "embeddings": len(inp.embeddings),
        },
        results={"faltings_height": height},
        tolerance_used=tol.rel_tol,
    )


def cmd_verify(args, tol) -> int:
    results = run_checks(level=args.level, seed=args.seed, tol=tol)
    if args.json:
        payload = [_strict({**_fields(r), "passed": r.passed}) for r in results]
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

def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("invariants", help="normalised eta/delta and the differential norm")
    p.add_argument("--tau", type=parse_complex, required=True,
                   help="lattice parameter, e.g. 0+1i")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("green", help="Green-function value G(0, z)")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--z", type=parse_complex, required=True,
                   help="point of the complex plane, e.g. 0.3+0.2i")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("torsion-product", help="product of G over nonzero N-torsion")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_torsion_product)

    p = sub.add_parser("energy", help="kernel energy of the quotient isogeny")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--subgroup", type=parse_subgroup, required=True,
                   help="cyclic subgroup 'u,v,N' generated by (u/N, v/N)")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("average", help="averaged log-Green / height identities")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("weierstrass", help="curve invariants and half-period roots")
    p.add_argument("--tau", type=parse_complex, required=True)
    p.set_defaults(func=cmd_weierstrass)

    p = sub.add_parser("periods", help="period basis of y^2 = 4x^3 - p*x - q")
    p.add_argument("--p", type=parse_complex, required=True)
    p.add_argument("--q", type=parse_complex, required=True)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("faltings", help="explicit height from a JSON input file")
    p.add_argument("--input", required=True,
                   help='JSON: {"degree": int, "log_norm_min_disc": float, '
                        '"embeddings": [{"re": .., "im": ..}, ..]}')
    p.set_defaults(func=cmd_faltings)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (0.0 < args.tol < 1.0):
        print(f"error: --tol must lie in (0, 1), got {args.tol}", file=sys.stderr)
        return 2
    tol = SeriesTolerance(rel_tol=args.tol)
    try:
        if args.func is cmd_verify:
            return cmd_verify(args, tol)
        record = args.func(args, tol)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(render(record, args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
