"""The canonical Green function of a genus-1 surface and its identities.

The computational definition is G(0, z) = ||theta||(z + (1+tau)/2; tau) / ||eta||;
two-point values follow from translation invariance, G(P, Q) = G(0, Q - P).
The defining normalisation (zero mean of log G against the flat unit-mass
form) is exposed as a quadrature check rather than assumed.  Every value and
sum of log G here is evaluated on one `modular._Torus` record per torus.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import truediv

from . import _kernels
from .lattice import (
    Isogeny,
    TauPoint,
    TorusPoint,
    _Value,
    _kernel_pairs,
    _mod_one,
    _set,
    _torsion_pairs,
    transport_point,
)
from .modular import (
    DEFAULT_TOL,
    SeriesTolerance,
    log_norm_eta,
    _Torus,
    _exp_normal,
    _omega_norm,
    _phase_row,
    _series,
    _weight_row,
)

_TWO_PI = 2.0 * math.pi
_LOG_MAX = math.log(sys.float_info.max)  # exp of anything above overflows a double


class GreenValue(_Value):
    """A Green-function value together with its logarithm (nats).

    value == exp(log_value); the exact zero on the diagonal is reported as
    value = 0.0 with log_value = -inf.  ValueError for any other non-finite field.
    """

    __slots__ = __match_args__ = ("value", "log_value")

    def __init__(self, value: float, log_value: float):
        if value == 0.0:
            if log_value != -math.inf:
                raise ValueError("a zero value must carry log_value = -inf")
        elif not (math.isfinite(value) and math.isfinite(log_value)):
            raise ValueError(f"value and log_value must be finite, got {value!r}, {log_value!r}")
        elif log_value > _LOG_MAX or abs(value - math.exp(log_value)) > 1e-12 * value:
            raise ValueError("value and log_value disagree")
        _set(self, "value", value)
        _set(self, "log_value", log_value)

    @classmethod
    def from_log(cls, log_value: float) -> "GreenValue":
        """Raises ArithmeticError when exp(log_value) is not a normal double
        (log_value above ~709.78 or below ~-708.40)."""
        return cls(_exp_log_green(log_value), log_value)


def _exp_log_green(log_value: float, torus: _Torus | None = None, name: str = "G") -> float:
    # log G(0, a + b*tau) runs from about -pi*Im(tau)/6 at b = 0 to pi*Im(tau)/12
    # at b = 1/2, so G may leave the normal doubles while its log does not
    try:
        return _exp_normal(log_value, name, f"log {name}")
    except ArithmeticError as exc:
        if torus is None:
            raise
        raise ArithmeticError(f"{exc} at reduced Im tau = {torus.red.im!r}") from None


def green(tau: TauPoint, z: TorusPoint, tol: SeriesTolerance = DEFAULT_TOL) -> GreenValue:
    """G(0, z) on the torus marked by tau.

    tau is reduced to the fundamental domain and the point's lattice
    coordinates are transported through the same change of marking, so the
    result is an invariant of (torus, point class); an exact point moves in
    integers and builds no Fraction.  Exactly zero iff the reduced point is
    (0, 0).  log G is right at any reduced Im tau.

    Raises ArithmeticError, naming log G and the reduced Im tau, where G is
    not a normal double: log G below ~-708.40 (from a reduced Im tau of
    ~1350, near b = 0) or above ~709.78 (from ~2700, near b = 1/2).  Near
    the origin G has relative accuracy about 1e-16/|z| (|z| in lattice
    coordinates); within a few rounding errors of it no digit survives and
    it raises ArithmeticError instead of returning noise.
    """
    torus = _Torus(tau, tol)
    if z.a.__class__ is Fraction and z.b.__class__ is Fraction:
        # transport_point's map over den = qa*qb; int / int rounds as float(Fraction)
        (pa, qa), (pb, qb) = z.a.as_integer_ratio(), z.b.as_integer_ratio()
        (ma, mb), (mc, md) = torus.mat
        den = qa * qb
        a, b = (ma * pa * qb - mb * pb * qa) % den, (md * pb * qa - mc * pa * qb) % den
    else:
        moved, den = transport_point(z, torus.mat), 1.0  # Fraction / 1.0 is float(Fraction)
        a, b = moved.a, moved.b
    if a == 0 and b == 0:
        return GreenValue(0.0, -math.inf)
    log_value = torus.log_green(a / den, b / den)
    return GreenValue(_exp_log_green(log_value, torus), log_value)


def green_pair(tau: TauPoint, p: TorusPoint, q: TorusPoint,
               tol: SeriesTolerance = DEFAULT_TOL) -> GreenValue:
    """Two-point value G(P, Q) = G(0, Q - P)."""
    return green(tau, q - p, tol)


def green_projection_check(iso: Isogeny, w: TorusPoint, z: TorusPoint,
                           tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Residual of the projection identity for a point divisor.

    Compares sum_{Q in f^{-1}(w)} log G_source(Q, z) against
    log G_target(w, f(z)) and returns the absolute difference; raises if z is
    in the fiber of w (log 0), and as green() does on the target.  The fiber
    is exact over one integer denominator, a float w too, each term formed as
    green(source, z - Q) forms it; the target term as green() forms it.
    """
    # Q = adj(T).w/n + (i, j)/n over the kernel pairs, as integers over den;
    # int / int rounds as float(Fraction) does, whatever the denominator
    n, ((t11, t12), (t21, t22)) = iso.degree, iso.coordinate_matrix()
    (wa, da), (wb, db) = w.a.as_integer_ratio(), w.b.as_integer_ratio()
    d, den = da * db, n * da * db
    qa, qb = t22 * wa * db - t12 * wb * da, t11 * wb * da - t21 * wa * db
    div_a, div_b = (Fraction if isinstance(x, Fraction) else truediv for x in (z.a, z.b))
    torus = _Torus(iso.source, tol)
    (ma, mb), (mc, md) = torus.mat
    logs = []
    for i, j in _kernel_pairs(iso.coordinate_matrix(), n):
        pa = _mod_one(z.a - div_a((qa + d * i) % den, den), "a")
        pb = _mod_one(z.b - div_b((qb + d * j) % den, den), "b")
        a, b = _mod_one(ma * pa - mb * pb, "a"), _mod_one(md * pb - mc * pa, "b")
        if a == 0 and b == 0:
            raise ValueError("z lies in the fiber of w; log G(Q, z) diverges")
        logs.append(torus.log_green(float(a), float(b)))
    fa = _mod_one(_mod_one(t11 * z.a + t12 * z.b, "a") - w.a, "a")
    fb = _mod_one(_mod_one(t21 * z.a + t22 * z.b, "b") - w.b, "b")
    torus = _Torus(iso.target, tol)
    (ma, mb), (mc, md) = torus.mat
    a, b = _mod_one(ma * fa - mb * fb, "a"), _mod_one(md * fb - mc * fa, "b")
    if a == 0 and b == 0:
        raise ValueError("f(z) coincides with w; log G diverges")
    log_target = torus.log_green(float(a), float(b))
    _exp_log_green(log_target, torus)  # green()'s range check
    return abs(math.fsum(logs) - log_target)


def torsion_product(tau: TauPoint, n: int, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """prod of G(0, P) over the nonzero n-torsion points (contract: equals n).

    Summed as logs, so single values of G may lie outside a double.  Raises
    ArithmeticError, naming the kernel product, its log and the reduced Im
    tau, where the product is not a normal double.
    """
    return _torsion_product(_Torus(tau, tol), n)


def _torsion_product(torus: _Torus, n: int) -> float:
    return _exp_log_green(torus.log_green_sums(n, [_torsion_pairs(n)])[0], torus, "kernel product")


def energy(iso: Isogeny, tol: SeriesTolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Kernel product of an isogeny and its predicted value.

    Returns (product, predicted) with product = prod_{P in ker, P != 0} G(0, P)
    on the source and predicted = sqrt(N) * ||eta||(target)^2 / ||eta||(source)^2.
    Raises ArithmeticError, as torsion_product, where the product is not a
    normal double: kernel points at b = 1/2 or b = 0 push it out of range from
    a reduced source Im tau of ~2700 or ~1350, and a large N at any source tau.
    """
    return _energies(_Torus(iso.source, tol), [(iso, log_norm_eta(iso.target, tol))])[0]


def _energies(torus: _Torus, quotients: list[tuple[Isogeny, float]]) -> list[tuple[float, float]]:
    # energy() of each (isogeny, log_norm_eta(its target)) of one degree, on their source's record
    n = quotients[0][0].degree
    log_norm_source = torus.log_norm_eta
    log_products = torus.log_green_sums(
        n, [_kernel_pairs(iso.coordinate_matrix(), n) for iso, _ in quotients])
    return [(_exp_log_green(log_product, torus, "kernel product"),
             math.sqrt(n) * math.exp(2.0 * (log_norm_target - log_norm_source)))
            for (_, log_norm_target), log_product in zip(quotients, log_products)]


def energy_via_a(iso: Isogeny, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """The same prediction through the differential-norm invariant,
    sqrt(N) * A(source) / A(target).  Raises ArithmeticError where an omega
    norm A leaves the doubles (reduced Im tau of source or target above ~1360)."""
    a_src = _omega_norm(log_norm_eta(iso.source, tol))
    a_tgt = _omega_norm(log_norm_eta(iso.target, tol))
    return math.sqrt(iso.degree) * a_src / a_tgt


def a_invariant_adjunction_check(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL,
                                 direction: complex = 0.3 + 0.4j) -> float:
    """Relative residual between the adjunction limit and the closed form.

    Estimates lim_{z->0} |z| / G(0, z) along z = t*direction by Richardson
    extrapolation in t^2 (t = 1e-2, 5e-3, 2.5e-3); the limit divided by
    sqrt(Im tau) must equal the omega_norm invariant.

    Raises ArithmeticError, naming the value and its log, where ||eta||^2
    or a sampled G is not a normal double (from a reduced Im tau of ~1350).
    """
    torus = _Torus(tau, tol)
    a_closed = 1.0 / (_TWO_PI * _exp_normal(2.0 * torus.log_norm_eta, "||eta||^2",
                                            "2 log||eta||"))

    def ratio(t: float) -> float:
        zc = t * direction
        b = zc.imag / torus.red.im
        a = zc.real - b * torus.red.re
        return abs(zc) / _exp_log_green(torus.log_green(a % 1.0, b % 1.0), torus)

    r1 = ratio(1e-2)
    r2 = ratio(5e-3)
    r3 = ratio(2.5e-3)
    first_a = (4.0 * r2 - r1) / 3.0
    first_b = (4.0 * r3 - r2) / 3.0
    limit = (16.0 * first_b - first_a) / 15.0
    return abs(limit / math.sqrt(torus.red.im) - a_closed) / a_closed


def green_mean_integral(tau: TauPoint, grid: int,
                        tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Midpoint quadrature of log G(0, .) against the unit-mass flat form.

    The mean over the grid*grid midpoints of the unit square in reduced
    lattice coordinates, which tends to 0 as the grid is refined, in closed
    form, exact for the midpoint rule: with M = grid the midpoints are the
    coset (1/(2M), 1/(2M)) + X[M], which multiplication by M sends to
    (1+tau)/2, so the projection formula sums log G over them to
    log G(0, (1+tau)/2) (at (1/2, 1/2) in reduced coordinates).
    """
    if grid.__class__ is not int or grid < 16:  # a bool is no int here
        raise ValueError(f"grid must be an int >= 16, got {grid!r}")
    return _Torus(tau, tol).log_green(0.5, 0.5) / (grid * grid)


def _midpoint_log_green_mean(tau: TauPoint, grid: int,
                             tol: SeriesTolerance = DEFAULT_TOL) -> float:
    # The direct sum behind green_mean_integral's closed form.  G(-P) = G(P)
    # pairs (i, j) with (M-1-i, M-1-j): rows j < M/2 count twice, an odd M's middle once.
    torus = _Torus(tau, tol)
    shifted = [((i + 0.5) / grid + 0.5) % 1.0 for i in range(grid)]
    series = _series(torus.red, tol)
    rows = [_weight_row(d, series) for d in shifted[:(grid + 1) // 2]]
    phases = [_phase_row(c, series) for c in shifted]
    log_sums = _kernels.log_abs_theta_shifted_grid(rows, phases)
    counts = [1 if 2 * j + 1 == grid else 2 for j in range(len(rows))]
    total = math.fsum(n * x for n, logs in zip(counts, log_sums) for x in logs)
    return total / (grid * grid) - torus.log_eta  # the (Im tau)^(1/4) factors cancel
