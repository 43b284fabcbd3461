"""The canonical Green function of a genus-1 surface and its identities.

The computational definition is G(0, z) = ||theta||(z + (1+tau)/2; tau) / ||eta||;
two-point values follow from translation invariance, G(P, Q) = G(0, Q - P).
The defining normalisation (zero mean of log G against the flat unit-mass
form) is exposed as a quadrature check rather than assumed.  Every value and
sum of log G here is evaluated on one `Torus` record per torus: a sum walks
+-P classes, a cyclic group from its generator, and forms the series
constants once.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import attrgetter, truediv

from . import _kernels
from .lattice import (Coord, CyclicSubgroup, IntMatrix, Isogeny, TauPoint, TorusPoint, _Value,
                      _check_order, _kernel_pairs, _mod_one, _quotient_target, _set,
                      cyclic_subgroups, reduce_tau)
from .modular import (DEFAULT_TOL, SeriesTolerance, _exp_normal, _log_abs_eta, _log_abs_shifted,
                      _phase_row, _series, _weight_row, log_abs_theta_shifted, log_norm_eta)

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


def _exp_log_green(log_value: float, torus: Torus | None = None, name: str = "G") -> float:
    # log G(0, a + b*tau) runs from about -pi*Im(tau)/6 at b = 0 to pi*Im(tau)/12
    # at b = 1/2, so G may leave the normal doubles while its log does not
    try:
        return _exp_normal(log_value, name, f"log {name}")
    except ArithmeticError as exc:
        if torus is None:
            raise
        raise ArithmeticError(f"{exc} at reduced Im tau = {torus.red.im!r}") from None


class Torus(_Value):
    """The torus marked by tau, reduced once: the record every value and sum
    of log G is evaluated on.  Read-only fields: `tau` and `tol` as given,
    the reduced tau `red`, the matrix `mat` with red = mat.tau and `log_eta`
    = log|eta(red)|.  It keeps, per order n, the finished log G by +-P class,
    which every sum of that order reads, and the cyclic order-n quotients,
    which `energies` and `average_green_over_cyclic` share; no value depends
    on the order of the calls.  Equal and hashed by (tau, tol), and pickled
    as a fresh record of them.
    """

    __match_args__ = ("tau", "tol")
    __slots__ = ("_tau", "_tol", "_red", "_mat", "_log_eta", "_tables", "_series", "_quotients")
    # plain stores, as every green() builds a record and a store through _set costs
    # several plain ones: both hooks are object's, and the public fields are
    # properties with no setter
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    tau, tol, red, mat, log_eta = (property(attrgetter(f"_{name}"))
                                   for name in ("tau", "tol", "red", "mat", "log_eta"))

    def __init__(self, tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL):
        self._tau, self._tol = tau, tol
        self._red, self._mat = reduce_tau(tau)
        self._log_eta = _log_abs_eta(self._red, tol)
        self._tables = {}  # n: {a*n + b: log G}, filled by log_green_sums
        self._series = None  # _series(red, tol), at the first log G that needs it
        self._quotients = {}  # n: [(subgroup, T, log_norm_eta(target))] of its quotients

    @property
    def log_norm_eta(self) -> float:
        return 0.25 * math.log(self._red.im) + self._log_eta

    def log_green(self, a: float, b: float) -> float:
        # log G(0, a + b*red); the (Im tau)^(1/4) of ||theta|| and ||eta|| cancel
        series = self._series = self._series or _series(self._red, self._tol)
        return _log_abs_shifted((a + 0.5) % 1.0, (b + 0.5) % 1.0, series) - self._log_eta

    def log_green_at(self, a: Coord, b: Coord) -> float | None:
        # log G(0, a + b*tau), None at the origin: (a, b) moves through `mat` as in
        # transport_point, two Fractions in integers over den = qa*qb (int / int
        # rounds as float(Fraction) does), any other pair in floats
        (ma, mb), (mc, md) = self._mat
        if a.__class__ is Fraction and b.__class__ is Fraction:
            (pa, qa), (pb, qb) = a.as_integer_ratio(), b.as_integer_ratio()
            den = qa * qb
            a, b = (ma * pa * qb - mb * pb * qa) % den, (md * pb * qa - mc * pa * qb) % den
        else:
            a, b, den = _mod_one(ma * a - mb * b, "a"), _mod_one(md * b - mc * a, "b"), 1.0
        if a == 0 and b == 0:
            return None
        return self.log_green(a / den, b / den)

    def walk(self, n: int, i: int, j: int) -> dict[tuple[int, int], int]:
        # the +-P classes of the cyclic group of (i, j) mod n, of exact order n: g = mat.(i, j)
        # once, then k*g (k = 1..n/2) as a running sum at min(k*g, -k*g), weight 2 (1 at k = n/2)
        (ma, mb), (mc, md) = self._mat
        i, j = (ma * i - mb * j) % n, (md * j - mc * i) % n
        classes, a, b = {}, 0, 0
        for k in range(1, n // 2 + 1):
            a, b = (a + i) % n, (b + j) % n
            na, nb = -a % n, -b % n
            classes[(a, b) if a < na or a == na and b <= nb else (na, nb)] = 1 if 2 * k == n else 2
        return classes

    def kernel_classes(self, t: IntMatrix, n: int) -> dict[tuple[int, int], int]:
        # the +-P classes of T's kernel, walked from the first c1 + l*c2 (c1, c2 the
        # columns of adj(T)) of exact order n, which a cyclic kernel has (per prime p | n
        # one l mod p fails at most); a kernel with none moves each pair through `mat`
        (t11, t12), (t21, t22) = t
        for l in range(n):
            i, j = (t22 - l * t12) % n, (l * t11 - t21) % n
            if math.gcd(i, j, n) == 1:
                return self.walk(n, i, j)
        (ma, mb), (mc, md) = self._mat
        moved = [((ma * i - mb * j) % n, (md * j - mc * i) % n) for i, j in _kernel_pairs(t, n)]
        return {(a, b): 1 if (a, b) == neg else 2 for a, b in moved
                if (a or b) and (a, b) <= (neg := (-a % n, -b % n))}

    def torsion_classes(self, n: int, exact_order: bool = False) -> dict[tuple[int, int], int]:
        # the +-P classes of the nonzero n-torsion, or of its points of exact order n, listed as
        # min(P, -P): a = 0..n/2, any b where 0 < 2a < n, b = 0..n/2 where a = 0 (b >= 1) or
        # 2a = n; weight 1 where P = -P.  `mat` maps each set onto itself: no pair moves
        _check_order(n, "order" if exact_order else "n")
        return {(a, b): 1 if edge and 2 * b % n == 0 else 2
                for a in range(n // 2 + 1) for edge in (2 * a % n == 0,)
                for b in range(a == 0, n // 2 + 1 if edge else n)
                if not exact_order or math.gcd(a, b, n) == 1}

    def log_green_sums(self, n: int, class_lists: list[dict[tuple[int, int], int]]) -> list[float]:
        # Per {(a, b): weight} over +-P classes, (a, b) = min(P, -P) in reduced
        # coordinates as green() picks it, the weighted sum of log G(0, (a + b*red)/n);
        # 2*x is exact, so fsum gives the bits of the sum over the points.  A lone
        # group (1 to n/2 + 1 classes) on a record with no n-table goes one loop
        # per class; any other request fills the n-table, keyed by the int a*n + b
        # (tuple keys held for a whole verify run raise its peak RSS), from weight and
        # phase rows shared within the request.
        if (len(class_lists) == 1 and n not in self._tables
                and 0 < len(class_lists[0]) <= n // 2 + 1):
            series = self._series = self._series or _series(self._red, self._tol)
            return [math.fsum([w * (_log_abs_shifted((a / n + 0.5) % 1.0, (b / n + 0.5) % 1.0,
                                                     series) - self._log_eta)
                               for (a, b), w in class_lists[0].items()])]
        table, weights, phases = self._tables.setdefault(n, {}), {}, {}
        sums = []
        for classes in class_lists:
            logs = []
            for (a, b), w in classes.items():
                key = a * n + b
                if key not in table:
                    series = self._series = self._series or _series(self._red, self._tol)
                    if b not in weights:
                        weights[b] = _weight_row((b / n + 0.5) % 1.0, series)
                    if a not in phases:
                        phases[a] = _phase_row((a / n + 0.5) % 1.0, series)
                    table[key] = log_abs_theta_shifted(weights[b], phases[a]) - self._log_eta
                logs.append(w * table[key])
            sums.append(math.fsum(logs))
        return sums

    def _cyclic_quotients(self, n: int) -> list[tuple[CyclicSubgroup, IntMatrix, float]]:
        # per cyclic_subgroups(n), once: (sub, T and log_norm_eta of the target of
        # quotient(tau, sub)), read off the reduction as quotient reads them
        if n not in self._quotients:
            self._quotients[n] = [(sub, t, log_norm_eta(target, self._tol))
                                  for sub in cyclic_subgroups(n)
                                  for target, _, t in (_quotient_target(self._tau, sub),)]
        return self._quotients[n]

    def _kernel_energies(self, n: int, quotients: list[tuple[IntMatrix, float]]
                         ) -> list[tuple[float, float]]:
        # energy() of each (T of a degree-n isogeny from tau, log_norm_eta(its target)), one request
        log_products = self.log_green_sums(n, [self.kernel_classes(t, n) for t, _ in quotients])
        return [(_exp_log_green(log_product, self, "kernel product"),
                 math.sqrt(n) * math.exp(2.0 * (log_norm_target - self.log_norm_eta)))
                for (_, log_norm_target), log_product in zip(quotients, log_products)]

    def green(self, z: TorusPoint) -> GreenValue:
        """G(0, z), z in tau's lattice coordinates; see `green`."""
        log_value = self.log_green_at(z.a, z.b)
        if log_value is None:
            return GreenValue(0.0, -math.inf)
        return GreenValue(_exp_log_green(log_value, self), log_value)

    def torsion_product(self, n: int) -> float:
        """prod of G(0, P) over the nonzero n-torsion; see `torsion_product`."""
        return _exp_log_green(self.log_green_sums(n, [self.torsion_classes(n)])[0], self,
                              "kernel product")

    def energy(self, iso: Isogeny) -> tuple[float, float]:
        """(product, predicted) of an isogeny from tau; see `energy`.  Raises
        ValueError where iso.source is not this record's tau."""
        if iso.source is not self._tau and iso.source != self._tau:  # energy() passes its own
            raise ValueError(f"isogeny source {iso.source!r} is not the torus's tau {self._tau!r}")
        return self._kernel_energies(
            iso.degree, [(iso.coordinate_matrix(), log_norm_eta(iso.target, self._tol))])[0]

    def energies(self, n: int) -> list[tuple[float, float]]:
        """energy() of the quotient by each cyclic order-n subgroup, in
        cyclic_subgroups(n) order."""
        return self._kernel_energies(n, [(t, log) for _, t, log in self._cyclic_quotients(n)])

    def average_green_over_cyclic(self, n: int) -> AverageHeightReport:
        """The AverageHeightReport at (tau, n); see `heights.average_green_over_cyclic`."""
        # a function-level import: heights imports this module
        from .heights import (AverageHeightReport, average_height_increment,
                              cyclic_log_green_constant)
        quotients = self._cyclic_quotients(n)
        green_sums = self.log_green_sums(n, [self.walk(n, sub.u, sub.v) for sub, _, _ in quotients])
        log_delta_src = 24.0 * self.log_norm_eta
        delta_drops = [(log_delta_src - 24.0 * log) / 12.0 for _, _, log in quotients]
        return AverageHeightReport(
            n=n,
            green_average=math.fsum(green_sums) / len(quotients),
            green_predicted=cyclic_log_green_constant(n),
            delta_average=math.fsum(delta_drops) / len(quotients),
            delta_predicted=average_height_increment(n),
        )

    def exact_order_log_green(self, m: int) -> float:
        """Sum of log G over the points of exact order m; see
        `heights.exact_order_log_green`."""
        return self.log_green_sums(m, [self.torsion_classes(m, exact_order=True)])[0]


def green(tau: TauPoint, z: TorusPoint, tol: SeriesTolerance = DEFAULT_TOL) -> GreenValue:
    """G(0, z) on the torus marked by tau.

    tau is reduced to the fundamental domain and the point's lattice
    coordinates are moved through the same change of marking on its record
    (`Torus.log_green_at`), so the result is an invariant of (torus, point
    class); an exact point moves in integers and builds no Fraction.  Exactly
    zero iff the reduced point is (0, 0).  log G is right at any reduced Im tau.

    Raises ArithmeticError, naming log G and the reduced Im tau, where G is
    not a normal double: log G below ~-708.40 (from a reduced Im tau of
    ~1350, near b = 0) or above ~709.78 (from ~2700, near b = 1/2).  Near
    the origin G has relative accuracy about 1e-16/|z| (|z| in lattice
    coordinates); within a few rounding errors of it no digit survives and
    it raises ArithmeticError instead of returning noise.
    """
    return Torus(tau, tol).green(z)


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
    is exact over one integer denominator, a float w too; each term, z - Q
    and f(z) - w, moves through its torus's reduction as green() moves it.
    """
    # Q = adj(T).w/n + (i, j)/n over the kernel pairs, as integers over den;
    # int / int rounds as float(Fraction) does, whatever the denominator
    n, ((t11, t12), (t21, t22)) = iso.degree, iso.coordinate_matrix()
    (wa, da), (wb, db) = w.a.as_integer_ratio(), w.b.as_integer_ratio()
    d, den = da * db, n * da * db
    qa, qb = t22 * wa * db - t12 * wb * da, t11 * wb * da - t21 * wa * db
    div_a, div_b = (Fraction if isinstance(x, Fraction) else truediv for x in (z.a, z.b))
    torus = Torus(iso.source, tol)
    logs = []
    for i, j in _kernel_pairs(iso.coordinate_matrix(), n):
        log_value = torus.log_green_at(_mod_one(z.a - div_a((qa + d * i) % den, den), "a"),
                                       _mod_one(z.b - div_b((qb + d * j) % den, den), "b"))
        if log_value is None:
            raise ValueError("z lies in the fiber of w; log G(Q, z) diverges")
        logs.append(log_value)
    fa = _mod_one(_mod_one(t11 * z.a + t12 * z.b, "a") - w.a, "a")
    fb = _mod_one(_mod_one(t21 * z.a + t22 * z.b, "b") - w.b, "b")
    torus = Torus(iso.target, tol)
    log_target = torus.log_green_at(fa, fb)
    if log_target is None:
        raise ValueError("f(z) coincides with w; log G diverges")
    _exp_log_green(log_target, torus)  # green()'s range check
    return abs(math.fsum(logs) - log_target)


def torsion_product(tau: TauPoint, n: int, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """prod of G(0, P) over the nonzero n-torsion points (contract: equals n).

    Summed as logs, so single values of G may lie outside a double.  Raises
    ArithmeticError, naming the kernel product, its log and the reduced Im
    tau, where the product is not a normal double.
    """
    return Torus(tau, tol).torsion_product(n)


def energy(iso: Isogeny, tol: SeriesTolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Kernel product of an isogeny and its predicted value.

    Returns (product, predicted) with product = prod_{P in ker, P != 0} G(0, P)
    on the source and predicted = sqrt(N) * ||eta||(target)^2 / ||eta||(source)^2.
    Raises ArithmeticError, as torsion_product, where the product is not a
    normal double: kernel points at b = 1/2 or b = 0 push it out of range from
    a reduced source Im tau of ~2700 or ~1350, and a large N at any source tau.
    """
    return Torus(iso.source, tol).energy(iso)


def a_invariant_adjunction_check(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL,
                                 direction: complex = 0.3 + 0.4j) -> float:
    """Relative residual between the adjunction limit and the closed form.

    Estimates lim_{z->0} |z| / G(0, z) along z = t*direction by Richardson
    extrapolation in t^2 (t = 1e-2, 5e-3, 2.5e-3); the limit divided by
    sqrt(Im tau) must equal the omega_norm invariant.

    Raises ArithmeticError, naming the value and its log, where ||eta||^2
    or a sampled G is not a normal double (from a reduced Im tau of ~1350).
    """
    torus = Torus(tau, tol)
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
    _check_order(grid, "grid", 16)
    return Torus(tau, tol).log_green(0.5, 0.5) / (grid * grid)


def _midpoint_log_green_mean(tau: TauPoint, grid: int,
                             tol: SeriesTolerance = DEFAULT_TOL) -> float:
    # The direct sum behind green_mean_integral's closed form.  G(-P) = G(P)
    # pairs (i, j) with (M-1-i, M-1-j): rows j < M/2 count twice, an odd M's middle once.
    torus = Torus(tau, tol)
    shifted = [((i + 0.5) / grid + 0.5) % 1.0 for i in range(grid)]
    series = _series(torus.red, tol)
    rows = [_weight_row(d, series) for d in shifted[:(grid + 1) // 2]]
    phases = [_phase_row(c, series) for c in shifted]
    log_sums = _kernels.log_abs_theta_shifted_grid(rows, phases)
    counts = [1 if 2 * j + 1 == grid else 2 for j in range(len(rows))]
    total = math.fsum(n * x for n, logs in zip(counts, log_sums) for x in logs)
    return total / (grid * grid) - torus.log_eta  # the (Im tau)^(1/4) factors cancel
