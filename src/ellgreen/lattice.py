"""Complex tori and their combinatorics.

A genus-1 surface is modelled as C/(Z + tau*Z) with tau in the upper half
plane.  This module reduces tau to the standard fundamental domain,
enumerates torsion points and cyclic subgroups in exact rational lattice
coordinates, and builds quotient tori (isogenies) from cyclic subgroups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

Coord = Union[Fraction, float]
IntMatrix = tuple[tuple[int, int], tuple[int, int]]

_IDENTITY: IntMatrix = ((1, 0), (0, 1))
_REDUCE_MAX_STEPS = 512


@dataclass(frozen=True)
class TauPoint:
    """A point tau = re + i*im of the upper half plane, marking the torus
    C/(Z + tau*Z)."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"tau must be finite, got {self.re!r} + {self.im!r}i")
        if self.im <= 0.0:
            raise ValueError(f"tau must have Im tau > 0, got Im tau = {self.im!r}")

    @classmethod
    def from_complex(cls, z: complex) -> "TauPoint":
        return cls(float(z.real), float(z.imag))

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class TorusPoint:
    """A torus point a + b*tau in lattice coordinates, reduced mod 1.

    Coordinates are exact Fractions for torsion points (so equality tests
    carry no drift) or floats for generic points; integers normalise to
    Fractions.  The zero point is exactly (0, 0).
    """

    a: Coord
    b: Coord

    def __post_init__(self):
        object.__setattr__(self, "a", _mod_one(self.a, "a"))
        object.__setattr__(self, "b", _mod_one(self.b, "b"))

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(-self.a, -self.b)

    def scaled(self, k: int) -> "TorusPoint":
        return TorusPoint(k * self.a, k * self.b)

    def to_complex(self, tau: TauPoint) -> complex:
        return float(self.a) + float(self.b) * tau.z


def _mod_one(x: Coord, name: str) -> Coord:
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        # torsion points mostly arrive reduced; the test is cheaper than % 1
        return x if 0 <= x.numerator < x.denominator else x % 1
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"non-finite coordinate {name} = {x!r}")
    x = x % 1
    # float % 1 rounds up to 1.0 for tiny negative x; 0.0 is the same class
    return 0.0 if x == 1.0 else x


def mobius(mat: IntMatrix, z: complex) -> complex:
    (ma, mb), (mc, md) = mat
    return (ma * z + mb) / (mc * z + md)


def reduce_tau(tau: TauPoint) -> tuple[TauPoint, IntMatrix]:
    """Reduce tau to the standard fundamental domain of SL(2, Z).

    Returns (tau', M) with tau' = (ma*tau + mb)/(mc*tau + md), |Re tau'| <= 1/2
    and |tau'| >= 1.  Boundary ties are broken toward Re tau' >= 0: the edge
    Re = -1/2 maps to Re = +1/2, and on the arc |tau'| = 1 the representative
    with Re tau' >= 0 is chosen.
    """
    z = tau.z
    ma, mb, mc, md = 1, 0, 0, 1
    for _ in range(_REDUCE_MAX_STEPS):
        n = math.floor(z.real + 0.5)
        if n != 0:
            z -= n
            ma, mb = ma - n * mc, mb - n * md
        if z.real * z.real + z.imag * z.imag < 1.0:
            z = -1.0 / z
            ma, mb, mc, md = -mc, -md, ma, mb
        else:
            break
    # Boundary normalisation (exact float comparisons keep this deterministic).
    if z.real == -0.5:
        z += 1
        ma, mb = ma + mc, mb + md
    if z.real * z.real + z.imag * z.imag == 1.0 and z.real < 0.0:
        z = -1.0 / z
        ma, mb, mc, md = -mc, -md, ma, mb
    return TauPoint.from_complex(z), ((ma, mb), (mc, md))


def transport_point(point: TorusPoint, mat: IntMatrix) -> TorusPoint:
    """Rewrite torus coordinates under the change of marking tau -> M.tau.

    If z = a + b*tau, the same point of the torus marked by
    tau' = (ma*tau + mb)/(mc*tau + md) has coordinates
    (ma*a - mb*b, md*b - mc*a) mod 1.
    """
    (ma, mb), (mc, md) = mat
    return TorusPoint(ma * point.a - mb * point.b, md * point.b - mc * point.a)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _canonical_generator(n: int, u: int, v: int, units: list[int]) -> tuple[int, int]:
    # Orbit of (u, v) under unit multiples; pick the (v, u)-lexicographic
    # minimum.  The minimal v equals gcd(v, n) (or 0 if n | v), so the
    # canonical second component always divides n.
    best = None
    for lam in units:
        cand = ((lam * v) % n, (lam * u) % n)
        if best is None or cand < best:
            best = cand
    return best[1], best[0]


def _units(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if gcd(k, n) == 1]


@dataclass(frozen=True)
class CyclicSubgroup:
    """A cyclic order-N subgroup of the N-torsion of a torus.

    Stored by its canonical generator (u, v)/N: the lexicographically
    smallest generator ordered by (v, u), which makes equality structural.
    Any generator accepted; the constructor canonicalises.
    """

    order: int
    u: int
    v: int

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise ValueError(f"subgroup order must be >= 1, got {n}")
        u, v = self.u % n, self.v % n
        if gcd(gcd(u, v), n) != 1:
            raise ValueError(
                f"generator ({self.u}, {self.v}) does not have exact order {n}"
            )
        u, v = _canonical_generator(n, u, v, _units(n))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def generator(self) -> TorusPoint:
        return TorusPoint(Fraction(self.u, self.order), Fraction(self.v, self.order))

    def points(self) -> list[TorusPoint]:
        return subgroup_points(self)


def cyclic_subgroups(n: int) -> list[CyclicSubgroup]:
    """All cyclic subgroups of order n of the n-torsion (Z/n)^2.

    There are exactly n * prod_{p | n} (1 + 1/p) of them; the list is sorted
    by canonical generator, so enumeration order is deterministic.
    """
    if n < 1:
        raise ValueError(f"subgroup order must be >= 1, got {n}")
    units = _units(n)
    seen: set[tuple[int, int]] = set()
    for u in range(n):
        for v in range(n):
            if gcd(gcd(u, v), n) == 1:
                seen.add(_canonical_generator(n, u, v, units))
    ordered = sorted(seen, key=lambda t: (t[1], t[0]))
    return [CyclicSubgroup(n, u, v) for u, v in ordered]


# Torsion points are enumerated as integer pairs (i, j) for (i/n, j/n) mod 1;
# kernel sums use the pairs, the public point lists are built from them.

def _points(n: int, pairs: list[tuple[int, int]]) -> list[TorusPoint]:
    return [TorusPoint(Fraction(i, n), Fraction(j, n)) for i, j in pairs]


def _subgroup_pairs(sub: CyclicSubgroup) -> list[tuple[int, int]]:
    n, u, v = sub.order, sub.u, sub.v
    return [((k * u) % n, (k * v) % n) for k in range(n)]


def _exact_order_pairs(m: int) -> list[tuple[int, int]]:
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    return [(a, b) for a in range(m) for b in range(m) if gcd(gcd(a, b), m) == 1]


def _torsion_pairs(n: int) -> list[tuple[int, int]]:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [(a, b) for a in range(n) for b in range(n)]


def _kernel_pairs(t: IntMatrix, n: int) -> list[tuple[int, int]]:
    # T.adj(T) = n*I, so the pairs T sends to 0 mod n are the image of adj(T)
    # mod n: the multiples of its first column, translated by multiples of
    # its second until a translate repeats.  det T = n gives n pairs, zero first.
    (t11, t12), (t21, t22) = t
    line, i, j = [(0, 0)], t22 % n, -t21 % n
    while (i, j) != (0, 0):
        line.append((i, j))
        i, j = (i + t22) % n, (j - t21) % n
    on_line, pairs, di, dj = set(line), [], 0, 0
    while True:
        pairs += [((i + di) % n, (j + dj) % n) for i, j in line]
        di, dj = (di - t12) % n, (dj + t11) % n
        if (di, dj) in on_line:
            return pairs


def subgroup_points(sub: CyclicSubgroup) -> list[TorusPoint]:
    """The order-N points k*(u/N, v/N) mod 1, k = 0..N-1 (zero included)."""
    return _points(sub.order, _subgroup_pairs(sub))


def exact_order_points(m: int) -> list[TorusPoint]:
    """All torsion points of exact order m: (a/m, b/m) with gcd(a, b, m) = 1."""
    return _points(m, _exact_order_pairs(m))


def mult_by_n_kernel(n: int) -> list[TorusPoint]:
    """The n^2 points of the kernel of multiplication by n."""
    return _points(n, _torsion_pairs(n))


@dataclass(frozen=True)
class Isogeny:
    """A degree-N isogeny between tori given by z -> scale*z.

    `scale` carries source lattice coordinates into the normalised target
    torus C/(Z + target*Z); in particular scale*(a + b*source) lands on the
    target lattice exactly when (a, b) is a kernel point.  Raises ValueError
    when degree < 1 or when scale does not give coordinate_matrix().
    """

    source: TauPoint
    target: TauPoint
    degree: int
    scale: complex

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        self.coordinate_matrix()

    @property
    def kernel(self) -> tuple[TorusPoint, ...]:
        """The N points (i/N, j/N) that T = coordinate_matrix() sends to the
        target lattice, sorted, zero first."""
        n = self.degree
        return tuple(_points(n, sorted(_kernel_pairs(self.coordinate_matrix(), n))))

    def coordinate_matrix(self) -> IntMatrix:
        """Integer matrix T sending source lattice coordinates to target
        lattice coordinates, det T = degree.

        Raises ValueError when scale gives a non-integer entry or another
        determinant.
        """
        tz = self.target
        cols = []
        for basis in (1.0 + 0.0j, self.source.z):
            c = self.scale * basis
            b = c.imag / tz.im
            a = c.real - b * tz.re
            cols.append((a, b))
        t11, t21 = _nearest_int(cols[0][0]), _nearest_int(cols[0][1])
        t12, t22 = _nearest_int(cols[1][0]), _nearest_int(cols[1][1])
        det = t11 * t22 - t12 * t21
        if det != self.degree:
            raise ValueError(f"coordinate map determinant {det} != degree {self.degree}")
        return ((t11, t12), (t21, t22))

    def apply(self, point: TorusPoint) -> TorusPoint:
        """Image of a source point on the target torus, in lattice coordinates."""
        (t11, t12), (t21, t22) = self.coordinate_matrix()
        return TorusPoint(t11 * point.a + t12 * point.b, t21 * point.a + t22 * point.b)

    def preimage(self, point: TorusPoint) -> TorusPoint:
        """One preimage of a target point (the full fiber is preimage + kernel)."""
        (t11, t12), (t21, t22) = self.coordinate_matrix()
        n = self.degree
        a, b = point.a, point.b
        return TorusPoint((t22 * a - t12 * b) / n, (t11 * b - t21 * a) / n)

    def fiber(self, point: TorusPoint) -> list[TorusPoint]:
        w0 = self.preimage(point)
        return [w0 + k for k in self.kernel]


def _nearest_int(x: float, tol: float = 1e-6) -> int:
    n = round(x)
    if abs(x - n) > tol:
        raise ValueError(f"expected an integer matrix entry, got {x!r}")
    return n


def multiplication_isogeny(tau: TauPoint, n: int) -> Isogeny:
    """Multiplication by n as a degree-n^2 isogeny of the torus to itself."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Isogeny(source=tau, target=tau, degree=n * n, scale=complex(n))


def _quotient_target(tau: TauPoint, sub: CyclicSubgroup) -> tuple[TauPoint, complex]:
    # (target, scale) of the quotient by sub; see quotient
    n, u, v = sub.order, sub.u, sub.v
    h, s, _ = _egcd(v, n)  # h = gcd(v, n); s*v = h (mod n)
    assert 1 <= h <= n
    d1 = n // h
    x0 = (s * u) % d1
    # basis of the superlattice: omega1 = 1/h, omega2 = (x0 + h*tau)/n
    omega1 = 1.0 / h
    raw = complex(h * x0, 0) / n + (h * h / n) * tau.z
    target, mat = reduce_tau(TauPoint.from_complex(raw))
    (_, _), (mc, md) = mat
    return target, 1.0 / (omega1 * (mc * raw + md))


def quotient(tau: TauPoint, sub: CyclicSubgroup) -> Isogeny:
    """The isogeny from C/(Z + tau*Z) to its quotient by a cyclic subgroup.

    The superlattice Z + tau*Z + Z*(u + v*tau)/N is put on an oriented
    two-generator basis by integer column reduction; the target is the
    reduced tau of that basis and `scale` normalises accordingly.
    """
    target, scale = _quotient_target(tau, sub)
    return Isogeny(source=tau, target=target, degree=sub.order, scale=scale)
