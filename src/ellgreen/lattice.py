"""Complex tori and their combinatorics.

A genus-1 surface is modelled as C/(Z + tau*Z) with tau in the upper half
plane.  This module reduces tau to the standard fundamental domain,
enumerates torsion points and cyclic subgroups in exact rational lattice
coordinates, and builds quotient tori (isogenies) from cyclic subgroups.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from math import gcd
from operator import index

Coord = Fraction | float
IntMatrix = tuple[tuple[int, int], tuple[int, int]]

_IDENTITY: IntMatrix = ((1, 0), (0, 1))
_REDUCE_MAX_STEPS = 512
_set = object.__setattr__


class _Value:
    """An immutable value whose fields are named, in order, by the class's
    `__match_args__`: equal to a value of the same class with equal fields,
    hashed and printed as Name(field=value, ...), and AttributeError on
    assignment or deletion.  Pickling and copying go back through the
    constructor, so a subclass's __init__ (which sets its slots with `_set`)
    must accept its own fields."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()


class TauPoint(_Value):
    """A point tau = re + i*im of the upper half plane, marking the torus
    C/(Z + tau*Z)."""

    __slots__ = __match_args__ = ("re", "im")

    def __init__(self, re: float, im: float):
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"tau must be finite, got {re!r} + {im!r}i")
        if im <= 0.0:
            raise ValueError(f"tau must have Im tau > 0, got Im tau = {im!r}")
        _set(self, "re", re)
        _set(self, "im", im)

    @classmethod
    def from_complex(cls, z: complex) -> "TauPoint":
        return cls(float(z.real), float(z.imag))

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


class TorusPoint(_Value):
    """A torus point a + b*tau in lattice coordinates, reduced mod 1.

    Coordinates are exact Fractions for torsion points (so equality tests
    carry no drift) or floats for generic points; integers normalise to
    Fractions, and a coordinate that is no real number (numbers.Real) or a
    non-finite real raises ValueError.  The zero point is exactly (0, 0).
    """

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: Coord, b: Coord):
        _set(self, "a", a)
        _set(self, "b", b)
        self.__post_init__()

    def __post_init__(self):
        _set(self, "a", _mod_one(self.a, "a"))
        _set(self, "b", _mod_one(self.b, "b"))

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
    # floats are tested first: isinstance(x, Fraction) goes through ABCMeta
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite coordinate {name} = {x!r}")
    else:
        if isinstance(x, int):
            x = Fraction(x)
        if isinstance(x, Fraction):
            # torsion points mostly arrive reduced; the test is cheaper than % 1
            return x if 0 <= x.numerator < x.denominator else x % 1
        if not isinstance(x, numbers.Real):  # x % 1 would format a str, or raise TypeError
            raise ValueError(f"coordinate {name} must be a real number, got {x!r}")
        if not math.isfinite(x):  # inf % 1 of another real type is nan
            raise ValueError(f"non-finite coordinate {name} = {float(x)!r}")
    x = x % 1
    # float % 1 rounds up to 1.0 for tiny negative x; 0.0 is the same class
    return 0.0 if x == 1.0 else x


def _built(cls: type, *fields):
    # a cls with its slots set to fields in order, skipping the constructor: for fields known valid
    value = cls.__new__(cls)
    for name, field in zip(cls.__slots__, fields):
        _set(value, name, field)
    return value


def _check_order(n: int, name: str = "n", least: int = 1) -> None:
    if n.__class__ is not int or n < least:  # a bool is no int here
        raise ValueError(f"{name} must be an int >= {least}, got {n!r}")


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
    re, im = tau.re, tau.im
    if -0.5 < re and re + 0.5 < 1.0 and re * re + im * im > 1.0:
        return tau, _IDENTITY  # what the loop returns there: no step, no tie to break
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


def _normal_form(n: int, u: int, v: int) -> tuple[int, int]:
    # the (v, u)-least unit multiple of the order-n generator (u, v); see
    # CyclicSubgroup
    h = gcd(v, n)
    step = n // h
    x = (pow(v // h, -1, step) * u) % step
    while gcd(x, h) != 1:
        x += step
    return x, h % n


class CyclicSubgroup(_Value):
    """A cyclic order-N subgroup of the N-torsion of a torus.

    Stored by its canonical generator (u, v)/N: the lexicographically
    smallest generator ordered by (v, u), which makes equality structural.
    Any generator with int coordinates accepted; the constructor canonicalises.
    That is the normal form of the point (u : v) of P^1(Z/N) (Cremona,
    Algorithms for Modular Elliptic Curves, 2.2): v becomes h = gcd(v, N), or
    0 when N | v, and u the least x = s*u mod N/h with gcd(x, h) = 1, where
    s*v = h mod N.
    """

    __slots__ = __match_args__ = ("order", "u", "v")

    def __init__(self, order: int, u: int, v: int):
        _check_order(order, "subgroup order")
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise ValueError(f"generator ({u!r}, {v!r}) needs int coordinates") from None
        if gcd(gcd(u % order, v % order), order) != 1:
            raise ValueError(f"generator ({u}, {v}) does not have exact order {order}")
        _set(self, "order", order)
        u, v = _normal_form(order, u % order, v % order)
        _set(self, "u", u)
        _set(self, "v", v)

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
    _check_order(n, "subgroup order")
    # one point (r : h) of P^1(Z/n) per divisor h and residue r mod n/h
    # prime to gcd(h, n/h), lifted to its normal form (r is not always prime to h)
    subs = [_built(CyclicSubgroup, n, *_normal_form(n, r, h)) for h in range(1, n + 1)
            if n % h == 0 for r in range(n // h) if gcd(gcd(r, h), n // h) == 1]
    return sorted(subs, key=lambda sub: (sub.v, sub.u))


# Torsion points are enumerated as integer pairs (i, j) for (i/n, j/n) mod 1;
# the torsion and exact-order sums count +-P classes over them, the point lists build on them.

def _points(n: int, pairs: list[tuple[int, int]]) -> list[TorusPoint]:
    return [TorusPoint(Fraction(i, n), Fraction(j, n)) for i, j in pairs]


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
    n, u, v = sub.order, sub.u, sub.v
    return _points(n, [((k * u) % n, (k * v) % n) for k in range(n)])


def exact_order_points(m: int) -> list[TorusPoint]:
    """All torsion points of exact order m: (a/m, b/m) with gcd(a, b, m) = 1."""
    _check_order(m, "order")
    return _points(m, [(a, b) for a in range(m) for b in range(m) if gcd(a, b, m) == 1])


def mult_by_n_kernel(n: int) -> list[TorusPoint]:
    """The n^2 points of the kernel of multiplication by n."""
    _check_order(n)
    return _points(n, [(a, b) for a in range(n) for b in range(n)])


class Isogeny(_Value):
    """A degree-N isogeny between tori given by z -> scale*z.

    `scale` carries source lattice coordinates into the normalised target
    torus C/(Z + target*Z); in particular scale*(a + b*source) lands on the
    target lattice exactly when (a, b) is a kernel point.  Built directly, it
    derives coordinate_matrix() from scale, raising ValueError when degree is not
    an int >= 1 or scale gives none; `quotient` and `multiplication_isogeny` pass T in integers.
    """

    __match_args__ = ("source", "target", "degree", "scale")
    __slots__ = (*__match_args__, "_matrix")

    def __init__(self, source: TauPoint, target: TauPoint, degree: int, scale: complex):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "degree", degree)
        _set(self, "scale", scale)
        self.__post_init__()

    def __post_init__(self):
        _check_order(self.degree, "degree")
        tz = self.target
        cols = []
        for basis in (1.0 + 0.0j, self.source.z):
            c = self.scale * basis
            b = c.imag / tz.im
            a = c.real - b * tz.re
            cols.append((_nearest_int(a), _nearest_int(b)))
        (t11, t21), (t12, t22) = cols
        det = t11 * t22 - t12 * t21
        if det != self.degree:
            raise ValueError(f"coordinate map determinant {det} != degree {self.degree}")
        _set(self, "_matrix", ((t11, t12), (t21, t22)))

    @property
    def kernel(self) -> tuple[TorusPoint, ...]:
        """The N points (i/N, j/N) that T = coordinate_matrix() sends to the
        target lattice, sorted, zero first."""
        n = self.degree
        return tuple(_points(n, sorted(_kernel_pairs(self._matrix, n))))

    def coordinate_matrix(self) -> IntMatrix:
        """Integer matrix T sending source lattice coordinates to target
        lattice coordinates, det T = degree, fixed when the isogeny is built."""
        return self._matrix

    def apply(self, point: TorusPoint) -> TorusPoint:
        """Image of a source point on the target torus, in lattice coordinates."""
        (t11, t12), (t21, t22) = self._matrix
        return TorusPoint(t11 * point.a + t12 * point.b, t21 * point.a + t22 * point.b)

    def preimage(self, point: TorusPoint) -> TorusPoint:
        """One preimage of a target point (the full fiber is preimage + kernel)."""
        (t11, t12), (t21, t22) = self._matrix
        n = self.degree
        a, b = point.a, point.b
        return TorusPoint((t22 * a - t12 * b) / n, (t11 * b - t21 * a) / n)

    def fiber(self, point: TorusPoint) -> list[TorusPoint]:
        w0 = self.preimage(point)
        return [w0 + k for k in self.kernel]


def _nearest_int(x: float) -> int:
    n = round(x)
    if abs(x - n) > 1e-6:
        raise ValueError(f"expected an integer matrix entry, got {x!r}")
    return n


def multiplication_isogeny(tau: TauPoint, n: int) -> Isogeny:
    """Multiplication by n as a degree-n^2 isogeny of the torus to itself, T = n*I."""
    _check_order(n)
    return _built(Isogeny, tau, tau, n * n, complex(n), ((n, 0), (0, n)))


def _quotient_target(tau: TauPoint, sub: CyclicSubgroup) -> tuple[TauPoint, complex, IntMatrix]:
    # (target, scale, T) of the quotient by sub; see quotient.  In normal form
    # v = h = gcd(v, n) (0 when h = n), so s = 1 and x0 = u mod k, k = n/h
    n, h = sub.order, sub.v or sub.order
    x0 = sub.u % (k := n // h)
    # superlattice basis omega1 = 1/h, omega2 = (x0 + h*tau)/n: T's columns are
    # 1 = h*omega1 and tau = k*omega2 - x0*omega1 moved through the reduction M
    raw = complex(h * x0, 0) / n + (h * h / n) * tau.z
    target, ((ma, mb), (mc, md)) = reduce_tau(TauPoint.from_complex(raw))
    t = ((h * ma, -k * mb - x0 * ma), (-h * mc, k * md + x0 * mc))
    return target, 1.0 / ((1.0 / h) * (mc * raw + md)), t


def quotient(tau: TauPoint, sub: CyclicSubgroup) -> Isogeny:
    """The isogeny from C/(Z + tau*Z) to its quotient by a cyclic subgroup.

    The superlattice Z + tau*Z + Z*(u + v*tau)/N is put on an oriented
    two-generator basis by integer column reduction; the target is the
    reduced tau of that basis, `scale` normalises accordingly and T is read
    off the reduction in integers, not derived from `scale`.
    """
    target, scale, t = _quotient_target(tau, sub)
    return _built(Isogeny, tau, target, sub.order, scale, t)
