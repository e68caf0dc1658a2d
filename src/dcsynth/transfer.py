"""Polynomials and rational transfer functions in z, with exact coefficients.

Coefficients are stored in descending powers of z (index 0 = highest power).
The one float function, `poly_roots`, serves the root oracle
(`stability.root_oracle`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCharPoly
from .fixedpoint import FixedPointFormat


def _frac_tuple(coeffs):
    return tuple(Fraction(c) for c in coeffs)


def integerize(xs) -> tuple:
    """The n_i and the least d > 0 with x_i = n_i / d (ints or Fractions)."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


@dataclass(frozen=True)
class Poly:
    """Real polynomial, coefficients in descending powers of z."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = _frac_tuple(coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def normalize(self) -> "Poly":
        """Strip leading zeros (keeping at least one coefficient)."""
        c = self.coeffs
        i = 0
        while i < len(c) - 1 and c[i] == 0:
            i += 1
        return Poly(c[i:])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __call__(self, z):
        acc = 0
        for c in self.coeffs:
            acc = acc * z + c
        return acc


def convolve(a, b, zero):
    """Coefficients of the product of two polynomials given in descending
    powers, in whatever arithmetic their elements carry; `zero` is that
    arithmetic's additive identity."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def add_aligned(a, b, zero):
    """Coefficientwise sum of two descending-power coefficient sequences, the
    shorter padded with leading zeros."""
    d = len(a) - len(b)
    if d < 0:
        a = [zero] * -d + list(a)
    elif d > 0:
        b = [zero] * d + list(b)
    return [x + y for x, y in zip(a, b)]


def closed_loop_coeffs(cn, gn, cd, gd, zero):
    """Coefficients of S = Cn*Gn + Cd*Gd, descending powers."""
    return add_aligned(convolve(cn, gn, zero), convolve(cd, gd, zero), zero)


_EPS = 2.0 ** -52
_ROOT_ITERATIONS = 500


def poly_roots(coeffs) -> list:
    """Every complex root, with multiplicity, of the real polynomial with
    coefficients `coeffs` (descending, leading zeros ignored), in floats:
    Aberth-Ehrlich simultaneous iteration from fixed start points on a
    circle.  A root stops moving once |p(z)| is within rounding of its
    Horner evaluation, so repeated roots stop as a cluster of the size
    their conditioning allows."""
    c = [float(x) for x in coeffs]
    while c and c[0] == 0.0:
        c.pop(0)
    zeros = 0
    while c and c[-1] == 0.0:
        c.pop()
        zeros += 1
    n = len(c) - 1
    a = [x / c[0] for x in c]
    if n <= 1:
        return [complex(-x) for x in a[1:]] + [0j] * zeros
    # Start on the circle of the roots' geometric-mean modulus, turned off
    # the real axis so that no start is real.
    radius = abs(a[-1]) ** (1.0 / n)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4))
         for k in range(n)]
    moving = list(range(n))
    for _ in range(_ROOT_ITERATIONS):
        still = []
        for k in moving:
            zk, r = z[k], abs(z[k])
            p = dp = 0j
            bound = 0.0
            for x in a:
                dp = dp * zk + p
                p = p * zk + x
                bound = bound * r + abs(x)
            if abs(p) <= 4 * _EPS * bound:
                continue
            s = sum(1 / (zk - zj) for zj in z if zj != zk)
            d = dp - p * s
            if d != 0:
                z[k] = zk - p / d
                still.append(k)
        if not still:
            break
        moving = still
    return z + [0j] * zeros


def poly_mul(a: Poly, b: Poly) -> Poly:
    return Poly(convolve(a.coeffs, b.coeffs, Fraction(0)))


def poly_divmod(a: Poly, b: Poly) -> tuple:
    """Quotient and normalized remainder of a by b (nonzero lead)."""
    q, r, d = [], list(a.coeffs), b.coeffs
    while len(r) >= len(d):
        q.append(r[0] / d[0])
        r = [x - q[-1] * y for x, y in zip(r[1:], d[1:])] + r[len(d):]
    return Poly(q or [0]), Poly(r or [0]).normalize()


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function num/den in z (descending coefficients)."""

    num: Poly
    den: Poly

    def __init__(self, num, den):
        num = num if isinstance(num, Poly) else Poly(num)
        den = den if isinstance(den, Poly) else Poly(den)
        num = num.normalize()
        den = den.normalize()
        if den.coeffs[0] == 0:
            raise ValueError("denominator is identically zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)


@dataclass(frozen=True)
class PlantFamily:
    """Uncertainty box around a nominal plant, plus the plant grid format.

    `delta_num`/`delta_den` are per-coefficient nonnegative magnitudes, one
    per normalized nominal coefficient.  `plant_format` of None means the
    plant coefficients are not snapped to any finite grid.
    """

    nominal: TransferFunction
    delta_num: tuple
    delta_den: tuple
    plant_format: FixedPointFormat | None = None

    def __init__(self, nominal, delta_num=None, delta_den=None, plant_format=None):
        m = nominal.num.degree
        n = nominal.den.degree
        delta_num = _frac_tuple(delta_num if delta_num is not None else [0] * (m + 1))
        delta_den = _frac_tuple(delta_den if delta_den is not None else [0] * (n + 1))
        if len(delta_num) != m + 1 or len(delta_den) != n + 1:
            raise ValueError("uncertainty vector length must match plant orders")
        if any(d < 0 for d in delta_num + delta_den):
            raise ValueError("uncertainty magnitudes must be nonnegative")
        object.__setattr__(self, "nominal", nominal)
        object.__setattr__(self, "delta_num", delta_num)
        object.__setattr__(self, "delta_den", delta_den)
        object.__setattr__(self, "plant_format", plant_format)

    def with_format(self, fmt: FixedPointFormat) -> "PlantFamily":
        return PlantFamily(self.nominal, self.delta_num, self.delta_den, fmt)

    def is_point(self) -> bool:
        return all(d == 0 for d in self.delta_num + self.delta_den)


@dataclass(frozen=True)
class Controller:
    """Digital controller with coefficients in one shared <I,F> format."""

    num: tuple
    den: tuple

    def __init__(self, num, den):
        num = tuple(num)
        den = tuple(den)
        if not num or not den:
            raise ValueError("controller needs numerator and denominator")
        fmts = {v.format for v in num + den}
        if len(fmts) != 1:
            raise ValueError("all controller coefficients must share one format")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def format(self) -> FixedPointFormat:
        return self.num[0].format


def char_poly(controller: Controller, plant: TransferFunction) -> Poly:
    """Exact closed-loop characteristic polynomial S = Cn*Gn + Cd*Gd."""
    # From raw coefficient values, not a TransferFunction: the all-zero
    # candidate must reach the degeneracy check below, not fail earlier.
    s = Poly(closed_loop_coeffs([v.value for v in controller.num],
                                plant.num.coeffs,
                                [v.value for v in controller.den],
                                plant.den.coeffs, Fraction(0))).normalize()
    if s.is_zero():
        raise DegenerateCharPoly("characteristic polynomial is identically zero")
    return s
