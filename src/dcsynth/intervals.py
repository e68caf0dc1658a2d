"""Interval arithmetic with exact rational endpoints.

Endpoints are `Fraction`s, so every operation encloses its exact result set
with no rounding at all.  Plant quantization enters only as a widening of each
coefficient by one grid step (`family_to_interval_poly`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisorContainsZero
from .fixedpoint import FixedPointFormat, quantize_nearest
from .transfer import PlantFamily, add_aligned, integerize


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi=None):
        lo = lo if type(lo) is Fraction else Fraction(lo)
        hi = lo if hi is None else hi if type(hi) is Fraction else Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)

    def __abs__(self):
        if self.contains_zero():
            return RationalInterval(0, max(-self.lo, self.hi))
        if self.hi < 0:
            return -self
        return self

    def __add__(self, other):
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __radd__(self, other):
        # sum() starts from the number 0.
        return self + RationalInterval(other)

    def __sub__(self, other):
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return RationalInterval(min(p), max(p))

    def __truediv__(self, other):
        if other.contains_zero():
            raise DivisorContainsZero(
                f"divisor [{other.lo}, {other.hi}] contains zero")
        p = (self.lo / other.lo, self.lo / other.hi,
             self.hi / other.lo, self.hi / other.hi)
        return RationalInterval(min(p), max(p))

    def subset_of(self, other: "RationalInterval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def snap_inward(self, fmt: FixedPointFormat) -> "RationalInterval | None":
        """Largest grid-endpoint interval inside self, or None if no grid
        point lies inside."""
        s = fmt.scale
        lo = Fraction(math.ceil(self.lo * s), s)
        hi = Fraction(math.floor(self.hi * s), s)
        if lo > hi:
            return None
        return RationalInterval(lo, hi)


@dataclass(frozen=True)
class IntervalPoly:
    """Polynomial with interval coefficients, descending powers of z."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = tuple(c if isinstance(c, RationalInterval)
                       else RationalInterval(c) for c in coeffs)
        if not coeffs:
            raise ValueError("interval polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def ipoly_add(a: IntervalPoly, b: IntervalPoly) -> IntervalPoly:
    return IntervalPoly(add_aligned(a.coeffs, b.coeffs, RationalInterval(0)))


def ipoly_mul(a: IntervalPoly, b: IntervalPoly) -> IntervalPoly:
    """The interval product, on integer endpoints over each factor's least
    common denominator: the same enclosure, one Fraction per endpoint."""
    (na, da), (nb, db) = (integerize([x for c in p.coeffs
                                      for x in (c.lo, c.hi)]) for p in (a, b))
    na, nb = (list(zip(n[::2], n[1::2])) for n in (na, nb))  # (lo, hi)s
    out = [[0, 0] for _ in range(len(na) + len(nb) - 1)]
    for i, x in enumerate(na):
        for j, y in enumerate(nb, i):
            p = [u * v for u in x for v in y]
            out[j][0] += min(p)
            out[j][1] += max(p)
    return IntervalPoly([RationalInterval(*(Fraction(v, da * db) for v in c))
                         for c in out])


def _coeff_interval(c: Fraction, delta: Fraction,
                    fmt: FixedPointFormat | None) -> RationalInterval:
    # Conservative symmetric enclosure: the FWL rounding residue has unknown
    # sign, so the grid term 2^-Fp widens both sides.
    grid = fmt.step if fmt is not None else Fraction(0)
    return RationalInterval(c - delta - grid, c + delta + grid)


def family_to_interval_poly(family: PlantFamily):
    """Interval numerator/denominator enclosing every plant of the family,
    including every FWL-quantized member at the family's plant format."""
    fmt = family.plant_format
    num = IntervalPoly([_coeff_interval(c, d, fmt)
                        for c, d in zip(family.nominal.num.coeffs, family.delta_num)])
    den = IntervalPoly([_coeff_interval(c, d, fmt)
                        for c, d in zip(family.nominal.den.coeffs, family.delta_den)])
    return num, den


def family_grid_box(family: PlantFamily):
    """Representable-plant box: the uncertainty box snapped inward onto the
    plant grid (no FWL inflation).  This is the fast stage's search space;
    empty-per-coefficient boxes collapse to the nearest grid point."""
    fmt = family.plant_format

    def snap(c, d):
        iv = RationalInterval(c - d, c + d)
        if fmt is None:
            return iv
        inner = iv.snap_inward(fmt)
        if inner is None:
            g = quantize_nearest(c, fmt).value
            return RationalInterval(g)
        return inner

    num = IntervalPoly([snap(c, d) for c, d in
                        zip(family.nominal.num.coeffs, family.delta_num)])
    den = IntervalPoly([snap(c, d) for c, d in
                        zip(family.nominal.den.coeffs, family.delta_den)])
    return num, den
