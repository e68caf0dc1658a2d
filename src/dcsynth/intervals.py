"""Interval polynomials with exact rational coefficient ends.

Ends are integer (lo, hi) pairs over one denominator per polynomial, so every
operation encloses its exact result set with no rounding at all.  Plant
quantization enters only as a widening of each coefficient by one grid step
(`family_to_interval_poly`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Polynomial with interval coefficients, descending powers of z: integer
    (lo, hi) `ends` over their least positive `den`; built from intervals or
    numbers, or from integer pairs over a given positive `den`."""

    ends: tuple
    den: int

    def __init__(self, coeffs, den=None):
        if den is None:
            coeffs = [c if isinstance(c, RationalInterval)
                      else RationalInterval(c) for c in coeffs]
            ints, den = integerize([x for c in coeffs for x in (c.lo, c.hi)])
            coeffs = zip(ints[::2], ints[1::2])
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("interval polynomial needs at least one coefficient")
        g = math.gcd(den, *(x for c in coeffs for x in c))
        object.__setattr__(self, "ends",
                           tuple((lo // g, hi // g) for lo, hi in coeffs))
        object.__setattr__(self, "den", den // g)

    @property
    def coeffs(self) -> tuple:  # as RationalIntervals
        return tuple(RationalInterval(*(Fraction(x, self.den) for x in e))
                     for e in self.ends)

    @property
    def degree(self) -> int:
        return len(self.ends) - 1


def ipoly_add(a: IntervalPoly, b: IntervalPoly) -> IntervalPoly:
    den = math.lcm(a.den, b.den)
    lo, hi = (add_aligned(*([e[k] * (den // p.den) for e in p.ends]
                            for p in (a, b)), 0) for k in (0, 1))
    return IntervalPoly(zip(lo, hi), den)


def ipoly_mul(a: IntervalPoly, b: IntervalPoly) -> IntervalPoly:
    """The interval product, on the integer ends over the product of the
    denominators."""
    out = [[0, 0] for _ in range(len(a.ends) + len(b.ends) - 1)]
    for i, x in enumerate(a.ends):
        for j, y in enumerate(b.ends, i):
            p = [u * v for u in x for v in y]
            out[j][0] += min(p)
            out[j][1] += max(p)
    return IntervalPoly(out, a.den * b.den)


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
