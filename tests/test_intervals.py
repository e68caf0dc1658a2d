"""Exact interval polynomials and family enclosures."""

import random
from fractions import Fraction

import pytest

from dcsynth.fixedpoint import FixedPointFormat
from dcsynth.intervals import (IntervalPoly, RationalInterval,
                               family_grid_box, family_to_interval_poly,
                               ipoly_add, ipoly_mul)
from dcsynth.transfer import PlantFamily, TransferFunction

F1624 = FixedPointFormat(16, 24)


def test_constructor_orders_endpoints():
    with pytest.raises(ValueError):
        RationalInterval(1, 0)
    iv = RationalInterval(Fraction(1, 3))
    assert iv.lo == iv.hi == Fraction(1, 3)


def test_basic_predicates():
    iv = RationalInterval(-1, 2)
    assert iv.contains(0) and iv.contains_zero()
    assert iv.width == 3 and iv.midpoint == Fraction(1, 2)
    assert RationalInterval(0, 1).subset_of(iv)
    assert not iv.subset_of(RationalInterval(0, 1))


def test_snap_outward_and_inward():
    fmt = FixedPointFormat(4, 2)  # grid step 1/4
    iv = RationalInterval(Fraction(1, 3), Fraction(2, 3))
    inner = iv.snap_inward(fmt)
    assert inner.lo == Fraction(1, 2) and inner.hi == Fraction(1, 2)
    thin = RationalInterval(Fraction(1, 3), Fraction(5, 12))
    assert thin.snap_inward(fmt) is None
    assert inner.subset_of(iv)


def test_interval_poly_ops():
    p = IntervalPoly([1, 2])
    q = IntervalPoly([RationalInterval(0, 1), 3])
    s = ipoly_add(p, q)
    assert s.degree == 1
    assert s.coeffs[0].lo == 1 and s.coeffs[0].hi == 2
    prod = ipoly_mul(p, q)
    assert prod.degree == 2
    # (z + 2)([0,1]z + 3) = [0,1]z^2 + [3,5]z + 6
    assert prod.coeffs[1].lo == 3 and prod.coeffs[1].hi == 5
    assert prod.coeffs[2].lo == prod.coeffs[2].hi == 6


def test_ipoly_mul_equals_the_interval_convolution():
    # The integer product over common denominators gives exactly the
    # endpoints of the coefficientwise interval arithmetic.
    rng = random.Random(5)

    def iv():
        a, b = (Fraction(rng.randint(-50, 50), rng.choice([1, 3, 7, 64, 1000]))
                for _ in range(2))
        return RationalInterval(min(a, b), max(a, b))

    for _ in range(200):
        p, q = ([iv() for _ in range(rng.randint(1, 4))] for _ in range(2))
        want = [[0, 0] for _ in range(len(p) + len(q) - 1)]
        for i, x in enumerate(p):
            for j, y in enumerate(q, i):
                ends = [u * v for u in (x.lo, x.hi) for v in (y.lo, y.hi)]
                want[j][0] += min(ends)
                want[j][1] += max(ends)
        got = ipoly_mul(IntervalPoly(p), IntervalPoly(q))
        assert [(c.lo, c.hi) for c in got.coeffs] == [tuple(c) for c in want]
        assert got == IntervalPoly([RationalInterval(*c) for c in want])


def test_ipoly_add_equals_the_aligned_sum():
    # Over the least common denominator, the shorter factor padded with
    # leading zeros.
    rng = random.Random(6)
    for _ in range(200):
        p, q = ([RationalInterval(*sorted(
            Fraction(rng.randint(-50, 50), rng.choice([1, 3, 64, 1000]))
            for _ in range(2))) for _ in range(rng.randint(1, 4))]
                for _ in range(2))
        got = ipoly_add(IntervalPoly(p), IntervalPoly(q))
        n = max(len(p), len(q))
        p, q = ([RationalInterval(0)] * (n - len(x)) + x for x in (p, q))
        assert [(c.lo, c.hi) for c in got.coeffs] == [
            (x.lo + y.lo, x.hi + y.hi) for x, y in zip(p, q)]


def _cruise_family(fmt):
    plant = TransferFunction([Fraction("0.0264")], [1, Fraction("-0.9998")])
    return PlantFamily(plant, delta_num=[Fraction("0.001")],
                       delta_den=[0, Fraction("0.002")], plant_format=fmt)


def test_family_to_interval_poly_inflates_by_grid_step():
    fam = _cruise_family(F1624)
    num, den = family_to_interval_poly(fam)
    g = F1624.step
    assert num.coeffs[0].lo == Fraction("0.0264") - Fraction("0.001") - g
    assert num.coeffs[0].hi == Fraction("0.0264") + Fraction("0.001") + g
    assert den.coeffs[0].lo == 1 - g and den.coeffs[0].hi == 1 + g


def test_family_grid_box_is_inside_uncertainty_box():
    fam = _cruise_family(F1624)
    num, den = family_grid_box(fam)
    outer_num, outer_den = family_to_interval_poly(fam)
    for inner, outer in zip(num.coeffs + den.coeffs,
                            outer_num.coeffs + outer_den.coeffs):
        assert inner.subset_of(outer)
        # Endpoints sit on the plant grid.
        assert (inner.lo * F1624.scale).denominator == 1
        assert (inner.hi * F1624.scale).denominator == 1


def test_family_grid_box_point_collapse():
    # A zero-width coefficient off the grid collapses to its nearest point.
    fam = _cruise_family(F1624)
    point_fam = PlantFamily(fam.nominal, plant_format=F1624)
    num, _ = family_grid_box(point_fam)
    assert num.coeffs[0].lo == num.coeffs[0].hi
    assert abs(num.coeffs[0].lo - Fraction("0.0264")) <= F1624.step / 2
