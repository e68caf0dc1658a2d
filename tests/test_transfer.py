"""Polynomials, transfer functions, and the closed-loop characteristic
polynomial."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcsynth.errors import DegenerateCharPoly
from dcsynth.fixedpoint import FixedPointFormat, quantize_poly
from dcsynth.simulate import cancellation_on_or_outside_unit_circle
from dcsynth.transfer import (Controller, PlantFamily, Poly, TransferFunction,
                              char_poly, integerize, poly_add, poly_mul)

F416 = FixedPointFormat(4, 16)


def make_controller(num, den, fmt=F416):
    return Controller(quantize_poly(num, fmt), quantize_poly(den, fmt))


def test_poly_basics():
    p = Poly([0, 0, 1, -2])
    assert p.normalize().coeffs == (Fraction(1), Fraction(-2))
    assert p.degree == 3 and p.normalize().degree == 1
    assert p(3) == 1
    assert Poly([0]).is_zero()
    with pytest.raises(ValueError):
        Poly([])


def test_poly_arithmetic():
    a = Poly([1, 2])          # z + 2
    b = Poly([1, 0, -1])      # z^2 - 1
    assert poly_add(a, b).coeffs == (1, 1, 1)
    assert poly_mul(a, b).coeffs == (1, 2, -1, -2)


def test_transfer_normalizes_and_validates():
    tf = TransferFunction([0, 1], [0, 1, -2])
    assert tf.num.coeffs == (1,) and tf.den.coeffs == (1, -2)
    with pytest.raises(ValueError):
        TransferFunction([1], [0, 0])


def test_plant_family_validation():
    tf = TransferFunction([1], [1, -1])
    with pytest.raises(ValueError):
        PlantFamily(tf, delta_num=[0, 0])
    with pytest.raises(ValueError):
        PlantFamily(tf, delta_den=[0, -1])
    fam = PlantFamily(tf)
    assert fam.is_point()
    assert fam.with_format(F416).plant_format == F416


def test_controller_shared_format():
    with pytest.raises(ValueError):
        Controller(quantize_poly([1], F416),
                   quantize_poly([1], FixedPointFormat(8, 8)))
    c = make_controller([1, 2], [1])
    assert c.format == F416


def test_char_poly_exact():
    # C = (z+1)/(z), G = 1/(z-2): S = (z+1) + z(z-2) = z^2 - z + 1
    c = make_controller([1, 1], [1, 0])
    g = TransferFunction([1], [1, -2])
    s = char_poly(c, g)
    assert s.coeffs == (1, -1, 1)


def test_char_poly_degenerate():
    c = make_controller([0], [0])
    g = TransferFunction([1], [1, -2])
    with pytest.raises(DegenerateCharPoly):
        char_poly(c, g)


def test_cancellation_detection():
    # C puts a zero at z=1 exactly on the plant's pole at z=1.
    c = make_controller([1, -1], [1, 0])
    g = TransferFunction([1], [1, -1])
    assert cancellation_on_or_outside_unit_circle(c, g)
    # Cancellation strictly inside the unit circle does not count.
    c2 = make_controller([1, Fraction(-1, 2)], [1, 0])
    g2 = TransferFunction([1], [1, Fraction(-1, 2)])
    assert not cancellation_on_or_outside_unit_circle(c2, g2)
    # No common roots at all.
    c3 = make_controller([1, 1], [1, 0])
    assert not cancellation_on_or_outside_unit_circle(c3, g)


@given(st.lists(st.fractions(min_value=-4, max_value=4), min_size=1,
                max_size=4),
       st.lists(st.fractions(min_value=-4, max_value=4), min_size=1,
                max_size=4))
def test_poly_mul_evaluation_homomorphism(ca, cb):
    a, b = Poly(ca), Poly(cb)
    z = Fraction(3, 2)
    assert poly_mul(a, b)(z) == a(z) * b(z)
    assert poly_add(a, b)(z) == a(z) + b(z)


@given(st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions(),
                          st.just(0), st.just(Fraction(0))), max_size=8))
def test_integerize_gives_integers_over_the_least_denominator(xs):
    ints, d = integerize(xs)
    assert all(type(n) is int for n in ints) and type(d) is int and d > 0
    assert [Fraction(n, d) for n in ints] == xs
    assert d == math.lcm(*(Fraction(x).denominator for x in xs))
