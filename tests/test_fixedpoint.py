"""Fixed-point format, values and quantization."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcsynth.errors import Overflow
from dcsynth.fixedpoint import (FixedPointFormat, FixedPointValue,
                                quantize_nearest, quantize_poly,
                                quantize_truncate)

F416 = FixedPointFormat(4, 16)


def test_format_properties():
    assert F416.scale == 65536
    assert F416.raw_limit == 2 ** 20
    assert F416.step == Fraction(1, 65536)
    assert str(F416) == "<4,16>"


def test_format_validation():
    with pytest.raises(ValueError):
        FixedPointFormat(0, 16)
    with pytest.raises(ValueError):
        FixedPointFormat(4, -1)
    with pytest.raises(ValueError):
        FixedPointFormat(40, 32)


def test_truncation_bit_patterns():
    # The controller coefficients that, once truncated onto the <4,16> grid,
    # turn a stable design unstable.  Values pinned bit for bit.
    cases = [
        ("2.72", Fraction(178257, 65536), "2.7199859619140625"),
        ("-4.153", Fraction(-272171, 65536), "-4.1529998779296875"),
        ("1.896", Fraction(124256, 65536), "1.8959960937500000"),
        ("1.0", Fraction(65536, 65536), "1.0000000000000000"),
        ("-1.844", Fraction(-120848, 65536), "-1.8439941406250000"),
        ("0.8496", Fraction(55679, 65536), "0.8495941162109375"),
    ]
    for text, expected, decimal in cases:
        q = quantize_truncate(Fraction(text), F416)
        assert q.value == expected
        assert q.decimal_str() == decimal


def test_truncate_toward_zero():
    assert quantize_truncate(Fraction(3, 131072), F416).raw == 1
    assert quantize_truncate(Fraction(-3, 131072), F416).raw == -1
    assert quantize_truncate(0, F416).raw == 0


def test_nearest_ties_away_from_zero():
    fmt = FixedPointFormat(4, 1)
    assert quantize_nearest(Fraction(1, 4), fmt).raw == 1   # 0.25 -> 0.5
    assert quantize_nearest(Fraction(-1, 4), fmt).raw == -1
    assert quantize_nearest(Fraction(3, 4), fmt).raw == 2   # 0.75 -> 1.0
    assert quantize_nearest(Fraction(1, 8), fmt).raw == 0


def test_quantize_mode_dispatch():
    fmt = FixedPointFormat(4, 1)
    assert quantize_poly([Fraction(1, 4)], fmt, "truncate")[0].raw == 0
    assert quantize_poly([Fraction(1, 4)], fmt, "nearest")[0].raw == 1
    with pytest.raises(ValueError):
        quantize_poly([0], F416, "stochastic")


def test_quantize_poly():
    qs = quantize_poly([Fraction("0.5"), Fraction("0.25")], F416)
    assert [q.raw for q in qs] == [32768, 16384]


def test_overflow_on_quantize():
    with pytest.raises(Overflow):
        quantize_truncate(16, F416)
    # The open range excludes the endpoint exactly.
    quantize_truncate(Fraction(2 ** 20 - 1, 65536), F416)


def test_value_and_convert():
    v = FixedPointValue(-120848, F416)
    assert v.value == Fraction(-120848, 65536)


rationals = st.fractions(min_value=-15, max_value=15)


@given(rationals)
def test_truncate_properties(x):
    q = quantize_truncate(x, F416)
    assert abs(x - q.value) < F416.step
    assert abs(q.value) <= abs(x)


@given(rationals)
def test_nearest_properties(x):
    q = quantize_nearest(x, F416)
    assert abs(x - q.value) <= F416.step / 2


@given(rationals)
def test_decimal_str_round_trip(x):
    q = quantize_truncate(x, F416)
    assert Fraction(q.decimal_str()) == q.value
