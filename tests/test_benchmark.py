"""Benchmark and controller file parsing."""

import pathlib
from fractions import Fraction

import pytest

from dcsynth.benchmark import parse_benchmark, parse_controller
from dcsynth.errors import ParseError, ValidationError
from dcsynth.fixedpoint import FixedPointFormat

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def write(tmp_path, text, name="case.bench"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_bundled_cruise():
    spec = parse_benchmark(BENCH_DIR / "cruise.bench")
    assert spec.name == "cruise-control"
    assert spec.domain == "z"
    assert spec.plant.num.coeffs == (Fraction("0.0264"),)
    assert spec.plant.den.coeffs == (1, Fraction("-0.9998"))
    assert spec.sample_time == Fraction(1, 5)
    assert spec.controller_format == FixedPointFormat(4, 16)
    assert spec.controller_orders == (2, 2)
    assert spec.family.plant_format == FixedPointFormat(16, 24)
    assert spec.family.is_point()


def test_bundled_variants_parse():
    for name in ("cruise_uncertain.bench", "cruise_gain_uncertain.bench"):
        spec = parse_benchmark(BENCH_DIR / name)
        assert not spec.family.is_point()


def test_decimals_parse_exactly():
    spec = parse_benchmark(BENCH_DIR / "cruise.bench")
    # 0.0264 is not a binary float; exact parsing keeps it 33/1250.
    assert spec.plant.num.coeffs[0] == Fraction(33, 1250)


def test_s_domain_integrator(tmp_path):
    p = write(tmp_path, """
name = integrator
domain = s
num = 1
den = 1, 0
sample_time = 0.2
controller_format = 4,16
controller_orders = 1,1
""")
    spec = parse_benchmark(p)
    assert abs(spec.plant.num.coeffs[0] - Fraction(1, 5)) < Fraction(1, 10 ** 9)
    assert spec.plant.den.coeffs[0] == 1
    assert abs(spec.plant.den.coeffs[1] + 1) < Fraction(1, 10 ** 9)


def test_s_domain_requires_sample_time(tmp_path):
    p = write(tmp_path, """
name = broken
domain = s
num = 1
den = 1, 0
controller_format = 4,16
controller_orders = 1,1
""")
    with pytest.raises(ValidationError):
        parse_benchmark(p)


def test_delta_length_mismatch(tmp_path):
    p = write(tmp_path, """
name = broken
domain = z
num = 0.5
den = 1, -0.5
delta_den = 0.1
controller_format = 4,16
controller_orders = 1,1
""")
    with pytest.raises(ValidationError):
        parse_benchmark(p)


def test_negative_delta_rejected(tmp_path):
    p = write(tmp_path, """
name = broken
domain = z
num = 0.5
den = 1, -0.5
delta_num = -0.1
controller_format = 4,16
controller_orders = 1,1
""")
    with pytest.raises(ValidationError):
        parse_benchmark(p)


def test_noncausal_controller_orders_rejected(tmp_path):
    p = write(tmp_path, """
name = broken
domain = z
num = 1
den = 1, -0.5
controller_format = 4,16
controller_orders = 2,1
""")
    with pytest.raises(ValidationError, match="not causal"):
        parse_benchmark(p)


def test_missing_keys(tmp_path):
    p = write(tmp_path, "name = x\n")
    with pytest.raises(ValidationError) as err:
        parse_benchmark(p)
    assert "domain" in str(err.value)


def test_syntax_error_carries_line_number(tmp_path):
    p = write(tmp_path, "name = x\nnot an assignment\n")
    with pytest.raises(ParseError) as err:
        parse_benchmark(p)
    assert err.value.line == 2


def test_duplicate_key(tmp_path):
    p = write(tmp_path, "name = x\nname = y\n")
    with pytest.raises(ParseError):
        parse_benchmark(p)


def test_bad_number(tmp_path):
    p = write(tmp_path, """
name = x
domain = z
num = 0.5x
den = 1
controller_format = 4,16
controller_orders = 1,1
""")
    with pytest.raises(ParseError):
        parse_benchmark(p)


def test_comments_and_blank_lines_ignored(tmp_path):
    p = write(tmp_path, """
# leading comment
name = commented   # trailing comment

domain = z
num = 1
den = 1, -0.5
controller_format = 4,16
controller_orders = 0,0
""")
    spec = parse_benchmark(p)
    assert spec.name == "commented"


def test_parse_controller_files():
    num, den, fmt = parse_controller(BENCH_DIR / "cruise_stable.ctl")
    assert num[0] == Fraction("11.035202")
    assert den[2] == Fraction("0.128357")
    assert fmt == FixedPointFormat(4, 16)


def test_parse_controller_missing_key(tmp_path):
    p = write(tmp_path, "num = 1\n", name="c.ctl")
    with pytest.raises(ValidationError):
        parse_controller(p)
