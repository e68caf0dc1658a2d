"""Benchmark and controller file parsing.

Files are line-oriented `key = value` text with `#` comments.  Decimal
literals are parsed straight into exact rationals; binary floating point is
never involved, so fixture coefficients round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .discretize import ContinuousTF, zoh_discretize
from .errors import ParseError, ValidationError
from .fixedpoint import FixedPointFormat
from .transfer import PlantFamily, Poly, TransferFunction

_REQUIRED_KEYS = ("name", "domain", "num", "den",
                  "controller_format", "controller_orders")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Parsed synthesis problem: a plant family (already in z) plus the
    controller word length and orders."""

    name: str
    domain: str
    plant: TransferFunction
    sample_time: Fraction | None
    family: PlantFamily
    controller_format: FixedPointFormat
    controller_orders: tuple


def _parse_lines(path):
    """The file's assignments, as {key: value} and {key: line number}."""
    entries, linenos = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected 'key = value', got {line!r}",
                                 line=lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ParseError("empty key or value", line=lineno)
            if key in entries:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            entries[key], linenos[key] = value, lineno
    return entries, linenos


def _fraction(token: str, lineno) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a decimal or rational: {token!r}",
                         line=lineno) from None


def _fraction_list(value: str, lineno):
    return [_fraction(t.strip(), lineno) for t in value.split(",")]


def _int_pair(value: str, lineno):
    parts = [t.strip() for t in value.split(",")]
    if len(parts) != 2 or not all(p.removeprefix("-").isdigit()
                                  and p.isascii() for p in parts):
        raise ParseError(f"expected two integers, got {value!r}", line=lineno)
    return int(parts[0]), int(parts[1])


def _format(value: str, lineno) -> FixedPointFormat:
    i, f = _int_pair(value, lineno)
    try:
        return FixedPointFormat(i, f)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def parse_benchmark(path) -> BenchmarkSpec:
    entries, linenos = _parse_lines(path)

    missing = [k for k in _REQUIRED_KEYS if k not in entries]
    if missing:
        raise ValidationError(f"missing required keys: {', '.join(missing)}")

    domain = entries["domain"]
    if domain not in ("s", "z"):
        raise ValidationError(f"domain must be 's' or 'z', got {domain!r}")

    num = Poly(_fraction_list(entries["num"], linenos["num"])).normalize()
    den = Poly(_fraction_list(entries["den"], linenos["den"])).normalize()
    if den.is_zero():
        raise ValidationError("plant denominator is identically zero")
    if not num.is_zero() and num.degree > den.degree:
        raise ValidationError(f"plant numerator degree {num.degree} > "
                              f"denominator degree {den.degree} (improper)")

    sample_time = None
    if "sample_time" in entries:
        sample_time = _fraction(entries["sample_time"], linenos["sample_time"])
        if sample_time <= 0:
            raise ValidationError("sample_time must be > 0")
    if domain == "s":
        if sample_time is None:
            raise ValidationError("s-domain plants require sample_time")
        plant = zoh_discretize(ContinuousTF(num, den, sample_time))
    else:
        plant = TransferFunction(num, den)

    def deltas(key, expected):
        if key not in entries:
            return None
        ds = _fraction_list(entries[key], linenos[key])
        if len(ds) != expected:
            raise ValidationError(
                f"{key} has {len(ds)} entries; plant has {expected} "
                "coefficients after normalization")
        if any(d < 0 for d in ds):
            raise ValidationError(f"{key} entries must be nonnegative")
        return ds

    family = PlantFamily(plant,
                         delta_num=deltas("delta_num", plant.num.degree + 1),
                         delta_den=deltas("delta_den", plant.den.degree + 1),
                         plant_format=(_format(entries["plant_format"],
                                               linenos["plant_format"])
                                       if "plant_format" in entries else None))

    orders = _int_pair(entries["controller_orders"],
                       linenos["controller_orders"])
    if orders[0] < 0 or orders[1] < 0:
        raise ValidationError("controller orders must be nonnegative")
    if orders[0] > orders[1]:
        raise ValidationError("controller numerator order exceeds its "
                              "denominator order (not causal)")

    return BenchmarkSpec(
        name=entries["name"],
        domain=domain,
        plant=plant,
        sample_time=sample_time,
        family=family,
        controller_format=_format(entries["controller_format"],
                                  linenos["controller_format"]),
        controller_orders=orders,
    )


def parse_controller(path):
    """Controller coefficient file: `num = ...`, `den = ...`, and an optional
    `format = I,F`.  Returns (num, den, format_or_None) with exact rational
    coefficient lists."""
    entries, linenos = _parse_lines(path)
    for key in ("num", "den"):
        if key not in entries:
            raise ValidationError(f"controller file is missing {key!r}")
    num = _fraction_list(entries["num"], linenos["num"])
    den = _fraction_list(entries["den"], linenos["den"])
    fmt = (_format(entries["format"], linenos["format"])
           if "format" in entries else None)
    return num, den, fmt
