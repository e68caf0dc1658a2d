"""Fixed-point formats, values and quantizers on scaled integers.

A format <I,F> represents the dyadic grid {raw * 2**-F} restricted to the
open range (-2**I, 2**I).  Values are stored as the raw integer, so every
quantity here is exact; there is no floating-point state anywhere.  The
arithmetic a deployed controller does on them (truncating products, sums
checked against the range) runs on the raws in the simulator's integer
loop, `simulate.step_response`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Overflow

MAX_TOTAL_BITS = 64


@dataclass(frozen=True)
class FixedPointFormat:
    """Bit budget <I,F>: I integer bits, F fraction bits."""

    integer_bits: int
    fraction_bits: int

    def __post_init__(self):
        if self.integer_bits < 1:
            raise ValueError("integer_bits must be >= 1")
        if self.fraction_bits < 0:
            raise ValueError("fraction_bits must be >= 0")
        if self.integer_bits + self.fraction_bits > MAX_TOTAL_BITS:
            raise ValueError(f"I + F must be <= {MAX_TOTAL_BITS}")

    @property
    def scale(self) -> int:
        return 1 << self.fraction_bits

    @property
    def raw_limit(self) -> int:
        # |raw * 2**-F| < 2**I  <=>  |raw| < 2**(I+F)
        return 1 << (self.integer_bits + self.fraction_bits)

    @property
    def step(self) -> Fraction:
        return Fraction(1, self.scale)

    def __str__(self):
        return f"<{self.integer_bits},{self.fraction_bits}>"


@dataclass(frozen=True)
class FixedPointValue:
    raw: int
    format: FixedPointFormat

    def __post_init__(self):
        if abs(self.raw) >= self.format.raw_limit:
            raise Overflow(f"value {self.value} does not fit {self.format}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.raw, self.format.scale)

    def decimal_str(self) -> str:
        """Exact decimal rendering (dyadic rationals terminate in decimal)."""
        f = self.format.fraction_bits
        if f == 0:
            return str(self.raw)
        digits = abs(self.raw) * 5 ** f  # raw/2^F == raw*5^F / 10^F
        s = str(digits).rjust(f + 1, "0")
        sign = "-" if self.raw < 0 else ""
        return f"{sign}{s[:-f]}.{s[-f:]}"

    def __str__(self):
        return f"{self.decimal_str()}{self.format}"


def quantize_truncate(x, fmt: FixedPointFormat) -> FixedPointValue:
    """Round toward zero onto the 2**-F grid."""
    x = Fraction(x)
    raw = int(x * fmt.scale)  # int() truncates toward zero
    return FixedPointValue(raw, fmt)


def quantize_nearest(x, fmt: FixedPointFormat) -> FixedPointValue:
    """Round to the closest grid value; ties round away from zero."""
    x = Fraction(x)
    scaled = x * fmt.scale
    if scaled >= 0:
        raw = int(scaled + Fraction(1, 2))
        # int() truncates, so floor(scaled + 1/2) for nonnegative inputs:
        # ties land exactly on an integer and round up (away from zero).
    else:
        raw = -int(-scaled + Fraction(1, 2))
    return FixedPointValue(raw, fmt)


_QUANTIZERS = {"truncate": quantize_truncate, "nearest": quantize_nearest}

def quantize_poly(coeffs, fmt: FixedPointFormat, mode: str = "truncate"):
    """Elementwise quantization of a coefficient list."""
    q = _QUANTIZERS.get(mode)
    if q is None:
        raise ValueError(f"unknown rounding mode {mode!r}")
    return [q(c, fmt) for c in coeffs]
