"""Exact zero-order-hold discretization of continuous transfer functions.

Route: controllable canonical state space, augmented matrix exponential
exp([[A, B], [0, 0]] * T) for (Ad, Bd), then the pulse transfer function
C (zI - Ad)^-1 Bd + D via Faddeev-LeVerrier.  Both run in plain Python on
integers that count multiples of 2^-256 (a fixed dyadic grid): scaling and
squaring of a Taylor series for the exponential, and Faddeev-LeVerrier,
which divides only by 1..n.  The resulting coefficients are snapped back to
exact rationals by continued-fraction reconstruction, since everything
downstream expects exact coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ImproperTransferFunction, NonpositiveSampleTime
from .stability import root_oracle
from .transfer import Poly, TransferFunction

_GRID = 1 << 256  # exp(M) and Faddeev-LeVerrier count multiples of 1/_GRID
_SNAP_TOL = Fraction(1, 10 ** 12)


@dataclass(frozen=True)
class ContinuousTF:
    """Proper Laplace-domain transfer function with its sample time."""

    num: Poly
    den: Poly
    sample_time: Fraction

    def __init__(self, num, den, sample_time):
        num = (num if isinstance(num, Poly) else Poly(num)).normalize()
        den = (den if isinstance(den, Poly) else Poly(den)).normalize()
        sample_time = Fraction(sample_time)
        if den.coeffs[0] == 0:
            raise ValueError("denominator is identically zero")
        if not num.is_zero() and num.degree > den.degree:
            raise ImproperTransferFunction(
                f"numerator degree {num.degree} > denominator degree {den.degree}")
        if sample_time <= 0:
            raise NonpositiveSampleTime(f"sample time {sample_time} must be > 0")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "sample_time", sample_time)


def _round_div(v: int, q: int) -> int:
    """v / q rounded to the nearest integer, halves up."""
    return (2 * v + q) // (2 * q)


def _matmul(a, b, divisor=_GRID):
    """Product of two matrices of grid integers, back on the grid (each
    entry also divided by `divisor` / _GRID before it is rounded)."""
    return [[_round_div(sum(x * y for x, y in zip(row, col)), divisor)
             for col in zip(*b)] for row in a]


def _identity(n):
    return [[_GRID if i == j else 0 for j in range(n)] for i in range(n)]


def _expm(m):
    """exp(m) of an exact rational matrix, as grid integers: the Taylor
    series of m / 2^s, whose row-sum norm is at most 1/2, summed until a
    term rounds to zero, then squared s times."""
    norm = max(sum(abs(x) for x in row) for row in m)
    s = (math.ceil(2 * norm) - 1).bit_length()  # least s: norm/2^s <= 1/2
    x = [[round(v * _GRID / 2 ** s) for v in row] for row in m]
    result = term = _identity(len(m))
    k = 1
    while any(any(row) for row in term):
        # Each term is at most half the last over k, so this ends.
        term = _matmul(x, term, k * _GRID)
        result = [[p + q for p, q in zip(r, t)] for r, t in zip(result, term)]
        k += 1
    for _ in range(s):
        result = _matmul(result, result)
    return result


def _faddeev_leverrier(a):
    """Characteristic polynomial coefficients and adjugate expansion of zI-A
    for a matrix of grid integers, on the same grid.

    Returns (den, mats): den = [1, c1, ..., cn] descending, and mats[k] such
    that adj(zI - A) = sum_k mats[k] * z^(n-1-k).
    """
    n = len(a)
    mats = []
    den = [_GRID]
    mk = _identity(n)
    for k in range(1, n + 1):
        mats.append(mk)
        mk = _matmul(a, mk)
        ck = _round_div(-sum(mk[i][i] for i in range(n)), k)
        den.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return den, mats


def _snap_rational(exact: Fraction) -> Fraction:
    """Nearest rational within _SNAP_TOL via continued fractions."""
    # limit_denominator walks the continued-fraction convergents; widen the
    # cap until the convergent is within tolerance.
    for cap in (10 ** 6, 10 ** 9):
        approx = exact.limit_denominator(cap)
        if abs(approx - exact) <= _SNAP_TOL:
            return approx
    # The best approximation with denominator q <= 10^12 is within
    # 1 / (q * (10^12 + 1)) of `exact`, so within _SNAP_TOL.
    return exact.limit_denominator(10 ** 12)


def zoh_discretize(g: ContinuousTF) -> TransferFunction:
    """Pulse transfer function G(z, T) of the plant behind a synchronized
    ZOH input and sample-and-hold output."""
    t = g.sample_time
    lead = g.den.coeffs[0]
    den = [c / lead for c in g.den.coeffs]
    n = len(den) - 1
    num = [Fraction(0)] * (n + 1 - len(g.num.coeffs)) + [
        c / lead for c in g.num.coeffs]
    d = num[0]
    if n == 0:
        return TransferFunction([_snap_rational(d)], [Fraction(1)])
    _warn_if_beyond_nyquist(g)
    # Controllable canonical form with monic denominator: A is den's
    # companion matrix, B = e_n, C the strictly proper remainder num - d*den
    # in ascending powers, D = d.  M = [[A, B], [0, 0]] * T.
    c = [num[n - j] - d * den[n - j] for j in range(n)]
    m = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n - 1):
        m[i][i + 1] = t
    m[n - 1] = [-den[n - j] * t for j in range(n)] + [t]
    md = _expm(m)
    ad = [row[:n] for row in md[:n]]
    bd = [row[n] for row in md[:n]]
    den_grid, mats = _faddeev_leverrier(ad)
    den_d = [Fraction(v, _GRID) for v in den_grid]
    cab = [sum(ci * sum(x * y for x, y in zip(row, bd))
               for ci, row in zip(c, mk)) / _GRID ** 2 for mk in mats]
    # Full numerator: C adj(zI-Ad) Bd + D det(zI-Ad); degrees n-1 and n.
    full_num = [x + d * y for x, y in zip([0] + cab, den_d)]
    return TransferFunction([_snap_rational(x) for x in full_num],
                            [_snap_rational(x) for x in den_d])


def _warn_if_beyond_nyquist(g: ContinuousTF):
    if root_oracle(g.den) * float(g.sample_time) > math.pi:
        warnings.warn(
            "a continuous pole has |p*T| > pi; the sample time may violate "
            "the Nyquist criterion", stacklevel=2)
