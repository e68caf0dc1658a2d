"""Exact zero-order-hold discretization of continuous transfer functions.

Route: controllable canonical state space, augmented matrix exponential
exp([[A, B], [0, 0]] * T) for (Ad, Bd), then the pulse transfer function
C (zI - Ad)^-1 Bd + D via Faddeev-LeVerrier.  Arithmetic runs at high
precision (mpmath) and the resulting coefficients are snapped back to exact
rationals by continued-fraction reconstruction, since everything downstream
expects exact coefficients.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ImproperTransferFunction, NonpositiveSampleTime
from .stability import root_oracle
from .transfer import Poly, TransferFunction

_DPS = 60
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


def _controllable_canonical(g: ContinuousTF):
    """(A, B, C, D) with monic denominator, as mpmath matrices."""
    import mpmath as mp

    with mp.workdps(_DPS):
        den = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in g.den.coeffs]
        num = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in g.num.coeffs]
        lead = den[0]
        den = [c / lead for c in den]
        num = [c / lead for c in num]
        n = len(den) - 1
        num = [mp.mpf(0)] * (n + 1 - len(num)) + num
        d = num[0]
        # Strictly proper remainder: num - d * den.
        rem = [num[i] - d * den[i] for i in range(1, n + 1)]
        a = mp.zeros(n, n)
        for i in range(n - 1):
            a[i, i + 1] = mp.mpf(1)
        for j in range(n):
            a[n - 1, j] = -den[n - j]
        b = mp.zeros(n, 1)
        if n:
            b[n - 1, 0] = mp.mpf(1)
        c = mp.zeros(1, n)
        for j in range(n):
            c[0, j] = rem[n - 1 - j]
        return a, b, c, d, n


def _faddeev_leverrier(a, n):
    """Characteristic polynomial coefficients and adjugate expansion of zI-A.

    Returns (den, mats): den = [1, c1, ..., cn] descending, and mats[k] such
    that adj(zI - A) = sum_k mats[k] * z^(n-1-k).
    """
    import mpmath as mp

    ident = mp.eye(n)
    mats = []
    den = [mp.mpf(1)]
    mk = ident
    for k in range(1, n + 1):
        mats.append(mk)
        am = a * mk
        ck = -mp.fsum(am[i, i] for i in range(n)) / k
        den.append(ck)
        mk = am + ck * ident
    return den, mats


def _snap_rational(x) -> Fraction:
    """Nearest rational within _SNAP_TOL via continued fractions."""
    import mpmath as mp

    sign, man, exp, _ = mp.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    exact = Fraction(-man if sign else man) * Fraction(2) ** exp
    # limit_denominator walks the continued-fraction convergents; widen the
    # cap until the convergent is within tolerance.
    cap = 10 ** 6
    while cap <= 10 ** 18:
        approx = exact.limit_denominator(cap)
        if abs(approx - exact) <= _SNAP_TOL:
            return approx
        cap *= 10 ** 3
    return exact


def zoh_discretize(g: ContinuousTF) -> TransferFunction:
    """Pulse transfer function G(z, T) of the plant behind a synchronized
    ZOH input and sample-and-hold output."""
    import mpmath as mp

    t = g.sample_time
    with mp.workdps(_DPS):
        a, b, c, d, n = _controllable_canonical(g)
        if n == 0:
            return TransferFunction([_snap_rational(d)], [Fraction(1)])
        _warn_if_beyond_nyquist(g)
        aug = mp.zeros(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                aug[i, j] = a[i, j]
            aug[i, n] = b[i, 0]
        md = mp.expm(aug * (mp.mpf(t.numerator) / mp.mpf(t.denominator)))
        ad = mp.matrix([[md[i, j] for j in range(n)] for i in range(n)])
        bd = mp.matrix([[md[i, n]] for i in range(n)])
        den, mats = _faddeev_leverrier(ad, n)
        num = []
        for k in range(n):
            cmb = (c * mats[k] * bd)[0, 0]
            num.append(cmb)
        # Full numerator: C adj(zI-Ad) Bd + D det(zI-Ad); degrees n-1 and n.
        full_num = [d * den[0]] + [num[k] + d * den[k + 1] for k in range(n)]
        num_fr = [_snap_rational(x) for x in full_num]
        den_fr = [_snap_rational(x) for x in den]
    return TransferFunction(num_fr, den_fr)


def _warn_if_beyond_nyquist(g: ContinuousTF):
    if root_oracle(g.den) * float(g.sample_time) > math.pi:
        warnings.warn(
            "a continuous pole has |p*T| > pi; the sample time may violate "
            "the Nyquist criterion", stacklevel=2)
