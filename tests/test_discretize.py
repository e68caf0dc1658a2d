"""Zero-order-hold discretization against closed forms and spectral maps."""

import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from dcsynth.discretize import ContinuousTF, _snap_rational, zoh_discretize
from dcsynth.errors import ImproperTransferFunction, NonpositiveSampleTime
from dcsynth.stability import root_oracle
from dcsynth.transfer import TransferFunction


def test_continuous_tf_validation():
    with pytest.raises(NonpositiveSampleTime):
        ContinuousTF([1], [1, 1], 0)
    with pytest.raises(ImproperTransferFunction):
        ContinuousTF([1, 0, 0], [1, 1], Fraction(1, 10))
    with pytest.raises(ValueError):
        ContinuousTF([1], [0], Fraction(1, 10))


def test_integrator_closed_form():
    # 1/s discretizes to T/(z-1).
    for t in (Fraction(1, 5), Fraction(1, 10), Fraction(3, 7)):
        g = zoh_discretize(ContinuousTF([1], [1, 0], t))
        assert len(g.num.coeffs) == 1
        assert abs(g.num.coeffs[0] - t) < Fraction(1, 10 ** 9)
        assert g.den.coeffs[0] == 1
        assert abs(g.den.coeffs[1] + 1) < Fraction(1, 10 ** 9)


def test_first_order_lag_closed_form():
    # 1/(s+1) discretizes to (1-e^{-T})/(z-e^{-T}).
    for t in (Fraction(1, 10), Fraction(1, 5), Fraction(1)):
        g = zoh_discretize(ContinuousTF([1], [1, 1], t))
        e = math.exp(-float(t))
        assert abs(float(g.num.coeffs[0]) - (1 - e)) < 1e-9
        assert abs(float(g.den.coeffs[1]) + e) < 1e-9


def test_static_gain_passthrough():
    g = zoh_discretize(ContinuousTF([3], [1], Fraction(1, 5)))
    assert g.num.coeffs == (3,) and g.den.coeffs == (1,)


def test_feedthrough_cancels_numerically():
    # (3s+6)/(s+2) is the constant 3 in disguise; the discretization keeps
    # the pole but numerator and denominator stay proportional.
    g = zoh_discretize(ContinuousTF([3, 6], [1, 2], Fraction(1, 5)))
    ratio = g.num.coeffs[0] / g.den.coeffs[0]
    assert ratio == 3
    assert abs(g.num.coeffs[1] - 3 * g.den.coeffs[1]) < Fraction(1, 10 ** 9)


def _random_stable_continuous(rng, max_degree=3):
    degree = rng.randint(1, max_degree)
    poles = []
    while len(poles) < degree:
        if degree - len(poles) >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.1, 3.0)
            im = rng.uniform(0.1, 3.0)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(-rng.uniform(0.1, 3.0), 0.0))
    den = np.real(np.poly(poles))
    num = [rng.uniform(-2, 2) for _ in range(rng.randint(1, degree))]
    if all(abs(c) < 1e-3 for c in num):
        num = [1.0]
    to_frac = lambda x: Fraction(x).limit_denominator(10 ** 6)
    return ([to_frac(c) for c in num], [to_frac(c) for c in den],
            [p for p in poles])


def test_pole_map_and_dc_gain_on_random_stable_plants():
    rng = random.Random(123)
    t = Fraction(1, 10)
    for _ in range(100):
        num, den, poles = _random_stable_continuous(rng)
        g = zoh_discretize(ContinuousTF(num, den, t))
        # Pole map: discrete poles are exp(p*T) of the continuous poles.
        zpoles = np.roots([float(c) for c in g.den.coeffs])
        expected = sorted(np.exp(np.array(poles) * float(t)),
                          key=lambda z: (z.real, z.imag))
        got = sorted(zpoles, key=lambda z: (z.real, z.imag))
        for a, b in zip(expected, got):
            assert abs(a - b) < 1e-7
        # DC gain: G_z(1) equals G_s(0).
        dc_s = (float(num[-1]) / float(den[-1]))
        dc_z = float(g.num(Fraction(1))) / float(g.den(Fraction(1)))
        assert dc_z == pytest.approx(dc_s, abs=1e-7, rel=1e-7)


def test_nyquist_warning():
    # Pole at -100 with T = 0.1: |p*T| = 10 > pi.
    with pytest.warns(UserWarning):
        zoh_discretize(ContinuousTF([1], [Fraction(1, 100), 1],
                                    Fraction(1, 10)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zoh_discretize(ContinuousTF([1], [1, 1], Fraction(1, 10)))


def test_coefficients_are_exact_rationals():
    g = zoh_discretize(ContinuousTF([1], [1, 0], Fraction(1, 5)))
    assert all(isinstance(c, Fraction) for c in g.num.coeffs + g.den.coeffs)


def mpmath_zoh_discretize(g, dps=60):
    """zoh_discretize as it was: the same route in mpmath at `dps` digits
    (mp.expm for the exponential), each coefficient then snapped from the
    exact value of its mpf."""
    def exact(x):
        sign, man, exp, _ = mp.mpf(x)._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    with mp.workdps(dps):
        den = [mp.mpf(c.numerator) / mp.mpf(c.denominator)
               for c in g.den.coeffs]
        num = [mp.mpf(c.numerator) / mp.mpf(c.denominator)
               for c in g.num.coeffs]
        den, num = [c / den[0] for c in den], [c / den[0] for c in num]
        n = len(den) - 1
        num = [mp.mpf(0)] * (n + 1 - len(num)) + num
        d = num[0]
        if n == 0:
            return TransferFunction([_snap_rational(exact(d))], [1])
        aug = mp.zeros(n + 1, n + 1)
        for i in range(n - 1):
            aug[i, i + 1] = 1
        for j in range(n):
            aug[n - 1, j] = -den[n - j]
        aug[n - 1, n] = 1
        t = g.sample_time
        md = mp.expm(aug * (mp.mpf(t.numerator) / mp.mpf(t.denominator)))
        ad = mp.matrix([[md[i, j] for j in range(n)] for i in range(n)])
        bd = mp.matrix([[md[i, n]] for i in range(n)])
        c = mp.matrix([[num[n - j] - d * den[n - j] for j in range(n)]])
        # Faddeev-LeVerrier.
        den_d, mk, full_num = [mp.mpf(1)], mp.eye(n), [d]
        for k in range(1, n + 1):
            full_num.append((c * mk * bd)[0, 0])
            am = ad * mk
            den_d.append(-mp.fsum(am[i, i] for i in range(n)) / k)
            mk = am + den_d[-1] * mp.eye(n)
        full_num = [x + d * y for x, y in zip(full_num, [0] + den_d[1:])]
        return TransferFunction([_snap_rational(exact(x)) for x in full_num],
                                [_snap_rational(exact(x)) for x in den_d])


def random_continuous_plant(rng, max_degree=5):
    """A seeded proper plant of degree 1..max_degree with poles of real part
    in [-5, 1], and a sample time in [0.01, 2]."""
    degree = rng.randint(1, max_degree)
    poles = []
    while len(poles) < degree:
        re = rng.uniform(-5, 1)
        if degree - len(poles) >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.1, 5)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(re, 0))
    to_frac = lambda x: Fraction(x).limit_denominator(10 ** 6)
    den = [to_frac(c) for c in np.real(np.poly(poles))]
    num = [to_frac(rng.uniform(-2, 2))
           for _ in range(rng.randint(1, degree + 1))]
    t = Fraction(rng.randint(1, 200), 100)
    return ContinuousTF(num, den, t)


def test_grid_exponential_matches_mpmath_within_nyquist():
    # Differential check against the 60-digit mpmath route: identical
    # snapped coefficients on every seeded plant with |p*T| <= pi.
    rng = random.Random(2024)
    checked = 0
    while checked < 300:
        g = random_continuous_plant(rng)
        if root_oracle(g.den) * float(g.sample_time) > math.pi:
            continue
        assert zoh_discretize(g) == mpmath_zoh_discretize(g), g
        checked += 1
