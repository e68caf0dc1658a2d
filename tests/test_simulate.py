"""Closed-loop simulation, noise injection, margins, and sensitivities."""

import functools
import io
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import dcsynth.simulate as simulate
from dcsynth.errors import (ArithmeticOverflow, DegenerateLoop,
                            EvaluationSingularity)
from dcsynth.fixedpoint import FixedPointFormat, quantize_poly
from dcsynth.simulate import (NOISE_MODES, NoiseModel, _controller_polys,
                              _wrap_margin, frequency_margins,
                              sensitivity_functions, step_response,
                              write_margins)
from dcsynth.stability import root_oracle
from dcsynth.transfer import Controller, Poly, TransferFunction, poly_add

F416 = FixedPointFormat(4, 16)
T = Fraction(1, 5)
CRUISE = TransferFunction([Fraction("0.0264")], [1, Fraction("-0.9998")])
Q = F416.step


def make_controller(num, den, fmt=F416):
    return Controller(quantize_poly(num, fmt), quantize_poly(den, fmt))


UNSTABLE_CTL = make_controller(
    ["2.72", "-4.153", "1.896"], ["1.0", "-1.844", "0.8496"])
STABLE_CTL = make_controller(
    ["11.035202", "5.846100", "4.901855"],
    ["1.097901", "0.063110", "0.128357"])


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(Fraction(-1), 0, "zero")
    with pytest.raises(ValueError):
        NoiseModel(0, 0, "pink")
    assert NoiseModel.zero().mode == "zero"


def test_zero_controller_zero_noise_keeps_output_at_zero():
    c = make_controller([0, 0, 0], [1])
    trace = step_response(c, CRUISE, T, 50)
    assert all(y == 0 for y in trace.y)
    assert all(v.raw == 0 for v in trace.u)
    assert len(trace) == 50


def test_unstable_quantized_controller_diverges():
    trace = step_response(UNSTABLE_CTL, CRUISE, T, 500,
                          stop_on_divergence=True)
    assert trace.diverged()
    assert trace.divergence_step() is not None
    assert trace.divergence_step() < 500


def test_unstable_loop_eventually_overflows_controller_path():
    with pytest.raises(ArithmeticOverflow) as exc:
        step_response(UNSTABLE_CTL, CRUISE, T, 1000)
    assert 0 < exc.value.step < 1000


def test_stable_controller_settles():
    trace = step_response(STABLE_CTL, CRUISE, T, 2000,
                          NoiseModel.worst_case(Q, Q))
    assert not trace.diverged()
    assert abs(trace.y[-1] - 1) < Fraction(1, 100)


def test_seeded_uniform_noise_is_deterministic():
    n = NoiseModel.seeded_uniform(Q, Q)
    a = step_response(STABLE_CTL, CRUISE, T, 150, n, seed=3)
    b = step_response(STABLE_CTL, CRUISE, T, 150, n, seed=3)
    c = step_response(STABLE_CTL, CRUISE, T, 150, n, seed=4)
    assert a.y == b.y
    assert [v.raw for v in a.u] == [v.raw for v in b.u]
    assert a.y != c.y


def test_csv_export_round_trips_controller_signals():
    trace = step_response(STABLE_CTL, CRUISE, T, 20)
    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,t,r,e,u,y"
    assert len(lines) == 21
    scale = FixedPointFormat(40, 16).scale
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == k
        # Bit-exact decimals: reparsing recovers the raw integers.
        assert Fraction(fields[3]) * scale == trace.e[k].raw
        assert Fraction(fields[4]) * scale == trace.u[k].raw
        assert float(fields[5]) == float(trace.y[k])


@functools.lru_cache(maxsize=1024)
def _mpf50(x: Fraction):
    """x rounded to a 50-digit mpf, as the old plant path converted it."""
    with mp.workdps(50):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def mpmath_plant_step(gn, gd, u_in, uin_hist, y_hist):
    """_plant_step as it was: the difference equation in mpmath at 50
    digits, on coefficients and inputs rounded to 50 digits.  It returns
    the exact value of its mpf, which converts back to the same mpf."""
    with mp.workdps(50):
        us = [u_in] + uin_hist[:len(gn) - 1]
        acc = mp.mpf(0)
        for coeff, sig in zip(gn, us):
            acc += _mpf50(coeff) * _mpf50(sig)
        for j in range(1, len(gd)):
            acc -= _mpf50(gd[j]) * _mpf50(y_hist[j - 1])
        sign, man, exp, _ = (acc / _mpf50(gd[0]))._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp


def test_plant_path_matches_mpmath(monkeypatch):
    # Differential check against the 50-digit mpmath plant path on seeded
    # loops around open-loop-stable plants, in all three noise modes: the
    # same controller signals, plant outputs to a float, and stop step.
    # (Around an unstable plant the 50 digits drift away from the exact
    # output, which the 2^-200 grid follows further.)
    rng = random.Random(11)

    def coeffs(count, scale):
        return [Fraction(rng.randint(-scale, scale), 1000)
                for _ in range(count)]

    loops = stopped = 0
    while loops < 120:
        gd = [1] + coeffs(rng.randint(1, 3), 1500)
        if root_oracle(Poly(gd)) >= 1:
            continue
        plant = TransferFunction(coeffs(rng.randint(1, len(gd)), 500), gd)
        order = rng.randint(0, 2)
        ctl = make_controller(coeffs(order + 1, 3000),
                              [1] + coeffs(order, 1000))
        noise = NoiseModel(Q, Q, NOISE_MODES[loops % 3])
        runs = []
        for plant_step in (simulate._plant_step, mpmath_plant_step):
            monkeypatch.setattr(simulate, "_plant_step", plant_step)
            try:
                trace = step_response(ctl, plant, T, 150, noise, seed=loops,
                                      stop_on_divergence=True)
            except ArithmeticOverflow as exc:
                runs.append(exc.step)
                continue
            runs.append(([v.raw for v in trace.e], [v.raw for v in trace.u],
                         [float(y) for y in trace.y], len(trace)))
        assert runs[0] == runs[1], (plant, ctl, noise)
        stopped += not isinstance(runs[0], tuple) or runs[0][-1] < 150
        loops += 1
    assert stopped >= 20


def test_static_gain_margins():
    one = TransferFunction([1], [1])
    half = TransferFunction([Fraction(1, 2)], [1])
    gm, pm = frequency_margins(half, one, T)
    assert gm == pytest.approx(20 * math.log10(2), abs=1e-6)
    assert pm == math.inf
    gm_unity, _ = frequency_margins(one, one, T)
    assert gm_unity == pytest.approx(0.0, abs=1e-9)


def test_margins_of_cruise_loop():
    gm, pm = frequency_margins(STABLE_CTL, CRUISE, T)
    assert 10 < gm < 25
    assert 0 < pm < 180
    gm_bad, _ = frequency_margins(UNSTABLE_CTL, CRUISE, T)
    assert gm_bad < 0


def numpy_loop_response(controller, plant, omegas, T):
    cn, cd, _ = _controller_polys(controller)
    z = np.exp(1j * omegas * float(T))
    num = (np.polyval([float(c) for c in cn.coeffs], z)
           * np.polyval([float(c) for c in plant.num.coeffs], z))
    den = (np.polyval([float(c) for c in cd.coeffs], z)
           * np.polyval([float(c) for c in plant.den.coeffs], z))
    if np.any(den == 0) or not np.all(np.isfinite(den)):
        raise EvaluationSingularity("loop pole on the evaluation grid")
    return num / den


def numpy_frequency_margins(controller, plant, T, points=20000):
    """frequency_margins as it was, in numpy arrays."""
    w_max = math.pi / float(T)
    omegas = np.logspace(math.log10(w_max) - 6, math.log10(w_max), points,
                         endpoint=False)[1:]
    try:
        resp = numpy_loop_response(controller, plant, omegas, T)
    except EvaluationSingularity:
        omegas = omegas * (1 + 1e-9)
        resp = numpy_loop_response(controller, plant, omegas, T)
    mag = np.abs(resp)
    phase = np.unwrap(np.angle(resp))
    gm_candidates = []
    shifted = (phase + math.pi) / (2 * math.pi)
    wraps = np.floor(shifted)
    for i in np.nonzero(np.diff(wraps) != 0)[0]:
        p0, p1 = shifted[i], shifted[i + 1]
        target = max(wraps[i], wraps[i + 1])
        if p1 == p0:
            continue
        frac = (target - p0) / (p1 - p0)
        m = mag[i] + frac * (mag[i + 1] - mag[i])
        if m > 0:
            gm_candidates.append(-20 * math.log10(m))
    m_nyq = abs(numpy_loop_response(controller, plant, np.array([w_max]),
                                    T)[0])
    if m_nyq > 0:
        gm_candidates.append(-20 * math.log10(m_nyq))
    pm_candidates = []
    above = mag >= 1.0
    for i in np.nonzero(np.diff(above))[0]:
        m0, m1 = mag[i], mag[i + 1]
        frac = (1.0 - m0) / (m1 - m0) if m1 != m0 else 0.5
        ph = phase[i] + frac * (phase[i + 1] - phase[i])
        pm_candidates.append(_wrap_margin(math.degrees(ph) + 180.0))
    if np.all(above) and abs(mag[0] - 1.0) < 1e-12:
        pm_candidates.append(_wrap_margin(math.degrees(phase[0]) + 180.0))
    return (float(min(gm_candidates)) if gm_candidates else math.inf,
            float(min(pm_candidates)) if pm_candidates else math.inf)


def test_margins_match_numpy_reference():
    # The two cruise loops and 52 seeded random loops of controller and
    # plant orders up to 2 and 3.  The grid, Horner order, unwrap rule and
    # interpolation are numpy's; its vectorised exp, power and complex
    # division may round differently in the last bit.
    rng = random.Random(41)

    def poly(degree):
        return [Fraction(rng.randint(-2000, 2000), 1000)
                for _ in range(degree + 1)]

    loops = [(STABLE_CTL, CRUISE, T), (UNSTABLE_CTL, CRUISE, T)]
    while len(loops) < 54:
        cn, cd = poly(rng.randint(0, 2)), poly(rng.randint(0, 2))
        gn, gd = poly(rng.randint(0, 2)), poly(rng.randint(1, 3))
        if cd[0] and gd[0]:
            loops.append((TransferFunction(cn, cd), TransferFunction(gn, gd),
                          Fraction(rng.randint(1, 100), 100)))
    finite = 0
    for controller, plant, t in loops:
        got = frequency_margins(controller, plant, t)
        expected = numpy_frequency_margins(controller, plant, t)
        for x, y in zip(got, expected):
            assert round(x, 6) == round(y, 6), (controller, plant, t)
            if math.isfinite(y):
                finite += 1
                assert x == pytest.approx(y, rel=1e-9, abs=0)
    assert finite >= 80


def test_write_margins_format():
    buf = io.StringIO()
    write_margins(buf, 6.0206, math.inf)
    assert buf.getvalue() == ("gain_margin_db = 6.020600\n"
                              "phase_margin_deg = inf\n")


def test_sensitivity_functions_identities():
    h1, h2, h3 = sensitivity_functions(STABLE_CTL, CRUISE)
    assert h1.den.coeffs == h2.den.coeffs == h3.den.coeffs
    # H1 + H3 = 1: numerators sum to the shared denominator.
    assert poly_add(h1.num, h3.num).coeffs == h1.den.coeffs


def test_sensitivity_zero_controller():
    c = make_controller([0], [1])
    h1, h2, h3 = sensitivity_functions(c, CRUISE)
    assert h1.num.coeffs == h1.den.coeffs  # H1 = 1
    assert h3.num.is_zero()
    # H2 = G.
    assert h2.num.coeffs[0] / h2.den.coeffs[0] == Fraction("0.0264")


def test_sensitivity_degenerate_loop():
    c = make_controller([1], [0])
    g = TransferFunction([0], [1, 1])
    with pytest.raises(DegenerateLoop):
        sensitivity_functions(c, g)


def test_worst_case_noise_pushes_harder_than_none():
    quiet = step_response(STABLE_CTL, CRUISE, T, 400)
    noisy = step_response(STABLE_CTL, CRUISE, T, 400,
                          NoiseModel.worst_case(Q * 64, Q * 64))
    err_quiet = abs(quiet.y[-1] - 1)
    err_noisy = abs(noisy.y[-1] - 1)
    assert err_noisy >= err_quiet


def test_steps_validation():
    with pytest.raises(ValueError):
        step_response(STABLE_CTL, CRUISE, T, 0)
