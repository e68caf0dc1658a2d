"""Closed-loop simulation, noise injection, margins, and sensitivities."""

import functools
import io
import math
import pathlib
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest

import dcsynth.simulate as simulate
from dcsynth.errors import ArithmeticOverflow, DegenerateLoop
from dcsynth.fixedpoint import FixedPointFormat, quantize_poly
from dcsynth.simulate import (NOISE_MODES, NoiseModel, _controller_polys,
                              _wrap_margin,
                              cancellation_on_or_outside_unit_circle,
                              frequency_margins, sensitivity_functions,
                              step_response, write_margins)
from dcsynth.stability import root_oracle
from dcsynth.transfer import (Controller, Poly, TransferFunction, poly_add,
                              poly_mul, poly_roots)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from same_reports import screen_loops  # noqa: E402

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
    # The loop stops at the first sample past the threshold diverged() reads.
    assert trace.divergence_step() == len(trace) - 1 < 499


def test_unstable_loop_eventually_overflows_controller_path():
    with pytest.raises(ArithmeticOverflow) as exc:
        step_response(UNSTABLE_CTL, CRUISE, T, 1000)
    assert 0 < exc.value.step < 1000


def test_overflow_past_divergence_ends_the_trace():
    # u_2 = 2^41·e_2 leaves the <48,8> signal grid at the step whose y_2,
    # about 5.8e10, is past the divergence threshold: y_2 ends the trace,
    # with no e or u.
    big = make_controller([2 ** 41], [1], FixedPointFormat(48, 8))
    trace = step_response(big, CRUISE, T, 10, stop_on_divergence=True)
    assert (len(trace), len(trace.e), len(trace.u)) == (3, 2, 2)
    assert trace.divergence_step() == 2
    buf = io.StringIO()
    trace.write_csv(buf)
    assert buf.getvalue().splitlines()[-1].split(",")[:5] == [
        "2", "0.4", "1", "", ""]
    with pytest.raises(ArithmeticOverflow) as exc:
        step_response(big, CRUISE, T, 10)
    assert exc.value.step == 2
    # u doubles each step while y stays tiny: an overflow before divergence
    # raises also when the trace stops on divergence.
    doubling = make_controller([1], [1, -2])
    with pytest.raises(ArithmeticOverflow):
        step_response(doubling, TransferFunction([Fraction(1, 2 ** 100)],
                                                 [1, 0]),
                      T, 100, stop_on_divergence=True)


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


@pytest.mark.parametrize("fmt,grid", [
    (F416, (40, 16)), (FixedPointFormat(4, 24), (40, 24)),
    (FixedPointFormat(4, 25), (39, 25)), (FixedPointFormat(1, 63), (1, 63))])
def test_signal_grid_keeps_the_controller_fraction_bits(fmt, grid):
    # <40, F>, or the widest format with F fraction bits past F = 24.
    ctl = make_controller(["0.25"], ["1"], fmt)
    trace = step_response(ctl, CRUISE, T, 20)
    assert {v.format for v in trace.e + trace.u} == {FixedPointFormat(*grid)}
    assert trace.u[0].value == Fraction(1, 4)
    assert not trace.diverged()


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


def _mpf(x):
    return mp.mpf(Fraction(x).numerator) / Fraction(x).denominator


def mpmath_crossings(controller, plant):
    """L = N/D at every crossing of 0 < arg z < pi, in 50 digits, as
    (kind, arg z, L) with kind "gain" (|L| = 1) or "phase" (L < 0): the
    unit-circle roots, by mpmath.polyroots, of z^m·(N(z)N(1/z) - D(z)D(1/z))
    and of z^m·(N(z)D(1/z) - D(z)N(1/z)), m = max(deg N, deg D); a root
    of the second where N or D vanishes is dropped."""
    cn, cd, _ = _controller_polys(controller)
    num = poly_mul(cn, plant.num).normalize()
    den = poly_mul(cd, plant.den).normalize()
    m = max(num.degree, den.degree)

    def times_reversed(a, b):
        # z^m·a(z)·b(1/z): b reversed, shifted up to the common degree m.
        return poly_mul(poly_mul(a, Poly(b.coeffs[::-1])),
                        Poly([1] + [0] * (m - b.degree)))

    out = []
    with mp.workdps(50):
        for kind, p, q in (("gain", times_reversed(num, num),
                            times_reversed(den, den)),
                           ("phase", times_reversed(num, den),
                            times_reversed(den, num))):
            diff = list(poly_add(p, Poly([-c for c in q.coeffs])).coeffs)
            while diff and diff[0] == 0:
                diff.pop(0)
            if len(diff) < 2:
                continue
            for z in mp.polyroots([_mpf(c) for c in diff], maxsteps=400,
                                  extraprec=400):
                theta = mp.arg(z)
                if (abs(abs(z) - 1) > mp.mpf(10) ** -20
                        or not 10 ** -30 < theta < mp.pi - 10 ** -30):
                    continue
                z = mp.expj(theta)
                n_z = mp.polyval([_mpf(c) for c in num.coeffs], z)
                d_z = mp.polyval([_mpf(c) for c in den.coeffs], z)
                if kind == "phase" and (abs(n_z) < 10 ** -30
                                        or abs(d_z) < 10 ** -30
                                        or (n_z / d_z).real >= 0):
                    continue
                out.append((kind, theta, n_z / d_z))
    return out


def mpmath_margins(controller, plant):
    """(gain margin dB, phase margin degrees) from `mpmath_crossings` and
    the Nyquist point z = -1, unless it is a pole."""
    crossings = mpmath_crossings(controller, plant)
    cn, cd, _ = _controller_polys(controller)
    nyquist = [poly_mul(a, b)(-1) for a, b in ((cn, plant.num),
                                               (cd, plant.den))]
    gains = [abs(loop) for kind, _, loop in crossings if kind == "phase"]
    if all(nyquist):
        gains.append(abs(_mpf(nyquist[0] / nyquist[1])))
    phases = [_wrap_margin(float(mp.degrees(mp.arg(loop))) + 180.0)
              for kind, _, loop in crossings if kind == "gain"]
    return (min((float(-20 * mp.log10(g)) for g in gains), default=math.inf),
            min(phases, default=math.inf))


def seeded_loops(rng, count):
    """`count` random loops of controller orders up to 2 and plant orders
    up to 3, coefficients on the 1/1000 grid in [-2, 2]."""
    def poly(degree):
        return [Fraction(rng.randint(-2000, 2000), 1000)
                for _ in range(degree + 1)]

    loops = []
    while len(loops) < count:
        cn, cd = poly(rng.randint(0, 2)), poly(rng.randint(0, 2))
        gn, gd = poly(rng.randint(0, 2)), poly(rng.randint(1, 3))
        if cd[0] and gd[0]:
            loops.append((TransferFunction(cn, cd), TransferFunction(gn, gd)))
            rng.randint(1, 100)  # a sample time, which changes no margin
    return loops


ONE = TransferFunction([1], [1])
# Crossings next to both ends of the circle: |1/2000/(z - 1)| = 1 at
# theta near 1/2000, |1/2000/(z + 1)| = 1 at theta near pi - 1/2000.
NEAR_ENDS = [(TransferFunction([Fraction(1, 2000)], [1, -1]), ONE),
             (TransferFunction([Fraction(1, 2000)], [1, 1]), ONE),
             (TransferFunction([Fraction(3, 2000)], [1, Fraction(-9, 10)]),
              TransferFunction([1, Fraction(1, 2)], [1, -2, 1]))]
# Tangencies.  |(z - 2)(z + 1/2)|^2 = 25/4 - 4cos^2(theta), so |L| below
# touches 1 at theta = pi/2 only.  L = -(1/2)·(1 + cos(theta)/2
# + j·sin(theta)·(cos(theta) - 1/2)^2) has Im L touching 0 at theta = pi/3,
# where |L| = 5/8 exceeds its |L| = 1/4 at z = -1; in z, the numerator
# below over z^3.
TANGENT_MAGNITUDE = (TransferFunction([Fraction(2, 5), Fraction(-3, 5),
                                       Fraction(-2, 5)], [1, 0, 0]), ONE)
TANGENT_PHASE = (TransferFunction(
    [-Fraction(x, 16) for x in (1, -2, 4, 8, 0, 2, -1)], [1, 0, 0, 0]), ONE)


def test_margins_match_mpmath_crossings():
    # The two cruise loops, 52 seeded loops, crossings next to both ends of
    # the circle, and a tangency of |L| and of Im L.
    loops = ([(STABLE_CTL, CRUISE), (UNSTABLE_CTL, CRUISE)]
             + seeded_loops(random.Random(41), 52) + NEAR_ENDS
             + [TANGENT_MAGNITUDE, TANGENT_PHASE])
    finite = 0
    for controller, plant in loops:
        got = frequency_margins(controller, plant, T)
        expected = mpmath_margins(controller, plant)
        for x, y in zip(got, expected):
            assert round(x, 6) == round(y, 6), (controller, plant)
            if math.isfinite(y):
                finite += 1
                assert x == pytest.approx(y, rel=1e-9, abs=0)
    assert finite >= 80
    thetas = [theta for loop in NEAR_ENDS
              for _, theta, _ in mpmath_crossings(*loop)]
    assert min(thetas) < 1e-3 and max(thetas) > math.pi - 1e-3


def test_tangent_crossings():
    tangents = [(kind, float(theta)) for loop in (TANGENT_MAGNITUDE,
                                                  TANGENT_PHASE)
                for kind, theta, _ in mpmath_crossings(*loop)]
    assert ("gain", pytest.approx(math.pi / 2)) in tangents
    assert ("phase", pytest.approx(math.pi / 3)) in tangents
    # L(j) = (4 + 3j)/5.
    assert frequency_margins(*TANGENT_MAGNITUDE, T)[1] == pytest.approx(
        math.degrees(math.atan2(3, 4)) - 180, rel=1e-12)
    assert frequency_margins(*TANGENT_PHASE, T)[0] == pytest.approx(
        -20 * math.log10(5 / 8), rel=1e-12)


def test_margins_of_unit_magnitude_loops():
    # |L| = 1 on the whole circle: the phase margin is read at z = 1.
    assert frequency_margins(ONE, ONE, T) == (0.0, 180.0)
    assert frequency_margins(TransferFunction([-1], [1]), ONE, T) == (0.0,
                                                                     0.0)
    allpass = TransferFunction([Fraction(1, 2), 1], [1, Fraction(1, 2)])
    assert frequency_margins(allpass, ONE, T)[1] == 180.0


def test_poles_on_the_circle_give_no_candidate():
    # Loop poles on the circle (e^(+-j*pi/3), +-j, e^(+-2j*pi/3)) make Im L
    # vanish without a crossing, under both signs of the controller.
    for sign in (1, -1):
        controller = TransferFunction([sign * Fraction(1, 2),
                                       sign * Fraction(1, 3)],
                                      [1, Fraction(1, 5)])
        for plant in (TransferFunction([1, 1], [1, -1, 1]),
                      TransferFunction([1, 0], [1, 0, 1]),
                      TransferFunction([1], [1, 1, 1])):
            got = frequency_margins(controller, plant, T)
            assert got == pytest.approx(mpmath_margins(controller, plant),
                                        rel=1e-9)
    # L(-1) = 0 gives no candidate either; with the poles' dropped, none is
    # left.
    plant = TransferFunction([1, 1], [1, -1, 1])
    assert frequency_margins(controller, plant, T)[0] == math.inf
    # A pole at z = -1 drops the Nyquist candidate; L = 1/(2(z + 1)) is
    # nowhere else real and negative.
    at_nyquist = TransferFunction([Fraction(1, 2)], [1, 1])
    assert frequency_margins(at_nyquist, ONE, T)[0] == math.inf


def test_common_factor_on_the_circle_cancels():
    # (z + 1)(z^2 - z + 1) over itself times 1/2: L = 1/2 after reduction.
    common = [1, 0, 0, 1]
    loop = TransferFunction([Fraction(x, 2) for x in common], common)
    assert frequency_margins(loop, ONE, T) == frequency_margins(
        TransferFunction([Fraction(1, 2)], [1]), ONE, T)


def _float_screen(controller, plant, tol=1e-6):
    """The float cancellation screen the exact one replaced, a reference:
    whether a root of Cn*Gn and a root of Cd*Gd (`poly_roots`) lie within
    `tol` of each other, both of modulus at least 1 - tol."""
    cn, cd, _ = _controller_polys(controller)
    num = poly_mul(cn, plant.num).normalize()
    den = poly_mul(cd, plant.den).normalize()
    if num.degree < 1 or den.degree < 1:
        return False
    return any(abs(z - p) < tol and abs(z) >= 1 - tol and abs(p) >= 1 - tol
               for z in poly_roots(num.coeffs)
               for p in poly_roots(den.coeffs))


def test_cancellation_screen_matches_the_float_screen():
    # Loops with a planted common factor, a real root or a complex pair
    # inside, on or outside the unit circle, simple or repeated: the float
    # screen's pairs within 1e-6 are the exact common factor's roots.
    fmt, flagged = FixedPointFormat(4, 8), 0
    for cn, cd, gn, gd in screen_loops(2000):
        c = Controller(*(quantize_poly([Fraction(x) for x in p], fmt)
                         for p in (cn, cd)))
        g = TransferFunction([Fraction(x) for x in gn],
                             [Fraction(x) for x in gd])
        exact = cancellation_on_or_outside_unit_circle(c, g)
        assert exact == _float_screen(c, g), (cn, cd, gn, gd)
        flagged += exact
    assert 1000 < flagged < 1900


SIX_FIFTHS = [1, Fraction(-6, 5), 1]  # a complex pair on the unit circle


@pytest.mark.parametrize("controller,plant,hidden", [
    # A controller zero on a plant pole at z = 1, at z = -1, and inside.
    (make_controller([1, -1], [1, 0]), TransferFunction([1], [1, -1]), True),
    (make_controller([1, 1], [1, Fraction(-1, 2)]),
     TransferFunction([1], [1, 1]), True),
    (make_controller([1, Fraction(-1, 2)], [1, 0]),
     TransferFunction([1], [1, Fraction(-1, 2)]), False),
    # A plant not in lowest terms: z^2 - (6/5)z + 1 over itself.
    (make_controller([1], [1]),
     TransferFunction(SIX_FIFTHS, poly_mul(Poly(SIX_FIFTHS),
                                           Poly([1, Fraction(1, 2)])).coeffs),
     True),
    # A repeated root at 2: (z - 2)^2 in the controller and the plant.
    (make_controller([1, -4, 4], [1, 0, 0]),
     TransferFunction([1], [1, -4, 4]), True),
    # A zero controller numerator shares every root of Cd*Gd: no hidden
    # mode.
    (make_controller([0], [1]), TransferFunction([1], [1, -2]), False),
    # Distinct roots 1e-7 apart share no factor.
    (make_controller([1], [1]),
     TransferFunction([1, -2], [1, -2 - Fraction(1, 10 ** 7)]), False),
])
def test_cancellation_screen_exact_cases(controller, plant, hidden):
    assert cancellation_on_or_outside_unit_circle(controller, plant) is hidden


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
    # A zero controller denominator leaves L = C*G undefined.
    with pytest.raises(DegenerateLoop):
        frequency_margins(c, CRUISE, T)


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
