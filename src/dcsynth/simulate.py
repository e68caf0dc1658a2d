"""Closed-loop simulation, frequency-domain margins and the cancellation
screen, the last two on the open loop's exact common factor.

The loop is the fully digital unity-negative-feedback arrangement: the
fixed-point `Controller` runs on its own raws, on a signal grid with its
fraction bits and a wide integer range (each product truncated toward
zero, each sum checked against the grid's range), the plant runs on its
integerized coefficients with each output rounded to the fixed dyadic grid
of multiples of 2^-200, and the ADC and DAC errors of one quantization
step q enter at their worst: +-q/2 on the error fed to the controller and
on its output, each with the sign of its signal, pushing it away from zero
(q = 0: no noise).  The loop runs on Python integers; its trace holds
`FixedPointValue`s and `Fraction`s built from them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ArithmeticOverflow, DegenerateLoop, Overflow
from .fixedpoint import MAX_TOTAL_BITS, FixedPointFormat, FixedPointValue
from .stability import bilinear, jury_stable, positive_roots, sturm_chain
from .transfer import (Controller, Poly, TransferFunction, convolve,
                       integerize, poly_divmod, poly_mul)

SIGNAL_INTEGER_BITS = 40
DIVERGENCE_FACTOR = 10 ** 6
_PLANT_GRID = 1 << 200  # plant outputs are multiples of 1/_PLANT_GRID
_DECIMAL_DIGITS = 20  # fractional digits of a non-terminating CSV time

@dataclass
class SimulationTrace:
    """Time-indexed (e, u, y) samples of the response to the unit step
    r = 1, built from `step_response`'s integers: e and u on the controller
    signal grid (FixedPointValue), y exact rationals; a last y may lack e
    and u."""

    sample_time: Fraction
    e: list = field(default_factory=list)
    u: list = field(default_factory=list)
    y: list = field(default_factory=list)

    def __len__(self):
        return len(self.y)

    def max_abs_output(self) -> Fraction:
        return max((abs(v) for v in self.y), default=Fraction(0))

    def diverged(self) -> bool:
        return self.max_abs_output() > DIVERGENCE_FACTOR

    def divergence_step(self):
        return next((k for k, v in enumerate(self.y)
                     if abs(v) > DIVERGENCE_FACTOR), None)

    def write_csv(self, fp):
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["k", "t", "r", "e", "u", "y"])
        t = Fraction(0)
        for k in range(len(self.y)):
            # e, u: controller-path signals, bit-exact decimals (empty in a
            # last row without them); y: plant output, shortest float repr.
            e, u = (s[k].decimal_str() if k < len(s) else ""
                    for s in (self.e, self.u))
            writer.writerow([k, _decimal(t), "1", e, u,
                             repr(float(self.y[k]))])
            t += self.sample_time


def _decimal(x: Fraction) -> str:
    """Decimal rendering; exact when the denominator is 2^a 5^b, otherwise
    rounded to _DECIMAL_DIGITS fractional digits."""
    x = Fraction(x)
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        k = max(twos, fives)
        scaled = abs(x.numerator) * 2 ** (k - twos) * 5 ** (k - fives)
        s = str(scaled).rjust(k + 1, "0")
        sign = "-" if x < 0 else ""
        return f"{sign}{s[:-k]}.{s[-k:]}" if k else f"{sign}{s}"
    scaled = round(x * 10 ** _DECIMAL_DIGITS)
    s = str(abs(scaled)).rjust(_DECIMAL_DIGITS + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{s[:-_DECIMAL_DIGITS]}.{s[-_DECIMAL_DIGITS:]}"


def _controller_polys(controller):
    if isinstance(controller, Controller):
        return (Poly([v.value for v in controller.num]),
                Poly([v.value for v in controller.den]))
    return controller.num, controller.den


def step_response(controller: Controller, plant: TransferFunction, T,
                  steps: int, noise=0) -> SimulationTrace:
    """Unity-negative-feedback response of a fixed-point controller to a
    unit step, under worst-case ADC/DAC errors of the quantization step
    q = `noise`: q/2 with the sign of the signal, added to the error the
    controller reads and to the output it writes.

    The controller path runs on the signal grid <max(min(40, 64 - F), I),
    F> for the controller format <I, F>, as deployed code would: its raws
    go onto the grid as they are, and the error, each product (truncated
    toward zero), each partial sum and the quotient by the denominator's
    lead (truncated too) must fit it, or the step fails with the Overflow
    of a FixedPointValue off the grid.  For F <= 24 that grid is
    <max(40, I), F>; past it, the widest format with F fraction bits, as
    I + F <= 64.  The plant path pairs its numerator with [u_k, u_(k-1),
    ...] for y_(k+1), rounded half-to-even to a multiple of 2^-200.  Both
    paths run on Python integers.

    The loop ends early at the first |y| above the threshold `diverged()`
    reads, in a y without e and u if that step's controller path
    overflows; the trace is then shorter than `steps`.  An overflow before
    divergence raises ArithmeticOverflow.  ValueError: steps < 1, or a
    nonzero controller whose denominator, front-padded to the numerator,
    leads with zero.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    i, f = controller.format.integer_bits, controller.format.fraction_bits
    sig_fmt = FixedPointFormat(
        max(min(SIGNAL_INTEGER_BITS, MAX_TOTAL_BITS - f), i), f)
    scale, limit = sig_fmt.scale, sig_fmt.raw_limit

    def fit(raw):
        # Off the grid, FixedPointValue raises the Overflow.
        return (raw if -limit < raw < limit
                else FixedPointValue(raw, sig_fmt).raw)

    n_c = max(len(controller.num), len(controller.den))
    b, a = ([0] * (n_c - len(p)) + [v.raw for v in p]
            for p in (controller.num, controller.den))
    if a[0] == 0 and any(b):
        raise ValueError("the padded controller denominator leads with zero")
    # The plant's coefficients over one denominator, which the division by
    # the lead cancels; negated if need be for a positive lead.
    n_g = max(len(plant.num.coeffs), len(plant.den.coeffs))
    g, _ = integerize([c for p in (plant.num, plant.den)
                       for c in [0] * (n_g - len(p.coeffs)) + list(p.coeffs)])
    g = [-c for c in g] if g[n_g] < 0 else g
    gn, gd = g[:n_g], g[n_g:]
    # The converters' inputs and outputs over den, a multiple of the signal
    # grid's and the plant grid's denominators and of q/2's.
    half = Fraction(noise) / 2
    den = math.lcm(_PLANT_GRID, half.denominator)
    h = half.numerator * (den // half.denominator)
    per_raw, per_y = den // scale, den // _PLANT_GRID

    es, us = [0] * n_c, [0] * n_c  # signal raws, latest first
    vs, ys = [0] * n_g, [0] * n_g  # DAC outputs over den, y over 2^200
    trace = SimulationTrace(sample_time=Fraction(T))
    for k in range(steps):
        trace.y.append(Fraction(ys[0], _PLANT_GRID))
        diverged = abs(ys[0]) > DIVERGENCE_FACTOR * _PLANT_GRID
        try:
            x = (_PLANT_GRID - ys[0]) * per_y  # 1 - y over den
            es = [fit(_trunc_div(x + (-h if x < 0 else h), per_raw)), *es[:-1]]
            # Direct form I: a0*u[k] = sum b_j e[k-j] - sum_{j>=1} a_j u[k-j].
            acc = 0
            for c, s in zip(b, es):
                acc = fit(acc + fit(_trunc_div(c * s, scale)))
            for c, s in zip(a[1:], us):
                acc = fit(acc - fit(_trunc_div(c * s, scale)))
            # acc is 0 throughout for the zero controller, whatever its a0.
            u = fit(_trunc_div(acc * scale, a[0])) if acc else 0
        except Overflow as exc:
            if diverged:
                break
            raise ArithmeticOverflow(k, str(exc)) from exc
        us = [u] + us[:-1]
        vs = [u * per_raw + (-h if u < 0 else h)] + vs[:-1]
        z = (sum(c * v for c, v in zip(gn, vs))
             - per_y * sum(c * v for c, v in zip(gd[1:], ys)))
        ys = [_round_half_even(z, per_y * gd[0])] + ys[:-1]
        trace.e.append(FixedPointValue(es[0], sig_fmt))
        trace.u.append(FixedPointValue(u, sig_fmt))
        if diverged:
            break
    return trace


def _trunc_div(num: int, den: int) -> int:
    """num/den rounded toward zero (Python's // floors)."""
    q = abs(num) // abs(den)
    return q if (num >= 0) == (den > 0) else -q


def _round_half_even(num: int, den: int) -> int:
    """round(Fraction(num, den)) for den > 0: ties to even."""
    q, r = divmod(num, den)
    return q + (2 * r > den or (2 * r == den and q % 2 == 1))


def _open_loop(controller, plant: TransferFunction) -> tuple:
    """The open loop's numerator Cn*Gn, its denominator Cd*Gd and their
    common factor: the last term of their Sturm remainder sequence (Basu,
    Pollack & Roy, *Algorithms in Real Algebraic Geometry*), a multiple of
    their gcd."""
    cn, cd = _controller_polys(controller)
    num, den = poly_mul(cn, plant.num), poly_mul(cd, plant.den)
    return num, den, Poly(sturm_chain(num, den)[-1])


def cancellation_on_or_outside_unit_circle(controller,
                                           plant: TransferFunction) -> bool:
    """True iff Cn*Gn and Cd*Gd share a root on or outside the unit circle,
    a mode that C*G hides: their common factor is not constant and exact
    Jury does not find it stable.  False where either is zero."""
    num, den, common = _open_loop(controller, plant)
    return (not (num.is_zero() or den.is_zero()) and common.degree >= 1
            and not jury_stable(common).is_stable)


def frequency_margins(controller, plant: TransferFunction, T):
    """(gain margin dB, phase margin degrees) of the open loop L = C*G in
    lowest terms, read at its exact crossings of z = e^(j*w*T), 0 < w*T < pi
    (roots in u = cot(w*T/2) > 0 of exact polynomials, so T changes nothing)
    and at z = -1 unless L has a pole there; a zero or pole is no crossing.
    math.inf: no candidate.  |L| = 1 on the whole circle: phase at z = 1."""
    num, den, common = _open_loop(controller, plant)
    if den.is_zero():
        raise DegenerateLoop("the loop denominator is identically zero")
    num, den = (poly_divmod(p, common)[0].normalize() for p in (num, den))
    n = max(num.degree, den.degree)
    en, ed = (bilinear([0] * (n - p.degree) + list(p.coeffs))
              for p in (num, den))
    # L = N*conj(D)/|D|^2, and |L| = 1 where Re((N - D)*conj(N + D)) = 0.
    cross_re, cross_im = _times_conj(en, ed)
    magnitude = _times_conj([a - b for a, b in zip(en, ed)],
                            [a + b for a, b in zip(en, ed)])[0]
    gm_candidates = []
    if not cross_im.is_zero():
        # Im L without the roots it shares with Re L: L's zeros and poles.
        real_at = cross_im
        while len(common := sturm_chain(real_at, cross_re)[-1]) > 1:
            real_at = poly_divmod(real_at, Poly(common))[0]
        den_square = _times_conj(ed, ed)[0]
        gm_candidates = [-20 * math.log10(-cross_re(u) / den_square(u))
                         for u in positive_roots(real_at) if cross_re(u) < 0]
    if num(-1) and den(-1):
        gm_candidates.append(-20 * math.log10(abs(num(-1) / den(-1))))
    phases = ([0.0 if num(1) / den(1) > 0 else math.pi] if magnitude.is_zero()
              else [math.atan2(cross_im(u), cross_re(u))
                    for u in positive_roots(magnitude)])
    return (min(gm_candidates, default=math.inf),
            min((_wrap_margin(math.degrees(ph) + 180.0) for ph in phases),
                default=math.inf))


def _times_conj(x, y) -> tuple:
    """(Re, Im) in u of X(s)*Y(-s) = X*conj(Y) at s = -j*u, where z is
    e^(j*theta), u = cot(theta/2), for X, Y of coefficients x, y."""
    p = convolve(x, [c * (-1) ** i for i, c in enumerate(y[::-1])][::-1],
                 0)[::-1]
    # (-j)^k is 1, -j, -1, j for k = 0, 1, 2, 3 (mod 4).
    return tuple(Poly([c * f[k % 4] for k, c in enumerate(p)][::-1])
                 for f in ((1, 0, -1, 0), (0, -1, 0, 1)))


def _wrap_margin(deg: float) -> float:
    """Reduce an angle in degrees to the representative in (-180, 180]."""
    m = deg % 360.0
    return m - 360.0 if m > 180.0 else m
