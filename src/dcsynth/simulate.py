"""Closed-loop simulation and frequency-domain margins.

The loop is the fully digital unity-negative-feedback arrangement: the
controller runs in its own fixed-point format (truncating arithmetic, wide
accumulator range), the plant runs in exact rationals with each output
rounded to the fixed dyadic grid of multiples of 2^-200, and quantization
noise enters as nu1 at the plant output (ADC side) and nu2 at the
controller output (DAC side), each bounded by half a quantization step.
"""

from __future__ import annotations

import cmath
import csv
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (ArithmeticOverflow, DegenerateLoop,
                     EvaluationSingularity, Overflow)
from .fixedpoint import FixedPointFormat, FixedPointValue, quantize_truncate
from .transfer import Controller, Poly, TransferFunction, poly_add, poly_mul

SIGNAL_INTEGER_BITS = 40
DIVERGENCE_FACTOR = 10 ** 6
_PLANT_GRID = 1 << 200  # plant outputs are multiples of 1/_PLANT_GRID

NOISE_MODES = ("zero", "worst-case-bound", "seeded-uniform")


@dataclass(frozen=True)
class NoiseModel:
    """ADC/DAC quantization noise: |nu1| <= q1/2 at the plant output and
    |nu2| <= q2/2 at the controller output."""

    q1: Fraction
    q2: Fraction
    mode: str = "zero"

    def __post_init__(self):
        object.__setattr__(self, "q1", Fraction(self.q1))
        object.__setattr__(self, "q2", Fraction(self.q2))
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("quantization steps must be nonnegative")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls(Fraction(0), Fraction(0), "zero")

    @classmethod
    def worst_case(cls, q1, q2) -> "NoiseModel":
        return cls(q1, q2, "worst-case-bound")

    @classmethod
    def seeded_uniform(cls, q1, q2) -> "NoiseModel":
        return cls(q1, q2, "seeded-uniform")


@dataclass
class SimulationTrace:
    """Time-indexed (r, e, u, y) samples; e and u live on the controller
    signal grid (FixedPointValue), r and y are exact rationals."""

    sample_time: Fraction
    r: list = field(default_factory=list)
    e: list = field(default_factory=list)
    u: list = field(default_factory=list)
    y: list = field(default_factory=list)

    def __len__(self):
        return len(self.y)

    def max_abs_output(self) -> Fraction:
        return max((abs(v) for v in self.y), default=Fraction(0))

    def diverged(self, reference_level=Fraction(1)) -> bool:
        return self.max_abs_output() > DIVERGENCE_FACTOR * abs(reference_level)

    def divergence_step(self, reference_level=Fraction(1)):
        bound = DIVERGENCE_FACTOR * abs(reference_level)
        for k, v in enumerate(self.y):
            if abs(v) > bound:
                return k
        return None

    def write_csv(self, fp):
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["k", "t", "r", "e", "u", "y"])
        t = Fraction(0)
        for k in range(len(self.y)):
            # e and u are controller-path signals: bit-exact decimals.
            # y is the real-valued plant output: shortest float round-trip.
            writer.writerow([k, _decimal(t), _decimal(self.r[k]),
                             self.e[k].decimal_str(), self.u[k].decimal_str(),
                             repr(float(self.y[k]))])
            t += self.sample_time


def _decimal(x: Fraction, digits: int = 20) -> str:
    """Decimal rendering; exact when the denominator is 2^a 5^b, otherwise
    rounded to `digits` fractional digits."""
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
    scaled = round(x * 10 ** digits)
    s = str(abs(scaled)).rjust(digits + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def _controller_polys(controller):
    if isinstance(controller, Controller):
        return (Poly([v.value for v in controller.num]),
                Poly([v.value for v in controller.den]),
                controller.format)
    return controller.num, controller.den, None


def _pad_front(coeffs, n):
    return [Fraction(0)] * (n - len(coeffs)) + list(coeffs)


def _noise_stream(noise: NoiseModel, seed):
    """Returns nu(step, q, reference_signal) -> Fraction for one channel."""
    if noise.mode == "zero":
        return lambda q, ref: Fraction(0)
    if noise.mode == "worst-case-bound":
        # Adversarial: the contribution to the downstream signal has the same
        # sign as that signal, pushing it away from zero.
        def worst(q, ref):
            if ref == 0:
                return q / 2
            return (q if ref > 0 else -q) / 2
        return worst
    rng = random.Random(seed)

    def uniform(q, ref):
        if q == 0:
            return Fraction(0)
        return Fraction(rng.uniform(float(-q) / 2, float(q) / 2))
    return uniform


def step_response(controller, plant: TransferFunction, T, steps: int,
                  noise: NoiseModel | None = None, seed: int = 0,
                  reference=Fraction(1),
                  stop_on_divergence: bool = False) -> SimulationTrace:
    """Unity-negative-feedback step response.

    The controller path runs on the fixed-point signal grid <40, F> where F
    is the controller's fraction bit count (wide range, same resolution), so
    coefficient arithmetic truncates exactly as deployed code would while
    signal headroom failures still surface as ArithmeticOverflow.  The plant
    path runs in exact rationals, each new output rounded to the nearest
    multiple of 2^-200.

    With `stop_on_divergence` the loop ends early once |y| exceeds the
    divergence threshold; the trace is then shorter than `steps` (an unstable
    loop eventually overflows even the wide signal format, so this is how a
    divergent trace is inspected rather than raised out of).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    noise = noise or NoiseModel.zero()
    cn, cd, cfmt = _controller_polys(controller)
    sig_fmt = FixedPointFormat(
        SIGNAL_INTEGER_BITS,
        cfmt.fraction_bits if cfmt is not None else 16)
    n_c = max(len(cn.coeffs), len(cd.coeffs))
    b = _pad_front(cn.coeffs, n_c)
    a = _pad_front(cd.coeffs, n_c)
    controller_is_zero = all(c == 0 for c in b)
    bq = [_to_sig(c, sig_fmt) for c in b]
    aq = [_to_sig(c, sig_fmt) for c in a]

    n_g = max(len(plant.num.coeffs), len(plant.den.coeffs))
    gn = _pad_front(plant.num.coeffs, n_g)
    gd = _pad_front(plant.den.coeffs, n_g)
    nu1 = _noise_stream(noise, seed * 2 + 1)
    nu2 = _noise_stream(noise, seed * 2 + 2)
    reference = Fraction(reference)

    e_hist = [FixedPointValue(0, sig_fmt)] * n_c
    u_hist = [FixedPointValue(0, sig_fmt)] * n_c
    uin_hist = [Fraction(0)] * n_g
    y_hist = [Fraction(0)] * n_g
    trace = SimulationTrace(sample_time=Fraction(T))
    for k in range(steps):
        y = y_hist[0]
        e_pre = reference - y
        e_meas = e_pre + nu1(noise.q1, e_pre)
        try:
            e_q = quantize_truncate(e_meas, sig_fmt)
            u_q = (FixedPointValue(0, sig_fmt) if controller_is_zero
                   else _controller_step(bq, aq, e_q, e_hist, u_hist,
                                         sig_fmt))
        except Overflow as exc:
            raise ArithmeticOverflow(k, str(exc)) from exc
        e_hist = [e_q] + e_hist[:-1]
        u_hist = [u_q] + u_hist[:-1]
        u_in = u_q.value + nu2(noise.q2, u_q.value)
        y_next = _plant_step(gn, gd, u_in, uin_hist, y_hist)
        uin_hist = [u_in] + uin_hist[:-1]
        y_hist = [y_next] + y_hist[:-1]
        trace.r.append(reference)
        trace.e.append(e_q)
        trace.u.append(u_q)
        trace.y.append(y)
        if (stop_on_divergence
                and abs(y) > DIVERGENCE_FACTOR * abs(reference)):
            break
    return trace


def _to_sig(c: Fraction, fmt: FixedPointFormat) -> FixedPointValue:
    raw = c * fmt.scale
    if raw.denominator != 1:
        # Plain-transfer-function controllers may carry off-grid decimals;
        # snap to the nearest grid value (fixed-point controllers are exact).
        raw = round(raw)
    return FixedPointValue(int(raw), fmt)


def _controller_step(bq, aq, e_q, e_hist, u_hist, fmt):
    """Direct-form-I update a0*u[k] = sum b_j e[k-j] - sum_{j>=1} a_j u[k-j],
    every operation truncating on the signal grid."""
    acc = FixedPointValue(0, fmt)
    es = [e_q] + e_hist[:len(bq) - 1]
    for coeff, sig in zip(bq, es):
        acc = acc + coeff * sig
    for j in range(1, len(aq)):
        acc = acc - aq[j] * u_hist[j - 1]
    return acc / aq[0]


def _plant_step(gn, gd, u_in, uin_hist, y_hist):
    """Next plant output: the exact difference-equation value, rounded to
    the nearest multiple of 1/_PLANT_GRID."""
    us = [u_in] + uin_hist[:len(gn) - 1]
    acc = sum(c * v for c, v in zip(gn, us))
    acc -= sum(c * v for c, v in zip(gd[1:], y_hist))
    return Fraction(round(acc / gd[0] * _PLANT_GRID), _PLANT_GRID)


def _loop_response(controller, plant, omegas, T):
    """C*G at z = exp(j*w*T) for each w in `omegas`, each polynomial by
    Horner's rule over the whole grid at once."""
    cn, cd, _ = _controller_polys(controller)
    t = float(T)
    zs = [cmath.exp(1j * (w * t)) for w in omegas]

    def horner(p):
        # From 0j, the first step gives complex(c0) at every z.
        y = [complex(p.coeffs[0])] * len(zs)
        for c in p.coeffs[1:]:
            c = float(c)
            y = [v * z + c for v, z in zip(y, zs)]
        return y

    den = [x * y for x, y in zip(horner(cd), horner(plant.den))]
    if 0 in den or not all(map(cmath.isfinite, den)):
        raise EvaluationSingularity("loop pole on the evaluation grid")
    return [x * y / d
            for x, y, d in zip(horner(cn), horner(plant.num), den)]


def _unwrap(phase):
    """Phase with every jump of pi or more between neighbours replaced by
    its equivalent in [-pi, pi] (the rule of numpy.unwrap, same operations
    in the same order)."""
    out = phase[:1]
    correction = 0.0
    for p0, p1 in zip(phase, phase[1:]):
        jump = p1 - p0
        if abs(jump) >= math.pi:
            reduced = (jump + math.pi) % (2 * math.pi) - math.pi
            if reduced == -math.pi and jump > 0:
                reduced = math.pi
            correction += reduced - jump
        out.append(p1 + correction)
    return out


def frequency_margins(controller, plant: TransferFunction, T,
                      points: int = 20000):
    """(gain margin dB, phase margin degrees) of the open loop C*G.

    Standard crossover definitions on a log grid of `points` frequencies in
    (0, pi/T).  The Nyquist point z = -1 always counts as a gain-margin
    candidate; math.inf is returned for a margin with no crossover.
    """
    t = float(T)
    w_max = math.pi / t
    hi = math.log10(w_max)
    lo = hi - 6
    step = (hi - lo) / points
    omegas = [10.0 ** (lo + i * step) for i in range(1, points)]
    try:
        resp = _loop_response(controller, plant, omegas, T)
    except EvaluationSingularity:
        omegas = [w * (1 + 1e-9) for w in omegas]
        resp = _loop_response(controller, plant, omegas, T)

    mag = [abs(r) for r in resp]
    phase = _unwrap([cmath.phase(r) for r in resp])

    gm_candidates = []
    # Interior -180 degree crossings (phase through an odd multiple of pi).
    shifted = [(p + math.pi) / (2 * math.pi) for p in phase]
    wraps = [math.floor(p) for p in shifted]
    for i in _changes(wraps):
        # Linear interpolation of |L| at the crossing.
        p0, p1 = shifted[i], shifted[i + 1]
        target = max(wraps[i], wraps[i + 1])
        if p1 == p0:
            continue
        frac = (target - p0) / (p1 - p0)
        m = mag[i] + frac * (mag[i + 1] - mag[i])
        if m > 0:
            gm_candidates.append(-20 * math.log10(m))
    m_nyq = abs(_loop_response(controller, plant, [w_max], T)[0])
    if m_nyq > 0:
        gm_candidates.append(-20 * math.log10(m_nyq))
    gain_margin = min(gm_candidates) if gm_candidates else math.inf

    pm_candidates = []
    above = [m >= 1.0 for m in mag]
    for i in _changes(above):
        m0, m1 = mag[i], mag[i + 1]
        frac = (1.0 - m0) / (m1 - m0) if m1 != m0 else 0.5
        ph = phase[i] + frac * (phase[i + 1] - phase[i])
        pm_candidates.append(_wrap_margin(math.degrees(ph) + 180.0))
    if all(above) and abs(mag[0] - 1.0) < 1e-12:
        pm_candidates.append(_wrap_margin(math.degrees(phase[0]) + 180.0))
    phase_margin = min(pm_candidates) if pm_candidates else math.inf
    return gain_margin, phase_margin


def _changes(values):
    """Indices i with values[i] != values[i + 1]."""
    return [i for i, (u, v) in enumerate(zip(values, values[1:])) if u != v]


def _wrap_margin(deg: float) -> float:
    """Reduce an angle in degrees to the representative in (-180, 180]."""
    m = deg % 360.0
    return m - 360.0 if m > 180.0 else m


def write_margins(fp, gain_margin_db, phase_margin_deg):
    """Key=value export of the margin pair."""
    def fmt(x):
        return "inf" if math.isinf(x) else f"{x:.6f}"
    fp.write(f"gain_margin_db = {fmt(gain_margin_db)}\n")
    fp.write(f"phase_margin_deg = {fmt(phase_margin_deg)}\n")


def sensitivity_functions(controller, plant: TransferFunction):
    """(H1, H2, H3) = (1, G, GC) / (1 + GC), all over the shared closed-loop
    denominator S = Cn*Gn + Cd*Gd."""
    cn, cd, _ = _controller_polys(controller)
    cn_gn = poly_mul(cn, plant.num)
    cd_gd = poly_mul(cd, plant.den)
    s = poly_add(cn_gn, cd_gd).normalize()
    if s.is_zero():
        raise DegenerateLoop("1 + G*C is identically zero")
    h1 = TransferFunction(cd_gd, s)
    h2 = TransferFunction(poly_mul(cd, plant.num), s)
    h3 = TransferFunction(cn_gn, s)
    return h1, h2, h3
