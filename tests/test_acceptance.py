"""Acceptance gate: one check per shipped guarantee, each printing a single
PASS/FAIL line.

Criterion 3's published-margin sub-check and criterion 5's engine ordering
are implemented exactly as stated and are expected to fail on this
implementation; the README's "Known red tests" section records the
analysis.  Nothing here is weakened to pass.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from dcsynth import (Controller, FixedPointFormat, Limits, PlantFamily, Poly,
                     Status, TransferFunction,
                     cancellation_on_or_outside_unit_circle, cegis_one_stage,
                     cegis_two_stage, char_poly, ContinuousTF,
                     family_to_interval_poly, frequency_margins,
                     IntervalPoly, jury_stable, jury_stable_interval,
                     parse_benchmark, quantize_poly, quantize_truncate,
                     root_oracle, step_response, zoh_discretize)
from dcsynth.cli import main as cli_main
from dcsynth.intervals import RationalInterval

F416 = FixedPointFormat(4, 16)
CRUISE_PLANT = TransferFunction([Fraction("0.0264")], [1, Fraction("-0.9998")])
T = Fraction(1, 5)
SEED = 1234

QUANTIZED_CTL = Controller(
    quantize_poly(["2.72", "-4.153", "1.896"], F416),
    quantize_poly(["1.0", "-1.844", "0.8496"], F416))
FINAL_CTL = TransferFunction(
    [Fraction("11.035202"), Fraction("5.846100"), Fraction("4.901855")],
    [Fraction("1.097901"), Fraction("0.063110"), Fraction("0.128357")])
FINAL_CTL_Q = Controller(quantize_poly(FINAL_CTL.num.coeffs, F416),
                         quantize_poly(FINAL_CTL.den.coeffs, F416))


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_bit_exact_quantization():
    expected = [Fraction("2.7199859619140625"),
                Fraction("-4.1529998779296875"),
                Fraction("1.89599609375")]
    got = [quantize_truncate(Fraction(x), F416).value
           for x in ("2.72", "-4.153", "1.896")]
    report(1, got == expected,
           f"truncation onto <4,16> reproduces the published bit patterns "
           f"exactly: {[str(g) for g in got]}")


def test_criterion_2_instability_reproduction():
    t0 = time.perf_counter()
    s = char_poly(QUANTIZED_CTL, CRUISE_PLANT)
    verdict = jury_stable(s)
    rho = root_oracle(s)
    trace = step_response(QUANTIZED_CTL, CRUISE_PLANT, T, 500)
    elapsed = time.perf_counter() - t0
    ok = (not verdict.is_stable and rho > 1.0 and trace.diverged()
          and trace.divergence_step() < 500 and elapsed < 1.0)
    report(2, ok,
           f"quantized controller: jury={verdict.status.value}, "
           f"max root={rho:.6f}, diverged past 1e6 at step "
           f"{trace.divergence_step()}, {elapsed:.2f}s")


def test_criterion_3_stability_reproduction():
    t0 = time.perf_counter()
    s = char_poly(FINAL_CTL_Q, CRUISE_PLANT)
    verdict = jury_stable(s)
    rho = root_oracle(s)
    trace = step_response(FINAL_CTL_Q, CRUISE_PLANT, T, 10 ** 4, F416.step)
    elapsed = time.perf_counter() - t0
    ok = (verdict.is_stable and rho < 1.0 and not trace.diverged()
          and elapsed < 5.0)
    report(3, ok,
           f"final controller: jury={verdict.status.value}, "
           f"max root={rho:.6f}, 1e4-step worst-case trace bounded "
           f"(max |y|={float(trace.max_abs_output()):.4f}), {elapsed:.2f}s")


def test_criterion_3_published_margin_values():
    gm, pm = frequency_margins(FINAL_CTL, CRUISE_PLANT, T)
    ok = abs(gm - 17.8) <= 0.5 and pm == math.inf
    report("3 (margins)", ok,
           f"open-loop margins gm={gm:.2f} dB (want 17.8 +- 0.5), "
           f"pm={'inf' if pm == math.inf else f'{pm:.1f} deg'} (want inf); "
           "the published pair matches the closed-loop transfer instead "
           "(see README, Known red tests)")


def _sample_family_plants(family, count, rng):
    num_iv, den_iv = family_to_interval_poly(family)
    fmt = family.plant_format

    def pick(iv):
        inner = iv.snap_inward(fmt) if fmt else iv
        if inner is None:
            inner = RationalInterval(iv.midpoint)
        steps = int((inner.width * fmt.scale)) if fmt else 1000
        if steps <= 0:
            return inner.lo
        return inner.lo + Fraction(rng.randint(0, steps), fmt.scale)

    for _ in range(count):
        yield TransferFunction([pick(iv) for iv in num_iv.coeffs],
                               [pick(iv) for iv in den_iv.coeffs])


def test_criterion_4_end_to_end_synthesis():
    t0 = time.perf_counter()
    spec = parse_benchmark("benchmarks/cruise.bench")
    result = cegis_two_stage(spec.family, spec.controller_format,
                             spec.controller_orders, SEED, Limits())
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    ok = result.success and result.certificate.status is Status.STABLE
    rng = random.Random(SEED)
    failures = 0
    for plant in _sample_family_plants(
            spec.family.with_format(result.plant_format), 1000, rng):
        s = char_poly(result.controller, plant)
        if root_oracle(s) >= 1.0:
            failures += 1
        elif cancellation_on_or_outside_unit_circle(result.controller, plant):
            failures += 1
    ok = ok and failures == 0
    report(4, ok,
           f"two-stage synthesis succeeded in {result.iterations} iterations "
           f"({elapsed:.2f}s), certificate Stable, 1000/1000 sampled family "
           f"plants oracle-stable with no boundary cancellation "
           f"({failures} failures)")


def test_criterion_5_engine_wall_time_ordering():
    spec = parse_benchmark("benchmarks/cruise.bench")
    limits = Limits()

    def median_time(engine):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            result = engine(spec.family, spec.controller_format,
                            spec.controller_orders, SEED, limits)
            times.append(time.perf_counter() - t0)
            assert result.success
        times.sort()
        return times[2]

    t_two = median_time(cegis_two_stage)
    t_one = median_time(cegis_one_stage)
    ok = t_two < t_one
    report(5, ok,
           f"two-stage {t_two * 1e3:.2f}ms vs one-stage {t_one * 1e3:.2f}ms "
           "on the point-family cruise instance; both engines finish within "
           "a few candidate evaluations here, so the two-stage loop overhead "
           "dominates (see README, Known red tests; the ordering holds on "
           "the gain-uncertain variant)")


def test_criterion_5_mechanism_on_nontrivial_instance():
    """Supporting evidence for criterion 5: the cost asymmetry the ordering
    relies on is real once the search has to work."""
    spec = parse_benchmark("benchmarks/cruise_gain_uncertain.bench")
    limits = Limits()
    t0 = time.perf_counter()
    r2 = cegis_two_stage(spec.family, spec.controller_format,
                         spec.controller_orders, SEED, limits)
    t_two = time.perf_counter() - t0
    t0 = time.perf_counter()
    r1 = cegis_one_stage(spec.family, spec.controller_format,
                         spec.controller_orders, SEED, limits)
    t_one = time.perf_counter() - t0
    ok = r2.success and r1.success and t_two < t_one
    report("5 (supporting)", ok,
           f"gain-uncertain variant: two-stage {t_two * 1e3:.2f}ms < "
           f"one-stage {t_one * 1e3:.2f}ms")


def test_criterion_6_jury_vs_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    checked = disagreements = 0
    while checked < 10 ** 4:
        degree = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-2000, 2000), 1000)
                  for _ in range(degree + 1)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        p = Poly(coeffs)
        rho = root_oracle(p)
        if abs(rho - 1.0) < 1e-4:
            continue
        verdict = jury_stable(p)
        if verdict.status is Status.UNKNOWN:
            continue
        checked += 1
        if verdict.is_stable != (rho < 1.0):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 30
    report(6, ok,
           f"{checked} random polynomials (degree <= 6), {disagreements} "
           f"oracle disagreements, {elapsed:.1f}s")


def test_criterion_7_interval_soundness():
    rng = random.Random(SEED)
    fmt = FixedPointFormat(16, 24)
    stable_families = violations = 0
    for _ in range(10 ** 3):
        degree = rng.randint(1, 3)
        coeffs = [Fraction(rng.randint(-2000, 2000), 1000)
                  for _ in range(degree + 1)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        delta = Fraction(rng.randint(0, 500), 1000) * Fraction(
            rng.randint(0, 100), 100) ** 2
        assert delta <= Fraction(1, 2)
        box = [RationalInterval(c - delta, c + delta) for c in coeffs]
        verdict = jury_stable_interval(IntervalPoly(box))
        if verdict.status is not Status.STABLE:
            continue
        stable_families += 1
        members = []
        for mask in range(2 ** len(box)):
            members.append([iv.hi if mask & (1 << i) else iv.lo
                            for i, iv in enumerate(box)])
        while len(members) < 100:
            members.append([iv.lo + Fraction(
                rng.randint(0, int(iv.width * fmt.scale) or 0), fmt.scale)
                for iv in box])
        for member in members[:100]:
            if root_oracle(Poly(member)) >= 1.0:
                violations += 1
    ok = violations == 0 and stable_families > 20
    report(7, ok,
           f"{stable_families} interval-Stable families out of 1000, "
           f"100 sampled members each, {violations} oracle violations")


def test_criterion_8_zoh_correctness():
    failures = []
    for t in (Fraction(1, 10), Fraction(1, 5), Fraction(1)):
        g = zoh_discretize(ContinuousTF([1], [1, 1], t))
        e = math.exp(-float(t))
        if abs(float(g.num.coeffs[0]) - (1 - e)) > 1e-9:
            failures.append(f"num at T={t}")
        if abs(float(g.den.coeffs[1]) + e) > 1e-9:
            failures.append(f"den at T={t}")
    rng = random.Random(SEED)
    t = Fraction(1, 10)
    for _ in range(100):
        degree = rng.randint(1, 3)
        poles = []
        while len(poles) < degree:
            if degree - len(poles) >= 2 and rng.random() < 0.5:
                re, im = -rng.uniform(0.1, 3), rng.uniform(0.1, 3)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(-rng.uniform(0.1, 3), 0))
        den = [Fraction(c).limit_denominator(10 ** 6)
               for c in np.real(np.poly(poles))]
        num = [Fraction(rng.uniform(-2, 2)).limit_denominator(10 ** 6)
               for _ in range(rng.randint(1, degree))]
        if all(c == 0 for c in num):
            num = [Fraction(1)]
        g = zoh_discretize(ContinuousTF(num, den, t))
        zp = sorted(np.roots([float(c) for c in g.den.coeffs]),
                    key=lambda z: (z.real, z.imag))
        ep = sorted(np.exp(np.array(poles) * float(t)),
                    key=lambda z: (z.real, z.imag))
        if any(abs(a - b) > 1e-7 for a, b in zip(ep, zp)):
            failures.append("pole map")
        dc_s = float(num[-1]) / float(den[-1])
        dc_z = float(g.num(Fraction(1))) / float(g.den(Fraction(1)))
        if not math.isclose(dc_z, dc_s, rel_tol=1e-7, abs_tol=1e-7):
            failures.append("dc gain")
    ok = not failures
    report(8, ok,
           "closed-form match within 1e-9 at T in {0.1, 0.2, 1.0}; DC gain "
           f"and pole map hold on 100 random stable plants ({failures!r})")


def test_criterion_9_deterministic_reports():
    def run_once():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["synth", "benchmarks/cruise.bench", "--seed",
                             str(SEED), "--report", "json", "--no-timing"])
        assert code == 0
        return buf.getvalue()

    first, second = run_once(), run_once()
    ok = first == second
    detail = "two same-seed synthesis reports are byte-identical"
    if ok:
        ctl = json.loads(first)["controller"]
        detail += (f" (controller num_raw={ctl['num_raw']}, "
                   f"den_raw={ctl['den_raw']})")
    report(9, ok, detail)
