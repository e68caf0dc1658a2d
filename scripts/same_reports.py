#!/usr/bin/env python3
"""Check that the working tree's reports are identical to those of a git
revision.

    python3 scripts/same_reports.py REV

Extracts REV's `src/` with `git archive` and, on that tree and on the
working tree's `src/`, runs:

- every `cli` row of the benchmark (`perfbench/run.py`'s WORKLOADS) with
  seeds 1-5, comparing exit code, report and any `--trace-out` CSV;
- in-process two-stage synthesis (`Limits(timeout_s=60)`, no timing) on
  cruise, cruise_gain_uncertain, cruise_uncertain and dc_motor_uncertain,
  seeds 0-5, and on fourth_order, seeds 1, 2, 4 and 8, comparing the
  reports (fourth_order is the one instance whose boxes reach the
  zero-exclusion sweep; none reaches the edge scan since the search
  starts at pole-placement controllers);
- in-process one-stage synthesis, the same way, on cruise,
  cruise_gain_uncertain, dc_motor, dc_motor_uncertain and
  double_integrator, seeds 0-5, and on cruise_uncertain, seeds 0-5, under
  `synth_budget=3000`, which ends each run `no-candidate`;
- `zoh_discretize` on 200 seeded continuous plants within Nyquist (degree
  1-5, poles of real part in [-5, 1], sample times 0.01-2, |p*T| <= pi),
  comparing the snapped coefficients;
- `placement_starts` on the nominal plant of every bundled and perfbench
  benchmark file, at its own controller orders and at orders (k, k) for
  k = 0-4, comparing the raw start points (a start the search tries and
  rejects never reaches a report);
- in-process `step_response` on seeded loops, six to each combination of
  controller order 0-2, format <4, F> for F in 8, 12, 16, 20, and the
  ADC/DAC step in 0, q, 3q (q = 2^-F), then two to each combination of
  order 0-2, format <4,40>, <1,48>, <20,40> or <48,8>, and step 0, q, 3q
  or 1/3000, with numerator gains up to half the format's range and
  denominator leads 1, 3/4 or -3/2, so that many overflow, before
  divergence or at it; 200 steps, stopping at divergence, each tree
  called through its own signature (a tree with `NoiseModel` gets
  worst-case noise of that step at both converters), comparing the e and
  u raws, the outputs y as strings and the length, or, for a loop that
  overflows before divergence, the `ArithmeticOverflow` step and
  message;
- the box verdict (`cegis._box_verdict`) on seeded random families, a
  third each around a box with one unstable edge between stable
  vertices, with a denominator lead through zero, and generic (order 1-4,
  1-4 uncertain coefficients), on the grid box with its <8,12> grid and
  on the inflated box, each with the zero-exclusion sweep and with it
  refusing, comparing the verdict and evidence; then the same on six
  seeded order-5 families with 11 or 12 uncertain coefficients, under a
  static gain, alternately with a denominator lead through zero (the
  verdict ends in the lead step, after every vertex) and with S(1) about
  -1/5 where the first numerator coefficient is high (it ends at an
  unstable vertex, most of them past the first half of the scan); none
  reaches the edge scan, whose cost grows as 2^k on both trees;
- interval Jury (`jury_stable_interval`) on 4000 seeded interval
  polynomials of degree 0-8 (`interval_polys`), comparing the status, the
  violated condition and the margin;
- the candidate search (`synthesize_candidate`, no placement starts) on
  cruise_uncertain's first two counterexamples at budgets 1, 50, 2000,
  9876 and 12000, seeds 1, 3, 14 and 801681276; on a plant whose unstable
  factor every closed loop shares at <4,12> orders (2, 2) and <6,12>
  orders (3, 3), budget 3000; and on seeded random order-1 and order-2
  input sets at budgets 4000, 2345 and 17, two or three plants each, or
  one on the third of them whose grids are small enough to sweep;
  comparing the raws found or the `NoCandidate` message;
- the cancellation screen (`cancellation_on_or_outside_unit_circle`) on
  3000 seeded loops whose open-loop numerator and denominator share a
  planted factor (`screen_loops`), comparing its value;
- the exact closed-loop verdict (`cegis.concrete_verdict`) on 3000 seeded
  controller-plant pairs (`verdict_pairs`), a tenth with the zero
  controller and a tenth with a zero denominator lead, comparing the
  status, the violated condition and the margin;
- the sign test (`cegis._sign_obstructed`) along 400 seeded
  counterexample sequences of two to six plants over one or two shared
  denominators (`sign_sequences`), called on each prefix in turn with one
  query dict per sequence where the tree's sign test takes one, comparing
  its answers.

Both trees read the working tree's benchmark files.  Prints every
differing line of each differing report and exits 1 on any difference,
else 0.
"""

import argparse
import difflib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI_SEEDS = range(1, 6)
BENCHES, FIXTURES = ROOT / "benchmarks", ROOT / "perfbench" / "fixtures"
# (engine, Limits fields past timeout_s=60, benchmark files, seeds) of the
# in-process synthesis runs
SYNTH_RUNS = (
    ("two", {}, (BENCHES / "cruise.bench",
                 BENCHES / "cruise_gain_uncertain.bench",
                 BENCHES / "cruise_uncertain.bench",
                 FIXTURES / "dc_motor_uncertain.bench"), range(0, 6)),
    ("two", {}, (FIXTURES / "fourth_order.bench",), (1, 2, 4, 8)),
    ("one", {}, (BENCHES / "cruise.bench",
                 BENCHES / "cruise_gain_uncertain.bench",
                 FIXTURES / "dc_motor.bench",
                 FIXTURES / "dc_motor_uncertain.bench",
                 FIXTURES / "double_integrator.bench"), range(0, 6)),
    ("one", {"synth_budget": 3000}, (BENCHES / "cruise_uncertain.bench",),
     range(0, 6)))
# Runs in a child process with one tree's src/ on its path: one JSON line
# of reports, keyed "engine bench seed".
SYNTH_CHILD = """
import json, sys
from dcsynth.cegis import Limits
from dcsynth.cli import parse_benchmark, run_synthesis
runs = json.loads(sys.argv[1])
print(json.dumps({f"{e} {b} {s}": run_synthesis(
                      parse_benchmark(b), e, s, Limits(timeout_s=60, **kw),
                      False)
                  for e, kw, benches, seeds in runs for b in benches
                  for s in seeds}, sort_keys=True))
"""
ZOH_PLANTS = 200
# Reads [[num, den, T], ...] as strings on stdin; prints each discretized
# plant's [num, den] as strings.
ZOH_CHILD = """
import json, sys
from fractions import Fraction
from dcsynth.discretize import ContinuousTF, zoh_discretize
out = []
for num, den, t in json.load(sys.stdin):
    g = zoh_discretize(ContinuousTF([Fraction(c) for c in num],
                                    [Fraction(c) for c in den], Fraction(t)))
    out.append([[str(c) for c in p.coeffs] for p in (g.num, g.den)])
print(json.dumps(out))
"""

STARTS_ORDERS = [(k, k) for k in range(5)]
STARTS_FILES = sorted([*(ROOT / "benchmarks").glob("*.bench"),
                       *(ROOT / "perfbench" / "fixtures").glob("*.bench")])
# Reads the orders as JSON in argv[1] and benchmark files in argv[2:]; prints
# one JSON line of starts, keyed "bench orders".
STARTS_CHILD = """
import json, sys
from dcsynth.benchmark import parse_benchmark
from dcsynth.cegis import placement_starts
out = {}
for b in sys.argv[2:]:
    spec = parse_benchmark(b)
    for orders in [spec.controller_orders, *json.loads(sys.argv[1])]:
        out[f"{b} {tuple(orders)}"] = placement_starts(
            spec.family.nominal, spec.controller_format, orders)
print(json.dumps(out))
"""

STEP_ROUNDS = 6
OVERFLOW_ROUNDS = 2
# Reads the rounds in argv[1] and the overflowing loops' rounds in argv[2];
# prints one JSON list, per loop, of [e raws, u raws, y strings, length] or
# ["overflow", step, message].
STEP_CHILD = """
import itertools, json, random, sys
from fractions import Fraction
import dcsynth.simulate as simulate
from dcsynth.errors import ArithmeticOverflow
from dcsynth.fixedpoint import FixedPointFormat, quantize_poly
from dcsynth.transfer import Controller, TransferFunction
rng = random.Random(0)

def coeffs(count, scale):
    return [Fraction(rng.randint(-scale, scale), 1000) for _ in range(count)]

def respond(ctl, plant, noise):
    if hasattr(simulate, "NoiseModel"):  # the noise-mode signature
        return simulate.step_response(
            ctl, plant, Fraction(1, 5), 200,
            simulate.NoiseModel.worst_case(noise, noise),
            stop_on_divergence=True)
    return simulate.step_response(ctl, plant, Fraction(1, 5), 200, noise)

def record(ctl, plant, noise):
    try:
        trace = respond(ctl, plant, noise)
    except ArithmeticOverflow as exc:
        return ["overflow", exc.step, str(exc)]
    return [[v.raw for v in trace.e], [v.raw for v in trace.u],
            [str(y) for y in trace.y], len(trace)]

out = []
for _, order, f, multiple in itertools.product(
        range(int(sys.argv[1])), range(3), (8, 12, 16, 20), (0, 1, 3)):
    fmt, q = FixedPointFormat(4, f), Fraction(1, 2 ** f)
    gd = [1] + coeffs(rng.randint(1, 3), 1500)
    plant = TransferFunction(coeffs(rng.randint(1, len(gd)), 500), gd)
    ctl = Controller(quantize_poly(coeffs(rng.randint(1, order + 1), 3000),
                                   fmt),
                     quantize_poly([1] + coeffs(order, 1000), fmt))
    out.append(record(ctl, plant, multiple * q))

# Numerator gains up to half the format's range and leads 1, 3/4, -3/2 on
# narrow signal grids (<24,40>, <16,48>) and a wide one (<48,8>): many
# overflow, before divergence or at it.
rng = random.Random(1)
for _, order, bits, k in itertools.product(
        range(int(sys.argv[2])), range(3), ((4, 40), (1, 48), (20, 40),
                                            (48, 8)), range(4)):
    fmt = FixedPointFormat(*bits)
    gd = [1] + coeffs(rng.randint(1, 3), 1500)
    plant = TransferFunction(coeffs(rng.randint(1, len(gd)), 500), gd)
    gain = 2 ** (fmt.integer_bits - 1)
    ctl = Controller(
        quantize_poly([c * gain for c in coeffs(rng.randint(1, order + 1),
                                                1999)], fmt),
        quantize_poly([rng.choice((1, Fraction(3, 4), Fraction(-3, 2)))]
                      + coeffs(order, 1000), fmt))
    out.append(record(ctl, plant, (0, fmt.step, 3 * fmt.step,
                                   Fraction(1, 3000))[k]))
print(json.dumps(out))
"""

BOX_FAMILIES = 300
BIG_BOX_FAMILIES = 6
# Reads the family counts in argv[1] and argv[2] (big boxes); prints one
# JSON list of [settled_by, verdict, evidence] reprs, four per family.
BOX_CHILD = """
import json, random, sys
from fractions import Fraction
import dcsynth.cegis as cegis
from dcsynth.fixedpoint import FixedPointFormat, quantize_poly
from dcsynth.intervals import family_grid_box, family_to_interval_poly
from dcsynth.transfer import Controller, PlantFamily, TransferFunction
rng = random.Random(0)
fmt, grid = FixedPointFormat(4, 16), FixedPointFormat(8, 12)

def coeffs(count, scale):
    return [Fraction(rng.randint(-scale, scale), 1000) for _ in range(count)]

def jitter(*xs):
    return [Fraction(x) + Fraction(rng.randint(-20, 20), 1000) for x in xs]

def family(k):
    if k % 3 == 0:  # one long edge leaving the stability region
        num = jitter("1/2", "-41/64", "1/4")
        den = [1] + jitter("-73/64", "31/32", "-13/64")
        radii = [0] * 7
        radii[4] = Fraction(rng.randint(300, 600), 1000)
        radii[rng.choice((0, 1, 2, 3, 5, 6))] = Fraction(rng.randint(0, 20),
                                                         1000)
        c = jitter("-11/64", "-1/2", "21/32"), [1] + jitter("-5/4", "9/16")
    elif k % 3 == 1:  # a denominator lead through zero
        order = rng.randint(1, 3)
        den = [1] + coeffs(order, 300)
        num = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 500), 1000)
               for _ in range(rng.randint(1, order + 1))]
        radii = [Fraction(rng.randint(1, 50), 1000) if rng.random() < 0.3
                 else 0 for _ in range(len(num) + order + 1)]
        radii[len(num)] = Fraction(rng.choice((1000, rng.randint(1100, 2500))),
                                   1000)
        m = rng.randint(0, 2)
        c = coeffs(m + 1, 200), [1] + coeffs(m, 200)
    else:  # real denominator roots in [-1, 1]
        order = rng.randint(1, 4)
        den, num = [1], coeffs(rng.randint(1, order + 1), 500)
        for _ in range(order):
            root = rng.uniform(-1, 1)
            den = [a - root * b for a, b in zip(den + [0], [0] + den)]
        den = [Fraction(round(x * 1000), 1000) for x in den]
        radii = [0] * (len(num) + order + 1)
        for i in rng.sample(range(len(radii)),
                            rng.randint(1, min(4, len(radii)))):
            radii[i] = Fraction(rng.randint(1, 1500 if i == len(num) else 150),
                                1000)
        m = rng.randint(0, 2)
        c = coeffs(m + 1, 300), [1] + coeffs(m, 300)
    nn = len(num)
    return (PlantFamily(TransferFunction(num, den), radii[:nn], radii[nn:],
                        grid),
            Controller(quantize_poly(c[0], fmt), quantize_poly(c[1], fmt)))

big = random.Random(1)

def big_family(k):
    den, num = [1], [Fraction(big.randint(-500, 500), 1000)
                     for _ in range(big.randint(5, 6))]
    for _ in range(5):
        root = Fraction(big.randint(-700, 700), 1000)
        den = [a - root * b for a, b in zip(den + [0], [0] + den)]
    radii = [Fraction(big.randint(2, 20), 1000) for _ in range(len(num) + 6)]
    c0 = Fraction(-big.randint(50, 300), 1000)
    if k % 2:  # a denominator lead through zero
        radii[len(num)] = 2
    else:  # S(1) = c0·N(1) + D(1) about -1/5 where num[0] is high
        radii[0] = abs((c0 * sum(num) + sum(den) + Fraction(1, 5)) / c0)
    nn = len(num)
    return (PlantFamily(TransferFunction(num, den), radii[:nn], radii[nn:],
                        grid),
            Controller(quantize_poly([c0], fmt), quantize_poly([1], fmt)))

sweep, out = cegis.zero_excluded, []
families = [family(k) for k in range(int(sys.argv[1]))]
families += [big_family(k) for k in range(int(sys.argv[2]))]
for fam, c in families:
    for box, g in ((family_grid_box, grid), (family_to_interval_poly, None)):
        for refuse in (False, True):
            cegis.zero_excluded = (lambda *args: False) if refuse else sweep
            verdict, evidence = cegis._box_verdict(c, *box(fam), None, g)
            out.append([verdict.settled_by, repr(verdict), repr(evidence)])
    cegis.zero_excluded = sweep
print(json.dumps(out))
"""

INTERVAL_POLYS = 4000
# Reads [[[lo, hi], ...], ...] as strings on stdin; prints one JSON list of
# [status, violated condition, margin as hexadecimal p/q] per interval
# polynomial.
JURY_CHILD = """
import json, sys
from fractions import Fraction
from dcsynth.intervals import IntervalPoly, RationalInterval
from dcsynth.stability import jury_stable_interval
out = []
for ends in json.load(sys.stdin):
    v = jury_stable_interval(IntervalPoly(
        [RationalInterval(Fraction(lo), Fraction(hi)) for lo, hi in ends]))
    m = v.margin  # in hexadecimal: a decimal string may exceed Python's limit
    out.append([v.status.value, v.violated,
                f"{m.numerator:x}/{m.denominator:x}"])
print(json.dumps(out))
"""

SEARCH_SETS = 18
SEARCH_BUDGETS = (4000, 2345, 17)
# Sweepable (format bits, orders): at most 50625 grid points.
SWEEPABLE = (((1, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (0, 1)),
             ((2, 1), (1, 1)))
# Reads [[plants, format bits, orders, seed, budget], ...] on stdin, each
# plant [num, den] as strings; prints one JSON list of the raws found or
# the NoCandidate message.
SEARCH_CHILD = """
import json, sys
from fractions import Fraction
from dcsynth.cegis import synthesize_candidate
from dcsynth.errors import NoCandidate
from dcsynth.fixedpoint import FixedPointFormat
from dcsynth.transfer import TransferFunction
out = []
for plants, bits, orders, seed, budget in json.load(sys.stdin):
    inputs = [TransferFunction(*([Fraction(c) for c in p] for p in plant))
              for plant in plants]
    try:
        c = synthesize_candidate(inputs, FixedPointFormat(*bits), orders,
                                 seed, budget)
        out.append([v.raw for v in c.num + c.den])
    except NoCandidate as exc:
        out.append(str(exc))
print(json.dumps(out))
"""

SCREEN_LOOPS = 3000
# Reads [[Cn, Cd, Gn, Gd], ...] as strings on stdin, the controller on the
# <4,8> grid; prints one JSON list of the cancellation screen's values.
SCREEN_CHILD = """
import json, sys
from fractions import Fraction
from dcsynth import (Controller, FixedPointFormat, TransferFunction,
                     cancellation_on_or_outside_unit_circle, quantize_poly)
fmt, out = FixedPointFormat(4, 8), []
for cn, cd, gn, gd in json.load(sys.stdin):
    c = Controller(*(quantize_poly([Fraction(x) for x in p], fmt)
                     for p in (cn, cd)))
    g = TransferFunction([Fraction(x) for x in gn], [Fraction(x) for x in gd])
    out.append(cancellation_on_or_outside_unit_circle(c, g))
print(json.dumps(out))
"""

VERDICT_PAIRS = 3000
# Reads [[Cn raws, Cd raws, format bits, Gn, Gd], ...], the plant as
# strings, on stdin; prints one JSON list of [status, violated condition,
# margin as hexadecimal p/q] per pair.
VERDICT_CHILD = """
import json, sys
from fractions import Fraction
from dcsynth.cegis import concrete_verdict
from dcsynth.fixedpoint import FixedPointFormat, FixedPointValue
from dcsynth.transfer import Controller, TransferFunction
out = []
for cn, cd, bits, gn, gd in json.load(sys.stdin):
    fmt = FixedPointFormat(*bits)
    c = Controller(*([FixedPointValue(r, fmt) for r in p] for p in (cn, cd)))
    v = concrete_verdict(c, TransferFunction(
        *([Fraction(x) for x in p] for p in (gn, gd))))
    m = v.margin
    out.append([v.status.value, v.violated,
                f"{m.numerator:x}/{m.denominator:x}"])
print(json.dumps(out))
"""

SIGN_SEQUENCES = 400
# Reads [[[num, den], ...], ...] as strings on stdin; prints one JSON list,
# per sequence, of the sign test's answer on each prefix.
SIGN_CHILD = """
import inspect, json, sys
from fractions import Fraction
from dcsynth.cegis import _sign_obstructed
from dcsynth.transfer import TransferFunction
takes_queries = len(inspect.signature(_sign_obstructed).parameters) > 1
out = []
for sequence in json.load(sys.stdin):
    plants = [TransferFunction(*([Fraction(x) for x in p] for p in plant))
              for plant in sequence]
    queries = {}
    out.append([_sign_obstructed(plants[:k], *[queries] * takes_queries)
                for k in range(1, len(plants) + 1)])
print(json.dumps(out))
"""


def mul(a, b):
    """Coefficients of the product of two descending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def verdict_pairs(count):
    """`count` seeded [Cn raws, Cd raws, format bits, Gn, Gd]: controllers
    of order 0-3 on <4,8>, <6,12> or <8,16>, plants of order 1-4 with
    coefficients over 1000, 2^12 or 21.  Every other pair has a monic
    controller denominator, raws below an eighth of the limit and plant
    poles in (-0.9, 0.9), so that many of them are stable; of the rest, a
    fifth have the zero controller and a fifth a zero denominator lead."""
    rng = random.Random(0)
    pairs = []
    for k in range(count):
        bits = rng.choice(((4, 8), (6, 12), (8, 16)))
        limit, order = 1 << (bits[0] + bits[1] - 1), rng.randint(0, 3)
        small = limit // 8 if k % 2 else limit
        cn, cd = ([rng.randrange(-small + 1, small) for _ in range(n)]
                  for n in (rng.randint(1, order + 1), order + 1))
        q = rng.choice((1000, 1 << 12, 21))
        plant_order = rng.randint(1, 4)
        gd = [1] + [rng.randint(-2 * q, 2 * q) for _ in range(plant_order)]
        if k % 2:
            cd[0], gd = 1 << bits[1], [q]
            for _ in range(plant_order):
                gd = mul(gd, [q, -round(rng.uniform(-0.9, 0.9) * q)])
            gd = [Fraction(x, q ** plant_order) for x in gd]
        elif k % 10 == 0:
            cn, cd = [0] * len(cn), [0] * len(cd)
        elif k % 10 == 2:
            cd[0] = 0
        gn = [rng.randint(-q, q) for _ in range(rng.randint(1, plant_order))]
        pairs.append([cn, cd, bits, *([str(Fraction(x, q)) for x in p]
                                      for p in (gn, gd))])
    return pairs


def sign_sequences(count):
    """`count` seeded counterexample sequences, each of two to six plants
    N/D with deg N < deg D but one in eight, over one or two denominators:
    products of real factors z - r for r in quarters or tenths of [-2, 2]
    (±1 among them) and of quadratics z^2 + b z + c, as strings."""
    rng = random.Random(0)

    def denominator():
        den = [Fraction(1)]
        for _ in range(rng.randint(1, 4)):
            den = mul(den, [1, -Fraction(rng.randint(-8, 8), 4)]
                      if rng.random() < 0.5 else
                      [1, -Fraction(rng.randint(-20, 20), 10)]
                      if rng.random() < 0.5 else
                      [1, Fraction(rng.randint(-30, 30), 10),
                       Fraction(rng.randint(-20, 20), 10)])
        return den

    sequences = []
    for _ in range(count):
        dens = [denominator() for _ in range(rng.randint(1, 2))]
        sequence = []
        for _ in range(rng.randint(2, 6)):
            den = rng.choice(dens)
            degree = (len(den) - 1 if rng.random() < 0.125
                      else rng.randint(0, len(den) - 2))
            num = [Fraction(rng.randint(-1000, 1000), 1000) or Fraction(1)
                   for _ in range(degree + 1)]
            sequence.append([[str(x) for x in p] for p in (num, den)])
        sequences.append(sequence)
    return sequences


def search_cases():
    """The searches to compare, as SEARCH_CHILD reads them."""
    den = ["1", "-6290617/4194304"]
    cex = [[["-7945689/16777216"], den], [["4415763/8388608"], den]]
    cases = [[cex, (4, 16), (2, 2), seed, budget]
             for budget in (1, 50, 2000, 9876, 12000)
             for seed in (1, 3, 14, 801681276)]
    # N/D with D = N·(z - 1/2): N's roots, of modulus about 1.17, are roots
    # of every closed loop.
    shared = [[["1", "-9/4", "11/8"], ["1", "-11/4", "5/2", "-11/16"]]]
    cases += [[shared, bits, orders, 1, 3000]
              for bits, orders in (((4, 12), (2, 2)), ((6, 12), (3, 3)))]
    rng = random.Random(0)
    for k in range(SEARCH_SETS):
        # One plant on a sweepable grid, where more are rarely stabilized.
        order, sweep = rng.randint(1, 2), k % 3 == 0
        plants = [[[str(Fraction(rng.randint(-1000, 1000), 1000))
                    for _ in range(rng.randint(1, order + 1))],
                   ["1"] + [str(Fraction(rng.randint(-2500, 2500), 1000))
                            for _ in range(order)]]
                  for _ in range(1 if sweep else rng.randint(2, 3))]
        bits, orders = (rng.choice(SWEEPABLE) if sweep else
                        ((rng.choice((3, 4)), rng.choice((8, 10))),
                         (rng.randint(0, 2), rng.randint(0, 2))))
        cases += [[plants, bits, orders, 14, budget]
                  for budget in SEARCH_BUDGETS]
    return cases


def interval_polys(count):
    """`count` seeded interval polynomials of degree 0-8, as [lo, hi]
    strings: around random coefficients or a product of real roots in
    (-0.95, 0.95), each coefficient a point or of radius up to 0.1; a fifth
    with a lead through zero, a third negated."""
    rng = random.Random(0)
    polys = []
    for k in range(count):
        degree = rng.randint(0, 8)
        if k % 2:
            centre = [Fraction(rng.randint(-2000, 2000), 1000) or Fraction(1)
                      for _ in range(degree + 1)]
        else:
            centre = [Fraction(1)]
            for _ in range(degree):
                root = Fraction(rng.randint(-950, 950), 1000)
                centre = [a - root * b
                          for a, b in zip(centre + [0], [0] + centre)]
        ends = []
        for c in centre:
            r = (0 if rng.random() < 0.3 else
                 Fraction(rng.randint(1, 10 ** rng.randint(1, 3)), 10 ** 4))
            ends.append((c - r, c + r))
        if k % 5 == 0:
            ends[0] = (Fraction(rng.randint(-5, 0), 10),
                       Fraction(rng.randint(0, 5), 10))
        if k % 3 == 0:
            ends = [(-hi, -lo) for lo, hi in ends]
        polys.append([[str(lo), str(hi)] for lo, hi in ends])
    return polys


def screen_loops(count):
    """`count` seeded loops [Cn, Cd, Gn, Gd], coefficient lists with the
    controller's on the <4,8> grid, each with a factor F^m planted in one
    of Cn and Gn and F^m' in one of Cd and Gd (m, m' = 1 or 2): F has a
    real root or a complex pair, inside, on or outside the unit circle.
    Every other root is a real multiple of 1/4 in [-2, 2], not F's root,
    and no polynomial repeats one."""
    rng = random.Random(0)
    quarters = [Fraction(k, 4) for k in range(-8, 9)]
    squares = ((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
               (Fraction(1),), (Fraction(5, 4), Fraction(3, 2), 2, 3))
    loops = []
    while len(loops) < count:
        region = rng.randrange(3)  # inside, on, outside
        if rng.random() < 0.5:
            root = rng.choice([x for x in quarters
                               if (abs(x) > 1) - (abs(x) < 1) == region - 1])
            f = [1, -root]
        else:  # z^2 + b z + c, b^2 < 4c: roots of modulus sqrt(c)
            root, c = None, rng.choice(squares[region])
            f = [1, rng.choice([b for b in quarters if b * b < 4 * c]), c]
        loop = []
        for k in range(4):
            gains = ((1, -1, Fraction(1, 2), 2) if k < 2
                     else [x for x in quarters if x])
            p = [rng.choice(gains)]
            for x in rng.sample([x for x in quarters if x != root],
                                rng.randint(0, 1 if k < 2 else 2)):
                p = mul(p, [1, -x])
            loop.append(p)
        for k in (rng.choice((0, 2)), rng.choice((1, 3))):
            for _ in range(rng.randint(1, 2)):
                loop[k] = mul(loop[k], f)
        if all(abs(x) < 16 for x in loop[0] + loop[1]):
            loops.append([[str(Fraction(x)) for x in p] for p in loop])
    return loops


def cli_rows():
    os.chdir(ROOT)  # perfbench/run.py resolves benchmark paths from here
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS
    return WORKLOADS["cli"].rows


def extract(rev, dest, *paths):
    """Writes REV's files, only those under `paths` if any are given, to
    dest (`git archive`)."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, *paths],
                         cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run(src, argv, stdin=None):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, input=stdin,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=600)


def cli_outputs(src, rows, csv):
    """(row name, seed) -> (exit code, stdout, CSV text or None)."""
    out = {}
    for row in rows:
        for seed in CLI_SEEDS:
            argv = ["-m", "dcsynth", *row.argv, "--seed", str(seed)]
            if row.trace_out:
                argv += ["--trace-out", str(csv)]
            proc = run(src, argv)
            text = csv.read_text() if row.trace_out and csv.exists() else None
            csv.unlink(missing_ok=True)
            out[row.name, seed] = (proc.returncode, proc.stdout, text)
    return out


def synth_reports(src):
    args = json.dumps([[engine, kw, [str(b) for b in benches], list(seeds)]
                       for engine, kw, benches, seeds in SYNTH_RUNS])
    proc = run(src, ["-c", SYNTH_CHILD, args])
    if proc.returncode != 0:
        sys.exit(f"synthesis child failed on {src}:\n{proc.stderr[-2000:]}")
    return {k: json.dumps(v, indent=1, sort_keys=True)
            for k, v in json.loads(proc.stdout).items()}


def zoh_plants():
    """ZOH_PLANTS seeded proper continuous plants with |p*T| <= pi for
    every pole p, as [num, den, T] strings."""
    rng = random.Random(0)
    plants = []
    while len(plants) < ZOH_PLANTS:
        degree = rng.randint(1, 5)
        poles = []
        while len(poles) < degree:
            re = rng.uniform(-5, 1)
            if degree - len(poles) >= 2 and rng.random() < 0.5:
                im = rng.uniform(0.1, 5)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(re))
        t = Fraction(rng.randint(1, 200), 100)
        if max(map(abs, poles)) * t > math.pi:
            continue
        den = [1]
        for p in poles:
            den = [a - p * b for a, b in zip(den + [0], [0] + den)]
        num = [rng.uniform(-2, 2) for _ in range(rng.randint(1, degree + 1))]
        plants.append([[str(Fraction(c).limit_denominator(10 ** 6))
                        for c in num],
                       [str(Fraction(c.real).limit_denominator(10 ** 6))
                        for c in den], str(t)])
    return plants


def zoh_coefficients(src, plants):
    proc = run(src, ["-c", ZOH_CHILD], json.dumps(plants))
    if proc.returncode != 0:
        sys.exit(f"ZOH child failed on {src}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def starts(src):
    proc = run(src, ["-c", STARTS_CHILD, json.dumps(STARTS_ORDERS),
                     *map(str, STARTS_FILES)])
    if proc.returncode != 0:
        sys.exit(f"starts child failed on {src}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def step_responses(src):
    proc = run(src, ["-c", STEP_CHILD, str(STEP_ROUNDS),
                     str(OVERFLOW_ROUNDS)])
    if proc.returncode != 0:
        sys.exit(f"step-response child failed on {src}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def box_verdicts(src):
    proc = run(src, ["-c", BOX_CHILD, str(BOX_FAMILIES),
                     str(BIG_BOX_FAMILIES)])
    if proc.returncode != 0:
        sys.exit(f"box-verdict child failed on {src}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def interval_verdicts(src, polys):
    proc = run(src, ["-c", JURY_CHILD], json.dumps(polys))
    if proc.returncode != 0:
        sys.exit(f"interval-Jury child failed on {src}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def searches(src, cases):
    proc = run(src, ["-c", SEARCH_CHILD], json.dumps(cases))
    if proc.returncode != 0:
        sys.exit(f"search child failed on {src}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def screen_values(src, loops):
    proc = run(src, ["-c", SCREEN_CHILD], json.dumps(loops))
    if proc.returncode != 0:
        sys.exit(f"screen child failed on {src}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def concrete_verdicts(src, pairs):
    proc = run(src, ["-c", VERDICT_CHILD], json.dumps(pairs))
    if proc.returncode != 0:
        sys.exit(f"verdict child failed on {src}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def sign_answers(src, sequences):
    proc = run(src, ["-c", SIGN_CHILD], json.dumps(sequences))
    if proc.returncode != 0:
        sys.exit(f"sign-test child failed on {src}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def line_differences(a, b):
    """Every differing line of two texts, as indented unified-diff lines
    without context (REV's lines -, the working tree's +)."""
    diff = difflib.unified_diff((a or "").splitlines(),
                                (b or "").splitlines(), lineterm="", n=0)
    return "".join(f"\n    {line}" for line in list(diff)[2:])


def main():
    parser = argparse.ArgumentParser(
        description="Compare the working tree's reports with REV's.")
    parser.add_argument("rev", metavar="REV")
    rev = parser.parse_args().rev
    rows = cli_rows()
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(rev, tmp / "rev", "src")
        trees = {rev: tmp / "rev" / "src", "working tree": ROOT / "src"}
        cli = {name: cli_outputs(src, rows, tmp / "trace.csv")
               for name, src in trees.items()}
        synth = {name: synth_reports(src) for name, src in trees.items()}
        plants = zoh_plants()
        zoh = {name: zoh_coefficients(src, plants)
               for name, src in trees.items()}
        placed = {name: starts(src) for name, src in trees.items()}
        steps = {name: step_responses(src) for name, src in trees.items()}
        boxes = {name: box_verdicts(src) for name, src in trees.items()}
        ipolys = interval_polys(INTERVAL_POLYS)
        juries = {name: interval_verdicts(src, ipolys)
                  for name, src in trees.items()}
        cases = search_cases()
        found = {name: searches(src, cases) for name, src in trees.items()}
        loops = screen_loops(SCREEN_LOOPS)
        screened = {name: screen_values(src, loops)
                    for name, src in trees.items()}
        pairs = verdict_pairs(VERDICT_PAIRS)
        concrete = {name: concrete_verdicts(src, pairs)
                    for name, src in trees.items()}
        sequences = sign_sequences(SIGN_SEQUENCES)
        signs = {name: sign_answers(src, sequences)
                 for name, src in trees.items()}
    old, new = (cli[name] for name in trees)
    for key in old:
        for part, a, b in zip(("exit code", "report", "CSV"), old[key],
                              new[key]):
            if a != b:
                differences += 1
                detail = (f"{a} != {b}" if part == "exit code"
                          else line_differences(a, b))
                print(f"cli {key[0]} seed {key[1]}: {part} differs, {detail}")
    old, new = (synth[name] for name in trees)
    for key in old:
        if old[key] != new[key]:
            differences += 1
            print(f"synthesis {key}: report differs, "
                  f"{line_differences(old[key], new[key])}")
    old, new = (zoh[name] for name in trees)
    for plant, a, b in zip(plants, old, new):
        if a != b:
            differences += 1
            print(f"zoh {plant}: {a} != {b}")
    old, new = (placed[name] for name in trees)
    for key in old:
        if old[key] != new[key]:
            differences += 1
            print(f"placement starts {key}: {old[key]} != {new[key]}")
    old, new = (steps[name] for name in trees)
    for k, (a, b) in enumerate(zip(old, new)):
        if a != b:
            differences += 1
            print(f"step response loop {k}: {a} != {b}")
    overflowing = sum(r[0] == "overflow" for r in old)
    at_divergence = sum(r[0] != "overflow" and len(r[0]) < r[3] for r in old)
    old, new = (boxes[name] for name in trees)
    for k, (a, b) in enumerate(zip(old, new)):
        if a != b:
            differences += 1
            print(f"box verdict {k} (family {k // 4}): {a} != {b}")
    settled, verdicts = Counter(a[0] for a in old), len(old)
    old, new = (juries[name] for name in trees)
    for ends, a, b in zip(ipolys, old, new):
        if a != b:
            differences += 1
            print(f"interval Jury on {ends}: {a} != {b}")
    statuses = Counter(a[0] for a in old)
    old, new = (found[name] for name in trees)
    for case, a, b in zip(cases, old, new):
        if a != b:
            differences += 1
            print(f"search {case[1:]} on {case[0]}: {a} != {b}")
    accepted = sum(isinstance(a, list) for a in old)
    old, new = (screened[name] for name in trees)
    for loop, a, b in zip(loops, old, new):
        if a != b:
            differences += 1
            print(f"cancellation screen on {loop}: {a} != {b}")
    flagged = sum(old)
    old, new = (concrete[name] for name in trees)
    for pair, a, b in zip(pairs, old, new):
        if a != b:
            differences += 1
            print(f"concrete verdict on {pair}: {a} != {b}")
    stable = sum(a[0] == "Stable" for a in old)
    old, new = (signs[name] for name in trees)
    for sequence, a, b in zip(sequences, old, new):
        if a != b:
            differences += 1
            print(f"sign test along {sequence}: {a} != {b}")
    calls = sum(map(len, old))
    obstructions = sum(map(sum, old))
    print(f"{len(rows) * len(CLI_SEEDS)} cli calls, {len(synth[rev])} "
          f"synthesis runs, {len(plants)} ZOH plants, {len(placed[rev])} "
          f"placement start lists, {len(steps[rev])} step responses "
          f"({overflowing} overflowing, {at_divergence} overflowing at "
          f"divergence), {verdicts} box verdicts ("
          + ", ".join(f"{n} {k}" for k, n in sorted(settled.items()))
          + f"), {len(ipolys)} interval Jury verdicts ("
          + ", ".join(f"{n} {k}" for k, n in sorted(statuses.items()))
          + f"), {len(cases)} searches ({accepted} accepting), "
          f"{len(loops)} cancellation screens ({flagged} flagged), "
          f"{len(pairs)} concrete verdicts ({stable} Stable) and {calls} "
          f"sign tests along {len(sequences)} sequences ({obstructions} "
          f"obstructed) compared against {rev}: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
