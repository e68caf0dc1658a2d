#!/usr/bin/env python3
"""Cross-check the table-based stability test against a root-finding oracle
on random polynomials, and report the disagreement margin histogram near the
unit circle (where the exact test and the float oracle legitimately split).
Then cross-check the segment test (the edge step of the box verdict) against
a root sweep of each segment, on random segments between stable ends.
Then cross-check the box verdict's "lead" label (the leading coefficient
of the closed-loop polynomial vanishes over the box) on random families
whose denominator lead ranges through zero: each such box must hold a
member that exact Jury and the root oracle both find unstable.
Then cross-check the exact-crossing frequency margins on random loops
against the 50-digit mpmath crossings of the test suite.
Last, cross-check the zero-exclusion sweep of the box verdict on random
families, on the grid box and on the inflated box: with the sweep
refusing, the vertices, the lead and the edges must give each box the
same verdict and evidence, and no box the sweep proves (with no vertex
read) may have a sampled member with a root on or outside the unit circle
(the root oracle).
"""

import argparse
import cmath
import math
import pathlib
import random
import sys
from fractions import Fraction

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from dcsynth import (Controller, FixedPointFormat, PlantFamily, Poly,
                     TransferFunction, char_poly, family_grid_box,
                     family_to_interval_poly, jury_stable, quantize_poly,
                     root_oracle, verify_precision)
import dcsynth.cegis as cegis
from dcsynth.cegis import _box_verdict
from dcsynth.stability import has_root, segment_chain, zero_excluded
from dcsynth.simulate import frequency_margins
from dcsynth.transfer import closed_loop_coeffs
from test_simulate import mpmath_margins, seeded_loops
from test_stability import random_stable_poly as stable_den

SEGMENTS = 2000
SWEEP_POINTS = 4001
LEAD_FAMILIES = 1000
MARGIN_LOOPS = 500
SWEEP_FAMILIES = 500
SWEEP_MEMBERS = 100


def random_poly(rng, max_degree):
    degree = rng.randint(1, max_degree)
    coeffs = [Fraction(rng.randint(-2000, 2000), 1000)
              for _ in range(degree + 1)]
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return Poly(coeffs)


def random_stable_poly(rng, degree):
    """Roots of modulus 0.6-0.99, coefficients on the 1/1024 grid (which
    may move a root across the unit circle), scaled by a positive factor."""
    roots = []
    while len(roots) < degree:
        r = rng.uniform(0.6, 0.99)
        if degree - len(roots) >= 2 and rng.random() < 0.7:
            w = cmath.exp(1j * rng.uniform(0, math.pi))
            roots += [r * w, r * w.conjugate()]
        else:
            roots.append(r * rng.choice((-1, 1)))
    coeffs = [1]
    for root in roots:
        coeffs = [x - root * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    k = Fraction(rng.randint(512, 2048), 1024)
    return [k * Fraction(round(x.real * 1024), 1024) for x in coeffs]


def sweep_max_modulus(p0, p1, ts):
    """Largest root modulus over the segment members at `ts` (the root
    oracle's companion-matrix eigenvalues, batched)."""
    f0, f1 = (np.array([float(c) for c in p]) for p in (p0, p1))
    members = (1 - ts)[:, None] * f0 + ts[:, None] * f1
    n = len(f0) - 1
    companion = np.zeros((len(ts), n, n))
    companion[:, 1:, :-1] = np.eye(n - 1)
    companion[:, 0, :] = -members[:, 1:] / members[:, :1]
    return float(np.abs(np.linalg.eigvals(companion)).max())


def segment_agreement(rng, exclusion):
    """Segments of degree 2-6 between exactly Jury-stable ends: the segment
    test's verdict against a SWEEP_POINTS-point root sweep."""
    ts = np.linspace(0, 1, SWEEP_POINTS)
    checked = unstable = skipped = disagreements = 0
    while checked + skipped < SEGMENTS:
        degree = rng.randint(2, 6)
        p0, p1 = random_stable_poly(rng, degree), random_stable_poly(rng, degree)
        if not all(jury_stable(Poly(p)).is_stable for p in (p0, p1)):
            continue
        exact_unstable = has_root(segment_chain(p0, p1), 0, 1)
        rho = sweep_max_modulus(p0, p1, ts)
        if abs(rho - 1.0) < exclusion:
            skipped += 1
            continue
        checked += 1
        unstable += exact_unstable
        if exact_unstable != (rho > 1.0):
            disagreements += 1
            print(f"segment disagreement: rho={rho!r} "
                  f"exact={'unstable' if exact_unstable else 'stable'}")
            print(f"  ends: {[str(c) for c in p0]} {[str(c) for c in p1]}")
    print(f"segments: checked {checked} ({unstable} unstable), skipped "
          f"{skipped} near-unit-circle, {disagreements} disagreements")
    return disagreements


def lead_family(rng):
    """A random family whose denominator lead ranges over an interval
    through zero (at an end for about half of them), with a small random
    controller, so that most vertices are stable."""
    def coeff(k):
        return Fraction(rng.randint(-k, k), 1000)

    def radius():
        return Fraction(rng.randint(1, 50), 1000) if rng.random() < 0.3 else 0

    order = rng.randint(1, 3)
    den = [1] + [coeff(300) for _ in range(order)]
    num = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 500), 1000)
           for _ in range(rng.randint(1, order + 1))]
    lead = Fraction(rng.choice((1000, rng.randint(1100, 2500))), 1000)
    fam = PlantFamily(TransferFunction(num, den),
                      delta_num=[radius() for _ in num],
                      delta_den=[lead] + [radius() for _ in range(order)],
                      plant_format=FixedPointFormat(8, 12))
    m = rng.randint(0, 2)
    fmt = FixedPointFormat(4, 16)
    return fam, Controller(
        quantize_poly([coeff(200) for _ in range(m + 1)], fmt),
        quantize_poly([1] + [coeff(200) for _ in range(m)], fmt))


def unstable_beside_lead_zero(c, lo, hi):
    """Whether an edge member beside the zero of the lead of S, at a step
    of 1/4000 or, where the rest of S is small there, a finer one, is
    unstable by exact Jury and by the root oracle."""
    cn, cd = [v.value for v in c.num], [v.value for v in c.den]
    ends = [closed_loop_coeffs(cn, num, cd, den, Fraction(0))
            for num, den in (lo, hi)]
    top = min(next(i for i, x in enumerate(p) if x) for p in ends)
    a, b = (p[top] for p in ends)
    t = a / (a - b)
    for n in (4000 * 16 ** j for j in range(8)):
        for k in (math.ceil(t * n) - 1, math.floor(t * n) + 1):
            if 0 <= k <= n:
                plant = TransferFunction(*([x + (y - x) * Fraction(k, n)
                                            for x, y in zip(u, v)]
                                           for u, v in zip(lo, hi)))
                s = char_poly(c, plant)
                if not jury_stable(s).is_stable and root_oracle(s) > 1:
                    return True
    return False


def lead_agreement(rng):
    """LEAD_FAMILIES random lead families: how many get the "lead" verdict,
    and how many of those show no unstable member beside the lead's zero
    on any failing edge."""
    leads = missing = 0
    for _ in range(LEAD_FAMILIES):
        fam, c = lead_family(rng)
        if verify_precision(c, fam).violated != "lead":
            continue
        leads += 1
        _, edges = _box_verdict(c, *family_to_interval_poly(fam), None)
        if not any(unstable_beside_lead_zero(c, lo, hi)
                   for lo, hi, _ in edges):
            missing += 1
            print(f"lead verdict without an unstable member: {fam} {c}")
    print(f"lead families: {LEAD_FAMILIES} drawn, {leads} lead verdicts, "
          f"{missing} without an unstable member")
    return missing


def margin_agreement(rng):
    """MARGIN_LOOPS random loops (`seeded_loops`): both margins of
    `frequency_margins` against `mpmath_margins`, infinite together and
    otherwise within a relative 1e-9."""
    disagreements = finite = 0
    for controller, plant in seeded_loops(rng, MARGIN_LOOPS):
        got = frequency_margins(controller, plant, 1)
        expected = mpmath_margins(controller, plant)
        for x, y in zip(got, expected):
            finite += math.isfinite(y)
            if not (x == y or abs(x - y) <= 1e-9 * abs(y)):
                disagreements += 1
                print(f"margin disagreement: {x!r} against {y!r} for "
                      f"{controller} {plant}")
    print(f"margins: {MARGIN_LOOPS} loops, {finite} finite margins, "
          f"{disagreements} disagreements")
    return disagreements


def sweep_family(rng, orders, uncertain):
    """A random plant family of an order in the range `orders` (nominal
    denominator roots of modulus 0.3-0.99, rounded to 1/1000) with a number
    of uncertain coefficients in the range `uncertain`, each of radius up
    to 0.03, the denominator lead kept exact, and a constant-gain
    controller."""
    order = rng.randint(*orders)
    den = stable_den(rng, order, 0.3)
    num = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 500), 1000)
           for _ in range(rng.randint(1, order))]
    nn = len(num)
    free = [i for i in range(nn + order + 1) if i != nn]
    chosen = rng.sample(free, min(rng.randint(*uncertain), len(free)))
    radii = [Fraction(rng.randint(1, 300), 10000) if i in chosen else 0
             for i in range(nn + order + 1)]
    fmt = FixedPointFormat(4, 16)
    return (PlantFamily(TransferFunction(num, den), delta_num=radii[:nn],
                        delta_den=radii[nn:]),
            Controller(quantize_poly([Fraction(rng.randint(-300, 300), 1000)],
                                     fmt), quantize_poly([1], fmt)))


def sweep_and_edges(c, fam, box=family_to_interval_poly, grid=None):
    """What the zero-exclusion sweep says of the family's `box` (by default
    the inflated one; None if the box verdict does not reach the sweep),
    and the box verdict and evidence with the vertices, the lead and the
    edges deciding in its place."""
    said = []

    def refuse(centre, generators, deadline=None):
        said.append(zero_excluded(centre, generators, deadline))
        return False

    cegis.zero_excluded = refuse
    try:
        verdict = _box_verdict(c, *box(fam), None, grid)
    finally:
        cegis.zero_excluded = zero_excluded
    return (said or [None])[0], verdict


def unstable_members(rng, c, fam, count, box=family_to_interval_poly):
    """The members among `count` sampled from the family's `box` (by
    default the inflated one) that have a root on or outside the unit
    circle by the root oracle."""
    num_iv, den_iv = box(fam)
    boxes, nn = num_iv.coeffs + den_iv.coeffs, len(num_iv.coeffs)
    members = [[b.lo + b.width * Fraction(rng.randrange(1025), 1024)
                for b in boxes] for _ in range(count)]
    return [m for m in members if root_oracle(
        char_poly(c, TransferFunction(m[:nn], m[nn:]))) >= 1]


def sweep_agreement(rng):
    """SWEEP_FAMILIES random families, alternately `sweep_family` (order
    3-6, 2-9 uncertain coefficients) and the test suite's fuzz families
    (half of them around a box with one unstable edge between stable
    vertices), each on its grid box and its inflated box: the box verdict
    and evidence must be the same with the sweep refusing, and each box
    the sweep proves must have no unstable member among SWEEP_MEMBERS
    sampled ones."""
    from test_cegis import _fuzz_family  # test_cegis imports this script

    counts = {f"{name} boxes {kind}": 0 for name in ("grid", "inflated")
              for kind in ("shortcut-proved", "refused edge-Stable",
                           "refused edge-Unstable")}
    disagreements = 0
    for i in range(SWEEP_FAMILIES):
        fam, c = (sweep_family(rng, (3, 6), (2, 9)) if i % 2 else
                  _fuzz_family(rng, FixedPointFormat(8, 12), i % 4 == 0))
        for name, box, grid in (("grid", family_grid_box, fam.plant_format),
                                ("inflated", family_to_interval_poly, None)):
            short, evidence = _box_verdict(c, *box(fam), None, grid)
            proved, (full, expected) = sweep_and_edges(c, fam, box, grid)
            if proved is not None:
                counts[f"{name} boxes " + (
                    "shortcut-proved" if proved
                    else f"refused edge-{full.status.value}")] += 1
            bad = (unstable_members(rng, c, fam, SWEEP_MEMBERS, box)
                   if proved else [])
            if (short.status is not full.status or evidence != expected
                    or bool(proved) != (short.settled_by == "sweep") or bad):
                disagreements += 1
                print(f"{name}-box sweep disagreement: {short} against "
                      f"{full} with the sweep refusing, {len(bad)} unstable "
                      f"members: {fam} {c}")
    print(f"sweep: {SWEEP_FAMILIES} families, "
          + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f", {disagreements} disagreements")
    return disagreements


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--max-degree", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--exclusion", type=float, default=1e-4,
                    help="skip polynomials with max root modulus this "
                         "close to 1")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    checked = skipped = disagreements = 0
    for _ in range(args.trials):
        p = random_poly(rng, args.max_degree)
        rho = root_oracle(p)
        if abs(rho - 1.0) < args.exclusion:
            skipped += 1
            continue
        verdict = jury_stable(p)
        checked += 1
        if verdict.is_stable != (rho < 1.0):
            disagreements += 1
            print(f"disagreement: rho={rho!r} verdict={verdict}")
            print(f"  coeffs: {[str(c) for c in p.coeffs]}")
    print(f"checked {checked}, skipped {skipped} near-unit-circle, "
          f"{disagreements} disagreements")
    disagreements += segment_agreement(rng, args.exclusion)
    disagreements += lead_agreement(rng)
    disagreements += margin_agreement(rng)
    disagreements += sweep_agreement(rng)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
