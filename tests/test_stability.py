"""Stability table: exact verdicts, interval verdicts, and oracle agreement."""

import cmath
import math
import operator
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from dcsynth.cegis import _float_jury_margin
from dcsynth.errors import DeadlineExceeded, DegenerateCharPoly
from dcsynth.intervals import IntervalPoly, RationalInterval
from dcsynth.stability import (Status, bilinear, determinant, has_root,
                               jury_conditions, jury_stable,
                               jury_stable_interval, positive_roots,
                               root_bound, root_oracle, segment_chain,
                               segment_minor, sturm_chain, tarski_queries,
                               zero_excluded)
from dcsynth.transfer import Poly, poly_mul, poly_roots


def test_known_verdicts():
    assert jury_stable(Poly([1, Fraction(-1, 2)])).is_stable
    assert not jury_stable(Poly([1, -2])).is_stable
    # (z - 1/2)(z - 1/3): stable second order.
    assert jury_stable(Poly([1, Fraction(-5, 6), Fraction(1, 6)])).is_stable
    # Root exactly on the unit circle is not stable.
    assert not jury_stable(Poly([1, -1])).is_stable
    # Degree zero has no roots at all.
    assert jury_stable(Poly([3])).is_stable
    # R3 in the standard convention |aN| < |a0|: z^2 + 1/2 is stable.
    assert jury_stable(Poly([1, 0, Fraction(1, 2)])).is_stable


def test_negative_leading_coefficient_is_normalized():
    p = Poly([-2, 1])  # root at 1/2
    assert jury_stable(p).is_stable


def test_violated_labels():
    # S(1) <= 0.
    v = jury_stable(Poly([1, -3, 1]))
    assert not v.is_stable and v.violated == "R1"
    # |aN| >= |a0| with S(1) > 0 and alternating sum > 0.
    v = jury_stable(Poly([1, 0, Fraction(3, 2)]))
    assert not v.is_stable and v.violated == "R3"


def test_margin_sign_convention():
    stable = jury_stable(Poly([1, Fraction(-1, 2)]))
    assert stable.margin > 0
    unstable = jury_stable(Poly([1, -2]))
    assert unstable.margin <= 0


def test_zero_polynomial_raises():
    with pytest.raises(DegenerateCharPoly):
        jury_stable(Poly([0, 0]))


def test_table_rows_shrink_to_length_two():
    # N - 1 reductions: a degree-3 polynomial yields exactly two R4 values.
    c = list(Poly([1, 0, 0, Fraction(1, 8)]).coeffs)
    labels = [label for label, _ in jury_conditions(c, operator.not_)]
    assert labels == ["R1", "R2", "R3", "R4", "R4"]


def _random_poly(rng, max_degree=6):
    degree = rng.randint(1, max_degree)
    coeffs = [Fraction(rng.randint(-2000, 2000), 1000)
              for _ in range(degree + 1)]
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return Poly(coeffs)


def test_oracle_agreement_sample():
    """Smaller companion to the acceptance-scale agreement suite."""
    rng = random.Random(7)
    for _ in range(1500):
        p = _random_poly(rng)
        rho = root_oracle(p)
        if abs(rho - 1.0) < 1e-4:
            continue
        verdict = jury_stable(p)
        if verdict.status is Status.UNKNOWN:
            continue
        assert verdict.is_stable == (rho < 1.0), (p.coeffs, rho)


def test_interval_point_matches_exact():
    rng = random.Random(8)
    for max_degree in (4, 8):
        for _ in range(300):
            p = _random_poly(rng, max_degree=max_degree)
            exact = jury_stable(p)
            if exact.status is Status.UNKNOWN:
                continue
            interval = jury_stable_interval(IntervalPoly(p.coeffs))
            if interval.status is Status.UNKNOWN:
                # Interval mode may be conservative but never wrong.
                continue
            assert interval.status == exact.status


def _random_stable_poly(rng, degree):
    p = Poly([1])
    for _ in range(degree):
        p = poly_mul(p, Poly([1, Fraction(rng.randint(-950, 950), 1000)]))
    return p


def test_exact_verdict_is_the_fraction_recursion():
    # jury_stable reduces integer rows over a denominator; its status, label
    # and margin are those of jury_conditions on the Fraction coefficients.
    rng = random.Random(13)
    polys = [_random_poly(rng, max_degree=d) for d in (2, 6, 14)
             for _ in range(300)]
    polys += [Poly([Fraction(-3, 7) * c for c in
                    _random_stable_poly(rng, degree).coeffs])
              for degree in range(1, 15) for _ in range(20)]
    stable = 0
    for p in polys:
        c = list(p.coeffs)
        c = [-x for x in c] if c[0] < 0 else c
        want = None
        for label, value in jury_conditions(c, operator.not_):
            margin = value if want is None else min(want[2], value)
            want = (Status.UNSTABLE if value <= 0 else Status.STABLE,
                    label if value <= 0 else None, margin)
            if value <= 0:
                break
        got = jury_stable(p)
        assert (got.status, got.violated, got.margin) == want, p.coeffs
        stable += got.is_stable
    assert stable > 250


def test_float_guidance_tracks_exact_margin():
    """The search's float margin has the exact Jury margin's sign away from
    zero, and equals it on Stable polynomials up to float rounding."""
    rng = random.Random(11)
    polys = [_random_poly(rng, max_degree=8) for _ in range(2000)]
    # Random coefficients rarely give a Stable polynomial past degree 4.
    polys += [_random_stable_poly(rng, degree)
              for degree in range(1, 9) for _ in range(25)]
    stable = 0
    for p in polys:
        exact = jury_stable(p)
        guide = _float_jury_margin([float(c) for c in p.coeffs])
        if abs(exact.margin) > 1e-9:
            assert (guide > 0) == (exact.margin > 0), (p.coeffs, guide)
        if exact.is_stable:
            stable += 1
            assert guide == pytest.approx(float(exact.margin), rel=1e-9)
    assert stable > 400


def test_interval_stable_family():
    # (z - a) for a in [0.2, 0.4]: every member stable.
    s = IntervalPoly([RationalInterval(1, 1),
                      RationalInterval(Fraction(-2, 5), Fraction(-1, 5))])
    v = jury_stable_interval(s)
    assert v.status is Status.STABLE
    assert v.margin > 0


def test_interval_unstable_family():
    # (z - a) for a in [2, 3]: every member unstable (R1 < 0 throughout).
    s = IntervalPoly([RationalInterval(1, 1), RationalInterval(-3, -2)])
    assert jury_stable_interval(s).status is Status.UNSTABLE


def test_interval_unknown_cases():
    # Family straddles the unit circle.
    s = IntervalPoly([RationalInterval(1, 1),
                      RationalInterval(Fraction(-3, 2), Fraction(-1, 2))])
    assert jury_stable_interval(s).status is Status.UNKNOWN
    # Leading coefficient through zero.
    s2 = IntervalPoly([RationalInterval(-1, 1), RationalInterval(2, 2)])
    assert jury_stable_interval(s2).status is Status.UNKNOWN


def test_interval_jury_honours_deadline():
    # The deadline is checked before each table reduction, after R1-R3: a
    # degree-1 family, which has none, is decided past it.
    s = IntervalPoly([RationalInterval(1), RationalInterval(Fraction(-1, 5)),
                      RationalInterval(0, Fraction(1, 10)),
                      RationalInterval(Fraction(1, 10))])
    assert jury_stable_interval(s, time.perf_counter() + 60).is_stable
    with pytest.raises(DeadlineExceeded):
        jury_stable_interval(s, deadline=time.perf_counter() - 1)
    line = IntervalPoly([RationalInterval(1),
                         RationalInterval(Fraction(-1, 5))])
    assert jury_stable_interval(line, time.perf_counter() - 1).is_stable


def test_interval_jury_checks_the_deadline_inside_a_reduction(monkeypatch):
    # The clock ticks once a read.  It is read before each reduction and
    # after each element of it: reads 0-4 cover the first reduction (4
    # elements), read 5 opens the second, whose R4 value ends the run
    # Unstable, and read 6 follows that reduction's first element.  The
    # deadline passes there, so the call raises before that R4 value.
    s = IntervalPoly([RationalInterval(1), RationalInterval(0),
                      RationalInterval(0), RationalInterval(Fraction(-1, 2)),
                      RationalInterval(Fraction(9, 10))])
    v = jury_stable_interval(s)
    assert (v.status, v.violated) == (Status.UNSTABLE, "R4")
    ticks = iter(range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    with pytest.raises(DeadlineExceeded):
        jury_stable_interval(s, deadline=5.5)
    assert next(ticks) == 7


class _Ends:
    """An interval with Fraction ends, in the arithmetic `jury_conditions`
    uses: the reference for the interval Jury recursion."""

    def __init__(self, lo, hi=None):
        self.lo, self.hi = Fraction(lo), Fraction(lo if hi is None else hi)

    def __add__(self, other):
        return _Ends(self.lo + other.lo, self.hi + other.hi)

    def __radd__(self, other):  # sum() starts from the number 0
        return self + _Ends(other)

    def __neg__(self):
        return _Ends(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -other

    def __abs__(self):
        if self.lo <= 0 <= self.hi:
            return _Ends(0, max(-self.lo, self.hi))
        return -self if self.hi < 0 else self

    def __mul__(self, other):
        p = [x * y for x in (self.lo, self.hi) for y in (other.lo, other.hi)]
        return _Ends(min(p), max(p))

    def __truediv__(self, other):
        p = [x / y for x in (self.lo, self.hi) for y in (other.lo, other.hi)]
        return _Ends(min(p), max(p))


def _interval_jury_reference(ends):
    """(status, label, margin) of the interval Jury recursion on the
    Fraction (lo, hi) `ends`, by `jury_conditions` on `_Ends`."""
    c = [_Ends(lo, hi) for lo, hi in ends]
    if c[0].lo <= 0 <= c[0].hi:
        return Status.UNKNOWN, None, min(Fraction(0), c[0].lo)
    c = [-x for x in c] if c[0].hi < 0 else c
    if len(c) == 1:
        return Status.STABLE, None, c[0].lo
    margin = first_violated = None
    for label, iv in jury_conditions(c, lambda p: p.lo <= 0 <= p.hi):
        if iv is None:
            first_violated = first_violated or "R4"
            break
        margin = iv.lo if margin is None else min(margin, iv.lo)
        if iv.hi <= 0:
            return Status.UNSTABLE, label, margin
        if iv.lo <= 0 and first_violated is None:
            first_violated = label
    if first_violated is not None:
        return Status.UNKNOWN, first_violated, min(margin, Fraction(0))
    return Status.STABLE, None, margin


def test_interval_jury_is_the_fraction_recursion():
    # On integer pairs over one denominator, interval Jury gives the status,
    # label and margin of interval arithmetic on Fraction ends: 5000 seeded
    # families of degree 0-8, with negative leads, leads and pivots through
    # zero, and point coefficients.
    rng = random.Random(29)
    seen = set()
    for k in range(5000):
        degree = rng.randint(0, 8)
        centre = (_random_poly(rng, max_degree=8).coeffs[:degree + 1]
                  if k % 2 else _random_stable_poly(rng, degree).coeffs)
        ends = []
        for c in centre:
            r = (0 if rng.random() < 0.3 else
                 Fraction(rng.randint(1, 10 ** rng.randint(1, 3)), 10 ** 4))
            ends.append((c - r, c + r))
        if k % 5 == 0:  # a lead through zero
            ends[0] = (Fraction(rng.randint(-5, 0), 10),
                       Fraction(rng.randint(0, 5), 10))
        if k % 3 == 0:
            ends = [(-hi, -lo) for lo, hi in ends]
        want = _interval_jury_reference(ends)
        got = jury_stable_interval(IntervalPoly(
            [RationalInterval(lo, hi) for lo, hi in ends]))
        assert (got.status, got.violated, got.margin) == want, ends
        seen.add(want[:2])
    assert {(Status.STABLE, None), (Status.UNKNOWN, None),
            (Status.UNKNOWN, "R4"), (Status.UNSTABLE, "R4")} <= seen


def test_interval_soundness_sample():
    """Interval-Stable implies every sampled member is oracle-stable."""
    rng = random.Random(9)
    stable_families = 0
    for _ in range(400):
        p = _random_poly(rng, max_degree=3)
        delta = Fraction(rng.randint(0, 50), 1000)
        coeffs = [RationalInterval(c - delta, c + delta) for c in p.coeffs]
        v = jury_stable_interval(IntervalPoly(coeffs))
        if v.status is not Status.STABLE:
            continue
        stable_families += 1
        for _ in range(20):
            member = Poly([iv.lo + Fraction(rng.randint(0, 100), 100)
                           * iv.width for iv in coeffs])
            assert root_oracle(member) < 1.0
    assert stable_families > 5


def test_root_oracle():
    assert root_oracle(Poly([1, 0, Fraction(-1, 4)])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        root_oracle(Poly([1]))


def numpy_root_oracle(s):
    """The root oracle as it was: companion-matrix eigenvalues."""
    roots = np.roots([float(c) for c in s.normalize().coeffs])
    return float(max(abs(roots))) if len(roots) else 0.0


def test_root_oracle_matches_companion_eigenvalues():
    # 2100 seeded polynomials of degree 1-10 whose roots are simple with
    # probability one: random coefficients at mixed scales, and products
    # of random real roots and conjugate pairs.
    rng = random.Random(31)
    worst = 0.0
    for k in range(2100):
        degree = rng.randint(1, 10)
        if k % 3 == 2:
            coeffs = random_stable_poly(rng, degree, 0.05, 10 ** 12)
            coeffs = [c * rng.choice((1, 3, 10)) for c in coeffs]
        else:
            scale = 10.0 ** rng.randint(-3, 3) if k % 3 else 1.0
            coeffs = [Fraction(rng.uniform(-2, 2) * scale)
                      for _ in range(degree + 1)]
        p = Poly(coeffs)
        rho, expected = root_oracle(p), numpy_root_oracle(p)
        worst = max(worst, abs(rho - expected) / expected)
    assert worst <= 1e-9


def test_root_oracle_on_repeated_roots():
    # (z - r)^m: a backward-stable root finder moves an m-fold root by up
    # to 2|r|·eta^(1/m) for a relative coefficient error eta; eta = 8m·eps
    # covers the stopping rule's 4 eps and the rounding of m Horner steps.
    rng = random.Random(32)
    eps = 2.0 ** -52
    for m in range(1, 9):
        for _ in range(40):
            r = Fraction(rng.uniform(0.01, 3) * rng.choice((1, -1)))
            coeffs = [Fraction(1)]
            for _ in range(m):
                coeffs = [x - r * y for x, y in zip(coeffs + [0], [0] + coeffs)]
            bound = 2 * abs(float(r)) * (8 * m * eps) ** (1 / m)
            assert abs(root_oracle(Poly(coeffs)) - abs(float(r))) <= bound


def test_root_oracle_edge_cases():
    # Zero roots are split off exactly; degree 1 is solved directly;
    # leading zeros are not roots at infinity.
    assert root_oracle(Poly([1, 0, 0])) == 0.0
    assert root_oracle(Poly([2, -1, 0, 0])) == 0.5
    assert root_oracle(Poly([1, 0, Fraction(-1, 4), 0])) == pytest.approx(0.5)
    assert root_oracle(Poly([4, 3])) == 0.75
    assert root_oracle(Poly([0, 0, -2, 5])) == 2.5
    assert root_oracle(Poly([0, 1, 0, -4])) == pytest.approx(2.0)
    for p in (Poly([0, 3, 1, -7, 0]), Poly([Fraction(1, 3), 0, 0, 2])):
        assert root_oracle(p) == pytest.approx(numpy_root_oracle(p), rel=1e-12)
    assert poly_roots([0, 0, 1, -2, 0]) == [2, 0]


def random_stable_poly(rng, degree, min_modulus=0.5, scale=1000):
    """Seeded polynomial with roots of modulus in [min_modulus, 0.99],
    coefficients rounded to multiples of 1/scale (which may move a root
    across the unit circle: check the result)."""
    roots = []
    while len(roots) < degree:
        r = rng.uniform(min_modulus, 0.99)
        if degree - len(roots) >= 2 and rng.random() < 0.7:
            w = cmath.exp(1j * rng.uniform(0, math.pi))
            roots += [r * w, r * w.conjugate()]
        else:
            roots.append(r * rng.choice((-1, 1)))
    coeffs = [1]
    for root in roots:
        coeffs = [x - root * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    return [Fraction(round(x.real * scale), scale) for x in coeffs]


def sweep_max_modulus(p0, p1, ts):
    """Largest root modulus of (1-t)·p0 + t·p1 over the points `ts`:
    `numpy_root_oracle`'s companion-matrix eigenvalues, batched."""
    f0, f1 = (np.array([float(c) for c in p]) for p in (p0, p1))
    members = (1 - ts)[:, None] * f0 + ts[:, None] * f1
    n = len(f0) - 1
    companion = np.zeros((len(ts), n, n))
    companion[:, 1:, :-1] = np.eye(n - 1)
    companion[:, 0, :] = -members[:, 1:] / members[:, :1]
    return float(np.abs(np.linalg.eigvals(companion)).max())


def test_segment_test_matches_root_sweep():
    # 300 seeded segments of degree 2-6 between Schur-stable ends (leading
    # coefficients scaled by positive factors), against a 4001-point root
    # sweep.  A segment the exact test calls unstable needs one unstable
    # sweep point, so a coarse pass runs first.
    rng = random.Random(7)
    ts = np.linspace(0, 1, 4001)
    segments = unstable = 0
    while segments < 300:
        degree = rng.randint(2, 6)
        p0, p1 = ([k * c for c in random_stable_poly(rng, degree, 0.6, 1024)]
                  for k in (Fraction(rng.randint(512, 2048), 1024)
                            for _ in range(2)))
        if not all(jury_stable(Poly(p)).is_stable for p in (p0, p1)):
            continue
        segments += 1
        exact_unstable = has_root(segment_chain(p0, p1), 0, 1)
        unstable += exact_unstable
        rho = sweep_max_modulus(p0, p1, ts[::50])
        if rho < 1:
            rho = sweep_max_modulus(p0, p1, ts)
        assert abs(rho - 1) > 1e-9 and (rho > 1) == exact_unstable, (p0, p1)
    assert unstable >= 30
    # The batched sweep agrees with the root oracle.
    for t in (0, Fraction(1, 3), 1):
        member = [(1 - t) * a + t * b for a, b in zip(p0, p1)]
        assert sweep_max_modulus(p0, p1, np.array([float(t)])) == \
            pytest.approx(root_oracle(Poly(member)), rel=1e-9)


def test_segment_test_small_cases():
    half = Fraction(1, 2)
    # Monic degree-2 segments stay in the (convex) stability triangle.
    assert not has_root(segment_chain([1, half, Fraction(9, 10)],
                                      [1, -half, Fraction(9, 10)]), 0, 1)
    # Degree 1 and below never leave the disc between stable ends.
    assert not has_root(segment_chain([2, 1], [1, -half]), 0, 1)
    assert not has_root(segment_chain([3], [1]), 0, 1)
    # A Hurwitz minor that vanishes at an end is a root on [0, 1].
    assert has_root(segment_chain([1, 0, 1], [1, 0, 1]), 0, 1)


def fraction_det(m):
    """Determinant by Gaussian elimination over Fractions (reference)."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], det = m[pivot], m[k], -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            row[:] = [a - f * b for a, b in zip(row, m[k])]
    return det


def test_determinant_matches_a_fraction_reference():
    # Random integer matrices up to 7x7, about a third of them singular (a
    # row that combines two others, or a zero column), and the 0x0 case.
    rng = random.Random(17)
    assert determinant([]) == 1
    singular = 0
    for _ in range(600):
        n = rng.randint(1, 7)
        m = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        if n > 2 and rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            i = rng.choice([i for i in range(n) if i not in (a, b)])
            u, v = rng.randint(-3, 3), rng.randint(-3, 3)
            m[i] = [u * x + v * y for x, y in zip(m[a], m[b])]
        elif rng.random() < 0.15:
            col = rng.randrange(n)
            for row in m:
                row[col] = 0
        got = determinant(m)
        assert isinstance(got, int) and got == fraction_det(m), m
        singular += got == 0
    assert singular >= 100


def test_segment_minor_extrapolates_to_the_hurwitz_minor():
    # Δ is solved for from t = 0 .. n-1; at t = n and n+1 its value is still
    # the Hurwitz minor of the (scaled, bilinear) member there.
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 7)
        p0, p1 = ([Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                   for _ in range(n + 1)] for _ in range(2))
        delta = Poly(segment_minor(p0, p1))
        assert delta.degree < max(n, 1)
        scale = math.lcm(*(c.denominator for c in p0 + p1))
        for t in (n, n + 1):
            q = bilinear([int(((1 - t) * a + t * b) * scale)
                          for a, b in zip(p0, p1)])
            hurwitz = [[q[2 * j - i + 1] if 0 <= 2 * j - i + 1 <= n else 0
                        for j in range(n - 1)] for i in range(n - 1)]
            assert delta(t) == determinant(hurwitz), (p0, p1, t)


def test_sturm_chain_members_are_integer_and_end_in_the_gcd():
    # (t - 1)^2 (t + 2) against (t - 1)(t - 3/2): gcd t - 1.
    a = poly_mul(Poly([1, -2, 1]), Poly([1, 2]))
    chain = sturm_chain(a, Poly([1, Fraction(-5, 2), Fraction(3, 2)]))
    assert chain[:2] == [[1, 0, -3, 2], [2, -5, 3]]
    assert chain[-1] in ([1, -1], [-1, 1])
    assert sturm_chain(a)[-1] in ([1, -1], [-1, 1])
    assert sturm_chain(Poly([0, Fraction(3, 4)])) == [[1]]


def test_positive_roots_tangency_is_reported_once():
    # A double root at 3 (no sign change of p) and a root at -1.
    assert positive_roots(Poly([1, -5, 3, 9])) == [3.0]
    # A fourfold root at 1/3, which no float equals.
    r, = positive_roots(Poly([81, -108, 54, -12, 1]))
    assert Fraction(r) > Fraction(1, 3) > Fraction(math.nextafter(r, 0))
    # Double roots at 2 and 4, where every member of p's own chain vanishes,
    # and both midpoints of the search's halvings of (0, 2^k].
    p = poly_mul(Poly([1, -4, 4]), Poly([1, -8, 16]))
    assert positive_roots(p) == [2.0, 4.0]


def test_positive_roots_at_a_bisection_midpoint():
    # (t - 2)(t - 3): the search starts on (0, 2^k], k > 2, whose halvings
    # put 2 at the end of (0, 2] and at the start of (2, 4].
    assert positive_roots(Poly([1, -5, 6])) == [2.0, 3.0]
    assert positive_roots(Poly([1, -2])) == [2.0]


def test_positive_roots_are_the_floats_at_or_above_the_roots():
    r, = positive_roots(Poly([1, 0, -2]))
    assert Fraction(r) ** 2 > 2 > Fraction(math.nextafter(r, 0)) ** 2
    # Roots at 0 and below are not positive; tiny and huge ones are kept.
    roots = positive_roots(poly_mul(Poly([1, 0, 0, 1]),
                                    Poly([10 ** 12, -1, 0])))
    assert roots == [pytest.approx(1e-12, rel=1e-15)]
    assert positive_roots(Poly([1, -10 ** 30])) == [1e30]


def test_positive_roots_of_constant_and_zero_polynomials():
    assert positive_roots(Poly([5])) == []
    assert positive_roots(Poly([0, 0, -2])) == []
    with pytest.raises(ValueError):
        positive_roots(Poly([0, 0]))


def test_tarski_query_small_cases():
    # z^2 - 3z + 1: roots (3 ± √5)/2, about 2.618 and 0.382.
    p = Poly([1, -3, 1])
    bound = root_bound(p)
    assert bound > 2.62
    assert tarski_queries(p, (-bound, bound))(Poly([1])) == [2]
    assert tarski_queries(p, (-bound, 1, bound))(Poly([1, -1])) == [-1, 1]
    assert tarski_queries(p, (-bound, bound))(Poly([1, -3])) == [-2]
    assert tarski_queries(p, (-bound, bound))(Poly([0])) == [0]
    # (z - 1)^2 (z - 2): a root at an end counts in the interval it closes,
    # by the sign of q there, 0 where q vanishes.
    p = poly_mul(Poly([1, -2, 1]), Poly([1, -2]))
    assert tarski_queries(p, (0, 1, 2, 5))(Poly([1])) == [1, 1, 0]
    assert tarski_queries(p, (0, 2))(Poly([-1])) == [-2]
    assert tarski_queries(p, (0, 1, 2))(Poly([1, -1])) == [0, 1]
    # Constants have no roots, and one end gives no interval.
    assert tarski_queries(Poly([3]), (-5, 5))(Poly([1])) == [0]
    assert tarski_queries(p, (1,))(Poly([1])) == []


def test_tarski_query_matches_the_signs_at_known_roots():
    # Seeded products of rational roots, some repeated, and of a quadratic
    # with no real root, against q's exact signs there; the interval ends
    # fall on roots about half of the time.
    rng = random.Random(23)
    for _ in range(300):
        roots = [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4, 3)))
                 for _ in range(rng.randint(0, 5))]
        p = Poly([rng.choice((-3, 1, 2))])
        for r in roots:
            p = poly_mul(p, Poly([1, -r]) if rng.random() < 0.8
                         else Poly([1, -2 * r, r * r]))
        if rng.random() < 0.3:
            p = poly_mul(p, Poly([1, rng.randint(-2, 2), 5]))
        q = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 4))])
        ends = sorted(set(rng.sample(roots, min(len(roots), 3))
                          if rng.random() < 0.5 else
                          [Fraction(rng.randint(-30, 30), 7)
                           for _ in range(3)]))
        expected = [sum((q(r) > 0) - (q(r) < 0) for r in set(roots)
                        if lo < r <= hi) for lo, hi in zip(ends, ends[1:])]
        assert tarski_queries(p, ends)(q) == expected, (p, q, ends)


def test_root_bound_exceeds_every_root():
    rng = random.Random(29)
    for _ in range(100):
        p = Poly([rng.randint(-50, 50) or 1
                  for _ in range(rng.randint(1, 7))])
        if p.degree:
            assert max(abs(r) for r in poly_roots(p.coeffs)) < root_bound(p)


def test_zero_exclusion_sweep_small_cases():
    # 4z - 2 + λ: the root stays in [1/4, 3/4].
    assert zero_excluded([4, -2], [[0, 1]])
    # Families that reach the unit circle and no further are never proven:
    # at z = 1 (ω = ∞), z = -1 (ω = 0) and z = ±j (ω = 1, where the two
    # halves of the sweep meet).
    assert not zero_excluded([2, -1], [[0, 1]])
    assert not zero_excluded([2, 1], [[0, 1]])
    assert not zero_excluded([2, 0, 1], [[0, 0, 1]])
    # 4z^2 + 2 + λ and its generator written as two halves.
    assert zero_excluded([4, 0, 2], [[0, 0, 1]])
    assert zero_excluded([8, 0, 4], [[0, 0, 1]] * 2)
    # Every root outside for every member is excluded from the circle too:
    # hence the box verdict's stable vertices come first.
    assert zero_excluded([4, -8], [[0, 1]])
    # A complex pair of modulus 0.9, moved by generators of every degree
    # (largest root modulus 0.902 on a 41 x 41 grid of members), or by one
    # that takes some members to modulus 1.005.
    centre = [100, -90, 81]
    assert zero_excluded(centre, [[2, 2, 2], [0, 5, 0]])
    assert not zero_excluded(centre, [[0, 20, 20]])


def test_zero_exclusion_sweep_interval_budget():
    # (2z - 1)·(1 + λ(1 - ε)), ε = 2^-e: every member has the one root 1/2,
    # but the value set comes within ε of 0 all around the circle, so the
    # sweep needs about 1/ε intervals; it gives up past its budget instead.
    for e, proven in ((6, True), (12, False)):
        centre = [2 ** e * x for x in (2, -1)]
        generator = [(2 ** e - 1) * x for x in (2, -1)]
        assert zero_excluded(centre, [generator]) is proven


def test_zero_exclusion_sweep_honours_deadline():
    centre, generators = [4, 0, 2], [[0, 0, 1]]
    assert zero_excluded(centre, generators, deadline=time.perf_counter() + 60)
    with pytest.raises(DeadlineExceeded):
        zero_excluded(centre, generators, deadline=time.perf_counter() - 1)
