"""Jury's stability criterion over exact and interval coefficients, plus a
float root-modulus oracle independent of it (reports and tests).

For S(z) = a0 z^N + ... + aN with a0 > 0 the verdict is Stable iff:

  R1: S(1) > 0
  R2: (-1)^N S(-1) > 0
  R3: |aN| < |a0|
  R4: the leading entry of every reduced table row is > 0, where each
      reduction maps [c0 .. ck] to [c0 - (ck/c0) ck, ...] of length k
      (N-1 reductions, down to a degree-1 row; stopping one step earlier
      provably disagrees with the root oracle).

`jury_conditions` states these once in plain arithmetic operators, on floats
and exact numbers; `jury_stable` and `jury_stable_interval` run the exact
and the interval recursion on integer rows over a denominator, with the
values the Fraction recursion gives.
`segment_chain` and `has_root` are Białas' exact segment test,
`zero_excluded` the zero-exclusion sweep of a box's value set, and
`tarski_queries` the signs of polynomials at the real roots of another.
`eliminate` is the one fraction-free elimination on integer rows, for the
segment test's Hurwitz minors (`determinant`), its interpolation of Δ(t)
from them and the pole-placement starts (`solve`).
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCharPoly, check_deadline
from .intervals import IntervalPoly
from .transfer import (Poly, convolve, integerize, poly_divmod, poly_mul,
                       poly_roots)


class Status(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class JuryVerdict:
    status: Status
    violated: str | None
    margin: Fraction | None
    settled_by: str | None = None  # the step that settled a box verdict

    @property
    def is_stable(self) -> bool:
        return self.status is Status.STABLE


def jury_conditions(c, may_be_zero):
    """Jury's conditions in order, as (label, value) pairs, for coefficients
    `c` (descending powers, at least two, positive leading coefficient):
    R1, R2, R3, then one R4 value per table reduction.

    Works on floats or exact numbers.  When `may_be_zero(pivot)` holds the
    recursion cannot divide by the pivot, and ("R4", None) ends the
    sequence.
    """
    yield "R1", sum(c)
    yield "R2", sum(x if i % 2 == 0 else -x for i, x in enumerate(c))
    yield "R3", abs(c[0]) - abs(c[-1])
    row = c
    while len(row) > 2:
        if may_be_zero(row[0]):
            yield "R4", None
            return
        alpha = row[-1] / row[0]
        row = [row[i] - alpha * row[-1 - i] for i in range(len(row) - 1)]
        yield "R4", row[0]


def jury_stable(s) -> JuryVerdict:
    """Jury verdict for an exact polynomial, a Poly or a list of integer
    coefficients (descending, leading zeros allowed), Stable or Unstable,
    with the label and margin `jury_conditions` gives on its coefficients,
    computed on integers: each row is an integer row over a positive
    denominator (a Poly's least one, an integer list's 1), reduced to
    row[0]·row - row[-1]·reversed(row) over the denominator times row[0],
    less their common content.  Each condition is homogeneous of degree 1
    in the row, so the values are the same.  The table is never singular,
    as its first pivot is the positive leading coefficient and each later
    one an R4 value already required > 0."""
    c, den = integerize(s.coeffs) if isinstance(s, Poly) else (s, 1)
    c = c[next((i for i, x in enumerate(c) if x), len(c)):]
    if not c:
        raise DegenerateCharPoly("zero polynomial")
    if len(c) == 1:
        # Degree zero: no roots at all.
        return JuryVerdict(Status.STABLE, None, Fraction(abs(c[0]), den))
    if c[0] < 0:
        c = [-x for x in c]

    def conditions():  # (label, (value, value), positive denominator)
        # R1-R3 have no division: the generator stops before R4.
        for label, value in itertools.islice(jury_conditions(c, None), 3):
            yield label, (value, value), den
        row, d = c, den
        while len(row) > 2:
            pivot, last = row[0], row[-1]
            row = [pivot * x - last * y for x, y in zip(row, row[:0:-1])]
            g = math.gcd(d * pivot, *row)
            row, d = [x // g for x in row], d * pivot // g
            yield "R4", (row[0], row[0]), d

    return _verdict(conditions())


def _verdict(conditions) -> JuryVerdict:
    """Verdict on Jury's (label, (lo, hi), positive denominator) values, in
    order, with the least lo as margin (where Unknown, at most its label's
    lo, so at most 0)."""
    margin = first_violated = None  # margin: (numerator, denominator)
    for label, (lo, hi), d in conditions:
        if margin is None or lo * margin[1] < margin[0] * d:
            margin = lo, d
        if hi <= 0:
            return JuryVerdict(Status.UNSTABLE, label, Fraction(*margin))
        if lo <= 0:
            first_violated = first_violated or label
    status = Status.STABLE if first_violated is None else Status.UNKNOWN
    return JuryVerdict(status, first_violated, Fraction(*margin))


def jury_stable_interval(s: IntervalPoly, deadline=None) -> JuryVerdict:
    """Jury verdict holding for an entire interval polynomial family.

    Stable: every condition strictly positive over the whole family.
    Unstable: some condition nonpositive for every member.
    Unknown otherwise (including a leading or pivot interval through zero).
    Raises DeadlineExceeded past `deadline`, checked before each table
    reduction and after each element of it.  Runs on integer (lo, hi) rows
    over a positive denominator: a pivot [p, q] that divides is positive,
    so α = last/pivot has the ends of {l·p'} over p·q, and a row maps to
    x·p·q - α·y over the denominator times p·q, α and row each less their
    common content: the values of interval arithmetic on the rational ends."""
    c, den = s.ends, s.den
    if c[0][0] <= 0 <= c[0][1]:
        return JuryVerdict(Status.UNKNOWN, None, Fraction(c[0][0], den))
    if c[0][1] < 0:
        c = [(-hi, -lo) for lo, hi in c]
    if len(c) == 1:
        return JuryVerdict(Status.STABLE, None, Fraction(c[0][0], den))

    def conditions():  # (label, (lo, hi), positive denominator)
        alternating = [e if i % 2 == 0 else (-e[1], -e[0])
                       for i, e in enumerate(c)]
        for label, row in ("R1", c), ("R2", alternating):
            yield label, tuple(map(sum, zip(*row))), den
        (lo, hi), (a, b) = c[0], c[-1]
        yield "R3", (lo - max(-a, b), hi - max(a, -b, 0)), den
        row, d = c, den
        # A pivot through zero ends the values: it is an R4 value, Unknown.
        while len(row) > 2 and row[0][0] > 0:
            check_deadline(deadline)
            (p, q), last = row[0], row[-1]
            a = [x * y for x in last for y in (p, q)]
            g = math.gcd(min(a), max(a), p * q)  # α's ends and denominator
            alpha, pq, ends = (min(a) // g, max(a) // g), p * q // g, []
            for (lo, hi), y in zip(row, row[:0:-1]):
                m = [u * v for u in alpha for v in y]
                ends += lo * pq - max(m), hi * pq - min(m)
                check_deadline(deadline)
            g = math.gcd(d * pq, *ends)
            row = [(lo // g, hi // g) for lo, hi in zip(ends[::2], ends[1::2])]
            d = d * pq // g
            yield "R4", row[0], d

    return _verdict(conditions())


def segment_chain(p0, p1) -> list:
    """Sturm chain of the Hurwitz minor Δ(t) (`segment_minor`) of (1-t)·p0
    + t·p1, for Schur-stable ends of length n+1 whose leads share a strict
    sign.  Every member is stable iff Δ has no root on [0, 1] (Białas
    1985): z = (s+1)/(s-1) gives (s-1)^n·P a lead P(1) and a constant term
    (-1)^n·P(-1) of fixed sign, so stability is lost only where a root pair
    crosses the imaginary axis, where Δ_{n-1} vanishes (Orlando)."""
    return sturm_chain(Poly(segment_minor(p0, p1)))


def segment_minor(p0, p1) -> list:
    """Coefficients of Δ(t), descending, of degree < n: one Vandermonde
    solve on its exact values at t = 0 .. n-1, determinants of the Hurwitz
    matrix of the common-denominator-scaled coefficients."""
    n = len(p0) - 1
    ints, _ = integerize([*p0, *p1])
    q0, q1 = bilinear(ints[:n + 1]), bilinear(ints[n + 1:])
    points, rows = range(max(n, 1)), []
    for t in points:
        q = [x + t * (y - x) for x, y in zip(q0, q1)]
        rows.append([t ** k for k in reversed(points)] + [determinant(
            [[q[2 * j - i + 1] if 0 <= 2 * j - i + 1 <= n else 0
              for j in range(n - 1)] for i in range(n - 1)])])
    return solve(rows)


def bilinear(coeffs) -> list:
    """Coefficients of (s-1)^n·p((s+1)/(s-1)) for p with the n+1 given ones,
    both descending, leading zeros allowed (s = jw maps to |z| = 1)."""
    basis = _bilinear_basis(len(coeffs) - 1)
    return [sum(a * b[i] for a, b in zip(coeffs, basis))
            for i in range(len(coeffs))]


_SWEEP_DEPTH = 40
# Intervals a half of the sweep may take: the interval count grows as the
# inverse of the least separation over a range of ω (a generator nearly
# parallel to S_c), where the edge scan's cost stays fixed.
_SWEEP_INTERVALS = 1024


def zero_excluded(centre, generators, deadline=None) -> bool:
    """Whether 0 is proven outside {S_c(z) + Σ λ_i·g_i(z) : λ ∈ [-1, 1]^k}
    at every z on the unit circle, for S_c = `centre` and the `generators`
    g_i, integer coefficient lists of one length.  If one member is stable
    and the lead keeps a strict sign, every member is then stable (zero
    exclusion, Barmish 1994).  Under z = (s+1)/(s-1), Q(jω) = R(ω) + j·I(ω) is swept
    over ω in [0, 1] and, reversed, 1/ω in [0, 1], on dyadic intervals.
    On each, floats pick the direction w maximizing the least Re(w̄·Q) over
    the zonotope at the midpoint, and integers prove that least value
    positive over the interval by Taylor expansion there, else it is
    halved.  False at a midpoint whose float separation is not positive,
    below depth _SWEEP_DEPTH or past _SWEEP_INTERVALS intervals in a half;
    raises DeadlineExceeded past `deadline`."""
    parts = []  # (R, I) of each polynomial: descending integers in ω
    for p in [centre, *generators]:
        q = bilinear(p)
        n = len(q) - 1
        units = [(-1) ** ((n - k) // 2) for k in range(n + 1)]  # j^(n-k)
        parts.append(([0 if (n - k) % 2 else u * x
                       for k, (u, x) in enumerate(zip(units, q))],
                      [u * x if (n - k) % 2 else 0
                       for k, (u, x) in enumerate(zip(units, q))]))
    return all(_sweep(half, deadline) for half in
               (parts, [(re[::-1], im[::-1]) for re, im in parts]))


def _sweep(parts, deadline) -> bool:
    """`zero_excluded` over ω in [0, 1] for the parts (R, I) of Q_c, Q_i."""
    big = 1 << max(abs(x).bit_length() for re, im in parts for x in re + im)
    floats = [[complex(a / big, b / big) for a, b in zip(re, im)]
              for re, im in parts]
    pending = [(1, 0)]  # (h, j): the interval [2j, 2j+2] / 2^h
    for _ in range(_SWEEP_INTERVALS):
        if not pending:
            return True
        check_deadline(deadline)
        h, j = pending.pop()
        mid = (2 * j + 1) / 2 ** h
        values = [functools.reduce(lambda acc, c: acc * mid + c, p, 0j)
                  for p in floats]
        theta, separation = _best_direction(values[0], values[1:])
        if separation <= 0:
            return False
        # w in integers; the bound below holds exactly for whatever w.
        wr, wi = (round(2 ** 20 * x) for x in (math.cos(theta),
                                               math.sin(theta)))
        # Re(w̄·Q) of each part at ω = (2j+1+y)/2^h, times 2^(h·n), in y.
        rows = [_taylor_shift([(wr * a + wi * b) << (h * k)
                               for k, (a, b) in enumerate(zip(re, im))],
                              2 * j + 1) for re, im in parts]
        # P_0 - Σ_{k≥1}|P_k| - Σ_i Σ_k |H_ik|, positive only if P_0 is.
        if 2 * rows[0][-1] - sum(abs(x) for row in rows for x in row) > 0:
            continue
        if h > _SWEEP_DEPTH:
            return False
        pending += [(h + 1, 2 * j), (h + 1, 2 * j + 1)]
    return not pending


def _best_direction(c, generators) -> tuple:
    """The angle θ that maximizes Re(e^(-jθ)·c) - Σ|Re(e^(-jθ)·g)| over the
    generators g, in floats, and that maximum, in one pass over the sorted
    breakpoints arg(g) ± π/2.  Between two of them each sign s of
    Re(e^(-jθ)·g) holds and the value is Re(e^(-jθ)·v), v = c - Σ s·g;
    passing arg(g) + π/2 (s turns negative) or arg(g) - π/2 adds ±2g to v.
    On an arc it peaks at |v| at arg v where that lies on it, else at an
    end; each arc's start is read, the value being continuous."""
    tau, events = 2 * math.pi, []
    for i, g in enumerate(generators):
        if g:
            events += [((cmath.phase(g) + side) % tau, i, step)
                       for side, step in ((0.5 * math.pi, 2 * g),
                                          (1.5 * math.pi, -2 * g))]
    if not events:
        return cmath.phase(c), abs(c)
    events.sort(key=operator.itemgetter(0))
    # v on the arc past the last breakpoint: each g's later step, halved.
    v = c + sum({i: step for _, i, step in events}.values()) / 2
    ends, arcs = [e[0] for e in events[1:]] + [events[0][0] + tau], []
    for (a, _, step), b in zip(events, ends):
        v += step
        phi = cmath.phase(v)
        arcs.append((phi, abs(v)) if (phi - a) % tau <= b - a
                    else (a, (cmath.exp(-1j * a) * v).real))
    return max(arcs, key=operator.itemgetter(1))


def _taylor_shift(a, c) -> list:
    """Coefficients of p(x + c) for p with the descending coefficients a."""
    a = list(a)
    for i in range(len(a) - 1):
        for k in range(1, len(a) - i):
            a[k] += c * a[k - 1]
    return a


@functools.cache
def _bilinear_basis(n) -> tuple:
    """The integer coefficients of (s+1)^(n-k)·(s-1)^k for k = 0 .. n:
    z^(n-k) under z = (s+1)/(s-1), times (s-1)^n."""
    plus, minus = [[1]], [[1]]
    for _ in range(n):
        plus.append(convolve(plus[-1], [1, 1], 0))
        minus.append(convolve(minus[-1], [1, -1], 0))
    return tuple(tuple(convolve(plus[n - k], minus[k], 0))
                 for k in range(n + 1))


def sturm_chain(a: Poly, b: Poly | None = None) -> list:
    """a, b (by default a': a's Sturm chain), then each negated remainder of
    the two before it while nonzero, as integer coefficient lists of the same
    signs (positive multiples); the last is a multiple of gcd(a, b)."""
    a = _primitive(a.coeffs)
    b = _primitive(b.coeffs if b is not None else
                   [c * (len(a) - 1 - i) for i, c in enumerate(a[:-1])] or [0])
    chain = [a]
    while any(b):
        chain.append(b)
        a, b = b, _primitive([-x for x in _remainder(a, b)])
    return chain


def _remainder(a, b) -> list:
    """A positive multiple of the remainder of a by b, integer coefficient
    lists, b's lead nonzero: each step scales the rest by |lead of b|."""
    scale, sign = abs(b[0]), 1 if b[0] > 0 else -1
    while len(a) >= len(b):
        f = sign * a[0]
        a = ([scale * x - f * y for x, y in zip(a[1:], b[1:])]
             + [scale * x for x in a[len(b):]])
    return a or [0]


def _primitive(coeffs) -> list:
    """Coefficients (ints or Fractions), without leading zeros but the
    last, times a positive integerizer."""
    c, _ = integerize(coeffs)
    c = c[next((i for i, x in enumerate(c) if x), len(c) - 1):]
    g = math.gcd(*c) or 1
    return [x // g for x in c]


def has_root(chain, lo, hi) -> bool:
    """Whether chain[0] has a real root in [lo, hi] (Sturm's theorem)."""
    return (_sign_at(chain[0], lo) == 0
            or _sign_changes(chain, lo) > _sign_changes(chain, hi))


def _sign_changes(chain, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _sign_at(c, x) -> int:
    """Exact sign of the integer polynomial c at the rational or float x."""
    num, den = x.as_integer_ratio()
    acc = 0
    for i, coeff in enumerate(c):
        acc = acc * num + coeff * den ** i
    return (acc > 0) - (acc < 0)


def _square_free(p: Poly) -> Poly:
    """p over gcd(p, p'): p's distinct roots, each simple."""
    g = sturm_chain(p)[-1]
    return p if len(g) == 1 else poly_divmod(p, Poly(g))[0]


def root_bound(p: Poly) -> int:
    """An integer above the modulus of every root of the nonzero p (Cauchy:
    1 + max|c_i / c_0|)."""
    c = _primitive(p.coeffs)
    return max(map(abs, c)) // abs(c[0]) + 2


def tarski_queries(p: Poly, ends):
    """The query q -> Σ sign q(x) over the distinct real roots x of the
    nonzero p in each interval (lo, hi] of consecutive `ends`, ascending
    rationals.  By Sylvester's theorem (Basu, Pollack & Roy, *Algorithms in
    Real Algebraic Geometry*, §2.2) it is the sign changes of
    sturm_chain(p, p'·q) at lo less those at hi, where neither is a root of
    p: so it runs on p's square-free part with its roots at the ends
    divided out, found once for every q, each counted by the sign of q
    there in the interval it closes."""
    p, roots = _square_free(p), []
    for x in ends:
        roots.append(p(x) == 0)
        if roots[-1]:
            p = poly_divmod(p, Poly([1, -x]))[0]
    n = p.degree
    dp = Poly([c * (n - i) for i, c in enumerate(p.coeffs[:-1])] or [0])

    def query(q):
        chain = sturm_chain(p, poly_mul(dp, q))
        changes = [_sign_changes(chain, x) for x in ends]
        return [a - b + (root and (q(x) > 0) - (q(x) < 0)) for a, b, root, x
                in zip(changes, changes[1:], roots[1:], ends[1:])]
    return query


def positive_roots(p: Poly) -> list:
    """The distinct real roots of p in (0, inf), ascending, each as the float
    at or just above it: isolated by Sturm counts of p's square-free part on
    halvings of (0, 2^k], refined by bisection on its exact sign in floats."""
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    chain = sturm_chain(_square_free(p))
    bound = root_bound(Poly(chain[0]))
    pending = [(Fraction(0), Fraction(2 ** bound.bit_length()))]
    roots = []
    while pending:
        lo, hi = pending.pop()
        # Roots in (lo, hi]: square-free, the chain never vanishes whole.
        count = _sign_changes(chain, lo) - _sign_changes(chain, hi)
        if count > 1:
            pending += [((lo + hi) / 2, hi), (lo, (lo + hi) / 2)]
        elif count:
            lo, hi = float(lo), float(hi)
            side = _sign_at(chain[0], hi)  # never at lo, an open end
            while lo < (mid := (lo + hi) / 2) < hi:
                lo, hi = ((lo, mid) if _sign_at(chain[0], mid) in (0, side)
                          else (mid, hi))
            roots.append(hi)
    return roots


def eliminate(rows, width) -> tuple:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the integer
    `rows`, in place, on their first `width` columns, with row swaps.  Each
    update is (x·p - f·y) // prev for the pivot p and the one before it, so
    every entry stays an integer minor and every division is exact.  Each
    pivot row ends with the last pivot in its own column and 0 in the other
    pivot columns, the later rows with 0 in all `width`.  Returns the pivot
    columns, in row order, and the last pivot (1 if none) times the sign of
    the row permutation: a full-rank square matrix's determinant."""
    pivots, sign, prev = [], 1, 1
    for col in range(width):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k], sign = rows[k], rows[r], -sign
        pivot, p = rows[r], rows[r][col]
        for row in rows:
            if row is not pivot:
                f = row[col]
                row[:] = [(x * p - f * y) // prev for x, y in zip(row, pivot)]
        pivots.append(col)
        prev = p
    return pivots, sign * prev


def determinant(m) -> int:
    """Determinant of a square integer matrix (1 if it is 0×0)."""
    pivots, det = eliminate([list(row) for row in m], len(m))
    return det if len(pivots) == len(m) else 0


def solve(rows) -> list | None:
    """A solution, in Fractions with free unknowns 0, of the linear system
    whose augmented integer rows (right-hand side last) are `rows`; None if
    it has none."""
    rows = [list(row) for row in rows]
    pivots, _ = eliminate(rows, len(rows[0]) - 1)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * (len(rows[0]) - 1)
    for row, col in zip(rows, pivots):
        x[col] = Fraction(row[-1], row[col])
    return x


def root_oracle(s: Poly) -> float:
    """Maximum root modulus, from the float roots of `poly_roots` (an
    oracle independent of Jury)."""
    s = s.normalize()
    if s.degree < 1:
        raise ValueError("root oracle needs degree >= 1")
    return max(abs(r) for r in poly_roots(s.coeffs))
