"""Jury's stability criterion over exact and interval coefficients, plus a
root-modulus oracle used by the test suite.

For S(z) = a0 z^N + ... + aN with a0 > 0 the verdict is Stable iff:

  R1: S(1) > 0
  R2: (-1)^N S(-1) > 0
  R3: |aN| < |a0|
  R4: the leading entry of every reduced table row is > 0, where each
      reduction maps [c0 .. ck] to [c0 - (ck/c0) ck, ...] of length k
      (N-1 reductions, down to a degree-1 row; stopping one step earlier
      provably disagrees with the root oracle).

`jury_conditions` states these once in plain arithmetic operators, so the
same recursion runs on Fraction, RationalInterval and float coefficients.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCharPoly
from .intervals import IntervalPoly, RationalInterval
from .transfer import Poly


class Status(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class JuryVerdict:
    status: Status
    violated: str | None
    margin: Fraction

    @property
    def is_stable(self) -> bool:
        return self.status is Status.STABLE


def jury_conditions(c, may_be_zero):
    """Jury's conditions in order, as (label, value) pairs, for coefficients
    `c` (descending powers, at least two, positive leading coefficient):
    R1, R2, R3, then one R4 value per table reduction.

    Works in any arithmetic with + - * /, abs() and sum().  When
    `may_be_zero(pivot)` holds the recursion cannot divide by the pivot, and
    ("R4", None) ends the sequence.
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


def jury_stable(s: Poly) -> JuryVerdict:
    """Three-valued Jury verdict for an exact polynomial."""
    s = s.normalize()
    c = list(s.coeffs)
    if all(x == 0 for x in c):
        raise DegenerateCharPoly("zero polynomial")
    if len(c) == 1:
        # Degree zero: no roots at all.
        return JuryVerdict(Status.STABLE, None, abs(c[0]))
    if c[0] < 0:
        c = [-x for x in c]
    margin = None
    # An exact pivot may be zero only when it is zero (falsy).
    for label, value in jury_conditions(c, operator.not_):
        if value is None:
            # Singular table: zero pivot, verdict undecidable here.
            return JuryVerdict(Status.UNKNOWN, "R4", min(margin, Fraction(0)))
        if margin is None or value < margin:
            margin = value
        if value <= 0:
            return JuryVerdict(Status.UNSTABLE, label, margin)
    return JuryVerdict(Status.STABLE, None, margin)


def jury_stable_interval(s: IntervalPoly) -> JuryVerdict:
    """Jury verdict holding for an entire interval polynomial family.

    Stable: every condition strictly positive over the whole family.
    Unstable: some condition nonpositive for every member.
    Unknown otherwise (including a leading or pivot interval through zero).
    """
    civ = list(s.coeffs)
    lead = civ[0]
    if lead.contains_zero():
        return JuryVerdict(Status.UNKNOWN, None, min(Fraction(0), lead.lo))
    if lead.hi < 0:
        civ = [-c for c in civ]
    if len(civ) == 1:
        return JuryVerdict(Status.STABLE, None, civ[0].lo)
    incomplete = False
    margin = None
    first_violated = None
    for label, iv in jury_conditions(civ, RationalInterval.contains_zero):
        if iv is None:
            incomplete = True
            break
        if margin is None or iv.lo < margin:
            margin = iv.lo
        if iv.hi <= 0:
            return JuryVerdict(Status.UNSTABLE, label, margin)
        if iv.lo <= 0 and first_violated is None:
            first_violated = label
    if incomplete or first_violated is not None:
        return JuryVerdict(Status.UNKNOWN, first_violated or "R4",
                           min(margin, Fraction(0)))
    return JuryVerdict(Status.STABLE, None, margin)


def root_oracle(s: Poly) -> float:
    """Maximum root modulus via companion-matrix eigenvalues (test oracle)."""
    import numpy as np

    s = s.normalize()
    if s.degree < 1:
        raise ValueError("root oracle needs degree >= 1")
    roots = np.roots([float(c) for c in s.coeffs])
    if len(roots) == 0:
        return 0.0
    return float(max(abs(roots)))
