"""Independent re-checks of dcsynth's verdicts.

A synthesized controller is re-checked on the fully inflated family box the
certificate covers: exact Jury on every box vertex, and the numpy root
oracle on the vertices and on seeded random members.  These functions are
imported from their defining modules, whose bindings the tracer never
patches, so a re-check is neither traced nor counted.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from dcsynth.fixedpoint import FixedPointFormat, FixedPointValue
from dcsynth.intervals import family_to_interval_poly
from dcsynth.stability import Status, jury_stable, root_oracle
from dcsynth.transfer import Controller, TransferFunction, char_poly

MEMBERS = 16


def parse_format(text):
    """'<16,24>' -> FixedPointFormat(16, 24)."""
    i, f = text.strip("<>").split(",")
    return FixedPointFormat(int(i), int(f))


def _closed_loop_problem(controller, num, den):
    s = char_poly(controller, TransferFunction(num, den))
    verdict = jury_stable(s)
    modulus = root_oracle(s) if s.degree >= 1 else 0.0
    if verdict.status is not Status.STABLE:
        return f"exact Jury says {verdict.status.value} ({verdict.violated})"
    if not modulus < 1:
        return f"root oracle finds a root of modulus {modulus}"
    return None


def recheck_success(spec, report, seed):
    """None if the Success report's controller is stable on every vertex and
    sampled member of its certified box, else a description of the fault."""
    cert = report.get("certificate") or {}
    if cert.get("status") != "Stable":
        return f"Success without a Stable certificate: {cert}"
    ctl = report["controller"]
    fmt = spec.controller_format
    controller = Controller([FixedPointValue(r, fmt) for r in ctl["num_raw"]],
                            [FixedPointValue(r, fmt) for r in ctl["den_raw"]])
    family = spec.family.with_format(parse_format(report["plant_format"]))
    num_iv, den_iv = family_to_interval_poly(family)
    boxes = list(num_iv.coeffs) + list(den_iv.coeffs)
    nn = len(num_iv.coeffs)
    for vertex in itertools.product(*[(b.lo, b.hi) for b in boxes]):
        problem = _closed_loop_problem(controller, vertex[:nn], vertex[nn:])
        if problem:
            return f"vertex {[str(c) for c in vertex]}: {problem}"
    rng = random.Random(seed)
    for _ in range(MEMBERS):
        member = [b.lo + b.width * Fraction(rng.randrange(1 << 20), 1 << 20)
                  for b in boxes]
        problem = _closed_loop_problem(controller, member[:nn], member[nn:])
        if problem:
            return f"member {[str(c) for c in member]}: {problem}"
    return None
