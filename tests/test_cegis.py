"""Synthesis loop: candidate search, both verification stages, escalation,
and the failure taxonomy."""

import time
from fractions import Fraction

import pytest

import dcsynth.cegis as cegis_mod
from dcsynth.cegis import (DEFAULT_PLANT_FORMAT, Limits, cegis_one_stage,
                           cegis_two_stage, concrete_verdict,
                           synthesize_candidate, verify_precision,
                           verify_uncertainty)
from dcsynth.errors import CounterexampleExtractionFailed, NoCandidate
from dcsynth.fixedpoint import FixedPointFormat, quantize_poly
from dcsynth.intervals import IntervalPoly, RationalInterval, family_grid_box
from dcsynth.stability import (Status, jury_stable, jury_stable_interval,
                               root_oracle)
from dcsynth.transfer import Controller, PlantFamily, TransferFunction, char_poly

F416 = FixedPointFormat(4, 16)
CRUISE = TransferFunction([Fraction("0.0264")], [1, Fraction("-0.9998")])


def make_controller(num, den, fmt=F416):
    return Controller(quantize_poly(num, fmt), quantize_poly(den, fmt))


def cruise_family(**kw):
    return PlantFamily(CRUISE, plant_format=DEFAULT_PLANT_FORMAT, **kw)


def test_empty_inputs_give_zero_controller():
    c = synthesize_candidate([], F416, (2, 2), seed=1, budget=10)
    assert all(v.raw == 0 for v in c.num + c.den)


def test_candidate_stabilizes_all_inputs():
    inputs = [CRUISE,
              TransferFunction([Fraction("0.03")], [1, Fraction("-1.01")])]
    c = synthesize_candidate(inputs, F416, (2, 2), seed=5, budget=20000)
    for plant in inputs:
        v = concrete_verdict(c, plant)
        assert v.status is Status.STABLE and v.margin > 0


def test_no_candidate_when_plant_cannot_be_stabilized():
    # Zero gain with an unstable pole: S = Cd * (z - 1.5) for every C.
    hopeless = TransferFunction([0], [1, Fraction(-3, 2)])
    with pytest.raises(NoCandidate):
        synthesize_candidate([hopeless], F416, (2, 2), seed=1, budget=2000)


def test_exhaustive_sweep_after_spent_budget():
    # A one-evaluation budget is spent on the origin probe, so only the sweep
    # of the tiny <1,1> grid can answer: it finds a stabilizing controller,
    # or proves that none exists.
    fmt = FixedPointFormat(1, 1)
    plant = TransferFunction([1], [1, Fraction(-3, 2)])
    c = synthesize_candidate([plant], fmt, (0, 0), seed=1, budget=1)
    assert jury_stable(char_poly(c, plant)).status is Status.STABLE
    hopeless = TransferFunction([0], [1, Fraction(-3, 2)])
    with pytest.raises(NoCandidate):
        synthesize_candidate([hopeless], fmt, (0, 0), seed=1, budget=1)


def test_verify_uncertainty_accepts_stabilizing_controller():
    fam = cruise_family()
    c = make_controller([0, 0, 0], [1, 0, 0])  # open loop, plant is stable
    assert verify_uncertainty(c, fam) is None


def test_verify_uncertainty_returns_certified_counterexample():
    fam = cruise_family()
    zero = make_controller([0, 0, 0], [0, 0, 0])
    cex = verify_uncertainty(zero, fam)
    assert cex is not None
    assert concrete_verdict(zero, cex).status is Status.UNSTABLE
    # The witness is a grid plant inside the uncertainty box.
    for c in cex.num.coeffs + cex.den.coeffs:
        assert (c * DEFAULT_PLANT_FORMAT.scale).denominator == 1


def test_verify_uncertainty_counterexample_on_uncertain_family():
    fam = cruise_family(delta_num=[Fraction("0.0132")],
                        delta_den=[0, Fraction("0.05")])
    # Destabilizing gain: pushes the pole of some member outside.
    bad = make_controller([-8, 0, 0], [1, 0, 0])
    cex = verify_uncertainty(bad, fam)
    assert cex is not None
    assert concrete_verdict(bad, cex).status is Status.UNSTABLE


def _subdivision_case():
    """A family whose grid box the interval verdict cannot settle (R1 is
    Unknown) although every vertex is stable, and a controller for it."""
    radius = Fraction(1, 20)
    plant = TransferFunction([Fraction(-2, 5), Fraction(-6, 25)],
                             [1, Fraction(19, 50), Fraction(-2, 5)])
    fam = PlantFamily(plant, delta_num=[radius, radius],
                      delta_den=[0, radius, radius],
                      plant_format=DEFAULT_PLANT_FORMAT)
    c = make_controller([Fraction(41, 100), Fraction(-1, 20)],
                        [1, Fraction(-29, 50)])
    return fam, c


def test_subdivision_proves_box_the_interval_verdict_leaves_open():
    fam, c = _subdivision_case()
    num_iv, den_iv = family_grid_box(fam)
    verdict = jury_stable_interval(
        cegis_mod._interval_char_poly(c, num_iv, den_iv))
    assert verdict.status is Status.UNKNOWN and verdict.violated == "R1"
    for num, den in cegis_mod._box_vertices(num_iv, den_iv):
        plant = TransferFunction(num, den)
        assert concrete_verdict(c, plant).status is Status.STABLE
    # Neither the vertices nor the descent find a witness; subdivision
    # then proves every sub-box stable.
    assert verify_uncertainty(c, fam) is None


def test_uncertainty_stage_honours_deadline(monkeypatch):
    fam, c = _subdivision_case()
    with pytest.raises(CounterexampleExtractionFailed):
        verify_uncertainty(c, fam, deadline=time.perf_counter() - 1)
    assert verify_uncertainty(c, fam, deadline=None) is None
    # The two-stage engine hands its own deadline to the stage.
    seen = []
    real = cegis_mod.verify_uncertainty

    def spy(candidate, family, deadline=None):
        seen.append(deadline)
        return real(candidate, family, deadline)

    monkeypatch.setattr(cegis_mod, "verify_uncertainty", spy)
    assert cegis_two_stage(cruise_family(), F416, (2, 2), seed=1234).success
    assert seen and all(d is not None for d in seen)


def test_grid_member_is_on_the_grid():
    # The box [0, 3 steps] snaps inward to itself; its midpoint, 1.5 steps,
    # is off the grid, so the witness must be a neighbouring grid point.
    fmt = DEFAULT_PLANT_FORMAT
    fam = PlantFamily(CRUISE, plant_format=fmt)
    box = RationalInterval(0, 3 * fmt.step)
    plant = cegis_mod._grid_member(fam, IntervalPoly([box]),
                                   IntervalPoly([1, box]))
    for c in plant.num.coeffs + plant.den.coeffs[1:]:
        assert box.contains(c) and (c * fmt.scale).denominator == 1


def test_verify_precision_verdicts():
    fam = cruise_family()
    good = make_controller([0, 0, 0], [1, 0, 0])
    assert verify_precision(good, fam).status is Status.STABLE
    bad = make_controller([-8, 0, 0], [1, 0, 0])
    assert verify_precision(bad, fam).status is not Status.STABLE


def test_two_stage_success_on_cruise():
    result = cegis_two_stage(cruise_family(), F416, (2, 2), seed=1234,
                             limits=Limits())
    assert result.success
    assert result.certificate.status is Status.STABLE
    assert result.plant_format == DEFAULT_PLANT_FORMAT
    s = char_poly(result.controller, CRUISE)
    assert jury_stable(s).is_stable and root_oracle(s) < 1.0
    phases = [r["phase"] for r in result.transcript]
    assert phases[0] == "synthesize"
    assert "precision-ok" in phases


def test_two_stage_clears_inputs_on_escalation(monkeypatch):
    fam = cruise_family()
    real_verify = cegis_mod.verify_precision
    calls = []

    def flaky(candidate, family):
        calls.append(family.plant_format)
        if len(calls) == 1:
            verdict = real_verify(candidate, family)
            return type(verdict)(Status.UNKNOWN, "R4", Fraction(0))
        return real_verify(candidate, family)

    monkeypatch.setattr(cegis_mod, "verify_precision", flaky)
    result = cegis_mod.cegis_two_stage(fam, F416, (2, 2), seed=1234,
                                       limits=Limits())
    assert result.success
    assert result.plant_format == FixedPointFormat(20, 28)
    phases = [r["phase"] for r in result.transcript]
    assert "increase-precision" in phases
    # After escalation the loop restarts from an empty input set.
    i = phases.index("increase-precision")
    assert result.transcript[i + 1]["phase"] == "synthesize"
    assert result.transcript[i + 1]["inputs"] == 0


def test_two_stage_precision_limit(monkeypatch):
    def never(candidate, family):
        from dcsynth.stability import JuryVerdict
        return JuryVerdict(Status.UNKNOWN, "R4", Fraction(0))

    monkeypatch.setattr(cegis_mod, "verify_precision", never)
    result = cegis_mod.cegis_two_stage(
        cruise_family(), F416, (2, 2), seed=1234,
        limits=Limits(max_precision=FixedPointFormat(16, 24)))
    assert not result.success
    assert result.reason == "precision-limit"


def test_two_stage_iteration_limit():
    result = cegis_two_stage(cruise_family(), F416, (2, 2), seed=1,
                             limits=Limits(max_iterations=0))
    assert not result.success and result.reason == "iteration-limit"


def test_two_stage_timeout():
    result = cegis_two_stage(cruise_family(), F416, (2, 2), seed=1,
                             limits=Limits(timeout_s=0.0))
    assert not result.success and result.reason == "timeout"


def test_deadline_inside_search_reports_timeout():
    # Unstabilizable family: the deadline passes inside the candidate
    # search, and both engines name it the same way.
    fam = cruise_family(delta_num=[Fraction(1, 2)],
                        delta_den=[0, Fraction(1, 2)])
    for engine in (cegis_two_stage, cegis_one_stage):
        result = engine(fam, F416, (2, 2), seed=1,
                        limits=Limits(timeout_s=0.05))
        assert not result.success and result.reason == "timeout", engine


def test_one_stage_success_and_zero_budget_timeout():
    result = cegis_one_stage(cruise_family(), F416, (2, 2), seed=1234,
                             limits=Limits())
    assert result.success
    assert result.certificate.status is Status.STABLE
    timed_out = cegis_one_stage(cruise_family(), F416, (2, 2), seed=1234,
                                limits=Limits(timeout_s=0.0))
    assert not timed_out.success and timed_out.reason == "timeout"


def test_one_stage_certificate_covers_whole_family():
    fam = cruise_family(delta_num=[Fraction("0.0132")],
                        delta_den=[0, Fraction("0.05")])
    result = cegis_one_stage(fam, F416, (2, 2), seed=7, limits=Limits())
    assert result.success
    # Spot-check: vertices of the uncertainty box are all oracle-stable.
    for sn in (-1, 1):
        for sd in (-1, 1):
            plant = TransferFunction(
                [Fraction("0.0264") + sn * Fraction("0.0132")],
                [1, Fraction("-0.9998") + sd * Fraction("0.05")])
            s = char_poly(result.controller, plant)
            assert root_oracle(s) < 1.0


def test_determinism_same_seed_same_controller():
    a = cegis_two_stage(cruise_family(), F416, (2, 2), seed=77,
                        limits=Limits())
    b = cegis_two_stage(cruise_family(), F416, (2, 2), seed=77,
                        limits=Limits())
    assert a.success and b.success
    assert [v.raw for v in a.controller.num] == [v.raw for v in b.controller.num]
    assert [v.raw for v in a.controller.den] == [v.raw for v in b.controller.den]
    assert a.transcript == b.transcript


def test_failure_on_unstabilizable_family():
    fam = cruise_family(delta_num=[Fraction(1, 2)],
                        delta_den=[0, Fraction(1, 2)])
    result = cegis_two_stage(fam, F416, (2, 2), seed=1,
                             limits=Limits(max_iterations=4,
                                           synth_budget=3000))
    assert not result.success
    assert result.reason in ("no-candidate", "iteration-limit", "timeout")
