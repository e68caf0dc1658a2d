"""Synthesis loop: candidate search, both verification stages, escalation,
and the failure taxonomy."""

import contextlib
import itertools
import math
import operator
import pathlib
import random
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

import dcsynth.cegis as cegis_mod
from dcsynth.benchmark import parse_benchmark
from dcsynth.cegis import (DEFAULT_PLANT_FORMAT, Limits, cegis_one_stage,
                           cegis_two_stage, concrete_verdict,
                           synthesize_candidate, verify_precision,
                           verify_uncertainty)
from dcsynth.errors import DeadlineExceeded, DegenerateCharPoly, NoCandidate
from dcsynth.fixedpoint import FixedPointFormat, FixedPointValue, quantize_poly
from dcsynth.intervals import family_grid_box, family_to_interval_poly
from dcsynth.stability import (JuryVerdict, Status, jury_stable,
                               jury_stable_interval, root_oracle, solve)
from dcsynth.transfer import (Controller, PlantFamily, TransferFunction,
                              char_poly, convolve)
from test_stability import random_stable_poly

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from jury_oracle_agreement import (lead_family, sweep_and_edges,  # noqa: E402
                                   sweep_family, unstable_beside_lead_zero,
                                   unstable_members)

F416 = FixedPointFormat(4, 16)
CRUISE = TransferFunction([Fraction("0.0264")], [1, Fraction("-0.9998")])


def make_controller(num, den, fmt=F416):
    return Controller(quantize_poly(num, fmt), quantize_poly(den, fmt))


def cruise_family(**kw):
    return PlantFamily(CRUISE, plant_format=DEFAULT_PLANT_FORMAT, **kw)


def box_vertices(num_iv, den_iv):
    """Every corner of a plant box as (numerator, denominator) tuples, in
    the order the box verdict scans its vertices: a reference enumeration."""
    axes = [(c.lo, c.hi) if c.lo != c.hi else (c.lo,)
            for c in num_iv.coeffs + den_iv.coeffs]
    nn = len(num_iv.coeffs)
    for combo in itertools.product(*axes):
        yield combo[:nn], combo[nn:]


def test_empty_inputs_give_zero_controller():
    # The origin answers an empty input set: its first probe is accepted,
    # and no placement is computed for it.
    def starts():
        pytest.fail("starts() called for an empty input set")

    c = synthesize_candidate([], F416, (2, 2), seed=1, budget=10,
                             starts=starts)
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


def test_completed_sweep_reports_no_controller_on_grid():
    # The sweep of the <1,1> grid ends the search: its failure is a proof
    # that no controller there stabilizes the inputs, not a spent budget.
    hopeless = TransferFunction([0], [1, Fraction(-3, 2)])
    with pytest.raises(NoCandidate, match=r"^no controller on the <1,1> "
                                          r"grid stabilizes the inputs$"):
        synthesize_candidate([hopeless], FixedPointFormat(1, 1), (0, 0),
                             seed=1, budget=1)
    # A grid too large to sweep: the budget ran out.
    with pytest.raises(NoCandidate, match="budget of 200 evaluations"):
        synthesize_candidate([hopeless], F416, (2, 2), seed=1, budget=200)


def test_search_past_deadline_raises_deadline_exceeded():
    with pytest.raises(DeadlineExceeded):
        synthesize_candidate([CRUISE], F416, (2, 2), seed=1, budget=60000,
                             deadline=time.perf_counter() - 1)


def test_den_lead_penalty_keeps_controllers_causal():
    # The origin probe and its climb start at a zero denominator lead; only
    # the guidance penalty keeps the search from accepting such a point.
    for seed in range(20):
        c = synthesize_candidate([CRUISE], F416, (2, 2), seed, 60000)
        assert c.den[0].raw != 0, seed


# N/D with D = N·(z - 1/2) and N = z^2 - 9/4 z + 11/8, whose complex roots
# of modulus about 1.17 are roots of every closed loop Cn·N + Cd·D: no
# controller stabilizes it, but D has no real root on or outside the unit
# circle, so the sign test cannot tell, and a search runs to its end.  Its
# coefficients are dyadic, so the plant grid keeps the shared factor.
SHARED_UNSTABLE_FACTOR = TransferFunction(
    [1, Fraction(-9, 4), Fraction(11, 8)],
    [1, Fraction(-11, 4), Fraction(5, 2), Fraction(-11, 16)])


def test_exhaustive_sweep_honours_deadline():
    # The <2,2> grid of a (1,1) controller is small enough to sweep (about
    # 9e5 points, about ten seconds), and no controller stabilizes the plant:
    # past the deadline the sweep must stop, not run on for seconds.  A
    # one-step budget starts the second search's sweep at once.
    hopeless = PlantFamily(SHARED_UNSTABLE_FACTOR)
    start = time.perf_counter()
    result = cegis_two_stage(hopeless, FixedPointFormat(2, 2), (1, 1), 1,
                             Limits(timeout_s=0.05, synth_budget=1))
    assert result.reason == "timeout"
    assert time.perf_counter() - start < 1.0
    # A zero-gain plant with an unstable pole fails the sign test on its
    # first counterexample: no second search runs.
    hopeless = PlantFamily(TransferFunction([0], [1, Fraction(-3, 2)]))
    result = cegis_two_stage(hopeless, FixedPointFormat(2, 2), (1, 1), 1,
                             Limits(timeout_s=0.05))
    assert (result.reason, result.iterations) == ("no-candidate", 2)


def _landscape(seed, rarity):
    """evaluate() over a seeded pseudo-random cost landscape: about one
    point in `rarity` is accepted (cost 0.0), the others cost [1, 2)."""
    def evaluate(raws):
        h = hash((seed,) + raws) & 0xFFFFFFFF
        if h % rarity == 0:
            return True, 0.0
        return False, 1 + (h >> 8) / 2 ** 24
    return evaluate


def _reference_climb(raws, n_coeffs, num_len, limit, evaluate, room,
                     deadline):
    """The coordinate climb of `cegis._climb` evaluating every step: each
    point it evaluates is one step."""
    accepted, cost = evaluate(tuple(raws))
    if accepted:
        return tuple(raws), 1
    step, steps = max(1, limit >> 2), 1
    while step >= 1:
        improved = False
        for i in range(n_coeffs):
            for delta in (step, -step):
                cand = list(raws)
                cand[i] += delta
                if abs(cand[i]) >= limit or (i == num_len and cand[i] == 0):
                    continue
                steps += 1
                if steps > room:
                    return None, steps
                a, c = evaluate(tuple(cand))
                if a:
                    return tuple(cand), steps
                if c < cost:
                    raws, cost = cand, c
                    improved = True
                    break
        if not improved:
            step >>= 1
    return None, steps


def _counting(climb, counts):
    """`climb`, adding every climb step it takes to counts[0]."""
    def counted_climb(*args):
        accepted, steps = climb(*args)
        counts[0] += steps
        return accepted, steps
    return counted_climb


def _search(fmt, seed, budget, evaluate, n_coeffs=4, climb=None):
    """_grid_search by `cegis._climb` or the given `climb`: the raws (None
    for NoCandidate), the climb steps, the evaluator calls and the restarts
    drawn from the pool."""
    counts = [0, 0, 0]

    def counted(raws):
        counts[1] += 1
        return evaluate(raws)

    def counted_pool(*args, pool=cegis_mod._start_pool):
        for raws in pool(*args):
            counts[2] += 1
            yield raws

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cegis_mod, "_start_pool", counted_pool)
        mp.setattr(cegis_mod, "_climb",
                   _counting(climb or cegis_mod._climb, counts))
        try:
            raws = cegis_mod._grid_search(n_coeffs, fmt, seed, budget,
                                          counted, 1)
        except NoCandidate:
            raws = None
    return (raws, *counts)


def test_restarts_run_one_at_a_time_within_the_budget():
    """The restarts run one at a time within the budget, also when it cuts
    a restart short, and when a restart past the origin's accepts.  The
    budget counts climb steps: at every budget the result is that of a
    reference climb that evaluates every step, whose evaluator calls are
    the steps, and the climb evaluates fewer points than it takes steps.
    Once the budget is spent, the sweep of a tiny grid answers in product
    order."""
    fmt = FixedPointFormat(3, 5)  # too large a grid for the sweep
    rng = random.Random(3)
    late = 0
    steps_taken = calls_made = 0
    for seed in range(20):
        evaluate = _landscape(seed, 3000)
        accepted, steps, calls, drawn = _search(fmt, seed, 20000, evaluate)
        late += accepted is not None and drawn > 1
        steps_taken, calls_made = steps_taken + steps, calls_made + calls
        # One step short, the accepting restart is cut before it accepts; a
        # random budget cuts some restart in the middle.
        budgets = ((steps - 1, steps, rng.randrange(1, steps)) if accepted
                   else ())
        expected = [accepted] + [accepted if b == steps else None
                                 for b in budgets]
        reference = [_search(fmt, seed, budget, evaluate,
                             climb=_reference_climb)
                     for budget in (20000,) + budgets]
        for budget, ref, raws in zip((20000,) + budgets, reference,
                                     expected):
            serial = _search(fmt, seed, budget, evaluate)
            assert serial[0] == ref[0] == raws
            assert serial[2] <= budget and ref[2] <= budget
        if accepted:  # a search that accepts is cut by no budget
            assert reference[0][1:3] == (steps, steps)
    assert late >= 10
    assert calls_made < steps_taken
    # A grid small enough to sweep: what the climbs do not find within the
    # budget, the sweep finds at the first accepted point in product order.
    tiny = FixedPointFormat(1, 1)
    values = range(-tiny.raw_limit + 1, tiny.raw_limit)
    found = swept = 0
    for seed in range(20):
        evaluate = _landscape(seed, 40)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cegis_mod, "EXHAUSTIVE_LIMIT", 0)
            climbed = _search(tiny, seed, seed + 1, evaluate, n_coeffs=3)[0]
        first = next((p for p in itertools.product(values, repeat=3)
                      if p[1] != 0 and evaluate(p)[0]), None)
        raws = _search(tiny, seed, seed + 1, evaluate, n_coeffs=3)[0]
        assert raws == (first if climbed is None else climbed)
        found += raws is not None
        swept += climbed is None and raws is not None
    assert found >= 10 and swept >= 10


def _count_evaluations(monkeypatch, counts):
    """Adds every call of the evaluator that synthesize_candidate hands to
    `_grid_search` to counts[1]."""
    search = cegis_mod._grid_search

    def grid_search(n_coeffs, fmt, seed, budget, evaluate, *args, **kw):
        def counted(raws):
            counts[1] += 1
            return evaluate(raws)
        return search(n_coeffs, fmt, seed, budget, counted, *args, **kw)

    monkeypatch.setattr(cegis_mod, "_grid_search", grid_search)


# The first two counterexamples of every cruise_uncertain two-stage run: no
# controller stabilizes both (see the sign test below), so a search against
# them must fail.
CRUISE_UNCERTAIN_CEX = [
    TransferFunction([Fraction(-7945689, 2 ** 24)],
                     [1, Fraction(-6290617, 2 ** 22)]),
    TransferFunction([Fraction(4415763, 2 ** 23)],
                     [1, Fraction(-6290617, 2 ** 22)])]


def obstructed(*plants):
    """Whether the sign test finds that no controller stabilizes the last
    of the `plants` with the earlier ones."""
    return cegis_mod._sign_obstructed([TransferFunction(*p) for p in plants],
                                      {})


def test_sign_test_on_cruise_uncertain_counterexamples():
    # -0.4736/(z - 1.4998) and 0.5264/(z - 1.4998): at the shared pole, S_i
    # = Cn·N_i, whose two signs cannot both be the sign of the lead.
    a, b = ((p.num, p.den) for p in CRUISE_UNCERTAIN_CEX)
    assert obstructed(a, b) and obstructed(b, a)
    assert not obstructed(a) and not obstructed(b)
    # Same sign at the pole: one controller may stabilize both.
    assert not obstructed(b, ([Fraction(3, 10)], b[1]))
    # The test compares plants with the same denominator only.
    assert not obstructed(b, (a[0], [1, Fraction(-3, 2)]))


def test_sign_test_on_a_plant_with_no_gain_at_an_unstable_pole():
    assert obstructed(([0], [1, Fraction(-3, 2)]))
    assert obstructed(([1, -1], [1, 0, -4]), ([1, -2], [1, 0, -4]))
    assert not obstructed(([1, -1], [1, 0, -4]))


def test_sign_test_at_irrational_poles():
    # z^2 - 3z + 1 has roots about 2.618 and 0.382: only the first counts.
    den = [1, -3, 1]
    assert not obstructed(([1], den), ([1, -1], den))  # differ at 0.382
    assert obstructed(([1], den), ([1, -3], den))  # differ at 2.618
    # The last plant is compared with the first.
    assert obstructed(([1], den), ([1, -1], den), ([1, -3], den))
    assert not obstructed(([1], den), ([1, -1], den), ([2], den))


def test_sign_test_at_poles_on_the_unit_circle():
    for pole in (1, -1):
        den = [1, -pole]
        assert obstructed(([1], den), ([-1], den))
        assert not obstructed(([1], den), ([2], den))
        assert obstructed(([0], den))
    # Poles at 1 and 2: the signs may differ at either.
    den = [1, -3, 2]
    assert obstructed(([1], den), ([-1, Fraction(3, 2)], den))  # at 2
    assert obstructed(([1], den), ([1, Fraction(-3, 2)], den))  # at 1
    assert not obstructed(([1], den), ([1, Fraction(-1, 2)], den))
    # Poles at -1 and -2.
    den = [1, 3, 2]
    assert obstructed(([1], den), ([1, Fraction(3, 2)], den))  # at -2
    assert not obstructed(([1], den), ([-1, Fraction(-1, 2)], den))


def test_sign_test_skips_plants_that_are_not_strictly_proper():
    # With deg N = deg D, Cn·N may set the lead or degree of S: no claim.
    den = [1, Fraction(-3, 2)]
    assert not obstructed(([1, 0], den), ([-1, 0], den))
    assert not obstructed(([1], den), ([-1, 0], den))
    assert not obstructed(([1, 0], den), ([-1], den))
    # A strictly proper plant is compared with the first strictly proper
    # one with its denominator.
    assert obstructed(([1, 0], den), ([1], den), ([-1], den))


def test_sign_test_never_flags_pairs_a_static_gain_stabilizes():
    # Seeded pairs N_i/D with D monic, of real poles on or outside the unit
    # circle among others, and k·N_i + D a stable S_i, so that the static
    # gain k stabilizes both, as exact Jury of both loops shows.
    rng = random.Random(31)
    one = FixedPointValue(1 << 16, F416)
    for _ in range(150):
        order = rng.randint(1, 4)
        poles = [Fraction(rng.choice((-1, 1)) * rng.randint(8, 20), 8)]
        poles += [Fraction(rng.randint(-20, 20), 8)
                  for _ in range(order - 1)]
        den = [Fraction(1)]
        for r in poles:
            den = convolve(den, [1, -r], Fraction(0))
        raw = rng.choice((-1, 1)) * rng.randint(1 << 10, 7 << 16)
        gain = FixedPointValue(raw, F416)
        plants = []
        for _ in range(2):
            s = random_stable_poly(rng, order, min_modulus=0.1, scale=64)
            plants.append(TransferFunction(
                [(x - y) / gain.value for x, y in zip(s[1:], den[1:])], den))
        controller = Controller([gain], [one])
        if not all(jury_stable(char_poly(controller, p)).is_stable
                   for p in plants):
            continue  # rounding moved a root of s out
        assert plants[0].num.degree < order
        assert not cegis_mod._sign_obstructed(plants, {}), plants
        assert not cegis_mod._sign_obstructed(plants[::-1], {}), plants


def test_climb_steps_over_neighbours_known_not_to_improve(monkeypatch):
    # On cruise_uncertain's failing third search, a fifth of the climb's
    # steps or so repeat a neighbour already found not to improve from the
    # same point at the same step: those count but are not evaluated.
    counts = [0, 0]  # climb steps, evaluated points
    _count_evaluations(monkeypatch, counts)
    monkeypatch.setattr(cegis_mod, "_climb",
                        _counting(cegis_mod._climb, counts))
    with pytest.raises(NoCandidate):
        synthesize_candidate(CRUISE_UNCERTAIN_CEX, F416, (2, 2), seed=3,
                             budget=Limits().synth_budget)
    assert 0 < counts[1] <= 0.85 * counts[0], counts


def test_no_restart_evaluates_past_the_budget(monkeypatch):
    """A failing search evaluates at most its budget of points: no restart
    evaluates past it.  Only the exhaustive sweep of a tiny grid runs after
    the budget, as before, and six coefficients at <4,16> are far too many
    for it."""
    counts = [0, 0]
    _count_evaluations(monkeypatch, counts)
    for seed in (1, 2, 3, 801681276):
        counts[1] = 0
        with pytest.raises(NoCandidate, match="budget of 2000 evaluations"):
            synthesize_candidate(CRUISE_UNCERTAIN_CEX, F416, (2, 2), seed,
                                 budget=2000)
        assert 1000 < counts[1] <= 2000, (seed, counts)


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


def _interval_unknown_case():
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


def test_edges_prove_box_the_interval_verdict_leaves_open(monkeypatch):
    fam, c = _interval_unknown_case()
    num_iv, den_iv = family_grid_box(fam)
    verdict = jury_stable_interval(
        cegis_mod._interval_char_poly(c, num_iv, den_iv))
    assert verdict.status is Status.UNKNOWN and verdict.violated == "R1"
    for num, den in box_vertices(num_iv, den_iv):
        assert concrete_verdict(c, TransferFunction(num, den)).is_stable
    # The zero-exclusion sweep proves both boxes stable, and so do the box
    # edges where the sweep gives up; either way the certificate names the
    # step and carries no margin, as no vertex margin bounds the family's
    # from below.
    said = []
    for sweep, step in ((cegis_mod.zero_excluded, "sweep"),
                        (lambda *args: False, "edges")):
        def spy(*args, sweep=sweep):
            said.append(sweep(*args))
            return said[-1]

        monkeypatch.setattr(cegis_mod, "zero_excluded", spy)
        assert verify_uncertainty(c, fam) is None
        sound = verify_precision(c, fam)
        assert sound.status is Status.STABLE and sound.violated is None
        assert sound.margin is None and sound.settled_by == step
    assert said == [True, True, False, False]


def test_unstable_edge_between_stable_vertices_gives_grid_witness():
    # Both vertices are stable, but the nominal plant, in the middle of the
    # one uncertain edge, is not.
    plant = TransferFunction(
        [Fraction(1, 2), Fraction(-41, 64), Fraction(1, 4)],
        [1, Fraction(-73, 64), Fraction(31, 32), Fraction(-13, 64)])
    fam = PlantFamily(plant, delta_den=[0, Fraction(1, 2), 0, 0],
                      plant_format=DEFAULT_PLANT_FORMAT)
    c = make_controller([Fraction(-11, 64), Fraction(-1, 2), Fraction(21, 32)],
                        [1, Fraction(-5, 4), Fraction(9, 16)])
    assert concrete_verdict(c, plant).status is Status.UNSTABLE
    num_iv, den_iv = family_grid_box(fam)
    for num, den in box_vertices(num_iv, den_iv):
        assert concrete_verdict(c, TransferFunction(num, den)).is_stable
    cex = verify_uncertainty(c, fam)
    assert cex is not None
    assert concrete_verdict(c, cex).status is Status.UNSTABLE
    for x in cex.num.coeffs + cex.den.coeffs:
        assert (x * DEFAULT_PLANT_FORMAT.scale).denominator == 1
    assert den_iv.coeffs[1].contains(cex.den.coeffs[1])
    # The witness is the first unstable grid point along the edge.
    previous = list(cex.den.coeffs)
    previous[1] -= DEFAULT_PLANT_FORMAT.step
    assert concrete_verdict(c, TransferFunction(cex.num, previous)).is_stable
    verdict = verify_precision(c, fam)
    assert verdict.status is Status.UNSTABLE and verdict.violated == "edge"


def test_vanishing_leading_coefficient_is_unstable():
    # The denominator's leading coefficient ranges over [-1, 3], so the
    # leading coefficient of S = Cd*Gd + Cn*Gn = a·z + 1/256 changes sign
    # over the box.  On the coarse plant grid (step 1/4) every plant has
    # its root at -1/(256a), inside the unit disc, so there is no witness;
    # but the members beside a = 0 have a root near infinity.
    plant = TransferFunction([Fraction(1, 4)], [1, 0])
    fam = PlantFamily(plant, delta_den=[2, 0],
                      plant_format=FixedPointFormat(4, 2))
    c = make_controller([Fraction(1, 64)], [1])
    assert verify_uncertainty(c, fam) is None
    verdict = verify_precision(c, fam)
    assert verdict.status is Status.UNSTABLE and verdict.violated == "lead"
    # Every candidate's S has the lead Cd·a, so the engine raises the plant
    # precision until the cap, and stops there without raising.
    result = cegis_two_stage(fam, F416, (0, 0), seed=1)
    assert result.reason == "precision-limit"
    assert result.plant_format == FixedPointFormat(32, 30)
    assert result.iterations == 16


def test_lead_sign_change_gives_grid_witness():
    # S = Gd = a·z - 1/2 with a in [-1, 3]: the grid plants beside a = 0
    # have a root far outside the unit circle.  The plant just below the
    # zero comes first.
    plant = TransferFunction([Fraction(1, 10)], [1, Fraction(-1, 2)])
    fam = PlantFamily(plant, delta_den=[2, 0],
                      plant_format=DEFAULT_PLANT_FORMAT)
    c = make_controller([0], [1])
    cex = verify_uncertainty(c, fam)
    assert cex.den.coeffs == (-DEFAULT_PLANT_FORMAT.step, Fraction(-1, 2))
    assert concrete_verdict(c, cex).status is Status.UNSTABLE
    num_iv, den_iv = family_grid_box(fam)
    assert cex.num.coeffs[0] == num_iv.coeffs[0].lo
    assert verify_precision(c, fam).status is Status.UNSTABLE
    # A vertex lead of zero: a in [0, 2]; the zero is at the low end.
    fam = PlantFamily(TransferFunction([1], [1, Fraction(1, 4)]),
                      delta_den=[1, 0], plant_format=DEFAULT_PLANT_FORMAT)
    cex = verify_uncertainty(make_controller([0], [1]), fam)
    assert cex.den.coeffs == (DEFAULT_PLANT_FORMAT.step, Fraction(1, 4))
    # The two-stage engine turns the witness into a counterexample: a plant
    # of the box that the iteration-1 candidate leaves unstable.
    result = cegis_two_stage(fam, F416, (0, 0), seed=1,
                             limits=Limits(max_iterations=3))
    first, cex = result.transcript[:2]
    assert cex["phase"] == "counterexample" and cex["iteration"] == 1
    candidate = Controller(
        [FixedPointValue(r, F416) for r in first["candidate"]["num_raw"]],
        [FixedPointValue(r, F416) for r in first["candidate"]["den_raw"]])
    plant = TransferFunction([Fraction(c) for c in cex["plant"]["num"]],
                             [Fraction(c) for c in cex["plant"]["den"]])
    assert concrete_verdict(candidate, plant).status is Status.UNSTABLE


def _fuzz_family(rng, fmt, near_edge_case):
    """A seeded random plant family and controller.  Some of them perturb
    the nominal-unstable instance above, whose one long edge leaves the
    stability region and comes back; the others are generic."""
    def jitter(*xs):
        return [x + Fraction(rng.randint(-20, 20), 1000) for x in xs]

    def coeff(k):
        return Fraction(rng.randint(-k, k), 1000)

    if near_edge_case:
        num = jitter(Fraction(1, 2), Fraction(-41, 64), Fraction(1, 4))
        den = [1] + jitter(Fraction(-73, 64), Fraction(31, 32),
                           Fraction(-13, 64))
        radii = [0] * 7
        radii[4] = Fraction(rng.randint(300, 600), 1000)
        radii[rng.choice((0, 1, 2, 3, 5, 6))] = Fraction(rng.randint(0, 20),
                                                         1000)
        c = make_controller(jitter(Fraction(-11, 64), Fraction(-1, 2),
                                   Fraction(21, 32)),
                            [1] + jitter(Fraction(-5, 4), Fraction(9, 16)))
    else:
        order = rng.randint(2, 4)
        den = random_stable_poly(rng, order)
        num = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 1000), 1000)
               for _ in range(rng.randint(1, order))]
        radii = [0] * (len(num) + order + 1)
        for i in rng.sample([i for i in range(len(radii)) if i != len(num)],
                            rng.randint(1, 3)):
            radii[i] = Fraction(rng.randint(1, 300), 1000)
        c = make_controller([coeff(100), coeff(100)], [1, coeff(100)])
    nn = len(num)
    return PlantFamily(TransferFunction(num, den), delta_num=radii[:nn],
                       delta_den=radii[nn:], plant_format=fmt), c


def test_box_verdict_soundness_fuzz():
    # Seeded random families whose box vertices are all stable but whose
    # interval verdict is Unknown, so that the edges decide.  Every Stable
    # must hold on 100 sampled members and densely along every edge; every
    # witness must be an unstable grid plant inside the box.
    rng = random.Random(2024)
    fmt = FixedPointFormat(8, 12)
    counts = {"edge-stable": 0, "edge-unstable": 0, "witness": 0}
    for i in range(160):
        fam, c = _fuzz_family(rng, fmt, i % 2 == 0)
        # Without a plant grid the verified box is the uncertainty box.
        num_iv, den_iv = family_to_interval_poly(fam.with_format(None))
        corners = [n + d for n, d in box_vertices(num_iv, den_iv)]
        nn = len(num_iv.coeffs)

        def stable(m):
            plant = TransferFunction(m[:nn], m[nn:])
            return jury_stable(char_poly(c, plant)).is_stable

        interval = jury_stable_interval(
            cegis_mod._interval_char_poly(c, num_iv, den_iv))
        if interval.status is not Status.UNKNOWN or not all(
                stable(m) for m in corners):
            continue
        verdict = verify_precision(c, fam.with_format(None))
        counts["edge-stable" if verdict.is_stable else "edge-unstable"] += 1
        if verdict.is_stable:
            boxes = num_iv.coeffs + den_iv.coeffs
            members = [[b.lo + b.width * Fraction(rng.randrange(1025), 1024)
                        for b in boxes] for _ in range(100)]
            for a, b in itertools.combinations(corners, 2):
                if sum(x != y for x, y in zip(a, b)) == 1:
                    members += [[x + (y - x) * Fraction(k, 16)
                                 for x, y in zip(a, b)] for k in range(1, 16)]
            for m in members:
                assert stable(m), (fam, c, m)
        cex = verify_uncertainty(c, fam)
        if cex is not None:
            counts["witness"] += 1
            assert concrete_verdict(c, cex).status is Status.UNSTABLE
            grid = family_grid_box(fam)
            for x, box in zip(cex.num.coeffs + cex.den.coeffs,
                              grid[0].coeffs + grid[1].coeffs):
                assert box.contains(x) and (x / fmt.step).denominator == 1
    assert min(counts.values()) >= 10, counts


def _sweep_cases(rng):
    """The fuzz families, without a plant grid (so the box is the
    uncertainty box), and families of order 4-6 with 4-9 uncertain
    coefficients, each with its controller and its kind."""
    fmt = FixedPointFormat(8, 12)
    cases = [((fam.with_format(None), c), "fuzz") for fam, c in (
        _fuzz_family(rng, fmt, i % 2 == 0) for i in range(160))]
    return cases + [(sweep_family(rng, (4, 6), (4, 9)), "order 4-6")
                    for _ in range(60)]


def test_sweep_proves_only_stable_boxes():
    # Differential check of the zero-exclusion sweep (also a section of
    # scripts/jury_oracle_agreement.py, over more families), on the fuzz
    # families and on families of order 4-6 with 4-9 uncertain
    # coefficients: every box it proves has no edge root by the segment
    # test and 100 sampled members inside the unit circle by the root
    # oracle, so it refuses every box with an unstable edge.
    rng = random.Random(2024)
    cases = _sweep_cases(rng)
    counts = {}
    for (fam, c), kind in cases:
        proved, (verdict, _) = sweep_and_edges(c, fam)
        if proved is None:
            continue
        key = (kind, "proved" if proved else
               f"refused edge-{verdict.status.value}")
        counts[key] = counts.get(key, 0) + 1
        if proved:
            assert verdict.is_stable, (fam, c)
            assert not unstable_members(rng, c, fam, 100), (fam, c)
    assert counts.get(("fuzz", "proved"), 0) >= 10, counts
    assert counts.get(("fuzz", "refused edge-Unstable"), 0) >= 10, counts
    assert counts.get(("order 4-6", "proved"), 0) >= 5, counts


def test_grid_box_shortcut_keeps_the_uncertainty_verdict(monkeypatch):
    # The uncertainty stage first tries the grid box by its centre, its lead
    # and the sweep, with no vertex scan.  With the sweep refusing, the
    # vertices, the lead and the edges decide: the stage returns the same
    # witness, or None, either way.
    counts = {"shortcut": 0, "witness": 0}
    for (fam, c), _ in _sweep_cases(random.Random(2024)):
        verdict, _ = cegis_mod._box_verdict(c, *family_grid_box(fam), None,
                                            fam.plant_format)
        counts["shortcut"] += verdict.settled_by == "sweep"
        swept = repr(verify_uncertainty(c, fam))
        counts["witness"] += swept != "None"
        with monkeypatch.context() as mp:
            mp.setattr(cegis_mod, "zero_excluded", lambda *args: False)
            assert repr(verify_uncertainty(c, fam)) == swept, (fam, c)
    assert min(counts.values()) >= 10, counts


def _grid_box_witness(c, fam):
    """The verdict of `_box_verdict` over the family's grid box, interval
    Jury included, and the uncertainty stage's answer read off it: None
    where it is Stable, else its unstable vertex or the first unstable grid
    plant at the positions its failing edges give."""
    verdict, evidence = cegis_mod._box_verdict(c, *family_grid_box(fam), None,
                                               fam.plant_format)
    if verdict.is_stable or isinstance(evidence, TransferFunction):
        return verdict, evidence or None
    for lo, hi, positions in evidence:
        for t in positions:
            num, den = ([x + (y - x) * t for x, y in zip(a, b)]
                        for a, b in zip(lo, hi))
            if any(den) and not concrete_verdict(
                    c, plant := TransferFunction(num, den)).is_stable:
                return verdict, plant
    return verdict, None


def test_grid_check_keeps_the_counterexample_of_the_full_grid_verdict(
        monkeypatch):
    # The uncertainty stage decides the grid box without interval Jury.  On
    # seeded families, with the sweep and with it refusing, it returns the
    # counterexample that `_box_verdict` over the grid box, interval Jury
    # included, gives as evidence, and None where that verdict is Stable:
    # also where interval Jury alone proves the box, the sweep refusing,
    # and the vertices and the edges decide in its place.
    rng = random.Random(31)
    cases = [case for case, _ in _sweep_cases(random.Random(2024))]
    cases += [_fuzz_family(rng, FixedPointFormat(8, 12), i % 2 == 0)
              for i in range(80)]
    counts = {"witness": 0, "Stable": 0, "interval only": 0}
    for refuse in (False, True):
        with monkeypatch.context() as mp:
            if refuse:
                mp.setattr(cegis_mod, "zero_excluded", lambda *args: False)
            for fam, c in cases:
                verdict, want = _grid_box_witness(c, fam)
                assert repr(verify_uncertainty(c, fam)) == repr(want), (fam, c)
                counts["witness"] += want is not None
                counts["Stable"] += verdict.is_stable
                counts["interval only"] += (refuse and
                                            verdict.settled_by == "interval")
    assert min(counts.values()) >= 10, counts
    # A grid box that interval Jury alone proves with the sweep as it is:
    # each denominator coefficient has 0 at an end, so one corner has no
    # plant, the lead test fails and the sweep is not tried.
    fam = PlantFamily(TransferFunction([1, 0], [1, Fraction(1, 4)]),
                      delta_den=[1, Fraction(1, 4)],
                      plant_format=FixedPointFormat(4, 4))
    c = make_controller([3], [1])
    box = family_grid_box(fam)
    assert _grid_box_witness(c, fam)[0].settled_by == "interval"
    assert not cegis_mod._box_proof(c, *box, None, interval=False)[0].is_stable
    assert verify_uncertainty(c, fam) is None


def test_concrete_verdict_is_exact_jury_of_the_closed_loop():
    # concrete_verdict decides the integer S of the controller's raws and
    # the integerized plant: status, label and margin are exact Jury's on
    # char_poly, and a zero S, as under the zero controller, is Unstable
    # with the search's penalty as margin.
    rng = random.Random(17)
    degenerate = stable = 0
    for k in range(600):
        fmt = rng.choice((FixedPointFormat(4, 8), F416))
        order = rng.randint(0, 3)
        limit = fmt.raw_limit // rng.choice((1, 8, 64))
        raws = [[rng.randrange(-limit + 1, limit) for _ in range(n)]
                for n in (rng.randint(1, order + 1), order + 1)]
        if k % 6 == 0:
            raws = [[0] * len(r) for r in raws]
        elif k % 2:
            raws[1][0] = fmt.scale
        c = Controller(*([FixedPointValue(r, fmt) for r in p] for p in raws))
        den = random_stable_poly(rng, rng.randint(1, 4), min_modulus=0.1,
                                 scale=rng.choice((1000, 4096)))
        plant = TransferFunction(
            [Fraction(rng.randint(-999, 999), rng.choice((1000, 7, 4096)))
             for _ in range(rng.randint(1, len(den) - 1))], den)
        try:
            want = jury_stable(char_poly(c, plant))
        except DegenerateCharPoly:
            want = JuryVerdict(Status.UNSTABLE, None, -cegis_mod._BIG_PENALTY)
            degenerate += 1
        assert concrete_verdict(c, plant) == want, (c, plant)
        stable += want.is_stable
    assert degenerate >= 100 and stable >= 50, (degenerate, stable)


def test_sign_test_builds_one_query_per_denominator(monkeypatch):
    # The two-stage run keeps each counterexample denominator's Tarski
    # query, with its root counts, for the rest of the run.
    built = []

    def tarski_queries(p, ends):
        built.append(p)
        return real(p, ends)

    real = cegis_mod.tarski_queries
    monkeypatch.setattr(cegis_mod, "tarski_queries", tarski_queries)
    fam = cruise_family(delta_num=[Fraction(1, 2)],
                        delta_den=[0, Fraction(1, 2)])
    result = cegis_two_stage(fam, F416, (2, 2), seed=1)
    assert (result.reason, result.iterations) == ("no-candidate", 3)
    assert built == [CRUISE_UNCERTAIN_CEX[0].den]


def test_grid_box_shortcut_needs_a_strict_lead_and_a_plant_at_every_corner():
    # Two boxes with a stable centre whose value set keeps 0 outside on the
    # unit circle, which the shortcut must still leave to the full path.
    # S = (1 - n0)·z + 2 over n0 in [0, 2] has a zero lead at its centre,
    # so every other member has its root outside the circle: the vertex
    # plants are witnesses.
    fam = PlantFamily(TransferFunction([1, -2], [1, 0]), delta_num=[1, 0],
                      plant_format=FixedPointFormat(8, 8))
    c = make_controller([-1], [1])
    cex = verify_uncertainty(c, fam)
    assert cex is not None
    assert concrete_verdict(c, cex).status is Status.UNSTABLE
    # A denominator box with a corner at zero, where there is no plant:
    # Unstable ("lead"), on the grid box and the inflated box alike.
    den = [Fraction(1, 25), Fraction(3, 50)]
    fam = PlantFamily(TransferFunction([Fraction(31, 50), Fraction(2, 5)],
                                       den), delta_den=den)
    c = make_controller([Fraction(-3, 2), Fraction(-51, 128)],
                        [Fraction(-115, 64), Fraction(-87, 64)])
    for box in (family_grid_box(fam), family_to_interval_poly(fam)):
        verdict, _ = cegis_mod._box_verdict(c, *box, None)
        assert verdict.status is Status.UNSTABLE and verdict.violated == "lead"


def test_vertex_polynomials_read_off_the_affine_form(monkeypatch):
    # Every vertex S that the box verdict hands to exact Jury, read off the
    # centre and generators as S_c ± g_i, is closed_loop_coeffs of the
    # controller's raws and that corner's plant coefficients, both scaled
    # to integers by twice the common denominator of the box ends.  With
    # the sweep refusing, every box that interval Jury leaves open reaches
    # the vertex scan, which the edge scan is stopped past; S_c, where
    # exact Jury tries it first, is skipped.
    class EdgeScan(Exception):
        pass

    def stop(p0, p1):
        raise EdgeScan

    monkeypatch.setattr(cegis_mod, "zero_excluded", lambda *args: False)
    monkeypatch.setattr(cegis_mod, "segment_chain", stop)
    rng = random.Random(7)
    spec = parse_benchmark(FOURTH_ORDER)
    boxes = [(family_to_interval_poly(
        spec.family.with_format(DEFAULT_PLANT_FORMAT)),
        cegis_mod._controller_from_raws(
            cegis_mod.placement_starts(spec.family.nominal,
                                       spec.controller_format,
                                       spec.controller_orders)[0],
            spec.controller_format, spec.controller_orders))]
    boxes += [(family_to_interval_poly(fam), c) for fam, c in (
        _fuzz_family(rng, FixedPointFormat(8, 12), i % 2 == 0)
        for i in range(40))]
    checked = 0
    for (num_iv, den_iv), c in boxes:
        seen = []
        monkeypatch.setattr(cegis_mod, "jury_stable",
                            lambda s: seen.append(list(s)) or jury_stable(s))
        with contextlib.suppress(EdgeScan):
            cegis_mod._box_verdict(c, num_iv, den_iv, None)
        coeffs = num_iv.coeffs + den_iv.coeffs
        scale = 2 * math.lcm(*(x.denominator for b in coeffs
                               for x in (b.lo, b.hi)))
        nn = len(num_iv.coeffs)

        def s_of(plant):
            plant = [int(x * scale) for x in plant]
            return cegis_mod.closed_loop_coeffs(
                [v.raw for v in c.num], plant[:nn], [v.raw for v in c.den],
                plant[nn:], 0)

        if seen and seen[0] == s_of([b.midpoint for b in coeffs]):
            seen = seen[1:]
        for s, (num, den) in zip(seen, box_vertices(num_iv, den_iv)):
            assert s == s_of(num + den)
            checked += 1
    assert checked >= 1000


def test_box_verdict_reads_each_vertex_as_it_reaches_it():
    # An order-8 plant with one pole at 1.05 and every coefficient
    # uncertain but the monic lead: 2^16 vertices on the grid box, 2^17 on
    # the inflated box, and the zero controller leaves vertex 0 unstable.
    # Both stages stop there, holding no list of vertices, well inside a
    # deadline that a build of every vertex first overran.
    rng = random.Random(8)
    den = num = [1]
    for pole in [Fraction(105, 100)] + [
            Fraction(rng.randint(-80, 80), 100) for _ in range(7)]:
        den = convolve(den, [1, -pole], 0)
    for zero in (Fraction(rng.randint(-50, 50), 100) for _ in range(7)):
        num = convolve(num, [1, -zero], 0)
    fam = PlantFamily(TransferFunction([x / 100 for x in num], den),
                      delta_num=[Fraction(1, 1000)] * 8,
                      delta_den=[0] + [Fraction(2, 1000)] * 8,
                      plant_format=DEFAULT_PLANT_FORMAT)
    c = make_controller([0] * 9, [1] + [0] * 8, FixedPointFormat(6, 12))
    num_iv, den_iv = family_grid_box(fam)
    assert sum(b.lo != b.hi for b in num_iv.coeffs + den_iv.coeffs) == 16
    for stage in (verify_uncertainty, verify_precision):
        tracemalloc.start()
        try:
            found = stage(c, fam, deadline=time.perf_counter() + 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, (stage.__name__, peak)
        if stage is verify_uncertainty:
            assert found == TransferFunction(
                [b.lo for b in num_iv.coeffs], [b.lo for b in den_iv.coeffs])
        else:
            assert found.status is Status.UNSTABLE


LEAD_ON_A_FACE = PlantFamily(TransferFunction([2, 0], [1, 0]),
                             delta_num=[0, 1], delta_den=[1, 0],
                             plant_format=FixedPointFormat(8, 8))


def test_lead_step_reads_the_lead_off_the_vertices_with_a_plant():
    # S = (a - 2)·z - n1 over a in [0, 2], n1 in [-1, 1]: the corners at
    # a = 0 have no plant, and the lead a - 2 vanishes on the face a = 2.
    # The two edges from a = 0 to a = 2 straddle that zero; the grid point
    # just short of it, a = 511/256, has a plant.
    fam = LEAD_ON_A_FACE
    c = make_controller([-1], [1])
    verdict, failing = cegis_mod._box_verdict(
        c, *family_grid_box(fam), None, fam.plant_format)
    assert verdict == JuryVerdict(Status.UNSTABLE, "lead", Fraction(0),
                                  "vertices")
    assert failing == [(((2, n1), (0, 0)), ((2, n1), (2, 0)),
                        [Fraction(511, 512)]) for n1 in (-1, 1)]


def test_verify_uncertainty_returns_the_unstable_plant_beside_a_lead_face():
    # The grid plant beside the face where the lead of S vanishes, reached
    # by an edge whose low corner has no plant: S = -z/256 + 1, a root at
    # 256.
    c = make_controller([-1], [1])
    plant = verify_uncertainty(c, LEAD_ON_A_FACE)
    assert plant == TransferFunction([2, -1], [Fraction(511, 256), 0])
    assert concrete_verdict(c, plant).violated == "R1"


FOURTH_ORDER = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"
                   / "fixtures" / "fourth_order.bench")


def _restart_candidate():
    """The candidate that the random-restart search accepted last on
    fourth_order.bench with seed 8, before the placement starts."""
    fmt = FixedPointFormat(6, 12)
    return Controller(
        [FixedPointValue(r, fmt) for r in [874, -63403, 19622, -44426, 72265]],
        [FixedPointValue(r, fmt)
         for r in [201908, -76808, -29447, -43915, 17775]])


def _no_edges(p0, p1):
    raise AssertionError("an edge was scanned")


def test_sweep_certifies_fourth_order_without_edges(monkeypatch):
    # The sweep proves the restart candidate's grid box and inflated box,
    # so no box edge is scanned, and the certificate says so, with no
    # margin.
    fam = parse_benchmark(FOURTH_ORDER).family.with_format(
        DEFAULT_PLANT_FORMAT)
    c = _restart_candidate()
    monkeypatch.setattr(cegis_mod, "segment_chain", _no_edges)
    assert verify_uncertainty(c, fam) is None
    verdict = verify_precision(c, fam)
    assert verdict == JuryVerdict(Status.STABLE, None, None, "sweep")


def _fourth_order_stage(monkeypatch, stage):
    """What `stage` returns on fourth_order.bench at <16,24>, with the
    number of exact Jury calls it makes, for seed 8's final controller and
    for the restart candidate; no box edge may be scanned."""
    spec = parse_benchmark(FOURTH_ORDER)
    result = cegis_two_stage(spec.family, spec.controller_format,
                             spec.controller_orders, 8, Limits(timeout_s=60))
    assert result.success and result.plant_format == DEFAULT_PLANT_FORMAT
    calls = []
    monkeypatch.setattr(cegis_mod, "segment_chain", _no_edges)
    monkeypatch.setattr(cegis_mod, "jury_stable",
                        lambda s: calls.append(s) or jury_stable(s))
    fam = spec.family.with_format(DEFAULT_PLANT_FORMAT)
    seen = []
    for c in (result.controller, _restart_candidate()):
        calls.clear()
        seen.append((stage(c, fam), len(calls)))
    return seen


def test_grid_box_of_fourth_order_takes_one_exact_jury(monkeypatch):
    # The centre, the lead and the sweep prove the grid box, with exact
    # Jury of S_c alone and no vertex or edge scanned.
    assert _fourth_order_stage(monkeypatch, verify_uncertainty) == [
        (None, 1)] * 2


def test_inflated_box_of_fourth_order_takes_one_exact_jury(monkeypatch):
    # Interval Jury leaves the inflated box open; the centre, the lead and
    # the sweep prove it as they prove the grid box, with exact Jury of S_c
    # alone where a vertex scan would take 512 calls.
    stable = JuryVerdict(Status.STABLE, None, None, "sweep")
    assert _fourth_order_stage(monkeypatch, verify_precision) == [
        (stable, 1)] * 2


def test_inflated_box_shortcut_keeps_the_precision_verdict(monkeypatch):
    # Differential check of the precision stage on the sweep families'
    # inflated boxes: with the sweep refusing, the vertices, the lead and
    # the edges give the same status, and every box proven with no vertex
    # has no unstable member among 100 sampled by the root oracle.
    rng = random.Random(2024)
    shortcuts = 0
    for (fam, c), _ in _sweep_cases(rng):
        verdict = verify_precision(c, fam)
        with monkeypatch.context() as mp:
            mp.setattr(cegis_mod, "zero_excluded", lambda *args: False)
            assert verify_precision(c, fam).status is verdict.status, (fam, c)
        if verdict.settled_by == "sweep":
            shortcuts += 1
            assert not unstable_members(rng, c, fam, 100), (fam, c)
    assert shortcuts >= 10, shortcuts


def test_proven_inflated_box_settles_both_stages():
    # The two-stage loop first tries the proving steps on the inflated box,
    # and where they prove it records both stages as passed: the grid box
    # lies inside the inflated box, so the uncertainty stage finds no
    # witness, and the precision stage gives the same certificate.  The
    # sweep families are also checked on a plant grid, where the grid box
    # is snapped inward and the inflated box widened.
    spec = parse_benchmark(FOURTH_ORDER)
    fam = spec.family.with_format(DEFAULT_PLANT_FORMAT)
    cases = [(fam, cegis_mod._controller_from_raws(
        raws, spec.controller_format, spec.controller_orders))
        for raws in cegis_mod.placement_starts(
            spec.family.nominal, spec.controller_format,
            spec.controller_orders)] + [(fam, _restart_candidate())]
    for (fam, c), _ in _sweep_cases(random.Random(2024)):
        cases += [(fam, c), (fam.with_format(FixedPointFormat(8, 12)), c)]
    proven = {"interval": 0, "sweep": 0}
    for fam, c in cases:
        proof = cegis_mod._box_proof(c, *family_to_interval_poly(fam), None)
        if not proof[0].is_stable:
            continue
        proven[proof[0].settled_by] += 1
        assert verify_uncertainty(c, fam) is None, (fam, c)
        assert verify_precision(c, fam) == proof[0], (fam, c)
        assert verify_precision(c, fam, None, proof) == proof[0]
    assert min(proven.values()) >= 10, proven


def test_solve_finds_a_solution_or_none():
    # Consistent systems, square, over- and underdetermined and often rank-
    # deficient, are solved exactly; a system made inconsistent has none.
    rng = random.Random(9)
    inconsistent = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        x = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
             for _ in range(n)]
        a = [[rng.randint(-3, 3) for _ in range(n)]
             for _ in range(rng.randint(1, n + 2))]
        if len(a) > 2 and rng.random() < 0.5:
            a[-1] = [2 * u - v for u, v in zip(a[0], a[1])]
        den = math.lcm(*(v.denominator for v in x))
        b = [int(sum(map(operator.mul, row, x)) * den) for row in a]
        rows = [[den * v for v in row] + [y] for row, y in zip(a, b)]
        got = solve(rows)
        assert all(isinstance(v, Fraction) for v in got)
        assert [sum(map(operator.mul, row, got)) for row in a] == [
            sum(map(operator.mul, row, x)) for row in a]
        # A row that repeats another with a different right-hand side.
        k = rng.randrange(len(rows))
        bad = solve(rows + [rows[k][:-1] + [rows[k][-1] + 1]])
        inconsistent += bad is None
    assert inconsistent == 200
    # Free unknowns are 0; a contradiction has no solution.
    assert solve([[2, 1, 3]]) == [Fraction(3, 2), 0]
    assert solve([[0, 0, 1]]) is None
    assert solve([[1, 1], [2, 3]]) is None


def test_placement_starts_place_the_nominal_poles():
    # Unrounded, the placement for radius r makes the nominal closed loop a
    # multiple of (z - r)^8; rounded to <6,12>, every start still keeps
    # fourth-order's nominal loop inside the unit circle.
    spec = parse_benchmark(FOURTH_ORDER)
    nominal = spec.family.nominal
    starts = cegis_mod.placement_starts(nominal, spec.controller_format,
                                        spec.controller_orders)
    assert len(starts) == 4
    for raws in starts:
        assert max(map(abs, raws)) in (spec.controller_format.raw_limit - 1,
                                       spec.controller_format.raw_limit // 4)
        c = cegis_mod._controller_from_raws(raws, spec.controller_format,
                                            spec.controller_orders)
        assert root_oracle(char_poly(c, nominal)) < 0.7
    fine = FixedPointFormat(8, 56)
    for raws, r in zip(cegis_mod.placement_starts(nominal, fine, (4, 4))[::2],
                       cegis_mod.PLACEMENT_RADII):
        c = cegis_mod._controller_from_raws(raws, fine, (4, 4))
        s = char_poly(c, nominal).coeffs
        assert [float(x / s[0]) for x in s] == pytest.approx(
            [math.comb(8, k) * float(-r) ** k for k in range(9)], abs=1e-12)


def test_two_stage_solves_fourth_order_from_a_placement_start():
    # The origin's climb fails against the first counterexample, and the
    # first placement start is accepted and certified on both boxes: every
    # seed takes two iterations.
    spec = parse_benchmark(FOURTH_ORDER)
    first = cegis_mod.placement_starts(spec.family.nominal,
                                       spec.controller_format,
                                       spec.controller_orders)[0]
    for seed in (1, 2, 4, 8):
        result = cegis_two_stage(spec.family, spec.controller_format,
                                 spec.controller_orders, seed,
                                 Limits(timeout_s=60))
        assert result.success and result.iterations == 2
        assert [v.raw for v in result.controller.num
                + result.controller.den] == first


def test_lead_verdicts_have_unstable_members():
    # Differential check of the "lead" verdict (also a section of
    # scripts/jury_oracle_agreement.py, over more families): S loses degree
    # on its failing edges, so on at least one of them the members beside
    # the zero of its lead are unstable, by exact Jury and the root oracle.
    rng = random.Random(2026)
    leads = 0
    for _ in range(60):
        fam, c = lead_family(rng)
        verdict = verify_precision(c, fam)
        if verdict.violated != "lead":
            continue
        leads += 1
        assert verdict.status is Status.UNSTABLE
        _, edges = cegis_mod._box_verdict(c, *family_to_interval_poly(fam),
                                          None)
        assert any(unstable_beside_lead_zero(c, lo, hi)
                   for lo, hi, _ in edges), (fam, c)
    assert leads >= 20, leads


def test_uncertainty_stage_honours_deadline(monkeypatch):
    fam, c = _interval_unknown_case()
    for stage in (verify_uncertainty, verify_precision):
        with pytest.raises(DeadlineExceeded):
            stage(c, fam, deadline=time.perf_counter() - 1)
    assert verify_uncertainty(c, fam, deadline=None) is None
    # The two-stage engine hands its own deadline to both stages, and to
    # the proving steps it tries on the inflated box first.
    seen = []

    def spy(real, at):  # `at`: the deadline's position
        def stage(*args, **kwargs):
            seen.append((real.__name__, args[at]))
            return real(*args, **kwargs)
        return stage

    for name, at in (("_box_proof", 3), ("verify_uncertainty", 2),
                     ("verify_precision", 2)):
        monkeypatch.setattr(cegis_mod, name,
                            spy(getattr(cegis_mod, name), at))
    assert cegis_two_stage(cruise_family(), F416, (2, 2), seed=1234).success
    assert {name for name, _ in seen} == {"_box_proof", "verify_uncertainty",
                                          "verify_precision"}
    assert all(d is not None for _, d in seen)


def test_lead_step_checks_the_deadline_at_every_edge(monkeypatch):
    # The inflated box of a family whose denominator lead runs through
    # zero: three uncertain coefficients, eight stable vertices, then the
    # lead step over all twelve edges, each after a deadline check.
    fam = PlantFamily(TransferFunction([Fraction(1, 4)], [1, 0]),
                      delta_den=[2, 0], plant_format=FixedPointFormat(4, 2))
    c = make_controller([Fraction(1, 64)], [1])
    checks = []
    monkeypatch.setattr(cegis_mod, "check_deadline", checks.append)
    verdict = verify_precision(c, fam, deadline=time.perf_counter() + 60)
    assert verdict.violated == "lead"
    assert len(checks) == 8 + 12


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

    def flaky(candidate, family, deadline=None, proof=None):
        calls.append(family.plant_format)
        if len(calls) == 1:
            verdict = real_verify(candidate, family, deadline, proof)
            return type(verdict)(Status.UNKNOWN, "R4", Fraction(0))
        return real_verify(candidate, family, deadline, proof)

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
    def never(candidate, family, deadline=None, proof=None):
        from dcsynth.stability import JuryVerdict
        return JuryVerdict(Status.UNKNOWN, "R4", Fraction(0))

    monkeypatch.setattr(cegis_mod, "verify_precision", never)
    result = cegis_mod.cegis_two_stage(
        cruise_family(), F416, (2, 2), seed=1234,
        limits=Limits(max_precision=FixedPointFormat(16, 24)))
    assert not result.success
    assert result.reason == "precision-limit"


def test_escalation_past_64_bits_reports_precision_limit(monkeypatch):
    # <30,30> escalates to 68 bits, more than a format holds: the engine
    # compares the bits with the cap before it builds the format.
    monkeypatch.setattr(cegis_mod, "verify_precision", lambda *args: (
        JuryVerdict(Status.UNSTABLE, "lead", Fraction(0))))
    fam = cruise_family().with_format(FixedPointFormat(30, 30))
    result = cegis_two_stage(fam, F416, (2, 2), seed=1234)
    assert result.reason == "precision-limit"
    assert result.plant_format == FixedPointFormat(30, 30)
    assert result.transcript[-1] == {"phase": "increase-precision",
                                     "iteration": result.iterations,
                                     "plant_format": "<34,34>"}


@pytest.mark.parametrize("engine", [cegis_two_stage, cegis_one_stage])
@pytest.mark.parametrize("orders", [(2, 1), (-1, 0)])
def test_engines_reject_noncausal_orders(engine, orders):
    with pytest.raises(ValueError, match="numerator order <= denominator"):
        engine(cruise_family(), F416, orders, seed=1)


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
    fam = PlantFamily(SHARED_UNSTABLE_FACTOR,
                      plant_format=DEFAULT_PLANT_FORMAT)
    for engine in (cegis_two_stage, cegis_one_stage):
        result = engine(fam, F416, (2, 2), seed=1,
                        limits=Limits(timeout_s=0.05))
        assert not result.success and result.reason == "timeout", engine
    # cruise_uncertain's family: its first two counterexamples fail the
    # sign test, so the two-stage run ends before its third search.
    fam = cruise_family(delta_num=[Fraction(1, 2)],
                        delta_den=[0, Fraction(1, 2)])
    result = cegis_two_stage(fam, F416, (2, 2), seed=1,
                             limits=Limits(timeout_s=0.05))
    assert (result.reason, result.iterations) == ("no-candidate", 3)


def test_failure_past_the_deadline_reports_timeout(monkeypatch):
    # A search that fails once the deadline has passed, for whatever
    # reason, ends the run as a timeout in both engines.
    def grid_search(*args, deadline=None, **kw):
        while time.perf_counter() <= deadline:
            time.sleep(0.001)
        raise NoCandidate("spent")

    monkeypatch.setattr(cegis_mod, "_grid_search", grid_search)
    for engine in (cegis_two_stage, cegis_one_stage):
        result = engine(cruise_family(), F416, (2, 2), seed=1,
                        limits=Limits(timeout_s=0.02))
        assert not result.success and result.reason == "timeout", engine


def test_one_stage_success_and_zero_budget_timeout():
    result = cegis_one_stage(cruise_family(), F416, (2, 2), seed=1234,
                             limits=Limits())
    assert result.success
    assert result.certificate.status is Status.STABLE
    timed_out = cegis_one_stage(cruise_family(), F416, (2, 2), seed=1234,
                                limits=Limits(timeout_s=0.0))
    assert not timed_out.success and timed_out.reason == "timeout"


def test_one_stage_decides_its_certificate_once(monkeypatch):
    # Interval Jury runs once per point the search evaluates with a nonzero
    # denominator lead, under the run's deadline, and the verdict that
    # accepted the controller is its certificate.
    points, calls = [], []
    search, interval_jury = cegis_mod._grid_search, jury_stable_interval

    def counted_search(n_coeffs, fmt, seed, budget, evaluate, num_len, **kw):
        def counted(raws):
            if raws[num_len] != 0:
                points.append(raws)
            return evaluate(raws)
        return search(n_coeffs, fmt, seed, budget, counted, num_len, **kw)

    def spy(*args):
        calls.append(args)
        return interval_jury(*args)

    monkeypatch.setattr(cegis_mod, "_grid_search", counted_search)
    monkeypatch.setattr(cegis_mod, "jury_stable_interval", spy)
    fam = cruise_family(delta_num=[Fraction("0.0132")],
                        delta_den=[0, Fraction("0.05")])
    result = cegis_one_stage(fam, F416, (2, 2), seed=7)
    assert result.success and len(calls) == len(points) > 1
    assert all(len(args) == 2 and args[1] is not None for args in calls)
    assert result.certificate == replace(interval_jury(calls[-1][0]),
                                         settled_by="interval")


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


def test_failure_on_unstabilizable_family(monkeypatch):
    # The second counterexample fails the sign test against the first: the
    # third iteration ends the run in place of its search.
    searches = []
    search = cegis_mod.synthesize_candidate

    def counted(*args, **kw):
        searches.append(args[0][:])
        return search(*args, **kw)

    monkeypatch.setattr(cegis_mod, "synthesize_candidate", counted)
    fam = cruise_family(delta_num=[Fraction(1, 2)],
                        delta_den=[0, Fraction(1, 2)])
    result = cegis_two_stage(fam, F416, (2, 2), seed=1,
                             limits=Limits(max_iterations=4,
                                           synth_budget=3000))
    assert not result.success
    assert (result.reason, result.iterations) == ("no-candidate", 3)
    assert [len(inputs) for inputs in searches] == [0, 1]
    assert [e["phase"] for e in result.transcript] == [
        "synthesize", "counterexample"] * 2
