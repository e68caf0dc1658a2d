"""Synthesis orchestrator: inductive candidate search against a counterexample
set, two-stage verification, plant-precision escalation; plus the sound
one-stage engine.

Each stage decides a box of plants by `_box_verdict`: interval Jury, except
on the grid box; then the sign of the lead of S, exact Jury of the box centre
and the zero-exclusion sweep, with no vertex (`_box_proof`); then, where one
of those refuses, exact Jury of the vertices, the lead (where its sign test
failed) or the edges, walked one at a time with none kept, all on the box
ends as integers over one denominator (`IntervalPoly.ends`).  The two-stage
loop builds the inflated box and the grid box once per plant format, and
runs `_box_proof` on the inflated box first: the grid box lies inside it, so
a proof passes both stages.  Else it checks the grid box, then finishes the
inflated box's verdict from that proof attempt.  The one-stage engine's
certificate is the interval Jury verdict that accepted its controller.

The candidate search is deterministic seeded hill climbing over the <I,F>
coefficient grid with restarts, run one at a time, falling back to
exhaustive enumeration when the grid is small enough to sweep.  Its budget
counts climb steps, some of which the climb knows the answer to and does
not evaluate; no restart evaluates a point past it.  In the two-stage
engine the restarts start at the origin, then at pole-placement
controllers for the nominal plant, placed once per run when first needed,
then at seeded random points.

Both engines first look for a member of the family's box with a fixed
mode (`_fixed_mode`), a root on or outside the unit circle of every closed
loop: where they find one, no controller exists, and the run ends
`no-candidate` at iteration 0, before any box is built or searched.
Before each search, the two-stage loop runs a sign test on the newest
counterexample (`_sign_obstructed`): where it proves that no controller
the search can accept stabilizes it together with an earlier one, the run
ends `no-candidate` in place of a search that could only fail.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (DeadlineExceeded, DegenerateCharPoly, NoCandidate,
                     check_deadline)
from .fixedpoint import FixedPointFormat, FixedPointValue
from .intervals import (IntervalPoly, family_grid_box,
                        family_to_interval_poly, ipoly_add, ipoly_mul)
from .stability import (JuryVerdict, Status, has_root, jury_conditions,
                        jury_stable, jury_stable_interval, root_bound,
                        segment_chain, solve, sturm_chain, tarski_queries,
                        zero_excluded)
# char_poly is not called here; perfbench's tracer binds dcsynth.cegis's.
from .transfer import (Controller, PlantFamily, Poly, TransferFunction,
                       char_poly, closed_loop_coeffs, convolve, integerize,
                       poly_mul, poly_roots)

DEFAULT_PLANT_FORMAT = FixedPointFormat(16, 24)
PRECISION_STEP = (4, 4)
PRECISION_CAP = FixedPointFormat(32, 32)
EXHAUSTIVE_LIMIT = 1 << 20
PLACEMENT_RADII = (Fraction(1, 5), Fraction(2, 5))  # closed-loop pole radii
PLACEMENT_FILL = (1, 4)  # a start's largest raw is the limit over these

_BIG_PENALTY = Fraction(10 ** 6)


@dataclass
class Limits:
    max_iterations: int = 64
    max_precision: FixedPointFormat = PRECISION_CAP
    timeout_s: float = 600.0
    synth_budget: int = 60000


@dataclass
class SynthesisResult:
    success: bool
    controller: Controller | None
    plant_format: FixedPointFormat | None
    iterations: int
    wall_time_s: float
    reason: str | None
    certificate: JuryVerdict | None
    transcript: list = field(default_factory=list)


def _check_orders(orders):
    """Raises ValueError unless 0 <= numerator order <= denominator order:
    the engines certify only causal controllers."""
    if not 0 <= orders[0] <= orders[1]:
        raise ValueError(f"controller orders {tuple(orders)} must satisfy "
                         "0 <= numerator order <= denominator order")


def _controller_from_raws(raws, fmt: FixedPointFormat, orders) -> Controller:
    m = orders[0] + 1
    return Controller([FixedPointValue(r, fmt) for r in raws[:m]],
                      [FixedPointValue(r, fmt) for r in raws[m:]])


def concrete_verdict(candidate: Controller, plant: TransferFunction) -> JuryVerdict:
    """Exact Jury verdict of the closed loop; a degenerate S counts as
    unstable.  Decided on the integer S of the controller's raws and the
    plant's coefficients times their least integerizer d: S times scale·d."""
    nn = len(plant.num.coeffs)
    g, d = integerize(plant.num.coeffs + plant.den.coeffs)
    return _scaled_verdict(
        closed_loop_coeffs([v.raw for v in candidate.num], g[:nn],
                           [v.raw for v in candidate.den], g[nn:], 0),
        candidate.format.scale * d)


def _grid_search(n_coeffs, fmt, seed, budget, evaluate, num_len,
                 deadline=None, starts=lambda: ()):
    """Deterministic seeded hill climbing with restarts over raw-integer
    coordinates; returns an accepted raw vector, or raises NoCandidate, or
    DeadlineExceeded past the `deadline`.

    evaluate(raws) -> (accepted, cost) for a tuple of raws; cost 0.0 only
    for accepted points.  The restarts run one at a time.  The budget
    counts climb steps (see `_climb`): every step counts, also one whose
    answer the climb already knows and so does not evaluate, and a point is
    evaluated only while the steps up to it fit the budget.  The first
    restart starts at the origin, the next ones at the points `starts()`
    gives, called only once the origin has failed, then at seeded random
    points.  Once the budget is spent, only the exhaustive sweep of a grid
    of at most EXHAUSTIVE_LIMIT points runs, in product order.  The climbs
    never step the denominator leading raw (index num_len) to zero and the
    sweep skips such points, but the origin probe and its climb start at
    zero: `evaluate` must penalize those points.
    """
    limit = fmt.raw_limit
    pool = _start_pool(random.Random(seed), n_coeffs, num_len, limit,
                       fmt.scale, starts)
    used = 0  # climb steps taken
    while used < budget:
        accepted, steps = _climb(next(pool), n_coeffs, num_len, limit,
                                 evaluate, budget - used, deadline)
        if accepted is not None:
            return accepted
        used += steps

    # Exhaustive sweep is feasible only for tiny grids; it turns a failed
    # search into a proof that no candidate exists.
    if (2 * limit - 1) ** n_coeffs <= EXHAUSTIVE_LIMIT:
        for raws in itertools.product(range(-limit + 1, limit),
                                      repeat=n_coeffs):
            if raws[num_len] != 0:
                check_deadline(deadline)
                if evaluate(raws)[0]:
                    return raws
        raise NoCandidate(f"no controller on the {fmt} grid stabilizes the "
                          "inputs")
    raise NoCandidate(f"search budget of {budget} evaluations exhausted")


def _climb(raws, n_coeffs, num_len, limit, evaluate, room, deadline):
    """One restart of the coordinate climb from `raws`, `room` >= 1 steps
    at most: evaluates each point while the steps up to it fit the room,
    checking the deadline before each, and returns the accepted point, or
    None once the step has shrunk below 1 or the room is spent, with the
    steps taken.  A step is one point: the start, or a neighbour inside
    the grid, tried in turn.  A pass that moves starts over at the same
    step, and its coordinates after the last move were tried from the
    point it ended on, with neither neighbour improving: until the next
    pass moves, their neighbours count as steps but are not evaluated
    again."""
    check_deadline(deadline)
    accepted, cost = evaluate(tuple(raws))
    if accepted:
        return tuple(raws), 1
    step = max(1, limit >> 2)
    known = n_coeffs  # coordinates from here on tried from `raws` at `step`
    steps = 1
    while step >= 1:
        moved = -1  # the coordinate of this pass's last move
        for i in range(n_coeffs):
            for delta in (step, -step):
                cand = list(raws)
                cand[i] += delta
                if abs(cand[i]) >= limit:
                    continue
                if i == num_len and cand[i] == 0:
                    continue
                steps += 1
                if moved < 0 and i >= known:
                    continue
                if steps > room:
                    return None, steps
                check_deadline(deadline)
                a, c = evaluate(tuple(cand))
                if a:
                    return tuple(cand), steps
                if c < cost:
                    raws, cost = cand, c
                    moved = i
                    break
        if moved < 0:
            step >>= 1
            known = n_coeffs
        else:
            known = moved + 1
    return None, steps


def _start_pool(rng, n_coeffs, num_len, limit, one, first):
    """Deterministic sequence of restart points (generator, budget-bounded)."""
    # Probe the origin first, then the points first() gives, then seeded
    # random restarts at varied magnitudes.
    yield [0] * n_coeffs
    yield from map(list, first())
    while True:
        scale_bits = rng.choice((1, 2, 4))
        hi = max(2, limit // scale_bits)
        raws = [rng.randrange(-hi + 1, hi) for _ in range(n_coeffs)]
        if raws[num_len] == 0:
            raws[num_len] = one
        yield raws


def placement_starts(nominal: TransferFunction, fmt: FixedPointFormat,
                     orders) -> list:
    """Raw start points by pole placement on the `nominal` plant (Astrom &
    Wittenmark, polynomial design).  For each radius r in PLACEMENT_RADII,
    the Sylvester system Cn*Gn + Cd*Gd = c*(z - r)^deg S, with Cd's lead 1
    and any free coefficient 0, is solved exactly on integer rows by
    `stability.solve`; the solution is scaled so that its largest raw is
    the format's limit over each PLACEMENT_FILL, and rounded.  Guidance
    only: the search accepts a start, like any point, only by the exact
    verdict."""
    m = orders[0] + 1
    n_coeffs = m + orders[1] + 1
    units = [[int(j == i) for j in range(n_coeffs)] for i in range(n_coeffs)]
    # Integer rows: the plant times its common denominator, and the target
    # (z - r)^deg S times r's denominator^deg S.
    nn = len(nominal.num.coeffs)
    plant, _ = integerize(nominal.num.coeffs + nominal.den.coeffs)
    num, den = plant[:nn], plant[nn:]
    columns = [closed_loop_coeffs(u[:m], num, u[m:], den, 0) for u in units]
    limit = fmt.raw_limit - 1
    starts = []
    for r in PLACEMENT_RADII:
        target = [1]
        for _ in range(len(columns[0]) - 1):
            target = convolve(target, [r.denominator, -r.numerator], 0)
        rows = [[col[k] for col in columns] + [-t, 0]
                for k, t in enumerate(target)]
        x = solve(rows + [units[m] + [0, 1]])
        if x is None or x[-1] == 0:
            continue
        big = max(abs(v) for v in x[:-1])
        for fill in PLACEMENT_FILL:
            raws = [round(v * limit / (fill * big)) for v in x[:-1]]
            if raws[m] != 0 and raws not in starts:
                starts.append(raws)
    return starts


def synthesize_candidate(inputs, controller_format: FixedPointFormat, orders,
                         seed: int, budget: int, deadline=None,
                         starts=lambda: ()) -> Controller:
    """Find a controller whose closed loop is exactly Jury-stable against
    every plant in `inputs` (with none, the origin, the first point tried)
    by `_grid_search`'s restarts, one at a time within `budget` climb
    steps; those after the origin's start at the raw points `starts()`
    gives, called only once the origin's climb has failed.  Float Jury
    margins of the closed loops guide each point, and only their exact
    verdicts accept it.  Raises NoCandidate, or DeadlineExceeded past the
    `deadline`."""
    if orders[0] < 0 or orders[1] < 0:
        raise ValueError("controller orders must be >= 0")
    if budget <= 0:
        raise ValueError("budget must be > 0")

    n_coeffs = orders[0] + orders[1] + 2
    m = orders[0] + 1

    # Float images of the plant coefficients guide the search; a candidate is
    # only accepted after the exact verdict that the uncertainty stage uses.
    plant_floats = [([float(c) for c in plant.num.coeffs],
                     [float(c) for c in plant.den.coeffs]) for plant in inputs]
    step = float(controller_format.step)

    def guidance(raws):
        if raws[m] == 0:
            return float(_BIG_PENALTY) * len(inputs)
        cn = [r * step for r in raws[:m]]
        cd = [r * step for r in raws[m:]]
        cost = 0.0
        for gn, gd in plant_floats:
            margin = _float_jury_margin(
                closed_loop_coeffs(cn, gn, cd, gd, 0.0))
            if margin <= 0.0:
                cost += -margin + 1e-9
        return cost

    def evaluate(raws):
        cost = guidance(raws)
        if cost > 0.0:
            return False, cost
        cand = _controller_from_raws(raws, controller_format, orders)
        for plant in inputs:
            v = concrete_verdict(cand, plant)
            if v.margin <= 0:
                return False, float(-v.margin) + 1e-9
        return True, 0.0

    raws = _grid_search(n_coeffs, controller_format, seed, budget, evaluate,
                        m, deadline=deadline, starts=starts)
    return _controller_from_raws(raws, controller_format, orders)


def _sign_obstructed(inputs, queries) -> bool:
    """Whether no controller the search can accept stabilizes the last plant
    N/D in `inputs` together with the first N_1/D there (itself, if it is
    that first), for deg N, deg N_1 < deg D; False where deg N >= deg D.
    Such a controller has orders m <= n and a nonzero
    denominator lead, so for plants N_i/D with deg N_i < deg D every closed
    loop S_i = Cn·N_i + Cd·D has degree n + deg D and lead lead(Cd)·lead(D).
    A stable S_i has no root x with |x| >= 1, so at each real root x of D
    there it has the sign that degree and lead give, whatever i is, and
    S_i(x) = Cn(x)·N_i(x): N_1(x)·N(x) must be positive (parity
    interlacing, Youla, Bongiorno & Lu 1974).  Decided exactly: at x = 1,
    and by Tarski queries on (-B, -1] and (1, B] for a root bound B of D,
    of q = N_1·N against those of 1, the root counts.
    Checking each new plant against the first one keeps every pair in
    check, as each then shares the first one's nonzero signs.  `queries`
    maps each D already met to its query and root counts, and gains D's."""
    num, den = inputs[-1].num, inputs[-1].den
    if num.degree >= den.degree:
        return False
    first = next(p for p in inputs
                 if p.den == den and p.num.degree < den.degree)
    if den not in queries:
        bound = root_bound(den)
        query = tarski_queries(den, (-bound, -1, 1, bound))
        queries[den] = query, query(Poly([1]))
    query, roots = queries[den]
    if roots[0] == roots[2] == 0 and den(1) != 0:
        return False
    q = poly_mul(first.num, num)
    signs = query(q)
    return (signs[0] < roots[0] or signs[2] < roots[2]
            or den(1) == 0 and q(1) <= 0)


def _fixed_mode(family: PlantFamily) -> dict | None:
    """Evidence that some member N/D of the family's box has a fixed mode,
    a root on or outside the unit circle of every closed loop Cn·N + Cd·D,
    so that no controller stabilizes the family (Wang & Davison 1973);
    None where none is found.  Tried in order:

    - the nominal's exact common factor, the last term of
      sturm_chain(N, D), where it is not constant and exact Jury does not
      find it stable: the `factor`, and the nominal as the `plant`;
    - x = 1, x = -1 and each real root of the nominal D as a nearby
      rational, |x| >= 1, where D's lead interval excludes 0 and the box's
      values at x, Nc(x) ± Σ δ_i·|x|^(n−i) and the same for D, both hold 0:
      `x`, and as the `plant` the member that moves each coefficient by
      −t·δ_i·sign(x^(n−i)), t = Nc(x)/Σ δ_i·|x|^(n−i), and the same for D,
      so that N(x) = D(x) = 0;
    - where D is a point, at each real root of it, |x| >= 1, whose nearby
      rational is no root, the two numerator vertices with the least and
      the largest N there, where the sign test (`_sign_obstructed`, exact
      Tarski queries at D's roots) flags them: a member between them has
      N = 0 at a root of D; the two are the evidence (`between`).

    Floats only pick the candidates; exact arithmetic decides."""
    nominal, dn, dd = family.nominal, family.delta_num, family.delta_den
    common = sturm_chain(nominal.num, nominal.den)[-1]
    if len(common) > 1 and not jury_stable(common).is_stable:
        return {"factor": [str(c if common[0] > 0 else -c) for c in common],
                "plant": _describe_plant(nominal)}
    if abs(nominal.den.coeffs[0]) <= dd[0]:
        return None

    def vertex(coeffs, deltas, x, side):
        n = len(coeffs) - 1
        return [c + side * d * (1 if x > 0 or (n - i) % 2 == 0 else -1)
                for i, (c, d) in enumerate(zip(coeffs, deltas))]

    roots = {Fraction(z.real).limit_denominator(10 ** 6): z.real
             for z in poly_roots(nominal.den.coeffs) if math.isfinite(z.real)
             and abs(z.imag) <= 1e-6 * max(1.0, abs(z))}
    for x in dict.fromkeys([Fraction(1), Fraction(-1), *roots]):
        if abs(x) < 1:
            continue
        member = []
        for p, deltas in ((nominal.num, dn), (nominal.den, dd)):
            centre = p(x)
            reach = sum(d * abs(x) ** (p.degree - i)
                        for i, d in enumerate(deltas))
            if abs(centre) > reach:
                break
            member.append(vertex(p.coeffs, deltas, x,
                                 -centre / reach if reach else 0))
        else:
            return {"x": str(x), "plant": _describe_plant(
                TransferFunction(*member))}
    if any(dd):
        return None
    for x, r in roots.items():
        if abs(x) < 1 or nominal.den(x) == 0:
            continue
        pair = [TransferFunction(vertex(nominal.num.coeffs, dn, r, side),
                                 nominal.den) for side in (-1, 1)]
        if _sign_obstructed(pair, {}):
            return {"between": [_describe_plant(p) for p in pair]}
    return None


def _float_jury_margin(c) -> float:
    """Min slack of the stability conditions in float arithmetic (search
    guidance only; never a verdict)."""
    i = 0
    while i < len(c) - 1 and c[i] == 0.0:
        i += 1
    c = c[i:]
    if c[0] == 0.0:
        return -float(_BIG_PENALTY)
    if c[0] < 0:
        c = [-x for x in c]
    if len(c) == 1:
        return c[0]
    # A float pivot may be zero only when it is 0.0 (falsy).
    conditions = jury_conditions(c, operator.not_)
    _, margin = next(conditions)
    for _, value in conditions:
        if value is None:
            return min(margin, 0.0)
        if value < margin:
            margin = value
    return margin


def _interval_char_poly(candidate: Controller, num_iv: IntervalPoly,
                        den_iv: IntervalPoly) -> IntervalPoly:
    cn, cd = (IntervalPoly([(v.raw, v.raw) for v in p], candidate.format.scale)
              for p in (candidate.num, candidate.den))
    return ipoly_add(ipoly_mul(cn, num_iv), ipoly_mul(cd, den_iv))


def _make_plant(num_coeffs, den_coeffs) -> TransferFunction | None:
    if all(c == 0 for c in den_coeffs):
        return None
    return TransferFunction(Poly(num_coeffs), Poly(den_coeffs))


def verify_uncertainty(candidate: Controller, family: PlantFamily,
                       deadline=None, box=None):
    """First (fast) verification stage over the representable-plant box,
    `box` where given (`family_grid_box`, built once per plant format).
    Returns a certified unstable grid plant (a vertex, the grid point just
    past an unstable edge's first root, or one beside a zero of the lead of
    S on an edge), else None: the box is stable, or no such grid point is
    unstable, and the precision stage, whose box contains the grid box,
    rejects.  Decided by `_box_verdict` without interval Jury, which gives
    no plant: where it proves the box, the steps left return None too.
    Raises DeadlineExceeded past the `deadline` (a perf_counter() value)."""
    box = box or family_grid_box(family)
    _, evidence = _box_verdict(candidate, *box, deadline, family.plant_format,
                               _box_proof(candidate, *box, deadline,
                                          interval=False))
    if isinstance(evidence, TransferFunction):
        return evidence
    for lo, hi, positions in evidence:
        check_deadline(deadline)
        for t in positions:
            plant = _make_plant(*([x + (y - x) * t for x, y in zip(a, b)]
                                  for a, b in zip(lo, hi)))
            if (plant is not None
                    and not concrete_verdict(candidate, plant).is_stable):
                return plant
    return None


def _box_proof(candidate, num_iv, den_iv, deadline, interval=True):
    """The steps of `_box_verdict` that can prove a box of plants Stable with
    no vertex, in order: a Stable interval Jury verdict ("interval"), where
    `interval` holds; else, where it is Unknown or not run, the lead test (a
    strict sign of the lead of S, |lead of S_c| > Σ |lead of g_i|, and a
    plant at each corner), exact Jury finding S_c stable and the
    zero-exclusion sweep proving 0 outside the value set on the unit circle
    ("sweep").  Returns the Stable verdict of the step that proves the box,
    else interval Jury's (Unknown where not run), and the box's affine form
    (None where interval Jury proves the box): the unit that scales an
    integer S to the closed loop, the centre S_c and the generators g_i, each
    S a list of integers, the box ends as integer (lo, hi) pairs over their
    least denominator d, d, the lead's index `top` and the test's outcome."""
    verdict = JuryVerdict(Status.UNKNOWN, None, None)
    if interval:
        verdict = replace(jury_stable_interval(
            _interval_char_poly(candidate, num_iv, den_iv), deadline),
            settled_by="interval")
    if verdict.status is Status.STABLE:
        return verdict, None
    # Each S below is in integers, from the controller's raws and the plant
    # coefficients times 2d (so the box centre is integer too): a positive
    # multiple of S, with the same signs, ratios and primitive Sturm chains.
    nn, d = len(num_iv.ends), math.lcm(num_iv.den, den_iv.den)
    ends = [(lo * (d // p.den), hi * (d // p.den))
            for p in (num_iv, den_iv) for lo, hi in p.ends]
    cn, cd = ([v.raw for v in p] for p in (candidate.num, candidate.den))

    def s_of(plant):
        return closed_loop_coeffs(cn, plant[:nn], cd, plant[nn:], 0)

    # The box as S_c + Σ λ_i·g_i, λ_i in [-1, 1]: its centre, lo + hi over
    # 2d, and the half-width of each coefficient, hi - lo over 2d, times the
    # matching controller part.
    centre = s_of([lo + hi for lo, hi in ends])
    generators = [s_of([hi - lo if k == i else 0 for k in range(len(ends))])
                  for i, (lo, hi) in enumerate(ends) if lo != hi]
    top = next((k for k, row in enumerate(zip(centre, *generators))
                if any(row)), 0)
    # The leading coefficient of S is affine too: one strict sign at every
    # vertex keeps it off zero, and the degree of S constant, over the box.
    # A corner has no plant iff every denominator coefficient has 0 at an
    # end of its interval.
    steady = (abs(centre[top]) > sum(abs(g[top]) for g in generators)
              and not all(0 in e for e in ends[nn:]))
    unit = candidate.format.scale * 2 * d
    form = unit, centre, generators, ends, d, top, steady
    if (verdict.status is Status.UNKNOWN and steady
            and _scaled_verdict(centre, unit).is_stable
            and zero_excluded(centre[top:], [g[top:] for g in generators],
                              deadline)):
        return JuryVerdict(Status.STABLE, None, None, "sweep"), form
    return verdict, form


def _scaled_verdict(s, unit, settled_by=None):
    """concrete_verdict at the plant whose closed loop is the integer S `s`
    over `unit`: Jury's conditions are homogeneous of degree 1 in S, so
    only the margin is rescaled."""
    try:
        v = jury_stable(s)
    except DegenerateCharPoly:
        return JuryVerdict(Status.UNSTABLE, None, -_BIG_PENALTY, settled_by)
    return JuryVerdict(v.status, v.violated, v.margin / unit, settled_by)


def _box_verdict(candidate, num_iv, den_iv, deadline, grid=None, proof=None):
    """Stable or Unstable verdict of the closed loop over a box of plants,
    `settled_by` the step that decided it, and its evidence: an unstable
    vertex plant or a list of failing edges, each (low corner, high corner,
    positions): the positions t in [0, 1] of the plant-`grid` points on the
    edge worth trying, the one at or just past the first root of an
    unstable edge, or the two either side of a zero of the lead of S.
    Without a grid, only the ends are grid points.  The box is built once
    as an affine family S_c + Σ λ_i·g_i, λ in [-1, 1]^k.  The steps, in
    order: those of `_box_proof`, not run again where `proof` gives what it
    returned on this box, whose Stable verdict stands.  Else exact Jury
    decides each vertex S ("vertices"), an Unstable interval Jury verdict
    standing with an unstable vertex; the bits of k pick vertex k's signs
    and its corner plant, built in Fractions only for the evidence.  Where
    `_box_proof`'s lead test failed, the lead vanishes in the box and the
    verdict is Unstable ("lead"): the members beside its zero have a root
    near infinity, or S vanishes there (a vertex with no plant).  Else S
    is affine in the plant and of constant degree, with stable vertices,
    and the box is stable iff every edge is ("edges"; Edge Theorem,
    Bartlett, Hollot & Lin 1988), which the segment test decides.  The
    sweep is not run again there: it has run unless S_c is unstable, and
    then a member between S_c and a vertex has a root on the unit circle.
    Only interval Jury gives a Stable box a margin.  Nothing is listed:
    the steps walk the vertices in order of k and the edges by bit, then
    by low end, each S read off its parent, checking the deadline at each."""
    verdict, form = proof or _box_proof(candidate, num_iv, den_iv, deadline)
    if verdict.status is Status.STABLE:
        return verdict, []
    unit, centre, generators, ends, d, top, steady = form
    nn = len(num_iv.ends)
    # Bit i of k from the top picks g_i's sign and its coefficient's end at
    # vertex k (a point coefficient's ends agree).
    bits = [sum(lo != hi for lo, hi in ends[j + 1:]) for j in range(len(ends))]

    def corner(k):  # vertex k's plant coefficients, integers over d
        return [e[k >> bit & 1] for e, bit in zip(ends, bits)]

    def plant(k):  # vertex k's (numerator, denominator), for the evidence
        c = tuple(Fraction(x, d) for x in corner(k))
        return c[:nn], c[nn:]

    def walk(low=-1, s=centre, gs=generators, k=0):
        # Each vertex (k, S), k rising with bit `low` clear, and a deadline
        # check; s is S_c with all but the last len(gs) g_i signed.
        if not gs:
            check_deadline(deadline)
            yield k, s
            return
        for sign in (-1,) if len(gs) == low + 1 else (-1, 1):
            yield from walk(low, [x + sign * y for x, y in zip(s, gs[0])],
                            gs[1:], 2 * k + (sign > 0))

    for k, s in walk():
        if not any(corner(k)[nn:]):  # no plant: it fails the lead test
            continue
        v = _scaled_verdict(s, unit, "vertices")
        if v.status is Status.UNSTABLE:
            return (verdict if verdict.status is Status.UNSTABLE else v,
                    _make_plant(*plant(k)))
    # Edge `bit`'s corners differ in one coefficient, by n grid steps.  The
    # edge step reads S from its lead on, the lead step the lead alone, on
    # every edge, its ends with a plant or not (`verify_uncertainty` skips
    # a position with none).
    cut = slice(top, None if steady else top + 1)
    failing, widths = [], [hi - lo for lo, hi in ends if lo != hi]
    for bit in range(len(generators)):
        n = 1 if grid is None else widths[~bit] * grid.scale // d
        for lo, s in walk(bit, centre[cut], [g[cut] for g in generators]):
            t = [x + 2 * y for x, y in zip(s, generators[~bit][cut])]
            hi, a, b = lo | 1 << bit, s[0], t[0]
            if steady and has_root(chain := segment_chain(s, t), 0, 1):
                at = Fraction(_first_root_step(chain, n), n)
                return (JuryVerdict(Status.UNSTABLE, "edge", Fraction(0),
                                    "edges"), [(plant(lo), plant(hi), [at])])
            if not steady and a != b and a * b <= 0:
                z = Fraction(a, a - b)
                failing.append((plant(lo), plant(hi), [
                    Fraction(j, n) for j in (math.ceil(z * n) - 1,
                                             math.floor(z * n) + 1)
                    if 0 <= j <= n]))
    return (JuryVerdict(Status.STABLE, None, None, "edges") if steady else
            JuryVerdict(Status.UNSTABLE, "lead", Fraction(0), "vertices"),
            failing)


def _first_root_step(chain, n):
    """The least k for which the chain's polynomial has a root on [0, k/n],
    given one on [0, 1] (Sturm bisection)."""
    below, past = 0, n  # no root on [0, below/n]; one on [0, past/n]
    while past - below > 1:
        mid = (below + past) // 2
        if has_root(chain, 0, Fraction(mid, n)):
            past = mid
        else:
            below = mid
    return past


def verify_precision(candidate: Controller, family: PlantFamily,
                     deadline=None, proof=None):
    """Second (sound) stage: `_box_verdict` over the fully inflated family,
    by the same steps as the first stage's grid box, where given from
    `proof`, what `_box_proof` returned on that box; raises
    DeadlineExceeded past the `deadline`."""
    if proof is not None and proof[0].is_stable:
        return proof[0]
    return _box_verdict(candidate, *family_to_interval_poly(family), deadline,
                        proof=proof)[0]


def describe_controller(c: Controller | None):
    """Report form of a controller: exact decimals, raw integers, format;
    the strings interned, as reports repeat them (every two-stage
    transcript opens with the zero candidate) and callers may keep many."""
    if c is None:
        return None
    return {"num": [sys.intern(v.decimal_str()) for v in c.num],
            "den": [sys.intern(v.decimal_str()) for v in c.den],
            "num_raw": [v.raw for v in c.num],
            "den_raw": [v.raw for v in c.den],
            "format": sys.intern(str(c.format))}


def _describe_plant(p: TransferFunction):
    return {"num": [str(c) for c in p.num.coeffs],
            "den": [str(c) for c in p.den.coeffs]}


def _result(start, deadline, reason, controller, plant_format, iterations,
            transcript, certificate=None) -> SynthesisResult:
    """The result of a run begun at `start`, failed for `reason` or
    succeeded (None); a run that fails once its `deadline` has passed
    reports the timeout, whichever stage noticed it first."""
    now = time.perf_counter()
    if reason is not None and now > deadline:
        reason = "timeout"
    return SynthesisResult(reason is None, controller, plant_format,
                           iterations, now - start, reason, certificate,
                           transcript)


def cegis_two_stage(family: PlantFamily, controller_format: FixedPointFormat,
                    orders, seed: int, limits: Limits | None = None) -> SynthesisResult:
    """Fig-4-style loop: synthesize -> uncertainty check -> precision check,
    escalating the plant precision (and dropping stale counterexamples)
    whenever the sound stage rejects.  A family with a fixed mode
    (`_fixed_mode`) ends the run `no-candidate` at iteration 0, its
    transcript one `fixed-mode` entry with the evidence.  An iteration
    whose counterexamples fail the sign test (`_sign_obstructed`) raises
    NoCandidate in place of its search, so the iteration count and the
    transcript are those of a search that failed."""
    _check_orders(orders)
    limits = limits or Limits()
    start = time.perf_counter()
    deadline = start + limits.timeout_s
    plant_format = family.plant_format or DEFAULT_PLANT_FORMAT
    if (evidence := _fixed_mode(family)) is not None:
        return _result(start, deadline, "no-candidate", None, plant_format, 0,
                       [{"phase": "fixed-mode", "iteration": 0, **evidence}])
    # Placed once per run, when a search first needs them.
    starts = functools.cache(lambda: placement_starts(
        family.nominal, controller_format, orders))
    queries = {}  # the sign test's, per counterexample denominator
    inputs = []
    candidate = certificate = boxes = None
    iteration = 0
    transcript = []
    reason = "iteration-limit"  # unless the loop ends before the limit
    try:
        while iteration < limits.max_iterations:
            check_deadline(deadline)
            iteration += 1
            fam = family.with_format(plant_format)
            # The inflated box and the grid box, built once per format.
            boxes = boxes or (family_to_interval_poly(fam),
                              family_grid_box(fam))
            # inputs[-1], if any, is new: the last iteration found it.
            if inputs and _sign_obstructed(inputs, queries):
                raise NoCandidate("no controller stabilizes counterexample "
                                  f"{len(inputs)} with an earlier one")
            candidate = synthesize_candidate(
                inputs, controller_format, orders, seed + iteration,
                limits.synth_budget, deadline=deadline, starts=starts)
            transcript.append({"phase": "synthesize", "iteration": iteration,
                               "candidate": describe_controller(candidate),
                               "inputs": len(inputs)})
            # The grid box lies inside the inflated box: where the proving
            # steps prove the inflated box, the grid box needs no check.
            proof = _box_proof(candidate, *boxes[0], deadline)
            cex = (None if proof[0].is_stable else verify_uncertainty(
                candidate, fam, deadline, box=boxes[1]))
            if cex is not None:
                inputs.append(cex)
                transcript.append({"phase": "counterexample",
                                   "iteration": iteration,
                                   "plant": _describe_plant(cex)})
                continue
            transcript.append({"phase": "uncertainty-ok",
                               "iteration": iteration})
            verdict = verify_precision(candidate, fam, deadline, proof)
            if verdict.status is Status.STABLE:
                transcript.append({"phase": "precision-ok",
                                   "iteration": iteration,
                                   "plant_format": str(plant_format)})
                reason, certificate = None, verdict
                break
            # Compared before it is built: past the cap, the next format
            # may exceed what FixedPointFormat admits.
            bits = (plant_format.integer_bits + PRECISION_STEP[0],
                    plant_format.fraction_bits + PRECISION_STEP[1])
            transcript.append({"phase": "increase-precision",
                               "iteration": iteration,
                               "plant_format": "<%d,%d>" % bits})
            if (bits[0] > limits.max_precision.integer_bits
                    or bits[1] > limits.max_precision.fraction_bits):
                reason = "precision-limit"
                break
            plant_format, boxes = FixedPointFormat(*bits), None
            inputs.clear()  # stale: they were found at lower precision
    except DeadlineExceeded:
        reason = "timeout"
    except NoCandidate:
        reason = "no-candidate"
    return _result(start, deadline, reason, candidate, plant_format,
                   iteration, transcript, certificate)


def cegis_one_stage(family: PlantFamily, controller_format: FixedPointFormat,
                    orders, seed: int, limits: Limits | None = None) -> SynthesisResult:
    """Sound single-stage engine: search directly against the interval Jury
    test over the fully inflated family; no counterexample set.  A family
    with a fixed mode (`_fixed_mode`) ends the run `no-candidate` at
    iteration 0, before the search, as in `cegis_two_stage`."""
    _check_orders(orders)
    limits = limits or Limits()
    start = time.perf_counter()
    deadline = start + limits.timeout_s
    fmt_p = family.plant_format or DEFAULT_PLANT_FORMAT
    if (evidence := _fixed_mode(family)) is not None:
        return _result(start, deadline, "no-candidate", None, fmt_p, 0,
                       [{"phase": "fixed-mode", "iteration": 0, **evidence}])
    fam = family.with_format(fmt_p)
    num_iv, den_iv = family_to_interval_poly(fam)
    transcript = []
    n_coeffs = orders[0] + orders[1] + 2
    proofs = {}  # the raws interval Jury accepted -> its verdict

    def evaluate(raws):
        if raws[orders[0] + 1] == 0:
            return False, float(_BIG_PENALTY)
        cand = _controller_from_raws(raws, controller_format, orders)
        v = jury_stable_interval(_interval_char_poly(cand, num_iv, den_iv),
                                 deadline)
        if v.status is Status.STABLE:
            proofs[tuple(raws)] = replace(v, settled_by="interval")
            return True, 0.0
        return False, float(-min(v.margin, Fraction(0))) + 1e-9

    controller = certificate = reason = None
    try:
        raws = _grid_search(n_coeffs, controller_format, seed + 1,
                            limits.synth_budget, evaluate, orders[0] + 1,
                            deadline=deadline)
    except DeadlineExceeded:
        reason = "timeout"
    except NoCandidate:
        reason = "no-candidate"
    else:
        controller = _controller_from_raws(raws, controller_format, orders)
        certificate = proofs[tuple(raws)]
        transcript.append({"phase": "one-stage-accept",
                           "candidate": describe_controller(controller),
                           "plant_format": str(fmt_p)})
    return _result(start, deadline, reason, controller, fmt_p, 1, transcript,
                   certificate)
