"""The benchmark's own arithmetic: percentiles, the tail rule, the geometric
mean, span self time and the run-to-run spread."""

from __future__ import annotations

import math
import statistics

# Tail percentiles in permille, so the rule below stays exact integer math.
LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10


def percentile(values, permille):
    """Linear-interpolated percentile of `values` (permille, 0..1000)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * permille / 1000
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_permille(n):
    """Highest ladder percentile with at least MIN_BEYOND of `n` calls beyond
    it.  With fewer than 2 * MIN_BEYOND calls no tail percentile has that
    many, and the median (the ladder's lowest rung) stands in for it."""
    ok = [p for p in LADDER_PERMILLE if n * (1000 - p) >= MIN_BEYOND * 1000]
    return ok[-1] if ok else LADDER_PERMILLE[0]


def tail(values):
    """(value, permille) of the tail percentile of `values`."""
    p = tail_permille(len(values))
    return percentile(values, p), p


def permille_label(p):
    return f"p{p // 10}" if p % 10 == 0 else f"p{p / 10}"


def round_median(values, width):
    """Median over consecutive rounds of `width` values of each round's
    median."""
    return statistics.median(statistics.median(values[i:i + width])
                             for i in range(0, len(values), width))


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover.  `spans` is a list of (name, start, end, parent)
    tuples, parent being an index into the list or None."""
    children = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered(children.get(i, ()), start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
