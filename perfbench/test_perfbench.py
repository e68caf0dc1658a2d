"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("n, permille", [
    (1, 500), (19, 500), (20, 500), (39, 500), (40, 750), (99, 750),
    (100, 900), (199, 900), (200, 950), (999, 950), (1000, 990),
    (9999, 990), (10000, 999),
])
def test_tail_is_highest_ladder_percentile_with_ten_calls_beyond(n, permille):
    assert stats.tail_permille(n) == permille


def test_tail_leaves_at_least_ten_calls_beyond_it():
    values = list(range(1, 41))
    value, permille = stats.tail(values)
    assert permille == 750
    assert sum(v > value for v in values) >= 10


def test_percentile_interpolates():
    assert stats.percentile([4, 1, 3, 2], 500) == 2.5
    assert stats.percentile([7], 990) == 7
    assert stats.percentile([0, 10], 750) == 7.5


def test_permille_label():
    assert stats.permille_label(950) == "p95"
    assert stats.permille_label(999) == "p99.9"


def test_round_median_is_the_median_of_per_round_medians():
    # Two fast rows and two slow rows: the plain median falls in the gap.
    values = [1, 2, 10, 11,  1, 2, 12, 13,  1, 3, 10, 11]
    assert stats.round_median(values, 4) == 6.5  # rounds: 6, 7, 6.5
    assert stats.round_median([5, 1, 3], 3) == 3


def test_geomean():
    assert stats.geomean([1, 100]) == pytest.approx(10)
    assert stats.geomean([3, 3, 3]) == pytest.approx(3)
    with pytest.raises(ValueError):
        stats.geomean([1, 0])


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),        # overlaps a: the union 1..5 counts once
        ("grandchild", 2.0, 2.5, 2),
        ("late", 9.0, 12.0, 0),    # clipped to the parent's end
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 0.5, 3.0])


def test_spread_is_interquartile_over_median():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    q1, q2, q3 = 2.75, 5.5, 8.25
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_concrete_verdict_is_split_by_calling_span():
    spans = [
        ["call", 0.0, 1.0, None, None],
        ["cegis.synthesize_candidate", 0.0, 0.4, 0, None],
        ["cegis.concrete_verdict", 0.1, 0.2, 1, None],
        ["cegis.verify_uncertainty", 0.5, 0.9, 0, "witness"],
        ["cegis.concrete_verdict", 0.6, 0.7, 3, None],
        ["cegis.concrete_verdict", 0.7, 0.8, 3, None],
        ["stability.jury_stable_interval", 0.5, 0.6, 3, ["Unknown", 40]],
    ]
    m = tracer.layer_metrics(spans)
    assert m["cegis.concrete_verdict.calls"] == 3
    assert m["cegis.concrete_verdict.search.calls"] == 1
    assert m["cegis.concrete_verdict.uncertainty.calls"] == 2
    assert m["cegis.synthesize_candidate.self_ms"] == pytest.approx(300)
    assert m["cegis.verify_uncertainty.self_ms"] == pytest.approx(100)
    assert m["cegis.verify_uncertainty.witness_share"] == 1.0
    assert m["stability.jury_stable_interval.unknown_share"] == 1.0
    assert m["intervals.endpoint_bits.max"] == 40


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      5107 |      47229 |         mpmath",
        "import time:      3540 |     118173 |       numpy",
        "import time:      1081 |     262888 |   dcsynth",
        "import time:      7828 |     278611 | dcsynth.cli",
        "import time:       100 |        200 | json",
    ])
    assert run._parse_importtime(stderr) == {
        "numpy": 118.173, "mpmath": 47.229, "dcsynth": 278.611}


def test_traced_synthesis_repeats_its_counts_and_report():
    bench = str(HERE.parent / "benchmarks" / "cruise_gain_uncertain.bench")
    row = run.Row("cgu/two", bench, "Success", ("two",), 1)
    t = tracer.Tracer()
    calls = []
    for traced in (True, False, True):
        call = run.Call(row, 7, traced)
        run._run_in_process(call, None, t if traced else None)
        assert call.error is None
        calls.append(call)
    from dcsynth import cegis, cli
    assert cegis.synthesize_candidate.__name__ == "synthesize_candidate"
    assert cli.parse_benchmark.__name__ == "parse_benchmark"
    assert calls[0].output == calls[1].output == calls[2].output
    assert tracer.signature(calls[0].spans) == tracer.signature(calls[2].spans)
    assert calls[1].spans == []
    names = {s[0] for s in calls[0].spans}
    assert {"call", "benchmark.parse_benchmark", "cegis.engine",
            "cegis.synthesize_candidate", "cegis.verify_uncertainty",
            "cegis.verify_precision", "stability.jury_stable_interval",
            "intervals.ipoly_mul"} <= names


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
