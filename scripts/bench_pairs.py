#!/usr/bin/env python3
"""Benchmark the working tree against a git revision in alternating pairs.

    python3 scripts/bench_pairs.py REV --out FILE.json [--pairs 10]
        [--scratch DIR]

DIR, made if missing, holds the scratch trees (by default the system's
temporary directory).

Every run of `perfbench/run.py --workload W --seed N --seconds S`, for each
workload W and the run length S that `BENCHMARK.json` sets, gets a fresh
scratch directory holding either REV's files (`git archive`) or the
working tree's (the files git tracks or would track): run from the
repository directory itself, `setup_s` reads differently.  Pair N runs
seed N on both sides, REV first in odd pairs.  The output keeps each run's
last JSON line and, per metric, both sides' medians and quartiles and the
pairs the working tree won (ties count for neither side), in the better
direction `BENCHMARK.json` gives.  It also keeps each run's per-row median
latencies, its `row NAME: ... p50_ms=X` lines, and per row both sides'
medians of them, so that a change of `geomean_ms` can be traced to its
rows.  A run that fails or reports a wrong verdict stops the script.

A `certification` block follows: on `perfbench/fixtures/fourth_order.bench`
with seeds 1, 4 and 8, each tree synthesizes (two-stage,
`Limits(timeout_s=60)`, its wall time `synth_s`), and times
`verify_uncertainty` plus `verify_precision` of REV's final candidate
(the same controller on both sides), median of three, with the time spent
in exact Jury of the vertices (`concrete_verdict`, or `jury_stable` where
the box verdict calls it directly), in the zero-exclusion sweep and in the
edge scan (`segment_chain`, `has_root`), and the number of exact Jury
calls in each of the two stages.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_reports import extract

ROOT = Path(__file__).resolve().parents[1]
ROW_LINE = re.compile(r"\s*row (\S+): .*\bp50_ms=(\S+)")
CERT_SEEDS = (1, 4, 8)
CERT_REPEATS = 3
# Runs in a child process from one tree's directory: one JSON line, per
# seed the final candidate, the synthesis time and the median certification
# times and exact Jury calls per stage of the given candidate (raws, plant
# format), or of its own.
CERT_CHILD = """
import json, statistics, sys, time
sys.path.insert(0, "src")
import dcsynth.cegis as cegis
from dcsynth.benchmark import parse_benchmark
from dcsynth.cegis import (Limits, cegis_two_stage, describe_controller,
                           verify_precision, verify_uncertainty)
from dcsynth.fixedpoint import FixedPointFormat, FixedPointValue
from dcsynth.transfer import Controller

seeds, repeats, given = json.loads(sys.argv[1])
spent = {}
running = []  # the timed call under way: nested ones count in it
stage = [None]  # the key counting the exact Jury calls of the stage

def timed(name, fn):
    def wrapper(*args, **kwargs):
        if running:
            return fn(*args, **kwargs)
        running.append(name)
        if name == "vertex_jury_s":
            spent[stage[0]] = spent.get(stage[0], 0) + 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
            running.pop()
    return wrapper

def fmt(text):
    return FixedPointFormat(*map(int, text.strip("<>").split(",")))

spec = parse_benchmark("perfbench/fixtures/fourth_order.bench")
out = {}
for seed in seeds:
    t0 = time.perf_counter()
    result = cegis_two_stage(spec.family, spec.controller_format,
                             spec.controller_orders, seed,
                             Limits(timeout_s=60))
    synth_s = time.perf_counter() - t0
    timed_controller, plant_format = result.controller, result.plant_format
    if given is not None:
        ctl = given[str(seed)]["controller"]
        timed_controller = Controller(
            *([FixedPointValue(r, fmt(ctl["format"])) for r in ctl[key]]
              for key in ("num_raw", "den_raw")))
        plant_format = fmt(given[str(seed)]["plant_format"])
    family = spec.family.with_format(plant_format)
    saved = {name: getattr(cegis, name) for name in
             ("concrete_verdict", "jury_stable", "zero_excluded",
              "segment_chain", "has_root") if hasattr(cegis, name)}
    for name, fn in saved.items():
        setattr(cegis, name, timed({"zero_excluded": "sweep_s",
                                    "segment_chain": "edge_scan_s",
                                    "has_root": "edge_scan_s"}.get(
                                        name, "vertex_jury_s"), fn))
    runs = []
    for _ in range(repeats):
        spent.clear()
        t0 = time.perf_counter()
        stage[0] = "uncertainty_jury_calls"
        verify_uncertainty(timed_controller, family)
        stage[0] = "precision_jury_calls"
        verify_precision(timed_controller, family)
        runs.append(dict(spent, total_s=time.perf_counter() - t0))
    for name, fn in saved.items():
        setattr(cegis, name, fn)
    out[seed] = {"outcome": "Success" if result.success else result.reason,
                 "controller": describe_controller(result.controller),
                 "plant_format": str(result.plant_format),
                 "synth_s": synth_s,
                 **{key: statistics.median(r.get(key, 0.0) for r in runs)
                    for key in ("total_s", "vertex_jury_s", "sweep_s",
                                "edge_scan_s", "uncertainty_jury_calls",
                                "precision_jury_calls")}}
print(json.dumps(out))
"""


def materialize(rev, dest):
    """Writes REV's files, or with REV None the working tree's, to dest."""
    dest.mkdir(parents=True)
    if rev is not None:
        extract(rev, dest)
        return
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT,
                           capture_output=True, check=True).stdout
    for name in filter(None, names.decode().split("\0")):
        if (ROOT / name).is_file():  # a deleted tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def in_fresh_tree(rev, scratch, argv, timeout):
    """Runs `python3 argv` in a fresh copy of REV (or the working tree);
    returns its stdout lines, the last one JSON.  Exits on a child that
    exits other than 0 or 1 (perfbench's wrong-verdict exit) or prints
    nothing."""
    tree = Path(tempfile.mkdtemp(dir=scratch)) / "tree"
    try:
        materialize(rev, tree)
        proc = subprocess.run([sys.executable, *argv], cwd=tree,
                              capture_output=True, text=True, timeout=timeout,
                              env={k: v for k, v in os.environ.items()
                                   if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(tree.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"{argv} in {rev or 'working tree'} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return lines


def row_medians(parent, change):
    """Per row of the workload: both sides' medians of the runs' p50_ms."""
    return {row: {f"{side}_median": statistics.median(
                      run["row_p50_ms"][row] for run in runs)
                  for side, runs in (("parent", parent), ("change", change))}
            for row in parent[0]["row_p50_ms"]}


def summarize(parent, change, better):
    """Per metric: both sides' medians and quartiles, and the pairs the
    change won."""
    out = {}
    for name in parent[0]["result"]["metrics"]:
        old, new = ([run["result"]["metrics"][name]["value"] for run in runs]
                    for runs in (parent, change))
        sign = 1 if better[name] == "higher" else -1
        quartiles = [statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                     for v in (old, new)]
        out[name] = {"parent_median": statistics.median(old),
                     "parent_q1_q3": [quartiles[0][0], quartiles[0][2]],
                     "change_median": statistics.median(new),
                     "change_q1_q3": [quartiles[1][0], quartiles[1][2]],
                     "change_wins": sum(sign * (b - a) > 0
                                        for a, b in zip(old, new))}
    return out


def main():
    parser = argparse.ArgumentParser(
        description="Benchmark the working tree against REV in pairs.")
    parser.add_argument("rev", metavar="REV")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for the scratch trees, made if "
                             "missing")
    args = parser.parse_args()
    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
    rev = subprocess.run(["git", "rev-parse", "--short", args.rev], cwd=ROOT,
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "parent": rev, "change": "working tree",
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds} (trace 0)",
        "method": f"{args.pairs} pairs per workload, seed N = pair number, "
                  "parent and change alternating which runs first (odd "
                  "pairs parent first); each run in a fresh scratch "
                  "directory; one run at a time",
        "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = (("parent", rev), ("change", None))
            for position, (side, tree) in enumerate(
                    order if seed % 2 else order[::-1]):
                lines = in_fresh_tree(
                    tree, args.scratch,
                    ["perfbench/run.py", "--workload", workload, "--seed",
                     str(seed), "--seconds", str(seconds)],
                    timeout=10 * seconds + 600)
                result = json.loads(lines[-1])
                if not result.get("correct"):
                    sys.exit(f"{workload} seed {seed} on the {side}: wrong "
                             f"verdict reported:\n{json.dumps(result)}")
                runs[side].append({
                    "seed": seed, "first": position == 0, "result": result,
                    "row_p50_ms": {m[1]: float(m[2]) for m in map(
                        ROW_LINE.match, lines) if m}})
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{k} {v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)
        report["workloads"][workload] = {
            "summary": summarize(runs["parent"], runs["change"], better),
            "row_p50_ms": row_medians(runs["parent"], runs["change"]),
            "runs": runs}
    certification = {}
    for side, tree in (("parent", rev), ("change", None)):
        certification[side] = json.loads(in_fresh_tree(
            tree, args.scratch,
            ["-c", CERT_CHILD, json.dumps([CERT_SEEDS, CERT_REPEATS,
                                           certification.get("parent")])],
            timeout=900)[-1])
    report["certification"] = {
        "what": "on fourth_order.bench, synth_s is the wall time of "
                "two-stage synthesis (Limits(timeout_s=60)), and the other "
                "times are verify_uncertainty + verify_precision of the "
                "parent's final candidate on both sides, seconds, median "
                f"of {CERT_REPEATS}; vertex_jury_s is exact Jury of the box "
                "vertices and of a box's centre (concrete_verdict and "
                "jury_stable, a call inside the other counted once), "
                "sweep_s the zero-exclusion sweep, edge_scan_s "
                "segment_chain and has_root; "
                "uncertainty_jury_calls and precision_jury_calls count "
                "those exact Jury calls in verify_uncertainty and in "
                "verify_precision",
        **certification}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
