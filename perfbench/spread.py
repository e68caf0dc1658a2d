"""Runs the benchmark on several seeds and prints every end-to-end metric
per workload with its median, quartiles and spread against its bound.

    python3 perfbench/spread.py                       # every workload, seed 1
    python3 perfbench/spread.py --workloads hard-synth --seeds 1,2,3,4,5

Run it from the repository root.  The spread is the inter-quartile distance
as a share of the median; a metric whose spread is over a third of its
bound is flagged.  Exits 1 if any run exits non-zero or reports a wrong
verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    metrics = spec["end_to_end"]

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = (json.loads(lines[-1])
                      if proc.returncode in (0, 1) and lines else {})
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
        for m in metrics:
            v = values[m["name"]]
            if not v:
                continue
            line = (f"  {workload:12} {m['name']:46} median {statistics.median(v):.6g}"
                    f" {m['unit']}")
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                s = stats.spread(v)
                line += (f"  q1 {q1:.6g} q3 {q3:.6g} spread {s:.3f}"
                         f" / bound {m['bound']}")
                if s > m["bound"] / 3:
                    line += "  OVER A THIRD OF THE BOUND"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
