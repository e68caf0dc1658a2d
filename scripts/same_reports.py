#!/usr/bin/env python3
"""Check that the working tree's reports are identical to those of a git
revision.

    python3 scripts/same_reports.py REV

Extracts REV's `src/` with `git archive` and, on that tree and on the
working tree's `src/`, runs:

- every `cli` row of the benchmark (`perfbench/run.py`'s WORKLOADS) with
  seeds 1-5, comparing exit code, report and any `--trace-out` CSV;
- in-process two-stage synthesis (`Limits(timeout_s=60)`, no timing) on
  cruise, cruise_gain_uncertain, cruise_uncertain and dc_motor_uncertain,
  seeds 0-5, comparing the reports.

Both trees read the working tree's benchmark files.  Prints each
difference and exits 1 on any, else 0.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI_SEEDS = range(1, 6)
TWO_STAGE_SEEDS = range(0, 6)
TWO_STAGE_BENCHES = (ROOT / "benchmarks" / "cruise.bench",
                     ROOT / "benchmarks" / "cruise_gain_uncertain.bench",
                     ROOT / "benchmarks" / "cruise_uncertain.bench",
                     ROOT / "perfbench" / "fixtures" / "dc_motor_uncertain.bench")
# Runs in a child process with one tree's src/ on its path: one JSON line
# of reports, keyed "bench seed".
TWO_STAGE_CHILD = """
import json, sys
from dcsynth.cegis import Limits
from dcsynth.cli import parse_benchmark, run_synthesis
benches, seeds = json.loads(sys.argv[1])
print(json.dumps({f"{b} {s}": run_synthesis(parse_benchmark(b), "two", s,
                                            Limits(timeout_s=60), False)
                  for b in benches for s in seeds}, sort_keys=True))
"""


def cli_rows():
    os.chdir(ROOT)  # perfbench/run.py resolves benchmark paths from here
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS
    return WORKLOADS["cli"].rows


def extract_src(rev, dest):
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest / "src"


def run(src, argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=600)


def cli_outputs(src, rows, csv):
    """(row name, seed) -> (exit code, stdout, CSV text or None)."""
    out = {}
    for row in rows:
        for seed in CLI_SEEDS:
            argv = ["-m", "dcsynth", *row.argv, "--seed", str(seed)]
            if row.trace_out:
                argv += ["--trace-out", str(csv)]
            proc = run(src, argv)
            text = csv.read_text() if row.trace_out and csv.exists() else None
            csv.unlink(missing_ok=True)
            out[row.name, seed] = (proc.returncode, proc.stdout, text)
    return out


def two_stage_reports(src):
    args = json.dumps([[str(b) for b in TWO_STAGE_BENCHES],
                       list(TWO_STAGE_SEEDS)])
    proc = run(src, ["-c", TWO_STAGE_CHILD, args])
    if proc.returncode != 0:
        sys.exit(f"two-stage child failed on {src}:\n{proc.stderr[-2000:]}")
    return {k: json.dumps(v, indent=1, sort_keys=True)
            for k, v in json.loads(proc.stdout).items()}


def first_difference(a, b):
    a, b = (a or "").splitlines(), (b or "").splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"line {i + 1}: {x!r} != {y!r}"
    return f"{len(a)} lines != {len(b)} lines"


def main():
    parser = argparse.ArgumentParser(
        description="Compare the working tree's reports with REV's.")
    parser.add_argument("rev", metavar="REV")
    rev = parser.parse_args().rev
    rows = cli_rows()
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {rev: extract_src(rev, tmp / "rev"), "working tree": ROOT / "src"}
        cli = {name: cli_outputs(src, rows, tmp / "trace.csv")
               for name, src in trees.items()}
        two = {name: two_stage_reports(src) for name, src in trees.items()}
    old, new = (cli[name] for name in trees)
    for key in old:
        for part, a, b in zip(("exit code", "report", "CSV"), old[key],
                              new[key]):
            if a != b:
                differences += 1
                detail = (f"{a} != {b}" if part == "exit code"
                          else first_difference(a, b))
                print(f"cli {key[0]} seed {key[1]}: {part} differs, {detail}")
    old, new = (two[name] for name in trees)
    for key in old:
        if old[key] != new[key]:
            differences += 1
            print(f"two-stage {key}: report differs, "
                  f"{first_difference(old[key], new[key])}")
    print(f"{len(rows) * len(CLI_SEEDS)} cli calls and {len(old)} two-stage "
          f"runs compared against {rev}: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
