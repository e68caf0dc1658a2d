"""dcsynth benchmark: `dcsynth synth|verify` end to end and layer by layer.

    python3 perfbench/run.py --workload cli|hard-synth \
        --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from `src`.  Each
workload is a closed loop with one client and no threads: its rows
(instance x engine, or CLI command) run round-robin, one call after the
other, so drift of the host's speed hits every row alike.  `--seed` draws
the program seeds each row cycles through; the program sees only fixture
files and seeds.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
runs every planned call once traced and once untraced and prints the
per-layer metrics.  The last line of stdout is one JSON object.  Every
verdict is checked against its known answer, and every Success is
re-checked independently; a wrong verdict, a crash or a report that differs
between two calls with the same seed makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import stats
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7
HARD_LIMIT_S = 3.0
# A call still running this long after its time limit is stopped and counted
# as a deadline overrun; two-stage does not check its deadline inside the
# uncertainty stage, so such calls would otherwise run on for up to 10 s.
GUARD_S = 1.0
CHILD_TIMEOUT_S = 120
PROBE_CODE = "import time, dcsynth.cli; print(time.monotonic())"

END_TO_END_UNITS = {
    "setup_s": "s", "call_ms.p50": "ms", "call_ms.tail": "ms",
    "geomean_ms": "ms", "calls_per_s": "1/s", "solved_share": "share",
    "ok_share": "share", "peak_rss_mb": "MB",
}
PER_LAYER = tuple(tracing.layer_metrics([])) + (
    "import.numpy_ms", "import.mpmath_ms", "import.dcsynth_ms",
    "cegis.timeout_mislabels", "cegis.deadline_overruns",
    "trace.overhead_share")


def _bench(name):
    return str(ROOT / "benchmarks" / name)


def _fixture(name):
    return str(HERE / "fixtures" / name)


@dataclass(frozen=True)
class Row:
    name: str
    bench: str
    expect: str          # the known verdict
    argv: tuple          # CLI arguments; (engine,) for in-process rows
    pool: int            # program seeds the row cycles through
    trace_out: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    rows: tuple
    in_process: bool
    limit_s: float | None   # per-call time limit; None keeps the default
    trace_rounds: int       # rounds in the traced run's plan


def _cli_rows():
    # The ladder rows keep the ZOH layer (s-domain fixtures) and the
    # one-stage engine's many small interval-Jury boxes (double integrator)
    # measured.
    synth = [("cruise", _bench("cruise.bench"), "two"),
             ("cruise", _bench("cruise.bench"), "one"),
             ("cruise_gain_uncertain", _bench("cruise_gain_uncertain.bench"), "two"),
             ("cruise_gain_uncertain", _bench("cruise_gain_uncertain.bench"), "one"),
             ("dc-motor", _fixture("dc_motor.bench"), "one"),
             ("dc-motor-uncertain", _fixture("dc_motor_uncertain.bench"), "two"),
             ("double-integrator", _fixture("double_integrator.bench"), "one")]
    rows = [Row(f"synth/{short}/{engine}", bench, "Success",
                ("synth", bench, "--engine", engine, "--report", "json",
                 "--no-timing"), 3)
            for short, bench, engine in synth]
    for ctl, expect in (("cruise_stable", "Stable"),
                        ("cruise_quantized_unstable", "Unstable")):
        for trace_out in (False, True):
            rows.append(Row(f"verify/{ctl}" + ("+trace" if trace_out else ""),
                            _bench("cruise.bench"), expect,
                            ("verify", _bench("cruise.bench"), "--controller",
                             _bench(ctl + ".ctl"), "--report", "json",
                             "--no-timing"), 3, trace_out))
    return tuple(rows)


def _hard_rows():
    # fourth-order draws a fresh seed for nearly every call: about a quarter
    # of its seeds reach the deadline inside the uncertainty stage and are
    # stopped GUARD_S past it, and a median over many seeds keeps that share
    # steady from run to run.
    return (Row("cruise_uncertain/two", _bench("cruise_uncertain.bench"),
                "Failure", ("two",), 3),
            Row("fourth-order/two", _fixture("fourth_order.bench"),
                "Success", ("two",), 64))


WORKLOADS = {
    "cli": Workload("cli", _cli_rows(), False, None, 3),
    "hard-synth": Workload("hard-synth", _hard_rows(), True, HARD_LIMIT_S, 2),
}


@dataclass
class Call:
    row: Row
    seed: int
    traced: bool
    elapsed: float = 0.0
    report: dict | None = None
    output: str = ""          # what must repeat byte for byte
    error: str | None = None
    spans: list = field(default_factory=list)
    verdict: str = ""         # solved | unsolved | timeout | wrong | error
    detail: str | None = None
    stopped: bool = False     # ran GUARD_S past its limit


class CallStopped(BaseException):
    """Raised into an in-process call that ran GUARD_S past its limit."""


def _stop(signum, frame):
    raise CallStopped


def _child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _run_in_process(call, limit_s, tracer):
    from dcsynth import cli
    from dcsynth.cegis import Limits

    limits = Limits() if limit_s is None else Limits(timeout_s=limit_s)

    def once():
        spec = cli.parse_benchmark(call.row.bench)
        return cli.run_synthesis(spec, call.row.argv[0], call.seed, limits,
                                 with_timing=False)

    if tracer is not None:
        tracer.reset()
        tracer.install()
    if limit_s is not None:
        signal.signal(signal.SIGALRM, _stop)
        signal.setitimer(signal.ITIMER_REAL, limit_s + GUARD_S)
    t0 = time.perf_counter()
    try:
        try:
            call.report = tracer.call(once) if tracer is not None else once()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallStopped:
        call.stopped = True
    except Exception:  # a raising call is recorded, and the loop goes on
        call.error = traceback.format_exc(limit=-3)
    finally:
        call.elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            call.spans = tracer.spans
    if call.report is not None:
        call.output = json.dumps(call.report, sort_keys=True, default=str)


def _run_cli(call, env, work):
    argv = list(call.row.argv) + ["--seed", str(call.seed)]
    if call.row.trace_out:
        argv += ["--trace-out", str(work / "trace.csv")]
    spans_path = work / "spans.json"
    if call.traced:
        cmd = [sys.executable, str(HERE / "child.py"), str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "dcsynth", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        call.elapsed = time.perf_counter() - t0
        call.error = f"no exit within {CHILD_TIMEOUT_S} s"
        return
    call.elapsed = time.perf_counter() - t0
    want_rc = {"Success": 0, "Stable": 0}
    if proc.returncode not in (0, 1):
        call.error = f"exit code {proc.returncode}: {proc.stderr[-500:]}"
        return
    call.output = proc.stdout
    try:
        call.report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        call.error = f"unparsable report: {proc.stdout[:200]!r}"
        return
    if proc.returncode != want_rc.get(call.report.get("outcome"), 1):
        call.error = (f"exit code {proc.returncode} for outcome "
                      f"{call.report.get('outcome')}")
    if call.traced:
        with open(spans_path) as fh:
            call.spans = json.load(fh)


def _classify(call, limit_s, specs, recheck_cache):
    """Sets call.verdict: a crash or exit code 2 is an error; a verdict that
    contradicts the known answer or fails the re-check is wrong; a synthesis
    that took the whole limit is a timeout, whatever reason it reports."""
    from checks import recheck_success

    if call.error is not None:
        call.verdict, call.detail = "error", call.error
        return
    if call.stopped:
        call.verdict = "timeout"
        call.detail = f"stopped {GUARD_S} s past its {limit_s} s limit"
        return
    report = call.report
    outcome = report.get("outcome")
    if outcome == "Success":
        key = (call.row.bench, json.dumps(report.get("controller")),
               report.get("plant_format"))
        if key not in recheck_cache:
            recheck_cache[key] = recheck_success(specs[call.row.bench], report,
                                                 repr(key))
        if recheck_cache[key]:
            call.verdict, call.detail = "wrong", recheck_cache[key]
            return
    if call.row.expect == "Failure" and outcome == "Success":
        call.verdict = "wrong"
        call.detail = "Success on a family known to be unstabilizable"
        return
    if call.row.argv[0] == "verify" and outcome != call.row.expect:
        call.verdict = "wrong"
        call.detail = f"verify says {outcome}, expected {call.row.expect}"
        return
    if limit_s is not None and call.elapsed >= limit_s:
        call.verdict = "timeout"
        call.detail = f"reason {report.get('reason')!r}"
        return
    call.verdict = "solved" if outcome == call.row.expect else "unsolved"


def _parse_importtime(stderr):
    """Cumulative import times in ms of numpy, mpmath and dcsynth (the
    top-level dcsynth imports) from `-X importtime` output."""
    out = {"numpy": 0.0, "mpmath": 0.0, "dcsynth": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative_ms = int(parts[1]) / 1000
        name = parts[2].rstrip()
        top_level = name.startswith(" ") and not name.startswith("  ")
        name = name.strip()
        if name in ("numpy", "mpmath"):
            out[name] = cumulative_ms
        elif top_level and name.split(".")[0] == "dcsynth":
            out["dcsynth"] += cumulative_ms
    return out


def _probe(env, importtime):
    """Set-up time of a fresh process: from spawn until dcsynth.cli is
    imported."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", PROBE_CODE]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    setup_s = float(proc.stdout.split()[-1]) - t0
    return setup_s, (_parse_importtime(proc.stderr) if importtime else None)


class Runner:
    def __init__(self, wl, seed, work):
        self.wl = wl
        self.work = work
        self.env = _child_env()
        rng = random.Random(seed)
        self.pools = {row.name: [rng.randrange(1, 1 << 31)
                                 for _ in range(row.pool)] for row in wl.rows}
        from dcsynth.benchmark import parse_benchmark
        self.specs = {row.bench: parse_benchmark(row.bench) for row in wl.rows}
        self.tracer = tracing.Tracer() if wl.in_process else None
        self.recheck_cache = {}
        self.outputs = {}
        self.signatures = {}
        self.calls = []
        self.nondeterministic = 0

    def round(self, r):
        return [(row, self.pools[row.name][r % row.pool]) for row in self.wl.rows]

    def run(self, row, seed, traced):
        call = Call(row, seed, traced)
        if self.wl.in_process:
            _run_in_process(call, self.wl.limit_s,
                            self.tracer if traced else None)
        else:
            _run_cli(call, self.env, self.work)
        _classify(call, self.wl.limit_s, self.specs, self.recheck_cache)
        if call.verdict in ("solved", "unsolved"):
            self._check_repeat(self.outputs, (row.name, seed), call.output,
                               call, "output")
            if traced:
                self._check_repeat(self.signatures, (row.name, seed),
                                   tracing.signature(call.spans), call,
                                   "per-layer counts")
        self.calls.append(call)
        return call

    def _check_repeat(self, seen, key, value, call, what):
        first = seen.setdefault(key, value)
        if first != value:
            self.nondeterministic += 1
            call.verdict = "error"
            call.detail = f"{what} differ between two calls with seed {key[1]}"


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def measure(runner, seconds):
    """Untraced run: end-to-end metrics."""
    wl = runner.wl
    probes = []
    probe_s = 0.0

    def probe():
        nonlocal probe_s
        t0 = time.perf_counter()
        probes.append(_probe(runner.env, False)[0])
        probe_s += time.perf_counter() - t0

    # Probes are spread over the run, between rounds, so that they sample
    # the same host speed as the calls.
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds:
        if (len(probes) < SETUP_PROBES and time.perf_counter() - start
                >= len(probes) * seconds / SETUP_PROBES):
            probe()
        for row, seed in runner.round(r):
            runner.run(row, seed, False)
        r += 1
    while len(probes) < SETUP_PROBES:
        probe()
    loop_s = time.perf_counter() - start - probe_s

    calls = runner.calls
    lat = [c.elapsed * 1000 for c in calls]
    tail_ms, tail_pm = stats.tail(lat)
    # The median call of each round (one call per row), then the median over
    # rounds.  Rows of very different cost leave gaps in the distribution of
    # all calls; on an in-process mix of the ladder its plain median landed
    # in such a gap and swung by 20% from run to run, this one by about 5%.
    round_p50 = stats.round_median(lat, len(wl.rows))
    by_row = {row.name: [c.elapsed * 1000 for c in calls if c.row is row]
              for row in wl.rows}
    bad = sum(c.verdict in ("timeout", "wrong", "error") for c in calls)
    metrics = {
        "setup_s": statistics.median(probes),
        "call_ms.p50": round_p50,
        "call_ms.tail": tail_ms,
        "geomean_ms": stats.geomean([statistics.median(v)
                                     for v in by_row.values()]),
        "calls_per_s": len(calls) / loop_s,
        "solved_share": sum(c.verdict == "solved" for c in calls) / len(calls),
        "ok_share": 1 - bad / len(calls),
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(f"workload {wl.name}: {len(calls)} calls in {r} rounds, "
          f"{loop_s:.2f} s; {len(probes)} set-up probes")
    for row in wl.rows:
        _print_row(row, [c for c in calls if c.row is row])
    print(f"tail percentile: {_tail_label(tail_pm, len(lat))}")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def _tail_label(permille, n):
    label = f"{stats.permille_label(permille)} of n={n}"
    if n < 2 * stats.MIN_BEYOND:
        label += f" (under {2 * stats.MIN_BEYOND} calls: the median stands in)"
    return label


def _print_row(row, calls):
    lat = [c.elapsed * 1000 for c in calls]
    verdicts = {v: sum(c.verdict == v for c in calls)
                for v in ("solved", "unsolved", "timeout", "wrong", "error")}
    mislabelled = sum(map(_mislabelled, calls))
    tail_ms, tail_pm = stats.tail(lat)
    print(f"  row {row.name}: n={len(lat)} p50_ms={stats.percentile(lat, 500):.3f}"
          f" tail_ms={tail_ms:.3f} ({_tail_label(tail_pm, len(lat))})"
          f" solved_share={verdicts['solved'] / len(lat):.3f} "
          + " ".join(f"{k}={v}" for k, v in verdicts.items() if k != "solved")
          + f" timeouts_not_reported_as_timeout={mislabelled}"
          + f" stopped_past_limit={sum(c.stopped for c in calls)}")


def _mislabelled(call):
    """A call that took its whole limit but whose report names another
    reason than 'timeout'."""
    return (call.verdict == "timeout" and call.report is not None
            and call.report.get("reason") != "timeout")


def _merge(span_lists):
    merged = []
    for spans in span_lists:
        off = len(merged)
        merged.extend([n, s, e, None if p is None else p + off, x]
                      for n, s, e, p, x in spans)
    return merged


def trace(runner, seconds, spans_path):
    """Traced run: every call of the plan runs once traced and once
    untraced, in alternating order; per-layer metrics come from the first
    pass over the plan, so their counts repeat for the same seed."""
    wl = runner.wl
    imports = [_probe(runner.env, True)[1] for _ in range(SETUP_PROBES)]
    plan = [item for r in range(wl.trace_rounds) for item in runner.round(r)]
    start = time.perf_counter()
    first = []
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        for i, (row, seed) in enumerate(plan):
            if rep > 0 and time.perf_counter() - start >= seconds:
                break
            for traced in ((True, False) if (i + rep) % 2 else (False, True)):
                call = runner.run(row, seed, traced)
                if traced and rep == 0:
                    first.append(call)
                elif traced:
                    call.spans = []  # only counted for the repeat check
        rep += 1

    metrics = tracing.layer_metrics(_merge(c.spans for c in first))
    for lib in ("numpy", "mpmath", "dcsynth"):
        metrics[f"import.{lib}_ms"] = statistics.median(i[lib] for i in imports)
    metrics["cegis.timeout_mislabels"] = sum(map(_mislabelled, runner.calls))
    metrics["cegis.deadline_overruns"] = sum(c.stopped for c in runner.calls)
    traced = [c.elapsed for c in runner.calls if c.traced]
    plain = [c.elapsed for c in runner.calls if not c.traced]
    metrics["trace.overhead_share"] = (statistics.median(traced)
                                       / statistics.median(plain) - 1)

    print(f"workload {wl.name} traced: {len(plan)} planned calls, {rep} passes,"
          f" {len(runner.calls)} calls")
    for row in wl.rows:
        _print_split(row, [c for c in first if c.row is row], metrics)
    with open(spans_path, "w") as fh:
        json.dump([{"row": c.row.name, "seed": c.seed, "spans": c.spans}
                   for c in first], fh)
    return {k: (metrics[k], _layer_unit(k)) for k in PER_LAYER}


def _print_split(row, calls, metrics):
    """Share of the row's traced wall time spent in each layer's self time."""
    if not calls:
        return
    wall_ms = sum(c.elapsed for c in calls) * 1000
    by_layer = tracing.self_ms_by_layer(_merge(c.spans for c in calls))
    by_layer["rest of the call"] = by_layer.pop("call", 0.0)
    parts = sorted(by_layer.items(), key=lambda kv: -kv[1])
    inside_ms = sum(by_layer.values())
    if inside_ms < wall_ms:
        parts.append(("outside traced spans (process start, import, exit)"
                      if row.argv[0] in ("synth", "verify") else "outside",
                      wall_ms - inside_ms))
    if row.argv[0] in ("synth", "verify"):
        imp = metrics["import.dcsynth_ms"] * len(calls)
        parts.append(("of which import dcsynth (probe median)", imp))
    print(f"  split {row.name} ({len(calls)} traced calls, "
          f"{wall_ms / len(calls):.1f} ms each): "
          + ", ".join(f"{name} {100 * ms / wall_ms:.1f}%"
                      for name, ms in parts if ms / wall_ms >= 0.01))


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    if name.endswith(".max"):
        return "bits"
    if name.endswith(".steps"):
        return "steps"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    needed = ({str(SRC / "dcsynth" / "__init__.py")}
              | {row.bench for row in wl.rows}
              | {a for row in wl.rows for a in row.argv if a.endswith(".ctl")})
    missing = sorted(p for p in needed if not Path(p).is_file())
    if missing:
        print("error: run from the repository root; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(wl, args.seed, work)
        if args.trace:
            metrics = trace(runner, args.seconds,
                            OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json")
        else:
            metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {wl.name} {name} = {value} {unit}")
    bad = [c for c in runner.calls if c.verdict in ("wrong", "error")]
    for c in bad[:5]:
        print(f"FAILED {c.row.name} seed {c.seed}: {c.verdict}: {c.detail}",
              file=sys.stderr)
    if runner.nondeterministic:
        print(f"{runner.nondeterministic} calls broke determinism",
              file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": len(runner.calls),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
