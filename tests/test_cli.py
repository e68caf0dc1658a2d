"""Command-line behavior: reports, exit codes, and round-trip guarantees."""

import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from dcsynth.cegis import Limits
from dcsynth.cli import build_parser, main
from dcsynth.fixedpoint import (FixedPointFormat, FixedPointValue,
                                quantize_truncate)

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"
CRUISE = str(BENCH_DIR / "cruise.bench")
STABLE_CTL = str(BENCH_DIR / "cruise_stable.ctl")
UNSTABLE_CTL = str(BENCH_DIR / "cruise_quantized_unstable.ctl")


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_synth_success_report():
    code, out = run(["synth", CRUISE, "--seed", "1234", "--report", "json",
                     "--no-timing"])
    assert code == 0
    report = json.loads(out)
    assert report["format_version"] == 1
    assert report["outcome"] == "Success"
    assert report["certificate"]["status"] == "Stable"
    assert report["oracle"]["nominal_max_root_modulus"] < 1.0
    assert report["oracle"]["cancellation_on_or_outside_unit_circle"] is False
    assert "wall_time_s" not in report
    assert report["transcript"][0]["phase"] == "synthesize"


def test_sweep_certificate_has_a_null_margin():
    # Interval Jury leaves fourth-order's inflated box open and the sweep
    # proves it: no sound margin is known, and the report says null.
    code, out = run(["synth", str(ROOT / "perfbench" / "fixtures"
                                  / "fourth_order.bench"),
                     "--seed", "1", "--report", "json", "--no-timing"])
    assert code == 0
    assert json.loads(out)["certificate"] == {
        "status": "Stable", "violated": None, "margin": None,
        "settled_by": "sweep"}


def test_synth_timing_field_present_by_default():
    code, out = run(["synth", CRUISE, "--seed", "1234", "--report", "json"])
    assert code == 0
    assert "wall_time_s" in json.loads(out)


def test_synth_one_stage_engine():
    code, out = run(["synth", CRUISE, "--engine", "one", "--seed", "1234",
                     "--report", "json", "--no-timing"])
    assert code == 0
    assert json.loads(out)["engine"] == "one"


def test_controller_decimal_round_trip():
    _, out = run(["synth", CRUISE, "--seed", "1234", "--report", "json",
                  "--no-timing"])
    report = json.loads(out)
    fmt = FixedPointFormat(4, 16)
    ctl = report["controller"]
    for text, raw in zip(ctl["num"] + ctl["den"],
                         ctl["num_raw"] + ctl["den_raw"]):
        assert quantize_truncate(Fraction(text), fmt).raw == raw


def test_synth_trace_emission(tmp_path):
    trace = tmp_path / "trace.csv"
    code, out = run(["synth", CRUISE, "--seed", "1234", "--trace-out",
                     str(trace), "--report", "json", "--no-timing"])
    assert code == 0
    assert trace.exists()
    report = json.loads(out)
    assert report["trace"] == {"path": str(trace), "steps": 1000,
                               "diverged": False}


def test_synth_failure_exit_code():
    # Seed 0 needs a second iteration (one counterexample) on cruise.
    code, out = run(["synth", CRUISE, "--max-iters", "1", "--report", "json",
                     "--no-timing"])
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "Failure"
    assert report["reason"] == "iteration-limit"
    assert report["iterations"] == 1


def test_verify_stable_controller():
    code, out = run(["verify", CRUISE, "--controller", STABLE_CTL,
                     "--report", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "Stable"
    assert report["interval_jury"]["status"] == "Stable"
    assert report["interval_jury"]["settled_by"] == "interval"
    assert "settled_by" not in report["jury"]  # one plant, not a box
    assert report["nominal_max_root_modulus"] < 1.0
    assert 10 < report["gain_margin_db"] < 25


def test_verify_unstable_controller():
    code, out = run(["verify", CRUISE, "--controller", UNSTABLE_CTL,
                     "--report", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "Unstable"
    assert report["jury"]["violated"] == "R4"
    assert report["nominal_max_root_modulus"] > 1.0


def test_verify_applies_default_plant_grid(tmp_path):
    # Without its plant_format line, the family verdict covers the family
    # inflated to the engines' default plant grid, which is the line's.
    text = pathlib.Path(CRUISE).read_text()
    bench = tmp_path / "cruise.bench"
    bench.write_text(text.replace("plant_format = 16,24\n", ""))
    assert bench.read_text() != text
    verdicts = [json.loads(run(["verify", path, "--controller", STABLE_CTL,
                                "--report", "json"])[1])["interval_jury"]
                for path in (CRUISE, str(bench))]
    assert verdicts[0] == verdicts[1]


def test_synth_flag_defaults_are_the_engine_limits():
    args = build_parser().parse_args(["synth", CRUISE])
    limits = Limits()
    assert (args.max_iters, args.max_precision, args.timeout) == (
        limits.max_iterations, limits.max_precision, limits.timeout_s)


def test_verify_zero_controller_matches_plant_stability(tmp_path):
    ctl = tmp_path / "zero.ctl"
    ctl.write_text("num = 0\nden = 1\n")
    code, out = run(["verify", CRUISE, "--controller", str(ctl),
                     "--report", "json"])
    # The cruise plant is open-loop stable, so C = 0 verifies Stable.
    assert code == 0
    assert json.loads(out)["outcome"] == "Stable"


def test_verify_trace_emission(tmp_path):
    trace = tmp_path / "trace.csv"
    code, out = run(["verify", CRUISE, "--controller", STABLE_CTL,
                     "--trace-out", str(trace), "--steps", "100",
                     "--report", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["trace"]["diverged"] is False
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,t,r,e,u,y"
    assert len(lines) == 101


def test_verify_trace_pins_the_worst_case_noise(tmp_path):
    # cruise_stable.ctl at <4,16>, q = 2^-16: raws b = 723202, 383130,
    # 321247 and a = 71952, 4135, 8412.  Derived by hand: each converter
    # adds q/2 with the sign of its signal x (x + q/2 for x >= 0, else
    # x - q/2), and trunc rounds toward zero:
    #   e_k = trunc((1 - y_k ± q/2)·2^16),
    #   u_k = trunc((sum_j trunc(b_j·e_{k-j}/2^16)
    #                - sum_{j>=1} trunc(a_j·u_{k-j}/2^16))·2^16/a_0),
    #   y_{k+1} = 0.9998·y_k + 0.0264·(u_{k-1}·2^-16 ± q/2), y_0 = y_1 = 0
    # (the plant path reads u one sample back).  Without the noise, e_2
    # would be 48145 and y_2 0.0264·u_0·2^-16.
    trace = tmp_path / "trace.csv"
    code, _ = run(["verify", CRUISE, "--controller", STABLE_CTL,
                   "--trace-out", str(trace), "--steps", "6"])
    assert code == 0
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    scale = FixedPointFormat(40, 16).scale
    assert [[int(Fraction(e) * scale), int(Fraction(u) * scale), y]
            for _, _, _, e, u, y in rows] == [
        [65536, 658713, "0.0"],
        [65536, 969824, "0.0"],
        [48146, 992745, "0.2653508972167969"],
        [22546, 605147, "0.6559742003283692"],
        [-3654, 147445, "1.0557526917676003"],
        [-19616, -195179, "1.2993143378601062"]]


@pytest.mark.parametrize("name,key,value", [
    ("cruise.bench", "controller_orders", "--1, 2"),
    ("cruise.bench", "controller_orders", "\u00b2, 2"),
    ("cruise.bench", "controller_format", "4, --16"),
    ("cruise_stable.ctl", "format", "\u00b2, 16"),
], ids=["orders-double-minus", "orders-superscript", "format-double-minus",
        "ctl-format-superscript"])
def test_malformed_integer_pair_is_a_parse_error(tmp_path, capsys, name,
                                                 key, value):
    # str.isdigit accepts "²", and "--1" has digits after its minus signs;
    # int() rejects both.  Each is a parse error naming its line, exit 2.
    path = tmp_path / name
    lines = (BENCH_DIR / name).read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, 1)
                  if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bench, ctl = ((path, STABLE_CTL) if name.endswith(".bench")
                  else (CRUISE, path))
    assert main(["verify", str(bench), "--controller", str(ctl)]) == 2
    assert f"line {lineno}: expected two integers" in capsys.readouterr().err


def test_verify_trace_ends_at_an_overflow_past_divergence(tmp_path,
                                                          capsys):
    # u = 2^41·e leaves <48,8> at step 2, whose y, about 5.8e10, is past
    # the divergence threshold: the trace ends there, and the report is
    # written, not an overflow error.
    ctl, trace = tmp_path / "c.ctl", tmp_path / "trace.csv"
    ctl.write_text("num = 2199023255552\nden = 1\nformat = 48,8\n")
    assert main(["verify", CRUISE, "--controller", str(ctl), "--trace-out",
                 str(trace), "--report", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert report["outcome"] == "Unstable"
    assert report["trace"] == {"path": str(trace), "steps": 3,
                               "diverged": True}
    k, _, _, e, u, y = trace.read_text().splitlines()[-1].split(",")
    assert (k, e, u) == ("2", "", "") and float(y) > 10 ** 6


def test_trace_out_past_24_fraction_bits(tmp_path):
    # At controller_format = 4,32 the signal grid is <32,32>: each e and u
    # decimal reparses to a raw on that grid and renders back unchanged.
    bench = tmp_path / "cruise_4_32.bench"
    bench.write_text(pathlib.Path(CRUISE).read_text().replace(
        "controller_format = 4,16", "controller_format = 4,32"))
    ctl = tmp_path / "stable.ctl"  # no format line: the benchmark's <4,32>
    ctl.write_text("".join(line for line in open(STABLE_CTL)
                           if not line.startswith("format")))
    grid = FixedPointFormat(32, 32)
    for argv in (["synth", str(bench), "--seed", "1234", "--no-timing"],
                 ["verify", str(bench), "--controller", str(ctl),
                  "--steps", "100"]):
        trace = tmp_path / f"{argv[0]}.csv"
        code, out = run([*argv, "--trace-out", str(trace), "--report",
                         "json"])
        assert code == 0
        assert json.loads(out)["trace"]["path"] == str(trace)
        rows = [line.split(",") for line in trace.read_text().splitlines()]
        assert rows[0] == ["k", "t", "r", "e", "u", "y"] and len(rows) > 1
        for row in rows[1:]:
            for text in row[3:5]:
                raw = int(Fraction(text) * grid.scale)
                assert FixedPointValue(raw, grid).decimal_str() == text


def test_trace_out_past_40_integer_bits(tmp_path):
    # At controller_format = 48,8 the coefficients 2^41 and 2^43 (a gain of
    # 1/4) do not fit <40,8>: the signal grid takes the controller's 48
    # integer bits, and each e and u decimal is a raw on it.
    bench = tmp_path / "cruise_48_8.bench"
    bench.write_text(pathlib.Path(CRUISE).read_text().replace(
        "controller_format = 4,16", "controller_format = 48,8"))
    ctl = tmp_path / "wide.ctl"
    ctl.write_text(f"num = {2 ** 41}\nden = {2 ** 43}\n")
    trace = tmp_path / "verify.csv"
    code, out = run(["verify", str(bench), "--controller", str(ctl),
                     "--steps", "100", "--trace-out", str(trace),
                     "--report", "json"])
    assert code == 0
    assert json.loads(out)["trace"] == {"path": str(trace), "steps": 100,
                                        "diverged": False}
    grid = FixedPointFormat(48, 8)
    rows = [line.split(",") for line in trace.read_text().splitlines()]
    assert rows[1][3:5] == ["1.00000000", "0.25000000"]
    for row in rows[1:]:
        for text in row[3:5]:
            raw = int(Fraction(text) * grid.scale)
            assert FixedPointValue(raw, grid).decimal_str() == text


@pytest.mark.parametrize("num,den", [
    ("0.5, 0.25", "0, 1"),   # C(z) = (0.5z + 0.25) / 1
    ("1", "0"),
    ("1, 2", "1"),           # padded to the numerator: 0z + 1
    ("1", "0.000001"),       # quantizes to zero
], ids=["lead-zero", "zero-den", "short-den", "quantized-zero"])
def test_verify_rejects_noncausal_controller(tmp_path, capsys, num, den):
    ctl = tmp_path / "c.ctl"
    ctl.write_text(f"num = {num}\nden = {den}\n")
    assert main(["verify", CRUISE, "--controller", str(ctl)]) == 2
    assert "not causal" in capsys.readouterr().err


@pytest.mark.parametrize("rounding", ["truncate", "nearest"])
def test_verify_rejects_coefficient_outside_its_format(tmp_path, capsys,
                                                       rounding):
    # A validation error (2), not the Unstable code (1).
    ctl = tmp_path / "c.ctl"
    ctl.write_text("num = 100000\nden = 1\nformat = 4,16\n")
    assert main(["verify", CRUISE, "--controller", str(ctl),
                 "--rounding", rounding]) == 2
    assert "value 100000 does not fit <4,16>" in capsys.readouterr().err


def test_verify_steps_must_be_positive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", CRUISE, "--controller", STABLE_CTL, "--steps", "0",
              "--trace-out", str(tmp_path / "trace.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [
    ("--timeout", "nan"), ("--timeout", "0"), ("--timeout", "-1"),
    ("--max-iters", "0"), ("--max-iters", "-1")])
def test_synth_limits_must_be_positive(capsys, flag, value):
    # A NaN deadline never passes: every comparison with it is false.
    with pytest.raises(SystemExit) as exc:
        main(["synth", CRUISE, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("this is not valid\n")
    assert main(["synth", str(bad)]) == 2
    assert main(["synth", str(tmp_path / "missing.bench")]) == 2


def test_synth_rejects_noncausal_orders(tmp_path, capsys):
    # A numerator order above the denominator order is not causal.
    bench = tmp_path / "noncausal.bench"
    bench.write_text((ROOT / "perfbench" / "fixtures"
                      / "double_integrator.bench").read_text().replace(
        "controller_orders = 2,2", "controller_orders = 2,1"))
    for engine in ("two", "one"):
        assert main(["synth", str(bench), "--engine", engine]) == 2
    assert "not causal" in capsys.readouterr().err


@pytest.mark.parametrize("domain,num,den,verb", [
    ("z", "1, 0, 0", "1, 0.5", "synth"),
    ("z", "1, 0, 0", "1, 0.5", "verify"),
    ("s", "1, 0, 0", "1, 0.5", "synth"),
    ("s", "1", "0, 0", "synth"),
], ids=["z-improper-synth", "z-improper-verify-trace", "s-improper",
        "s-zero-den"])
def test_invalid_plant_exit_code(tmp_path, capsys, domain, num, den, verb):
    # Both domains reject an improper plant and an all-zero denominator.
    bench = tmp_path / "plant.bench"
    bench.write_text(f"name = p\ndomain = {domain}\nnum = {num}\n"
                     f"den = {den}\nsample_time = 0.2\n"
                     "controller_format = 4,16\ncontroller_orders = 2,2\n")
    argv = [verb, str(bench)]
    if verb == "verify":
        argv += ["--controller", STABLE_CTL,
                 "--trace-out", str(tmp_path / "trace.csv")]
    assert main(argv) == 2
    assert "plant" in capsys.readouterr().err


def test_text_report_mirrors_json_fields():
    _, text = run(["synth", CRUISE, "--seed", "1234", "--no-timing"])
    _, js = run(["synth", CRUISE, "--seed", "1234", "--report", "json",
                 "--no-timing"])
    report = json.loads(js)
    for key in report:
        assert f"{key}:" in text


def test_no_timing_reports_are_byte_identical():
    outs = [run(["synth", CRUISE, "--seed", "42", "--report", "json",
                 "--no-timing"])[1] for _ in range(2)]
    assert outs[0] == outs[1]


def test_rounding_flag_changes_quantization(tmp_path):
    ctl = tmp_path / "c.ctl"
    # 2/3 is off-grid; truncate and nearest land on different raws.
    ctl.write_text("num = 2/3\nden = 1\n")
    reports = {}
    for mode in ("truncate", "nearest"):
        _, out = run(["verify", CRUISE, "--controller", str(ctl),
                      "--rounding", mode, "--report", "json"])
        reports[mode] = json.loads(out)["controller"]["num_raw"][0]
    assert reports["truncate"] != reports["nearest"]


def test_rounding_flag_is_verify_only(capsys):
    # synth never quantizes a given controller, so it has no --rounding.
    with pytest.raises(SystemExit) as exc:
        main(["synth", CRUISE, "--rounding", "nearest"])
    assert exc.value.code == 2


def imported_modules(*args):
    """Top-level names of every module a fresh `python -X importtime ARGS`
    imports from its start to its exit, with dcsynth taken from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip().split(".")[0]
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_cli_import_loads_neither_numpy_nor_mpmath():
    loaded = imported_modules("-c", "import dcsynth.cli")
    assert "dcsynth" in loaded
    assert not loaded & {"numpy", "mpmath"}


# A failing candidate search of many restarts, against cruise_uncertain's
# first two counterexamples (test_cegis.py's CRUISE_UNCERTAIN_CEX).
FAILING_SEARCH = """
import sys
from fractions import Fraction
from dcsynth.cegis import synthesize_candidate
from dcsynth.errors import NoCandidate
from dcsynth.fixedpoint import FixedPointFormat
from dcsynth.transfer import TransferFunction
den = [1, Fraction(-6290617, 2 ** 22)]
inputs = [TransferFunction([Fraction(-7945689, 2 ** 24)], den),
          TransferFunction([Fraction(4415763, 2 ** 23)], den)]
try:
    synthesize_candidate(inputs, FixedPointFormat(4, 16), (2, 2), 1, 2000)
except NoCandidate:
    pass
assert "numpy" not in sys.modules
"""


@pytest.mark.parametrize("argv", [
    ["-m", "dcsynth", "synth", CRUISE, "--engine", "two", "--report", "json"],
    ["-m", "dcsynth", "synth", CRUISE, "--engine", "one", "--report", "json"],
    ["-m", "dcsynth", "verify", CRUISE, "--controller", STABLE_CTL,
     "--report", "json"],
    ["-c", FAILING_SEARCH],
], ids=["synth-two", "synth-one", "verify", "search-budget-2000"])
def test_cli_runs_without_numpy(argv):
    loaded = imported_modules(*argv)
    assert "dcsynth" in loaded and "numpy" not in loaded


@pytest.mark.parametrize("argv", [
    ["synth", "{fixtures}/dc_motor.bench", "--engine", "one"],
    ["synth", "{fixtures}/dc_motor_uncertain.bench"],
    ["verify", CRUISE, "--controller", STABLE_CTL,
     "--trace-out", "{tmp}/trace.csv"],
], ids=["dc-motor-one", "dc-motor-uncertain-two", "verify-trace"])
def test_cli_runs_without_mpmath(tmp_path, argv):
    # ZOH discretization and the step response are plain Python.
    argv = [a.format(fixtures=ROOT / "perfbench" / "fixtures", tmp=tmp_path)
            for a in argv]
    loaded = imported_modules("-m", "dcsynth", *argv, "--report", "json")
    assert "dcsynth" in loaded and "mpmath" not in loaded
