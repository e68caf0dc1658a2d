"""Command-line front end: synthesis and verification over benchmark files.

Exit codes: 0 for Success/Stable, 1 for Failure/Unstable, 2 for usage,
parse, or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .benchmark import BenchmarkSpec, parse_benchmark, parse_controller
from .cegis import (DEFAULT_PLANT_FORMAT, Limits, cegis_one_stage,
                    cegis_two_stage, describe_controller, verify_precision)
from .errors import DcsynthError, Overflow, ParseError, ValidationError
from .fixedpoint import FixedPointFormat, quantize_poly
from .simulate import (cancellation_on_or_outside_unit_circle,
                       frequency_margins, step_response)
from .stability import jury_stable, root_oracle
from .transfer import Controller, TransferFunction, char_poly

FORMAT_VERSION = 1


def _certificate_report(verdict):
    if verdict is None:
        return None
    report = {"status": verdict.status.value, "violated": verdict.violated,
              "margin": None if verdict.margin is None else str(verdict.margin)}
    if verdict.settled_by is not None:  # a box verdict
        report["settled_by"] = verdict.settled_by
    return report


def _oracle_spot_check(controller: Controller, spec: BenchmarkSpec):
    s = char_poly(controller, spec.plant)
    return {
        "nominal_max_root_modulus": root_oracle(s) if s.degree >= 1 else 0.0,
        "cancellation_on_or_outside_unit_circle":
            cancellation_on_or_outside_unit_circle(controller, spec.plant),
    }


def run_synthesis(spec: BenchmarkSpec, engine: str, seed: int,
                  limits: Limits, with_timing: bool = True) -> dict:
    return _synthesis(spec, engine, seed, limits, with_timing)[1]


def _synthesis(spec: BenchmarkSpec, engine: str, seed: int, limits: Limits,
               with_timing: bool):
    """The engine's SynthesisResult and the synth report built from it."""
    engines = {"two": cegis_two_stage, "one": cegis_one_stage}
    result = engines[engine](spec.family, spec.controller_format,
                             spec.controller_orders, seed, limits)
    # A Success's controller is the candidate the transcript describes last:
    # the report keeps that one description, not a copy.
    described = [t["candidate"] for t in result.transcript if "candidate" in t]
    report = {
        "format_version": FORMAT_VERSION,
        "command": "synth",
        "benchmark": spec.name,
        "engine": engine,
        "seed": seed,
        "outcome": "Success" if result.success else "Failure",
        "reason": result.reason,
        "controller": described[-1] if result.success else None,
        "plant_format": str(result.plant_format),
        "iterations": result.iterations,
        "certificate": _certificate_report(result.certificate),
        "oracle": (_oracle_spot_check(result.controller, spec)
                   if result.success else None),
        "transcript": result.transcript,
    }
    if with_timing:
        report["wall_time_s"] = result.wall_time_s
    return result, report


def _write_trace(controller: Controller, spec: BenchmarkSpec, path,
                 steps: int) -> dict:
    """Write the closed-loop step response under worst-case ADC/DAC errors
    of the controller's step to `path` as CSV; returns the report's
    `trace` block."""
    trace = step_response(controller, spec.plant,
                          spec.sample_time or Fraction(1), steps,
                          controller.format.step)
    with open(path, "w") as fh:
        trace.write_csv(fh)
    return {"path": str(path), "steps": len(trace),
            "diverged": trace.diverged()}


def run_verify(spec: BenchmarkSpec, controller_coeffs, rounding: str,
               trace_out=None, steps: int = 1000) -> dict:
    num, den, file_fmt = controller_coeffs
    fmt = file_fmt or spec.controller_format
    try:
        controller = Controller(quantize_poly(num, fmt, rounding),
                                quantize_poly(den, fmt, rounding))
    except Overflow as exc:  # a coefficient outside the format
        raise ValidationError(str(exc)) from None
    # The controller update divides by the denominator's leading
    # coefficient, with the denominator front-padded to the numerator.
    if (len(controller.num) > len(controller.den)
            or controller.den[0].raw == 0):
        raise ValidationError("controller is not causal: zero leading "
                              "coefficient of the padded denominator")
    s = char_poly(controller, spec.plant)
    verdict = jury_stable(s)
    # Without a plant_format line, the engines' default plant grid.
    sound = verify_precision(controller, spec.family.with_format(
        spec.family.plant_format or DEFAULT_PLANT_FORMAT))
    gm, pm = frequency_margins(controller, spec.plant,
                               spec.sample_time or Fraction(1))
    report = {
        "format_version": FORMAT_VERSION,
        "command": "verify",
        "benchmark": spec.name,
        "outcome": verdict.status.value,
        "controller": describe_controller(controller),
        "jury": _certificate_report(verdict),
        "interval_jury": _certificate_report(sound),
        "cancellation_on_or_outside_unit_circle":
            cancellation_on_or_outside_unit_circle(controller, spec.plant),
        "nominal_max_root_modulus":
            root_oracle(s) if s.degree >= 1 else 0.0,
        "gain_margin_db": "inf" if math.isinf(gm) else round(gm, 6),
        "phase_margin_deg": "inf" if math.isinf(pm) else round(pm, 6),
    }
    if trace_out is not None:
        report["trace"] = _write_trace(controller, spec, trace_out, steps)
    return report


def _render_text(report: dict, indent: str = "", lines=None) -> str:
    top = lines is None
    lines = [] if top else lines
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            _render_text(value, indent + "  ", lines)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(f"{indent}  -")
                _render_text(item, indent + "    ", lines)
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines) if top else ""


def emit_report(report: dict, style: str, out=None):
    out = out or sys.stdout
    if style == "json":
        json.dump(report, out, indent=2, default=str)
    else:
        out.write(_render_text(report))
    out.write("\n")


def _parse_format(text: str) -> FixedPointFormat:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected I,F")
    try:
        return FixedPointFormat(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcsynth",
        description="Fixed-point controller synthesis and verification "
                    "for uncertain discrete plants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help):
        p.add_argument("file", help="benchmark file")
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("--trace-out", metavar="PATH", default=None)
        p.add_argument("--report", choices=("json", "text"), default="text")
        p.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock fields (byte-identical reruns)")

    p_synth = sub.add_parser("synth", help="synthesize a controller")
    common(p_synth, "seed of the candidate search")
    p_synth.add_argument("--engine", choices=("two", "one"), default="two")
    defaults = Limits()
    p_synth.add_argument("--max-iters", type=int,
                         default=defaults.max_iterations)
    p_synth.add_argument("--max-precision", type=_parse_format,
                         default=defaults.max_precision, metavar="I,F")
    p_synth.add_argument("--timeout", type=float, default=defaults.timeout_s,
                         metavar="SECS")

    p_verify = sub.add_parser("verify", help="verify a given controller")
    common(p_verify, "nothing to seed (the trace's noise is worst-case); "
                     "accepted so synth and verify take the same flags")
    p_verify.add_argument("--controller", required=True, metavar="PATH",
                          help="controller coefficient file")
    p_verify.add_argument("--rounding", choices=("truncate", "nearest"),
                          default="truncate")
    p_verify.add_argument("--steps", type=int, default=1000,
                          help="trace length when --trace-out is given")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.steps < 1:
        parser.error("--steps must be at least 1")
    if args.command == "synth" and not (args.max_iters >= 1
                                        and args.timeout > 0):  # not NaN
        parser.error("--max-iters must be at least 1, --timeout positive")
    try:
        spec = parse_benchmark(args.file)
        if args.command == "synth":
            limits = Limits(max_iterations=args.max_iters,
                            max_precision=args.max_precision,
                            timeout_s=args.timeout)
            result, report = _synthesis(spec, args.engine, args.seed, limits,
                                        not args.no_timing)
            if args.trace_out and result.success:
                report["trace"] = _write_trace(result.controller, spec,
                                               args.trace_out, 1000)
            emit_report(report, args.report)
            return 0 if report["outcome"] == "Success" else 1
        controller_coeffs = parse_controller(args.controller)
        report = run_verify(spec, controller_coeffs, args.rounding,
                            trace_out=args.trace_out, steps=args.steps)
        emit_report(report, args.report)
        return 0 if report["outcome"] == "Stable" else 1
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DcsynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
