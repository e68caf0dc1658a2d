#!/usr/bin/env python3
"""End-to-end cruise-control walkthrough.

Quantizes the real-valued controller onto the <4,16> grid, shows the
stability loss, verifies the repaired controller, synthesizes a fresh one,
and writes step-response traces plus margin files into --out-dir.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dcsynth import (Controller, Limits, cegis_two_stage, char_poly,
                     frequency_margins, jury_stable, parse_benchmark,
                     parse_controller, quantize_poly, root_oracle,
                     step_response)

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def report_controller(tag, controller, plant, sample_time, out_dir, steps):
    s = char_poly(controller, plant)
    verdict = jury_stable(s)
    print(f"[{tag}] jury: {verdict.status.value}"
          f" (violated={verdict.violated}, margin={float(verdict.margin):.4g})")
    print(f"[{tag}] max root modulus: {root_oracle(s):.6f}")
    gm, pm = frequency_margins(controller, plant, sample_time)
    print(f"[{tag}] gain margin: {gm:.2f} dB, phase margin: "
          f"{'inf' if pm == float('inf') else f'{pm:.2f} deg'}")
    with open(out_dir / f"{tag}_margins.txt", "w") as fh:
        for key, x in (("gain_margin_db", gm), ("phase_margin_deg", pm)):
            text = "inf" if x == float("inf") else f"{x:.6f}"
            fh.write(f"{key} = {text}\n")
    trace = step_response(controller, plant, sample_time, steps,
                          controller.format.step)
    with open(out_dir / f"{tag}_trace.csv", "w") as fh:
        trace.write_csv(fh)
    if trace.diverged():
        print(f"[{tag}] trace DIVERGED at step {trace.divergence_step()}")
    else:
        print(f"[{tag}] trace bounded over {len(trace)} steps, "
              f"final y = {float(trace.y[-1]):.6f}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out", type=pathlib.Path)
    ap.add_argument("--steps", default=1000, type=int)
    ap.add_argument("--seed", default=1234, type=int)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    spec = parse_benchmark(BENCH_DIR / "cruise.bench")
    plant = spec.plant
    fmt = spec.controller_format
    print(f"plant: {[str(c) for c in plant.num.coeffs]} / "
          f"{[str(c) for c in plant.den.coeffs]}, T = {spec.sample_time}\n")

    for tag, path in (("quantized_unstable", "cruise_quantized_unstable.ctl"),
                      ("repaired_stable", "cruise_stable.ctl")):
        num, den, ffmt = parse_controller(BENCH_DIR / path)
        ctl = Controller(quantize_poly(num, ffmt or fmt),
                         quantize_poly(den, ffmt or fmt))
        report_controller(tag, ctl, plant, spec.sample_time, args.out_dir,
                          args.steps)

    print(f"synthesizing fresh controller (seed {args.seed}) ...")
    result = cegis_two_stage(spec.family, fmt, spec.controller_orders,
                             args.seed, Limits())
    if not result.success:
        print(f"synthesis failed: {result.reason}")
        return 1
    cert = result.certificate
    margin = "none" if cert.margin is None else f"{float(cert.margin):.4g}"
    print(f"converged in {result.iterations} iterations at "
          f"{result.plant_format}, certificate settled by {cert.settled_by}, "
          f"margin {margin}")
    report_controller("synthesized", result.controller, plant,
                      spec.sample_time, args.out_dir, args.steps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
