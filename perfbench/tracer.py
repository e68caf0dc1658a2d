"""Span tracing of dcsynth's public functions, from outside the package.

A span is (name, start, end, parent, extra): `parent` indexes the enclosing
span, `extra` is a small per-layer detail (a verdict status, a trace length).
Spans are kept in memory; the caller writes them out when the run ends.

dcsynth's modules import functions by name, so tracing a function means
patching its binding in every module that calls it.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

from stats import self_times

# (calling module, attribute, span name)
PATCHES = (
    ("dcsynth.cli", "parse_benchmark", "benchmark.parse_benchmark"),
    ("dcsynth.benchmark", "zoh_discretize", "discretize.zoh_discretize"),
    ("dcsynth.cli", "cegis_two_stage", "cegis.engine"),
    ("dcsynth.cli", "cegis_one_stage", "cegis.engine"),
    ("dcsynth.cegis", "synthesize_candidate", "cegis.synthesize_candidate"),
    ("dcsynth.cegis", "verify_uncertainty", "cegis.verify_uncertainty"),
    ("dcsynth.cegis", "verify_precision", "cegis.verify_precision"),
    ("dcsynth.cli", "verify_precision", "cegis.verify_precision"),
    ("dcsynth.cegis", "concrete_verdict", "cegis.concrete_verdict"),
    ("dcsynth.cegis", "jury_stable_interval", "stability.jury_stable_interval"),
    ("dcsynth.cegis", "ipoly_mul", "intervals.ipoly_mul"),
    ("dcsynth.cegis", "jury_stable", "stability.jury_stable"),
    ("dcsynth.cli", "jury_stable", "stability.jury_stable"),
    ("dcsynth.cli", "root_oracle", "stability.root_oracle"),
    ("dcsynth.cegis", "char_poly", "transfer.char_poly"),
    ("dcsynth.cli", "char_poly", "transfer.char_poly"),
    ("dcsynth.cli", "step_response", "simulate.step_response"),
    ("dcsynth.cli", "frequency_margins", "simulate.frequency_margins"),
)

# Layers reported with `.calls` and `.self_ms`.  concrete_verdict is also
# split by the span that called it: the candidate search or the uncertainty
# stage's vertex scan and descent.
LAYERS = (
    "benchmark.parse_benchmark",
    "discretize.zoh_discretize",
    "cegis.synthesize_candidate",
    "cegis.concrete_verdict",
    "cegis.concrete_verdict.search",
    "cegis.concrete_verdict.uncertainty",
    "cegis.verify_uncertainty",
    "cegis.verify_precision",
    "stability.jury_stable_interval",
    "intervals.ipoly_mul",
    "stability.jury_stable",
    "stability.root_oracle",
    "transfer.char_poly",
    "simulate.step_response",
    "simulate.frequency_margins",
)
_CALLER_SUFFIX = {"cegis.synthesize_candidate": ".search",
                  "cegis.verify_uncertainty": ".uncertainty"}


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _extra(name, args, out):
    """Per-layer detail kept on the span; must be JSON-serialisable."""
    if name == "stability.jury_stable_interval":
        bits = max(max(_bits(c.lo), _bits(c.hi)) for c in args[0].coeffs)
        return [out.status.value, max(bits, _bits(out.margin))]
    if name == "cegis.verify_uncertainty":
        return "witness" if out is not None else "box-ok"
    if name == "simulate.step_response":
        return len(out)
    if name == "cegis.engine":
        phases = Counter(t["phase"] for t in out.transcript)
        return [out.iterations, phases["counterexample"],
                phases["increase-precision"]]
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                   None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = time.perf_counter()
                rec[4] = "raised:" + type(exc).__name__
                raise
            finally:
                self._stack.pop()
            rec[2] = time.perf_counter()
            rec[4] = _extra(name, args, out)
            return out
        return traced

    def reset(self):
        """Forgets the spans, and any span a stopped call left open."""
        self.spans = []
        self._stack = []

    def install(self):
        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            self._originals.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._originals):
            setattr(mod, attr, orig)
        self._originals.clear()

    def call(self, fn, *args):
        """Runs fn(*args) under a root span named 'call'."""
        return self._wrap("call", fn)(*args)


def signature(spans):
    """Deterministic per-call work counts: span name -> calls."""
    return sorted(Counter(s[0] for s in spans).items())


def layer_metrics(spans):
    """Per-layer metrics over `spans` (lists of name, start, end, parent,
    extra); times in ms."""
    selfs = self_times([s[:4] for s in spans])
    calls = Counter()
    self_ms = defaultdict(float)
    unknown = witness = failed = bits = 0
    iterations = cexs = raises = steps = 0
    for (name, _, _, parent, extra), st in zip(spans, selfs):
        names = [name]
        if name == "cegis.concrete_verdict" and parent is not None:
            suffix = _CALLER_SUFFIX.get(spans[parent][0])
            if suffix:
                names.append(name + suffix)
        for n in names:
            calls[n] += 1
            self_ms[n] += st * 1000
        if name == "stability.jury_stable_interval" and isinstance(extra, list):
            unknown += extra[0] == "Unknown"
            bits = max(bits, extra[1])
        elif name == "cegis.verify_uncertainty":
            witness += extra == "witness"
            failed += extra == "raised:CounterexampleExtractionFailed"
        elif name == "cegis.engine" and isinstance(extra, list):
            iterations += extra[0]
            cexs += extra[1]
            raises += extra[2]
        elif name == "simulate.step_response" and isinstance(extra, int):
            steps += extra
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_ms"] = self_ms[layer]
    jsi = calls["stability.jury_stable_interval"]
    vu = calls["cegis.verify_uncertainty"]
    out["stability.jury_stable_interval.unknown_share"] = unknown / jsi if jsi else 0.0
    out["intervals.endpoint_bits.max"] = bits
    out["cegis.verify_uncertainty.witness_share"] = witness / vu if vu else 0.0
    out["cegis.verify_uncertainty.extraction_failed"] = failed
    out["cegis.iterations"] = iterations
    out["cegis.counterexamples"] = cexs
    out["cegis.precision_increases"] = raises
    out["simulate.step_response.steps"] = steps
    return out


def self_ms_by_layer(spans):
    """Span name -> total self time in ms (for the printed layer split)."""
    total = defaultdict(float)
    for s, st in zip(spans, self_times([s[:4] for s in spans])):
        total[s[0]] += st * 1000
    return total
