"""Span recorder for the traced run, and the wrappers that feed it.

A span is one call across a layer boundary: name, start, end, parent span
and job id. The wrappers replace a public function at every module
attribute where another `logidp` module looks it up (for example
`logidp.experiments.train_attack_classifier`), so no code under
`src/logidp` changes. Calls a module makes to its own functions are not
layer boundaries and are not wrapped. Spans stay in memory and are written
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = (
    "cli", "experiments", "pipeline", "sensitivity", "mia",
    "protection", "mechanisms", "noise", "rng", "weights",
)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _attack_flop(args) -> float:
    """Matmul flops of full-batch training: forward, weight gradient and input
    gradient are one (n x fan_in) @ (fan_in x fan_out) product each per layer."""
    cfg = args["cfg"]
    records = args["records"]
    width = 2 * records[0].num_classes
    sizes = [width] + [cfg.hidden_width] * cfg.hidden_layers + [1]
    per_epoch = sum(a * b for a, b in zip(sizes, sizes[1:]))
    return 3 * 2.0 * len(records) * per_epoch * cfg.epochs


# span name -> counters taken from the bound call arguments
_COUNTERS = {
    "pipeline.encode": lambda a: {"rows": _rows(a["x"])},
    "mia.attack_accuracy": lambda a: {
        "rows_scored": 2 * min(len(a["members"]), len(a["nonmembers"]))
    },
    "mia.train_attack_classifier": lambda a: {"flop": _attack_flop(a)},
    "sensitivity.sample_sensitivity": lambda a: {"pairs": a["m"]},
    "mechanisms.sample_noise": lambda a: {"draws": a["n"]},
    "rng.RngStream.uniforms": lambda a: {"draws": a["n"]},
}

# public functions traced at their cross-module lookup sites; cli.main is
# the entry call itself and RngStream.uniforms a method, both wrapped apart
TRACED = (
    "experiments.run_sweep",
    "experiments.emit_report",
    "pipeline.pretrain_encoder",
    "pipeline.finetune_head",
    "pipeline.encode",
    "sensitivity.sample_sensitivity",
    "mia.build_attack_dataset",
    "mia.train_attack_classifier",
    "mia.attack_accuracy",
    "protection.protect_existing",
    "protection.export_protected_model",
    "mechanisms.scale_for_budget",
    "mechanisms.sample_noise",
    "noise.sample_logistic",
    "noise.sample_laplace",
    "noise.sample_gaussian",
    "rng.derive_seed",
    "weights.save_weights",
    "weights.load_weights",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    counts: dict = field(default_factory=dict)


class SpanRecorder:
    """In-memory spans; `job` labels the spans recorded from now on.
    `unwrapped` lists the traced names that no module looked up when the
    functions were last wrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self.unwrapped: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = counter(signature.bind(*args, **kwargs).arguments) if counter else {}
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.job, counts)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder):
    """Wrap every traced function at its lookup sites for the block's
    duration; yields the wrapped `logidp.cli.main`."""
    modules = {name: importlib.import_module(f"logidp.{name}") for name in LAYERS}
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    recorder.unwrapped = []
    try:
        for name in TRACED:
            layer, _, func = name.partition(".")
            original = getattr(modules[layer], func)
            traced = recorder.wrap(name, original)
            sites = [m for caller, m in modules.items()
                     if caller != layer and getattr(m, func, None) is original]
            for module in sites:
                patch(module, func, traced)
            if not sites:
                recorder.unwrapped.append(name)
        stream = modules["rng"].RngStream
        patch(stream, "uniforms", recorder.wrap("rng.RngStream.uniforms", stream.uniforms))
        yield recorder.wrap("cli.main", modules["cli"].main)
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def _tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten of n samples beyond
    it; below 20 samples none qualifies and the maximum (p100) stands in."""
    fitting = [p for p in (50.0, 90.0, 99.0, 99.9) if n * (1 - p / 100) >= 10]
    return fitting[-1] if fitting else 100.0


def _quantile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile p of values; 0.0 when there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], selfs: list[float], job: str, check: str) -> dict:
    """Per-layer metrics of one traced job; `check` names the job id of the
    output check that followed it, where the release is loaded back."""
    durations = defaultdict(list)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    sensitivity_spans = set()
    retrains = 0
    for i, s in enumerate(spans):
        if s.job != job:
            continue
        durations[s.name].append(s.end - s.start)
        self_s[s.name] += selfs[i]
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
        if s.name == "sensitivity.sample_sensitivity":
            sensitivity_spans.add(i)
        elif s.name == "pipeline.finetune_head" and s.parent in sensitivity_spans:
            retrains += 1

    def total(name):
        return sum(durations[name], 0.0)

    attack_ms = [d * 1e3 for d in durations["mia.attack_accuracy"]]
    pairs = counts["sensitivity.sample_sensitivity.pairs"]
    draws = counts["mechanisms.sample_noise.draws"]
    gflop = counts["mia.train_attack_classifier.flop"] / 1e9
    loads = [s.end - s.start for s in spans if s.job == check and s.name == "weights.load_weights"]
    return {
        "mia.train_attack_classifier.s": total("mia.train_attack_classifier"),
        "mia.train_attack_classifier.gflop": gflop,
        "mia.train_attack_classifier.gflop_per_s": _ratio(gflop, total("mia.train_attack_classifier")),
        "mia.build_attack_dataset.s": total("mia.build_attack_dataset"),
        "mia.attack_accuracy.calls": len(attack_ms),
        "mia.attack_accuracy.ms_p50": _quantile(attack_ms, 50.0),
        "mia.attack_accuracy.ms_tail": _quantile(attack_ms, _tail_percentile(len(attack_ms))),
        "mia.attack_accuracy.self_s": self_s["mia.attack_accuracy"],
        "mia.attack_accuracy.rows_scored": counts["mia.attack_accuracy.rows_scored"],
        "pipeline.encode.rows": counts["pipeline.encode.rows"],
        "pipeline.encode.self_s": self_s["pipeline.encode"],
        "sensitivity.sample_sensitivity.s": total("sensitivity.sample_sensitivity"),
        "sensitivity.sample_sensitivity.self_s": self_s["sensitivity.sample_sensitivity"],
        "sensitivity.pairs": pairs,
        "sensitivity.loo_retrains": retrains,
        "sensitivity.retrain_reuse_ratio": 1 - _ratio(retrains, 2 * pairs) if pairs else 0.0,
        "sensitivity.retrains_per_s": _ratio(retrains, total("sensitivity.sample_sensitivity")),
        "pipeline.finetune_head.calls": len(durations["pipeline.finetune_head"]),
        "pipeline.finetune_head.ms_p50": _quantile(
            [d * 1e3 for d in durations["pipeline.finetune_head"]], 50.0
        ),
        "pipeline.pretrain_encoder.s": total("pipeline.pretrain_encoder"),
        "protection.protect_existing.calls": len(durations["protection.protect_existing"]),
        "protection.protect_existing.us_p50": _quantile(
            [d * 1e6 for d in durations["protection.protect_existing"]], 50.0
        ),
        "mechanisms.sample_noise.draws": draws,
        "mechanisms.sample_noise.draws_per_s": _ratio(draws, total("mechanisms.sample_noise")),
        "mechanisms.scale_for_budget.calls": len(durations["mechanisms.scale_for_budget"]),
        "noise.sample.self_s": sum(
            self_s[f"noise.sample_{kind}"] for kind in ("logistic", "laplace", "gaussian")
        ),
        "rng.uniforms.draws": counts["rng.RngStream.uniforms.draws"],
        "rng.derive_seed.calls": len(durations["rng.derive_seed"]),
        "experiments.run_sweep.self_s": self_s["experiments.run_sweep"],
        "experiments.emit_report.s": total("experiments.emit_report"),
        "weights.save_weights.s": total("weights.save_weights"),
        "weights.load_weights.s": sum(loads, 0.0),
        "cli.main.self_s": self_s["cli.main"],
        "trace.spans": sum(len(d) for d in durations.values()),
    }
