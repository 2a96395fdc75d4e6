"""Outside-in tracing of hetdp: spans around calls into each module's public functions.

The tracer replaces a function in every ``hetdp.*`` namespace that binds it,
because ``from hetdp.x import f`` copies the name into the importing module.
Spans (name, start, end, parent, run id) are kept in memory; a function that
no longer exists is reported as missing, not raised.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from dataclasses import dataclass, field
from importlib import import_module
from time import perf_counter

#: (module, function, layer) for every timed boundary. A layer's time is the
#: time its outermost spans cover; nested spans of the same layer are not
#: counted twice.
SPANNED = (
    ("datasets", "load_dataset", "datasets.load"),
    ("datasets", "stratified_sample", "datasets.sample"),
    ("measures", "build_context", "measures.context"),
    ("measures", "measure_all", "measures.context"),
    ("gaussian", "agm_sigma", "gaussian.calibrate"),
    ("gaussian", "cgm_sigma", "gaussian.calibrate"),
    ("estimators", "noisy_statistic", "estimators.release"),
    ("estimators", "evaluate_q_from_draws", "estimators.evaluate"),
    ("errors", "error_report", "errors.report"),
    ("errors", "tmse_dispersion", "errors.score"),
    ("errors", "tmse_q", "errors.score"),
    ("errors", "tmse_i_squared", "errors.score"),
    ("estimators", "centralized_noisy", "errors.cmse"),
    ("errors", "derive_seed", "errors.seed"),
    ("experiment", "run_experiment", "experiment.run"),
    ("experiment", "write_result_csv", "experiment.emit"),
    ("experiment", "write_plan_log", "experiment.emit"),
    ("experiment", "write_emse_charts", "experiment.emit"),
    ("cli", "main", "cli.main"),
)
#: Called too often for a span each; only counted.
COUNTED = (("gaussian", "achieved_delta"),)

#: Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("datasets.load_s", "s"),
    ("datasets.sample_s", "s"),
    ("datasets.bytes_read", "bytes"),
    ("measures.context_s", "s"),
    ("gaussian.calibrate_s", "s"),
    ("gaussian.calibrate_calls", "count"),
    ("gaussian.calibrate_distinct", "count"),
    ("gaussian.calibrate_distinct_share", "ratio"),
    ("gaussian.delta_evals", "count"),
    ("estimators.release_s", "s"),
    ("estimators.release_self_s", "s"),
    ("estimators.evaluate_s", "s"),
    ("estimators.noise_variates", "count"),
    ("errors.report_s", "s"),
    ("errors.report_self_s", "s"),
    ("errors.score_s", "s"),
    ("errors.cmse_s", "s"),
    ("errors.seed_s", "s"),
    ("errors.trials", "count"),
    ("experiment.run_s", "s"),
    ("experiment.emit_s", "s"),
    ("experiment.cells", "count"),
    ("cli.self_s", "s"),
)


@dataclass
class Tracer:
    """Wraps hetdp functions while active and records one span per call."""

    run_id: int = 0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    distinct: set = field(default_factory=set)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def install(self) -> None:
        for module, name, _layer in SPANNED:
            self._patch(module, name, self._spanned)
        for module, name in COUNTED:
            self._patch(module, name, self._counted)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _patch(self, module: str, name: str, make) -> None:
        qualified = f"{module}.{name}"
        try:
            original = getattr(import_module(f"hetdp.{module}"), name)
        except (ImportError, AttributeError):
            if qualified not in self.missing:
                self.missing.append(qualified)
            return
        wrapper = make(qualified, original)
        for mod_name, namespace in list(sys.modules.items()):
            if mod_name != "hetdp" and not mod_name.startswith("hetdp."):
                continue
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    self._patched.append((namespace, attr, original))

    def _spanned(self, qualified: str, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(qualified)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(self, qualified, args, kwargs)
            index = len(spans)
            spans.append([qualified, 0.0, 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def _counted(self, qualified: str, fn):
        counts = self.counts
        counts.setdefault(qualified, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[qualified] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer totals of one run (one study), from its spans and counts."""
        index = [i for i, span in enumerate(self.spans) if span[4] == run_id]
        layer_of = {f"{m}.{n}": layer for m, n, layer in SPANNED}
        child_time: dict[int, float] = {}
        for i in index:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)

        def outermost(i: int) -> bool:
            layer = layer_of[self.spans[i][0]]
            parent = self.spans[i][3]
            while parent >= 0:
                if layer_of[self.spans[parent][0]] == layer:
                    return False
                parent = self.spans[parent][3]
            return True

        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for i in index:
            name, start, end, _parent, _ = self.spans[i]
            if outermost(i):
                layer = layer_of[name]
                total[layer] = total.get(layer, 0.0) + (end - start)
                own[layer] = own.get(layer, 0.0) + (end - start) - child_time.get(i, 0.0)
        return {
            "datasets.load_s": total.get("datasets.load", 0.0),
            "datasets.sample_s": total.get("datasets.sample", 0.0),
            "measures.context_s": total.get("measures.context", 0.0),
            "gaussian.calibrate_s": total.get("gaussian.calibrate", 0.0),
            "estimators.release_s": total.get("estimators.release", 0.0),
            "estimators.release_self_s": own.get("estimators.release", 0.0),
            "estimators.evaluate_s": total.get("estimators.evaluate", 0.0),
            "errors.report_s": total.get("errors.report", 0.0),
            "errors.report_self_s": own.get("errors.report", 0.0),
            "errors.score_s": total.get("errors.score", 0.0),
            "errors.cmse_s": total.get("errors.cmse", 0.0),
            "errors.seed_s": total.get("errors.seed", 0.0),
            "experiment.run_s": total.get("experiment.run", 0.0),
            "experiment.emit_s": total.get("experiment.emit", 0.0),
            "cli.self_s": own.get("cli.main", 0.0),
        }

    def take_counts(self) -> dict[str, float]:
        """Counts accumulated since the last call, as per-layer metrics; resets them."""
        counts, distinct = self.counts, self.distinct
        calls = counts.get("gaussian.calibrate_calls", 0)
        out = {
            "datasets.bytes_read": counts.get("datasets.bytes_read", 0),
            "gaussian.calibrate_calls": calls,
            "gaussian.calibrate_distinct": len(distinct),
            "gaussian.calibrate_distinct_share": len(distinct) / calls if calls else 0.0,
            "gaussian.delta_evals": counts.get("gaussian.achieved_delta", 0),
            "estimators.noise_variates": counts.get("estimators.noise_variates", 0),
            "errors.trials": counts.get("errors.trials", 0),
            "experiment.cells": counts.get("experiment.cells", 0),
        }
        for key in counts:
            counts[key] = 0
        distinct.clear()
        return out


# Computed counts, read from the arguments of the call being traced. A
# signature that a later version changes makes the count "unresolved" instead
# of failing the study.


def _note_load(tracer: Tracer, qualified: str, args, kwargs) -> None:
    desc = args[0] if args else kwargs["desc"]
    tracer.add("datasets.bytes_read", sum(os.path.getsize(p) for p in desc.paths))


def _note_calibrate(tracer: Tracer, qualified: str, args, kwargs) -> None:
    sens, epsilon, delta = args[:3]
    tracer.add("gaussian.calibrate_calls", 1)
    tracer.distinct.add((qualified, sens.delta_l2, epsilon, delta))


def _note_release(tracer: Tracer, qualified: str, args, kwargs) -> None:
    statistic, data, _ctx, cfg = args[:4]
    if cfg.zero_noise:
        return
    distributed = cfg.setting.value == "distributed"
    per_vector = data.n * data.d if distributed else data.d
    per_scalar = data.n if distributed else 1
    scalar_stages = 1 if statistic.value == "i_squared" else 0
    tracer.add("estimators.noise_variates", 2 * per_vector + scalar_stages * per_scalar)


def _note_report(tracer: Tracer, qualified: str, args, kwargs) -> None:
    trials = args[3] if len(args) > 3 else kwargs["trials"]
    tracer.add("errors.trials", int(trials))
    tracer.add("experiment.cells", 1)


def _guarded(note, metric: str):
    def guarded(tracer: Tracer, qualified: str, args, kwargs) -> None:
        try:
            note(tracer, qualified, args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
            if f"unresolved:{metric}" not in tracer.missing:
                tracer.missing.append(f"unresolved:{metric}")

    return guarded


_NOTES = {
    "datasets.load_dataset": _guarded(_note_load, "datasets.bytes_read"),
    "gaussian.agm_sigma": _guarded(_note_calibrate, "gaussian.calibrate_distinct"),
    "gaussian.cgm_sigma": _guarded(_note_calibrate, "gaussian.calibrate_distinct"),
    "estimators.noisy_statistic": _guarded(_note_release, "estimators.noise_variates"),
    "errors.error_report": _guarded(_note_report, "errors.trials"),
}


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over runs (the counts repeat exactly)."""
    return {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}
