"""Out-of-package tracing of the gatedepth layers.

Every traced function is wrapped from outside the package: the wrapper
replaces each module-level binding of the function in every loaded
``gatedepth`` module (``scene.gated_response``, ``network.forward``,
``cli.train`` ...), so calls made between layers get their own spans. Spans
stay in memory while a pass runs; self time is a span's duration minus the
time covered by its direct children.

Nothing here touches the package's files or outputs, and the wrappers are
removed again after each traced pass.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import sys
import time
from collections import Counter

import numpy as np


def _rows(result):
    return int(len(result)), 0


def _finite(result):
    result = np.asarray(result)
    return int(result.size), int(np.isfinite(result).sum())


# "<module>.<function>": (item unit, count(args, kwargs, result) -> (items, useful)).
# ``useful`` is the numerator of the layer's ratio metric where it has one.
TRACED = {
    "gating.gated_response": ("distances", lambda a, k, r: (1, 0)),
    "gating.rect_overlap": ("distances", lambda a, k, r: (int(np.size(a[1])), 0)),
    "gating.rip": ("distances", lambda a, k, r: _rows(r)),
    "scene.calibration_for_peak": ("distances", lambda a, k, r: (int(a[5] if len(a) > 5 else k.get("samples", 4096)), 0)),
    "scene.generate_dataset": ("rows", lambda a, k, r: _rows(r)),
    "scene.simulate_batch": ("rows", lambda a, k, r: _rows(r)),
    "scene.render_slices": ("px", lambda a, k, r: (int(r.images[0].size), 0)),
    "pipeline.load_samples": ("rows", lambda a, k, r: _rows(r)),
    "pipeline.save_samples": ("rows", lambda a, k, r: _rows(a[0])),
    "pipeline.prefilter": ("rows", lambda a, k, r: (len(a[0]), len(r))),
    "pipeline.build_dataset": ("rows", lambda a, k, r: _rows(a[0])),
    "pipeline.split": ("rows", lambda a, k, r: _rows(a[0])),
    "pipeline.standardized_arrays": ("rows", lambda a, k, r: _rows(a[0])),
    "pipeline.standardize_batch": ("rows", lambda a, k, r: _rows(r)),
    "estimators.build_section_table": ("sections", lambda a, k, r: _rows(r)),
    "estimators.baseline_estimate_batch": ("triples", lambda a, k, r: _finite(r)),
    "estimators.baseline_estimate": ("triples", lambda a, k, r: (1, int(r is not None))),
    "network.train": ("rows", lambda a, k, r: (len(a[0][1]), len(a[0][1]) * r[0].epochs_run)),
    "network.grid_search": ("runs", lambda a, k, r: _rows(r.rows)),
    "network.forward": ("rows", lambda a, k, r: _rows(r)),
    "network.predict_depth_batch": ("triples", lambda a, k, r: _finite(r)),
    "network.probe_learned_function": ("triples", lambda a, k, r: (int(r.total_triples), 0)),
    "network.load_model": ("bytes", lambda a, k, r: (os.path.getsize(a[0]), 0)),
    "network.save_model": ("bytes", lambda a, k, r: (os.path.getsize(a[1]), 0)),
    "evaluation.compare_estimators": ("rows", lambda a, k, r: (int(np.size(a[2])), 0)),
    "evaluation.binned_mae": ("rows", lambda a, k, r: (int(np.size(a[1])), 0)),
    "evaluation.render_depth_map": ("px", lambda a, k, r: (int(r.depth.size), 0)),
    "pgmio.read_pgm": ("bytes", lambda a, k, r: (int(r.nbytes), 0)),
    "pgmio.write_pgm": ("bytes", lambda a, k, r: (int(np.asarray(a[1]).nbytes), 0)),
    "cli.main": ("commands", lambda a, k, r: (1, 0)),
}

MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in TRACED))


def per_layer_schema():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, (unit, _) in TRACED.items():
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower"),
                (f"{name}.items", unit, "lower")]
    out += [(f"{module}.errors", "count", "lower") for module in MODULES]
    out += [
        ("estimators.baseline_estimate_batch.coverage", "ratio", "higher"),
        ("network.predict_depth_batch.valid_ratio", "ratio", "higher"),
        ("pipeline.prefilter.kept_ratio", "ratio", "higher"),
        ("network.train.sgd_rows_per_s", "rows/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    """Records spans (run id, span id, parent id, name, start, end, failed,
    items, useful) for every call through a wrapped binding."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []

    def install(self):
        """Wrap every binding of every traced function in loaded gatedepth modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gatedepth" or n.startswith("gatedepth."))]
        for name, (_, count) in TRACED.items():
            module, attr = name.split(".")
            original = getattr(sys.modules[f"gatedepth.{module}"], attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def _wrap(self, name, fn, count):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        module = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((self.run_id, sid, parent, name, t0, t1, True, 0, 0))
                raise
            t1 = clock()
            stack.pop()
            items, useful = count(args, kwargs, result)
            failed = module == "cli" and result != 0
            spans.append((self.run_id, sid, parent, name, t0, t1, failed, items, useful))
            return result

        return traced

    def layer_totals(self, run_id):
        """Per-function [calls, self_s, items, useful] and per-module errors for one pass."""
        spans = [s for s in self.spans if s[0] == run_id]
        covered = Counter()
        for _, _, parent, _, t0, t1, *_ in spans:
            covered[parent] += t1 - t0
        totals = {name: [0, 0.0, 0, 0] for name in TRACED}
        errors = Counter({module: 0 for module in MODULES})
        for _, sid, _, name, t0, t1, failed, items, useful in spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (t1 - t0) - covered[sid]
            entry[2] += items
            entry[3] += useful
            errors[name.split(".")[0]] += int(failed)
        return totals, dict(errors)

    def write_csv(self, path):
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span_id", "parent_id", "name", "start_s", "end_s",
                          "failed", "items", "useful"])
            for run, sid, parent, name, t0, t1, failed, items, useful in self.spans:
                out.writerow([run, sid, parent, name, repr(t0 - origin), repr(t1 - origin),
                              int(failed), items, useful])


def layer_metrics(per_pass, untraced_s, traced_s):
    """Per-layer metric values from the traced passes' totals.

    Counts come from the first traced pass (the harness checks that every
    traced pass repeats them exactly); self times are medians over passes.
    """
    first_totals, first_errors = per_pass[0]
    metrics = {}
    for name in TRACED:
        calls, _, items, _ = first_totals[name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = float(np.median([t[name][1] for t, _ in per_pass]))
        metrics[f"{name}.items"] = items
    for module in MODULES:
        metrics[f"{module}.errors"] = first_errors[module]

    def ratio(name):
        _, _, items, useful = first_totals[name]
        return useful / items if items else 0.0

    metrics["estimators.baseline_estimate_batch.coverage"] = ratio("estimators.baseline_estimate_batch")
    metrics["network.predict_depth_batch.valid_ratio"] = ratio("network.predict_depth_batch")
    metrics["pipeline.prefilter.kept_ratio"] = ratio("pipeline.prefilter")
    train_self = metrics["network.train.self_s"]
    metrics["network.train.sgd_rows_per_s"] = (
        first_totals["network.train"][3] / train_self if train_self > 0 else 0.0)
    metrics["trace.overhead_ratio"] = float(np.median(traced_s) / np.median(untraced_s))
    return metrics
