"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces every binding of each function listed in
``TARGETS`` across the loaded ``handover_intent`` modules (a function that
``fusion`` imported from ``evaluation`` is replaced in both), plus the methods
listed in ``METHODS``.  Each call records a span: name, start, end, parent
span and thread.  The parent is the innermost open span on the same thread,
so spans from ``--jobs`` worker threads nest under their own thread's spans.
Spans stay in memory and are written once, when the run ends.

``layer_metrics`` turns a written span file into the per-layer metrics that
BENCHMARK.json lists.  A function the program no longer has is recorded as
missing, and every metric that depends on it reads as not measured (None).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

PACKAGE = "handover_intent"

TARGETS = {
    "core_data": ("load_dataset", "read_trial_csv"),
    "dsp": ("morlet_tf", "standardize", "interpolate_gaps"),
    "features": (
        "build_eeg_features",
        "build_gaze_features",
        "build_motion_features",
        "window_features",
        "pca_fit",
        "pca_apply",
    ),
    "classifiers": ("fit_lda_classifier", "fit_flat_preprocessing"),
    "lda": ("lda_fit", "lda_predict_proba"),
    "lstm": ("lstm_train", "lstm_forward", "predict_proba_batch", "ensemble_predict"),
    "evaluation": (
        "make_splits",
        "auc_roc",
        "evaluate_window",
        "fit_lstm_ensemble",
        "sweep",
        "aggregate_participants",
        "detection_latency_table",
        "write_timeline_csv",
        "write_results_csv",
        "write_aggregate_csv",
        "write_latency_csv",
    ),
    "fusion": ("run_fusion_sweep", "late_fusion_weights"),
    "pipeline": ("run_experiment",),
}

METHODS = {
    "features": {"FeatureCache": ("get", "put")},
    "classifiers": {"TrainedClassifier": ("predict_proba",)},
}

CSV_WRITERS = (
    "evaluation.write_timeline_csv",
    "evaluation.write_results_csv",
    "evaluation.write_aggregate_csv",
    "evaluation.write_latency_csv",
)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _cache_hit(args, kwargs, result):
    return {"hit": result is not None}


def _pca_k(args, kwargs, result):
    return {"k": int(result.components.shape[0])}


def _lda_dim(args, kwargs, result):
    return {"dim": int(result.class_means.shape[1])}


def _saturated(args, kwargs, result):
    # lda_predict_proba clips to the open interval (0, 1); a score at either
    # bound carries no rank information.
    low, high = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    return {
        "scored": int(result.size),
        "saturated": int(np.count_nonzero((result <= low) | (result >= high))),
    }


def _fallback(args, kwargs, result):
    return {"fallback": bool(result[1])}


# Attributes recorded on a span after its call returns, outside its interval.
ANNOTATE = {
    "core_data.read_trial_csv": _file_bytes,
    "features.FeatureCache.get": _cache_hit,
    "features.pca_fit": _pca_k,
    "lda.lda_fit": _lda_dim,
    "lda.lda_predict_proba": _saturated,
    "fusion.late_fusion_weights": _fallback,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, attrs)
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        # lstm_train records per-epoch losses only into a list its caller
        # passes; the wrapper passes one when the caller did not, so the span
        # can report the epochs each member actually trained.
        signature = inspect.signature(fn) if name == "lstm.lstm_train" else None
        if signature is not None and "history" not in signature.parameters:
            signature = None
        tracer = self

        def traced(*args, **kwargs):
            history = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                history = bound.arguments.get("history")
                if history is None:
                    history = bound.arguments["history"] = []
                args, kwargs = bound.args, bound.kwargs
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = annotate(args, kwargs, result) if annotate else None
            if history is not None:
                attrs = {"epochs": len(history)}
            tracer.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), attrs)
            )
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for short, names in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            for fname in names:
                original = getattr(home, fname, None) if home else None
                if original is None:
                    self.missing.append(f"{short}.{fname}")
                    continue
                wrapped = self.wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        for short, classes in METHODS.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            for cname, methods in classes.items():
                cls = getattr(home, cname, None) if home else None
                for mname in methods:
                    original = vars(cls).get(mname) if cls is not None else None
                    if original is None:
                        self.missing.append(f"{short}.{cname}.{mname}")
                        continue
                    setattr(cls, mname, self.wrap(f"{short}.{cname}.{mname}", original))

    def write(self, path, **extra):
        threads = {}
        for s in self.spans:
            threads.setdefault(s[5], len(threads))
        spans = [
            {
                "id": s[0],
                "name": s[1],
                "start": s[2],
                "end": s[3],
                "parent": s[4],
                "thread": threads[s[5]],
                **({"attrs": s[6]} if s[6] else {}),
            }
            for s in sorted(self.spans, key=lambda s: s[0])
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": spans, **extra}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from a span file
# ---------------------------------------------------------------------------


class _Summary:
    """Per-name call counts, inclusive and self seconds, and attribute sums."""

    def __init__(self, trace):
        self.missing = set(trace["missing"])
        self.import_s = trace["import_s"]
        spans = trace["spans"]
        child_time = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        self.calls = {}
        self.total = {}
        self.self_s = {}
        self.attrs = {}
        for s in spans:
            name = s["name"]
            duration = s["end"] - s["start"]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_time.get(
                s["id"], 0.0
            )
            for key, value in s.get("attrs", {}).items():
                sums = self.attrs.setdefault(name, {})
                sums[key] = sums.get(key, 0) + value

    def measured(self, name):
        return name not in self.missing

    def count(self, name):
        return self.calls.get(name, 0) if self.measured(name) else None

    def inclusive(self, name):
        return self.total.get(name, 0.0) if self.measured(name) else None

    def own(self, name):
        return self.self_s.get(name, 0.0) if self.measured(name) else None

    def attr_sum(self, name, key):
        return self.attrs.get(name, {}).get(key, 0) if self.measured(name) else None

    def attr_mean(self, name, key):
        """Mean over calls; 0 when the function ran no times."""
        if not self.measured(name):
            return None
        calls = self.calls.get(name, 0)
        return self.attrs.get(name, {}).get(key, 0) / calls if calls else 0.0


def _layer_table():
    """(metric name, unit, function of a _Summary) in BENCHMARK.json order."""
    calls = lambda n: (f"{n}.calls", "count", lambda t: t.count(n))  # noqa: E731
    own = lambda n: (f"{n}.self_s", "s", lambda t: t.own(n))  # noqa: E731
    inclusive = lambda n: (f"{n}.s", "s", lambda t: t.inclusive(n))  # noqa: E731

    def csv_write_self(t):
        present = [n for n in CSV_WRITERS if t.measured(n)]
        return sum(t.own(n) for n in present) if present else None

    def mb_read(t):
        total = t.attr_sum("core_data.read_trial_csv", "bytes")
        return None if total is None else total / 1e6

    return [
        ("cli.import_s", "s", lambda t: t.import_s),
        inclusive("core_data.load_dataset"),
        calls("core_data.read_trial_csv"),
        own("core_data.read_trial_csv"),
        ("core_data.read_trial_csv.mb", "MB", mb_read),
        calls("dsp.morlet_tf"),
        own("dsp.morlet_tf"),
        own("dsp.standardize"),
        own("dsp.interpolate_gaps"),
        calls("features.build_eeg_features"),
        inclusive("features.build_eeg_features"),
        own("features.build_gaze_features"),
        own("features.build_motion_features"),
        calls("features.window_features"),
        own("features.window_features"),
        calls("features.FeatureCache.get"),
        (
            "features.FeatureCache.get.hits",
            "count",
            lambda t: t.attr_sum("features.FeatureCache.get", "hit"),
        ),
        own("features.FeatureCache.get"),
        calls("features.FeatureCache.put"),
        own("features.FeatureCache.put"),
        calls("features.pca_fit"),
        own("features.pca_fit"),
        ("features.pca_fit.k_mean", "dim", lambda t: t.attr_mean("features.pca_fit", "k")),
        own("features.pca_apply"),
        calls("classifiers.fit_lda_classifier"),
        own("classifiers.fit_lda_classifier"),
        own("classifiers.fit_flat_preprocessing"),
        calls("classifiers.TrainedClassifier.predict_proba"),
        own("classifiers.TrainedClassifier.predict_proba"),
        calls("lda.lda_fit"),
        own("lda.lda_fit"),
        ("lda.lda_fit.dim_mean", "dim", lambda t: t.attr_mean("lda.lda_fit", "dim")),
        calls("lda.lda_predict_proba"),
        own("lda.lda_predict_proba"),
        (
            "lda.lda_predict_proba.scored",
            "count",
            lambda t: t.attr_sum("lda.lda_predict_proba", "scored"),
        ),
        (
            "lda.lda_predict_proba.saturated",
            "count",
            lambda t: t.attr_sum("lda.lda_predict_proba", "saturated"),
        ),
        calls("lstm.lstm_train"),
        own("lstm.lstm_train"),
        ("lstm.lstm_train.epochs", "count", lambda t: t.attr_sum("lstm.lstm_train", "epochs")),
        calls("lstm.lstm_forward"),
        own("lstm.lstm_forward"),
        calls("lstm.predict_proba_batch"),
        own("lstm.predict_proba_batch"),
        calls("lstm.ensemble_predict"),
        calls("evaluation.make_splits"),
        own("evaluation.make_splits"),
        calls("evaluation.auc_roc"),
        own("evaluation.auc_roc"),
        calls("evaluation.evaluate_window"),
        own("evaluation.fit_lstm_ensemble"),
        inclusive("evaluation.sweep"),
        own("evaluation.sweep"),
        own("evaluation.aggregate_participants"),
        own("evaluation.detection_latency_table"),
        ("evaluation.write_csv.self_s", "s", csv_write_self),
        inclusive("fusion.run_fusion_sweep"),
        own("fusion.run_fusion_sweep"),
        calls("fusion.late_fusion_weights"),
        (
            "fusion.late_fusion_weights.fallbacks",
            "count",
            lambda t: t.attr_sum("fusion.late_fusion_weights", "fallback"),
        ),
        inclusive("pipeline.run_experiment"),
        own("pipeline.run_experiment"),
    ]


LAYER_METRICS = _layer_table()
OVERHEAD_METRIC = ("trace.overhead_s", "s")


def layer_metrics(trace_path):
    """{metric name: (value or None, unit)} for every per-layer metric except
    the tracing overhead, which needs the untraced runs."""
    with open(trace_path, encoding="utf-8") as fh:
        summary = _Summary(json.load(fh))
    return {name: (fn(summary), unit) for name, unit, fn in LAYER_METRICS}
