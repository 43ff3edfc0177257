"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the public entry points of each jmml module from the
outside (nothing under ``src/`` knows about it), records one span per
call -- name, start, end, parent span and the operation it belongs to --
and keeps per-layer aggregates: busy time (span length), self time (span
length minus the time covered by its child spans), call counts and work
counts.  Span times are process CPU seconds, like the end-to-end metrics
(see ``run.py``).  Aggregates are kept per phase, ``setup`` or ``op``, so
that the set-up work of ``serve_rows`` does not blur its per-request
numbers.

Untraced runs never install the wrappers, so they pay nothing.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import process_time

import numpy as np

from jmml import biomarkers, edcc, experiment, forest, io, jecl, losses, mbpls, net, pipeline

# Spans beyond this many are counted in the aggregates but not kept for the
# span file, so a long serving run cannot grow memory without bound.
MAX_SPANS = 200_000

PIPELINE_FUNCS = ("synth_bimodal", "stratified_split", "mco_oversample", "resample_to_size",
                  "pair_by_label")


def _count_fit(tr, args, kwargs, result):
    tr.count("forest.fit.trees", len(result.trees))


def _count_predict(tr, args, kwargs, result):
    rf, x = args[0], args[1]
    tr.count("forest.predict.row_trees", np.atleast_2d(x).shape[0] * len(rf.trees))


def _count_adam(tr, args, kwargs, result):
    tr.count("net.adam.elements", sum(p.value.size for p in args[1]))
    if tr.inside("edcc.train"):
        tr.count("edcc.train.steps", 1)


def _count_jecl(tr, args, kwargs, result):
    epochs = len(result.total)
    tr.count("jecl.train.epochs", epochs)
    best = int(np.argmin(result.validation)) + 1 if result.validation else epochs
    tr.count("jecl.train.best_epoch", best)


def _count_mbpls(tr, args, kwargs, result):
    tr.count("mbpls.fit.components_used", result.n_components)
    tr.count("mbpls.fit.components_requested", args[2])


def _count_io(tr, args, kwargs, result):
    tr.count("io.bytes", os.path.getsize(args[0]))


def _count_save(tr, args, kwargs, result):
    tr.count("serialize.bytes", os.path.getsize(args[1]))


def _count_load(tr, args, kwargs, result):
    tr.count("serialize.bytes", os.path.getsize(args[0]))


# layer name -> ([(owner, attribute), ...], work counter or None).  Functions a
# module imported by name are patched in the importing module as well.
PATCHES = {
    "forest.fit": ([(forest, "fit_rf")], _count_fit),
    "forest.predict": ([(forest, "predict")], _count_predict),
    "net.adam": ([(net.Adam, "step")], _count_adam),
    "net.dense.fwd": ([(net.DenseLayer, "forward")], None),
    "net.dense.bwd": ([(net.DenseLayer, "backward")], None),
    "edcc.train": ([(edcc, "train_edcc")], None),
    "edcc.infer": ([(edcc, "infer_single")], None),
    "jecl.train": ([(jecl, "train_jecl")], _count_jecl),
    "losses.cca": ([(losses, "loss_cca"), (edcc, "loss_cca")], None),
    "losses.bce": ([(losses, "loss_bce"), (edcc, "loss_bce")], None),
    "losses.cosine_kld": ([(losses, "loss_cosine_kld"), (jecl, "loss_cosine_kld")], None),
    "mbpls.fit": ([(mbpls, "fit")], _count_mbpls),
    "mbpls.predict": ([(mbpls, "predict")], None),
    "biomarkers.extract": ([(biomarkers, "extract_trial")], None),
    "io.write": ([(io, "write_feature_csv")], _count_io),
    "io.read": ([(io, "read_feature_csv"), (experiment, "read_feature_csv")], _count_io),
    "serialize.save": ([(jecl, "save_jecl"), (edcc, "save_edcc"), (mbpls, "save_mbpls")],
                       _count_save),
    "serialize.load": ([(jecl, "load_jecl"), (edcc, "load_edcc"), (mbpls, "load_mbpls")],
                       _count_load),
    "pipeline": ([(mod, name) for name in PIPELINE_FUNCS for mod in (pipeline, experiment)
                  if hasattr(mod, name)], None),
    "experiment": ([(experiment, "run_experiment")], None),
}

# (metric, unit, better, layer, what): ``what`` is busy/self/calls, a work
# counter, or a (numerator, denominator) pair of counters.
LAYER_METRICS = (
    ("forest.fit.busy_s", "s", "lower", "forest.fit", "busy"),
    ("forest.fit.trees", "count", "lower", "forest.fit", "forest.fit.trees"),
    ("forest.predict.busy_s", "s", "lower", "forest.predict", "busy"),
    ("forest.predict.row_trees", "count", "lower", "forest.predict", "forest.predict.row_trees"),
    ("net.adam.busy_s", "s", "lower", "net.adam", "busy"),
    ("net.adam.calls", "count", "lower", "net.adam", "calls"),
    ("net.adam.elements", "count", "lower", "net.adam", "net.adam.elements"),
    ("net.dense.fwd_busy_s", "s", "lower", "net.dense.fwd", "busy"),
    ("net.dense.bwd_busy_s", "s", "lower", "net.dense.bwd", "busy"),
    ("edcc.train.self_s", "s", "lower", "edcc.train", "self"),
    ("edcc.train.steps", "count", "lower", "edcc.train", "edcc.train.steps"),
    ("edcc.infer.busy_s", "s", "lower", "edcc.infer", "busy"),
    ("jecl.train.self_s", "s", "lower", "jecl.train", "self"),
    ("jecl.train.epochs", "count", "lower", "jecl.train", "jecl.train.epochs"),
    ("jecl.train.useful_epoch_ratio", "ratio", "higher", "jecl.train",
     ("jecl.train.best_epoch", "jecl.train.epochs")),
    ("losses.cca.busy_s", "s", "lower", "losses.cca", "busy"),
    ("losses.cca.calls", "count", "lower", "losses.cca", "calls"),
    ("losses.bce.busy_s", "s", "lower", "losses.bce", "busy"),
    ("losses.bce.calls", "count", "lower", "losses.bce", "calls"),
    ("losses.cosine_kld.busy_s", "s", "lower", "losses.cosine_kld", "busy"),
    ("losses.cosine_kld.calls", "count", "lower", "losses.cosine_kld", "calls"),
    ("mbpls.fit.busy_s", "s", "lower", "mbpls.fit", "busy"),
    ("mbpls.fit.components_ratio", "ratio", "higher", "mbpls.fit",
     ("mbpls.fit.components_used", "mbpls.fit.components_requested")),
    ("mbpls.predict.busy_s", "s", "lower", "mbpls.predict", "busy"),
    ("biomarkers.extract.busy_s", "s", "lower", "biomarkers.extract", "busy"),
    ("biomarkers.extract.calls", "count", "lower", "biomarkers.extract", "calls"),
    ("io.write.busy_s", "s", "lower", "io.write", "busy"),
    ("io.read.busy_s", "s", "lower", "io.read", "busy"),
    ("io.bytes", "bytes", "lower", "io.write", "io.bytes"),
    ("serialize.save.busy_s", "s", "lower", "serialize.save", "busy"),
    ("serialize.load.busy_s", "s", "lower", "serialize.load", "busy"),
    ("serialize.bytes", "bytes", "lower", "serialize.save", "serialize.bytes"),
    ("pipeline.busy_s", "s", "lower", "pipeline", "busy"),
    ("experiment.self_s", "s", "lower", "experiment", "self"),
)
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")


class Tracer:
    """Span recorder; ``install`` patches the layers, ``uninstall`` restores them."""

    def __init__(self):
        self.phase = "setup"
        self.op_id = None
        self.stack = []          # open spans: [child_seconds, layer, span_id]
        self.spans = []          # (span_id, layer, start, end, parent_id, op_id, phase)
        self.dropped = 0
        self.agg = {p: defaultdict(lambda: [0.0, 0.0, 0]) for p in ("setup", "op")}
        self.counts = {p: Counter() for p in ("setup", "op")}
        self._next_id = 0
        self._saved = []

    def count(self, key, n):
        self.counts[self.phase][key] += n

    def inside(self, layer):
        return any(frame[1] == layer for frame in self.stack)

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [0.0, layer, span_id]
            tracer.stack.append(frame)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                tracer.stack.pop()
                busy = end - start
                entry = tracer.agg[tracer.phase][layer]
                entry[0] += busy
                entry[1] += busy - frame[0]
                entry[2] += 1
                if parent is not None:
                    parent[0] += busy
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, layer, start, end,
                                         None if parent is None else parent[2],
                                         tracer.op_id, tracer.phase))
                else:
                    tracer.dropped += 1
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._saved:  # already installed
            return
        for layer, (targets, counter) in PATCHES.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, n_ops, overhead_s):
        """Per-layer metrics.  A layer that ran during the timed operations
        reports per operation; one that ran only in set-up reports per
        set-up (the traced run sets up once)."""
        out = {}
        for name, unit, _better, layer, what in LAYER_METRICS:
            phase = "op" if self.agg["op"][layer][2] else "setup"
            scale = 1.0 / n_ops if phase == "op" else 1.0
            busy, self_s, calls = self.agg[phase][layer]
            counts = self.counts[phase]
            if what == "busy":
                value = busy * scale
            elif what == "self":
                value = self_s * scale
            elif what == "calls":
                value = calls * scale
            elif isinstance(what, tuple):
                den = counts[what[1]]
                value = counts[what[0]] / den if den else 0.0
            else:
                value = counts[what] * scale
            out[name] = {"value": value, "unit": unit}
        out[OVERHEAD_METRIC[0]] = {"value": overhead_s, "unit": OVERHEAD_METRIC[1]}
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, layer, start, end, parent, op_id, phase in self.spans:
                fh.write(json.dumps({"id": span_id, "name": layer, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "phase": phase}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
