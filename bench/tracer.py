"""Spans around calls into the btdqos layers, recorded from outside the package.

A ``Tracer`` replaces module attributes (``btdqos.trainer.epoch``,
``btdqos.cli.fit``, ``SparseTensor3.subset`` ...) with timing wrappers for
the duration of a ``with tracer.installed():`` block.  Each call becomes a
span (name, start, end, parent, run id, attributes) kept in memory; the
caller writes them out when the benchmark ends.  A call site is traced only
if it looks the function up through a patched attribute, so every entry of
``TRACE_POINTS`` names the namespace the caller uses.

Spans opened in a worker thread whose own stack is empty take the innermost
span open in the thread that created the tracer as their parent; that is
how the cells of ``run_benchmark``'s thread pool hang under it.
"""

import functools
import importlib
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (module, attribute, span name, attribute extractor).  The span name is
#: the layer that defines the function, not the namespace it is patched in.
TRACE_POINTS = (
    ("btdqos.cli", "parse_qos_log", "data_io.parse_qos_log", "ingest"),
    ("btdqos.cli", "split", "data_io.split", None),
    ("btdqos.cli", "write_qos_log", "data_io.write_qos_log", "written"),
    ("btdqos.cli", "write_split_manifest", "data_io.write_split_manifest", None),
    ("btdqos.cli", "save_model", "data_io.save_model", "saved"),
    ("btdqos.cli", "load_model", "data_io.load_model", None),
    ("btdqos.cli", "fit", "trainer.fit", "fitted"),
    ("btdqos.cli", "grid_search", "trainer.grid_search", None),
    ("btdqos.cli", "run_benchmark", "evaluation.run_benchmark", None),
    ("btdqos.cli", "rmse", "evaluation.rmse", None),
    ("btdqos.cli", "mae", "evaluation.mae", None),
    ("btdqos.evaluation", "split", "data_io.split", None),
    ("btdqos.evaluation", "fit", "trainer.fit", "fitted"),
    ("btdqos.evaluation", "grid_search", "trainer.grid_search", None),
    ("btdqos.evaluation", "rmse", "evaluation.rmse", None),
    ("btdqos.evaluation", "mae", "evaluation.mae", None),
    ("btdqos.evaluation", "predict_entries", "model.predict_entries", "predicted"),
    ("btdqos.trainer", "fit", "trainer.fit", "fitted"),
    ("btdqos.trainer", "epoch", "trainer.epoch", "epoch"),
    ("btdqos.trainer", "objective", "trainer.objective", None),
    ("btdqos.trainer", "predict_entries", "model.predict_entries", "predicted"),
    ("btdqos.data_io", "SplitTensor", "sparse.SplitTensor", None),
    ("btdqos.sparse:SparseTensor3", "subset", "sparse.subset", None),
    ("btdqos.sparse:SparseTensor3", "from_arrays", "sparse.from_arrays", None),
)


def structure_label(structure) -> str:
    """Short name of a block structure: cp3, tucker333, btd3x222 ..."""
    blocks = structure.blocks
    ranks = "".join(str(x) for x in blocks[0])
    if any(b != blocks[0] for b in blocks):
        return "btd" + "_".join("".join(str(x) for x in b) for b in blocks)
    if blocks[0] == (1, 1, 1):
        return f"cp{len(blocks)}"
    if len(blocks) == 1:
        return f"tucker{ranks}"
    return f"btd{len(blocks)}x{ranks}"


# Attribute extractors: (args, kwargs, result) -> dict stored on the span.
EXTRACTORS = {
    "ingest": lambda a, k, r: {"records": r.records, "dropped": r.dropped},
    "written": lambda a, k, r: {"entries": a[0].n_entries},
    "saved": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "fitted": lambda a, k, r: {"epochs": r[1].epochs_run},
    "epoch": lambda a, k, r: {"entries": a[1].n_entries,
                              "model": structure_label(a[0].structure)},
    "predicted": lambda a, k, r: {"entries": len(a[1])},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``run`` labels the spans opened while it is set."""

    def __init__(self):
        self.spans = []
        self.run = ""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extractor=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._home[-1] if tracer._home else None
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.run)
            if extractor is not None:
                tracer.spans[idx].attrs = extractor(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every trace point that exists; restore them on exit."""
        patches = []
        try:
            for target, attr, name, kind in TRACE_POINTS:
                module_name, _, class_name = target.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                    raw = owner.__dict__.get(attr)
                else:
                    raw = getattr(owner, attr, None)
                if raw is None:
                    continue
                extractor = EXTRACTORS.get(kind)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, extractor))
                else:
                    new = self.wrap(name, raw, extractor)
                setattr(owner, attr, new)
                patches.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(patches):
                setattr(owner, attr, raw)

    def record(self, name, fn, *args):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args)

    def dump(self):
        return [[s.name, s.start, s.end, s.parent, s.run, s.attrs]
                for s in self.spans]


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = {}
    for idx, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.duration - covered)
    return out


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


#: Block structures whose epoch cost is reported per observed entry.
EPOCH_MODELS = ("cp3", "tucker333", "btd3x222")
LAYERS = ("cli", "data_io", "sparse", "model", "trainer", "evaluation")

#: Every per-layer metric, with its unit.  Times are totals over the run
#: unless the name says p50/p90/per-unit.
PER_LAYER = {
    "data_io.parse_qos_log.us_per_record": "us",
    "data_io.parse_qos_log.records": "count",
    "data_io.parse_qos_log.dropped": "count",
    "data_io.split.s": "s",
    "sparse.subset.s": "s",
    "sparse.SplitTensor.s": "s",
    "sparse.from_arrays.s": "s",
    "data_io.write_qos_log.us_per_record": "us",
    "data_io.write_split_manifest.s": "s",
    "data_io.save_model.s": "s",
    "data_io.save_model.bytes": "bytes",
    "data_io.load_model.s": "s",
    "trainer.epoch.ms_p50": "ms",
    "trainer.epoch.ms_p90": "ms",
    **{f"trainer.epoch.ns_per_entry.{label}": "ns" for label in EPOCH_MODELS},
    "model.predict_entries.calls_per_epoch": "count",
    "model.predict_entries.calls_per_fit_iter": "count",
    "model.predict_entries.ns_per_entry": "ns",
    "model.predict_entries.share_of_epoch": "ratio",
    "trainer.objective.ms_p50": "ms",
    "trainer.fit.bookkeeping_share": "ratio",
    "trainer.fit.epochs": "count",
    "trainer.grid_search.s": "s",
    "trainer.grid_search.fits": "count",
    "evaluation.run_benchmark.s": "s",
    "evaluation.cells": "count",
    "evaluation.cell_fit_s_p50": "s",
    "evaluation.cell_fit_s_max": "s",
    "evaluation.thread_speedup": "ratio",
    "evaluation.rmse.ms": "ms",
    "evaluation.mae.ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace_overhead": "ratio",
}


def layer_metrics(spans, run):
    """Per-layer metrics of the spans recorded under run id ``run``.

    A metric whose layer the run never called reads 0.
    """
    ids = [i for i, s in enumerate(spans) if s.run == run]
    own = {i: spans[i] for i in ids}
    selfs = self_times(spans)
    by_name = {}
    for i in ids:
        by_name.setdefault(own[i].name, []).append(i)

    def total(name):
        return sum(own[i].duration for i in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(own[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    def per(name, key, scale):
        n = attr_sum(name, key)
        return total(name) / n * scale if n else 0.0

    def ancestors(i):
        p = spans[i].parent
        while p is not None:
            yield p
            p = spans[p].parent

    def enclosing_fit(i):
        return next((a for a in ancestors(i) if spans[a].name == "trainer.fit"),
                    None)

    epochs = by_name.get("trainer.epoch", [])
    epoch_ms = [own[i].duration * 1e3 for i in epochs]
    predicts = by_name.get("model.predict_entries", [])
    epoch_set = set(epochs)
    in_epoch = [i for i in predicts if spans[i].parent in epoch_set]

    # The loop of a fit starts at its first epoch; predictions made before
    # it (the initial stop metric) are set-up, not per-iteration work.
    first_epoch = {}
    for e in epochs:
        f = enclosing_fit(e)
        if f is not None:
            first_epoch[f] = min(first_epoch.get(f, math.inf), own[e].start)
    fit_iter_calls = 0
    for p in predicts:
        f = enclosing_fit(p)
        if f in first_epoch and own[p].start >= first_epoch[f]:
            fit_iter_calls += 1
    fits = by_name.get("trainer.fit", [])
    fit_epochs = sum(own[i].attrs.get("epochs", 0) for i in fits)
    fit_time = sum(own[i].duration for i in fits)
    epochs_in_fits = sum(own[e].duration for e in epochs
                         if enclosing_fit(e) is not None)

    grids = set(by_name.get("trainer.grid_search", []))
    grid_fits = [i for i in fits if spans[i].parent in grids]
    benches = set(by_name.get("evaluation.run_benchmark", []))
    cell_fits = [own[i].duration for i in fits if spans[i].parent in benches]

    m = {
        "data_io.parse_qos_log.us_per_record":
            per("data_io.parse_qos_log", "records", 1e6),
        "data_io.parse_qos_log.records": attr_sum("data_io.parse_qos_log", "records"),
        "data_io.parse_qos_log.dropped": attr_sum("data_io.parse_qos_log", "dropped"),
        "data_io.split.s": total("data_io.split"),
        "sparse.subset.s": total("sparse.subset"),
        "sparse.SplitTensor.s": total("sparse.SplitTensor"),
        "sparse.from_arrays.s": total("sparse.from_arrays"),
        "data_io.write_qos_log.us_per_record":
            per("data_io.write_qos_log", "entries", 1e6),
        "data_io.write_split_manifest.s": total("data_io.write_split_manifest"),
        "data_io.save_model.s": total("data_io.save_model"),
        "data_io.save_model.bytes": attr_sum("data_io.save_model", "bytes"),
        "data_io.load_model.s": total("data_io.load_model"),
        "trainer.epoch.ms_p50": _median(epoch_ms),
        "trainer.epoch.ms_p90": _p90(epoch_ms),
    }
    for label in EPOCH_MODELS:
        ns = [own[i].duration / own[i].attrs["entries"] * 1e9 for i in epochs
              if own[i].attrs.get("model") == label and own[i].attrs.get("entries")]
        m[f"trainer.epoch.ns_per_entry.{label}"] = _median(ns)
    m.update({
        "model.predict_entries.calls_per_epoch":
            len(in_epoch) / len(epochs) if epochs else 0.0,
        "model.predict_entries.calls_per_fit_iter":
            fit_iter_calls / fit_epochs if fit_epochs else 0.0,
        "model.predict_entries.ns_per_entry":
            per("model.predict_entries", "entries", 1e9),
        "model.predict_entries.share_of_epoch":
            sum(own[i].duration for i in in_epoch) / sum(epoch_ms) * 1e3
            if epochs else 0.0,
        "trainer.objective.ms_p50":
            _median([own[i].duration * 1e3
                     for i in by_name.get("trainer.objective", ())]),
        "trainer.fit.bookkeeping_share":
            (fit_time - epochs_in_fits) / fit_time if fit_time else 0.0,
        "trainer.fit.epochs": fit_epochs,
        "trainer.grid_search.s": total("trainer.grid_search"),
        "trainer.grid_search.fits": len(grid_fits),
        "evaluation.run_benchmark.s": total("evaluation.run_benchmark"),
        "evaluation.cells": len(cell_fits),
        "evaluation.cell_fit_s_p50": _median(cell_fits),
        "evaluation.cell_fit_s_max": max(cell_fits, default=0.0),
        "evaluation.rmse.ms": _median([own[i].duration * 1e3
                                       for i in by_name.get("evaluation.rmse", ())]),
        "evaluation.mae.ms": _median([own[i].duration * 1e3
                                      for i in by_name.get("evaluation.mae", ())]),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[i] for i in ids
                                   if own[i].name.split(".")[0] == layer)
    return m
