"""Spans recorded around the calls into callsift's public functions.

The benchmark wraps each traced function at every place it is bound: the
defining module, every module that imported it by name, or the class for a
method.  A wrapped call records one span (name, start, end, parent span,
counts) in memory; nothing is written until the benchmark ends.  Nothing in
``src/`` is edited: the wrappers are installed for the traced region only and
the original bindings are restored afterwards.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = (
    "datagen", "traces", "forest", "reservoir", "models", "evaluation",
    "significance", "explain", "persistence", "cli",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _horizon(args, kwargs, result):
    """Liquid steps simulated, derived from the input the way the simulator
    derives its horizon: last occupied step over the step size, plus one."""
    lif = _arg(args, kwargs, 1, "lif")
    matrix = _arg(args, kwargs, 2, "input_matrix")
    occupied = np.flatnonzero(matrix.counts.sum(axis=1) > 0)
    if occupied.size == 0:
        return {"steps": 0}
    last = int(matrix.time_steps[occupied[-1]])
    return {"steps": int(last // lif.simulation_step) + 1}


def _readout_fits(args, kwargs, result):
    folds = args[3] if len(args) > 3 else kwargs.get("folds", 10)
    return {"fits": len(result.search_log) * folds + 1}


def _lime_degenerate(args, kwargs, result):
    return {"degenerate": int(any("degenerate" in note for note in result.notes))}


def _archive_bytes(args, kwargs, result):
    return {"archive_bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module, attribute path, span name or callable(args) -> name, counter)
# A counter maps (args, kwargs, result) to a dict of counts for the span.
TARGETS = (
    ("datagen", "generate_corpus", None,
     lambda a, k, r: {"traces": len(r), "events": sum(len(t.events) for t in r)}),
    ("traces", "read_corpus", None, lambda a, k, r: {"traces": len(r)}),
    ("traces", "write_corpus", None, None),
    ("traces", "build_vocabulary", None, None),
    ("traces", "encode_histogram", None, None),
    ("traces", "encode_multihot", None, lambda a, k, r: {"rows": int(r.counts.shape[0])}),
    ("forest", "DecisionTree.predict_scores", None, None),
    ("forest", "RandomForest.predict_scores", None,
     lambda a, k, r: {"rows": int(r.shape[0])}),
    ("forest", "train_decision_tree", None, lambda a, k, r: {"nodes": int(r.n_nodes)}),
    ("forest", "train_random_forest", None, None),
    ("forest", "train_linear", None, None),
    ("reservoir", "build_liquid", None, None),
    ("reservoir", "simulate_liquid", None, _horizon),
    ("reservoir", "train_readout", None, _readout_fits),
    ("models", "HistogramClassifier.fit", lambda a: f"models.{a[0].kind}.fit", None),
    ("models", "HistogramClassifier.predict", lambda a: f"models.{a[0].kind}.predict",
     lambda a, k, r: {"rows": int(r[0].shape[0])}),
    ("models", "LsmClassifier.fit", "models.lsm.fit", None),
    ("models", "LsmClassifier.predict", "models.lsm.predict",
     lambda a, k, r: {"rows": int(r[0].shape[0])}),
    ("evaluation", "evaluate_split", None, None),
    ("evaluation", "evaluate_cv", None, None),
    ("evaluation", "sweep_sequence_length", None, None),
    ("significance", "pairwise_significance", None, None),
    ("explain", "lime_explain", None, _lime_degenerate),
    ("explain", "extract_rules", None, None),
    ("explain", "class_frequency_marks", None, None),
    ("persistence", "save_model", None, _archive_bytes),
    ("persistence", "load_model", None, None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_sweep", "cli.sweep", None),
    ("cli", "cmd_stats", "cli.stats", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_explain", "cli.explain", None),
    ("cli", "cmd_pipeline", "cli.pipeline", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. a workload's root."""
        sid = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, name, start, time.perf_counter(), None)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start, end, counts) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = Span(sid, name, start, end, parent, counts)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open()
            start = time.perf_counter()
            end, counts = None, None
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if counter:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                tracer._close(sid, name if isinstance(name, str) else name(args),
                              start, end or time.perf_counter(), counts)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target at every binding site; restore them on exit.

        Raises LookupError when a target no longer exists, so a rename in
        ``src/`` fails the traced run instead of reporting zero.
        """
        modules = {layer: importlib.import_module(f"callsift.{layer}")
                   for layer in LAYERS}
        try:
            for layer, path, name, counter in TARGETS:
                self._install(modules, layer, path, name or f"{layer}.{path}", counter)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self, modules, layer, path, name, counter) -> None:
        owner = modules[layer]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                raise LookupError(f"traced target {layer}.{path} is missing")
        original = vars(owner).get(attr)
        if original is None:
            raise LookupError(f"traced target {layer}.{path} is missing")
        wrapped = self._wrap(original, name, counter)
        if outer:  # a method: the class is its only binding site
            sites = [owner]
        else:  # a function: its module and every module that imported it by name
            sites = [m for m in modules.values() if vars(m).get(attr) is original]
        for site in sites:
            self._patches.append((site, attr, original))
            setattr(site, attr, wrapped)

    def subtree(self, root: int) -> list[Span]:
        """The spans recorded under (and including) one root span."""
        keep = {root}
        out = []
        for span in self.spans[root:]:
            if span is not None and (span.id == root or span.parent in keep):
                keep.add(span.id)
                out.append(span)
        return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it its child spans cover."""
    covered = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent in covered:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def check_nesting(spans: list[Span]) -> str | None:
    """Children must lie inside their parent and not overlap each other, so
    that a parent's self time plus its children's durations is its duration.
    Returns a description of the first violation, or None."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    for pid, kids in children.items():
        parent = by_id[pid]
        kids.sort(key=lambda s: s.start)
        prev_end = parent.start
        for kid in kids:
            if kid.start < prev_end or kid.end > parent.end:
                return f"span {kid.name} is not nested inside {parent.name}"
            prev_end = kid.end
    return None


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: inclusive seconds, self seconds, calls, summed counts
    and the median and 95th percentile of a call's duration in ms."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += s.duration
        entry["self_s"] += selfs[s.id]
        entry["calls"] += 1
        durations.setdefault(s.name, []).append(s.duration)
        for key, value in (s.counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    for name, entry in out.items():
        entry["p50_ms"], entry["p95_ms"] = np.percentile(durations[name], [50, 95]) * 1000
    return out
