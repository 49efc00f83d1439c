"""Core domain types: system-call traces, the call vocabulary, and the two
encodings consumed by the learners.

A trace is an ordered sequence of (time_step, call_name) events collected
while an executable runs; the time step granularity is one millisecond, so
several calls can share a step.  Two encodings are provided:

* multi-hot (``encode_multihot``): a ``MultiHotMatrix`` with one count
  vector per occupied time step (order preserved),
* histogram (``encode_histogram``): one float64 count vector per trace
  (order discarded), optionally normalized to frequencies;
  ``models.encode_histograms`` stacks them into a corpus matrix.

Both encodings reserve one extra out-of-vocabulary slot so that models
trained against one vocabulary can score traces collected later, when new
call names may have appeared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

GOODWARE = "goodware"
MALWARE = "malware"
LABELS = (GOODWARE, MALWARE)

# integer labels used by every learner in this package
LABEL_TO_INT = {GOODWARE: 0, MALWARE: 1}
INT_TO_LABEL = {0: GOODWARE, 1: MALWARE}


class TraceParseError(ValueError):
    """Raised when an external trace record is malformed."""


# encodings store time steps as int64
_MAX_STEP = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SyscallVocabulary:
    """Sorted, deduplicated call-name universe plus one OOV slot.

    ``index(names[i]) == i``; unknown names map to ``oov_index == len(names)``.
    """

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if list(self.names) != sorted(set(self.names)):
            raise ValueError("vocabulary names must be unique and sorted")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    @property
    def oov_index(self) -> int:
        return len(self.names)

    @property
    def width(self) -> int:
        """Vector width of every encoding: known names plus the OOV slot."""
        return len(self.names) + 1

    def index_of(self, name: str) -> int:
        return self._index.get(name, self.oov_index)

    def indices_of(self, names: Iterable[str]) -> np.ndarray:
        """``index_of`` of each name, in order, as an int64 array."""
        return np.fromiter(
            map(self._index.get, names, repeat(self.oov_index)), dtype=np.int64
        )

    def __contains__(self, name: str) -> bool:
        return name in self._index


@dataclass(frozen=True)
class SyscallTrace:
    """One executable's call sequence with label and corpus timestamp.

    ``observed_at`` orders traces within a corpus (arbitrary integer units);
    ``events`` are (time_step_ms, call_name) pairs ordered by non-decreasing
    time step.  ``label`` is None for unlabeled scoring input.
    """

    id: str
    label: str | None
    observed_at: int
    events: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        prev = -1
        for step, _ in self.events:
            if step < 0:
                raise ValueError("event time_step must be >= 0")
            if step < prev:
                raise ValueError("events must be ordered by non-decreasing time_step")
            prev = step

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True, eq=False)
class MultiHotMatrix:
    """Per-time-step call counts: one row per occupied step, width vocab+1."""

    counts: np.ndarray  # (n_steps, width) non-negative ints
    time_steps: np.ndarray  # (n_steps,) strictly increasing

    def __post_init__(self) -> None:
        if self.counts.ndim != 2 or self.time_steps.ndim != 1:
            raise ValueError("counts must be 2-D and time_steps 1-D")
        if self.counts.shape[0] != self.time_steps.shape[0]:
            raise ValueError("one time_step per row required")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")
        if self.time_steps.size and (np.diff(self.time_steps) <= 0).any():
            raise ValueError("time_steps must be strictly increasing")

    @property
    def width(self) -> int:
        return self.counts.shape[1]


def build_vocabulary(corpus: Iterable[SyscallTrace]) -> SyscallVocabulary:
    """Collect every distinct call name in the corpus, sorted.

    Deterministic regardless of trace order.  Raises ValueError("empty
    vocabulary") when the corpus contributes no call names at all.
    """
    names: set[str] = set()
    for trace in corpus:
        for _, call in trace.events:
            names.add(call)
    if not names:
        raise ValueError("empty vocabulary")
    return SyscallVocabulary(tuple(sorted(names)))


def parse_trace(record: str | dict, line_number: int | None = None) -> SyscallTrace:
    """Parse one external trace record (JSON text or already-decoded object)."""
    where = f" (line {line_number})" if line_number is not None else ""
    if isinstance(record, str):
        try:
            record = json.loads(record)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"invalid JSON{where}: {exc}") from exc
    if not isinstance(record, dict):
        raise TraceParseError(f"trace record must be an object{where}")
    try:
        trace_id = record["id"]
        label = record.get("label")
        observed_at = record["observed_at"]
        raw_events = record["events"]
    except KeyError as exc:
        raise TraceParseError(f"missing field {exc}{where}") from exc
    if not isinstance(trace_id, str):
        raise TraceParseError(f"id must be a string{where}")
    if not isinstance(observed_at, int) or isinstance(observed_at, bool):
        raise TraceParseError(f"observed_at must be an integer{where}")
    if label is not None and label not in LABELS:
        raise TraceParseError(f"label must be goodware, malware, or null{where}")
    if not isinstance(raw_events, (list, tuple)):
        raise TraceParseError(f"events must be a list{where}")
    events = []
    for ev in raw_events:
        if (
            not isinstance(ev, (list, tuple))
            or len(ev) != 2
            or not isinstance(ev[0], int)
            or isinstance(ev[0], bool)
            or not isinstance(ev[1], str)
        ):
            raise TraceParseError(f"event must be [int_ms, str_name]{where}: {ev!r}")
        if ev[0] > _MAX_STEP:
            raise TraceParseError(f"event time_step {ev[0]} exceeds int64{where}")
        events.append((ev[0], ev[1]))
    try:
        return SyscallTrace(trace_id, label, observed_at, tuple(events))
    except ValueError as exc:
        raise TraceParseError(f"{exc}{where}") from exc


def trace_to_record(trace: SyscallTrace) -> dict:
    return {
        "id": trace.id,
        "label": trace.label,
        "observed_at": trace.observed_at,
        "events": [[step, call] for step, call in trace.events],
    }


def read_corpus(path: str | Path) -> list[SyscallTrace]:
    """Read a JSON Lines trace file (one trace object per line)."""
    traces = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            traces.append(parse_trace(line, line_number=i))
    return traces


def write_corpus(traces: Iterable[SyscallTrace], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(json.dumps(trace_to_record(trace), sort_keys=True))
            fh.write("\n")


def truncate(trace: SyscallTrace, n: int) -> SyscallTrace:
    """Keep the first min(n, len) events.  Idempotent; n must be >= 1."""
    if n < 1:
        raise ValueError("truncation limit must be >= 1")
    if len(trace.events) <= n:
        return trace
    return SyscallTrace(trace.id, trace.label, trace.observed_at, trace.events[:n])


def encode_multihot(trace: SyscallTrace, vocab: SyscallVocabulary) -> MultiHotMatrix:
    """Count calls per occupied time step; unknown names land in the OOV slot."""
    if not trace.events:
        return MultiHotMatrix(
            counts=np.zeros((0, vocab.width), dtype=np.int64),
            time_steps=np.zeros(0, dtype=np.int64),
        )
    steps = np.fromiter(map(itemgetter(0), trace.events), dtype=np.int64)
    cols = vocab.indices_of(map(itemgetter(1), trace.events))
    uniq_steps, row_idx = np.unique(steps, return_inverse=True)
    width = vocab.width
    counts = np.bincount(row_idx * width + cols, minlength=uniq_steps.size * width)
    return MultiHotMatrix(counts=counts.reshape(-1, width), time_steps=uniq_steps)


def encode_histogram(
    trace: SyscallTrace, vocab: SyscallVocabulary, normalize: bool = True
) -> np.ndarray:
    """Count calls over the whole trace as a float64 (width,) vector;
    optionally divide by the total.

    An empty trace stays all-zero in both modes.  Normalization defaults on:
    frequency features are comparable across traces of different lengths.
    """
    idx = vocab.indices_of(map(itemgetter(1), trace.events))
    values = np.bincount(idx, minlength=vocab.width).astype(np.float64)
    if normalize:
        total = values.sum()
        if total > 0:
            values = values / total
    return values
