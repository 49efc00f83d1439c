"""Core domain types: system-call traces, the call vocabulary, and the two
encodings consumed by the learners.

A trace is an ordered sequence of (time_step, call_name) events collected
while an executable runs; the time step granularity is one millisecond, so
several calls can share a step.  A trace holds its events as two columns
(``TraceEvents``): a read-only int64 array of steps and a tuple of call
names.  ``read_corpus`` keeps one ``str`` per distinct call name and shares
it between every event and trace of the corpus it reads, through a table
that lives for that one call, so a parsed event costs about 16 bytes (8 for
its step, 8 for its reference to the shared name) rather than a tuple, an
int and a string of its own.  ``TraceEvents`` still reads as the tuple of
``(step, name)`` pairs it holds.

Two encodings are provided:

* multi-hot (``encode_multihot``): a ``MultiHotMatrix`` with one count
  vector per occupied time step (order preserved),
* histogram (``encode_histogram``): one float64 matrix for a set of traces,
  a count vector per trace (order discarded), optionally normalized to
  frequencies; both encoders read only a trace's first ``truncation`` events.

Both encodings reserve one extra out-of-vocabulary slot so that models
trained against one vocabulary can score traces collected later, when new
call names may have appeared.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import index, itemgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

GOODWARE = "goodware"
MALWARE = "malware"
LABELS = (GOODWARE, MALWARE)

# integer labels used by every learner in this package
LABEL_TO_INT = {GOODWARE: 0, MALWARE: 1}
INT_TO_LABEL = {0: GOODWARE, 1: MALWARE}


def labels_of(scores) -> np.ndarray:
    """Integer labels of malware scores: 0.5 or more is malware, so an exact tie
    goes to malware (the fail-safe direction); the package's one copy of the rule."""
    return (np.asarray(scores) >= 0.5).astype(np.int64)


class TraceParseError(ValueError):
    """Raised when an external trace record is malformed."""


# traces and encodings store time steps as int64
_MIN_STEP = int(np.iinfo(np.int64).min)
_MAX_STEP = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SyscallVocabulary:
    """Sorted, deduplicated call-name universe plus one OOV slot.

    ``indices_of`` maps ``names[i]`` to ``i``, an unknown name to ``oov_index == len(names)``.
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

    def indices_of(self, names: Iterable[str]) -> np.ndarray:
        """The index of each name, in order, as an int64 array."""
        return np.fromiter(
            map(self._index.get, names, repeat(self.oov_index)), dtype=np.int64
        )


class TraceEvents(Sequence):
    """A trace's events as two columns: ``steps``, a read-only int64 array,
    and ``names``, a tuple of call names, one per step.

    It reads as the tuple of ``(step, name)`` pairs it holds: ``len``,
    truthiness, indexing, iteration, ``==`` and ``hash`` all match that
    tuple's, a slice is a ``TraceEvents`` of the sliced columns, and every
    step it yields is a Python ``int``.  The constructor takes ownership of
    ``steps`` and makes it read-only.
    """

    __slots__ = ("_steps", "_names")

    def __init__(self, steps: np.ndarray, names: tuple[str, ...]):
        steps = np.asarray(steps, dtype=np.int64)
        if steps.ndim != 1 or steps.shape[0] != len(names):
            raise ValueError("events need one step and one name per event")
        steps.flags.writeable = False
        self._steps = steps
        self._names = names

    @property
    def steps(self) -> np.ndarray:
        return self._steps

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TraceEvents(self._steps[i], self._names[i])
        name = self._names[i]  # the tuple's own IndexError and TypeError
        return int(self._steps[index(i)]), name

    def __iter__(self):
        return zip(self._steps.tolist(), self._names)

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceEvents):
            return self._names == other._names and np.array_equal(self._steps, other._steps)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"TraceEvents({tuple(self)!r})"


@dataclass(frozen=True)
class SyscallTrace:
    """One executable's call sequence with label and corpus timestamp.

    ``observed_at`` orders traces within a corpus (arbitrary integer units);
    ``events`` are (time_step_ms, call_name) pairs ordered by non-decreasing
    time step, given as ``TraceEvents`` or as any iterable of pairs.
    ``label`` is None for unlabeled scoring input.
    """

    id: str
    label: str | None
    observed_at: int
    events: TraceEvents

    def __post_init__(self) -> None:
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        if not isinstance(self.events, TraceEvents):
            pairs = tuple(self.events)
            events = TraceEvents(np.fromiter(map(itemgetter(0), pairs), np.int64, len(pairs)),
                                 tuple(map(itemgetter(1), pairs)))
            object.__setattr__(self, "events", events)
        steps = self.events.steps
        # before the first drop the steps only rise, so the first negative
        # step is either the first step or the step of the first drop
        drops = np.flatnonzero(steps[1:] < steps[:-1])
        if steps.size and steps[0] < 0 or drops.size and steps[drops[0] + 1] < 0:
            raise ValueError("event time_step must be >= 0")
        if drops.size:
            raise ValueError("events must be ordered by non-decreasing time_step")

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

    @classmethod
    def _built(cls, counts: np.ndarray, time_steps: np.ndarray) -> "MultiHotMatrix":
        """Wrap arrays ``encode_multihot`` built to hold every invariant the
        constructor checks, without checking them again."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "counts", counts)
        object.__setattr__(matrix, "time_steps", time_steps)
        return matrix

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
        names.update(trace.events.names)
    if not names:
        raise ValueError("empty vocabulary")
    return SyscallVocabulary(tuple(sorted(names)))


def _first_failing(column: Sequence, key: Callable, ok: Callable) -> int:
    """Index of the first item whose ``key`` fails ``ok``, or ``len(column)``
    when none does; ``ok`` is asked once per distinct key."""
    if all(map(ok, set(map(key, column)))):
        return len(column)
    return list(map(ok, map(key, column))).index(False)


def _event_columns(raw_events: list, names: dict[str, str], where: str) -> TraceEvents:
    """Split ``[step, name]`` pairs into their two columns, checking each
    column whole.  Each check runs on the prefix of events the checks before
    it accepted, so the error names the first malformed event; a name seen
    before is replaced by the ``str`` ``names`` holds for it."""
    end = _first_failing(raw_events, type, lambda t: issubclass(t, (list, tuple)))
    end = _first_failing(raw_events[:end], len, (2).__eq__)
    steps, calls = zip(*raw_events[:end]) if end else ((), ())
    end = min(
        _first_failing(steps, type, lambda t: issubclass(t, int) and not issubclass(t, bool)),
        _first_failing(calls, type, lambda t: issubclass(t, str)),
    )
    steps, calls = steps[:end], calls[:end]
    try:
        column = np.fromiter(steps, np.int64, end)
    except OverflowError:
        if max(steps) > _MAX_STEP:
            over = list(map(_MAX_STEP.__lt__, steps)).index(True)
            raise TraceParseError(f"event time_step {steps[over]} exceeds int64{where}") from None
        # a step below int64's range is negative, and is rejected as one;
        # clipping it to the range keeps which error the trace reports
        column = np.fromiter(map(max, steps, repeat(_MIN_STEP)), np.int64, end)
    if end < len(raw_events):
        # reprlib caps the length of the strings and the depth of the nesting shown
        raise TraceParseError(
            f"event must be [int_ms, str_name]{where}: {reprlib.repr(raw_events[end])}")
    return TraceEvents(column, tuple(map(names.setdefault, calls, calls)))


def parse_trace(record: str | dict, line_number: int | None = None) -> SyscallTrace:
    """Parse one external trace record (JSON text or already-decoded object)."""
    return _parse_trace(record, line_number, {})


def _parse_trace(record: str | dict, line_number: int | None,
                 names: dict[str, str]) -> SyscallTrace:
    where = f" (line {line_number})" if line_number is not None else ""
    if isinstance(record, str):
        try:
            record = json.loads(record)
        except ValueError as exc:  # also an integer of more digits than the decoder takes
            raise TraceParseError(f"invalid JSON{where}: {exc}") from exc
        except RecursionError:
            raise TraceParseError(f"JSON nested deeper than the decoder allows{where}") from None
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
    events = _event_columns(raw_events, names, where)
    try:
        return SyscallTrace(trace_id, label, observed_at, events)
    except ValueError as exc:
        raise TraceParseError(f"{exc}{where}") from exc


def trace_to_record(trace: SyscallTrace) -> dict:
    return {
        "id": trace.id,
        "label": trace.label,
        "observed_at": trace.observed_at,
        "events": list(trace.events),
    }


def read_corpus(path: str | Path) -> list[SyscallTrace]:
    """Read a JSON Lines trace file (one trace object per line).  Every
    distinct call name in the file becomes one ``str`` that all its events
    share; the table that shares them lives for this call only."""
    names: dict[str, str] = {}
    traces = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            traces.append(_parse_trace(line, i, names))
    return traces


def write_corpus(traces: Iterable[SyscallTrace], path: str | Path) -> None:
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(encode(trace_to_record(trace)))
            fh.write("\n")


def encode_multihot(trace: SyscallTrace, vocab: SyscallVocabulary,
                    truncation: int | None = None) -> MultiHotMatrix:
    """Count calls per occupied time step of the trace's first ``truncation``
    events (all for None); unknown names land in the OOV slot."""
    width = vocab.width
    steps = trace.events.steps[:truncation]
    if not steps.size:
        return MultiHotMatrix._built(np.zeros((0, width), dtype=np.int64),
                                     np.zeros(0, dtype=np.int64))
    # the steps never fall, so each run of equal steps is one row
    opens_row = np.empty(steps.size, dtype=bool)
    opens_row[0] = True
    np.not_equal(steps[1:], steps[:-1], out=opens_row[1:])
    row_idx = np.cumsum(opens_row) - 1
    cols = vocab.indices_of(trace.events.names[:truncation])
    counts = np.bincount(row_idx * width + cols, minlength=(row_idx[-1] + 1) * width)
    return MultiHotMatrix._built(counts.reshape(-1, width), steps[opens_row])


def encode_histogram(
    traces: Sequence[SyscallTrace], vocab: SyscallVocabulary, normalize: bool = True,
    truncation: int | None = None,
) -> np.ndarray:
    """The float64 (len(traces), vocab.width) matrix of each trace's call
    counts over its first ``truncation`` events (all for None); optionally
    each row divided by its total.

    An empty trace stays all-zero in both modes.  Normalization defaults on:
    frequency features are comparable across traces of different lengths.
    """
    width = vocab.width
    out = np.empty((len(traces), width), dtype=np.float64)
    for row, trace in zip(out, traces):
        row[:] = np.bincount(vocab.indices_of(trace.events.names[:truncation]), minlength=width)
    if normalize:
        totals = out.sum(axis=1, keepdims=True)
        np.divide(out, totals, out=out, where=totals > 0)
    return out
