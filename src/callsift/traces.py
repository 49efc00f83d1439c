"""Core domain types: system-call traces, the call vocabulary, and the two
encodings consumed by the learners.

A trace is an ordered sequence of (time_step, call_name) events collected
while an executable runs; the time step granularity is one millisecond, so
several calls can share a step.  A trace holds its events as two read-only
columns (``TraceEvents``): an int64 array of steps and an int32 array of
codes into a table, one tuple of call names that every trace of a corpus
shares (``read_corpus`` builds one per file, ``datagen.generate_corpus`` one
per corpus), so an event costs about 12 bytes.  Event ``i`` reads as the
pair ``(step, name)`` and a slice as the events of the sliced columns.  The
encoders and ``build_vocabulary`` work on the codes: a vocabulary maps a
whole table to its indices once (``SyscallVocabulary.lookup``), and each
trace's codes index that array.  ``write_corpus`` joins each line from the
JSON text of each distinct step and table name, made once.

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
from itertools import chain, compress, repeat
from operator import index
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
    _lookup: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if list(self.names) != sorted(set(self.names)):
            raise ValueError("vocabulary names must be unique and sorted")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})
        object.__setattr__(self, "_lookup", (None, None))

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

    def lookup(self, table: Sequence[str]) -> np.ndarray:
        """``indices_of(table)``: indexed by the codes of events into ``table``,
        it gives their indices.  The array of the last table asked for is
        kept, since the traces of a corpus share one table."""
        last_table, array = self._lookup
        if last_table is not table:
            array = self.indices_of(table)
            object.__setattr__(self, "_lookup", (table, array))
        return array


class TraceEvents(Sequence):
    """A trace's events as two read-only columns: ``steps``, an int64 array,
    and ``codes``, an int32 array that indexes ``table``, a tuple of call
    names that every trace of a corpus shares.

    Event ``i`` is the pair ``(steps[i], table[codes[i]])``, its step a
    Python ``int``; a slice is a ``TraceEvents`` of the sliced columns.  The
    constructor takes ownership of the two arrays and makes them read-only.
    The caller keeps every code in ``[0, len(table))``: that is not checked.
    """

    __slots__ = ("steps", "codes", "table")

    def __init__(self, steps: np.ndarray, codes: np.ndarray, table: Sequence[str]):
        if steps.dtype != np.int64 or codes.dtype != np.int32 or steps.ndim != 1 \
                or codes.shape != steps.shape:
            raise ValueError("events need int64 steps and int32 codes, one of each per event")
        steps.flags.writeable = False
        codes.flags.writeable = False
        self.steps, self.codes, self.table = steps, codes, table

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TraceEvents(self.steps[i], self.codes[i], self.table)
        i = index(i)  # a tuple's TypeError for an index that is not an integer
        if not -len(self) <= i < len(self):
            raise IndexError("TraceEvents index out of range")
        return int(self.steps[i]), self.table[self.codes[i]]


@dataclass(frozen=True, eq=False)
class SyscallTrace:
    """One executable's call sequence with label and corpus timestamp.

    ``observed_at`` orders traces within a corpus (arbitrary integer units);
    ``events`` are (time_step_ms, call_name) pairs ordered by non-decreasing
    time step.  ``label`` is None for unlabeled scoring input.  Traces
    compare by identity.
    """

    id: str
    label: str | None
    observed_at: int
    events: TraceEvents

    def __post_init__(self) -> None:
        if self.label is not None and self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
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
    # by id(table): the table and which of its names occur; once all of
    # them do, its key moves to ``complete`` and its traces are skipped
    used: dict[int, tuple[Sequence[str], np.ndarray]] = {}
    complete: set[int] = set()
    for trace in corpus:
        table = trace.events.table
        key = id(table)
        if key in complete:
            continue
        if key not in used:
            used[key] = (table, np.zeros(len(table), dtype=bool))
        seen = used[key][1]
        seen[trace.events.codes.astype(np.intp)] = True  # an intp index is numpy's fast path
        if b"\0" not in seen.tobytes():
            complete.add(key)
    names = {name for table, seen in used.values() for name in compress(table, seen)}
    if not names:
        raise ValueError("empty vocabulary")
    return SyscallVocabulary(tuple(sorted(names)))


def _first_failing(column: Sequence, key: Callable, ok: Callable) -> int:
    """Index of the first item whose ``key`` fails ``ok``, or ``len(column)``
    when none does; ``ok`` is asked once per distinct key."""
    if all(map(ok, set(map(key, column)))):
        return len(column)
    return list(map(ok, map(key, column))).index(False)


def _event_columns(raw_events: list, table: list[str], code_of: dict[str, int],
                   where: str) -> TraceEvents:
    """Split ``[step, name]`` pairs into a column of steps and a column of
    codes into ``table``, checking each column whole.  Each check runs on the
    prefix of events the checks before it accepted, so the error names the
    first malformed event.  A name ``table`` lacks is appended to it, and
    ``code_of`` maps each name of ``table`` to its code."""
    end = _first_failing(raw_events, type, lambda t: issubclass(t, (list, tuple)))
    end = _first_failing(raw_events[:end], len, (2).__eq__)
    pairs = tuple(chain.from_iterable(raw_events[:end]))
    steps, calls = pairs[0::2], pairs[1::2]
    try:  # every name ``table`` holds is a str, so only new names need checking
        codes = np.fromiter(map(code_of.__getitem__, calls), np.int32, end)
        names_end = end
    except (KeyError, TypeError):
        codes = None
        names_end = _first_failing(calls, type, lambda t: issubclass(t, str))
    end = min(
        _first_failing(steps, type, lambda t: issubclass(t, int) and not issubclass(t, bool)),
        names_end,
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
    if codes is None:
        for name in calls:
            if name not in code_of:
                code_of[name] = len(table)
                table.append(name)
        codes = np.fromiter(map(code_of.__getitem__, calls), np.int32, end)
    return TraceEvents(column, codes, table)


def parse_trace(record: str | dict, line_number: int | None = None) -> SyscallTrace:
    """Parse one external trace record (JSON text or already-decoded object)."""
    table: list[str] = []
    trace = _parse_trace(record, line_number, table, {})
    trace.events.table = tuple(table)
    return trace


def _parse_trace(record: str | dict, line_number: int | None, table: list[str],
                 code_of: dict[str, int]) -> SyscallTrace:
    """Parse one record into a trace whose events index ``table``, which
    grows by the names the record adds (see ``_event_columns``)."""
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
    events = _event_columns(raw_events, table, code_of, where)
    try:
        return SyscallTrace(trace_id, label, observed_at, events)
    except ValueError as exc:
        raise TraceParseError(f"{exc}{where}") from exc


def read_corpus(path: str | Path) -> list[SyscallTrace]:
    """Read a JSON Lines trace file (one UTF-8 trace object per line, ended by
    ``\\n`` or ``\\r\\n``).  All traces of the file share one table: it
    holds every distinct call name of the file once, in order of first use."""
    table: list[str] = []
    code_of: dict[str, int] = {}
    traces = []
    with open(path, "rb") as fh:
        for i, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise TraceParseError(f"invalid UTF-8 (line {i}): {exc}") from None
            if not line:
                continue
            traces.append(_parse_trace(line, i, table, code_of))
    shared = tuple(table)
    for trace in traces:
        trace.events.table = shared
    return traces


class _Fragments(dict):
    """Memo of the JSON text ``render`` gives each key it is asked for."""

    def __init__(self, render: Callable):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def write_corpus(traces: Iterable[SyscallTrace], path: str | Path) -> None:
    """Write one JSON line per trace: ``json.dumps(record, sort_keys=True)``
    of the record ``{"id": ..., "label": ..., "observed_at": ...,
    "events": [[step, name], ...]}`` that ``parse_trace`` reads.

    A line is joined from the JSON text of its parts, made once per distinct
    part: ``', [' + step`` for each step and ``', "Name"]'`` for each code of
    a table (the first event drops its leading ``', '``); the keys after
    ``events`` come from the same encoder."""
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)
    step_text = _Fragments(lambda step: f", [{step}")
    name_text = _Fragments(lambda table: [f", {encode(name)}]" for name in table])
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            events = trace.events
            parts = [""] * (2 * len(events) + 2)
            parts[0] = '{"events": ['
            parts[1:-1:2] = map(step_text.__getitem__, events.steps.tolist())
            parts[2:-1:2] = map(name_text[events.table].__getitem__, events.codes.tolist())
            if events:
                parts[1] = parts[1][2:]
            # the other keys sort after "events": the record without it, past its "{"
            parts[-1] = "], " + encode({"id": trace.id, "label": trace.label,
                                        "observed_at": trace.observed_at})[1:] + "\n"
            fh.write("".join(parts))


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
    cols = vocab.lookup(trace.events.table)[trace.events.codes[:truncation]]
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
        lookup = vocab.lookup(trace.events.table)
        row[:] = np.bincount(lookup[trace.events.codes[:truncation]], minlength=width)
    if normalize:
        totals = out.sum(axis=1, keepdims=True)
        np.divide(out, totals, out=out, where=totals > 0)
    return out
