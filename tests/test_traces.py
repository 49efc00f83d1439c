import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callsift.traces import (
    MultiHotMatrix,
    SyscallTrace,
    SyscallVocabulary,
    TraceParseError,
    build_vocabulary,
    encode_histogram,
    encode_multihot,
    parse_trace,
    read_corpus,
    write_corpus,
)
from conftest import events_of, make_trace, trace_to_record


def test_build_vocabulary_sorted_dedup():
    corpus = [make_trace([(0, "NtClose"), (1, "NtOpenKey"), (2, "NtClose")])]
    vocab = build_vocabulary(corpus)
    assert vocab.names == ("NtClose", "NtOpenKey")
    assert vocab.oov_index == 2
    assert vocab.width == 3


def test_build_vocabulary_order_invariant():
    t1 = make_trace([(0, "B"), (1, "C")], trace_id="a")
    t2 = make_trace([(0, "A")], trace_id="b")
    assert build_vocabulary([t1, t2]).names == build_vocabulary([t2, t1]).names


def test_build_vocabulary_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty vocabulary"):
        build_vocabulary([])
    with pytest.raises(ValueError, match="empty vocabulary"):
        build_vocabulary([make_trace([])])


def test_vocabulary_oov_lookup():
    vocab = SyscallVocabulary(("A", "B"))
    assert vocab.indices_of(["A", "NotThere", "B"]).tolist() == [0, vocab.oov_index, 1]
    assert vocab.oov_index == 2


def test_vocabulary_rejects_unsorted():
    with pytest.raises(ValueError):
        SyscallVocabulary(("B", "A"))
    with pytest.raises(ValueError):
        SyscallVocabulary(("A", "A"))


def test_parse_trace_basic():
    record = {
        "id": "a",
        "label": "malware",
        "observed_at": 5,
        "events": [[0, "NtClose"], [1, "NtReadFile"]],
    }
    trace = parse_trace(record)
    assert len(trace) == 2
    assert trace.label == "malware"
    assert trace.events[0] == (0, "NtClose")


def test_parse_trace_rejects_out_of_order_events():
    record = {"id": "a", "label": None, "observed_at": 0, "events": [[2, "X"], [1, "Y"]]}
    with pytest.raises(TraceParseError, match="non-decreasing"):
        parse_trace(record)


def test_parse_trace_unlabeled():
    record = {"id": "a", "observed_at": 0, "events": []}
    assert parse_trace(record).label is None


def test_parse_trace_malformed_reports_line():
    with pytest.raises(TraceParseError, match="line 7"):
        parse_trace("{not json", line_number=7)
    with pytest.raises(TraceParseError, match="missing field"):
        parse_trace({"id": "a", "events": []})
    with pytest.raises(TraceParseError, match="label"):
        parse_trace({"id": "a", "observed_at": 0, "label": "weird", "events": []})
    with pytest.raises(TraceParseError, match="event"):
        parse_trace({"id": "a", "observed_at": 0, "label": None, "events": [[0.5, "X"]]})
    for events in (None, 3):
        with pytest.raises(TraceParseError, match="events must be a list.*line 2"):
            parse_trace({"id": "a", "observed_at": 0, "events": events}, line_number=2)
    with pytest.raises(TraceParseError, match="int64.*line 4"):
        parse_trace({"id": "a", "observed_at": 0, "events": [[10**23, "X"]]}, line_number=4)


def test_trace_rejects_negative_time():
    with pytest.raises(ValueError):
        SyscallTrace("a", None, 0, events_of([(-1, "X")]))


def test_encode_multihot_definition():
    vocab = SyscallVocabulary(("A", "B"))
    trace = make_trace([(0, "A"), (0, "A"), (0, "B"), (1, "B")])
    m = encode_multihot(trace, vocab)
    assert m.counts.tolist() == [[2, 1, 0], [0, 1, 0]]
    assert m.time_steps.tolist() == [0, 1]


def test_encode_multihot_empty_trace():
    vocab = SyscallVocabulary(("A",))
    m = encode_multihot(make_trace([]), vocab)
    assert m.counts.shape == (0, 2)


def test_encode_multihot_oov():
    vocab = SyscallVocabulary(("A",))
    m = encode_multihot(make_trace([(3, "Mystery")]), vocab)
    assert m.counts.tolist() == [[0, 1]]
    assert m.time_steps.tolist() == [3]


def test_encode_histogram_raw_and_normalized():
    vocab = SyscallVocabulary(("A", "B", "C"))
    trace = make_trace([(0, "A"), (1, "B"), (2, "A"), (3, "C"), (4, "A")])
    raw = encode_histogram([trace], vocab, normalize=False)[0]
    assert raw.tolist() == [3, 1, 1, 0]
    norm = encode_histogram([trace], vocab, normalize=True)[0]
    assert norm.tolist() == pytest.approx([0.6, 0.2, 0.2, 0.0])
    assert norm.sum() == pytest.approx(1.0, abs=1e-9)


def test_encode_histogram_empty_stays_zero():
    vocab = SyscallVocabulary(("A",))
    h = encode_histogram([make_trace([])], vocab, normalize=True)[0]
    assert not h.any()


def _loop_index(vocab, name):
    return vocab.names.index(name) if name in vocab.names else vocab.oov_index


def loop_histogram(trace, vocab, normalize):
    """The per-event accumulation encode_histogram replaced, kept as an oracle."""
    values = np.zeros(vocab.width, dtype=np.float64)
    for _, call in trace.events:
        values[_loop_index(vocab, call)] += 1.0
    if normalize:
        total = values.sum()
        if total > 0:
            values = values / total
    return values


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["A", "B", "C", "D", "Oov1", "Oov2"]), max_size=300),
             max_size=6),
    st.booleans(),
    st.none() | st.integers(1, 320),
)
def test_encode_histogram_matches_loop_oracle(call_lists, normalize, truncation):
    vocab = SyscallVocabulary(("A", "B", "C", "D"))
    traces = [make_trace(list(enumerate(calls))) for calls in call_lists]
    hists = encode_histogram(traces, vocab, normalize=normalize, truncation=truncation)
    assert hists.dtype == np.float64
    assert hists.shape == (len(traces), vocab.width)
    for trace, hist in zip(traces, hists):
        cut = make_trace(list(trace.events)[:truncation])
        assert np.array_equal(hist, loop_histogram(cut, vocab, normalize))


def _random_trace(rng, names, max_events=60):
    n = int(rng.integers(0, max_events))
    steps = np.sort(rng.integers(0, 40, size=n))
    calls = rng.choice(names, size=n)
    return make_trace(list(zip((int(s) for s in steps), calls)))


def test_histogram_equals_multihot_column_sums(rng):
    names = ["A", "B", "C", "D", "Unknown"]
    vocab = SyscallVocabulary(("A", "B", "C", "D"))
    for _ in range(100):
        trace = _random_trace(rng, names)
        hist = encode_histogram([trace], vocab, normalize=False)[0]
        multi = encode_multihot(trace, vocab)
        assert np.array_equal(hist, multi.counts.sum(axis=0))
        assert multi.counts.sum() == len(trace)


def test_truncated_encodings_count_min_n(rng):
    vocab = SyscallVocabulary(("A", "B"))
    for _ in range(50):
        trace = _random_trace(rng, ["A", "B"], max_events=40)
        n = int(rng.integers(1, 50))
        hist = encode_histogram([trace], vocab, normalize=False, truncation=n)[0]
        assert hist.sum() == min(n, len(trace))
        multi = encode_multihot(trace, vocab, n)
        oracle = encode_multihot(make_trace(list(trace.events)[:n]), vocab)
        assert np.array_equal(multi.counts, oracle.counts)
        assert np.array_equal(multi.time_steps, oracle.time_steps)


def test_corpus_file_round_trip(tmp_path):
    traces = [
        make_trace([(0, "A"), (2, "B")], label="goodware", trace_id="g1", observed_at=1),
        make_trace([], label=None, trace_id="u1", observed_at=2),
        make_trace([(5, "C")], label="malware", trace_id="m1", observed_at=3),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(traces, path)
    back = read_corpus(path)
    assert [trace_to_record(t) for t in back] == [trace_to_record(t) for t in traces]
    # spot-check the wire format
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"id", "label", "observed_at", "events"}
    assert first["events"] == [[0, "A"], [2, "B"]]


# --- columnar events ---------------------------------------------------------

_names = st.text(st.characters(codec="utf-8"), max_size=12)
_pairs = st.lists(st.tuples(st.integers(0, 2**63 - 1), _names), max_size=40).map(
    lambda pairs: tuple(sorted(pairs, key=lambda p: p[0]))
)


@settings(max_examples=200, deadline=None)
@given(_pairs, st.data())
def test_events_behave_like_the_tuple_of_pairs(pairs, data):
    events = make_trace(pairs).events
    n = len(pairs)
    assert len(events) == n
    assert bool(events) == bool(pairs)
    for i in range(-n, n):
        assert events[i] == pairs[i]
        assert type(events[i][0]) is int
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            events[i]
    cut = data.draw(st.slices(n))
    assert isinstance(events[cut], type(events))
    assert tuple(events[cut]) == pairs[cut]
    assert len(events[cut]) == len(pairs[cut])
    assert list(events) == list(pairs)
    assert all(type(step) is int for step, _ in events)


@pytest.mark.parametrize("n", [1, 7, 1000])  # 1000 is past every trace's end
def test_liquid_steps_expression_of_the_benchmark_reads_the_step_column(n):
    """The benchmark counts a length's liquid steps from events the way
    ``bench/workloads.py`` does; it must read what the step column holds."""
    corpus = _generated_traces(5) + [make_trace([])]
    assert sum(t.events[:n][-1][0] + 1 for t in corpus if t.events) == sum(
        int(t.events.steps[:n][-1]) + 1 for t in corpus if t.events.steps.size)


@settings(max_examples=200, deadline=None)
@given(_pairs, st.sampled_from(["goodware", "malware", None]), st.integers(-5, 5))
def test_parse_inverts_trace_to_record(pairs, label, observed_at):
    trace = make_trace(pairs, label=label, observed_at=observed_at)
    record = trace_to_record(trace)
    assert trace_to_record(parse_trace(record)) == record
    assert trace_to_record(parse_trace(json.dumps(record))) == record


# Each message and line number is the one the per-event parser reported.
@pytest.mark.parametrize("events, message", [
    ('[[0, "A"], 5, [1, "B"]]', "event must be [int_ms, str_name] (line 3): 5"),
    ('[[0, "A"], [1, "B", "C"]]', "event must be [int_ms, str_name] (line 3): [1, 'B', 'C']"),
    ('[[0, "A"], [true, "B"]]', "event must be [int_ms, str_name] (line 3): [True, 'B']"),
    ('[[0, "A"], [1.0, "B"]]', "event must be [int_ms, str_name] (line 3): [1.0, 'B']"),
    ('[[0, "A"], [1, 7]]', "event must be [int_ms, str_name] (line 3): [1, 7]"),
    ('[[0, "A"], [-1, "B"]]', "event time_step must be >= 0 (line 3)"),
    ('[[5, "A"], [3, "B"]]', "events must be ordered by non-decreasing time_step (line 3)"),
    ('[[0, "A"], [9223372036854775808, "B"]]',
     "event time_step 9223372036854775808 exceeds int64 (line 3)"),
    # the first malformed event decides the message
    ('[[9223372036854775808, "A"], [1]]',
     "event time_step 9223372036854775808 exceeds int64 (line 3)"),
    ('[[1], [9223372036854775808, "A"]]', "event must be [int_ms, str_name] (line 3): [1]"),
    ('[[5, "A"], [-3, "B"]]', "event time_step must be >= 0 (line 3)"),
    ('[[5, "A"], [3, "B"], [-9223372036854775809, "C"]]',
     "events must be ordered by non-decreasing time_step (line 3)"),
    ('[[-9223372036854775809, "A"]]', "event time_step must be >= 0 (line 3)"),
])
def test_malformed_events_report_their_message_and_line(tmp_path, events, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "ok", "observed_at": 0, "events": [[0, "A"]]}\n\n'
        f'{{"id": "bad", "observed_at": 1, "events": {events}}}\n'
    )
    with pytest.raises(TraceParseError) as info:
        read_corpus(path)
    assert str(info.value) == message


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_lines_that_are_not_utf8_or_json_name_their_line(tmp_path, newline):
    good = b'{"id": "g", "observed_at": 0, "events": [[0, "A"]]}'
    path = tmp_path / "corpus.jsonl"
    for bad, message in ((b'{"id": "m", "observed_at": 1, "events": [[0, "\xe9"]]}',
                          r"invalid UTF-8 \(line 3\): .* in position 46"),
                         (b"{not json", r"invalid JSON \(line 3\)")):
        path.write_bytes(newline.join([good, b"", bad, good]) + newline)
        with pytest.raises(TraceParseError, match=message):
            read_corpus(path)


def test_read_corpus_shares_one_string_per_call_name(tmp_path):
    traces = [make_trace([(0, "NtClose"), (1, "NtOpenKey"), (1, "NtClose")], trace_id=str(i))
              for i in range(3)]
    path = tmp_path / "corpus.jsonl"
    write_corpus(traces, path)
    names = [name for trace in read_corpus(path) for _, name in trace.events]
    assert len({id(name) for name in names}) == 2


def test_parsed_corpus_costs_at_most_32_bytes_an_event(tmp_path):
    """About 12 bytes an event: an int64 step and an int32 code into the
    file's table (a tuple, an int and a string per event took about 150)."""
    rng = np.random.default_rng(7)
    calls = [f"NtQueryInformation{k:02d}" for k in range(40)]
    path = tmp_path / "corpus.jsonl"
    traces = []
    for i in range(100):
        steps = np.sort(rng.integers(0, 5000, size=1000)).tolist()
        picks = rng.integers(0, len(calls), size=1000).tolist()
        traces.append(make_trace(zip(steps, (calls[k] for k in picks)), trace_id=f"t{i}"))
    write_corpus(traces, path)
    del traces
    tracemalloc.start()
    try:
        corpus = read_corpus(path)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    events = sum(len(trace) for trace in corpus)
    assert events == 100_000
    assert retained / events < 32


@settings(max_examples=200, deadline=None)
@given(_pairs.map(lambda pairs: [(step % 50, name) for step, name in pairs]).map(sorted))
def test_encode_multihot_matches_loop_oracle(pairs):
    vocab = SyscallVocabulary(("", "0", "A"))
    matrix = encode_multihot(make_trace(pairs), vocab)
    rows: dict[int, np.ndarray] = {}
    for step, name in pairs:
        rows.setdefault(step, np.zeros(vocab.width, dtype=np.int64))[_loop_index(vocab, name)] += 1
    assert matrix.time_steps.tolist() == sorted(rows)
    assert np.array_equal(matrix.counts.reshape(-1, vocab.width),
                          np.array([rows[s] for s in sorted(rows)]).reshape(-1, vocab.width))
    checked = MultiHotMatrix(matrix.counts, matrix.time_steps)  # holds every invariant
    assert checked.width == vocab.width


# --- codes into a table: writing, reading and encoding ------------------------

# text that JSON must escape, or that looks like the line's own punctuation
_awkward = st.lists(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "é", "☃",
                                     "\U0001d11e", "], [", '"]', "A"]), max_size=6).map("".join)
_any_text = _awkward | st.text(st.characters(codec="utf-8"), max_size=8)
_traces = st.lists(
    st.builds(
        make_trace,
        st.lists(st.tuples(st.integers(0, 2**63 - 1), _any_text), max_size=12).map(
            lambda pairs: sorted(pairs, key=lambda p: p[0])),
        label=st.sampled_from(["goodware", "malware", None]),
        trace_id=_any_text,
        observed_at=st.integers(-2**70, 2**70),
    ),
    max_size=5,
)


def _generated_traces(seed):
    from callsift import datagen

    return datagen.generate_corpus(datagen.make_config(
        seed=seed, goodware_count=2, malware_count=2,
        profiles=datagen.default_profiles(length_min=1, length_max=30)))


@settings(max_examples=150, deadline=None)
@given(_traces, st.integers(0, 3), st.data())
def test_written_lines_are_json_dumps_and_read_back_equal(traces, seed, data):
    generated = _generated_traces(seed)  # all share one table
    traces = data.draw(st.permutations(traces + generated[:data.draw(st.integers(0, 4))]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_corpus(traces, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == [json.dumps(trace_to_record(t), sort_keys=True) for t in traces] + [""]
        assert [trace_to_record(t) for t in read_corpus(path)] == [
            trace_to_record(t) for t in traces]


def _names_histogram(traces, vocab, normalize, truncation):
    """``encode_histogram`` on names: ``indices_of`` on each trace's names."""
    out = np.zeros((len(traces), vocab.width))
    for row, trace in zip(out, traces):
        row[:] = np.bincount(vocab.indices_of(name for _, name in trace.events[:truncation]),
                             minlength=vocab.width)
    if normalize:
        totals = out.sum(axis=1, keepdims=True)
        np.divide(out, totals, out=out, where=totals > 0)
    return out


_calls = st.sampled_from(["NtClose", "NtOpenKey", "NtWriteFile", "Zz", "é"])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.tuples(st.integers(0, 40), _calls), max_size=30).map(sorted),
             min_size=1, max_size=4),
    st.integers(0, 3),
    st.sets(_calls | st.sampled_from(["NtReadFile", "NtOpenFile"]), min_size=1),
    st.booleans(),
    st.none() | st.integers(1, 35),
    st.data(),
)
def test_code_encoders_equal_the_names_reference(pair_lists, seed, vocab_names, normalize,
                                                truncation, data):
    """Traces read from a file (one table) and generated traces (another)
    meet in one call; the vocabulary lacks some of their names."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_corpus([make_trace(pairs, trace_id=str(i)) for i, pairs in enumerate(pair_lists)],
                     path)
        traces = data.draw(st.permutations(read_corpus(path) + _generated_traces(seed)))
    vocab = SyscallVocabulary(tuple(sorted(vocab_names)))
    assert np.array_equal(encode_histogram(traces, vocab, normalize, truncation),
                          _names_histogram(traces, vocab, normalize, truncation))
    for trace in traces:
        matrix = encode_multihot(trace, vocab, truncation)
        rows = {}
        for step, name in list(trace.events)[:truncation]:
            rows.setdefault(step, np.zeros(vocab.width, dtype=np.int64))[
                vocab.indices_of([name])[0]] += 1
        assert matrix.time_steps.tolist() == sorted(rows)
        assert np.array_equal(matrix.counts.reshape(-1, vocab.width),
                              np.array([rows[s] for s in sorted(rows)]).reshape(-1, vocab.width))
    names = {name for trace in traces for _, name in trace.events}
    assert build_vocabulary(traces).names == tuple(sorted(names))
