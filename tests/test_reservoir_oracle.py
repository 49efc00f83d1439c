"""The liquid simulation against the dense, one-call-per-row reference.

``reference_simulate_liquid`` is the straightforward clock-driven loop the
current ``simulate_liquid`` replaced, kept verbatim as an oracle only: a
dense ``(horizon, neurons)`` injected-current matrix filled one row product
at a time, and per step a ``np.where`` update, boolean-index resets and a
refractory countdown.  The current code must reproduce its spike counts and
membrane potentials exactly.

``reference_build_liquid`` is the knob-driven wiring that ``build_liquid``'s
constants fixed: at its defaults it must give ``build_liquid``'s liquid bit
for bit, and the randomized cases draw liquids of other shapes from it.  The
LIF dynamics are fixed too, so every case runs ``LifParams()``.  The window
count is the constant ``LIQUID_WINDOWS``; a case of another count patches it
for its ``simulate_liquid`` calls and hands the count to the reference.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callsift import datagen
from callsift import reservoir as rv
from callsift.traces import MultiHotMatrix, build_vocabulary, encode_multihot

# --- reference implementation -------------------------------------------------


def reference_build_liquid(
    input_channels,
    seed,
    neuron_count=135,
    input_fanout_fraction=0.3,
    input_weight_low=0.2,
    input_weight_high=0.5,
    recurrent=True,
    recurrent_sparsity=0.1,
    excitatory_fraction=0.8,
    spectral_radius=0.9,
):
    n = neuron_count
    fanout = max(1, int(input_fanout_fraction * n))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    w_in = np.zeros((input_channels, n))
    for ch in range(input_channels):
        targets = rng.choice(n, size=fanout, replace=False)
        w_in[ch, targets] = rng.uniform(input_weight_low, input_weight_high, size=fanout)
    w_rec = np.zeros((n, n))
    if recurrent and recurrent_sparsity > 0 and n >= 2:
        mask = rng.random((n, n)) < recurrent_sparsity
        np.fill_diagonal(mask, False)
        weights = rng.uniform(0.1, 1.0, size=(n, n))
        sign = np.where(rng.random(n) < excitatory_fraction, 1.0, -1.0)
        w_rec = mask * weights * sign[np.newaxis, :]
        radius = float(np.max(np.abs(np.linalg.eigvals(w_rec))))
        if radius > 0:
            w_rec *= spectral_radius / radius
    return rv.LiquidTopology(
        neuron_count=n, input_weights=w_in, recurrent_weights=w_rec, seed=seed
    )


def reference_simulate_liquid(topology, lif, input_matrix, windows=4, record=False):
    n = topology.neuron_count
    occupied = np.flatnonzero(input_matrix.counts.sum(axis=1) > 0)
    if occupied.size == 0:
        return np.zeros((windows, n)), (np.zeros((0, n)) if record else None)
    last_step = int(input_matrix.time_steps[occupied[-1]])
    horizon = int(last_step // lif.simulation_step) + 1

    # dense per-step injected current
    current = np.zeros((horizon, n))
    sim_steps = (input_matrix.time_steps // lif.simulation_step).astype(np.int64)
    for row, t in enumerate(sim_steps):
        if 0 <= t < horizon:
            current[t] += input_matrix.counts[row] @ topology.input_weights

    decay = math.exp(-lif.simulation_step / lif.membrane_time_constant)
    v = np.full(n, lif.reset_potential)
    refractory = np.zeros(n, dtype=np.int64)
    prev_spikes = np.zeros(n)
    spike_counts = np.zeros((windows, n))
    potentials = np.zeros((horizon, n)) if record else None
    w_rec_t = topology.recurrent_weights  # [post, pre]
    for t in range(horizon):
        active = refractory == 0
        v = np.where(active, v * decay + current[t] + w_rec_t @ prev_spikes, lif.reset_potential)
        spikes = active & (v >= lif.threshold)
        v[spikes] = lif.reset_potential
        refractory[~active] -= 1
        refractory[spikes] = lif.refractory_period
        prev_spikes = spikes.astype(np.float64)
        spike_counts[t * windows // horizon] += prev_spikes
        if record:
            potentials[t] = v
    return spike_counts, potentials


def assert_matches_reference(topology, lif, m, windows):
    want, want_pots = reference_simulate_liquid(topology, lif, m, windows, record=True)
    # a context, not the fixture: Hypothesis rejects function-scoped fixtures
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rv, "LIQUID_WINDOWS", windows)
        got, got_pots = rv.simulate_liquid(topology, lif, m, record=True)
        assert np.array_equal(got, want)
        assert np.array_equal(got_pots, want_pots)
        assert np.array_equal(rv.simulate_liquid(topology, lif, m)[0], want)


# --- fixed wiring ---------------------------------------------------------------


@pytest.mark.parametrize("channels", [1, 2, 25, 26, 40])
@pytest.mark.parametrize("seed", [0, 4, 13])
def test_fixed_wiring_matches_reference_defaults(channels, seed):
    got = rv.build_liquid(channels, seed)
    want = reference_build_liquid(channels, seed)
    assert got.neuron_count == want.neuron_count == rv.NEURON_COUNT
    assert got.seed == seed
    assert np.array_equal(got.input_weights, want.input_weights)
    assert np.array_equal(got.recurrent_weights, want.recurrent_weights)


# --- randomized cases -----------------------------------------------------------


@st.composite
def liquids(draw):
    n = draw(st.integers(1, 24))
    recurrent = n >= 2 and draw(st.booleans())
    wiring = dict(
        input_channels=draw(st.integers(1, 5)),
        neuron_count=n,
        input_fanout_fraction=draw(st.floats(0.05, 1.0)),
        input_weight_low=0.1,
        input_weight_high=draw(st.floats(0.2, 1.6)),
        recurrent=recurrent,
        recurrent_sparsity=draw(st.floats(0.0, 1.0)) if recurrent else 0.1,
        excitatory_fraction=draw(st.floats(0.0, 1.0)),
        spectral_radius=draw(st.floats(0.1, 1.5)),
    )
    return reference_build_liquid(seed=draw(st.integers(0, 2**16)), **wiring), rv.LifParams()


@st.composite
def inputs(draw, width, max_rows=30, gaps=st.integers(1, 6), first=st.integers(0, 4)):
    rows = draw(st.integers(0, max_rows))
    gaps = draw(st.lists(gaps, min_size=rows, max_size=rows))
    steps = np.cumsum(np.array(gaps, dtype=np.int64)) - 1 + draw(first)
    counts = np.array(
        draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width),
                      min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, width)
    if rows and draw(st.booleans()):
        counts[draw(st.integers(0, rows - 1)):] = 0  # all-zero tail rows
    return MultiHotMatrix(counts=counts, time_steps=steps)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_simulation_matches_reference(data):
    topology, lif = data.draw(liquids())
    m = data.draw(inputs(topology.input_channels))
    windows = data.draw(st.integers(1, 40))  # often more windows than steps
    assert_matches_reference(topology, lif, m, windows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quiet_runs_match_reference(data):
    # gaps of 16 steps or more without input are where the simulation
    # decays the liquid a chunk at a time and skips what no longer changes
    topology, lif = data.draw(liquids())
    long_gaps = st.integers(1, 6) | st.integers(rv.QUIET_RUN_MIN, 3000)
    m = data.draw(inputs(topology.input_channels, max_rows=6, gaps=long_gaps,
                         first=st.integers(0, 4) | st.integers(16, 3000)))
    assert_matches_reference(topology, lif, m, data.draw(st.integers(1, 8)))


def test_negative_rows_are_ignored_like_the_reference():
    topology = reference_build_liquid(input_channels=3, seed=5, neuron_count=12)
    counts = np.array([[3, 1, 0], [2, 2, 2], [0, 3, 1], [1, 0, 3]], dtype=np.int64)
    m = MultiHotMatrix(counts=counts, time_steps=np.array([-4, -1, 0, 5], dtype=np.int64))
    assert_matches_reference(topology, rv.LifParams(), m, windows=3)
    # nothing at or after step 0: the reference fails on a negative horizon
    early = MultiHotMatrix(counts=counts[:2], time_steps=np.array([-4, -1], dtype=np.int64))
    features, potentials = rv.simulate_liquid(topology, rv.LifParams(), early, record=True)
    assert not features.any() and potentials.shape == (0, 12)


def test_empty_and_all_zero_inputs():
    topology = reference_build_liquid(input_channels=4, seed=1, neuron_count=9)
    lif = rv.LifParams()
    empty = MultiHotMatrix(np.zeros((0, 4), dtype=np.int64), np.zeros(0, dtype=np.int64))
    zeros = MultiHotMatrix(np.zeros((3, 4), dtype=np.int64), np.array([0, 2, 7]))
    for m in (empty, zeros):
        assert_matches_reference(topology, lif, m, windows=5)


def test_length_1000_corpus_matches_reference():
    config = datagen.make_config(seed=21, goodware_count=4, malware_count=4,
                                 profiles=datagen.accumulating_profiles())
    corpus = datagen.generate_corpus(config)
    vocab = build_vocabulary(corpus)
    topology = rv.build_liquid(vocab.width, seed=0)
    lif = rv.LifParams()
    for trace in corpus:
        m = encode_multihot(trace, vocab, 1000)
        assert m.counts.shape[0] > 100
        assert_matches_reference(topology, lif, m, windows=4)


# --- spike history chunks -------------------------------------------------------
# The spike history holds HISTORY_CHUNK steps; its counts go into the windows
# at each window boundary, when it fills and before each quiet run, and its
# last 3 rows carry over into the next chunk.


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_many_history_chunks_match_reference(data):
    # a chunk of a few steps makes every horizon span many of them
    topology, lif = data.draw(liquids())
    gaps = st.integers(1, 6) | st.integers(rv.QUIET_RUN_MIN, 60)
    m = data.draw(inputs(topology.input_channels, gaps=gaps))
    windows = data.draw(st.integers(1, 40))
    with mock.patch.object(rv, "HISTORY_CHUNK", data.draw(st.integers(1, 12))):
        assert_matches_reference(topology, lif, m, windows)


@pytest.mark.parametrize("case", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("windows", [1, 3, 7, 40])
def test_horizons_longer_than_the_history_chunk_match_reference(case, windows):
    rng = np.random.default_rng(case * 100 + windows)
    rows = 300
    # mostly busy steps, with gaps of 16 to 40 steps between bursts
    gaps = np.where(rng.random(rows) < 0.1, rng.integers(16, 41, rows), rng.integers(1, 4, rows))
    m = MultiHotMatrix(counts=rng.integers(0, 3, size=(rows, 5)), time_steps=np.cumsum(gaps))
    assert m.time_steps[-1] > 2 * rv.HISTORY_CHUNK
    topology = reference_build_liquid(input_channels=5, seed=windows, neuron_count=40)
    assert_matches_reference(topology, rv.LifParams(), m, windows)


# --- memory ---------------------------------------------------------------------


def test_late_event_memory_is_bounded_by_events():
    # the reference allocates a dense (horizon, neurons) current matrix:
    # 50,001 x 135 float64, about 54 MB, for two events
    topology = rv.build_liquid(3, seed=2)
    m = MultiHotMatrix(np.array([[1, 0, 0], [0, 2, 1]], dtype=np.int64),
                       np.array([0, 50_000], dtype=np.int64))
    tracemalloc.start()
    try:
        counts, _ = rv.simulate_liquid(topology, rv.LifParams(), m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert counts.shape == (4, 135)
