import dataclasses
import math
import pickle
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from callsift import datagen
from callsift import reservoir as rv
from callsift.models import LsmClassifier
from callsift.traces import (
    MultiHotMatrix, SyscallVocabulary, build_vocabulary, encode_multihot, labels_of,
)
from conftest import make_trace


def multihot(counts, steps):
    return MultiHotMatrix(
        np.asarray(counts, dtype=np.int64), np.asarray(steps, dtype=np.int64)
    )


def single_neuron_topology(weight):
    return rv.LiquidTopology(
        neuron_count=1,
        input_weights=np.array([[weight]]),
        recurrent_weights=np.zeros((1, 1)),
        seed=0,
    )


# --- construction -----------------------------------------------------------


def test_default_liquid_structure():
    topo = rv.build_liquid(25, seed=1)
    assert topo.neuron_count == 135
    fanouts = (topo.input_weights != 0).sum(axis=1)
    assert (fanouts == 40).all() and fanouts.size == 25  # floor(0.3 * 135)
    assert np.diagonal(topo.recurrent_weights).sum() == 0.0


def test_build_liquid_deterministic_bit_equal():
    a = rv.build_liquid(10, seed=9)
    b = rv.build_liquid(10, seed=9)
    assert np.array_equal(a.input_weights, b.input_weights)
    assert np.array_equal(a.recurrent_weights, b.recurrent_weights)
    c = rv.build_liquid(10, seed=10)
    assert not np.array_equal(a.input_weights, c.input_weights)


def test_spectral_radius_bounded():
    topo = rv.build_liquid(8, seed=3)
    radius = np.max(np.abs(np.linalg.eigvals(topo.recurrent_weights)))
    assert radius <= 0.9 + 1e-9


def test_excitatory_inhibitory_split():
    topo = rv.build_liquid(4, seed=5)
    col_sign = np.sign(topo.recurrent_weights).sum(axis=0)
    # a presynaptic neuron is all-excitatory or all-inhibitory
    nonzero_cols = np.abs(topo.recurrent_weights).sum(axis=0) > 0
    for j in np.flatnonzero(nonzero_cols):
        signs = np.sign(topo.recurrent_weights[topo.recurrent_weights[:, j] != 0, j])
        assert len(set(signs.tolist())) == 1


# --- dynamics ----------------------------------------------------------------


def test_zero_input_zero_state():
    topo = rv.build_liquid(6, seed=2)
    lif = rv.LifParams()
    empty = multihot(np.zeros((0, 6)), [])
    assert not rv.simulate_liquid(topo, lif, empty)[0].any()
    zeros = multihot(np.zeros((4, 6)), [0, 3, 5, 9])
    assert not rv.simulate_liquid(topo, lif, zeros)[0].any()


def test_single_pulse_closed_form(monkeypatch):
    lif = rv.LifParams()  # tau 30, threshold 1.0, reset 0.0, refractory 2, dt 1
    monkeypatch.setattr(rv, "LIQUID_WINDOWS", 1)
    # injected current = weight * count; spikes iff it reaches threshold - reset
    above = single_neuron_topology(0.6)
    counts, _ = rv.simulate_liquid(above, lif, multihot([[2]], [5]))
    assert counts.sum() == 1.0  # 1.2 >= 1.0: exactly one spike
    below = single_neuron_topology(0.6)
    counts, _ = rv.simulate_liquid(below, lif, multihot([[1]], [5]))
    assert counts.sum() == 0.0  # 0.6 < 1.0: no spike
    boundary = single_neuron_topology(0.5)
    counts, _ = rv.simulate_liquid(boundary, lif, multihot([[2]], [5]))
    assert counts.sum() == 1.0  # exactly at threshold spikes


def test_subthreshold_decay_matches_exponential(monkeypatch):
    lif = rv.LifParams()
    monkeypatch.setattr(rv, "LIQUID_WINDOWS", 1)
    topo = single_neuron_topology(0.5)
    m = multihot([[1]], [0])  # 0.5 current at t=0, then free decay
    _, pots = rv.simulate_liquid(topo, lif, m, record=True)
    assert pots[0, 0] == pytest.approx(0.5)
    # two subthreshold pulses 10 steps apart: the first decays exponentially
    m3 = multihot([[1], [1]], [0, 10])
    _, pots3 = rv.simulate_liquid(topo, lif, m3, record=True)
    expected = 0.5 * math.exp(-10 / 30) + 0.5
    assert pots3[10, 0] == pytest.approx(expected, rel=1e-12)


def test_identical_runs_identical_states():
    topo = rv.build_liquid(5, seed=7)
    lif = rv.LifParams()
    rng = np.random.default_rng(0)
    m = multihot(rng.integers(0, 3, size=(20, 5)), np.arange(0, 40, 2))
    a, _ = rv.simulate_liquid(topo, lif, m)
    b, _ = rv.simulate_liquid(topo, lif, m)
    assert np.array_equal(a, b)


def test_zero_padded_input_same_state():
    topo = rv.build_liquid(5, seed=8)
    lif = rv.LifParams()
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 3, size=(15, 5))
    counts[0] += 1  # ensure some activity
    steps = np.sort(rng.choice(60, size=15, replace=False))
    base = multihot(counts, steps)
    padded = multihot(
        np.vstack([counts, np.zeros((4, 5), dtype=int)]),
        np.concatenate([steps, steps[-1] + np.array([5, 10, 20, 40])]),
    )
    assert np.array_equal(
        rv.simulate_liquid(topo, lif, base)[0],
        rv.simulate_liquid(topo, lif, padded)[0],
    )


def test_membrane_never_at_or_above_threshold_after_step(monkeypatch):
    topo = rv.build_liquid(6, seed=4)
    lif = rv.LifParams()
    monkeypatch.setattr(rv, "LIQUID_WINDOWS", 2)
    rng = np.random.default_rng(3)
    m = multihot(rng.integers(0, 4, size=(50, 6)), np.arange(50))
    _, pots = rv.simulate_liquid(topo, lif, m, record=True)
    assert (pots < lif.threshold).all()


def test_spike_count_capped_by_refractory_period(monkeypatch):
    lif = rv.LifParams(refractory_period=2)
    monkeypatch.setattr(rv, "LIQUID_WINDOWS", 1)
    topo = single_neuron_topology(5.0)  # every input spikes
    steps = np.arange(60)
    m = multihot(np.ones((60, 1)), steps)
    counts, _ = rv.simulate_liquid(topo, lif, m)
    # spikes at steps 0, 3, 6, ...: one spike, then r silent steps
    assert counts.sum() == math.ceil(60 / (lif.refractory_period + 1))


def test_a_late_event_costs_no_step_per_quiet_millisecond():
    topo = rv.build_liquid(3, seed=2)
    lif = rv.LifParams()
    counts = np.array([[2, 1, 0], [0, 2, 1]])
    near = rv.simulate_liquid(topo, lif, multihot(counts, [0, 10**5]))[0]
    # the last int64 step is simulated as it stands, with no float rounding
    for last in (10**8, 2**63 - 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            far = rv.simulate_liquid(topo, lif, multihot(counts, [0, last]))[0]
        assert time.perf_counter() - start < 1.0
        # both gaps decay the liquid to the same fixed point before the last event
        assert far.any() and np.array_equal(far, near)


def test_window_partition_sums_match_total(monkeypatch):
    topo = rv.build_liquid(4, seed=6)
    lif = rv.LifParams()
    rng = np.random.default_rng(5)
    m = multihot(rng.integers(0, 4, size=(40, 4)), np.arange(40))
    w4 = rv.simulate_liquid(topo, lif, m)[0]
    assert w4.shape == (rv.LIQUID_WINDOWS, topo.neuron_count) == (4, 135)
    monkeypatch.setattr(rv, "LIQUID_WINDOWS", 1)
    w1 = rv.simulate_liquid(topo, lif, m)[0].reshape(-1)
    assert np.array_equal(w4.sum(axis=0), w1)


def test_separation_of_distinct_inputs():
    topo = rv.build_liquid(8, seed=11)
    lif = rv.LifParams()
    rng = np.random.default_rng(9)
    collisions = 0
    trials = 200
    for _ in range(trials):
        a = rng.integers(0, 3, size=(30, 8))
        b = a.copy()
        flip = rng.random(a.shape) < 0.25  # differ in >= 20% of entries
        b[flip] = (b[flip] + 1 + rng.integers(0, 2, size=int(flip.sum()))) % 4
        if (a != b).mean() < 0.2:
            continue
        steps = np.arange(30)
        sa = rv.simulate_liquid(topo, lif, multihot(a, steps))[0]
        sb = rv.simulate_liquid(topo, lif, multihot(b, steps))[0]
        if np.array_equal(sa, sb):
            collisions += 1
    assert collisions / trials <= 0.01


def test_liquid_states_stacks_flattened_spike_counts(monkeypatch):
    topo = rv.build_liquid(4, seed=3)
    rng = np.random.default_rng(4)
    inputs = [multihot(rng.integers(0, 3, size=(n, 4)), np.arange(n)) for n in (0, 5, 20)]
    monkeypatch.setattr(rv, "LIQUID_WINDOWS", 3)
    states = rv.liquid_states(topo, iter(inputs))
    assert states.shape == (3, topo.neuron_count * 3)
    for row, m in zip(states, inputs):
        assert np.array_equal(row, rv.simulate_liquid(topo, rv.LifParams(), m)[0].reshape(-1))


def test_record_is_keyword_only():
    # a stale positional window count must fail, not switch recording on
    topo = rv.build_liquid(2, seed=1)
    m = multihot([[1, 2]], [6])
    with pytest.raises(TypeError):
        rv.simulate_liquid(topo, rv.LifParams(), m, 4)
    counts, pots = rv.simulate_liquid(topo, rv.LifParams(), m, record=True)
    assert counts.shape == (4, topo.neuron_count) and pots.shape == (7, topo.neuron_count)


def test_liquid_topology_refuses_weights_of_another_neuron_count():
    topo = rv.build_liquid(3, seed=1)
    for n in (134, 200_000):
        with pytest.raises(ValueError, match=rf"^a liquid of neuron_count {n} needs "):
            rv.LiquidTopology(n, topo.input_weights, topo.recurrent_weights, seed=1)
    with pytest.raises(ValueError, match="neuron_count 135"):
        rv.LiquidTopology(135, topo.input_weights[0], topo.recurrent_weights, seed=1)
    with pytest.raises(ValueError, match="neuron_count 135"):
        rv.LiquidTopology(135, topo.input_weights, topo.recurrent_weights[:, :3], seed=1)


def test_lsm_model_refuses_another_window_count():
    topo = rv.build_liquid(2, seed=1)
    assert rv.LsmModel(topo, readout=None).windows == rv.LIQUID_WINDOWS == 4
    for windows in (1, 5, 100):
        with pytest.raises(ValueError, match=rf"^LsmModel\.windows is fixed at 4, got {windows}$"):
            rv.LsmModel(topo, readout=None, windows=windows)


def test_channel_mismatch_rejected():
    topo = rv.build_liquid(5, seed=1)
    with pytest.raises(ValueError, match="channels"):
        rv.simulate_liquid(topo, rv.LifParams(), multihot(np.ones((2, 4)), [0, 1]))


def test_lif_params_validation():
    # every field is fixed at its module constant; any other value is refused
    # by name
    off = dict(membrane_time_constant=12.0, threshold=0.6, reset_potential=-0.5,
               refractory_period=1, simulation_step=2.0)
    assert list(off) == [f.name for f in dataclasses.fields(rv.LifParams)]
    for name, value in off.items():
        with pytest.raises(ValueError, match=rf"^LifParams\.{name} is fixed at "):
            rv.LifParams(**{name: value})


# --- readout ------------------------------------------------------------------


def separable_states(rng, n=60, d=12, gap=3.0):
    X = np.vstack([
        rng.normal(0, 1, size=(n // 2, d)) + gap,
        rng.normal(0, 1, size=(n // 2, d)) - gap,
    ])
    y = np.array([1] * (n // 2) + [0] * (n // 2))
    return X, y


def test_readout_linear_separable_accuracy_one(rng):
    X, y = separable_states(rng)
    readout = rv.train_readout(X, y, folds=10, seed=2)
    pred = (readout.predict_scores(X) >= 0.5).astype(int)
    assert (pred == y).all()


def test_readout_grid_minimum_and_log(rng, monkeypatch):
    X, y = separable_states(rng, gap=0.4)
    grid = (1e-4, 1e-2, 1.0)
    monkeypatch.setattr(rv, "READOUT_L2_GRID", grid)
    readout = rv.train_readout(X, y, folds=5, seed=3)
    assert [point for point, _ in readout.search_log] == [{"l2": l2} for l2 in grid]
    # brute-force oracle: rerun every grid point's CV loss independently
    recomputed = []
    for l2 in grid:
        monkeypatch.setattr(rv, "READOUT_L2_GRID", (l2,))
        again = rv.train_readout(X, y, folds=5, seed=3)
        recomputed.append(again.search_log[0][1])
    assert [loss for _, loss in readout.search_log] == recomputed
    best = min(range(len(grid)), key=lambda i: recomputed[i])
    # ties resolve to first in grid order
    first_min = next(i for i in range(len(grid)) if recomputed[i] == recomputed[best])
    assert readout.hyperparams == {"l2": grid[first_min]}
    losses = [loss for _, loss in readout.search_log]
    assert min(losses) == readout.search_log[[p for p, _ in readout.search_log].index(readout.hyperparams)][1]


def test_readout_never_selects_dominated_point(rng):
    X, y = separable_states(rng, gap=0.3)
    readout = rv.train_readout(X, y, folds=5, seed=4)
    chosen_loss = dict(
        (tuple(sorted(p.items())), l) for p, l in readout.search_log
    )[tuple(sorted(readout.hyperparams.items()))]
    assert all(chosen_loss <= l for _, l in readout.search_log)


def test_readout_refuses_labels_outside_zero_and_one(rng):
    X = rng.normal(size=(20, 4))
    for y in ([0, 2] * 10, [0, 1, -1, 1] * 5):
        with pytest.raises(ValueError, match=r"^labels must be 0 \(goodware\) or 1 \(malware\)$"):
            rv.train_readout(X, np.array(y), folds=5)


def test_readout_rejects_single_class_and_small_folds(rng):
    X = rng.normal(size=(20, 4))
    with pytest.raises(ValueError, match="both classes"):
        rv.train_readout(X, np.ones(20, dtype=int), folds=5)
    y = np.array([1] * 15 + [0] * 5)
    with pytest.raises(ValueError, match="per class"):
        rv.train_readout(X, y, folds=10)
    with pytest.raises(ValueError, match="folds"):
        rv.train_readout(X, y, folds=1)


def test_readout_default_folds_is_ten(rng):
    import inspect

    assert inspect.signature(rv.train_readout).parameters["folds"].default == 10


def test_readout_folds_and_seed_are_keyword_only():
    import inspect

    params = inspect.signature(rv.train_readout).parameters
    assert list(params) == ["states", "labels", "folds", "seed"]
    assert [p.kind for p in params.values()] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2 + [
        inspect.Parameter.KEYWORD_ONLY] * 2


def test_a_repeated_readout_search_pickles_the_same(rng, monkeypatch):
    X, y = separable_states(rng, n=40, d=6, gap=0.5)
    monkeypatch.setattr(rv, "READOUT_L2_GRID", (1e-4, 1.0))
    pickled = set()  # floats and arrays pickle as their bytes
    for _ in range(3):
        r = rv.train_readout(X, y, folds=5, seed=7)
        pickled.add(pickle.dumps((r.search_log, r.hyperparams, r.model)))
    assert len(pickled) == 1


def test_a_diverging_penalty_raises_linear_training_diverged(rng, monkeypatch):
    X, y = separable_states(rng, n=40, d=6)
    monkeypatch.setattr(rv, "READOUT_L2_GRID", (1e-4, 1e-3, 1e300))
    with pytest.raises(ValueError, match="linear training diverged"):
        rv.train_readout(X, y, folds=5)


# --- stacked CV against the per-fit reference ---------------------------------


def reference_readout_search(states, labels, folds, seed):
    """The per-fit search the stacked CV replaced: every penalty x fold fit is
    its own ``train_linear`` on the samples outside its fold.  Returns
    (search_log, hyperparams, refit model)."""
    X = np.asarray(states, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    Xs = (X - X.mean(axis=0)) / std
    fold_idx = rv._stratified_folds(y, folds, seed)
    log = []
    for l2 in rv.READOUT_L2_GRID:
        losses = []
        for test_idx in fold_idx:
            train_idx = np.setdiff1d(np.arange(y.shape[0]), test_idx)
            model = rv._fit_readout(Xs[train_idx], y[train_idx], l2, seed)
            pred = labels_of(model.predict_scores(Xs[test_idx]))
            losses.append(float((pred != y[test_idx]).mean()))
        log.append(({"l2": l2}, float(np.mean(losses))))
    best = min(log, key=lambda entry: entry[1])[0]
    return log, best, rv._fit_readout(Xs, y, best["l2"], seed)


@pytest.mark.parametrize("seed, length", [(3, 20), (5, 10)])
def test_readout_search_equals_the_per_fit_reference_on_liquid_states(seed, length):
    # short traces of weakly separated classes: the CV losses differ
    # between penalties, so the choice is not a tie-break
    config = datagen.make_config(seed=seed, goodware_count=40, malware_count=40,
                                 profiles=datagen.default_profiles(separation=1.0))
    corpus = datagen.generate_corpus(config)
    vocab = build_vocabulary(corpus)
    topology = rv.build_liquid(vocab.width, seed=0)
    states = rv.liquid_states(topology, (encode_multihot(t, vocab, length) for t in corpus))
    y = np.array([t.label == "malware" for t in corpus], dtype=np.int64)
    readout = rv.train_readout(states, y, folds=5, seed=1)
    log, best, refit = reference_readout_search(states, y, folds=5, seed=1)
    assert len({loss for _, loss in log}) > 1
    assert readout.search_log == log
    assert readout.hyperparams == best
    assert np.array_equal(readout.model.weights, refit.weights)
    assert readout.model.bias == refit.bias


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stacked_cv_weights_are_the_per_fit_weights_up_to_rounding(data):
    folds = data.draw(st.integers(2, 4))
    per_class = data.draw(st.integers(folds, 12))
    d = data.draw(st.integers(1, 10))
    n = 2 * per_class
    X = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=n * d, max_size=n * d)))
    X = X.reshape(n, d)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    Xs = (X - X.mean(axis=0)) / std
    y = np.array(data.draw(st.permutations([0, 1] * per_class)), dtype=np.int64)
    grid = tuple(data.draw(st.lists(st.floats(1e-5, 0.1), min_size=1, max_size=3)))
    seed = data.draw(st.integers(0, 2**16))
    fold_idx = rv._stratified_folds(y, folds, seed)
    W, b = rv._cv_fits(Xs, y, fold_idx, grid, seed)
    assert W.shape == (len(grid) * folds, d) and b.shape == (len(grid) * folds,)
    for i, l2 in enumerate(grid):
        for f, test_idx in enumerate(fold_idx):
            train_idx = np.setdiff1d(np.arange(n), test_idx)
            want = rv._fit_readout(Xs[train_idx], y[train_idx], l2, seed)
            got = np.append(W[i * folds + f], b[i * folds + f])
            ref = np.append(want.weights, want.bias)
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def _fitted_lsm(readout):
    """An LsmClassifier over a default 3-channel liquid with the given readout."""
    clf = LsmClassifier()
    clf.vocab = SyscallVocabulary(("A", "B"))
    topo = rv.build_liquid(clf.vocab.width, seed=0)
    clf.model = rv.LsmModel(topology=topo, readout=readout)
    return clf


def test_lsm_predict_tie_goes_to_malware():
    from callsift.forest import LinearModel, LinearParams

    width = rv.NEURON_COUNT * rv.LIQUID_WINDOWS
    zero = rv.ReadoutModel(
        kind=rv.LINEAR,
        model=LinearModel(weights=np.zeros(width), bias=0.0, params=LinearParams()),
        hyperparams={},
        feature_mean=np.zeros(width),
        feature_std=np.ones(width),
    )
    label, score = _fitted_lsm(zero).predict([make_trace([(0, "A")])])
    assert score[0] == 0.5 and label[0] == 1


def test_lsm_predict_deterministic(monkeypatch):
    width = rv.NEURON_COUNT * rv.LIQUID_WINDOWS
    rng = np.random.default_rng(2)
    states = rng.normal(size=(30, width))
    y = (states[:, 0] > 0).astype(int)
    monkeypatch.setattr(rv, "READOUT_L2_GRID", (1e-3,))
    readout = rv.train_readout(states, y, folds=5, seed=0)
    clf = _fitted_lsm(readout)
    traces = [make_trace([(0, "A"), (0, "B"), (0, "B"), (4, "B"), (4, "C")])]
    a = clf.predict(traces)
    b = clf.predict(traces)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
