"""Liquid state machine: a randomly wired pool of leaky integrate-and-fire
neurons driven by multi-hot call sequences, a windowed spike-count state
extractor, and a grid-searched linear readout.

The liquid is fixed after construction (only the readout trains) and acts
as a temporal kernel: per-time-step call counts inject current into a
random subset of neurons, membrane potentials decay exponentially between
steps, and spikes propagate one step later through sparse signed recurrent
weights.  The state of a trace is the per-neuron spike count in
``LIQUID_WINDOWS`` (4) consecutive windows spanning the occupied part of
the input; ``liquid_states(topology, inputs)`` flattens the states of many
traces into the rows of the matrix the readout trains on and scores.

The window count and the LIF dynamics are module constants, like the wiring;
``LsmModel`` records them in archives (``windows``, ``lif``) and refuses any
other value on load.  Per step of ``SIMULATION_STEP`` (1 ms, one trace step):

    v <- v * exp(-SIMULATION_STEP / MEMBRANE_TIME_CONSTANT)
         + input_current + recurrent_current
    spike where v >= THRESHOLD, then v <- RESET_POTENTIAL and the neuron
    stays silent (clamped at reset, ignoring input) for REFRACTORY_PERIOD
    steps.

The simulation is clock-driven, one trace per call, and its results are
bit-identical to a dense per-step loop (``tests/test_reservoir_oracle.py``
keeps that loop as the reference):

* Input is sparse.  Only occupied rows are injected, each through its own
  vector-matrix product (one stacked ``np.matmul``; a single gemm over all
  rows rounds differently), and each row is its own step, since the rows'
  time steps strictly increase.  Nothing of size horizon x neurons is
  built, so memory grows with the event count, not with the last timestamp.
* Each step updates the state in place in the order
  ``((v * decay) + input) + W_rec @ prev_spikes``, leaving out the input
  term on steps without input.  Every operand is an array (``decay``,
  ``reset`` and ``threshold`` too), and the recurrent term is one
  ``np.dot`` into a preallocated vector.
* Spikes go into a boolean history of at most ``HISTORY_CHUNK`` steps
  after 3 rows carried over from the previous chunk.  Each step writes its
  spikes into its own row, and the neurons that spiked in the 2 rows before
  it are clamped to reset.  A window's spike counts are column sums of the
  history, added at each window boundary, when the history fills and
  before each quiet run, so no step adds into the window.
* Quiet runs cost no step each.  On a step without input whose next input
  is at least ``QUIET_RUN_MIN`` steps away, with no spike in the last 3
  steps, the recurrent term is zero and a step only multiplies ``v`` by
  ``decay``, which cannot bring a potential below the positive threshold
  up to it.  Such steps run up to the next input in chunks of one
  ``np.multiply.accumulate``, and once ``v * decay == v`` the rest of the
  gap is skipped outright.  A long gap therefore costs the chunks that
  decay the liquid to that fixed point, not one step per millisecond.
  Skipping the ``+ 0.0`` recurrent term can leave a potential of -0.0
  where the loop has +0.0; the values are equal.

The readout is logistic regression on standardized states.  Its penalty is
chosen by k-fold CV, and the penalty x fold fits train together in this
process as one stacked problem of two gemms an epoch (``_cv_fits``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .forest import LinearModel, LinearParams, _initial_weights, _sigmoid, train_linear
from .traces import MultiHotMatrix, labels_of


# A run of at least QUIET_RUN_MIN input-free steps with no spike in the last
# 3 steps decays in chunks of at most QUIET_CHUNK steps (bounding the
# buffer).  The spike history holds at most HISTORY_CHUNK steps.
QUIET_RUN_MIN = 16
QUIET_CHUNK = 1024
HISTORY_CHUNK = 256

# The liquid's fixed wiring; only the readout trains.
NEURON_COUNT = 135
INPUT_FANOUT = 40  # neurons each input channel drives: floor(0.3 * NEURON_COUNT)
INPUT_WEIGHT_RANGE = (0.2, 0.5)  # uniform input weights
RECURRENT_SPARSITY = 0.1  # chance of each (post, pre) connection, no self-loops
EXCITATORY_FRACTION = 0.8  # share of presynaptic neurons with positive weights
SPECTRAL_RADIUS = 0.9  # of the recurrent weights, below one
LIQUID_WINDOWS = 4  # time windows a liquid state counts spikes over

# The liquid's fixed LIF dynamics.
MEMBRANE_TIME_CONSTANT = 30.0  # ms
THRESHOLD = 1.0
RESET_POTENTIAL = 0.0  # below THRESHOLD
REFRACTORY_PERIOD = 2  # steps; simulate_liquid's clamp reads the 2 rows before a step
SIMULATION_STEP = 1.0  # ms, matches the trace granularity

# The readout's fixed recipe: CV picks one l2 penalty of the grid.
READOUT_L2_GRID = (1e-4, 1e-3, 1e-2)
READOUT_LEARNING_RATE = 0.3
READOUT_EPOCHS = 300


@dataclass(frozen=True)
class LifParams:
    """The archive's record of the liquid's LIF constants; it holds no other
    values, so a hand-edited archive is refused on load."""

    membrane_time_constant: float = MEMBRANE_TIME_CONSTANT
    threshold: float = THRESHOLD
    reset_potential: float = RESET_POTENTIAL
    refractory_period: int = REFRACTORY_PERIOD
    simulation_step: float = SIMULATION_STEP

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                raise ValueError(
                    f"LifParams.{f.name} is fixed at {f.default!r}, got {value!r}"
                )


@dataclass(eq=False)
class LiquidTopology:
    """Fixed wiring: dense input map and signed sparse recurrent weights."""

    neuron_count: int
    input_weights: np.ndarray  # (channels, neurons), 0 where not wired
    recurrent_weights: np.ndarray  # (neurons, neurons), 0 diagonal
    seed: int

    def __post_init__(self) -> None:
        # an archive can hold any arrays; the simulation sizes its state by neuron_count
        n = self.neuron_count
        if self.input_weights.shape[1:] != (n,) or self.recurrent_weights.shape != (n, n):
            raise ValueError(f"a liquid of neuron_count {n} needs (channels, {n}) input and "
                             f"({n}, {n}) recurrent weights")

    @property
    def input_channels(self) -> int:
        return self.input_weights.shape[0]


def build_liquid(input_channels: int, seed: int = 0) -> LiquidTopology:
    """Wire a liquid of ``NEURON_COUNT`` neurons deterministically from the seed.

    Every input channel drives ``INPUT_FANOUT`` distinct neurons with weights
    drawn uniformly from ``INPUT_WEIGHT_RANGE``.  Recurrent connections are
    sparse with an excitatory/inhibitory sign split and are rescaled to
    ``SPECTRAL_RADIUS`` (keeps the liquid from self-exciting forever).
    """
    n = NEURON_COUNT
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    w_in = np.zeros((input_channels, n))
    for ch in range(input_channels):
        targets = rng.choice(n, size=INPUT_FANOUT, replace=False)
        w_in[ch, targets] = rng.uniform(*INPUT_WEIGHT_RANGE, size=INPUT_FANOUT)
    mask = rng.random((n, n)) < RECURRENT_SPARSITY
    np.fill_diagonal(mask, False)
    weights = rng.uniform(0.1, 1.0, size=(n, n))
    sign = np.where(rng.random(n) < EXCITATORY_FRACTION, 1.0, -1.0)  # per presynaptic neuron
    w_rec = mask * weights * sign[np.newaxis, :]
    w_rec *= SPECTRAL_RADIUS / float(np.max(np.abs(np.linalg.eigvals(w_rec))))
    return LiquidTopology(
        neuron_count=n, input_weights=w_in, recurrent_weights=w_rec, seed=seed
    )


def simulate_liquid(
    topology: LiquidTopology,
    lif: LifParams,
    input_matrix: MultiHotMatrix,
    *,
    record: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the LIF dynamics; returns (spike counts per window, potentials).

    ``lif`` is the model's ``LifParams``, which only ever holds the module
    constants the simulation reads.  Each input row is one simulation step,
    at its time step.  The horizon and window boundaries derive from the
    last *occupied* (nonzero) input row, so appending all-zero rows can
    never change the output.  An input with no occupied rows at or after
    step 0 yields all-zero features.
    ``record`` additionally returns the post-step membrane potential at
    every step (for diagnostics and tests).
    """
    if input_matrix.width != topology.input_channels:
        raise ValueError(
            f"input has {input_matrix.width} channels, liquid expects "
            f"{topology.input_channels}"
        )
    windows = LIQUID_WINDOWS
    n = topology.neuron_count
    counts = input_matrix.counts
    time_steps = input_matrix.time_steps
    # rows before step 0 are never simulated
    occupied = np.flatnonzero((counts.sum(axis=1) > 0) & (time_steps >= 0))
    if occupied.size == 0:
        return np.zeros((windows, n)), (np.zeros((0, n)) if record else None)
    # the steps with input, ascending, then a stop at the horizon
    steps_in = time_steps[occupied].tolist()
    horizon = steps_in[-1] + 1
    steps_in.append(horizon)

    # A stacked product per row rounds as ``counts[row] @ input_weights``
    # does; one gemm over all rows would not.
    injected = np.matmul(
        counts[occupied, None, :].astype(np.float64), topology.input_weights
    )[:, 0, :]

    # every per-step operand is an array: a Python scalar costs each ufunc
    # call a conversion
    decay = np.full(n, math.exp(-SIMULATION_STEP / MEMBRANE_TIME_CONSTANT))
    reset = np.full(n, RESET_POTENTIAL)
    threshold = np.full(n, THRESHOLD)
    # spike history: 3 carried rows (all-False before step 0), then one row
    # per step of the current chunk; the step at row k writes row k, and
    # its silent neurons are the spikers of rows k - 2 and k - 1
    carry = REFRACTORY_PERIOD + 1
    history = np.zeros((carry + min(HISTORY_CHUNK, horizon), n), dtype=bool)
    rows = list(history)
    end = len(rows)
    silent = np.empty(n, dtype=bool)
    v = reset.copy()
    prev_spikes = np.zeros(n)
    recurrent = np.zeros(n)
    spike_counts = np.zeros((windows, n))
    potentials = np.zeros((horizon, n)) if record else None
    w_rec = topology.recurrent_weights  # [post, pre]
    # bound once: the loop would look each one up on every step
    multiply, add, dot, copyto = np.multiply, np.add, np.dot, np.copyto
    greater_equal, logical_or = np.greater_equal, np.logical_or
    t = 0
    i = 0
    next_in = steps_in[0]
    k = start = carry  # the history row of step t; the first row not yet counted
    window = 0
    flush_at = min(-(-horizon // windows), end - k)  # the next window boundary or full chunk
    while t < horizon:
        if next_in - t >= QUIET_RUN_MIN and not history[k - carry : k].any():
            # a quiet run spikes nowhere; count what came before it
            spike_counts[window] += history[start:k].sum(axis=0)
            start = k
            _decay_quietly(v, decay, next_in - t, potentials[t:next_in] if record else None)
            t = next_in
            window = t * windows // horizon
            flush_at = min(-(-(window + 1) * horizon // windows), t + end - k)
        # ((v * decay) + input) + w_rec @ prev_spikes, in that order
        multiply(v, decay, out=v)
        if t == next_in:
            add(v, injected[i], out=v)
            i += 1
            next_in = steps_in[i]
        dot(w_rec, prev_spikes, out=recurrent)
        add(v, recurrent, out=v)
        copyto(v, reset, where=logical_or(rows[k - 2], rows[k - 1], out=silent))
        # silent neurons sit at reset, below threshold, so they cannot spike
        spikes = rows[k]
        greater_equal(v, threshold, out=spikes)
        copyto(v, reset, where=spikes)
        prev_spikes[:] = spikes
        if record:
            potentials[t] = v
        t += 1
        k += 1
        if t == flush_at:
            # the rows since ``start`` all fall in ``window``: spike counts
            # are small integers, so one column sum adds them exactly
            spike_counts[window] += history[start:k].sum(axis=0)
            if k == end:
                history[:carry] = history[k - carry : k]
                k = carry
            start = k
            window = t * windows // horizon
            flush_at = min(-(-(window + 1) * horizon // windows), t + end - k)
    return spike_counts, potentials


def _decay_quietly(
    v: np.ndarray, decay: np.ndarray, steps: int, out: np.ndarray | None
) -> None:
    """Advance ``v`` in place through ``steps`` steps without input and
    without a spike in the last 3 steps.

    Each such step is ``v * decay`` (the recurrent term adds zero), so a
    chunk of them is one ``np.multiply.accumulate``, which rounds step by
    step as the loop does.  No neuron can spike in the run: after a full
    step every potential is below the positive ``THRESHOLD``, and scaling
    by ``decay`` only moves it toward 0.  Once ``v * decay == v`` (zero, or
    a subnormal that rounds back to itself) no further step changes ``v``,
    so the rest are skipped.  ``out`` receives the potentials after each
    step.
    """
    run = np.empty((min(steps, QUIET_CHUNK) + 1, v.shape[0]))
    done = 0
    while done < steps:
        m = min(steps - done, QUIET_CHUNK)
        chunk = run[: m + 1]
        chunk[0] = v
        chunk[1:] = decay
        np.multiply.accumulate(chunk, axis=0, out=chunk)
        if out is not None:
            out[done : done + m] = chunk[1:]
        v[:] = chunk[m]
        done += m
        if np.array_equal(v * decay, v):
            if out is not None:
                out[done:] = v
            return


def liquid_states(topology: LiquidTopology, inputs: Iterable[MultiHotMatrix]) -> np.ndarray:
    """The liquid state of each input, its spike counts in ``LIQUID_WINDOWS``
    windows flattened window-major: one row of an (inputs, neurons * windows) matrix.

    Inputs are consumed one at a time, so a generator of multi-hot matrices
    never holds more than one of them in memory.
    """
    states = [simulate_liquid(topology, LifParams(), m)[0].reshape(-1) for m in inputs]
    return np.array(states).reshape(len(states), topology.neuron_count * LIQUID_WINDOWS)


# --- readout ------------------------------------------------------------------


LINEAR = "linear"


@dataclass(eq=False)
class ReadoutModel:
    """Trained readout plus the feature standardization fitted with it.

    Spike counts scale with the simulated horizon, so the readout always
    standardizes features with the training-set mean and spread before the
    inner model sees them.  ``kind`` is always ``LINEAR``; archives record it.
    """

    kind: str
    model: LinearModel
    hyperparams: dict
    feature_mean: np.ndarray
    feature_std: np.ndarray
    search_log: list[tuple[dict, float]] = field(default_factory=list)

    def _transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.feature_mean) / self.feature_std

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict_scores(self._transform(X))


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded stratified fold assignment; keeps both classes in every fold."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 29]))
    assignment = np.zeros(y.shape[0], dtype=np.int64)
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(members.size)]
        assignment[members] = np.arange(members.size) % folds
    return [np.flatnonzero(assignment == f) for f in range(folds)]


def _fit_readout(X: np.ndarray, y: np.ndarray, l2: float, seed: int) -> LinearModel:
    params = LinearParams(
        learning_rate=READOUT_LEARNING_RATE, epochs=READOUT_EPOCHS, l2=l2, seed=seed
    )
    return train_linear(X, y, params)


def _cv_fits(
    Xs: np.ndarray, y: np.ndarray, fold_idx: list[np.ndarray], grid: tuple[float, ...],
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The weights (k x d) and biases (k) of the k = len(grid) * folds CV
    fits; row ``i * folds + f`` is ``_fit_readout`` of penalty i on the
    samples outside fold f, from the same seeded start.

    The fits train as one problem: an epoch is one gemm for every fit's
    scores and one for every gradient, and a 0/1 mask drops each fit's
    held-out samples from its residual.  They match separate fits up to
    rounding (a gemm sums in another order than a gemv).  Fit-major rows
    make both products faster than d x k columns would.
    """
    n, d = Xs.shape
    folds = len(fold_idx)
    held_in = np.ones((folds, n))
    for f, test_idx in enumerate(fold_idx):
        held_in[f, test_idx] = 0.0
    mask = np.tile(held_in, (len(grid), 1))
    n_train = mask.sum(axis=1, keepdims=True)
    penalty = 2.0 * np.repeat(np.asarray(grid, dtype=np.float64), folds)[:, np.newaxis]
    target = y.astype(np.float64)
    Xs_t = np.ascontiguousarray(Xs.T)
    W = np.tile(_initial_weights(d, seed), (mask.shape[0], 1))
    b = np.zeros((mask.shape[0], 1))
    for _ in range(READOUT_EPOCHS):
        residual = (_sigmoid(W @ Xs_t + b) - target) * mask
        W = W - READOUT_LEARNING_RATE * (residual @ Xs / n_train + penalty * W)
        b = b - READOUT_LEARNING_RATE * (residual.sum(axis=1, keepdims=True) / n_train)
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise ValueError("linear training diverged; lower the learning rate")
    return W, b[:, 0]


def train_readout(
    states: np.ndarray, labels: np.ndarray, *, folds: int = 10, seed: int = 0
) -> ReadoutModel:
    """Pick the ``READOUT_L2_GRID`` penalty with minimal mean CV 0-1 loss,
    refit on all data.

    Ties resolve to the earliest penalty.  Every evaluated ``{"l2": x}`` and
    its loss lands in ``search_log`` so a search can be audited or reproduced.
    The penalty x fold fits train as one stacked problem in this process
    (``_cv_fits``), and each fold is scored from its own fit's weights as a
    ``LinearModel``; the final refit is one ``train_linear``.  The refit can
    depend on the BLAS thread count: its matrix-vector products split their
    sums by thread once the state matrix is large enough, which moves the
    last bits of the weights.
    """
    X = np.asarray(states, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.shape[0] != y.shape[0]:
        raise ValueError("states and labels length mismatch")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (goodware) or 1 (malware)")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("readout training needs both classes present")
    if counts.min() < folds:
        raise ValueError(f"need at least {folds} samples per class for {folds}-fold CV")
    grid = READOUT_L2_GRID
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    Xs = (X - mean) / std
    fold_idx = _stratified_folds(y, folds, seed)
    W, b = _cv_fits(Xs, y, fold_idx, grid, seed)

    def cv_loss(i: int, f: int) -> float:
        params = LinearParams(READOUT_LEARNING_RATE, READOUT_EPOCHS, grid[i], seed)
        j = i * folds + f
        model = LinearModel(weights=W[j], bias=float(b[j]), params=params)
        pred = labels_of(model.predict_scores(Xs[fold_idx[f]]))
        return float((pred != y[fold_idx[f]]).mean())

    log = [({"l2": l2}, float(np.mean([cv_loss(i, f) for f in range(folds)])))
           for i, l2 in enumerate(grid)]
    best = min(log, key=lambda entry: entry[1])[0]  # min keeps the earliest tie
    return ReadoutModel(
        kind=LINEAR,
        model=_fit_readout(Xs, y, best["l2"], seed),
        hyperparams=dict(best),
        feature_mean=mean,
        feature_std=std,
        search_log=log,
    )


# --- end-to-end model ----------------------------------------------------------


@dataclass(eq=False)
class LsmModel:
    """Frozen liquid plus trained readout; the full trace classifier."""

    topology: LiquidTopology
    readout: ReadoutModel
    lif: LifParams = LifParams()
    windows: int = LIQUID_WINDOWS

    def __post_init__(self) -> None:
        if self.windows != LIQUID_WINDOWS:
            raise ValueError(
                f"LsmModel.windows is fixed at {LIQUID_WINDOWS}, got {self.windows!r}"
            )
