"""Seeded synthetic corpus generator.

Stands in for a proprietary gateway/feed corpus: emits labeled, timestamped
system-call traces with controllable class separability, concept drift, and
class skew.  Two kinds of class signal are generated because the learners
in this package exploit different structure:

* frequency signal — the classes draw calls from different multinomial
  profiles, visible to histogram models and accumulating with trace length;
* motif signal — short call subsequences spliced into the stream either as
  a single-time-step burst or spread over distant steps; burst vs spread is
  invisible to histograms but visible to temporal models.

Everything is a pure function of the config: per-trace random streams are
derived from (seed, trace ordinal), so corpora are reproducible even if
traces are generated out of order.  Calls are drawn as codes into one table
per corpus, every profile and motif call sorted by name; each profile's
codes and frequency array are built once per config and kept on it.  A
config's JSON form is the archive codec's (``persistence.encode``/``decode``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .traces import GOODWARE, LABELS, MALWARE, SyscallTrace, TraceEvents

FREQUENCY_SHIFT = "frequency-shift"
MOTIF_SWAP = "motif-swap"
DRIFT_MODES = (FREQUENCY_SHIFT, MOTIF_SWAP)

# sub-stream tags so the per-purpose RNGs cannot collide
_STREAM_TRACE = 1
_STREAM_LABELS = 2


@dataclass(frozen=True)
class Motif:
    """A call subsequence spliced into generated traces.

    ``probability`` applies independently at each anchor; anchors sit every
    ``every`` base events, confined to the first ``window`` events when set.
    ``style`` "burst" puts every call of the motif into one time step;
    "spread" spaces them ``spread_gap`` steps apart.
    """

    calls: tuple[str, ...]
    probability: float
    style: str = "burst"
    every: int = 25
    window: int | None = None
    spread_gap: int = 8

    def __post_init__(self) -> None:
        if not self.calls:
            raise ValueError("motif needs at least one call")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("motif probability must be in [0, 1]")
        if self.style not in ("burst", "spread"):
            raise ValueError("motif style must be 'burst' or 'spread'")
        if self.every < 1:
            raise ValueError("motif anchor spacing must be >= 1")


@dataclass(frozen=True)
class ClassProfile:
    """Generator profile for one class (or one mixture component of it)."""

    call_frequencies: dict[str, float]
    motifs: tuple[Motif, ...] = ()
    length_min: int = 80
    length_max: int = 160
    length_law: str = "uniform"
    burstiness: float = 1.2  # mean calls per occupied-or-not millisecond step

    def __post_init__(self) -> None:
        if self.length_min < 1 or self.length_max < self.length_min:
            raise ValueError("need 1 <= length_min <= length_max")
        if self.length_law not in ("uniform", "loguniform"):
            raise ValueError("length_law must be 'uniform' or 'loguniform'")
        if self.burstiness <= 0:
            raise ValueError("burstiness must be positive")
        total = sum(self.call_frequencies.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("call_frequencies must sum to 1")
        if any(p < 0 for p in self.call_frequencies.values()):
            raise ValueError("call_frequencies must be non-negative")


@dataclass(frozen=True)
class DriftSchedule:
    """How far and in what way class behavior rotates over corpus time."""

    magnitude: float = 0.0
    mode: str = FREQUENCY_SHIFT

    def __post_init__(self) -> None:
        if not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("drift magnitude must be in [0, 1]")
        if self.mode not in DRIFT_MODES:
            raise ValueError(f"drift mode must be one of {DRIFT_MODES}")


class _ProfileCodes(NamedTuple):
    """A profile's calls as codes into its corpus's call table."""

    calls: np.ndarray  # int32 code of each of the profile's calls, sorted by name
    frequencies: np.ndarray  # float64 base frequency of each of those calls
    motifs: tuple[np.ndarray, ...]  # int32 codes of each motif's calls


@dataclass(frozen=True)
class CorpusConfig:
    seed: int
    goodware_count: int
    malware_count: int
    profiles: dict[str, tuple[ClassProfile, ...]]
    drift: DriftSchedule = DriftSchedule()
    timestamp_range: tuple[int, int] | None = None
    # when set, traces are emitted train-block-first so that a temporal cut
    # reproduces exactly these per-class training counts
    train_counts: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.goodware_count < 0 or self.malware_count < 0:
            raise ValueError("class counts must be >= 0")
        for label in LABELS:
            if label not in self.profiles or not self.profiles[label]:
                raise ValueError(f"missing profile for class {label!r}")
        if self.train_counts is not None:
            for label, total in (
                (GOODWARE, self.goodware_count),
                (MALWARE, self.malware_count),
            ):
                want = self.train_counts.get(label, 0)
                if not 0 <= want <= total:
                    raise ValueError("train_counts must fit within class counts")
        n = self.goodware_count + self.malware_count
        if self.timestamp_range is not None:
            lo, hi = self.timestamp_range
            if hi - lo < n:
                raise ValueError(
                    "timestamp_range too narrow for strictly increasing stamps"
                )

    @cached_property
    def _call_codes(self) -> tuple[tuple[str, ...], dict[str, tuple[_ProfileCodes, ...]]]:
        """The corpus's call table (every profile and motif call, sorted) and
        each profile's ``_ProfileCodes``, by label and component; built once
        per config, so once per corpus."""
        profiles = [p for components in self.profiles.values() for p in components]
        table = tuple(sorted({n for p in profiles for n in p.call_frequencies}
                             | {c for p in profiles for m in p.motifs for c in m.calls}))
        code_of = {name: code for code, name in enumerate(table)}

        def codes(names) -> np.ndarray:
            return np.array([code_of[n] for n in names], dtype=np.int32)

        def profile_codes(p: ClassProfile) -> _ProfileCodes:
            names = sorted(p.call_frequencies)
            return _ProfileCodes(codes(names), np.array([p.call_frequencies[n] for n in names]),
                                 tuple(codes(m.calls) for m in p.motifs))

        return table, {label: tuple(map(profile_codes, components))
                       for label, components in self.profiles.items()}


def _normalize_profiles(
    profiles: dict[str, ClassProfile | tuple[ClassProfile, ...] | list],
) -> dict[str, tuple[ClassProfile, ...]]:
    out = {}
    for label, value in profiles.items():
        if isinstance(value, ClassProfile):
            out[label] = (value,)
        else:
            out[label] = tuple(value)
    return out


def make_config(
    seed: int,
    goodware_count: int,
    malware_count: int,
    profiles: dict,
    drift: DriftSchedule | None = None,
    timestamp_range: tuple[int, int] | None = None,
    train_counts: dict[str, int] | None = None,
) -> CorpusConfig:
    return CorpusConfig(
        seed=seed,
        goodware_count=goodware_count,
        malware_count=malware_count,
        profiles=_normalize_profiles(profiles),
        drift=drift or DriftSchedule(),
        timestamp_range=timestamp_range,
        train_counts=train_counts,
    )


def _label_sequence(config: CorpusConfig) -> list[str]:
    """Deterministic label order: seeded shuffle within each block."""

    def block(goodware: int, malware: int, tag: int) -> list[str]:
        labels = [GOODWARE] * goodware + [MALWARE] * malware
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _STREAM_LABELS, tag])
        )
        rng.shuffle(labels)
        return labels

    if config.train_counts is None:
        return block(config.goodware_count, config.malware_count, 0)
    tg = config.train_counts.get(GOODWARE, 0)
    tm = config.train_counts.get(MALWARE, 0)
    return block(tg, tm, 0) + block(
        config.goodware_count - tg, config.malware_count - tm, 1
    )


def drifted_frequencies(base: np.ndarray, u: float, magnitude: float) -> np.ndarray:
    """Linear interpolation from the base profile toward its rotation.

    At corpus-time fraction u in [0, 1] the distribution is
    (1 - u*m) * base + u*m * roll(base, 1): still a distribution for any
    u, m in [0, 1], equal to base at u = 0, and progressively further from
    it as time and magnitude grow.
    """
    w = u * magnitude
    return (1.0 - w) * base + w * np.concatenate((base[-1:], base[:-1]))  # np.roll(base, 1)


def _sample_length(profile: ClassProfile, rng: np.random.Generator) -> int:
    lo, hi = profile.length_min, profile.length_max
    if lo == hi:
        return lo
    if profile.length_law == "uniform":
        return int(rng.integers(lo, hi + 1))
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi + 0.5)))))


def _motif_events(
    motifs: tuple[Motif, ...],
    motif_codes: tuple[np.ndarray, ...],
    base_steps: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps and call codes of the motif events, in the order they are drawn;
    ``motif_codes`` holds the codes of each motif's calls."""
    steps = [np.empty(0, dtype=np.int64)]
    calls = [np.empty(0, dtype=np.int32)]
    n = base_steps.shape[0]
    for motif, codes in zip(motifs, motif_codes):
        limit = n if motif.window is None else min(motif.window, n)
        anchors = np.arange(0, limit, motif.every)
        starts = base_steps[anchors[rng.random(anchors.size) < motif.probability]]
        gap = 0 if motif.style == "burst" else motif.spread_gap
        steps.append((starts[:, None] + gap * np.arange(len(motif.calls))).ravel())
        calls.append(np.tile(codes, starts.size))
    return np.concatenate(steps), np.concatenate(calls)


def _generate_trace(
    ordinal: int,
    label: str,
    u: float,
    observed_at: int,
    config: CorpusConfig,
) -> SyscallTrace:
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _STREAM_TRACE, ordinal])
    )
    table, codes_by_label = config._call_codes
    components = config.profiles[label]
    component = int(rng.integers(0, len(components)))
    profile, codes = components[component], codes_by_label[label][component]

    motifs, motif_codes = profile.motifs, codes.motifs
    if config.drift.mode == MOTIF_SWAP and config.drift.magnitude > 0:
        if rng.random() < u * config.drift.magnitude:
            other = MALWARE if label == GOODWARE else GOODWARE
            motifs, motif_codes = config.profiles[other][0].motifs, codes_by_label[other][0].motifs

    freqs = codes.frequencies
    if config.drift.mode == FREQUENCY_SHIFT and config.drift.magnitude > 0:
        freqs = drifted_frequencies(freqs, u, config.drift.magnitude)

    length = _sample_length(profile, rng)
    # occupy millisecond steps with Poisson burst sizes until length is met:
    # burst k's events all sit at step k
    sizes = []
    drawn = 0
    while drawn < length:
        chunk = max(16, int((length - drawn) / profile.burstiness) + 8)
        sizes.append(rng.poisson(profile.burstiness, size=chunk))
        drawn += int(sizes[-1].sum())
    sizes = np.concatenate(sizes)
    steps_per_event = np.repeat(np.arange(sizes.size), sizes)[:length]
    calls = rng.choice(freqs.size, size=length, p=freqs)
    motif_steps, motif_calls = _motif_events(motifs, motif_codes, steps_per_event, rng)
    steps = np.concatenate([steps_per_event, motif_steps])
    call_codes = np.concatenate([codes.calls[calls], motif_calls])
    # stable: the base events, then the motif events as drawn, keep their
    # order within a step
    order = np.argsort(steps, kind="stable")
    return SyscallTrace(
        id=f"t{ordinal:06d}",
        label=label,
        observed_at=observed_at,
        events=TraceEvents(steps[order], call_codes[order], table),
    )


def generate_corpus(config: CorpusConfig) -> list[SyscallTrace]:
    """Emit exactly the configured per-class counts, observed_at strictly
    increasing, fully determined by the config."""
    labels = _label_sequence(config)
    n = len(labels)
    if config.timestamp_range is not None:
        lo, hi = config.timestamp_range
        stamps = np.linspace(lo, hi - 1, num=n).round().astype(np.int64)
        # guarantee strict monotonicity after rounding
        stamps = np.maximum(stamps, lo + np.arange(n))
    else:
        stamps = np.arange(n, dtype=np.int64)
    traces = []
    for i, label in enumerate(labels):
        u = i / (n - 1) if n > 1 else 0.0
        traces.append(_generate_trace(i, label, u, int(stamps[i]), config))
    return traces


# --- Known split shapes -----------------------------------------------------

SORTED_SHAPE = {
    "train": {GOODWARE: 13265, MALWARE: 9092},
    "test": {GOODWARE: 3220, MALWARE: 2044},
}
DISTRIBUTED_SHAPE = {
    "train": {GOODWARE: 11757, MALWARE: 11091},
    "test": {GOODWARE: 4728, MALWARE: 45},
}
_SHAPES = {"sorted": SORTED_SHAPE, "distributed": DISTRIBUTED_SHAPE}


def scale_count(count: int, scale: float) -> int:
    """Down-scale a split count: floor, but never below one sample."""
    return max(1, int(count * scale))


def table1_shape(
    shape: str,
    scale: float = 1.0,
    seed: int = 7,
    profiles: dict | None = None,
    drift: DriftSchedule | None = None,
) -> CorpusConfig:
    """Corpus config whose temporal split reproduces a known split shape.

    ``shape`` is "sorted" (roughly balanced test classes) or "distributed"
    (operationally skewed test malware).  ``scale`` shrinks every split
    count (floor, minimum 1) for fast tests.
    """
    if shape not in _SHAPES:
        raise ValueError(f"unknown shape {shape!r}; expected one of {sorted(_SHAPES)}")
    counts = _SHAPES[shape]
    train_g = scale_count(counts["train"][GOODWARE], scale)
    train_m = scale_count(counts["train"][MALWARE], scale)
    test_g = scale_count(counts["test"][GOODWARE], scale)
    test_m = scale_count(counts["test"][MALWARE], scale)
    return make_config(
        seed=seed,
        goodware_count=train_g + test_g,
        malware_count=train_m + test_m,
        profiles=profiles or default_profiles(),
        drift=drift,
        train_counts={GOODWARE: train_g, MALWARE: train_m},
    )


# --- Profile presets ---------------------------------------------------------

_GOODWARE_LEANING = (
    "NtClose", "NtCreateFile", "NtOpenKey", "NtQueryAttributesFile",
    "NtQueryInformationFile", "NtQueryInformationProcess",
    "NtQueryInformationToken", "NtQueryValueKey", "NtReadFile",
    "NtSetInformationFile",
)
_MALWARE_LEANING = (
    "NtAllocateVirtualMemory", "NtFreeVirtualMemory", "NtFsControlFile",
    "NtMapViewOfSection", "NtOpenSection", "NtQuerySection",
    "NtQuerySystemInformation", "NtRequestWaitReplyPort",
)
_NEUTRAL = (
    "NtCreateEvent", "NtCreateSection", "NtCreateSymbolicLinkObject",
    "NtDuplicateObject", "NtOpenFile", "NtWriteFile",
)
CALL_UNIVERSE = tuple(sorted(_GOODWARE_LEANING + _MALWARE_LEANING + _NEUTRAL))


def _weighted_frequencies(
    high: tuple[str, ...], low: tuple[str, ...], high_w: float, low_w: float
) -> dict[str, float]:
    weights = {}
    for name in CALL_UNIVERSE:
        if name in high:
            weights[name] = high_w
        elif name in low:
            weights[name] = low_w
        else:
            weights[name] = 1.0
    total = sum(weights.values())
    return {name: w / total for name, w in weights.items()}


def default_profiles(
    separation: float = 4.0,
    length_min: int = 80,
    length_max: int = 160,
    burstiness: float = 1.2,
) -> dict[str, tuple[ClassProfile, ...]]:
    """Strongly frequency-separated goodware/malware profiles.

    ``separation`` is the frequency ratio between each class's leaning
    calls and the other class's; 1.0 makes the classes identical.
    """
    good = ClassProfile(
        call_frequencies=_weighted_frequencies(
            _GOODWARE_LEANING, _MALWARE_LEANING, separation, 1.0
        ),
        length_min=length_min,
        length_max=length_max,
        burstiness=burstiness,
    )
    mal = ClassProfile(
        call_frequencies=_weighted_frequencies(
            _MALWARE_LEANING, _GOODWARE_LEANING, separation, 1.0
        ),
        length_min=length_min,
        length_max=length_max,
        burstiness=burstiness,
    )
    return {GOODWARE: (good,), MALWARE: (mal,)}


def accumulating_profiles() -> dict[str, tuple[ClassProfile, ...]]:
    """Weak per-call frequency deltas plus a histogram-neutral count motif.

    The small separation (1.3) makes short histograms noisy and long ones
    informative: frequency evidence accumulates with trace length (1,050 to
    1,400 base events at burstiness 1.0), so histogram models improve as
    the truncation grows.  Independently, both classes splice in the same
    groups of 6 extra NtDuplicateObject calls, at every 16th base event
    with probability 0.9, invisible to histograms at every truncation; but
    malware packs each group into a single time step (a count spike that
    drives liquid neurons over threshold) while goodware spreads the same
    calls 6 steps apart.  Temporal models see that contrast within the
    first hundred calls, so their accuracy saturates early and stays flat
    as the truncation grows.
    """
    motif_calls = ("NtDuplicateObject",) * 6
    mal_motif = Motif(calls=motif_calls, probability=0.9, style="burst", every=16)
    good_motif = Motif(calls=motif_calls, probability=0.9, style="spread",
                       every=16, spread_gap=6)
    shared = dict(length_min=1050, length_max=1400, burstiness=1.0)
    good = ClassProfile(
        call_frequencies=_weighted_frequencies(_GOODWARE_LEANING, _MALWARE_LEANING, 1.3, 1.0),
        motifs=(good_motif,), **shared)
    mal = ClassProfile(
        call_frequencies=_weighted_frequencies(_MALWARE_LEANING, _GOODWARE_LEANING, 1.3, 1.0),
        motifs=(mal_motif,), **shared)
    return {GOODWARE: (good,), MALWARE: (mal,)}


def bimodal_malware_profiles() -> dict[str, tuple[ClassProfile, ...]]:
    """Goodware sits between two malware modes on the leaning calls.

    One malware family over-uses memory-mapping calls 5 times as often as
    file-control calls, the other the reverse; goodware uses both
    moderately (sqrt(5) times the rest).  No single hyperplane on those
    frequencies separates the classes, while axis-aligned splits do — the
    shape that favors trees over a linear model.  Traces hold 80 to 160
    events.
    """
    separation = 5.0
    mem = ("NtAllocateVirtualMemory", "NtFreeVirtualMemory", "NtMapViewOfSection")
    fsc = ("NtFsControlFile", "NtOpenSection", "NtRequestWaitReplyPort")
    good = ClassProfile(
        call_frequencies=_weighted_frequencies(mem + fsc, (), math.sqrt(separation), 1.0),
    )
    mal_a = ClassProfile(call_frequencies=_weighted_frequencies(mem, fsc, separation, 1.0))
    mal_b = ClassProfile(call_frequencies=_weighted_frequencies(fsc, mem, separation, 1.0))
    return {GOODWARE: (good,), MALWARE: (mal_a, mal_b)}
