"""Synthetic first-order vector-autoregressive data with regime-switching
coupling, used as a ground-truth oracle for graph recovery experiments.

x_t = A(regime(t)) · x_{t−1} + trend(t) + ε_t.  Every regime matrix is
nonnegative with spectral radius < 1, so the process is stable within each
regime and the literal coupling matrix is the graph a structure learner
should recover.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TimeSeriesDataset, write_atomic, write_csv_atomic
from .errors import ConfigurationError, DimensionError
from .graph_learner import EvolvingGraphSequence

Array = np.ndarray


def spectral_radius(a: Array) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@dataclass
class RegimeSpec:
    """Ordered regimes: per-regime duration and coupling matrix."""

    durations: list[int]
    matrices: list[Array]
    noise: float = 0.1
    trend_amplitude: float | Array = 0.0
    trend_period: int | None = None

    def __post_init__(self):
        self.matrices = [np.asarray(m, dtype=np.float64) for m in self.matrices]
        if len(self.durations) != len(self.matrices) or not self.durations:
            raise ConfigurationError(
                f"{len(self.durations)} durations for {len(self.matrices)} matrices"
            )
        if any(d <= 0 for d in self.durations):
            raise ConfigurationError(f"durations must be positive: {self.durations}")
        n = self.matrices[0].shape[0]
        for i, m in enumerate(self.matrices):
            if m.shape != (n, n):
                raise DimensionError(f"regime {i} matrix has shape {m.shape}")
            if np.any(m < 0):
                raise ConfigurationError(f"regime {i} matrix has negative entries")
            rho = spectral_radius(m)
            if rho >= 1.0:
                raise ConfigurationError(
                    f"regime {i} coupling is unstable: spectral radius {rho:.4f} ≥ 1"
                )
        if self.noise < 0:
            raise ConfigurationError(f"noise must be ≥ 0, got {self.noise}")

    @property
    def n_nodes(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def total_steps(self) -> int:
        return sum(self.durations)


@dataclass
class GroundTruth:
    """Regime timeline: [start, end) ranges paired with coupling matrices."""

    boundaries: list[tuple[int, int]]
    matrices: list[Array]

    def regime_at(self, t: int) -> int:
        for i, (s, e) in enumerate(self.boundaries):
            if s <= t < e:
                return i
        raise ValueError(f"time {t} outside [0, {self.boundaries[-1][1]})")

    def majority_regime(self, start: int, stop: int) -> int:
        overlaps = [
            max(0, min(stop, e) - max(start, s))
            for s, e in self.boundaries
        ]
        return int(np.argmax(overlaps))

    def save(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        index = []
        for i, ((s, e), m) in enumerate(zip(self.boundaries, self.matrices)):
            fname = f"regime{i}.csv"
            write_csv_atomic(out_dir / fname, ([repr(float(v)) for v in row] for row in m))
            index.append({"start": s, "end": e, "matrix_file": fname})
        return write_atomic(out_dir / "timeline.json", json.dumps(index, indent=2))

    @classmethod
    def load(cls, out_dir) -> "GroundTruth":
        out_dir = Path(out_dir)
        index = json.loads((out_dir / "timeline.json").read_text())
        boundaries = [(it["start"], it["end"]) for it in index]
        matrices = [
            np.loadtxt(out_dir / it["matrix_file"], delimiter=",", ndmin=2)
            for it in index
        ]
        return cls(boundaries, matrices)


def generate(spec: RegimeSpec, n: int, t: int, seed: int,
             name: str = "synthetic") -> tuple[TimeSeriesDataset, GroundTruth]:
    """Simulate the regime-switching VAR; deterministic per seed."""
    if spec.n_nodes != n:
        raise DimensionError(f"spec has {spec.n_nodes} nodes, expected {n}")
    if spec.total_steps != t:
        raise ConfigurationError(
            f"regime durations sum to {spec.total_steps}, expected T={t}"
        )
    rng = np.random.default_rng(seed)
    amp = np.broadcast_to(np.asarray(spec.trend_amplitude, dtype=np.float64), (n,))
    period = spec.trend_period or t
    # evenly spaced phases keep the per-node trends linearly independent, so
    # no common mode builds up through the coupling
    phase = 2.0 * math.pi * np.arange(n) / n

    boundaries = []
    start = 0
    for d in spec.durations:
        boundaries.append((start, start + d))
        start += d
    truth = GroundTruth(boundaries, [m.copy() for m in spec.matrices])

    x = np.zeros((t, n))
    state = rng.normal(scale=spec.noise if spec.noise > 0 else 1e-3, size=n)
    for step in range(t):
        a = spec.matrices[truth.regime_at(step)]
        trend = amp * np.sin(2.0 * math.pi * step / period + phase)
        eps = rng.normal(scale=spec.noise, size=n) if spec.noise > 0 else 0.0
        state = a @ state + trend + eps
        x[step] = state
    values = x.T[:, :, None]  # (N, T, 1)
    dataset = TimeSeriesDataset(
        values, [f"node{i}" for i in range(n)], granularity="step", name=name
    )
    return dataset, truth


def cluster_coupling(n: int, hub: int, members, strength: float = 0.9,
                     self_loop: float = 0.9) -> Array:
    """Star over a subset of nodes: ``members`` follow ``hub``, which follows
    itself; every other node is left uncoupled (pure noise).

    Member series inherit the hub's variance through the coupling while
    outside nodes keep only the innovation variance, so which nodes belong to
    the active cluster is visible in per-window amplitudes — a signature that
    moves when the cluster moves.  Spectral radius equals ``self_loop``.
    """
    if not 0 <= hub < n:
        raise ConfigurationError(f"cluster hub {hub} outside 0..{n - 1}")
    members = [int(m) for m in members]
    if any(not 0 <= m < n for m in members):
        raise ConfigurationError(f"cluster members {members} outside 0..{n - 1}")
    a = np.zeros((n, n))
    for m in members:
        if m != hub:
            a[m, hub] = strength
    a[hub, hub] = self_loop
    return a


def two_regime_benchmark(n: int = 8, t: int = 2000, noise: float = 0.1,
                         strength: float = 0.9, self_loop: float = 0.9,
                         idle_self_loop: float = 0.7,
                         switch: int | None = None,
                         trend_amplitude: float | Array | None = None,
                         trend_period: int | None = 100) -> RegimeSpec:
    """Two mirrored cluster regimes: first half of the node set, then second.

    Regime 1 couples nodes ``0..n//2−1`` to hub 0 while the other half run
    independent AR(1) processes; regime 2 mirrors this onto the second half
    with hub ``n//2``.  The active cluster rides its hub — louder (the hub's
    memory is stronger than an idle node's) and internally correlated — so
    the regime is readable inside any single window, and the rule that reads
    it ("the co-moving nodes are the coupled ones") transfers across the
    switch instead of memorizing node identities.  Because idle nodes still
    carry substantial independent signal, propagating a stale edge into them
    injects uncorrelated values and costs real accuracy: a learner is pushed
    to move its graph when the data moves, not to keep one graph per regime
    around forever.

    The switch defaults to 30% of the series so that a 60% training split
    sees both regimes in equal measure, leaving later validation/test splits
    entirely in the second regime.
    """
    if n < 2:
        raise ConfigurationError(f"need at least 2 nodes, got {n}")
    if switch is None:
        switch = (3 * t) // 10
    if not 0 < switch < t:
        raise ConfigurationError(f"switch {switch} outside 1..{t - 1}")
    half = n // 2
    first = cluster_coupling(n, 0, range(half), strength, self_loop)
    second = cluster_coupling(n, half, range(half, n), strength, self_loop)
    for i in range(half, n):
        first[i, i] = idle_self_loop
    for i in range(half):
        second[i, i] = idle_self_loop
    return RegimeSpec(
        durations=[switch, t - switch],
        matrices=[first, second],
        noise=noise,
        trend_amplitude=0.0 if trend_amplitude is None else trend_amplitude,
        trend_period=trend_period,
    )


@dataclass
class RecoveryScore:
    """Alignment of learned graphs against the ground-truth regimes.

    ``alignments[m, r]`` is the Pearson correlation between the off-diagonal
    entries of learned graph m and regime r's coupling matrix (0 when the
    learned matrix is degenerate, flagged in ``degenerate``).
    """

    alignments: Array                 # (M, R)
    time_ranges: list[tuple[int, int]]
    majority: list[int]               # active regime per learned segment
    degenerate: list[bool]
    flip_segment: int | None = None   # first segment whose best regime differs


def _offdiag(a: Array) -> Array:
    n = a.shape[0]
    return a[~np.eye(n, dtype=bool)]


def score_recovery(graphs: EvolvingGraphSequence, truth: GroundTruth,
                   time_offset: int = 0) -> RecoveryScore:
    """Correlate each learned segment graph A, as learned (before row
    normalization) and the first sample's, with every regime's matrix."""
    n_regimes = len(truth.matrices)
    true_off = [_offdiag(m) for m in truth.matrices]
    alignments = np.zeros((graphs.spec.m, n_regimes))
    majority, degenerate, ranges = [], [], []
    for m, (mat, (start, stop)) in enumerate(
        zip(graphs.unnormalized()[0], graphs.spec.boundaries)
    ):
        learned = _offdiag(mat)
        spread = float(np.ptp(learned))
        dead = spread <= 1e-12 * max(1.0, float(np.abs(learned).max()))
        degenerate.append(bool(dead))
        for r in range(n_regimes):
            if dead or np.ptp(true_off[r]) == 0.0:
                alignments[m, r] = 0.0
            else:
                alignments[m, r] = float(np.corrcoef(learned, true_off[r])[0, 1])
        lo, hi = start + time_offset, stop + time_offset
        ranges.append((lo, hi))
        majority.append(truth.majority_regime(lo, hi))
    flip = None
    if len(majority) > 1:
        best = np.argmax(alignments, axis=1)
        for m in range(1, len(best)):
            if best[m] != best[0]:
                flip = m
                break
    return RecoveryScore(alignments, ranges, majority, degenerate, flip)
