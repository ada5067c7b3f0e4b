"""Evolving graph structure learning.

A static per-node representation (extracted once from the training series)
seeds a GRU whose input is a sequence of segment-mean summaries of the
temporal features.  Each GRU state is turned into a directed adjacency
matrix by a pairwise scorer with a sigmoid mask, so a feature sequence of
M segments yields M graphs that evolve smoothly in time.

A layer's pipeline is a fixed number of ops whatever its segment count M:
the M segment means are one op (none when d = 1), the GRU over them is one
(:func:`tensor.gru_sequence`, which returns its M states as one
(B, M, N, C_e) tensor), and the states are scored in one call, so a
layer's graphs come out as one (B, M, N, N) tensor;
``EvolvingGraphSequence.matrices`` holds its per-segment slices as views.

The scorer is two two-layer ReLU perceptrons (edge and mask) over the pair
input α_i ‖ α_j.  Their first layer splits as W = [W_L; W_R], so its
pre-activation is the outer sum α_i W_L + α_j W_R + b: one (C_e, 2H) GEMM
per side serves both heads, and the (B, N², 2·C_e) pair tensor is never
built.  The fused op (:func:`tensor.pairwise_mlp`) recomputes the
(B, N, N, 2H) hidden layer in its backward pass instead of keeping it on
the tape, so a graph retains only its (B, N, N) outputs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import write_atomic, write_csv_atomic
from .errors import ContractError, SequenceTooShortError
from .nn import Conv1d, Linear, ParamStore
from .tensor import Tensor


@dataclass
class SegmentSpec:
    """Partition of [0, T) into M mean-pooled segments of width d.

    Segments 1..M−1 have exactly d steps; the remainder (if any) is folded
    into the last segment, so its length is in [d, 2d).
    """

    d: int
    m: int
    boundaries: list[tuple[int, int]]

    @classmethod
    def for_length(cls, t: int, d: int) -> "SegmentSpec":
        if d < 1:
            raise ContractError(f"segment interval must be ≥ 1, got {d}")
        if t < d:
            warnings.warn(
                f"T={t} shorter than segment interval d={d}; using one segment",
                stacklevel=2,
            )
            return cls(d=d, m=1, boundaries=[(0, t)])
        m = t // d
        boundaries = [(i * d, (i + 1) * d) for i in range(m - 1)]
        boundaries.append(((m - 1) * d, t))
        return cls(d=d, m=m, boundaries=boundaries)

    @property
    def length(self) -> int:
        return self.boundaries[-1][1]


class GruCell:
    """The GRU's parameters; :func:`tensor.gru_sequence` runs it over the
    segments of a layer."""

    def __init__(self, store: ParamStore, name: str, c_in: int, c_hidden: int):
        d = c_in + c_hidden
        self.w_r = store.new(f"{name}.w_r", (d, c_hidden), fan_in=d)
        self.w_u = store.new(f"{name}.w_u", (d, c_hidden), fan_in=d)
        self.w_o = store.new(f"{name}.w_o", (d, c_hidden), fan_in=d)
        self.b_r = store.new(f"{name}.b_r", (c_hidden,), fan_in=d)
        self.b_u = store.new(f"{name}.b_u", (c_hidden,), fan_in=d)
        self.b_o = store.new(f"{name}.b_o", (c_hidden,), fan_in=d)


class StaticFeatureExtractor:
    """Per-node summary of the whole training series → N×C_s representation.

    Two strided causal convolutions, global average pooling over time, and
    one affine projection; parameters are shared across nodes and trained
    end-to-end with the rest of the model.
    """

    KERNEL = 8
    STRIDE = 4

    def __init__(self, store: ParamStore, name: str, c_in: int, c_s: int,
                 c_hidden: int = 16):
        self.conv1 = Conv1d(store, f"{name}.conv1", c_in, c_hidden,
                            self.KERNEL, stride=self.STRIDE)
        self.conv2 = Conv1d(store, f"{name}.conv2", c_hidden, c_hidden,
                            self.KERNEL, stride=self.STRIDE)
        self.proj = Linear(store, f"{name}.proj", c_hidden, c_s)

    @classmethod
    def min_length(cls) -> int:
        # two valid strided convolutions of width KERNEL
        return (cls.KERNEL - 1) * cls.STRIDE + cls.KERNEL

    def __call__(self, series: Tensor) -> Tensor:
        """series: (N, C, T*) → α_s: (N, C_s)."""
        if series.shape[-1] < self.min_length():
            raise SequenceTooShortError(
                f"static extractor needs ≥ {self.min_length()} training steps, "
                f"got {series.shape[-1]}"
            )
        h = T.transpose(series, (0, 2, 1))  # (N, T*, C): time on axis 1
        h = T.tanh(self.conv1(h))
        h = T.tanh(self.conv2(h))
        pooled = T.reduce_mean(h, axis=1)  # (N, C_hidden)
        return self.proj(pooled)


@dataclass
class EvolvingGraphSequence:
    """M nonnegative adjacency matrices, one per segment.

    ``adjacency`` is the (B, M, N, N) stack; ``matrices[m]`` is its (B, N, N)
    slice for segment m, a view on the tape (an unused one costs nothing in
    backward).  ``spec`` records which time range each matrix governs.
    """

    adjacency: Tensor
    matrices: list[Tensor]
    spec: SegmentSpec

    @classmethod
    def from_stack(cls, adjacency: Tensor, spec: SegmentSpec) -> "EvolvingGraphSequence":
        matrices = [T.select(adjacency, 1, m) for m in range(adjacency.shape[1])]
        return cls(adjacency, matrices, spec)


class Egl:
    """Evolving graph learner: params for one (layer's) graph source.

    The segment interval d is supplied per call, so one parameter set can
    serve several scales.  Pair scoring is one fused op: the edge and mask
    perceptrons (``{name}.edge.fc1``/``fc2`` and ``{name}.mask.fc1``/``fc2``,
    plain affine maps over 2·C_e pair features) run as an outer sum of
    per-node projections, and their hidden layer is recomputed in backward.
    """

    def __init__(self, store: ParamStore, name: str, c_in: int, c_e: int,
                 c_s: int, with_gru: bool = True):
        self.c_e = c_e
        self.init_proj = Linear(store, f"{name}.init", c_s, c_e)
        self.gru = GruCell(store, f"{name}.gru", c_in, c_e) if with_gru else None
        self.edge_fc1 = Linear(store, f"{name}.edge.fc1", 2 * c_e, c_e)
        self.edge_fc2 = Linear(store, f"{name}.edge.fc2", c_e, 1)
        # the final ReLU can permanently kill a score that wanders below
        # zero, so start the scorer almost flat and safely positive: a tiny
        # output coupling keeps embedding drift from railing scores while
        # the embeddings are still forming, and deliberate per-edge pressure
        # can still prune weak connections later (the ReLU's actual job)
        self.edge_fc2.w.data *= 0.05
        self.edge_fc2.b.data = np.ones_like(self.edge_fc2.b.data)
        self.mask_fc1 = Linear(store, f"{name}.mask.fc1", 2 * c_e, c_e)
        self.mask_fc2 = Linear(store, f"{name}.mask.fc2", c_e, 1)
        # bias the sigmoid mask low: early edge differentiation then happens
        # on the smooth mask path, where a wrong guess is always recoverable
        self.mask_fc2.b.data -= 2.0
        self.heads = [(fc1.w, fc1.b, fc2.w, fc2.b) for fc1, fc2 in
                      ((self.edge_fc1, self.edge_fc2), (self.mask_fc1, self.mask_fc2))]

    def init_hidden(self, alpha_s: Tensor) -> Tensor:
        """α⁰ = tanh(affine(α_s)) — the GRU's initial state."""
        return T.tanh(self.init_proj(alpha_s))

    def derive_adjacency(self, alpha: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Score every ordered node pair from (..., N, C_e) embeddings.

        Returns (A, Â, mask logits), each (..., N, N): Â from a ReLU-capped
        scorer, A = Â ⊙ σ(mask).
        """
        scores = T.pairwise_mlp(alpha, self.heads)  # (..., N, N, 2)
        a_hat = T.relu(T.select(scores, -1, 0))
        mask = T.select(scores, -1, 1)
        a = T.mul(a_hat, T.sigmoid(mask))
        return a, a_hat, mask

    def evolve(self, xi: Tensor, alpha_s: Tensor, d: int) -> EvolvingGraphSequence:
        """Full pipeline: segment means → initial state → GRU over the
        segments → per-segment graphs.

        xi: (B, T, N, C_in) → M graphs as one (B, M, N, N) stack.
        """
        if self.gru is None:
            raise ContractError("this learner was built without a GRU (static only)")
        spec = SegmentSpec.for_length(xi.shape[1], d)
        # (B, M, N, C_in); when d = 1 each segment is one step
        gammas = xi if spec.m == xi.shape[1] else T.segment_mean(xi, spec.boundaries)
        alpha = self.init_hidden(alpha_s)
        if alpha.ndim == 2:
            alpha = T.broadcast_leading(alpha, xi.shape[0])
        g = self.gru
        states = T.gru_sequence(gammas, alpha, g.w_r, g.w_u, g.w_o, g.b_r, g.b_u, g.b_o)
        a, _, _ = self.derive_adjacency(states)
        return EvolvingGraphSequence.from_stack(a, spec)

    def static_sequence(self, alpha_s: Tensor, t: int, batch: int) -> EvolvingGraphSequence:
        """One graph from the initial (static) embeddings covering [0, t)."""
        alpha = self.init_hidden(alpha_s)
        if alpha.ndim == 2:
            alpha = T.broadcast_leading(alpha, batch)
        a, _, _ = self.derive_adjacency(T.stack([alpha], axis=1))
        spec = SegmentSpec(d=t, m=1, boundaries=[(0, t)])
        return EvolvingGraphSequence.from_stack(a, spec)


def export_graphs(seq: EvolvingGraphSequence, out_dir, layer: int,
                  time_offset: int = 0) -> list[Path]:
    """Write each adjacency (the first sample's, for batched graphs) as CSV
    plus an index JSON with time ranges."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    written = []
    for m, (tensor, (start, stop)) in enumerate(
        zip(seq.matrices, seq.spec.boundaries), start=1
    ):
        mat = tensor.data[0] if tensor.ndim == 3 else tensor.data
        fname = f"layer{layer}_segment{m}.csv"
        written.append(write_csv_atomic(
            out_dir / fname, ([repr(float(v)) for v in row] for row in mat)))
        index.append({
            "layer": layer,
            "segment": m,
            "time_range": [start + time_offset, stop + time_offset],
            "file": fname,
        })
    written.append(write_atomic(out_dir / f"layer{layer}_index.json",
                                json.dumps(index, indent=2)))
    return written
