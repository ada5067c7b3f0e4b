"""Evolving graph structure learning.

A static per-node representation (extracted once from the training series)
seeds a GRU whose input is a sequence of segment-mean summaries of the
temporal features.  Each GRU state is turned into a directed adjacency
matrix by a pairwise scorer with a sigmoid mask, so a feature sequence of
M segments yields M graphs that evolve smoothly in time.

A layer's pipeline is a fixed number of ops whatever its segment count M:
the M segment means of the node-major (B, N, T, C) features are one op
(none when d = 1), the GRU over them is one (:func:`tensor.gru_sequence`,
which reads the (B, N, M, C) means and returns its M states as one
(B, M, N, C_e) tensor), and the states are scored, gated and
row-normalized in one more, so a layer's graphs come out as one
(B, M, N, N) tensor; ``EvolvingGraphSequence.matrices`` holds its
per-segment slices as views.

The scorer is two two-layer ReLU perceptrons (edge and mask) over the pair
input α_i ‖ α_j, and one op, :func:`tensor.pairwise_graph`, runs exactly
these two.  Their first layer splits as W = [W_L; W_R], so its
pre-activation is the outer sum α_i W_L + α_j W_R + b: one (C_e, 2H) GEMM
per side serves both heads, and the (B, N², 2·C_e) pair tensor is never
built.  The graph is A = relu(s_e) ⊙ σ(s_m), and propagation reads its
row-normalized form Ā = A / r, so the normalization happens in the same
op, once per graph, which returns Ā and the row sums r.  Its record keeps
only Ā and r (beside the GRU states it reads); the (B, N, N, 2H) hidden
layer, both scores and A are rebuilt one block of graphs at a time in its
backward pass.  A itself, Ā ⊙ r, is formed only for inspection and export.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import write_atomic, write_csv_atomic
from .errors import ContractError
from .nn import Linear, ParamStore, TanhConv1d
from .tensor import Tensor


@dataclass
class SegmentSpec:
    """M mean-pooled segments of [0, T), as (start, stop) boundaries.

    :meth:`for_length` partitions [0, T) into segments of width d:
    segments 1..M−1 have exactly d steps; the remainder (if any) is folded
    into the last segment, so its length is in [d, 2d).
    """

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
            return cls([(0, t)])
        m = t // d
        return cls([(i * d, (i + 1) * d) for i in range(m - 1)] + [((m - 1) * d, t)])

    @property
    def m(self) -> int:
        return len(self.boundaries)

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

    Two strided causal convolutions, each followed by tanh, global average
    pooling over time, and one affine projection; parameters are shared
    across nodes and trained end-to-end with the rest of the model.

    The convolutions, their tanh and the pooling are one
    :func:`tensor.static_features` record, which keeps only its parents (the
    series and the four convolution parameters) and recomputes both
    convolution outputs, a chunk of nodes at a time, in its backward pass;
    the projection keeps only its (N, C_s) output.
    """

    KERNEL = 8
    STRIDE = 4

    def __init__(self, store: ParamStore, name: str, c_in: int, c_s: int,
                 c_hidden: int = 16):
        self.conv1 = TanhConv1d(store, f"{name}.conv1", c_in, c_hidden, self.KERNEL)
        self.conv2 = TanhConv1d(store, f"{name}.conv2", c_hidden, c_hidden, self.KERNEL)
        self.proj = Linear(store, f"{name}.proj", c_hidden, c_s)

    @classmethod
    def min_length(cls) -> int:
        # two valid strided convolutions of width KERNEL
        return (cls.KERNEL - 1) * cls.STRIDE + cls.KERNEL

    def __call__(self, series: Tensor) -> Tensor:
        """series: (N, T*, C) → α_s: (N, C_s); a series shorter than
        :meth:`min_length` raises :class:`SequenceTooShortError`."""
        c1, c2 = self.conv1, self.conv2
        pooled = T.static_features(series, c1.kernel, c1.bias, c2.kernel, c2.bias,
                                   self.STRIDE)  # (N, C_hidden)
        return self.proj(pooled)


@dataclass
class EvolvingGraphSequence:
    """M row-normalized nonnegative adjacency matrices, one per segment.

    ``adjacency`` is the (B, M, N, N) stack Ā that propagation reads, each
    row of a graph A divided by its sum (an all-zero row stays zero);
    ``matrices[m]`` is its (B, N, N) slice for segment m, a view on the
    tape (an unused one costs nothing in backward).  ``row_sums`` holds r,
    (B, M, N, 1), a plain array off the tape, so the graphs as learned are
    A = Ā ⊙ r (:meth:`unnormalized`), which inspection and export write.
    ``spec`` records which time range each matrix governs.
    """

    adjacency: Tensor
    row_sums: np.ndarray
    spec: SegmentSpec
    matrices: list[Tensor] = field(init=False)

    def __post_init__(self) -> None:
        self.matrices = [T.select(self.adjacency, 1, m) for m in range(self.adjacency.shape[1])]

    def unnormalized(self) -> np.ndarray:
        """A = Ā ⊙ r, the (B, M, N, N) graphs before row normalization."""
        return self.adjacency.data * self.row_sums


class Egl:
    """Evolving graph learner: params for one (layer's) graph source.

    The segment interval d is supplied per call, so one parameter set can
    serve several scales.  Pair scoring, gating and row normalization are
    one fused op (:func:`tensor.pairwise_graph`): the edge and mask
    perceptrons (``{name}.edge.fc1``/``fc2`` and ``{name}.mask.fc1``/``fc2``,
    plain affine maps over 2·C_e pair features) run as an outer sum of
    per-node projections, and their hidden layer and scores are recomputed
    in backward.
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

    def derive_adjacency(self, alpha: Tensor) -> tuple[Tensor, np.ndarray]:
        """Score every ordered node pair from (..., N, C_e) embeddings.

        Returns Ā, the row-normalized A = relu(s_e) ⊙ σ(s_m), (..., N, N),
        and A's row sums r, (..., N, 1): one record that keeps Ā and r.
        """
        return T.pairwise_graph(alpha, self.heads)

    def evolve(self, xi: Tensor, alpha_s: Tensor, d: int) -> EvolvingGraphSequence:
        """Full pipeline: segment means → initial state → GRU over the
        segments → per-segment graphs.

        xi: (B, N, T, C_in) → M graphs as one (B, M, N, N) stack.
        """
        if self.gru is None:
            raise ContractError("this learner was built without a GRU (static only)")
        spec = SegmentSpec.for_length(xi.shape[2], d)
        # (B, N, M, C_in); when d = 1 each segment is one step
        gammas = xi if spec.m == xi.shape[2] else T.segment_mean(xi, spec.boundaries)
        alpha = T.broadcast_leading(self.init_hidden(alpha_s), xi.shape[0])
        g = self.gru
        states = T.gru_sequence(gammas, alpha, g.w_r, g.w_u, g.w_o, g.b_r, g.b_u, g.b_o)
        return EvolvingGraphSequence(*self.derive_adjacency(states), spec)

    def static_sequence(self, alpha_s: Tensor, t: int, batch: int) -> EvolvingGraphSequence:
        """One graph from the initial (static) embeddings covering [0, t)."""
        alpha = T.broadcast_leading(self.init_hidden(alpha_s), batch)
        spec = SegmentSpec([(0, t)])
        alpha = T.reshape(alpha, alpha.shape[:1] + (1,) + alpha.shape[1:])  # (B, 1, N, C_e)
        return EvolvingGraphSequence(*self.derive_adjacency(alpha), spec)


def export_graphs(seq: EvolvingGraphSequence, out_dir, layer: int,
                  time_offset: int = 0) -> list[Path]:
    """Write the first sample's graphs A, unnormalized, one CSV per segment,
    plus an index JSON with time ranges."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    written = []
    for m, (mat, (start, stop)) in enumerate(
        zip(seq.unnormalized()[0], seq.spec.boundaries), start=1
    ):
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
