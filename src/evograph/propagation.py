"""Mix-hop graph propagation, each time step through its segment's graph.

Each hop mixes a β-weighted retention of the original node states with
neighbour aggregation through the segment's adjacency matrix; hop outputs
are projected and summed.  The adjacency is row-normalized, so the
aggregation is an average rather than a sum.  The graphs arrive already
normalized: the graph learner's :func:`tensor.pairwise_graph` record does
it once per graph, so nothing here normalizes or copies them.

A layer's graphs arrive as one (B, M, N, N) stack, which is checked once.
The features are node-major, (B, N, T, C).  The segments they overlap are
grouped into runs of equal length, and the whole layer is one
:func:`tensor.mixhop` record: each run's steps are viewed, with no copy, as
(B, n, N, d·C), each node's d steps of a segment side by side, so each hop
is one (N × N)(N × d·C) product per graph (for d = 1, one graph per step).
The features end where their graphs end: ξ's T steps are the last T
steps the segments cover.  A longer last segment, or a first one clipped
because ξ starts inside it, is one more run of the same record, written
into its own slice of the one output buffer.  No per-step copy of the
graphs is made, and no part of the output is copied to join the runs.

The record runs all Ψ hops and Ψ + 1 projections and keeps only its
output: the backward pass rebuilds one run's Ψ hop states at a time from
the features and graphs, and frees each at its last use.  The view that
narrows the graphs to the segments in use keeps nothing.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractError
from .graph_learner import EvolvingGraphSequence
from .nn import ParamStore
from .tensor import Tensor


class MixHop:
    """Propagation of depth Ψ with retain ratio β and per-hop projections."""

    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int,
                 psi: int, beta: float):
        if psi < 0:
            raise ConfigurationError(f"propagation depth must be ≥ 0, got {psi}")
        if not 0.0 <= beta <= 1.0:
            raise ConfigurationError(f"retain ratio must be in [0,1], got {beta}")
        self.psi = psi
        self.beta = beta
        self.hop_proj = [
            store.new(f"{name}.w{k}", (c_in, c_out), fan_in=c_in)
            for k in range(psi + 1)
        ]
        # zero-init the propagated hops (residual-branch style): the layer
        # starts as a per-node map, so early random mixing can't pressure the
        # optimizer into railing the ReLU-capped edge scores to zero before
        # the graph has had a chance to become informative
        for proj in self.hop_proj[1:]:
            proj.data *= 0.0

    def propagate(self, xi: Tensor, adj: Tensor, runs: list[tuple[int, int]]) -> Tensor:
        """xi: (B, N, T, C_in) → (B, N, T, C_out) through nonnegative,
        already row-normalized ``adj``, (B, M, N, N).

        ``runs``, (segment count, segment length) pairs, tile ξ's T steps
        and ``adj``'s M graphs in order: each run's steps go through their
        own segments' graphs.  One :func:`tensor.mixhop` record, which
        keeps only its output and parents: the forward holds no hop beyond
        the one in flight, and the backward rebuilds one run's Ψ hop states
        at a time, each the size of the run's ξ, taking each projection's
        gradient as its hop is rebuilt and freeing each hop and hop
        gradient at its last use.
        """
        if np.any(adj.data < 0):
            raise ContractError("adjacency has negative entries")
        return T.mixhop(xi, adj, self.hop_proj, self.beta, runs)

    def apply_per_segment(self, xi: Tensor, graphs: EvolvingGraphSequence) -> Tensor:
        """Propagate each time step through its own segment's row-normalized
        adjacency matrix, ``graphs.adjacency``, as it is.

        ξ's T steps are the last T steps that the graphs' segments cover:
        all of them when the graphs were learned on ξ, the most recent ones
        when they were learned on a longer sequence that ends where ξ ends.
        The segments ξ overlaps, clipped to it, are grouped into runs of
        equal length and propagated by one :meth:`propagate` call; the
        graphs are narrowed, as a view, to those segments.
        """
        t = xi.shape[2]
        start, end = graphs.spec.boundaries[0][0], graphs.spec.length
        if end - start < t:
            raise ContractError(f"graphs cover [{start}, {end}) but features span {t} steps")
        runs = _equal_runs(graphs.spec.boundaries, end - t, end)
        # a view of the graphs the features use
        first = runs[0][0]
        used = runs[-1][0] + runs[-1][1] - first
        adj = graphs.adjacency
        if used != adj.shape[1]:
            adj = T.narrow(adj, 1, first, used)
        return self.propagate(xi, adj, [(n, length) for _, n, length in runs])


def _equal_runs(boundaries: list[tuple[int, int]], lo: int, hi: int) -> list[list[int]]:
    """Group the segments that overlap [lo, hi), clipped to it, into runs of
    adjacent segments of equal length.

    Returns [first segment, segment count, length] per run; the runs follow
    one another in time.
    """
    runs: list[list[int]] = []
    for m, (start, stop) in enumerate(boundaries):
        length = min(stop, hi) - max(start, lo)
        if length <= 0:
            continue
        if runs and runs[-1][2] == length:
            runs[-1][1] += 1
        else:
            runs.append([m, 1, length])
    return runs
