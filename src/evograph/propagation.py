"""Mix-hop graph propagation, each time step through its segment's graph.

Each hop mixes a β-weighted retention of the original node states with
neighbour aggregation through the segment's adjacency matrix; hop outputs
are projected and summed.  The adjacency is row-normalized, so the
aggregation is an average rather than a sum.  The graphs arrive already
normalized: the graph learner's :func:`tensor.pairwise_graph` record (or,
for graphs given as they are, ``EvolvingGraphSequence.from_stack``) does
it once per graph, so nothing here normalizes or copies them.

A layer's graphs arrive as one (B, M, N, N) stack, which is checked once.
Segments of equal length d are propagated together: the features are
viewed as (B, M, d, N, C) and each hop is one batched product with the
(B, M, 1, N, N) graphs broadcast over the d steps of their segment (for
d = 1 simply (B, T, N, N) against (B, T, N, C)).  A longer last segment
takes one more call.  No per-step copy of the graphs is made.

Each call runs all Ψ hops and Ψ + 1 projections as one :func:`tensor.mixhop`
record, which keeps only its output: the backward pass rebuilds the Ψ hop
states from the features and graphs.  The views that narrow the graphs to
the segments in use keep nothing.
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

    def propagate(self, xi: Tensor, adj: Tensor) -> Tensor:
        """xi: (B, ..., N, C_in) → (B, ..., N, C_out) through nonnegative,
        already row-normalized ``adj``.

        ``adj`` has the ndim of ``xi``, with leading axes that broadcast
        against it: (B, T, N, N) or (B, 1, N, N) for (B, T, N, C), and
        (B, M, 1, N, N) for (B, M, d, N, C).  One tape record, which keeps
        only its output and parents: the forward holds no hop beyond the one
        in flight, and the backward rebuilds all Ψ hop states, each the size
        of ``xi``.
        """
        if np.any(adj.data < 0):
            raise ContractError("adjacency has negative entries")
        return T.mixhop(xi, adj, self.hop_proj, self.beta)

    def apply_per_segment(self, xi: Tensor, graphs: EvolvingGraphSequence,
                          time_offset: int = 0) -> Tensor:
        """Propagate each time step through its own segment's row-normalized
        adjacency matrix, ``graphs.adjacency``, as it is.

        ``time_offset`` maps local feature index j to the absolute index
        j + time_offset used by the graphs' segment boundaries (nonzero when
        the graphs were learned on a longer, earlier-starting sequence).
        """
        b, t = xi.shape[:2]
        lo, hi = time_offset, time_offset + t
        if graphs.spec.boundaries[0][0] > lo or graphs.spec.length < hi:
            raise ContractError(
                f"graphs cover [{graphs.spec.boundaries[0][0]}, "
                f"{graphs.spec.length}) but features span [{lo}, {hi})"
            )
        runs = _equal_runs(graphs.spec.boundaries, lo, hi)
        if not runs:
            raise ContractError("no segment overlapped the feature range")
        # a view of the graphs the features use
        first = runs[0][0]
        used = runs[-1][0] + runs[-1][1] - first
        adj = graphs.adjacency
        if used != adj.shape[1]:
            adj = T.narrow(adj, 1, first, used)
        parts = []
        for m, n, start, length in runs:
            x = xi if n * length == t else T.narrow(xi, 1, start, n * length)
            a = adj if n == used else T.narrow(adj, 1, m - first, n)
            if n > 1 and length > 1:
                # (B, n, length, N, C) against (B, n, 1, N, N)
                x = T.reshape(x, (b, n, length) + xi.shape[2:])
                a = T.reshape(a, (b, n, 1) + adj.shape[2:])
            y = self.propagate(x, a)
            parts.append(T.reshape(y, (b, n * length) + y.shape[3:]) if y.ndim > xi.ndim else y)
        out = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
        if out.shape[1] != t:
            raise ContractError(
                f"segments covered {out.shape[1]} of {t} time steps"
            )
        return out


def _equal_runs(boundaries: list[tuple[int, int]], lo: int, hi: int) -> list[list[int]]:
    """Group the segments that overlap [lo, hi), clipped to it, into runs of
    adjacent segments of equal length.

    Returns [first segment, segment count, local start, length] per run.
    """
    runs: list[list[int]] = []
    for m, (start, stop) in enumerate(boundaries):
        s, e = max(start, lo) - lo, min(stop, hi) - lo
        if e <= s:
            continue
        if runs and runs[-1][3] == e - s:
            runs[-1][1] += 1
        else:
            runs.append([m, 1, s, e - s])
    return runs
