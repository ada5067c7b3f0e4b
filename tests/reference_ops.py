"""Generic tape ops that the tests chain into oracles for the fused ops.

The model runs none of these: each fused op in :mod:`evograph.tensor` is
checked against a chain of them (``tanh(conv1d)`` and the time ``mean``,
per-run ``mixhop`` plus ``concat``, the explicit-pair ``matmul``,
``bias_add``, σ, product and ``row_normalize`` chain).  :func:`conv1d` is a
thin wrapper over ``tensor._conv_bank`` and :func:`sigmoid` over ``tensor._sigmoid_into``, so
their tests still exercise the code that :func:`tensor.gated_conv1d` and
:func:`tensor.static_features` run.  :func:`summed_matmul`, the general
broadcasting reducer behind :func:`matmul`'s gradients, is an oracle for
the one fixed product that ``tensor.linear`` and ``tensor.mixhop`` each
write out; :func:`full_like` stands in for a scalar operand, which the tape
ops do not take.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from evograph import tensor as T
from evograph.errors import DimensionError
from evograph.graph_learner import EvolvingGraphSequence, SegmentSpec
from evograph.tensor import Array, Tensor, _accumulate, _make


def node_major(x: Array) -> Array:
    """(B, T, N, C) values as the C-contiguous (B, N, T, C) array that the
    model's sequences are, so a test can feed an op the values it always
    drew."""
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3))


def full_like(x: Tensor, value: float) -> Tensor:
    """A constant of ``x``'s shape, every entry ``value``: the tape ops take
    no scalar operands.  A read-only broadcast view, so it costs no memory."""
    return Tensor(np.broadcast_to(np.float64(value), x.shape))


def sigmoid(x: Tensor) -> Tensor:
    out = T._sigmoid_into(x.data, np.empty_like(x.data))

    def back(g, x=x, out=out):
        _accumulate(x, g * out * (1.0 - out))

    return _make(out, (x,), back)


def summed_matmul(x: Array, y: Array, shape: tuple[int, ...]) -> Array:
    """``x @ y`` summed down to ``shape`` (leading-axis broadcasting undone).

    The leading axes that ``shape`` broadcasts are folded into the
    contraction instead of summed after it, so the unreduced product is
    never formed: a (B, 1, N, N) adjacency applied to (B, T, N, C) features
    gets its gradient from one (N, T·C) × (T·C, N) product per batch entry
    rather than from a (B, T, N, N) one, and a plain weight from one flat
    GEMM.
    """
    lead = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    nl = len(lead)
    target = (1,) * (nl + 2 - len(shape)) + tuple(shape)
    summed = [i for i in range(nl) if target[i] == 1 and lead[i] != 1]
    kept = [i for i in range(nl) if i not in summed]
    rows = tuple(lead[i] for i in kept)
    fold = math.prod(lead[i] for i in summed)
    # x → (kept, P, summed·Q), y → (kept, summed·Q, R)
    x = np.broadcast_to(x, lead + x.shape[-2:]).transpose(kept + [nl] + summed + [nl + 1])
    y = np.broadcast_to(y, lead + y.shape[-2:]).transpose(kept + summed + [nl, nl + 1])
    out = np.matmul(x.reshape(rows + (x.shape[len(kept)], fold * x.shape[-1])),
                    y.reshape(rows + (fold * y.shape[-2], y.shape[-1])))
    return out if out.shape == tuple(shape) else out.reshape(shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, numpy stacking rules.

    Leading axes follow broadcast semantics (a 2-D weight against a
    batched operand is the common case); gradients for the broadcast side
    are summed over the replicated leading axes.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands need at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner extents {a.shape[-1]} and {b.shape[-2]} differ"
        )
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(f"matmul: incompatible stack shapes {a.shape} x {b.shape}") from exc

    def back(g, a=a, b=b):
        if a.requires_grad:
            if b.ndim == 2:
                # a plain weight: one flat GEMM over all of a's rows
                _accumulate(a, (g.reshape(-1, b.shape[1]) @ b.data.T).reshape(a.shape))
            else:
                _accumulate(a, summed_matmul(g, np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, summed_matmul(np.swapaxes(a.data, -1, -2), g, b.shape))

    return _make(out, (a, b), back)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector along the last axis of ``x``."""
    if b.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise DimensionError(f"bias_add: bias {b.shape} does not match last axis of {x.shape}")

    def back(g, x=x, b=b):
        _accumulate(x, g)
        _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make(x.data + b.data, (x, b), back)


def conv1d(x: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor] | None = None,
           dilation: int = 1, stride: int = 1) -> Tensor:
    """Causal valid 1-D convolution of channel-last input with a kernel bank.

    ``x`` has shape (B, T, ..., C_in) with time on axis 1.  Kernel j has
    shape (C_j, C_in, k_j) and the optional bias j (C_j,); the outputs of
    the kernels are concatenated in order along the last axis, so the
    output is (B, T_out, ..., ΣC_j) with
    ``T_out = (T - (k_max-1)*dilation - 1) // stride + 1``.  Tap 0 of every
    kernel aligns with the most recent sample, and a k-tap kernel acts as a
    k_max-tap kernel whose taps k..k_max−1 are zero; no biases are zero
    biases.  One record of ``tensor._conv_bank``'s forward and backward.
    """
    if biases is None:
        biases = [Tensor(np.zeros(k.shape[:1])) for k in kernels]
    shape, walk, bank_back = T._conv_bank(x, kernels, biases, dilation, stride)
    out = np.empty(shape)
    chunks = out.reshape((-1,) + shape[-2:])
    for ss, y in walk():
        chunks[ss] = y

    def back(g):
        g = np.ascontiguousarray(g).reshape(chunks.shape)
        bank_back(lambda ss: g[ss])

    return _make(out, (x, *kernels, *biases), back)


def mean(x: Tensor, axis: int) -> Tensor:
    """Mean over ``axis``, which is dropped: the time mean that
    ``tensor.static_features`` and ``tensor.segment_mean`` take inside."""
    ax = T._axis(axis, x.ndim)
    out = x.data.mean(axis=ax)

    def back(g, x=x, ax=ax):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, ax), x.shape) / x.shape[ax])

    return _make(out, (x,), back)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of zero tensors")
    ndim = tensors[0].ndim
    ax = T._axis(axis, ndim)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != ndim or any(
            i != ax and t.shape[i] != ref[i] for i in range(ndim)
        ):
            raise DimensionError(f"concat: incompatible shapes {ref} and {t.shape}")
    out = np.concatenate([t.data for t in tensors], axis=ax)
    extents = [t.shape[ax] for t in tensors]

    def back(g, tensors=tensors, extents=extents, ax=ax):
        start = 0
        for t, e in zip(tensors, extents):
            idx = [slice(None)] * g.ndim
            idx[ax] = slice(start, start + e)
            _accumulate(t, g[tuple(idx)])
            start += e

    return _make(out, tuple(tensors), back)


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Join same-shaped tensors along a new axis ``axis``."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("stack of zero tensors")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != ref:
            raise DimensionError(f"stack: shapes {ref} and {t.shape} differ")
    ax = T._axis(axis, len(ref) + 1)
    out = np.stack([t.data for t in tensors], axis=ax)

    def back(g, tensors=tensors, ax=ax):
        for i, t in enumerate(tensors):
            _accumulate(t, g[(slice(None),) * ax + (i,)])

    return _make(out, tuple(tensors), back)


def row_normalize(x: Tensor) -> Tensor:
    """Divide each row (last axis) by its sum; all-zero rows pass through."""
    r = x.data.sum(axis=-1, keepdims=True)
    pos = r > 0
    safe_r = np.where(pos, r, 1.0)
    out = np.where(pos, x.data / safe_r, x.data)

    def back(g, x=x, out=out, safe_r=safe_r, pos=pos):
        inner = (g * out).sum(axis=-1, keepdims=True)
        gx = np.where(pos, (g - inner) / safe_r, g)
        _accumulate(x, gx)

    return _make(out, (x,), back)


def graph_sequence(adjacency: Tensor, spec: SegmentSpec) -> EvolvingGraphSequence:
    """The sequence of nonnegative graphs A, (B, M, N, N), normalized by one
    :func:`row_normalize` record, with A's row sums."""
    return EvolvingGraphSequence(row_normalize(adjacency),
                                 adjacency.data.sum(axis=-1, keepdims=True), spec)
