"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is exactly what the forecasting architecture needs:
matrix products (with stacked leading batch dimensions), causal dilated
1-D convolution, pointwise nonlinearities, reductions, concatenation,
slicing/reshaping, dropout, layer normalisation and a row-normalisation
primitive for adjacency matrices.

:func:`conv1d` works on channel-last (B, T, ..., C) input, the layout the
model's (B, T, N, C) sequences already have, and adds its optional bias
along the channel axis.  Both passes are one GEMM per kernel tap over a
(B, T_out·…, C) view of the input, so no im2col copy is made.

Gradients are recorded on an explicit :class:`Tape`. Each operation
appends one record holding the output tensor, its parents and a backward
closure; because records are appended in execution order the tape is
already topologically sorted, and :meth:`Tape.backward` simply replays it
in reverse. Outside an active tape (or under :func:`no_grad`) operations
compute forward values only.

Design constraints: float64 everywhere; no implicit broadcasting between
tensors (scalar * tensor excepted) — shape adaptation happens through
explicit ops (``bias_add``, ``broadcast_leading``) so every backward rule
stays auditable.  :func:`pairwise_mlp` is the one fused op: it scores all
node pairs without materialising the pair tensor and recomputes its hidden
layer in the backward pass instead of storing it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, SequenceTooShortError

Array = np.ndarray

# ---------------------------------------------------------------------------
# Tape machinery

# per thread and per context, so a no_grad or Tape in one thread neither
# turns off nor captures recording in another
_TAPE_STACK: ContextVar[tuple["Tape", ...]] = ContextVar("evograph_tape_stack", default=())
_GRAD_ENABLED: ContextVar[bool] = ContextVar("evograph_grad_enabled", default=True)


class Tape:
    """Ordered record of differentiable operations.

    Usage::

        with Tape() as tape:
            loss = ...   # ops executed here are recorded
        tape.backward(loss)
    """

    __slots__ = ("_records",)

    def __init__(self) -> None:
        # each record: (output, parents tuple, backward closure)
        self._records: list[tuple["Tensor", tuple["Tensor", ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, *exc) -> None:
        stack = _TAPE_STACK.get()
        assert stack[-1] is self
        _TAPE_STACK.set(stack[:-1])

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: "Tensor", parents: tuple["Tensor", ...], fn: Callable) -> None:
        self._records.append((out, parents, fn))

    def backward(self, loss: "Tensor") -> None:
        """Populate ``grad`` for every requires_grad leaf on this tape.

        Leaves reachable from ``loss`` receive d(loss)/d(leaf); recorded
        requires_grad leaves that do not influence ``loss`` get a zero
        gradient buffer.
        """
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        produced = {id(out) for out, _, _ in self._records}
        if id(loss) not in produced and not loss.requires_grad:
            raise ContractError("loss tensor is not on this tape")

        # reset gradients of everything the tape touches, then seed the loss
        leaves: list[Tensor] = []
        seen: set[int] = set()
        for out, parents, _ in self._records:
            out.grad = None
            for p in parents:
                if p.requires_grad and id(p) not in produced and id(p) not in seen:
                    seen.add(id(p))
                    p.grad = None
                    leaves.append(p)
        loss.grad = np.ones_like(loss.data)

        for out, _, fn in reversed(self._records):
            if out.grad is None:
                continue
            fn(out.grad)

        for leaf in leaves:
            if leaf.grad is None:
                leaf.grad = np.zeros_like(leaf.data)


def _active_tape() -> Tape | None:
    stack = _TAPE_STACK.get()
    if stack and _GRAD_ENABLED.get():
        return stack[-1]
    return None


@contextmanager
def no_grad():
    """Disable gradient recording inside the block, in this thread only."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


# ---------------------------------------------------------------------------
# Tensor

class Tensor:
    """Dense n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def numpy(self) -> Array:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


def _accumulate(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # copy views so later in-place accumulation cannot alias another buffer
        t.grad = g.copy() if g.base is not None else g
    else:
        t.grad = t.grad + g


def _make(data: Array, parents: tuple[Tensor, ...], fn: Callable | None) -> Tensor:
    tape = _active_tape()
    track = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        assert fn is not None
        tape._record(out, parents, fn)
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` down to ``shape`` (inverse of leading-dim broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise operations

def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        b = float(b)
        av = a

        def back_scalar(g, av=av):
            _accumulate(av, g)

        return _make(a.data + b, (a,), back_scalar)
    _check_same_shape(a, b, "add")

    def back(g, a=a, b=b):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), back)


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        b = float(b)

        def back_scalar(g, a=a):
            _accumulate(a, g)

        return _make(a.data - b, (a,), back_scalar)
    _check_same_shape(a, b, "sub")

    def back(g, a=a, b=b):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make(a.data - b.data, (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        s = float(b)

        def back_scalar(g, a=a, s=s):
            _accumulate(a, g * s)

        return _make(a.data * s, (a,), back_scalar)
    _check_same_shape(a, b, "mul")

    def back(g, a=a, b=b):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), back)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-|x|) never overflows; 1/(1+e) for x ≥ 0 and e/(1+e) below
    d = x.data
    e = np.exp(-np.abs(d))
    out = np.where(d >= 0, 1.0, e) / (1.0 + e)

    def back(g, x=x, out=out):
        _accumulate(x, g * out * (1.0 - out))

    return _make(out, (x,), back)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def back(g, x=x, out=out):
        _accumulate(x, g * (1.0 - out * out))

    return _make(out, (x,), back)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def back(g, x=x):
        _accumulate(x, g * (x.data > 0))

    return _make(out, (x,), back)


def absolute(x: Tensor) -> Tensor:
    out = np.abs(x.data)

    def back(g, x=x):
        _accumulate(x, g * np.sign(x.data))

    return _make(out, (x,), back)


# ---------------------------------------------------------------------------
# Linear algebra

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
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        _accumulate(a, _unbroadcast(ga, a.shape))
        if b.ndim == 2 and g.ndim > 2:
            # plain weight against a batched operand: one flat GEMM beats
            # a batched product followed by a leading-axis reduction
            flat_a = a.data.reshape(-1, a.shape[-1])
            flat_g = g.reshape(-1, g.shape[-1])
            _accumulate(b, flat_a.T @ flat_g)
        else:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(out, (a, b), back)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector along the last axis of ``x``."""
    if b.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise DimensionError(f"bias_add: bias {b.shape} does not match last axis of {x.shape}")

    def back(g, x=x, b=b):
        _accumulate(x, g)
        _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make(x.data + b.data, (x, b), back)


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           dilation: int = 1, stride: int = 1) -> Tensor:
    """Causal valid 1-D convolution over channel-last input.

    ``x`` has shape (B, T, ..., C_in) with time on axis 1; ``kernel`` has
    shape (C_out, C_in, k); the optional ``bias`` (C_out,) is added along
    the last axis.  The output is (B, T_out, ..., C_out) with
    ``T_out = (T - (k-1)*dilation - 1) // stride + 1``; with stride 1 that
    is exactly ``T - (k-1)*dilation``.  Tap 0 of the kernel aligns with the
    most recent sample, so output step j sees inputs at positions
    ``j*stride + (k-1)*dilation - dilation*tau``.

    Each tap is one GEMM of a (B, T_out·…, C_in) view of the input against
    the tap's (C_in, C_out) weight, accumulated in tap order.  The backward
    pass runs the same per-tap GEMMs and adds each tap's input gradient into
    a strided view of the input gradient.
    """
    if dilation < 1 or stride < 1:
        raise DimensionError("conv1d: dilation and stride must be >= 1")
    if kernel.ndim != 3:
        raise DimensionError(f"conv1d: kernel must be 3-D, got {kernel.shape}")
    c_out, c_in, k = kernel.shape
    if x.ndim < 3:
        raise DimensionError(f"conv1d: input must be (B, T, ..., C_in), got {x.shape}")
    if x.shape[-1] != c_in:
        raise DimensionError(
            f"conv1d: input channels {x.shape[-1]} != kernel channels {c_in}"
        )
    if bias is not None and bias.shape != (c_out,):
        raise DimensionError(f"conv1d: bias {bias.shape} does not match {c_out} output channels")
    t = x.shape[1]
    span = (k - 1) * dilation
    if t <= span:
        raise SequenceTooShortError(
            f"conv1d: input length {t} too short for kernel {k} with dilation {dilation}"
            f" (needs > {span})"
        )
    t_out = (t - span - 1) // stride + 1
    win = (t_out - 1) * stride + 1
    offsets = [span - dilation * tau for tau in range(k)]
    n_batch = x.shape[0]
    tap_shape = (n_batch, t_out) + x.shape[2:-1]
    xd = np.ascontiguousarray(x.data)
    # one contiguous (C_in, C_out) weight per tap
    w = np.ascontiguousarray(kernel.data.transpose(2, 1, 0))

    def rows(off: int) -> Array:
        """(B, T_out·…, C_in) input rows read by the tap at ``off``; a view at stride 1."""
        return xd[:, off:off + win:stride].reshape(n_batch, -1, c_in)

    out = rows(offsets[0]) @ w[0]
    for tau in range(1, k):
        out += rows(offsets[tau]) @ w[tau]
    if bias is not None:
        out += bias.data

    def back(g, x=x, kernel=kernel, bias=bias):
        g2 = g.reshape(-1, c_out)
        if kernel.requires_grad:
            g3 = g2.reshape(n_batch, -1, c_out)
            gw = np.empty_like(w)
            for tau, off in enumerate(offsets):
                # (B, C_in, R) × (B, R, C_out), summed over the batch
                gw[tau] = np.matmul(rows(off).transpose(0, 2, 1), g3).sum(axis=0)
            _accumulate(kernel, gw.transpose(2, 1, 0))
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for tau, off in enumerate(offsets):
                gx[:, off:off + win:stride] += (g2 @ w[tau].T).reshape(tap_shape + (c_in,))
            _accumulate(x, gx)
        if bias is not None:
            _accumulate(bias, g2.sum(axis=0))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _make(out.reshape(tap_shape + (c_out,)), parents, back)


# ---------------------------------------------------------------------------
# Reductions and shape ops

def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = []
    for a in axis:
        if not -ndim <= a < ndim:
            raise DimensionError(f"axis {a} out of range for ndim {ndim}")
        axes.append(a % ndim)
    if len(set(axes)) != len(axes):
        raise DimensionError(f"duplicate axes in {axis}")
    return tuple(sorted(axes))


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, x.ndim)
    out = x.data.sum(axis=axes, keepdims=keepdims)

    def back(g, x=x, axes=axes, keepdims=keepdims):
        if not keepdims:
            g = np.expand_dims(g, axes)
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _make(out, (x,), back)


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axis, x.ndim)
    n = int(np.prod([x.shape[a] for a in axes])) if axes else 1
    out = x.data.mean(axis=axes, keepdims=keepdims)

    def back(g, x=x, axes=axes, keepdims=keepdims, n=n):
        if not keepdims:
            g = np.expand_dims(g, axes)
        _accumulate(x, np.broadcast_to(g, x.shape) / n)

    return _make(out, (x,), back)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat of zero tensors")
    ndim = tensors[0].ndim
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for ndim {ndim}")
    ax = axis % ndim
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


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``."""
    ax = axis % x.ndim
    if start < 0 or length < 0 or start + length > x.shape[ax]:
        raise DimensionError(
            f"narrow: [{start}, {start + length}) out of bounds for extent {x.shape[ax]}"
        )
    idx = [slice(None)] * x.ndim
    idx[ax] = slice(start, start + length)
    idx = tuple(idx)

    def back(g, x=x, idx=idx):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        _accumulate(x, gx)

    return _make(x.data[idx].copy(), (x,), back)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def back(g, x=x):
        _accumulate(x, g.reshape(x.shape))

    return _make(out, (x,), back)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(a % x.ndim for a in axes) != list(range(x.ndim)):
        raise DimensionError(f"transpose: {axes} is not a permutation for ndim {x.ndim}")
    inv = tuple(np.argsort([a % x.ndim for a in axes]))
    out = x.data.transpose(axes)

    def back(g, x=x, inv=inv):
        _accumulate(x, g.transpose(inv))

    return _make(out, (x,), back)


_PAIR_BLOCK = 1 << 16  # hidden-layer elements per block in pairwise_mlp


def pairwise_mlp(alpha: Tensor,
                 heads: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]]) -> Tensor:
    """Score every ordered node pair with k two-layer ReLU perceptrons.

    ``alpha`` is (..., N, C); each head is ``(w1, b1, w2, b2)`` with shapes
    (2C, H), (H,), (H, 1), (1,), H shared by all heads.  Output ``[..., i, j, h]`` is head h's raw
    (pre-output-activation) score of the pair input ``α_i ‖ α_j``:
    ``relu([α_i, α_j] @ w1 + b1) @ w2 + b2``.

    Splitting ``w1 = [W_L; W_R]`` makes the pre-activation the outer sum
    ``(α W_L)_i + (α W_R)_j + b1``, so the (..., N², 2C) pair tensor is
    never built, and all heads share one GEMM per side.  The backward
    recomputes the (..., N, N, kH) hidden layer instead of keeping it,
    and reduces over j and i for the left and right halves.  Both passes
    walk the leading axes in blocks of whole graphs, so the transient
    hidden layer is one block, not the whole batch.
    """
    if alpha.ndim < 2 or not heads:
        raise DimensionError(
            f"pairwise_mlp needs (..., N, C) embeddings and at least one head, "
            f"got {alpha.shape} and {len(heads)} heads"
        )
    c, k, hd = alpha.shape[-1], len(heads), heads[0][0].shape[-1]
    for head in heads:
        shapes = tuple(p.shape for p in head)
        if shapes != ((2 * c, hd), (hd,), (hd, 1), (1,)):
            raise DimensionError(
                f"pairwise_mlp: head shapes {shapes} do not fit {2 * c} pair "
                f"features and {hd} hidden units"
            )
    width = k * hd
    w_left = np.concatenate([w1.data[:c] for w1, _, _, _ in heads], axis=1)
    w_right = np.concatenate([w1.data[c:] for w1, _, _, _ in heads], axis=1)
    b1_all = np.concatenate([b1.data for _, b1, _, _ in heads])
    # block-diagonal output layer: head i reads only its own hidden units
    w2_blk = np.zeros((width, k))
    for i, (_, _, w2, _) in enumerate(heads):
        w2_blk[i * hd:(i + 1) * hd, i] = w2.data[:, 0]
    b2_all = np.concatenate([b2.data for _, _, _, b2 in heads])
    n = alpha.shape[-2]
    lead = alpha.shape[:-2]
    flat_alpha = alpha.data.reshape(-1, n, c)
    rows = flat_alpha.shape[0]
    # b1 rides on the left projection, the small (rows, N, kH) side
    left = flat_alpha @ w_left + b1_all
    right = flat_alpha @ w_right
    # whole graphs per block, about 512 KB of hidden layer each, so a
    # block's passes over its hidden layer run in cache
    step = max(1, _PAIR_BLOCK // (n * n * width))
    blocks = [slice(r, min(r + step, rows)) for r in range(0, rows, step)]

    def hidden_layer(rs: slice) -> Array:
        """relu(L_i + R_j + b1) for graphs ``rs`` as (·, kH) rows."""
        pre = left[rs, :, None, :] + right[rs, None, :, :]
        np.maximum(pre, 0.0, out=pre)
        return pre.reshape(-1, width)

    out = np.empty((rows, n * n, k))
    for rs in blocks:
        out[rs] = (hidden_layer(rs) @ w2_blk).reshape(-1, n * n, k)
    out += b2_all
    out = out.reshape(lead + (n, n, k))

    def back(g, alpha=alpha, heads=heads):
        g3 = g.reshape(rows, n * n, k)
        g_w2 = np.zeros((width, k))
        g_left = np.empty((rows, n, width))
        g_right = np.empty((rows, n, width))
        for rs in blocks:
            h = hidden_layer(rs)
            g_rs = g3[rs].reshape(-1, k)
            g_w2 += h.T @ g_rs
            g_pre = g_rs @ w2_blk.T
            g_pre *= h > 0
            g_pre = g_pre.reshape(-1, n, n, width)
            g_left[rs] = g_pre.sum(axis=2)   # over j
            g_right[rs] = g_pre.sum(axis=1)  # over i
        g_left = g_left.reshape(-1, width)
        g_right = g_right.reshape(-1, width)
        g_b1 = g_left.sum(axis=0)
        # one contiguous row per head, so each sum is pairwise
        g_b2 = np.ascontiguousarray(g3.reshape(-1, k).T).sum(axis=1)
        if alpha.requires_grad:
            g_alpha = g_left @ w_left.T + g_right @ w_right.T
            _accumulate(alpha, g_alpha.reshape(alpha.shape))
        a2 = flat_alpha.reshape(-1, c)
        g_w_left = a2.T @ g_left
        g_w_right = a2.T @ g_right
        for i, (w1, b1, w2, b2) in enumerate(heads):
            cols = slice(i * hd, (i + 1) * hd)
            _accumulate(w1, np.concatenate([g_w_left[:, cols], g_w_right[:, cols]]))
            _accumulate(b1, g_b1[cols])
            _accumulate(w2, g_w2[cols, i:i + 1])
            _accumulate(b2, g_b2[i:i + 1])

    parents = (alpha,) + tuple(p for head in heads for p in head)
    return _make(out, parents, back)


def broadcast_leading(x: Tensor, n: int) -> Tensor:
    """Materialise ``n`` copies of ``x`` along a new leading axis."""
    out = np.broadcast_to(x.data, (n,) + x.shape).copy()

    def back(g, x=x):
        _accumulate(x, g.sum(axis=0))

    return _make(out, (x,), back)


# ---------------------------------------------------------------------------
# Regularisation / normalisation

def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        def back_id(g, x=x):
            _accumulate(x, g)

        return _make(x.data.copy(), (x,), back_id)
    if rng is None:
        raise ContractError("dropout in training mode needs an rng")
    keep = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)

    def back(g, x=x, keep=keep):
        _accumulate(x, g * keep)

    return _make(x.data * keep, (x,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalise to zero mean / unit variance along the last axis, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out = xhat * gain.data + bias.data

    def back(g, x=x, gain=gain, bias=bias, xhat=xhat, inv_std=inv_std, d=d):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        gd = g * gain.data
        m1 = gd.mean(axis=-1, keepdims=True)
        m2 = (gd * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv_std * (gd - m1 - xhat * m2))

    return _make(out, (x, gain, bias), back)


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


# ---------------------------------------------------------------------------
# Initialisation

def uniform_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> Array:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
