"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is exactly what the forecasting architecture needs:
matrix products (with stacked leading batch dimensions), causal dilated
1-D convolution, pointwise nonlinearities, reductions and segment means,
concatenation and stacking, slicing/reshaping, dropout, layer
normalisation and a row-normalisation primitive for adjacency matrices.
Slices (:func:`narrow`, :func:`select`) are views of their input, and
their backward adds into the input's gradient buffer in place.

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
stays auditable.  Two ops are fused, each one tape record with a
hand-written backward: :func:`pairwise_mlp` scores all node pairs without
materialising the pair tensor and recomputes its hidden layer in the
backward pass instead of storing it, and :func:`gru_sequence` runs a whole
GRU recurrence, back-propagating through time from its stored gates.
"""

from __future__ import annotations

import ctypes
import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, SequenceTooShortError

Array = np.ndarray

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # the largest value glibc's own adaptive threshold reaches


def _retain_freed_heap() -> None:
    """Keep the memory a training step frees for the next step.

    A step allocates and frees a few hundred MB of activations and
    gradients, all below glibc's mmap threshold once it has adapted.  By
    default glibc then returns the free top of the heap to the system after
    each step, down to the highest block still live, and the next backward
    pass faults that memory back in page by page.  How much that is depends
    only on where the surviving blocks (such as parameter gradients) happen
    to land, so a small change in allocation order moved it from 50 to
    100 MB per step on the single-step preset at N = 8, and from run to run
    of the same code.  Fixing the mmap threshold at its adaptive maximum and
    never trimming makes it zero: the heap stays at its high-water mark,
    which the peak resident size already counts.  glibc only; elsewhere the
    allocator is left as it is.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, -1)  # -1: never trim


_retain_freed_heap()

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

    __slots__ = ("data", "requires_grad", "grad", "_owns_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        # whether ``grad`` is a buffer no other tensor holds, so that
        # accumulation may write into it
        self._owns_grad = False

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
        # a view is copied; a whole array is kept as it is, and may be
        # shared (``add`` hands one ``g`` to both parents)
        if g.base is not None:
            t.grad, t._owns_grad = g.copy(), True
        else:
            t.grad, t._owns_grad = g, False
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad, t._owns_grad = t.grad + g, True


def _accumulate_at(t: Tensor, idx: tuple, g: Array) -> None:
    """Add ``g`` into ``t.grad[idx]`` in place; the rest of the buffer is untouched."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad, t._owns_grad = np.zeros_like(t.data), True
    elif not t._owns_grad:
        t.grad, t._owns_grad = t.grad.copy(), True
    t.grad[idx] += g


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
        if a.requires_grad:
            _accumulate(a, _summed_matmul(g, np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _summed_matmul(np.swapaxes(a.data, -1, -2), g, b.shape))

    return _make(out, (a, b), back)


def _summed_matmul(x: Array, y: Array, shape: tuple[int, ...]) -> Array:
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
    ax = _normalize_axes(axis, ndim)[0]
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
    """Contiguous slice [start, start+length) along ``axis``: a view of ``x``."""
    ax = _normalize_axes(axis, x.ndim)[0]
    if start < 0 or length < 0 or start + length > x.shape[ax]:
        raise DimensionError(
            f"narrow: [{start}, {start + length}) out of bounds for extent {x.shape[ax]}"
        )
    idx = (slice(None),) * ax + (slice(start, start + length),)

    def back(g, x=x, idx=idx):
        _accumulate_at(x, idx, g)

    return _make(x.data[idx], (x,), back)


def select(x: Tensor, axis: int, index: int) -> Tensor:
    """Entry ``index`` of ``axis``, which is dropped: a view of ``x``."""
    ax = _normalize_axes(axis, x.ndim)[0]
    if not 0 <= index < x.shape[ax]:
        raise DimensionError(f"select: index {index} out of bounds for extent {x.shape[ax]}")
    idx = (slice(None),) * ax + (index,)

    def back(g, x=x, idx=idx):
        _accumulate_at(x, idx, g)

    return _make(x.data[idx], (x,), back)


def stack(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Join same-shaped tensors along a new axis ``axis``."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("stack of zero tensors")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != ref:
            raise DimensionError(f"stack: shapes {ref} and {t.shape} differ")
    ax = _normalize_axes(axis, len(ref) + 1)[0]
    out = np.stack([t.data for t in tensors], axis=ax)

    def back(g, tensors=tensors, ax=ax):
        for i, t in enumerate(tensors):
            _accumulate(t, g[(slice(None),) * ax + (i,)])

    return _make(out, tuple(tensors), back)


def segment_mean(x: Tensor, boundaries: Sequence[tuple[int, int]]) -> Tensor:
    """Mean over each range [start, stop) of axis 1: (B, T, ...) → (B, M, ...).

    The M ranges must tile [0, T) in order.
    """
    if x.ndim < 2:
        raise DimensionError(f"segment_mean: input must be (B, T, ...), got {x.shape}")
    edges = [0] + [stop for _, stop in boundaries]
    lengths = np.diff(edges)
    if not boundaries or [start for start, _ in boundaries] != edges[:-1] \
            or np.any(lengths < 1) or edges[-1] != x.shape[1]:
        raise DimensionError(
            f"segment_mean: {list(boundaries)} do not tile [0, {x.shape[1]})"
        )
    counts = lengths.reshape((1, -1) + (1,) * (x.ndim - 2))
    out = np.stack([x.data[:, start:stop].mean(axis=1) for start, stop in boundaries], axis=1)

    def back(g, x=x):
        _accumulate(x, np.repeat(g / counts, lengths, axis=1))

    return _make(out, (x,), back)


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
    turns its ReLU mask into 0.0 / 1.0, and reduces the mask weighted by
    the output gradient over j (left half) and over i (right half) with one
    batched product per head; the output weight scales those sums after
    the reduction, and its own gradient is read off them and the two
    projections.  Both passes walk the leading axes in blocks of whole
    graphs through one reused buffer, so the transient hidden layer is one
    block, not the whole batch.
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

    # one hidden-layer buffer, reused by every block of both passes
    buf = np.empty((min(step, rows), n, n, width))

    def hidden_layer(rs: slice) -> Array:
        """relu(L_i + R_j + b1) for graphs ``rs``, written into ``buf``."""
        pre = buf[:rs.stop - rs.start]
        np.copyto(pre, left[rs, :, None, :])
        pre += right[rs, None, :, :]
        np.maximum(pre, 0.0, out=pre)
        return pre

    out = np.empty((rows, n * n, k))
    for rs in blocks:
        out[rs] = (hidden_layer(rs).reshape(-1, width) @ w2_blk).reshape(-1, n * n, k)
    out += b2_all
    out = out.reshape(lead + (n, n, k))
    w2_all = w2_blk.sum(axis=1)  # each hidden unit's output weight

    def back(g, alpha=alpha, heads=heads):
        g4 = g.reshape(rows, n, n, k)
        g_left = np.empty((rows, n, width))
        g_right = np.empty((rows, n, width))
        for rs in blocks:
            live = hidden_layer(rs)
            np.greater(live, 0.0, out=live)  # the ReLU mask as 0.0 / 1.0
            g_rs = g4[rs]
            for i in range(k):
                cols = slice(i * hd, (i + 1) * hd)
                g_ij = np.ascontiguousarray(g_rs[..., i])
                g_ji = np.ascontiguousarray(g_ij.transpose(0, 2, 1))
                # Σ_j and Σ_i of g·mask: one (1 × N) @ (N × H) product per
                # row i, and per column j
                np.matmul(g_ij[:, :, None, :], live[..., cols],
                          out=g_left[rs, :, None, cols])
                np.matmul(g_ji[:, :, None, :], live[..., cols].transpose(0, 2, 1, 3),
                          out=g_right[rs, :, None, cols])
        # a live unit's hidden value is L_i + R_j, so Σ_ij g·hidden, the
        # output weight's gradient, splits into Σ_i L_i·(Σ_j g·mask) +
        # Σ_j R_j·(Σ_i g·mask): head i's (H, 1) block from the (rows, N, kH)
        # sums, without another pass over the hidden layer
        g_w2 = (np.einsum("rnu,rnu->u", left, g_left)
                + np.einsum("rnu,rnu->u", right, g_right))
        # the output weight is constant over i and j, so it scales the sums
        g_left *= w2_all
        g_right *= w2_all
        g_left = g_left.reshape(-1, width)
        g_right = g_right.reshape(-1, width)
        g_b1 = g_left.sum(axis=0)
        # one contiguous row per head, so each sum is pairwise
        g_b2 = np.ascontiguousarray(g4.reshape(-1, k).T).sum(axis=1)
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
            _accumulate(w2, g_w2[cols, None])
            _accumulate(b2, g_b2[i:i + 1])

    parents = (alpha,) + tuple(p for head in heads for p in head)
    return _make(out, parents, back)


def gru_sequence(gammas: Tensor, alpha0: Tensor, w_r: Tensor, w_u: Tensor, w_o: Tensor,
                 b_r: Tensor, b_u: Tensor, b_o: Tensor) -> Tensor:
    """Run a GRU over M steps of per-node inputs: (B, M, N, C) → (B, M, N, H).

    ``alpha0`` (B, N, H) is the initial state.  Each weight is (C + H, H):
    its first C rows read the input γ, the rest the state α.  Step m is

        r = σ([γ, α] W_r + b_r),   u = σ([γ, α] W_u + b_u),
        o = tanh([γ, r ⊙ α] W_o + b_o),   α' = u ⊙ α + (1 − u) ⊙ o,

    and the output stacks the M new states.  The γ half of all three gates
    is one (B·M·N, C) × (C, 3H) GEMM before the loop, biases folded in; a
    step then runs one (B·N, H) × (H, 2H) GEMM for r and u and one (H, H)
    GEMM on r ⊙ α for o.  The backward pass runs back through time from the
    stored gates and states, with only the two products with the state
    weights' transposes in its loop; the weight, bias and γ gradients are
    single GEMMs over all steps after it.  Per-step arrays are time-major,
    so each step's slice is contiguous.
    """
    if gammas.ndim != 4 or alpha0.ndim != 3:
        raise DimensionError(
            f"gru_sequence needs (B, M, N, C) inputs and a (B, N, H) state, "
            f"got {gammas.shape} and {alpha0.shape}"
        )
    b, m, n, c = gammas.shape
    hd = alpha0.shape[-1]
    if alpha0.shape != (b, n, hd) \
            or any(w.shape != (c + hd, hd) for w in (w_r, w_u, w_o)) \
            or any(v.shape != (hd,) for v in (b_r, b_u, b_o)):
        raise DimensionError(
            f"gru_sequence: state {alpha0.shape}, weights "
            f"{[w.shape for w in (w_r, w_u, w_o)]} and biases "
            f"{[v.shape for v in (b_r, b_u, b_o)]} do not fit {c} input "
            f"channels over ({b}, {n}) nodes"
        )
    parents = (gammas, alpha0, w_r, w_u, w_o, b_r, b_u, b_o)
    track = _active_tape() is not None and any(p.requires_grad for p in parents)
    rows = b * n
    w_in = np.concatenate([w_r.data[:c], w_u.data[:c], w_o.data[:c]], axis=1)
    w_ru = np.concatenate([w_r.data[c:], w_u.data[c:]], axis=1)
    w_oa = np.ascontiguousarray(w_o.data[c:])
    gam = gammas.data.transpose(1, 0, 2, 3).reshape(m * rows, c)  # time-major
    pre = (gam @ w_in + np.concatenate([b_r.data, b_u.data, b_o.data])).reshape(m, rows, 3 * hd)
    states = np.empty((m + 1, rows, hd))
    states[0] = alpha0.data.reshape(rows, hd)
    # r ‖ u, o and r ⊙ α of every step for the backward pass; one reused
    # slot when nothing is recorded
    keep = m if track else 1
    gates = np.empty((keep, rows, 2 * hd))
    cand = np.empty((keep, rows, hd))
    gated = np.empty((keep, rows, hd))
    for t in range(m):
        k = t if track else 0
        a, ru, o, ra = states[t], gates[k], cand[k], gated[k]
        np.matmul(a, w_ru, out=ru)
        ru += pre[t, :, :2 * hd]
        # σ as in ``sigmoid``: exp(-|x|) never overflows
        e = np.exp(-np.abs(ru))
        num = np.where(ru >= 0, 1.0, e)
        e += 1.0
        np.divide(num, e, out=ru)
        r, u = ru[:, :hd], ru[:, hd:]
        np.multiply(r, a, out=ra)
        np.matmul(ra, w_oa, out=o)
        o += pre[t, :, 2 * hd:]
        np.tanh(o, out=o)
        nxt = states[t + 1]
        np.multiply(u, a, out=nxt)
        nxt += (1.0 - u) * o
    out = np.ascontiguousarray(states[1:].reshape(m, b, n, hd).transpose(1, 0, 2, 3))

    def back(g):
        g_tm = g.transpose(1, 0, 2, 3).reshape(m, rows, hd)
        prev, r, u = states[:-1], gates[..., :hd], gates[..., hd:]
        # each gate's local derivative, for all steps at once; only the
        # recurrence itself runs step by step
        k_o = (1.0 - u) * (1.0 - cand * cand)  # ∂α'/∂o_pre
        k_r = prev * r * (1.0 - r)  # ∂(r ⊙ α)/∂r_pre
        k_u = (prev - cand) * u * (1.0 - u)  # ∂α'/∂u_pre
        d_pre = np.empty((m, rows, 3 * hd))
        carry = np.zeros((rows, hd))
        for t in reversed(range(m)):
            dh = g_tm[t] + carry
            d_ru, d_o = d_pre[t, :, :2 * hd], d_pre[t, :, 2 * hd:]
            np.multiply(dh, k_o[t], out=d_o)
            d_ra = d_o @ w_oa.T
            np.multiply(d_ra, k_r[t], out=d_ru[:, :hd])
            np.multiply(dh, k_u[t], out=d_ru[:, hd:])
            carry = dh * u[t]
            carry += d_ra * r[t]
            carry += d_ru @ w_ru.T
        _accumulate(alpha0, carry.reshape(b, n, hd))
        d_flat = d_pre.reshape(-1, 3 * hd)
        if gammas.requires_grad:
            d_gam = (d_flat @ w_in.T).reshape(m, b, n, c).transpose(1, 0, 2, 3)
            _accumulate(gammas, d_gam)
        g_in = gam.T @ d_flat
        g_ru = states[:-1].reshape(-1, hd).T @ d_flat[:, :2 * hd]
        g_oa = gated.reshape(-1, hd).T @ d_flat[:, 2 * hd:]
        g_bias = d_flat.sum(axis=0)
        for i, (w, v, g_a) in enumerate(((w_r, b_r, g_ru[:, :hd]), (w_u, b_u, g_ru[:, hd:]),
                                         (w_o, b_o, g_oa))):
            cols = slice(i * hd, (i + 1) * hd)
            _accumulate(w, np.concatenate([g_in[:, cols], g_a]))
            _accumulate(v, g_bias[cols])

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
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    In eval mode, or at rate 0, it is the identity and returns ``x`` itself.
    """
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
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
