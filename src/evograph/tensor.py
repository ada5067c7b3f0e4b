"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is exactly what the forecasting architecture needs:
matrix products (with stacked leading batch dimensions), causal dilated
1-D convolution, pointwise nonlinearities, reductions and segment means,
concatenation and stacking, slicing/reshaping, layer normalisation and a
row-normalisation primitive for adjacency matrices.
Slices (:func:`narrow`, :func:`select`) are views of their input, and
their backward adds into the input's gradient buffer in place.

:func:`conv1d` works on channel-last (B, T, ..., C) input, the layout the
model's (B, T, N, C) sequences already have.  It takes a bank of kernels
of possibly different widths, all aligned on the most recent sample, with
optional biases, and concatenates their outputs along the channel axis, so
a whole inception layer is one record.  Both passes are one GEMM per tap
of the widest kernel over a (B, T_out·…, C) view of the input, so no
im2col copy is made; :func:`gated_conv1d` runs the same bank code.

Gradients are recorded on an explicit :class:`Tape`. Each operation
appends one record holding the output tensor, its parents and a backward
closure; because records are appended in execution order the tape is
already topologically sorted, and :meth:`Tape.backward` replays it once,
in reverse, popping each record as it runs it.  A record's saved arrays and
its output's gradient are freed as soon as the record has run, so only
leaves (requires_grad tensors the tape did not produce) keep a gradient.
Outside an active tape (or under :func:`no_grad`) operations compute
forward values only.

Design constraints: float64 everywhere; no implicit broadcasting between
tensors (scalar * tensor excepted) — shape adaptation happens through
explicit ops (``bias_add``, ``broadcast_leading``) so every backward rule
stays auditable.  Eight ops are fused, each one tape record with a
hand-written backward, so that a record keeps only what its backward
reads:

- :func:`pairwise_mlp` scores all node pairs without materialising the
  pair tensor and recomputes its hidden layer in the backward pass
  instead of storing it;
- :func:`pairwise_graph` runs the same scorer with an edge and a mask
  head, gates and row-normalizes the result, and keeps only the
  normalized graphs and their row sums: the backward rebuilds the scores
  one block of graphs at a time;
- :func:`gru_sequence` runs a whole GRU recurrence, keeping its gates,
  candidates and output: the backward rebuilds each step's previous state
  from the output as it back-propagates through time;
- :func:`mixhop` runs every hop and projection of mix-hop graph
  propagation, keeping only its output: the backward rebuilds the hop
  states from ξ and Â;
- :func:`gated_conv1d` runs a kernel bank, its σ·tanh gating and dropout
  in place, keeping the two activations and the dropout mask;
- :func:`layer_norm_residual` normalises, applies the affine map and adds
  a residual in one buffer, keeping a mean and a scale per row;
- :func:`skip_linear` projects each node's flattened history, forming the
  flatten only transiently in each pass;
- :func:`linear` is an affine map that keeps only its output.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator, Sequence

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
    """Ordered record of differentiable operations, replayed once.

    Usage::

        with Tape() as tape:
            loss = ...   # ops executed here are recorded
        tape.backward(loss)

    :meth:`backward` releases the graph as it replays it: each record, with
    the arrays its closure saved, is dropped once it has run, and gradients
    are left on leaves only.  ``len(tape)`` stays the number of records made.
    """

    __slots__ = ("_records", "_count", "_replayed")

    def __init__(self) -> None:
        # each record: (output, parents tuple, backward closure)
        self._records: list[tuple["Tensor", tuple["Tensor", ...], Callable]] = []
        self._count = 0
        self._replayed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, *exc) -> None:
        stack = _TAPE_STACK.get()
        assert stack[-1] is self
        _TAPE_STACK.set(stack[:-1])

    def __len__(self) -> int:
        return self._count

    def _record(self, out: "Tensor", parents: tuple["Tensor", ...], fn: Callable) -> None:
        self._records.append((out, parents, fn))
        self._count += 1

    def backward(self, loss: "Tensor") -> None:
        """Populate ``grad`` for every requires_grad leaf on this tape.

        Leaves are the requires_grad tensors the tape reads but did not
        produce.  Those reachable from ``loss`` receive d(loss)/d(leaf);
        those that do not influence ``loss`` get a zero gradient buffer.
        Tensors the tape produced end with ``grad`` None: each record, and
        its output's gradient, is released as soon as it has run, so the
        tape can be replayed only once.
        """
        if self._replayed:
            raise ContractError("backward already ran on this tape, which released its "
                                "records as it replayed them; record the loss again")
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
        self._replayed = True

        # popping a record drops its closure and what it saved; taking the
        # output's gradient means an intermediate's gradient lives only
        # from its last consumer's backward to its own
        records = self._records
        while records:
            out, _, fn = records.pop()
            g, out.grad = out.grad, None
            if g is not None:
                fn(g)

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


def _sigmoid_into(x: Array, out: Array, e: Array | None = None) -> Array:
    """σ(x) written into ``out``, which may be ``x`` itself, and returned.

    e = exp(−|x|) ≤ 1 never overflows; σ is 1/(1+e) for x ≥ 0 and e/(1+e)
    below.  ``e`` is an optional scratch buffer of x's shape.
    """
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, x >= 0, out=out)  # 1 for x ≥ 0, e below
    e += 1.0
    return np.divide(out, e, out=out)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid_into(x.data, np.empty_like(x.data))

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
            if b.ndim == 2:
                # a plain weight: one flat GEMM over all of a's rows
                _accumulate(a, (g.reshape(-1, b.shape[1]) @ b.data.T).reshape(a.shape))
            else:
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map along the last axis: ``x @ w + b`` for a (D_in, D_out)
    weight and a (D_out,) bias.

    One record, which keeps only its output.  The forward value and every
    gradient are those of ``bias_add(matmul(x, w), b)``, bit for bit,
    without the second record and the product it would hold.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(
            f"linear: weight {w.shape} and bias {b.shape} do not fit input {x.shape}"
        )
    out = np.matmul(x.data, w.data)
    out += b.data

    def back(g):
        if x.requires_grad:
            _accumulate(x, (g.reshape(-1, w.shape[1]) @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, _summed_matmul(np.swapaxes(x.data, -1, -2), g, w.shape))
        _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make(out, (x, w, b), back)


def _conv_bank(x: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor] | None,
               dilation: int, stride: int) -> tuple[Array, Callable[[Array], None]]:
    """The forward value of a kernel bank and the backward that goes with it.

    Returns the (B, T_out, ..., ΣC_j) output and ``back(g)``, which takes
    the output's gradient in any shape with ΣC_j columns and accumulates
    the gradients of ``x``, the kernels and the biases.  :func:`conv1d`
    and :func:`gated_conv1d` share it, so the per-tap GEMM loop exists once.
    """
    shapes = [k.shape for k in kernels]
    if dilation < 1 or stride < 1:
        raise DimensionError("conv1d: dilation and stride must be >= 1")
    if x.ndim < 3:
        raise DimensionError(f"conv1d: input must be (B, T, ..., C_in), got {x.shape}")
    c_in = x.shape[-1]
    if not shapes or any(len(sh) != 3 or sh[1] != c_in for sh in shapes):
        raise DimensionError(f"conv1d: kernels {shapes} are not (C_j, {c_in}, k_j)")
    if biases is not None and [b.shape for b in biases] != [sh[:1] for sh in shapes]:
        raise DimensionError(f"conv1d: biases {[b.shape for b in biases]} do not match {shapes}")
    k_max = max(sh[2] for sh in shapes)
    t = x.shape[1]
    span = (k_max - 1) * dilation
    if t <= span:
        raise SequenceTooShortError(
            f"conv1d: input length {t} too short for {k_max} taps with dilation "
            f"{dilation} (needs ≥ {span + 1})"
        )
    t_out = (t - span - 1) // stride + 1
    win = (t_out - 1) * stride + 1
    offsets = [span - dilation * tau for tau in range(k_max)]
    n_batch = x.shape[0]
    tap_shape = (n_batch, t_out) + x.shape[2:-1]
    xd = np.ascontiguousarray(x.data)
    # one contiguous (C_in, ΣC_j) weight per tap; kernel j fills columns
    # cols[j] of its first k_j taps
    ends = list(itertools.accumulate(sh[0] for sh in shapes))
    cols = [slice(end - sh[0], end) for sh, end in zip(shapes, ends)]
    c_out = ends[-1]
    w = np.zeros((k_max, c_in, c_out))
    for k, col in zip(kernels, cols):
        w[:k.shape[2], :, col] = k.data.transpose(2, 1, 0)

    def rows(off: int) -> Array:
        """(B, T_out·…, C_in) input rows read by the tap at ``off``; a view at stride 1."""
        return xd[:, off:off + win:stride].reshape(n_batch, -1, c_in)

    out = rows(offsets[0]) @ w[0]
    if k_max > 1:
        tap = np.empty_like(out)  # each later tap's product, one buffer for all
        for off, w_tap in zip(offsets[1:], w[1:]):
            np.matmul(rows(off), w_tap, out=tap)
            out += tap
        del tap
    if biases is not None:
        out += np.concatenate([b.data for b in biases])

    def back(g):
        g2 = g.reshape(-1, c_out)
        if any(k.requires_grad for k in kernels):
            g3 = g2.reshape(n_batch, -1, c_out)
            gw = np.empty_like(w)
            for tau, off in enumerate(offsets):
                # (B, C_in, R) × (B, R, ΣC_j), summed over the batch
                gw[tau] = np.matmul(rows(off).transpose(0, 2, 1), g3).sum(axis=0)
            for k, col in zip(kernels, cols):
                _accumulate(k, gw[:k.shape[2], :, col].transpose(2, 1, 0))
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for tau, off in enumerate(offsets):
                gx[:, off:off + win:stride] += (g2 @ w[tau].T).reshape(tap_shape + (c_in,))
            _accumulate(x, gx)
        if biases is not None:
            gb = g2.sum(axis=0)
            for b, col in zip(biases, cols):
                _accumulate(b, gb[col])

    return out.reshape(tap_shape + (c_out,)), back


def conv1d(x: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor] | None = None,
           dilation: int = 1, stride: int = 1) -> Tensor:
    """Causal valid 1-D convolution of channel-last input with a kernel bank.

    ``x`` has shape (B, T, ..., C_in) with time on axis 1.  Kernel j has
    shape (C_j, C_in, k_j) and the optional bias j (C_j,); the outputs of
    the kernels are concatenated in order along the last axis, so the
    output is (B, T_out, ..., ΣC_j) with
    ``T_out = (T - (k_max-1)*dilation - 1) // stride + 1``; with stride 1
    that is exactly ``T - (k_max-1)*dilation``.  Tap 0 of every kernel
    aligns with the most recent sample, so output step j sees inputs at
    positions ``j*stride + (k_max-1)*dilation - dilation*tau``, and a
    k-tap kernel acts as a k_max-tap kernel whose taps k..k_max−1 are zero.

    Each tap is one GEMM of a (B, T_out·…, C_in) view of the input against
    the tap's (C_in, ΣC_j) weight, accumulated in tap order through one
    reused product buffer.  The backward pass runs the same per-tap GEMMs,
    adds each tap's input gradient into a strided view of the input
    gradient, and splits the weight and bias gradients back per kernel.
    """
    out, back = _conv_bank(x, kernels, biases, dilation, stride)
    return _make(out, (x, *kernels, *(biases or ())), back)


def gated_conv1d(x: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor],
                 dilation: int, rate: float, training: bool,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Gated temporal convolution: σ(a) ⊙ tanh(b), then inverted dropout.

    a and b are the first and second half of the channels of the stride-1
    :func:`conv1d` of ``x`` with the bank, so the output is
    (B, T_out, ..., ΣC_j / 2) and lies in (−1, 1) before dropout.  Dropout
    is inverted: in training mode at a rate above 0 it draws
    ``rng.random(shape) >= rate`` and scales the survivors by
    1 / (1 − rate); otherwise it is the identity, and draws nothing.

    One record, computed in place: one buffer the size of the bank's
    (…, ΣC_j) output takes σ(a) in its first half and tanh(b) in its
    second, with the arithmetic of :func:`sigmoid` and :func:`tanh`, and
    the convolution output is freed.  The record keeps that buffer and the
    boolean mask, besides its output; the gated product before dropout is
    never stored, and the backward pass overwrites the activations with
    their derivatives.
    """
    if sum(k.shape[0] for k in kernels) % 2:
        raise DimensionError(f"gated_conv1d: bank of {[k.shape for k in kernels]} has an "
                             f"odd number of output channels to split into two halves")
    y, bank_back = _conv_bank(x, kernels, biases, dilation, 1)
    c = y.shape[-1] // 2
    shape = y.shape[:-1] + (c,)
    y = y.reshape(-1, 2 * c)
    # σ(a) and tanh(b), as ``sigmoid`` and ``tanh`` compute them, each in a
    # contiguous half of one buffer, which replaces the convolution output
    act = np.empty((2, y.shape[0], c))
    sig, th = act
    _sigmoid_into(y[:, :c], sig, th)
    np.tanh(y[:, c:], out=th)
    del y
    xi = sig * th
    mask = _dropout_mask(shape, rate, training, rng)
    if mask is not None:
        scale = 1.0 / (1.0 - rate)
        xi *= mask.reshape(-1, c)
        xi *= scale

    def back(g):
        g = g.reshape(-1, c)
        if mask is not None:
            g = g * mask.reshape(-1, c)
            g *= scale
        gy = np.empty((g.shape[0], 2 * c))
        # the product's two sides, then each activation's derivative from
        # its output, overwriting the saved activations (a record runs once)
        np.multiply(g, sig, out=gy[:, c:])
        g_sig = g * th
        np.multiply(th, th, out=th)
        np.subtract(1.0, th, out=th)
        gy[:, c:] *= th
        g_sig *= sig
        np.subtract(1.0, sig, out=sig)
        g_sig *= sig
        gy[:, :c] = g_sig
        del g_sig
        bank_back(gy)

    return _make(xi.reshape(shape), (x, *kernels, *biases), back)


def skip_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of each node's whole history: (B, T, N, C) → (B, N, S).

    Node n of sample i reads ``x[i, :, n, :]`` as one T·C vector, time-major
    with channels fastest, against ``w`` (T·C, S) and adds ``b`` (S,).  The
    (B, N, T·C) flatten is formed only transiently, once in each pass, so
    the record holds no copy of ``x``, whose producer keeps it anyway.
    """
    if x.ndim != 4 or w.ndim != 2 or w.shape[0] != x.shape[1] * x.shape[3] \
            or b.shape != (w.shape[1],):
        raise DimensionError(
            f"skip_linear: weight {w.shape} and bias {b.shape} do not fit "
            f"(B, T, N, C) features {x.shape}"
        )
    n_batch, t, n, c = x.shape
    s = w.shape[1]
    out = np.matmul(x.data.transpose(0, 2, 1, 3).reshape(n_batch, n, t * c), w.data)
    out += b.data

    def back(g):
        g2 = g.reshape(-1, s)
        if x.requires_grad:
            gx = (g2 @ w.data.T).reshape(n_batch, n, t, c).transpose(0, 2, 1, 3)
            _accumulate(x, gx)
        if w.requires_grad:
            # the flatten's transpose, (T·C, B·N), copied straight from x
            _accumulate(w, x.data.transpose(1, 3, 0, 2).reshape(t * c, -1) @ g2)
        _accumulate(b, g2.sum(axis=0))

    return _make(out, (x, w, b), back)


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


_PAIR_BLOCK = 1 << 17  # hidden-layer elements per block of the pair scorer


class _PairScorer:
    """k two-layer ReLU perceptrons over every ordered node pair, in blocks.

    ``alpha`` is (..., N, C); each head is ``(w1, b1, w2, b2)`` with shapes
    (2C, H), (H,), (H, 1), (1,), H shared by all heads.  Head h's raw score
    of the pair input ``α_i ‖ α_j`` is
    ``relu([α_i, α_j] @ w1 + b1) @ w2 + b2``.

    Splitting ``w1 = [W_L; W_R]`` makes the pre-activation the outer sum
    ``(α W_L)_i + (α W_R)_j + b1``, so the (..., N², 2C) pair tensor is
    never built, and all heads share one GEMM per side.  Both passes walk
    the leading axes in blocks of whole graphs, about 1 MB of hidden
    layer each so that a block's passes run in cache, through one buffer
    per pass.  A block is never less than one graph, so from N ≥ 58 (at
    kH = 40) one graph's (N, N, kH) hidden layer outgrows the 1 MB aim and
    each pass runs out of cache: a block is 34 MB at N = 325.  Nothing here
    outlives a pass but the (kH, ·) weight layouts: the projections and the
    hidden layer are rebuilt by each.
    """

    def __init__(self, alpha: Tensor, heads: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
                 op: str):
        if alpha.ndim < 2 or not heads:
            raise DimensionError(
                f"{op} needs (..., N, C) embeddings and at least one head, "
                f"got {alpha.shape} and {len(heads)} heads"
            )
        c, k, hd = alpha.shape[-1], len(heads), heads[0][0].shape[-1]
        for head in heads:
            shapes = tuple(p.shape for p in head)
            if shapes != ((2 * c, hd), (hd,), (hd, 1), (1,)):
                raise DimensionError(
                    f"{op}: head shapes {shapes} do not fit {2 * c} pair "
                    f"features and {hd} hidden units"
                )
        self.alpha, self.heads = alpha, heads
        self.k, self.hd = k, hd
        self.width = width = k * hd
        self.w_left = np.concatenate([w1.data[:c] for w1, _, _, _ in heads], axis=1)
        self.w_right = np.concatenate([w1.data[c:] for w1, _, _, _ in heads], axis=1)
        self.b1 = np.concatenate([b1.data for _, b1, _, _ in heads])
        # block-diagonal output layer: head i reads only its own hidden units
        self.w2 = np.zeros((width, k))
        for i, (_, _, w2, _) in enumerate(heads):
            self.w2[i * hd:(i + 1) * hd, i] = w2.data[:, 0]
        self.b2 = np.concatenate([b2.data for _, _, _, b2 in heads])
        self.n = n = alpha.shape[-2]
        self.flat_alpha = alpha.data.reshape(-1, n, c)
        rows = self.rows = self.flat_alpha.shape[0]
        step = max(1, _PAIR_BLOCK // (n * n * width))
        self.blocks = [slice(r, min(r + step, rows)) for r in range(0, rows, step)]

    def projections(self) -> tuple[Array, Array]:
        """(rows, N, kH) left and right projections; b1 rides on the left."""
        return self.flat_alpha @ self.w_left + self.b1, self.flat_alpha @ self.w_right

    def walk(self, left: Array, right: Array) -> Iterator[tuple[slice, Array]]:
        """Each block of graphs with its hidden layer relu(L_i + R_j + b1),
        (graphs, N, N, kH), written into one buffer that the next block
        reuses."""
        n = self.n
        buf = np.empty((self.blocks[0].stop, n, n, self.width))
        for rs in self.blocks:
            pre = buf[:rs.stop - rs.start]
            np.copyto(pre, left[rs, :, None, :])
            pre += right[rs, None, :, :]
            np.maximum(pre, 0.0, out=pre)
            yield rs, pre

    def scores(self, hidden: Array) -> Array:
        """(graphs, N, N, k) raw scores from a block's hidden layer."""
        s = (hidden.reshape(-1, self.width) @ self.w2).reshape(hidden.shape[:3] + (self.k,))
        s += self.b2
        return s

    def backward(self, score_grads: Callable[[slice, Array], Sequence[Array]]) -> None:
        """Accumulate the gradients of α and of every head parameter.

        ``score_grads(rs, hidden)`` returns each head's (graphs, N, N)
        gradient of its scores for the block ``rs``, given the block's
        recomputed hidden layer, which it must leave as it is.  The hidden
        layer then becomes its ReLU mask, 0.0 / 1.0, and the mask weighted
        by each head's gradient is reduced over j (left half) and over i
        (right half) with one batched product per head; the output weight
        scales those sums after the reduction, and its own gradient is read
        off them and the two projections.
        """
        k, hd, n, width, alpha = self.k, self.hd, self.n, self.width, self.alpha
        left, right = self.projections()
        g_left = np.empty((self.rows, n, width))
        g_right = np.empty((self.rows, n, width))
        g_b2 = np.zeros(k)
        for rs, live in self.walk(left, right):
            grads = score_grads(rs, live)
            np.greater(live, 0.0, out=live)  # the ReLU mask as 0.0 / 1.0
            for i, g_ij in enumerate(grads):
                cols = slice(i * hd, (i + 1) * hd)
                g_ij = np.ascontiguousarray(g_ij)
                g_ji = np.ascontiguousarray(g_ij.transpose(0, 2, 1))
                # Σ_j and Σ_i of g·mask: one (1 × N) @ (N × H) product per
                # row i, and per column j
                np.matmul(g_ij[:, :, None, :], live[..., cols],
                          out=g_left[rs, :, None, cols])
                np.matmul(g_ji[:, :, None, :], live[..., cols].transpose(0, 2, 1, 3),
                          out=g_right[rs, :, None, cols])
                g_b2[i] += g_ij.sum()
        # a live unit's hidden value is L_i + R_j, so Σ_ij g·hidden, the
        # output weight's gradient, splits into Σ_i L_i·(Σ_j g·mask) +
        # Σ_j R_j·(Σ_i g·mask): head i's (H, 1) block from the (rows, N, kH)
        # sums, without another pass over the hidden layer
        g_w2 = (np.einsum("rnu,rnu->u", left, g_left)
                + np.einsum("rnu,rnu->u", right, g_right))
        del left, right
        # the output weight is constant over i and j, so it scales the sums
        w2_all = self.w2.sum(axis=1)  # each hidden unit's output weight
        g_left *= w2_all
        g_right *= w2_all
        g_left = g_left.reshape(-1, width)
        g_right = g_right.reshape(-1, width)
        g_b1 = g_left.sum(axis=0)
        if alpha.requires_grad:
            g_alpha = g_left @ self.w_left.T + g_right @ self.w_right.T
            _accumulate(alpha, g_alpha.reshape(alpha.shape))
        a2 = self.flat_alpha.reshape(-1, self.flat_alpha.shape[-1])
        g_w_left = a2.T @ g_left
        g_w_right = a2.T @ g_right
        for i, (w1, b1, w2, b2) in enumerate(self.heads):
            cols = slice(i * hd, (i + 1) * hd)
            _accumulate(w1, np.concatenate([g_w_left[:, cols], g_w_right[:, cols]]))
            _accumulate(b1, g_b1[cols])
            _accumulate(w2, g_w2[cols, None])
            _accumulate(b2, g_b2[i:i + 1])

    def parents(self) -> tuple[Tensor, ...]:
        return (self.alpha,) + tuple(p for head in self.heads for p in head)


def pairwise_mlp(alpha: Tensor,
                 heads: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]]) -> Tensor:
    """Score every ordered node pair with k two-layer ReLU perceptrons.

    Output ``[..., i, j, h]`` is head h's raw (pre-output-activation) score
    of the pair input ``α_i ‖ α_j``; see :class:`_PairScorer` for the
    heads' shapes and the blocked outer-sum evaluation.  The record keeps
    the (..., N, N, k) scores, and its backward recomputes the hidden
    layer instead of keeping it.
    """
    sc = _PairScorer(alpha, heads, "pairwise_mlp")
    n, k = sc.n, sc.k
    out = np.empty((sc.rows, n, n, k))
    for rs, hidden in sc.walk(*sc.projections()):
        out[rs] = sc.scores(hidden)

    def back(g):
        g4 = g.reshape(sc.rows, n, n, k)
        sc.backward(lambda rs, _: [g4[rs, ..., i] for i in range(k)])

    return _make(out.reshape(alpha.shape[:-1] + (n, k)), sc.parents(), back)


def pairwise_graph(alpha: Tensor, heads: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
                   ) -> tuple[Tensor, Array]:
    """Row-normalized gated graphs from an edge and a mask perceptron.

    ``heads`` is (edge, mask), as for :func:`pairwise_mlp`.  With s_e and
    s_m their scores, the graph is A = relu(s_e) ⊙ σ(s_m) and the output is
    Ā = A / r, r = Σ_j A the row sums; a row of A that is all zero passes
    through as zeros.  Returns Ā (..., N, N) and r (..., N, 1), so that
    A = Ā ⊙ r.

    One record, which keeps only Ā and the divisors (r, with 1 for an
    all-zero row): the backward recomputes each block's hidden layer, reads
    both scores off it with the forward's (kH, k) product, and takes the
    gradient through the row normalization, σ and the ReLU there, so every
    (..., N, N) intermediate lives for one block only.  The forward runs the
    elementwise ops of the chain it replaces (ReLU, σ, product, row sum and
    division) in the same order, so its values are those of the chain.
    """
    if len(heads) != 2:
        raise DimensionError(f"pairwise_graph needs an edge and a mask head, "
                             f"got {len(heads)} heads")
    sc = _PairScorer(alpha, heads, "pairwise_graph")
    n = sc.n
    out = np.empty((sc.rows, n, n))  # A, then Ā in place
    r = np.empty((sc.rows, n, 1))
    for rs, hidden in sc.walk(*sc.projections()):
        s = sc.scores(hidden)
        a = np.maximum(s[..., 0], 0.0, out=out[rs])
        a *= _sigmoid_into(s[..., 1], np.empty(a.shape))
        a.sum(axis=-1, keepdims=True, out=r[rs])
    # an all-zero row divides by 1 and stays zero
    safe_r = np.where(r > 0, r, 1.0)
    out /= safe_r

    def back(g):
        g3 = g.reshape(sc.rows, n, n)

        def score_grads(rs: slice, hidden: Array) -> tuple[Array, Array]:
            s = sc.scores(hidden)
            s_e, s_m = s[..., 0], s[..., 1]
            sig = _sigmoid_into(s_m, np.empty(s_e.shape))
            g_rs = g3[rs]
            g_a = np.multiply(g_rs, out[rs])
            np.subtract(g_rs, g_a.sum(axis=-1, keepdims=True), out=g_a)
            g_a /= safe_r[rs]
            g_edge = g_a * sig
            g_edge *= s_e > 0
            g_mask = g_a * np.maximum(s_e, 0.0)
            g_mask *= sig
            g_mask *= np.subtract(1.0, sig, out=sig)
            return g_edge, g_mask

        sc.backward(score_grads)

    lead = alpha.shape[:-2]
    return _make(out.reshape(lead + (n, n)), sc.parents(), back), r.reshape(lead + (n, 1))


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
    GEMM on r ⊙ α for o.  The record keeps the r ‖ u gates, the candidates
    o and the output, and nothing else: the backward pass rebuilds the
    time-major γ from ``gammas``, each step's previous state from
    ``alpha0`` and the output, and r ⊙ α from those.  That is safe because
    γ and α₀ are parents whose producers keep them, this backward runs
    before theirs, and no op writes a parent's data in place.  It runs back
    through time with only the two products with the state weights'
    transposes in its loop; the weight, bias and γ gradients are single
    GEMMs over all steps after it.  Per-step arrays are time-major, so each
    step's slice is contiguous.
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

    def gam() -> Array:
        """γ time-major, (M·B·N, C)."""
        return gammas.data.transpose(1, 0, 2, 3).reshape(m * rows, c)

    pre = (gam() @ w_in + np.concatenate([b_r.data, b_u.data, b_o.data])).reshape(m, rows, 3 * hd)
    states = np.empty((m + 1, rows, hd))
    states[0] = alpha0.data.reshape(rows, hd)
    # r ‖ u and o of every step for the backward pass, one reused slot
    # when nothing is recorded; r ⊙ α always has one slot
    keep = m if track else 1
    gates = np.empty((keep, rows, 2 * hd))
    cand = np.empty((keep, rows, hd))
    ra = np.empty((rows, hd))
    for t in range(m):
        k = t if track else 0
        a, ru, o = states[t], gates[k], cand[k]
        np.matmul(a, w_ru, out=ru)
        ru += pre[t, :, :2 * hd]
        _sigmoid_into(ru, ru)
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
        r, u = gates[..., :hd], gates[..., hd:]
        # the state each step read
        prev = np.concatenate([alpha0.data[None], out.swapaxes(0, 1)[:-1]]).reshape(m, rows, hd)
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
        g_in = gam().T @ d_flat
        g_ru = prev.reshape(-1, hd).T @ d_flat[:, :2 * hd]
        g_oa = (r * prev).reshape(-1, hd).T @ d_flat[:, 2 * hd:]
        g_bias = d_flat.sum(axis=0)
        for i, (w, v, g_a) in enumerate(((w_r, b_r, g_ru[:, :hd]), (w_u, b_u, g_ru[:, hd:]),
                                         (w_o, b_o, g_oa))):
            cols = slice(i * hd, (i + 1) * hd)
            _accumulate(w, np.concatenate([g_in[:, cols], g_a]))
            _accumulate(v, g_bias[cols])

    return _make(out, parents, back)


def mixhop(xi: Tensor, adj: Tensor, weights: Sequence[Tensor], beta: float) -> Tensor:
    """Mix-hop propagation of depth Ψ = len(weights) − 1: Σₖ Hₖ Wₖ.

    H₀ = ξ and Hₖ = β·ξ + (1 − β)·Â·Hₖ₋₁.  ``xi`` is (..., N, C_in),
    ``adj`` (..., N, N) with leading axes that broadcast against ξ's (such
    as (B, 1, N, N) or (B, M, 1, N, N) against (B, M, d, N, C)), and each
    weight is (C_in, C_out).  The forward pass runs the hops in place with
    β·ξ computed once, in the operation order of the per-hop op chain, and
    holds nothing beyond the hop in flight.  The record keeps only its
    output: the backward pass rebuilds H₁ … H_Ψ from ξ and Â in the
    forward's own op order, so they, and every gradient, are bitwise those
    of the forward.  That is safe because ξ and Â are parents whose
    producers keep them, this backward runs before theirs, and no op
    writes a parent's data in place.  It then runs
    dHₖ = g·Wₖᵀ + (1 − β)·Âᵀ·dHₖ₊₁ down the hops.  Each weight gradient is
    one flat GEMM over all rows, and the adjacency gradient is folded over
    the broadcast leading axes by :func:`_summed_matmul`.  Operands that
    need no gradient get none.
    """
    if not weights:
        raise DimensionError("mixhop needs at least one projection weight")
    if xi.ndim < 2 or adj.ndim < 2:
        raise DimensionError(f"mixhop: features {xi.shape} and adjacency {adj.shape} "
                             f"need at least 2 dimensions")
    n, c_in = xi.shape[-2:]
    c_out = weights[0].shape[-1]
    try:
        lead = np.broadcast_shapes(adj.shape[:-2], xi.shape[:-2])
    except ValueError:
        lead = None
    if adj.shape[-2:] != (n, n) or lead != xi.shape[:-2]:
        raise DimensionError(f"mixhop: adjacency {adj.shape} does not fit features {xi.shape}")
    if any(w.shape != (c_in, c_out) for w in weights):
        raise DimensionError(
            f"mixhop: weights {[w.shape for w in weights]} do not all map "
            f"{c_in} to {c_out} channels"
        )
    beta = float(beta)
    keep = 1.0 - beta

    def walk() -> Iterator[Array]:
        """H₁ … H_Ψ, each a new array, in the one op order both passes use."""
        if len(weights) == 1:
            return
        x, a = xi.data, adj.data
        retained = x * beta
        h = x
        for _ in weights[1:]:
            h = np.matmul(a, h)
            h *= keep
            h += retained
            yield h

    out = np.matmul(xi.data, weights[0].data)
    for h, w in zip(walk(), weights[1:]):
        out += np.matmul(h, w.data)

    def back(g):
        hops = [xi.data, *walk()]
        # the projections act on the channel axis alone, so their gradients
        # are flat (rows, C) GEMMs
        g2 = g.reshape(-1, c_out)
        for w, hk in zip(weights, hops):
            if w.requires_grad:
                _accumulate(w, hk.reshape(-1, c_in).T @ g2)
        if not (xi.requires_grad or adj.requires_grad):
            return

        def projected_back(k: int) -> Array:
            return (g2 @ weights[k].data.T).reshape(xi.shape)

        def graph_back(d: Array) -> Array:
            """(1 − β)·Âᵀ·d"""
            out = np.matmul(a_t, d)
            out *= keep
            return out

        a_t = np.swapaxes(adj.data, -1, -2)
        g_x = projected_back(0) if xi.requires_grad else None
        g_adj = None
        d = None  # dHₖ₊₁ on the way down
        for k in range(len(weights) - 1, 0, -1):
            dk = projected_back(k)
            if d is not None:
                dk += graph_back(d)
            if adj.requires_grad:
                term = _summed_matmul(dk, np.swapaxes(hops[k - 1], -1, -2), adj.shape)
                if g_adj is None:
                    g_adj = term
                else:
                    g_adj += term
            if g_x is not None and beta:
                g_x += beta * dk
            d = dk
        if g_x is not None:
            if d is not None:
                g_x += graph_back(d)
            _accumulate(xi, g_x)
        if g_adj is not None:
            g_adj *= keep
            _accumulate(adj, g_adj)

    return _make(out, (xi, adj) + tuple(weights), back)


def broadcast_leading(x: Tensor, n: int) -> Tensor:
    """Materialise ``n`` copies of ``x`` along a new leading axis."""
    out = np.broadcast_to(x.data, (n,) + x.shape).copy()

    def back(g, x=x):
        _accumulate(x, g.sum(axis=0))

    return _make(out, (x,), back)


# ---------------------------------------------------------------------------
# Regularisation / normalisation

def _dropout_mask(shape: tuple[int, ...], rate: float, training: bool,
                  rng: np.random.Generator | None) -> Array | None:
    """Inverted dropout's boolean keep mask, or None where dropout is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ContractError("dropout in training mode needs an rng")
    return rng.random(shape) >= rate


def layer_norm_residual(x: Tensor, gain: Tensor, bias: Tensor, residual: Tensor,
                        eps: float = 1e-8) -> Tensor:
    """Layer normalisation along the last axis, then affine, plus a residual.

    ``(x − μ) / √(σ² + eps) · gain + bias + residual`` with μ and σ² the
    mean and variance of each last-axis row of ``x``; ``residual`` has
    ``x``'s shape.  One record: the forward pass computes x − μ, the
    scale, the bias and the residual in one buffer, the output, and the
    record keeps only the per-row mean and 1/√(σ² + eps).  The backward
    pass recomputes x̂ from ``x``, which its producer's record keeps anyway.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm_residual: gain/bias must have shape ({d},), got "
            f"{gain.shape}/{bias.shape}"
        )
    _check_same_shape(x, residual, "layer_norm_residual")
    mu = x.data.mean(axis=-1, keepdims=True)
    out = x.data - mu
    var = (out * out).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out *= inv_std
    out *= gain.data
    out += bias.data
    out += residual.data

    def back(g):
        xhat = x.data - mu
        xhat *= inv_std
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            # inv_std · (g·gain − mean(g·gain) − x̂ · mean(g·gain·x̂))
            gd = g * gain.data
            m1 = gd.mean(axis=-1, keepdims=True)
            m2 = (gd * xhat).mean(axis=-1, keepdims=True)
            gd -= m1
            xhat *= m2
            gd -= xhat
            gd *= inv_std
            _accumulate(x, gd)
        _accumulate(residual, g)

    return _make(out, (x, gain, bias, residual), back)


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
