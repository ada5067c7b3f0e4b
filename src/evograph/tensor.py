"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is what the forecasting model runs: elementwise
arithmetic, tanh, ReLU and |·|, whole-tensor sums and means (a loss is
one), segment means, slicing/reshaping, a leading-axis broadcast, and
seven fused ops that run the architecture's layers.  Slices
(:func:`narrow`, :func:`select`) are views of their input, and their
backward adds into the input's gradient buffer in place.

The model's sequences are node-major, (B, N, T, C): the ops that run
along time take it as axis −2, and those that mix nodes see each node's
steps as one row.  :func:`_conv_bank` is the convolution under
:func:`gated_conv1d` and :func:`static_features`'s second convolution.  It
works on channel-last (..., T, C) input, the leading axes one batch of
sequences.  It takes a bank of kernels of possibly different widths, all
aligned on the most recent sample, each with its bias, and concatenates
their outputs along the channel axis, so a whole inception layer is one
record.  Both passes walk the sequences in cache-sized chunks, so that the
output never exists whole, and each tap is one batched GEMM over a
(chunk, T_out, C) view of the input, so no im2col copy is made.

Gradients are recorded on an explicit :class:`Tape`. Each operation
appends one record holding the output tensor, its parents and a backward
closure; because records are appended in execution order the tape is
already topologically sorted, and :meth:`Tape.backward` replays it once,
in reverse, popping each record as it runs it.  A record's saved arrays and
its output's gradient are freed as soon as the record has run, so only
leaves (requires_grad tensors the tape did not produce) keep a gradient.
Outside an active tape (or under :func:`no_grad`) operations compute
forward values only.

Design constraints: float64 everywhere; no broadcasting and no scalar
operands — shape adaptation happens inside an op (a bias inside
:func:`linear`) or through an explicit one (:func:`broadcast_leading`), so
every backward rule stays auditable.
Seven ops are fused, each one tape record with a hand-written backward,
so that a record keeps only what its backward reads:

- :func:`pairwise_graph` scores all node pairs with an edge and a mask
  perceptron without materialising the pair tensor, gates and
  row-normalizes the result, and keeps only the normalized graphs and
  their row sums: the backward rebuilds the hidden layer and the scores
  one block of graphs at a time;
- :func:`gru_sequence` runs a whole GRU recurrence, keeping only its
  output: the backward rebuilds every step's previous state from the
  output, and from those every step's gates and candidates at once,
  through the one cell body the forward's steps run;
- :func:`mixhop` runs every hop and projection of mix-hop graph
  propagation, for every run of equal-length segments of a layer into one
  output buffer, each hop one GEMM per graph, on chunks of whole samples
  of about ``_BANK_BLOCK`` elements, keeping only its output: the backward
  rebuilds one chunk's hop states at a time from ξ and Â, frees each at
  its last use, and always forms ξ's gradient;
- :func:`gated_conv1d` runs a kernel bank with its σ·tanh gating and
  dropout fused in, chunk by chunk, keeping σ, the dropout mask and its
  output: the backward walks the same chunks and reads tanh back from the
  output;
- :func:`static_features` runs the static extractor's two strided
  convolutions, their tanh and the time mean node chunk by node chunk,
  conv2's tanh fused into its bank's chunks, keeping only its parents: the
  backward recomputes both convolutions one chunk at a time;
- :func:`layer_norm_residual` normalises, applies the affine map and adds
  a residual in one buffer, keeping a mean and a scale per row;
- :func:`linear` is an affine map that keeps only its output.

The generic ops that the tests chain into oracles for them (``conv1d``,
``matmul``, ``bias_add``, ``concat``, ``stack``, ``sigmoid``,
``row_normalize``) live with the tests, in ``tests/reference_ops.py``.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


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


def _tracking(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` is recorded."""
    return _active_tape() is not None and any(p.requires_grad for p in parents)


def _make(data: Array, parents: tuple[Tensor, ...], fn: Callable | None) -> Tensor:
    track = _tracking(parents)
    out = Tensor(data, requires_grad=track)
    if track:
        assert fn is not None
        _active_tape()._record(out, parents, fn)
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# Elementwise operations

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def back(g, a=a, b=b):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def back(g, a=a, b=b):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make(a.data - b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def back(g, a=a, b=b):
        # a constant operand (one that needs no gradient) costs no product
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
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

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map along the last axis: ``x @ w + b`` for a (D_in, D_out)
    weight and a (D_out,) bias.

    One record, which keeps only its output.  The forward value and every
    gradient are those of a matrix product and a bias add recorded as two
    ops, bit for bit, without the second record and the product it would
    hold.  Both the input and the weight gradient are one flat GEMM over
    all of ``x``'s rows.
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
            _accumulate(w, x.data.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1]))
        _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make(out, (x, w, b), back)


_BANK_BLOCK = 1 << 16  # output elements per chunk of _conv_bank's and mixhop's walks


def _blocks(count: int, size: int, block: int) -> list[slice]:
    """``count`` items of ``size`` elements each in consecutive slices of
    about ``block`` elements, never less than one item."""
    step = max(1, block // size)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _conv_bank(x: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor],
               dilation: int, stride: int,
               ) -> tuple[tuple[int, ...], Callable[[], Iterator[tuple[slice, Array]]],
                          Callable[[Callable[[slice], Array]], None]]:
    """A kernel bank's output shape, a walk of its forward value chunk by
    chunk, and the backward that goes with it.

    :func:`gated_conv1d` and :func:`static_features` share it, so the
    per-tap GEMM loop exists once.  ``x`` has shape (..., T, C_in), time on
    axis −2, and at least one leading axis; the leading axes are one batch
    of S sequences.  Kernel j has shape (C_j, C_in, k_j) and its bias j
    (C_j,); the outputs of the kernels are concatenated in order along the
    last axis, so the output is (..., T_out, ΣC_j) with
    ``T_out = (T - (k_max-1)*dilation - 1) // stride + 1``; with stride 1
    that is exactly ``T - (k_max-1)*dilation``.  Tap 0 of every kernel
    aligns with the most recent sample, so output step j sees inputs at
    positions ``j*stride + (k_max-1)*dilation - dilation*tau``, and a
    k-tap kernel acts as a k_max-tap kernel whose taps k..k_max−1 are zero.

    The output never exists whole: ``walk()`` yields each chunk of the S
    sequences, as a slice, with its (s, T_out, ΣC_j) output, about
    ``_BANK_BLOCK`` elements in one of two buffers that every chunk reuses,
    so a chunk's taps and its caller's epilogue run in cache.  Each tap is
    one batched GEMM over a (s, T_out, C_in) view of the input, so no
    im2col copy is made, and the taps are summed in tap order.
    ``back(grad)`` walks the same chunks, ``grad(ss)`` giving a chunk's
    output gradient: taps inner, it forms the chunk's rows of ∂x, bitwise
    those of one whole pass as the output is, and its partial sums of the
    kernel and bias gradients, which agree with one pass to rounding.
    """
    shapes = [k.shape for k in kernels]
    if dilation < 1 or stride < 1:
        raise DimensionError("conv1d: dilation and stride must be >= 1")
    if x.ndim < 3:
        raise DimensionError(f"conv1d: input must be (..., T, C_in), got {x.shape}")
    c_in = x.shape[-1]
    if not shapes or any(len(sh) != 3 or sh[1] != c_in for sh in shapes):
        raise DimensionError(f"conv1d: kernels {shapes} are not (C_j, {c_in}, k_j)")
    if [b.shape for b in biases] != [sh[:1] for sh in shapes]:
        raise DimensionError(f"conv1d: biases {[b.shape for b in biases]} do not match {shapes}")
    k_max = max(sh[2] for sh in shapes)
    t = x.shape[-2]
    span = (k_max - 1) * dilation
    if t <= span:
        raise SequenceTooShortError(
            f"conv1d: input length {t} too short for {k_max} taps with dilation "
            f"{dilation} (needs ≥ {span + 1})"
        )
    t_out = (t - span - 1) // stride + 1
    win = (t_out - 1) * stride + 1
    offsets = [span - dilation * tau for tau in range(k_max)]
    xd = np.ascontiguousarray(x.data).reshape(-1, t, c_in)
    # one contiguous (C_in, ΣC_j) weight per tap; kernel j fills columns
    # cols[j] of its first k_j taps
    ends = list(itertools.accumulate(sh[0] for sh in shapes))
    cols = [slice(end - sh[0], end) for sh, end in zip(shapes, ends)]
    c_out = ends[-1]
    w = np.zeros((k_max, c_in, c_out))
    for k, col in zip(kernels, cols):
        w[:k.shape[2], :, col] = k.data.transpose(2, 1, 0)
    bias = np.concatenate([b.data for b in biases])
    # a chunk's (s, C_in, ΣC_j) kernel-gradient partial sums fit a block too
    chunks = _blocks(len(xd), c_out * max(t_out, c_in), _BANK_BLOCK)

    def rows(off: int, ss: slice) -> Array:
        """Chunk ``ss``'s (s, T_out, C_in) input rows that the tap at ``off`` reads."""
        return xd[ss, off:off + win:stride]

    def walk() -> Iterator[tuple[slice, Array]]:
        out = np.empty((chunks[0].stop if chunks else 0, t_out, c_out))
        tap = np.empty_like(out)  # each later tap's product
        for ss in chunks:
            y, p = out[:ss.stop - ss.start], tap[:ss.stop - ss.start]
            np.matmul(rows(offsets[0], ss), w[0], out=y)
            for off, w_tap in zip(offsets[1:], w[1:]):
                np.matmul(rows(off, ss), w_tap, out=p)
                y += p
            y += bias
            yield ss, y

    def back(grad: Callable[[slice], Array]) -> None:
        gw = np.zeros_like(w) if any(k.requires_grad for k in kernels) else None
        # in x's own shape, so that it is accumulated without a copy
        gx = np.zeros(x.shape) if x.requires_grad else None
        gb = np.zeros(c_out)
        for ss in chunks:
            g3 = grad(ss)
            g2 = g3.reshape(-1, c_out)
            for tau, off in enumerate(offsets):
                if gw is not None:
                    # (s, C_in, T_out) × (s, T_out, ΣC_j), summed over the chunk
                    gw[tau] += np.matmul(rows(off, ss).transpose(0, 2, 1), g3).sum(axis=0)
                if gx is not None:
                    gx_rows = gx.reshape(-1, t, c_in)[ss, off:off + win:stride]
                    gx_rows += (g2 @ w[tau].T).reshape(gx_rows.shape)
            gb += g2.sum(axis=0)
        if gw is not None:
            for k, col in zip(kernels, cols):
                _accumulate(k, gw[:k.shape[2], :, col].transpose(2, 1, 0))
        if gx is not None:
            _accumulate(x, gx)
        for b, col in zip(biases, cols):
            _accumulate(b, gb[col])

    return x.shape[:-2] + (t_out, c_out), walk, back


_STATIC_BLOCK = 1 << 19  # first-convolution output elements per node chunk of static_features


def static_features(x: Tensor, k1: Tensor, b1: Tensor, k2: Tensor, b2: Tensor,
                    stride: int) -> Tensor:
    """Time mean of tanh(conv2(tanh(conv1(x)))): (N, T, C) → (N, C_h).

    conv1 and conv2 are the causal valid convolutions of :func:`_conv_bank`
    at ``stride``, with kernels ``k1`` (C_h, C, k₁) and ``k2`` (C_h, C_h, k₂)
    and biases ``b1`` and ``b2`` (C_h,).  ``x`` is data: it takes no
    gradient, and a ``x`` that requires one raises :class:`ContractError`.

    Nodes share only the weights, so both passes walk the nodes in chunks
    of about ``_STATIC_BLOCK`` conv1 output elements, and the transient is
    bounded whatever N·T is.  conv1 is one GEMM of a chunk's gathered
    (rows, k₁·C) taps against a (k₁·C, C_h) weight; conv2 is
    :func:`_conv_bank`'s per-tap loop, which walks a node chunk in smaller
    chunks of its own, its tanh applied to each as it is made.

    One record, which keeps only its parents: the backward recomputes both
    convolution outputs chunk by chunk, Chen et al.'s recompute-instead-of-
    store (arXiv 1604.06174), cheap here beside the rest of a step.  conv1's
    taps are summed inside one GEMM, so the value and gradients are those of
    the two banks, each followed by tanh, and the time mean, to rounding,
    not bit for bit.
    """
    if x.requires_grad:
        raise ContractError("static_features: the series is data and takes no gradient")
    if x.ndim != 3 or k1.ndim != 3 or k2.ndim != 3 or stride < 1 \
            or k1.shape[1] != x.shape[2] or k2.shape[:2] != (k1.shape[0],) * 2 \
            or b1.shape != k1.shape[:1] or b2.shape != k1.shape[:1]:
        raise DimensionError(
            f"static_features: series, kernels and biases "
            f"{tuple(p.shape for p in (x, k1, b1, k2, b2))} at stride {stride} "
            f"are not (N, T, C), (C_h, C, k1), (C_h,), (C_h, C_h, k2), (C_h,)"
        )
    n, t, c = x.shape
    c_h, _, k_a = k1.shape
    k_b = k2.shape[2]
    need = (k_b - 1) * stride + k_a
    if t < need:
        raise SequenceTooShortError(
            f"static_features: {t} steps too short for a {k_a}- and a {k_b}-tap "
            f"convolution at stride {stride} (needs ≥ {need})"
        )
    t1 = (t - k_a) // stride + 1
    chunks = _blocks(n, t1 * c_h, _STATIC_BLOCK)
    # row (c, w) of conv1's gathered weight is channel c at window position
    # w, which is tap k₁ − 1 − w: tap 0 sits on the most recent sample
    w1 = k1.data[:, :, ::-1].transpose(1, 2, 0).reshape(-1, c_h)

    def convolutions(rs: slice) -> tuple[Array, Tensor, Array, Callable[[Array], None]]:
        """A chunk's gathered conv1 taps, tanh(conv1) as a Tensor that takes
        conv2's input gradient, tanh(conv2) and conv2's backward."""
        windows = sliding_window_view(x.data[rs], k_a, axis=1)[:, ::stride]
        taps = windows.reshape(-1, c * k_a)
        y1 = taps @ w1
        y1 += b1.data
        np.tanh(y1, out=y1)
        h1 = Tensor(y1.reshape(-1, t1, c_h), requires_grad=True)
        shape, walk, conv2_back = _conv_bank(h1, [k2], [b2], 1, stride)
        y2 = np.empty(shape)
        for ss, y in walk():
            np.tanh(y, out=y2[ss])
        return taps, h1, y2, conv2_back

    out = np.empty((n, c_h))
    for rs in chunks:
        convolutions(rs)[2].mean(axis=1, out=out[rs])

    def back(g):
        g_w1 = np.zeros_like(w1)
        g_b1 = np.zeros(c_h)
        for rs in chunks:
            taps, h1, y2, conv2_back = convolutions(rs)
            # the mean's gradient g / T₂ through tanh: · (1 − y₂²)
            g2 = y2 * y2
            np.subtract(1.0, g2, out=g2)
            g2 *= g[rs, None, :] / y2.shape[1]
            conv2_back(lambda ss: g2[ss])
            del g2, y2
            # conv2's input gradient through tanh: · (1 − y₁²)
            g1 = h1.grad.reshape(-1, c_h)
            d1 = h1.data.reshape(-1, c_h) ** 2
            np.subtract(1.0, d1, out=d1)
            g1 *= d1
            g_w1 += taps.T @ g1
            g_b1 += g1.sum(axis=0)
            # freed before the next chunk's arrays are built, not after
            del taps, h1, conv2_back, g1, d1
        _accumulate(k1, g_w1.reshape(c, k_a, c_h).transpose(2, 0, 1)[:, :, ::-1])
        _accumulate(b1, g_b1)

    return _make(out, (x, k1, b1, k2, b2), back)


def gated_conv1d(x: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor],
                 dilation: int, rate: float, training: bool,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Gated temporal convolution: σ(a) ⊙ tanh(b), then inverted dropout.

    a and b are the first and second half of the channels of the stride-1
    :func:`_conv_bank` of ``x`` with the bank, so the output is
    (..., T_out, ΣC_j / 2) and lies in (−1, 1) before dropout.  Dropout
    is inverted: in training mode at a rate above 0 it keeps the units where
    ``rng.random(shape) >= rate`` and scales the survivors by
    1 / (1 − rate); otherwise it is the identity, and draws nothing.  The
    draw numbers the units time-major, with the output's time axis moved to
    axis 1: (B, T_out, N, C) for a (B, N, T_out, C) output, so a seed drops
    the same units whichever way the sequences are laid out.

    One record.  The gate is the epilogue of each chunk that
    :func:`_conv_bank` walks: it computes σ(a) and tanh(b) into arrays of
    their own, with the arithmetic of :func:`_sigmoid_into` and
    :func:`tanh`, and writes the chunk's rows of ξ, and of σ(a) only when a
    tape records.  The record keeps σ(a), the boolean mask and its output
    ξ.  The backward walks the same chunks and reads tanh(b) back as
    ξ / (σ·scale), to within a few roundings; where σ underflowed to 0 or
    the unit was dropped, both gradients are zero whatever tanh(b) is.  So
    the output is bitwise that of the op chain, and the gradients agree
    with it to rounding.  Reading the output is safe because no op writes
    its parents' data in place.
    """
    if sum(k.shape[0] for k in kernels) % 2:
        raise DimensionError(f"gated_conv1d: bank of {[k.shape for k in kernels]} has an "
                             f"odd number of output channels to split into two halves")
    parents = (x, *kernels, *biases)
    bank_shape, walk, bank_back = _conv_bank(x, kernels, biases, dilation, 1)
    t_out, c = bank_shape[-2], bank_shape[-1] // 2
    shape = bank_shape[:-1] + (c,)
    mask = _dropout_mask(shape[:1] + shape[-2:-1] + shape[1:-2] + shape[-1:],
                         rate, training, rng)
    if mask is not None:
        mask = np.ascontiguousarray(np.moveaxis(mask, 1, -2)).reshape(-1, c)
        scale = 1.0 / (1.0 - rate)
    # (sequences · T_out, C) rows; chunk ss owns rows ss.start·T_out onwards
    xi = np.empty((math.prod(shape[:-1]), c))
    sig = np.empty(xi.shape) if _tracking(parents) else None
    for ss, y in walk():
        y = y.reshape(-1, 2 * c)
        r = slice(ss.start * t_out, ss.stop * t_out)
        s = np.empty((len(y), c)) if sig is None else sig[r]
        th = np.empty_like(s)
        _sigmoid_into(y[:, :c], s, th)
        np.tanh(y[:, c:], out=th)
        np.multiply(s, th, out=xi[r])
        if mask is not None:
            xi[r] *= mask[r]
            xi[r] *= scale

    def back(g):
        g = g.reshape(-1, c)

        def grad(ss: slice) -> Array:
            r = slice(ss.start * t_out, ss.stop * t_out)
            gr, s = g[r], sig[r]
            # tanh(b) read back from the output as ξ / (σ·scale).  Where σ
            # underflowed to 0, ξ is 0 too and is divided by the smallest
            # subnormal instead, so it reads as 0; there, and where the unit
            # was dropped, both gradients are zero whatever tanh(b) is
            th = np.maximum(s, np.finfo(np.float64).smallest_subnormal)
            np.divide(xi[r], th, out=th)
            if mask is not None:
                th /= scale
                gr = gr * mask[r]
                gr *= scale
            gy = np.empty((len(gr), 2 * c))
            # the product's two sides, then each activation's derivative
            # from its output, overwriting σ and tanh(b) (a record runs once)
            np.multiply(gr, s, out=gy[:, c:])
            g_sig = gr * th
            np.multiply(th, th, out=th)
            np.subtract(1.0, th, out=th)
            gy[:, c:] *= th
            del th
            g_sig *= s
            np.subtract(1.0, s, out=s)
            g_sig *= s
            gy[:, :c] = g_sig
            return gy.reshape(-1, t_out, 2 * c)

        bank_back(grad)

    return _make(xi.reshape(shape), parents, back)


# ---------------------------------------------------------------------------
# Reductions and shape ops

def _axis(axis: int, ndim: int) -> int:
    """``axis`` of an ``ndim``-axis array as an index in [0, ndim)."""
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def reduce_sum(x: Tensor) -> Tensor:
    """The sum of every entry of ``x``, a () tensor."""
    out = x.data.sum()

    def back(g, x=x):
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _make(out, (x,), back)


def reduce_mean(x: Tensor) -> Tensor:
    """The mean of every entry of ``x``, a () tensor."""
    out = x.data.mean()

    def back(g, x=x):
        _accumulate(x, np.broadcast_to(g, x.shape) / x.size)

    return _make(out, (x,), back)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``: a view of ``x``."""
    ax = _axis(axis, x.ndim)
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
    ax = _axis(axis, x.ndim)
    if not 0 <= index < x.shape[ax]:
        raise DimensionError(f"select: index {index} out of bounds for extent {x.shape[ax]}")
    idx = (slice(None),) * ax + (index,)

    def back(g, x=x, idx=idx):
        _accumulate_at(x, idx, g)

    return _make(x.data[idx], (x,), back)


def segment_mean(x: Tensor, boundaries: Sequence[tuple[int, int]]) -> Tensor:
    """Mean over each range [start, stop) of axis −2: (..., T, C) → (..., M, C).

    The M ranges must tile [0, T) in order.
    """
    if x.ndim < 2:
        raise DimensionError(f"segment_mean: input must be (..., T, C), got {x.shape}")
    edges = [0] + [stop for _, stop in boundaries]
    lengths = np.diff(edges)
    if not boundaries or [start for start, _ in boundaries] != edges[:-1] \
            or np.any(lengths < 1) or edges[-1] != x.shape[-2]:
        raise DimensionError(
            f"segment_mean: {list(boundaries)} do not tile [0, {x.shape[-2]})"
        )
    out = np.stack([x.data[..., start:stop, :].mean(axis=-2) for start, stop in boundaries],
                   axis=-2)

    def back(g, x=x):
        _accumulate(x, np.repeat(g / lengths[:, None], lengths, axis=-2))

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


def pairwise_graph(alpha: Tensor, heads: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
                   ) -> tuple[Tensor, Array]:
    """Row-normalized gated graphs from an edge and a mask perceptron.

    ``alpha`` is (..., N, C) and ``heads`` is (edge, mask), each
    ``(w1, b1, w2, b2)`` shaped (2C, H), (H,), (H, 1), (1,); a head's raw
    score of the pair input ``α_i ‖ α_j`` is ``relu([α_i, α_j] @ w1 + b1)
    @ w2 + b2``.  With s_e and s_m the two scores, the graph is
    A = relu(s_e) ⊙ σ(s_m) and the output is Ā = A / r, r = Σ_j A the row
    sums; a row of A that is all zero passes through as zeros.  Returns
    Ā (..., N, N) and r (..., N, 1), so that A = Ā ⊙ r.

    Splitting ``w1 = [W_L; W_R]`` makes the pre-activation the outer sum
    ``(α W_L)_i + (α W_R)_j + b1``, so the (..., N², 2C) pair tensor is
    never built, and both heads share one GEMM per side.  Both passes walk
    the leading axes in blocks of whole graphs, about 1 MB of hidden
    layer each so that a block's passes run in cache, through one buffer
    per pass.  A block is never less than one graph, so from N ≥ 58 (at
    2H = 40) one graph's (N, N, 2H) hidden layer outgrows the 1 MB aim and
    each pass runs out of cache: a block is 34 MB at N = 325.  Nothing here
    outlives a pass but the (2H, ·) weight layouts: the projections and the
    hidden layer are rebuilt by each.

    One record, which keeps only Ā and the divisors (r, with 1 for an
    all-zero row): the backward recomputes each block's hidden layer, reads
    both scores off it with the forward's (2H, 2) product, and takes the
    gradient through the row normalization, σ and the ReLU there, so every
    (..., N, N) intermediate lives for one block only.  The forward runs the
    elementwise ops of the chain it replaces (ReLU, σ, product, row sum and
    division) in the same order, so its values are those of the chain.
    """
    if alpha.ndim < 2 or len(heads) != 2:
        raise DimensionError(
            f"pairwise_graph needs (..., N, C) embeddings and an edge and a mask "
            f"head, got {alpha.shape} and {len(heads)} heads"
        )
    c, hd = alpha.shape[-1], heads[0][0].shape[-1]
    for head in heads:
        shapes = tuple(p.shape for p in head)
        if shapes != ((2 * c, hd), (hd,), (hd, 1), (1,)):
            raise DimensionError(
                f"pairwise_graph: head shapes {shapes} do not fit {2 * c} pair "
                f"features and {hd} hidden units"
            )
    width = 2 * hd
    w_left = np.concatenate([w1.data[:c] for w1, _, _, _ in heads], axis=1)
    w_right = np.concatenate([w1.data[c:] for w1, _, _, _ in heads], axis=1)
    b_hidden = np.concatenate([b1.data for _, b1, _, _ in heads])
    # block-diagonal output layer: head i reads only its own hidden units
    w_out = np.zeros((width, 2))
    for i, (_, _, w2, _) in enumerate(heads):
        w_out[i * hd:(i + 1) * hd, i] = w2.data[:, 0]
    b_out = np.concatenate([b2.data for _, _, _, b2 in heads])
    n = alpha.shape[-2]
    flat_alpha = alpha.data.reshape(-1, n, c)
    rows = flat_alpha.shape[0]
    blocks = _blocks(rows, n * n * width, _PAIR_BLOCK)

    def projections() -> tuple[Array, Array]:
        """(rows, N, 2H) left and right projections; b1 rides on the left."""
        return flat_alpha @ w_left + b_hidden, flat_alpha @ w_right

    def walk(left: Array, right: Array) -> Iterator[tuple[slice, Array, Array]]:
        """Each block of graphs with its hidden layer relu(L_i + R_j + b1),
        (graphs, N, N, 2H), written into one buffer that the next block
        reuses, and its (graphs, N, N, 2) raw scores."""
        buf = np.empty((blocks[0].stop, n, n, width))
        for rs in blocks:
            pre = buf[:rs.stop - rs.start]
            np.copyto(pre, left[rs, :, None, :])
            pre += right[rs, None, :, :]
            np.maximum(pre, 0.0, out=pre)
            s = (pre.reshape(-1, width) @ w_out).reshape(pre.shape[:3] + (2,))
            s += b_out
            yield rs, pre, s

    out = np.empty((rows, n, n))  # A, then Ā in place
    r = np.empty((rows, n, 1))
    for rs, _, s in walk(*projections()):
        a = np.maximum(s[..., 0], 0.0, out=out[rs])
        a *= _sigmoid_into(s[..., 1], np.empty(a.shape))
        a.sum(axis=-1, keepdims=True, out=r[rs])
    # an all-zero row divides by 1 and stays zero
    safe_r = np.where(r > 0, r, 1.0)
    out /= safe_r

    def back(g):
        """Each block's edge and mask score gradients, reduced onto the
        projections through the ReLU mask; then those of α and the heads."""
        g3 = g.reshape(rows, n, n)
        left, right = projections()
        g_left = np.empty((rows, n, width))
        g_right = np.empty((rows, n, width))
        g_b2 = np.zeros(2)
        for rs, live, s in walk(left, right):
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
            np.greater(live, 0.0, out=live)  # the ReLU mask as 0.0 / 1.0
            for i, g_ij in enumerate((g_edge, g_mask)):
                cols = slice(i * hd, (i + 1) * hd)
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
        # Σ_j R_j·(Σ_i g·mask): head i's (H, 1) block from the (rows, N, 2H)
        # sums, without another pass over the hidden layer
        g_w2 = (np.einsum("rnu,rnu->u", left, g_left)
                + np.einsum("rnu,rnu->u", right, g_right))
        del left, right
        # the output weight is constant over i and j, so it scales the sums
        w2_all = w_out.sum(axis=1)  # each hidden unit's output weight
        g_left *= w2_all
        g_right *= w2_all
        g_left = g_left.reshape(-1, width)
        g_right = g_right.reshape(-1, width)
        g_b1 = g_left.sum(axis=0)
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

    lead = alpha.shape[:-2]
    parents = (alpha,) + tuple(p for head in heads for p in head)
    return _make(out.reshape(lead + (n, n)), parents, back), r.reshape(lead + (n, 1))


def gru_sequence(gammas: Tensor, alpha0: Tensor, w_r: Tensor, w_u: Tensor, w_o: Tensor,
                 b_r: Tensor, b_u: Tensor, b_o: Tensor) -> Tensor:
    """Run a GRU over M steps of per-node inputs: (B, N, M, C) → (B, M, N, H).

    ``alpha0`` (B, N, H) is the initial state.  Each weight is (C + H, H):
    its first C rows read the input γ, the rest the state α.  Step m is

        r = σ([γ, α] W_r + b_r),   u = σ([γ, α] W_u + b_u),
        o = tanh([γ, r ⊙ α] W_o + b_o),   α' = u ⊙ α + (1 − u) ⊙ o,

    and the output stacks the M new states.  The γ half of all three gates
    is one (B·M·N, C) × (C, 3H) GEMM before the loop, biases folded in.
    One cell body gives r, u, r ⊙ α and o from a state and that half: a
    step runs it on (B·N, ·) arrays, one (B·N, H) × (H, 2H) GEMM for r and
    u and one (H, H) GEMM on r ⊙ α for o.  The record keeps its output
    and nothing else.  The backward pass rebuilds every step's previous
    state from ``alpha0`` and the output, so no recurrence is re-run: the
    time-major γ comes from ``gammas``, and then the same cell body
    rebuilds every step's r, u, r ⊙ α and o at once on (M, B·N, ·) arrays,
    so they, and every gradient, are bitwise those of the forward.  That
    is safe because γ and α₀ are parents whose producers keep them, this
    backward runs before theirs, and no op writes a parent's data in
    place.  It runs back through time with only the two products with the
    state weights' transposes in its loop; the weight, bias and γ
    gradients are single GEMMs over all steps after it.  Per-step arrays
    are time-major, so each step's slice is contiguous; the output is
    time-major too, one (B, N, H) state per step.
    """
    if gammas.ndim != 4 or alpha0.ndim != 3:
        raise DimensionError(
            f"gru_sequence needs (B, N, M, C) inputs and a (B, N, H) state, "
            f"got {gammas.shape} and {alpha0.shape}"
        )
    b, n, m, c = gammas.shape
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
    rows = b * n
    w_in = np.concatenate([w_r.data[:c], w_u.data[:c], w_o.data[:c]], axis=1)
    w_ru = np.concatenate([w_r.data[c:], w_u.data[c:]], axis=1)
    w_oa = np.ascontiguousarray(w_o.data[c:])
    bias = np.concatenate([b_r.data, b_u.data, b_o.data])

    def gam() -> Array:
        """γ time-major, (M·B·N, C)."""
        return gammas.data.transpose(2, 0, 1, 3).reshape(m * rows, c)

    def cell(a: Array, pre: Array) -> tuple[Array, Array, Array, Array]:
        """r, u, r ⊙ α and o from states ``a`` and the γ half ``pre`` of the
        pre-activations: one step's (rows, ·) arrays, or every step's
        (M, rows, ·) at once."""
        ru = np.matmul(a, w_ru)
        ru += pre[..., :2 * hd]
        _sigmoid_into(ru, ru)
        r, u = ru[..., :hd], ru[..., hd:]
        ra = r * a
        o = np.matmul(ra, w_oa)
        o += pre[..., 2 * hd:]
        np.tanh(o, out=o)
        return r, u, ra, o

    pre = (gam() @ w_in + bias).reshape(m, rows, 3 * hd)
    states = np.empty((m + 1, rows, hd))
    states[0] = alpha0.data.reshape(rows, hd)
    for t in range(m):
        a, nxt = states[t], states[t + 1]
        _, u, _, o = cell(a, pre[t])
        np.multiply(u, a, out=nxt)
        nxt += (1.0 - u) * o
    del pre
    out = np.ascontiguousarray(states[1:].reshape(m, b, n, hd).transpose(1, 0, 2, 3))

    def back(g):
        g_tm = g.transpose(1, 0, 2, 3).reshape(m, rows, hd)
        # the state each step read, then every step's gates and candidates
        # at once, through the forward's cell
        prev = np.concatenate([alpha0.data[None], out.swapaxes(0, 1)[:-1]]).reshape(m, rows, hd)
        r, u, ra, cand = cell(prev, (gam() @ w_in + bias).reshape(m, rows, 3 * hd))
        # each gate's local derivative, for all steps at once; only the
        # recurrence itself runs step by step
        k_o = (1.0 - u) * (1.0 - cand * cand)  # ∂α'/∂o_pre
        k_r = prev * r * (1.0 - r)  # ∂(r ⊙ α)/∂r_pre
        k_u = (prev - cand) * u * (1.0 - u)  # ∂α'/∂u_pre
        del cand
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
        del k_o, k_r, k_u
        _accumulate(alpha0, carry.reshape(b, n, hd))
        d_flat = d_pre.reshape(-1, 3 * hd)
        if gammas.requires_grad:
            d_gam = (d_flat @ w_in.T).reshape(m, b, n, c).transpose(1, 2, 0, 3)
            _accumulate(gammas, d_gam)
        g_in = gam().T @ d_flat
        g_ru = prev.reshape(-1, hd).T @ d_flat[:, :2 * hd]
        g_oa = ra.reshape(-1, hd).T @ d_flat[:, 2 * hd:]
        g_bias = d_flat.sum(axis=0)
        for i, (w, v, g_a) in enumerate(((w_r, b_r, g_ru[:, :hd]), (w_u, b_u, g_ru[:, hd:]),
                                         (w_o, b_o, g_oa))):
            cols = slice(i * hd, (i + 1) * hd)
            _accumulate(w, np.concatenate([g_in[:, cols], g_a]))
            _accumulate(v, g_bias[cols])

    return _make(out, parents, back)


def mixhop(xi: Tensor, adj: Tensor, weights: Sequence[Tensor], beta: float,
           runs: Sequence[tuple[int, int]]) -> Tensor:
    """Mix-hop propagation of depth Ψ = len(weights) − 1: Σₖ Hₖ Wₖ.

    H₀ = ξ and Hₖ = β·ξ + (1 − β)·Â·Hₖ₋₁.  ``xi`` is (B, N, T, C_in),
    ``adj`` (B, M, N, N), one graph per segment, and each weight is
    (C_in, C_out).  ``runs``, (segment count n, segment length d) pairs,
    split ξ's T steps and Â's M graphs in order and must tile both: each
    run's steps, viewed with no copy as (B, n, N, d·C), one row of d steps
    per node, go through its (B, n, N, N) graphs, so each hop is one
    (N × N)(N × d·C) GEMM per graph.  One graph per step is one run of
    (T, 1), and one graph for all steps one run of (1, T).

    Both passes walk each run in chunks of whole samples, about
    ``_BANK_BLOCK`` elements of ξ each, so that a chunk's hops, projections
    and backward products run in cache; each chunk writes into its slice of
    one output buffer.  The forward pass runs the hops in place with β·ξ
    computed once per chunk, in the operation order of the per-hop op
    chain, and holds nothing beyond the hop in flight.  The record keeps
    only its output: the backward pass rebuilds one chunk's H₁ … H_Ψ at a
    time from ξ and Â in the forward's own op order, so they are bitwise
    those of the forward.  That is safe because ξ and Â are parents whose
    producers keep them, this backward runs before theirs, and no op writes
    a parent's data in place.  Each weight gradient is one flat GEMM over a
    chunk's rows, taken as soon as its hop is rebuilt, so H_Ψ is dropped at
    once; the chunks' terms are summed last chunk first, so the weight
    gradients agree with one pass over whole runs to rounding.  The
    backward then runs dHₖ = g·Wₖᵀ + (1 − β)·Âᵀ·dHₖ₊₁ down the hops,
    freeing dHₖ₊₁, Hₖ₋₁ and each term at their last use, and writes the
    chunk's ξ and Â gradients, bitwise those of one pass, straight into
    their slices of one buffer each: the chunks cover disjoint samples,
    steps and graphs, so nothing is zero-filled or added.  Each graph's
    gradient sums its d steps inside one (N, d·C) × (d·C, N) product of dHₖ
    and Hₖ₋₁, so the per-step products are never formed.  ξ's gradient is
    always formed, because the model's ξ, a gated convolution's output,
    always takes one; the adjacency and a weight that need no gradient get
    none, and at Ψ = 0 the adjacency gets none either.
    """
    if not weights:
        raise DimensionError("mixhop needs at least one projection weight")
    if xi.ndim != 4 or adj.ndim != 4 or adj.shape[0] != xi.shape[0] \
            or adj.shape[2:] != (xi.shape[1],) * 2:
        raise DimensionError(f"mixhop: adjacency {adj.shape} does not fit features {xi.shape}")
    b, n, steps, c_in = xi.shape
    c_out = weights[0].shape[-1]
    if any(w.shape != (c_in, c_out) for w in weights):
        raise DimensionError(
            f"mixhop: weights {[w.shape for w in weights]} do not all map "
            f"{c_in} to {c_out} channels"
        )
    if any(count < 1 or length < 1 for count, length in runs) \
            or sum(count * length for count, length in runs) != steps \
            or sum(count for count, _ in runs) != adj.shape[1]:
        raise DimensionError(f"mixhop: runs {list(runs)} do not tile {steps} "
                             f"steps and {adj.shape[1]} graphs")
    # per chunk of whole samples of each run: its samples, its steps of ξ
    # (axis 2), its graphs of Â (axis 1) and its segment count
    pieces = []
    t0 = m0 = 0
    for count, length in runs:
        t1, m1 = t0 + count * length, m0 + count
        pieces += [(bs, slice(t0, t1), slice(m0, m1), count)
                   for bs in _blocks(b, n * (t1 - t0) * c_in, _BANK_BLOCK)]
        t0, m0 = t1, m1
    beta = float(beta)
    keep = 1.0 - beta

    def by_graph(arr: Array, count: int) -> Array:
        """A run's (s, N, d·n, C) steps as (s, n, N, d·C), each graph's
        segment one (N, d·C) block: a view."""
        return arr.reshape(len(arr), n, count, -1).transpose(0, 2, 1, 3)

    def walk(x: Array, a: Array, count: int) -> Iterator[Array]:
        """H₁ … H_Ψ of one run's chunk, each a new (s, N, d·n, C) array, in
        the one op order both passes use."""
        if len(weights) == 1:
            return
        retained = x * beta
        h = x
        for _ in weights[1:]:
            nxt = np.empty(x.shape)
            np.matmul(a, by_graph(h, count), out=by_graph(nxt, count))
            nxt *= keep
            nxt += retained
            h = nxt
            yield h

    out = np.empty(xi.shape[:-1] + (c_out,))
    for bs, t_idx, a_idx, count in pieces:
        x, o = xi.data[bs, :, t_idx], out[bs, :, t_idx]
        np.matmul(x, weights[0].data, out=o)
        for h, w in zip(walk(x, adj.data[bs, a_idx], count), weights[1:]):
            o += (h.reshape(-1, c_in) @ w.data).reshape(o.shape)

    def back_run(g2: Array, x: Array, a: Array, gx: Array, ga: Array | None,
                 g_w: list[Array | None], count: int) -> None:
        """One run's chunk's backward: ``g2`` is its output gradient as
        (rows, C_out) and ``x`` its ξ, (s, N, d·n, C_in); its ξ and Â
        gradients are written into ``gx`` and ``ga``, and its weight
        gradients added into ``g_w``."""
        # the projections act on the channel axis alone, so their gradients
        # are flat (rows, C) GEMMs, each taken as soon as its hop is
        # rebuilt; the adjacency gradient reads H₀ … H_Ψ₋₁ on the way down,
        # so H_Ψ is dropped at once
        hops = []
        for k, (w, hk) in enumerate(zip(weights, itertools.chain([x], walk(x, a, count)))):
            if w.requires_grad:
                term = hk.reshape(-1, c_in).T @ g2
                if g_w[k] is None:
                    g_w[k] = term
                else:
                    g_w[k] += term
                del term
            hops.append(hk)
        del hk, hops[-1]

        def projected_back(k: int) -> Array:
            return (g2 @ weights[k].data.T).reshape(x.shape)

        def graph_back(d: Array) -> Array:
            """(1 − β)·Âᵀ·d"""
            out = np.empty(d.shape)
            np.matmul(a_t, by_graph(d, count), out=by_graph(out, count))
            out *= keep
            return out

        a_t = np.swapaxes(a, -1, -2)
        gx[...] = projected_back(0)
        d = None  # dHₖ₊₁ on the way down
        for k in range(len(weights) - 1, 0, -1):
            if d is None:
                dk = projected_back(k)
            else:
                # dHₖ₊₁ is freed before the projection's term is formed
                dk = graph_back(d)
                del d
                dk += projected_back(k)
            hk = hops.pop()  # Hₖ₋₁, read here for the last time
            if ga is not None:
                # each graph's d steps summed in one (N, d·C) × (d·C, N) product
                term = np.matmul(by_graph(dk, count), np.swapaxes(by_graph(hk, count), -1, -2))
                if k == len(weights) - 1:
                    ga[...] = term
                else:
                    ga += term
                del term
            del hk
            if beta:
                gx += beta * dk
            d = dk
        if d is not None:
            gx += graph_back(d)
        if ga is not None:
            ga *= keep

    def back(g):
        g_w: list[Array | None] = [None] * len(weights)
        g_x = np.empty(xi.shape)
        g_adj = np.empty(adj.shape) if adj.requires_grad and len(weights) > 1 else None
        for bs, t_idx, a_idx, count in reversed(pieces):
            back_run(g[bs, :, t_idx].reshape(-1, c_out), xi.data[bs, :, t_idx],
                     adj.data[bs, a_idx], g_x[bs, :, t_idx],
                     None if g_adj is None else g_adj[bs, a_idx], g_w, count)
        for w, gk in zip(weights, g_w):
            if gk is not None:
                _accumulate(w, gk)
        _accumulate(xi, g_x)
        if g_adj is not None:
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


# ---------------------------------------------------------------------------
# Initialisation

def uniform_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> Array:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
