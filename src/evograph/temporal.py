"""Multi-scale temporal convolution: dilated inception pairs with gated fusion.

Sequences flow as (B, T, N, C) tensors and are convolved in that
channel-last layout, time on axis 1.  Convolutions are causal and valid (no
padding), so each layer shortens the sequence by (k_max − 1) · dilation and
keeps the most recent steps.

A k-tap branch cut to the widest branch's output length equals a k_max-tap
branch whose taps k..k_max−1 are zero, because tap 0 is the most recent
sample.  So a bank's branch kernels are zero-padded to k_max taps and
concatenated along the output channels, and a :class:`TcnLayer` runs its
filter and gate banks together as one convolution with 2·C_out channels.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, SequenceTooShortError
from .nn import Conv1d, ParamStore
from .tensor import Tensor


def layer_dilation(layer: int, q: int) -> int:
    """Dilation for 1-based layer index: q^(layer−1)."""
    if layer < 1 or q < 1:
        raise ConfigurationError(f"need layer ≥ 1 and q ≥ 1, got {layer}, {q}")
    return q ** (layer - 1)


def receptive_field(filter_sizes, q: int, n_layers: int) -> int:
    """Input steps consumed by a stack of inception layers."""
    k_max = max(filter_sizes)
    if q == 1:
        return 1 + n_layers * (k_max - 1)
    return 1 + (k_max - 1) * (q**n_layers - 1) // (q - 1)


def gated_fusion(a: Tensor, b: Tensor) -> Tensor:
    """σ(a) ⊙ tanh(b); output lies in (−1, 1) elementwise."""
    return T.mul(T.sigmoid(a), T.tanh(b))


class DilatedInception:
    """Parallel causal convolutions of several widths, run as one kernel.

    Each filter size k gets c_out/ω channels.  Every branch output is cut to
    the length of the widest filter's output (dropping the earliest steps),
    which is the same as zero-padding the branch kernel to k_max taps; the
    padded kernels are concatenated along the output channels on the tape,
    so one convolution computes every branch.  Branch parameters keep their
    names ``{name}.k{k}.kernel`` and ``{name}.k{k}.bias``.
    """

    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int,
                 filter_sizes, dilation: int):
        sizes = tuple(filter_sizes)
        if not sizes or any(k < 1 for k in sizes):
            raise ConfigurationError(f"bad filter sizes {sizes}")
        if c_out % len(sizes):
            raise ConfigurationError(
                f"c_out={c_out} not divisible by {len(sizes)} filter sizes"
            )
        self.filter_sizes = sizes
        self.k_max = max(sizes)
        self.dilation = dilation
        per = c_out // len(sizes)
        self.branches = [
            Conv1d(store, f"{name}.k{k}", c_in, per, k, dilation=dilation)
            for k in sizes
        ]
        # constant zero taps k..k_max−1 per branch; None where k == k_max
        self._pads = [
            Tensor(np.zeros((per, c_in, self.k_max - k))) if k < self.k_max else None
            for k in sizes
        ]

    def out_length(self, t_in: int) -> int:
        return t_in - (self.k_max - 1) * self.dilation

    def kernel_parts(self) -> tuple[list[Tensor], list[Tensor]]:
        """Branch kernels zero-padded to k_max taps, and branch biases."""
        kernels = [
            conv.kernel if pad is None else T.concat([conv.kernel, pad], axis=2)
            for conv, pad in zip(self.branches, self._pads)
        ]
        return kernels, [conv.bias for conv in self.branches]

    def convolve(self, x: Tensor, kernels: list[Tensor], biases: list[Tensor]) -> Tensor:
        """One convolution of x: (B, T, N, C_in) with the concatenated kernels."""
        t_in = x.shape[1]
        if self.out_length(t_in) < 1:
            raise SequenceTooShortError(
                f"inception with k_max={self.k_max}, dilation={self.dilation} "
                f"needs T ≥ {(self.k_max - 1) * self.dilation + 1}, got {t_in}"
            )
        return T.conv1d(x, T.concat(kernels, axis=0), T.concat(biases, axis=0),
                        dilation=self.dilation)

    def __call__(self, x: Tensor) -> Tensor:
        """x: (B, T, N, C_in) → (B, T′, N, C_out)."""
        return self.convolve(x, *self.kernel_parts())


class TcnLayer:
    """Two inception banks fused by σ·tanh gating, followed by dropout.

    The filter and gate banks run as one convolution with 2·c_out output
    channels, split in two for the gating.
    """

    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int,
                 filter_sizes, dilation: int, dropout: float = 0.0):
        self.filter_bank = DilatedInception(
            store, f"{name}.filter", c_in, c_out, filter_sizes, dilation
        )
        self.gate_bank = DilatedInception(
            store, f"{name}.gate", c_in, c_out, filter_sizes, dilation
        )
        self.dropout = dropout

    def out_length(self, t_in: int) -> int:
        return self.filter_bank.out_length(t_in)

    def __call__(self, x: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        filter_kernels, filter_biases = self.filter_bank.kernel_parts()
        gate_kernels, gate_biases = self.gate_bank.kernel_parts()
        y = self.filter_bank.convolve(
            x, filter_kernels + gate_kernels, filter_biases + gate_biases
        )  # (B, T′, N, 2·c_out)
        c = y.shape[-1] // 2
        xi = gated_fusion(T.narrow(y, y.ndim - 1, 0, c), T.narrow(y, y.ndim - 1, c, c))
        if self.dropout > 0.0:
            xi = T.dropout(xi, self.dropout, training=training, rng=rng)
        return xi
