"""Multi-scale temporal convolution: dilated inception banks with gated fusion.

Sequences flow node-major, as (B, N, T, C) tensors, and are convolved in
that channel-last layout, time on axis −2, as B·N independent sequences.
Convolutions are causal and valid (no padding), so each layer shortens the
sequence by (k_max − 1) · dilation and keeps the most recent steps.

An inception bank is one causal convolution per filter size.  Its branches
are aligned on the most recent sample and cut to the widest branch's output
length, which the tensor module's convolutions do for a bank of kernels of
different widths, so a :class:`TcnLayer` runs its filter and gate banks,
their gating and dropout as one :func:`~evograph.tensor.gated_conv1d`
record.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigurationError
from .nn import ParamStore
from .tensor import Tensor


def layer_dilation(layer: int, q: int) -> int:
    """Dilation for 1-based layer index: q^(layer−1)."""
    if layer < 1 or q < 1:
        raise ConfigurationError(f"need layer ≥ 1 and q ≥ 1, got {layer}, {q}")
    return q ** (layer - 1)


class TcnLayer:
    """Filter and gate inception banks fused by σ·tanh gating, then dropout.

    Each bank gives every filter size k c_out/ω channels from one causal
    convolution of width k.  Parameters are registered as
    ``{name}.filter.k{k}.kernel`` and ``.bias`` per filter size, then the
    same for ``{name}.gate``; checkpoints and the gradient-norm sum follow
    that order.  Both banks run as one :func:`~evograph.tensor.gated_conv1d`
    call with 2·c_out bank channels, split in two for the gating.
    """

    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int,
                 filter_sizes, dilation: int, dropout: float = 0.0):
        sizes = tuple(filter_sizes)
        if not sizes or any(k < 1 for k in sizes):
            raise ConfigurationError(f"bad filter sizes {sizes}")
        if c_out % len(sizes):
            raise ConfigurationError(
                f"c_out={c_out} not divisible by {len(sizes)} filter sizes"
            )
        per = c_out // len(sizes)
        self.kernels: list[Tensor] = []
        self.biases: list[Tensor] = []
        for bank in ("filter", "gate"):
            for k in sizes:
                prefix = f"{name}.{bank}.k{k}"
                self.kernels.append(store.new(f"{prefix}.kernel", (per, c_in, k), fan_in=c_in * k))
                self.biases.append(store.new(f"{prefix}.bias", (per,), fan_in=c_in * k))
        self.dilation = dilation
        self.dropout = dropout

    def __call__(self, x: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        """x: (B, N, T, C_in) → (B, N, T − (k_max − 1)·dilation, c_out)."""
        return T.gated_conv1d(x, self.kernels, self.biases, self.dilation,
                              self.dropout, training, rng)
