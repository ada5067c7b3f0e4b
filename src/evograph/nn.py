"""Small parameter-owning building blocks shared by the model modules.

Parameters are plain :class:`Tensor` objects registered in a flat dict
under qualified names. Initialisation draws from a stream keyed by
``(seed, name)``, so a submodule's initial values depend only on its name
and the seed, never on what else the surrounding model allocates.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .rng import RngSource
from .tensor import Tensor, uniform_init


class ParamStore:
    """Flat registry of named parameters for one model instance."""

    def __init__(self, rng: RngSource):
        self.rng = rng
        self.params: dict[str, Tensor] = {}

    def new(self, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        data = uniform_init(shape, fan_in, self.rng.stream(f"init/{name}"))
        p = Tensor(data, requires_grad=True)
        self.params[name] = p
        return p

    def new_const(self, name: str, value: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
        self.params[name] = p
        return p

    def count(self) -> int:
        return sum(p.size for p in self.params.values())


class Linear:
    """Affine map applied along the last axis."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int):
        self.w = store.new(f"{name}.weight", (d_in, d_out), fan_in=d_in)
        self.b = store.new(f"{name}.bias", (d_out,), fan_in=d_in)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class TanhConv1d:
    """Parameters of a causal 1-D convolution followed by tanh: the kernel,
    stored as (C_out, C_in, k), and the bias (C_out,).

    It has no forward of its own: :func:`tensor.static_features` runs the
    static extractor's two as one record.
    """

    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int, k: int):
        self.kernel = store.new(f"{name}.kernel", (c_out, c_in, k), fan_in=c_in * k)
        self.bias = store.new(f"{name}.bias", (c_out,), fan_in=c_in * k)


class LayerNorm:
    """Learnable layer normalisation along the last axis, plus a residual."""

    def __init__(self, store: ParamStore, name: str, d: int, eps: float = 1e-8):
        self.gain = store.new_const(f"{name}.gain", np.ones(d))
        self.bias = store.new_const(f"{name}.bias", np.zeros(d))
        self.eps = eps

    def __call__(self, x: Tensor, residual: Tensor) -> Tensor:
        return T.layer_norm_residual(x, self.gain, self.bias, residual, eps=self.eps)
