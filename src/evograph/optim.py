"""Adam optimizer with global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


def global_grad_norm(grads: list[np.ndarray]) -> float:
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    return math.sqrt(total)


def clip_gradients(grads: list[np.ndarray], max_norm: float = 5.0) -> float:
    """Scale ``grads`` in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Clipping preserves direction: every gradient
    is multiplied by the same nonnegative factor.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_grad_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class Adam:
    """Standard Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        """Apply one update using each parameter's ``grad`` (None = zero)."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
