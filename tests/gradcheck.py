"""Central finite-difference gradient verification.

The numeric side only ever calls the loss function forward, so it stays
independent of the analytic backward rules it is checking.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from evograph.tensor import Tape, Tensor


def numeric_gradient(loss_fn: Callable[[], Tensor], t: Tensor, h: float = 1e-5) -> np.ndarray:
    """d(loss)/d(t) by central differences, one coordinate at a time."""
    flat = t.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn().item()
        flat[i] = orig - h
        down = loss_fn().item()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(t.shape)


def gradient_errors(
    loss_fn: Callable[[], Tensor],
    tensors: dict[str, Tensor],
    h: float = 1e-5,
    rel_tol: float = 1e-4,
    abs_tol: float = 1e-6,
) -> dict[str, float]:
    """Worst normalized error between analytic and numeric gradient per tensor.

    The tensors must be leaves of ``loss_fn``'s graph (requires_grad tensors
    it reads but does not produce): ``Tape.backward`` leaves gradients on
    leaves only.

    A coordinate passes when |a − n| ≤ max(rel_tol·|n|, abs_tol), so the
    returned value is |a − n| / max(|n|, abs_tol / rel_tol): compare it
    against rel_tol.
    """
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for k, t in tensors.items()}
    floor = abs_tol / rel_tol
    errors = {}
    for k, t in tensors.items():
        num = numeric_gradient(loss_fn, t, h=h)
        denom = np.maximum(np.abs(num), floor)
        errors[k] = float(np.max(np.abs(analytic[k] - num) / denom))
    return errors


def assert_gradients_close(
    loss_fn: Callable[[], Tensor],
    tensors: dict[str, Tensor],
    rel_tol: float = 1e-4,
    h: float = 1e-5,
    abs_tol: float = 1e-6,
) -> None:
    errors = gradient_errors(loss_fn, tensors, h=h, rel_tol=rel_tol, abs_tol=abs_tol)
    bad = {k: e for k, e in errors.items() if e > rel_tol}
    if bad:
        detail = ", ".join(f"{k}: {e:.3e}" for k, e in sorted(bad.items()))
        raise AssertionError(f"gradient mismatch above {rel_tol}: {detail}")
