import numpy as np
import pytest

from evograph import tensor as T
from evograph.optim import Adam, clip_gradients, global_grad_norm
from evograph.rng import RngSource
from evograph.tensor import Tape, Tensor


def test_clip_hand_value():
    g = [np.array([10.0])]
    norm = clip_gradients(g, max_norm=5.0)
    assert norm == pytest.approx(10.0)
    assert g[0].tolist() == [5.0]


def test_clip_below_threshold_untouched():
    g = [np.array([1.0, 2.0])]
    clip_gradients(g, max_norm=5.0)
    assert g[0].tolist() == [1.0, 2.0]


def test_clip_preserves_direction():
    rng = np.random.default_rng(0)
    gs = [rng.normal(size=(3, 4)) * 10, rng.normal(size=7) * 10]
    before = [g.copy() for g in gs]
    clip_gradients(gs, max_norm=5.0)
    assert global_grad_norm(gs) == pytest.approx(5.0)
    for b, a in zip(before, gs):
        # same direction: cosine similarity 1
        cos = (b.ravel() @ a.ravel()) / (
            np.linalg.norm(b.ravel()) * np.linalg.norm(a.ravel())
        )
        assert cos == pytest.approx(1.0)


def test_clip_rejects_bad_threshold():
    with pytest.raises(ValueError):
        clip_gradients([np.ones(2)], max_norm=0.0)


def test_adam_first_step_magnitude():
    # with m_hat/sqrt(v_hat) = g/|g| the first update is -lr * sign(g) (+eps slack)
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([3.0])
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    assert p.data[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(400):
        with Tape() as tape:
            loss = T.reduce_sum(T.mul(p, p))
        tape.backward(loss)
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_adam_none_grad_treated_as_zero():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = None
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    assert p.data[0] == 1.0


def test_rng_streams_independent():
    src = RngSource(42)
    a = src.stream("weights").normal(size=5)
    b = src.stream("dropout").normal(size=5)
    assert not np.allclose(a, b)
    # same label reproduces
    a2 = RngSource(42).stream("weights").normal(size=5)
    assert np.array_equal(a, a2)


def test_rng_seed_changes_streams():
    a = RngSource(1).stream("x").normal(size=5)
    b = RngSource(2).stream("x").normal(size=5)
    assert not np.allclose(a, b)


def test_rng_next_stream_advances():
    src = RngSource(7)
    a = src.next_stream("drop").normal(size=3)
    b = src.next_stream("drop").normal(size=3)
    assert not np.allclose(a, b)
    # a fresh source with the same seed replays the sequence
    src2 = RngSource(7)
    a2 = src2.next_stream("drop").normal(size=3)
    assert np.array_equal(a, a2)
