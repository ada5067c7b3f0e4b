import platform
import resource
import threading

import numpy as np
import pytest

from evograph import tensor as T
from evograph.errors import ContractError, DimensionError, SequenceTooShortError
from evograph.gradcheck import assert_gradients_close, gradient_errors
from evograph.tensor import Tape, Tensor, no_grad


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_product(self):
        out = T.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_backward_hand(self):
        a, b = t([[2.0]]), t([[5.0]])
        with Tape() as tape:
            loss = T.reduce_sum(T.matmul(a, b))
        tape.backward(loss)
        assert a.grad.tolist() == [[5.0]]
        assert b.grad.tolist() == [[2.0]]

    def test_inner_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_batched_against_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(5, 2))
        out = T.matmul(t(a), t(b)).data
        for i in range(4):
            assert np.allclose(out[i], a[i] @ b)

    def test_batched_gradients(self):
        rng = np.random.default_rng(1)
        a = t(rng.normal(size=(3, 2, 4)))
        b = t(rng.normal(size=(4, 3)))
        assert_gradients_close(lambda: T.reduce_sum(T.matmul(a, b)), {"a": a, "b": b})

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 1, 3, 3), (2, 4, 3, 2)),        # one graph per batch entry, over time
        ((2, 3, 1, 3, 3), (2, 3, 4, 3, 2)),  # one graph per segment, over its steps
        ((2, 3, 3, 3), (2, 3, 3, 2)),        # one graph per step
        ((1, 4, 3, 3), (2, 1, 3, 2)),        # both sides broadcast
        ((3, 3), (2, 4, 3, 2)),              # a plain matrix on the left
    ])
    def test_broadcast_gradients(self, a_shape, b_shape):
        rng = np.random.default_rng(2)
        a, b = t(rng.normal(size=a_shape)), t(rng.normal(size=b_shape))
        w = Tensor(rng.normal(size=np.broadcast_shapes(a_shape[:-1] + (1,), b_shape[:-2] + (1, b_shape[-1]))))
        assert_gradients_close(lambda: T.reduce_sum(T.mul(T.matmul(a, b), w)),
                               {"a": a, "b": b})

    def test_broadcast_gradient_matches_summed_product(self):
        # the broadcast side's gradient is folded into one contraction; it
        # must equal the unreduced per-step product summed afterwards
        rng = np.random.default_rng(3)
        a = t(rng.normal(size=(2, 3, 1, 4, 4)))
        b = t(rng.normal(size=(2, 3, 5, 4, 2)))
        g = rng.normal(size=(2, 3, 5, 4, 2))
        with Tape() as tape:
            loss = T.reduce_sum(T.mul(T.matmul(a, b), Tensor(g)))
        tape.backward(loss)
        want = np.matmul(g, np.swapaxes(b.data, -1, -2)).sum(axis=2, keepdims=True)
        assert np.allclose(a.grad, want, rtol=1e-13, atol=1e-13)
        assert np.allclose(b.grad, np.matmul(np.swapaxes(a.data, -1, -2), g),
                           rtol=1e-13, atol=1e-13)


class TestConv1d:
    # channel-last: x is (B, T, ..., C_in), the kernel (C_out, C_in, k)

    def test_identity_kernel(self):
        x = t([[[1.0], [2.0], [3.0], [4.0]]])
        k = t(np.ones((1, 1, 1)))
        assert T.conv1d(x, k).data.tolist() == [[[1.0], [2.0], [3.0], [4.0]]]

    def test_dilated_pairs(self):
        # kernel [1,1], dilation 2 pairs (3,1) and (4,2)
        x = t([[[1.0], [2.0], [3.0], [4.0]]])
        k = t(np.ones((1, 1, 2)))
        assert T.conv1d(x, k, dilation=2).data.tolist() == [[[4.0], [6.0]]]

    def test_length_law(self):
        x = t(np.zeros((1, 168, 1)))
        k = t(np.zeros((1, 1, 7)))
        assert T.conv1d(x, k, dilation=2).shape == (1, 156, 1)

    @pytest.mark.parametrize("tt,k,s", [(10, 3, 1), (10, 3, 4), (20, 7, 2), (5, 1, 3)])
    def test_length_law_param(self, tt, k, s):
        x = t(np.zeros((1, tt, 2)))
        kr = t(np.zeros((3, 2, k)))
        assert T.conv1d(x, kr, dilation=s).shape == (1, tt - (k - 1) * s, 3)

    def test_too_short(self):
        x = t(np.zeros((1, 4, 1)))
        k = t(np.zeros((1, 1, 3)))
        with pytest.raises(SequenceTooShortError):
            T.conv1d(x, k, dilation=2)

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 9, 2))
        k = rng.normal(size=(3, 2, 3))
        s = 2
        out = T.conv1d(t(x), t(k), dilation=s).data
        t_out = 9 - 2 * s
        for o in range(3):
            for j in range(t_out):
                ref = sum(
                    k[o, c, tau] * x[0, j + 2 * s - s * tau, c]
                    for c in range(2)
                    for tau in range(3)
                )
                assert out[0, j, o] == pytest.approx(ref, rel=1e-12)

    def test_strided(self):
        # stride subsamples output positions
        x = np.arange(10.0)[None, :, None]
        k = np.ones((1, 1, 2))
        out = T.conv1d(t(x), t(k), stride=3).data
        assert out.tolist() == [[[1.0], [7.0], [13.0]]]

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(2, 8, 3)))
        k = t(rng.normal(size=(4, 3, 3)))
        assert_gradients_close(
            lambda: T.reduce_sum(T.conv1d(x, k, dilation=2)), {"x": x, "k": k}
        )

    def test_strided_gradients(self):
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(1, 12, 2)))
        k = t(rng.normal(size=(3, 2, 4)))
        assert_gradients_close(
            lambda: T.reduce_sum(T.conv1d(x, k, stride=2)), {"x": x, "k": k}
        )

    def test_four_d_bias_dilated_strided(self):
        # (B, T, N, C) input, bias along the last axis, dilation 2, stride 2
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(2, 11, 3, 2)))
        k = t(rng.normal(size=(4, 2, 3)))
        b = t(rng.normal(size=(4,)))
        out = T.conv1d(x, k, b, dilation=2, stride=2).data
        assert out.shape == (2, 4, 3, 4)
        for j in range(4):
            ref = b.data + sum(
                x.data[:, 2 * j + 4 - 2 * tau] @ k.data[:, :, tau].T for tau in range(3)
            )
            assert np.allclose(out[:, j], ref, rtol=1e-12, atol=0.0)
        w = Tensor(rng.normal(size=out.shape))
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.conv1d(x, k, b, dilation=2, stride=2), w)),
            {"x": x, "k": k, "b": b},
        )

    def test_shape_checks(self):
        k = t(np.zeros((2, 3, 2)))
        with pytest.raises(DimensionError):
            T.conv1d(t(np.zeros((5, 3))), k)  # no batch axis
        with pytest.raises(DimensionError):
            T.conv1d(t(np.zeros((1, 5, 2))), k)  # channel mismatch
        with pytest.raises(DimensionError):
            T.conv1d(t(np.zeros((1, 5, 3))), k, t(np.zeros(3)))  # bias mismatch


class TestElementwise:
    def test_sigmoid_zero(self):
        assert T.sigmoid(t([0.0])).data[0] == 0.5

    def test_sigmoid_extremes_finite(self):
        out = T.sigmoid(t([-1e4, 1e4])).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_bits_match_split_formula(self):
        # the boolean-mask split this op used to compute, as the reference
        def split(d):
            out = np.empty_like(d)
            pos = d >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
            ex = np.exp(d[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.inf, -np.inf])
        d = np.concatenate([np.random.default_rng(13).normal(size=10**6), special])
        new, ref = T.sigmoid(t(d)).data, split(d)
        assert np.array_equal(new.view(np.int64), ref.view(np.int64))
        assert np.isnan(T.sigmoid(t([np.nan])).data[0])

    def test_tanh_zero(self):
        assert T.tanh(t([0.0])).data[0] == 0.0

    def test_mul_hand(self):
        assert T.mul(t([1.0, 2.0]), t([3.0, 4.0])).data.tolist() == [3.0, 8.0]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(t([1.0]), t([1.0, 2.0]))

    def test_scalar_ops(self):
        x = t([1.0, 2.0])
        assert (x * 2.0).data.tolist() == [2.0, 4.0]
        assert (x + 1.0).data.tolist() == [2.0, 3.0]
        assert (1.0 - x).data.tolist() == [0.0, -1.0]


class TestReduce:
    def test_mean_hand(self):
        assert T.reduce_mean(t([2.0, 4.0, 6.0]), axis=0).item() == 4.0

    def test_sum_zeros(self):
        assert T.reduce_sum(t(np.zeros((3, 4)))).item() == 0.0

    def test_mean_backward(self):
        x = t([1.0, 5.0])
        with Tape() as tape:
            loss = T.reduce_mean(x)
        tape.backward(loss)
        assert x.grad.tolist() == [0.5, 0.5]

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            T.reduce_sum(t([1.0]), axis=3)

    def test_axis_tuple(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        out = T.reduce_mean(t(x), axis=(0, 2))
        assert np.allclose(out.data, x.mean(axis=(0, 2)))


class TestConcatSlice:
    def test_concat_rows(self):
        out = T.concat([t([[1.0]]), t([[2.0]])], axis=0)
        assert out.data.tolist() == [[1.0], [2.0]]

    def test_channel_widths_sum(self):
        parts = [t(np.zeros((2, c))) for c in (1, 3, 2)]
        assert T.concat(parts, axis=1).shape == (2, 6)

    def test_grad_roundtrip_shapes(self):
        a, b = t(np.ones((2, 3))), t(np.ones((2, 2)))
        with Tape() as tape:
            loss = T.reduce_sum(T.concat([a, b], axis=1))
        tape.backward(loss)
        assert a.grad.shape == (2, 3) and b.grad.shape == (2, 2)
        assert np.all(a.grad == 1.0) and np.all(b.grad == 1.0)

    def test_incompatible(self):
        with pytest.raises(DimensionError):
            T.concat([t(np.zeros((2, 3))), t(np.zeros((3, 3)))], axis=1)

    def test_narrow_backward(self):
        x = t(np.arange(6.0))
        with Tape() as tape:
            loss = T.reduce_sum(T.narrow(x, 0, 2, 3))
        tape.backward(loss)
        assert x.grad.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0]

    def test_narrow_and_select_are_views(self):
        x = t(np.arange(24.0).reshape(2, 3, 4))
        assert np.shares_memory(T.narrow(x, 1, 1, 2).data, x.data)
        sel = T.select(x, -1, 2)
        assert np.shares_memory(sel.data, x.data)
        assert np.array_equal(sel.data, x.data[..., 2])
        with pytest.raises(DimensionError):
            T.select(x, 1, 3)
        with pytest.raises(DimensionError):
            T.narrow(x, 3, 0, 1)

    def test_narrow_does_not_corrupt_a_shared_gradient(self):
        # add hands one gradient array to both parents; each parent is then
        # narrowed, and the slice added into one must not reach the other
        rng = np.random.default_rng(4)
        x, y = t(rng.normal(size=5)), t(rng.normal(size=5))
        w_sum, w_x, w_y = (rng.normal(size=s) for s in (5, 2, 3))
        with Tape() as tape:
            p, q = T.mul(x, 1.0), T.mul(y, 1.0)
            tail_x, head_y = T.narrow(p, 0, 3, 2), T.narrow(q, 0, 0, 3)
            loss = T.reduce_sum(T.mul(T.add(p, q), Tensor(w_sum)))
            loss = T.add(loss, T.reduce_sum(T.mul(tail_x, Tensor(w_x))))
            loss = T.add(loss, T.reduce_sum(T.mul(head_y, Tensor(w_y))))
        tape.backward(loss)
        assert np.array_equal(x.grad, w_sum + np.r_[0, 0, 0, w_x])
        assert np.array_equal(y.grad, w_sum + np.r_[w_y, 0, 0])

    def test_select_stack_roundtrip_gradients(self):
        rng = np.random.default_rng(5)
        parts = [t(rng.normal(size=(2, 3))) for _ in range(3)]
        w = Tensor(rng.normal(size=(2, 3, 3)))

        def loss_fn():
            s = T.stack(parts, axis=1)  # (2, 3, 3)
            picked = T.stack([T.select(s, 1, 2), T.select(s, 1, 0)], axis=-1)
            return T.add(T.reduce_sum(T.mul(s, w)), T.reduce_sum(T.mul(picked, picked)))

        assert T.stack(parts, axis=1).shape == (2, 3, 3)
        assert_gradients_close(loss_fn, {f"p{i}": p for i, p in enumerate(parts)})

    def test_stack_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.stack([t(np.zeros((2, 3))), t(np.zeros((3, 2)))], axis=0)
        with pytest.raises(DimensionError):
            T.stack([], axis=0)

    def test_segment_mean_matches_slices(self):
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(2, 11, 3, 2)))
        bounds = [(0, 4), (4, 11)]
        out = T.segment_mean(x, bounds)
        for m, (start, stop) in enumerate(bounds):
            assert np.array_equal(out.data[:, m], x.data[:, start:stop].mean(axis=1))
        w = Tensor(rng.normal(size=out.shape))
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.segment_mean(x, bounds), w)), {"x": x})

    @pytest.mark.parametrize("bounds", [[(0, 4), (5, 11)], [(0, 4), (4, 10)],
                                        [(1, 11)], [(0, 0), (0, 11)], []])
    def test_segment_mean_needs_a_tiling(self, bounds):
        with pytest.raises(DimensionError):
            T.segment_mean(t(np.zeros((1, 11, 2))), bounds)


class TestPairwiseMlp:
    C, H = 3, 4

    def heads(self, seed=0, k=2):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(k):
            out.append((t(rng.normal(size=(2 * self.C, self.H))),
                        t(rng.normal(size=self.H)),
                        t(rng.normal(size=(self.H, 1))),
                        t(rng.normal(size=1))))
        # hidden unit 0 of the first head is dead for every pair
        out[0][1].data[0] = -50.0
        return out

    def reference(self, alpha, heads):
        """Per-pair loop over [α_i, α_j] in plain numpy."""
        a = alpha.data
        n = a.shape[-2]
        out = np.zeros(a.shape[:-2] + (n, n, len(heads)))
        for i in range(n):
            for j in range(n):
                pair = np.concatenate([a[..., i, :], a[..., j, :]], axis=-1)
                for h, (w1, b1, w2, b2) in enumerate(heads):
                    hid = np.maximum(pair @ w1.data + b1.data, 0.0)
                    out[..., i, j, h] = (hid @ w2.data + b2.data)[..., 0]
        return out

    @pytest.fixture(params=["one block", "block per graph"])
    def blocking(self, request, monkeypatch):
        if request.param == "block per graph":
            monkeypatch.setattr(T, "_PAIR_BLOCK", 1)

    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3), (2, 3, 4, 3)])
    def test_forward_matches_pair_loop(self, shape, blocking):
        alpha = t(np.random.default_rng(1).normal(size=shape))
        heads = self.heads()
        out = T.pairwise_mlp(alpha, heads)
        assert out.shape == shape[:-1] + (shape[-2], 2)
        assert np.allclose(out.data, self.reference(alpha, heads), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)])
    def test_gradcheck(self, shape, blocking):
        rng = np.random.default_rng(2)
        alpha = t(rng.normal(size=shape))
        heads = self.heads(seed=3)
        weights = Tensor(rng.normal(size=shape[:-1] + (shape[-2], 2)))
        pre = (alpha.data[..., :, None, :] @ heads[1][0].data[:self.C]
               + alpha.data[..., None, :, :] @ heads[1][0].data[self.C:]
               + heads[1][1].data)
        # live and dead hidden units both occur in the live head too
        assert 0 < np.count_nonzero(pre > 0) < pre.size
        tensors = {"alpha": alpha}
        for h, head in enumerate(heads):
            for name, p in zip(("w1", "b1", "w2", "b2"), head):
                tensors[f"{h}.{name}"] = p
        assert len(tensors) == 9
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.pairwise_mlp(alpha, heads), weights)),
            tensors,
        )
        # the dead unit gets no first-layer or output gradient
        assert np.all(heads[0][0].grad[:, 0] == 0.0)
        assert heads[0][1].grad[0] == 0.0 and heads[0][2].grad[0, 0] == 0.0

    def test_bad_head_shapes(self):
        heads = self.heads()
        with pytest.raises(DimensionError, match="pair features"):
            T.pairwise_mlp(t(np.zeros((4, self.C + 1))), heads)
        narrow = (t(heads[1][0].data[:, :2]),) + heads[1][1:]
        with pytest.raises(DimensionError, match="hidden units"):
            T.pairwise_mlp(t(np.zeros((4, self.C))), [heads[0], narrow])
        with pytest.raises(DimensionError, match="at least one head"):
            T.pairwise_mlp(t(np.zeros((4, self.C))), [])


class TestGruSequence:
    C, H, N = 2, 3, 4

    def inputs(self, b, m, seed=0):
        rng = np.random.default_rng(seed)
        gammas = t(rng.normal(size=(b, m, self.N, self.C)))
        alpha0 = t(np.tanh(rng.normal(size=(b, self.N, self.H))))
        weights = [t(rng.normal(size=(self.C + self.H, self.H))) for _ in range(3)]
        biases = [t(rng.normal(size=self.H)) for _ in range(3)]
        return [gammas, alpha0] + weights + biases

    @staticmethod
    def reference(gammas, alpha, w_r, w_u, w_o, b_r, b_u, b_o):
        """One step at a time: [γ, α] concatenated, one GEMM → bias →
        activation chain per gate, the states stacked."""
        def gate(cat, w, b, act):
            return act(T.bias_add(T.matmul(cat, w), b))

        states = []
        for m in range(gammas.shape[1]):
            gamma = T.select(gammas, 1, m)
            cat = T.concat([gamma, alpha], axis=2)
            r = gate(cat, w_r, b_r, T.sigmoid)
            u = gate(cat, w_u, b_u, T.sigmoid)
            o = gate(T.concat([gamma, T.mul(r, alpha)], axis=2), w_o, b_o, T.tanh)
            alpha = T.add(T.mul(u, alpha), T.mul(1.0 - u, o))
            states.append(alpha)
        return T.stack(states, axis=1)

    @pytest.mark.parametrize("b, m", [(1, 1), (1, 4), (2, 3)])
    def test_gradcheck(self, b, m):
        args = self.inputs(b, m, seed=b + m)
        weights = Tensor(np.random.default_rng(5).normal(size=(b, m, self.N, self.H)))
        names = ("gammas", "alpha0", "w_r", "w_u", "w_o", "b_r", "b_u", "b_o")
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.gru_sequence(*args), weights)),
            dict(zip(names, args)),
        )

    def test_matches_step_reference(self):
        args = self.inputs(3, 6, seed=7)
        weights = Tensor(np.random.default_rng(8).normal(size=(3, 6, self.N, self.H)))

        def run(fn):
            with Tape() as tape:
                out = fn(*args)
                loss = T.reduce_sum(T.mul(out, weights))
            tape.backward(loss)
            return out.data, [a.grad.copy() for a in args]

        out, grads = run(T.gru_sequence)
        ref_out, ref_grads = run(self.reference)
        assert out.shape == (3, 6, self.N, self.H)
        assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
        for g, ref in zip(grads, ref_grads):
            assert np.any(ref != 0)
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_no_grad_same_values_no_record(self):
        args = self.inputs(2, 5, seed=9)
        with Tape() as tape:
            recorded = T.gru_sequence(*args)
            with no_grad():
                plain = T.gru_sequence(*args)
        assert len(tape) == 1
        assert not plain.requires_grad
        assert np.array_equal(plain.data, recorded.data)

    def test_bad_shapes(self):
        args = self.inputs(1, 2)
        with pytest.raises(DimensionError, match="input channels"):
            T.gru_sequence(t(np.zeros((1, 2, self.N, self.C + 1))), *args[1:])
        with pytest.raises(DimensionError, match="state"):
            T.gru_sequence(args[0], t(np.zeros((1, self.N))), *args[2:])


class TestDropout:
    def test_rate_zero_identity(self):
        x = t(np.ones(10))
        out = T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_inference_identity(self):
        x = t(np.random.default_rng(0).normal(size=100))
        out = T.dropout(x, 0.9, training=False)
        assert np.array_equal(out.data, x.data)

    def test_inference_returns_input_unrecorded(self):
        x = t(np.random.default_rng(1).normal(size=(2, 3, 4, 5)))
        with Tape() as tape:
            out = T.dropout(x, 0.3, training=False)
        assert out is x
        assert len(tape) == 0

    def test_survivor_fraction(self):
        rng = np.random.default_rng(7)
        x = t(np.ones(100_000))
        out = T.dropout(x, 0.3, training=True, rng=rng)
        frac = np.count_nonzero(out.data) / x.size
        assert frac == pytest.approx(0.7, abs=0.01)
        survivors = out.data[out.data != 0]
        assert np.allclose(survivors, 1.0 / 0.7)

    def test_needs_rng(self):
        with pytest.raises(ContractError):
            T.dropout(t(np.ones(3)), 0.5, training=True)


class TestHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
    def test_freed_memory_is_reused_without_faults(self):
        # 96 MB in blocks below the mmap threshold, freed together, as at the
        # end of a training step: trimmed off the heap, touching it again
        # would fault in its 24k pages one by one
        blocks = [np.ones(3 << 20) for _ in range(4)]
        del blocks
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        blocks = [np.ones(3 << 20) for _ in range(4)]
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000


class TestLayerNorm:
    def test_constant_slice(self):
        x = t(np.full((2, 4), 3.0))
        out = T.layer_norm(x, t(np.ones(4)), t(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_hand_normalization(self):
        x = t([[1.0, 3.0]])
        out = T.layer_norm(x, t(np.ones(2)), t(np.zeros(2)), eps=1e-16)
        assert np.allclose(out.data, [[-1.0, 1.0]])

    def test_mean_equals_bias(self):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(3, 6)))
        bias = t(rng.normal(size=6))
        out = T.layer_norm(x, t(np.ones(6)), bias)
        assert np.allclose(out.data.mean(axis=-1), bias.data.mean())

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(2, 5)))
        g = t(rng.normal(size=5))
        b = t(rng.normal(size=5))
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.layer_norm(x, g, b), T.layer_norm(x, g, b))),
            {"x": x, "g": g, "b": b},
        )


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        x = t(rng.random((4, 4)) + 0.1)
        out = T.row_normalize(x)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_zero_row_passthrough(self):
        x = t([[0.0, 0.0], [2.0, 2.0]])
        out = T.row_normalize(x)
        assert out.data.tolist() == [[0.0, 0.0], [0.5, 0.5]]

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = t(rng.random((3, 4)) + 0.5)
        w = rng.normal(size=(3, 4))
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.row_normalize(x), Tensor(w))), {"x": x}
        )


class TestBackward:
    def test_square_derivative(self):
        x = t([3.0])
        with Tape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
        tape.backward(loss)
        assert x.grad.tolist() == [6.0]

    def test_unreachable_leaf_zero(self):
        x, y = t([2.0]), t([5.0])
        with Tape() as tape:
            _dead = T.mul(y, y)
            loss = T.reduce_sum(T.mul(x, x))
        tape.backward(loss)
        assert y.grad.tolist() == [0.0]

    def test_non_scalar_loss_rejected(self):
        x = t([1.0, 2.0])
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_reused_operand(self):
        x = t([2.0])
        with Tape() as tape:
            loss = T.reduce_sum(T.add(T.mul(x, x), x))
        tape.backward(loss)
        assert x.grad.tolist() == [5.0]

    def test_random_chains_match_fd(self):
        # random 3-op chains over the differentiable op set
        rng = np.random.default_rng(10)
        units = [
            lambda z: T.sigmoid(z),
            lambda z: T.tanh(z),
            lambda z: T.mul(z, z),
            lambda z: T.add(z, z),
        ]
        for trial in range(20):
            x = t(rng.uniform(-1, 1, size=(3, 3)))
            ops = [units[rng.integers(len(units))] for _ in range(3)]

            def loss_fn(x=x, ops=ops):
                z = x
                for op in ops:
                    z = op(z)
                return T.reduce_mean(z)

            errs = gradient_errors(loss_fn, {"x": x})
            assert errs["x"] <= 1e-4, f"trial {trial}: {errs}"

    def test_tape_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            x = t(rng.normal(size=(4, 4)))
            w = t(rng.normal(size=(4, 2)))
            with Tape() as tape:
                y = T.tanh(T.matmul(x, w))
                loss = T.reduce_mean(T.mul(y, y))
            tape.backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)

    def test_no_grad_skips_recording(self):
        x = t([1.0])
        with Tape() as tape:
            with no_grad():
                y = T.mul(x, x)
        assert len(tape) == 0
        assert not y.requires_grad

    def test_no_grad_and_tape_stay_in_their_thread(self):
        # thread A holds no_grad, then a Tape, while thread B runs ops: B's
        # own tape must get its records, and A's tape none of B's ops
        hold, done = threading.Barrier(2, timeout=10), threading.Barrier(2, timeout=10)
        got = {}

        def thread_a():
            with no_grad():
                hold.wait()
                done.wait()
            with Tape() as tape_a:
                hold.wait()
                done.wait()
            got["a"] = len(tape_a)

        def thread_b():
            x = t([1.0, 2.0])
            hold.wait()
            with Tape() as tape_b:
                T.mul(x, x)
            got["b"] = len(tape_b)
            done.wait()
            hold.wait()
            got["b_untaped"] = T.mul(x, x).requires_grad
            done.wait()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
            assert not th.is_alive()
        assert got == {"b": 1, "b_untaped": False, "a": 0}

    def test_transpose_reshape_broadcast(self):
        rng = np.random.default_rng(12)
        x = t(rng.normal(size=(2, 3, 4)))
        w = rng.normal(size=(3, 2, 3, 4))

        def loss_fn():
            y = T.transpose(x, (1, 0, 2))
            y = T.reshape(y, (3, 8))
            y = T.reshape(y, (3, 2, 4))
            y = T.transpose(y, (1, 0, 2))
            y = T.broadcast_leading(y, 3)
            return T.reduce_sum(T.mul(y, Tensor(w)))

        assert_gradients_close(loss_fn, {"x": x})
