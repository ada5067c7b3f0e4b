import platform
import resource
import threading
import tracemalloc

import numpy as np
import pytest

from evograph import tensor as T
from evograph.config import multi_step_preset, single_step_preset
from evograph.errors import ContractError, DimensionError, SequenceTooShortError
from evograph.model import Model
from evograph.tensor import Tape, Tensor, no_grad
from evograph.trainer import loss_tensor

from gradcheck import assert_gradients_close, gradient_errors


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

    @pytest.mark.parametrize("a_shape", [(6, 3), (4, 5, 3, 6), (2, 3, 4, 5, 6)])
    def test_plain_weight_gradient_matches_summed_product(self, a_shape):
        # a batched operand against a 2-D weight takes its gradient as one
        # flat GEMM; a transposed cotangent reaches it non-contiguous
        rng = np.random.default_rng(4)
        a, b = t(rng.normal(size=a_shape)), t(rng.normal(size=(a_shape[-1], 7)))
        g = rng.normal(size=a_shape[:-1] + (7,))
        axes = tuple(reversed(range(len(a_shape))))
        with Tape() as tape:
            out = T.transpose(T.matmul(a, b), axes)
            loss = T.reduce_sum(T.mul(out, Tensor(g.transpose(axes))))
        tape.backward(loss)
        want = T._summed_matmul(g, b.data.T, a.shape)
        assert np.max(np.abs(a.grad - want)) <= 1e-12 * np.max(np.abs(want))
        assert_gradients_close(lambda: T.reduce_sum(T.mul(T.matmul(a, b), Tensor(g))),
                               {"a": a, "b": b})


class TestConv1d:
    # channel-last: x is (B, T, ..., C_in), kernel j (C_j, C_in, k_j)

    def test_identity_kernel(self):
        x = t([[[1.0], [2.0], [3.0], [4.0]]])
        k = t(np.ones((1, 1, 1)))
        assert T.conv1d(x, [k]).data.tolist() == [[[1.0], [2.0], [3.0], [4.0]]]

    def test_dilated_pairs(self):
        # kernel [1,1], dilation 2 pairs (3,1) and (4,2)
        x = t([[[1.0], [2.0], [3.0], [4.0]]])
        k = t(np.ones((1, 1, 2)))
        assert T.conv1d(x, [k], dilation=2).data.tolist() == [[[4.0], [6.0]]]

    def test_length_law(self):
        x = t(np.zeros((1, 168, 1)))
        k = t(np.zeros((1, 1, 7)))
        assert T.conv1d(x, [k], dilation=2).shape == (1, 156, 1)

    @pytest.mark.parametrize("tt,k,s", [(10, 3, 1), (10, 3, 4), (20, 7, 2), (5, 1, 3)])
    def test_length_law_param(self, tt, k, s):
        x = t(np.zeros((1, tt, 2)))
        kr = t(np.zeros((3, 2, k)))
        assert T.conv1d(x, [kr], dilation=s).shape == (1, tt - (k - 1) * s, 3)

    def test_too_short(self):
        x = t(np.zeros((1, 4, 1)))
        k = t(np.zeros((1, 1, 3)))
        with pytest.raises(SequenceTooShortError):
            T.conv1d(x, [k], dilation=2)

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 9, 2))
        k = rng.normal(size=(3, 2, 3))
        s = 2
        out = T.conv1d(t(x), [t(k)], dilation=s).data
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
        out = T.conv1d(t(x), [t(k)], stride=3).data
        assert out.tolist() == [[[1.0], [7.0], [13.0]]]

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(2, 8, 3)))
        k = t(rng.normal(size=(4, 3, 3)))
        assert_gradients_close(
            lambda: T.reduce_sum(T.conv1d(x, [k], dilation=2)), {"x": x, "k": k}
        )

    def test_strided_gradients(self):
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(1, 12, 2)))
        k = t(rng.normal(size=(3, 2, 4)))
        assert_gradients_close(
            lambda: T.reduce_sum(T.conv1d(x, [k], stride=2)), {"x": x, "k": k}
        )

    def test_four_d_bias_dilated_strided(self):
        # (B, T, N, C) input, bias along the last axis, dilation 2, stride 2
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(2, 11, 3, 2)))
        k = t(rng.normal(size=(4, 2, 3)))
        b = t(rng.normal(size=(4,)))
        out = T.conv1d(x, [k], [b], dilation=2, stride=2).data
        assert out.shape == (2, 4, 3, 4)
        for j in range(4):
            ref = b.data + sum(
                x.data[:, 2 * j + 4 - 2 * tau] @ k.data[:, :, tau].T for tau in range(3)
            )
            assert np.allclose(out[:, j], ref, rtol=1e-12, atol=0.0)
        w = Tensor(rng.normal(size=out.shape))
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.conv1d(x, [k], [b], dilation=2, stride=2), w)),
            {"x": x, "k": k, "b": b},
        )

    def test_shape_checks(self):
        k = t(np.zeros((2, 3, 2)))
        with pytest.raises(DimensionError):
            T.conv1d(t(np.zeros((5, 3))), [k])  # no batch axis
        with pytest.raises(DimensionError):
            T.conv1d(t(np.zeros((1, 5, 2))), [k])  # channel mismatch
        with pytest.raises(DimensionError):
            T.conv1d(t(np.zeros((1, 5, 3))), [k], [t(np.zeros(3))])  # bias mismatch
        with pytest.raises(DimensionError):
            T.conv1d(t(np.zeros((1, 5, 3))), [])  # empty bank
        with pytest.raises(DimensionError):
            T.conv1d(t(np.zeros((1, 5, 3))), [k, k], [t(np.zeros(2))])  # one bias for two

    def test_branches_aligned_on_most_recent(self):
        # a 1-tap kernel must see the same (most recent) time steps as the
        # 3-tap kernel beside it
        x = t(np.arange(5.0).reshape(1, 5, 1, 1))
        bank = [t(np.ones((1, 1, 1))), t(np.zeros((1, 1, 3)))]
        out = T.conv1d(x, bank).data
        assert out.shape == (1, 3, 1, 2)
        # channel 0 is the identity kernel, truncated to the last 3 steps
        assert out[0, :, 0, 0].tolist() == [2.0, 3.0, 4.0]

    def test_bank_equals_zero_padded_kernels(self):
        # kernel j acts as a k_max-tap kernel whose older taps are zero
        rng = np.random.default_rng(8)
        x = t(rng.normal(size=(2, 11, 3, 2)))
        bank = [t(rng.normal(size=(c, 2, k))) for c, k in ((1, 1), (3, 3), (2, 2))]
        biases = [t(rng.normal(size=(c,))) for c in (1, 3, 2)]
        padded = np.concatenate(
            [np.pad(k.data, ((0, 0), (0, 0), (0, 3 - k.shape[2]))) for k in bank])
        want = T.conv1d(x, [t(padded)], [t(np.concatenate([b.data for b in biases]))],
                        dilation=2, stride=2).data
        assert np.array_equal(T.conv1d(x, bank, biases, dilation=2, stride=2).data, want)

    def test_mixed_width_bank_gradients(self):
        # a bank of kernels of widths 1, 3 and 2, each with a bias, dilated
        rng = np.random.default_rng(9)
        x = t(rng.normal(size=(2, 9, 3, 2)))
        k1 = t(rng.normal(size=(2, 2, 1)))
        k3 = t(rng.normal(size=(1, 2, 3)))
        k2 = t(rng.normal(size=(2, 2, 2)))
        b1, b3, b2 = (t(rng.normal(size=(c,))) for c in (2, 1, 2))
        w = Tensor(rng.normal(size=(2, 5, 3, 5)))
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.conv1d(x, [k1, k3, k2], [b1, b3, b2], dilation=2), w)),
            {"x": x, "k1": k1, "k3": k3, "k2": k2, "b1": b1, "b3": b3, "b2": b2},
        )


class TestGatedConv1d:
    @staticmethod
    def bank(seed):
        # filter kernels of widths 2 and 3, then the gate's: 4 channels each
        rng = np.random.default_rng(seed)
        kernels = [t(rng.normal(size=(2, 3, k))) for k in (2, 3, 2, 3)]
        biases = [t(rng.normal(size=2)) for _ in range(4)]
        return kernels, biases

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_gradcheck(self, rate):
        rng = np.random.default_rng(21)
        x = t(rng.normal(size=(2, 9, 2, 3)))
        kernels, biases = self.bank(22)
        w = Tensor(rng.normal(size=(2, 5, 2, 4)))

        def loss():
            out = T.gated_conv1d(x, kernels, biases, 2, rate, True, np.random.default_rng(3))
            return T.reduce_sum(T.mul(out, w))

        tensors = {"x": x}
        tensors.update({f"kernel{i}": k for i, k in enumerate(kernels)})
        tensors.update({f"bias{i}": b for i, b in enumerate(biases)})
        assert_gradients_close(loss, tensors)

    def test_matches_conv1d_then_gating(self):
        # σ and tanh of the bank's two channel halves, with sigmoid's and
        # tanh's own arithmetic, so the values are equal bit for bit
        x = t(np.random.default_rng(23).normal(size=(2, 9, 2, 3)))
        kernels, biases = self.bank(24)
        y = T.conv1d(x, kernels, biases, dilation=2)
        want = T.mul(T.sigmoid(T.narrow(y, -1, 0, 4)), T.tanh(T.narrow(y, -1, 4, 4))).data
        out = T.gated_conv1d(x, kernels, biases, 2, 0.3, False)
        assert np.array_equal(out.data, want)

    def test_dropout_contract(self):
        x = t(np.ones((1, 4, 2, 3)))
        kernels, biases = self.bank(25)
        with pytest.raises(ContractError, match="needs an rng"):
            T.gated_conv1d(x, kernels, biases, 1, 0.5, True)
        with pytest.raises(ContractError, match="rate"):
            T.gated_conv1d(x, kernels, biases, 1, 1.0, False)

    def test_odd_bank_rejected(self):
        x = t(np.ones((1, 4, 2, 3)))
        with pytest.raises(DimensionError, match="odd"):
            T.gated_conv1d(x, [t(np.ones((3, 3, 2)))], [t(np.ones(3))], 1, 0.0, False)


class TestSkipLinear:
    @staticmethod
    def operands(seed, b=3):
        rng = np.random.default_rng(seed)
        return (t(rng.normal(size=(b, 5, 4, 3))), t(rng.normal(size=(15, 6))),
                t(rng.normal(size=6)))

    def test_gradcheck(self):
        x, w, b = self.operands(26)
        g = Tensor(np.random.default_rng(27).normal(size=(3, 4, 6)))
        assert_gradients_close(lambda: T.reduce_sum(T.mul(T.skip_linear(x, w, b), g)),
                               {"x": x, "w": w, "b": b})

    def test_matches_flatten_then_linear(self):
        # the same GEMMs as transpose → reshape → matmul → bias_add, so the
        # output and every gradient are equal bit for bit
        x, w, b = self.operands(28)
        g = Tensor(np.random.default_rng(29).normal(size=(3, 4, 6)))

        def grads(fn):
            for p in (x, w, b):
                p.grad = None
            with Tape() as tape:
                out = fn()
                loss = T.reduce_sum(T.mul(out, g))
            tape.backward(loss)
            return out.data, [p.grad for p in (x, w, b)]

        flat = lambda: T.reshape(T.transpose(x, (0, 2, 1, 3)), (3, 4, 15))  # noqa: E731
        want, want_grads = grads(lambda: T.bias_add(T.matmul(flat(), w), b))
        out, out_grads = grads(lambda: T.skip_linear(x, w, b))
        assert np.array_equal(out, want)
        for got, ref in zip(out_grads, want_grads):
            assert np.array_equal(got, ref)

    def test_shape_checks(self):
        x, w, b = self.operands(30)
        with pytest.raises(DimensionError, match="skip_linear"):
            T.skip_linear(x, t(np.ones((14, 6))), b)
        with pytest.raises(DimensionError, match="skip_linear"):
            T.skip_linear(x, w, t(np.ones(5)))


class TestLinear:
    @staticmethod
    def operands(seed, shape=(3, 5, 4, 3)):
        rng = np.random.default_rng(seed)
        return (t(rng.normal(size=shape)), t(rng.normal(size=(shape[-1], 6))),
                t(rng.normal(size=6)))

    @pytest.mark.parametrize("shape", [(4, 3), (3, 5, 4, 3)])
    def test_gradcheck(self, shape):
        x, w, b = self.operands(40, shape)
        g = Tensor(np.random.default_rng(41).normal(size=shape[:-1] + (6,)))
        assert_gradients_close(lambda: T.reduce_sum(T.mul(T.linear(x, w, b), g)),
                               {"x": x, "w": w, "b": b})

    @pytest.mark.parametrize("shape", [(4, 3), (3, 5, 4, 3)])
    def test_matches_matmul_then_bias_add(self, shape):
        # the same GEMMs and the same sums as the two-record chain, so the
        # output and every gradient are equal bit for bit
        x, w, b = self.operands(42, shape)
        g = Tensor(np.random.default_rng(43).normal(size=shape[:-1] + (6,)))

        def grads(fn):
            for p in (x, w, b):
                p.grad = None
            with Tape() as tape:
                out = fn()
                loss = T.reduce_sum(T.mul(out, g))
            tape.backward(loss)
            return out.data, [p.grad for p in (x, w, b)]

        want, want_grads = grads(lambda: T.bias_add(T.matmul(x, w), b))
        out, out_grads = grads(lambda: T.linear(x, w, b))
        assert np.array_equal(out, want)
        for got, ref in zip(out_grads, want_grads):
            assert np.array_equal(got, ref)

    def test_shape_checks(self):
        x, w, b = self.operands(44)
        with pytest.raises(DimensionError, match="linear"):
            T.linear(x, t(np.ones((4, 6))), b)
        with pytest.raises(DimensionError, match="linear"):
            T.linear(x, w, t(np.ones(5)))
        with pytest.raises(DimensionError, match="linear"):
            T.linear(t(np.ones(3)), w, b)


class TestRetention:
    """What one recorded fused op keeps alive, in multiples of its input's bytes."""

    @staticmethod
    def held(fn) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = fn()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and out.data.size
        return held

    def test_gated_conv1d_keeps_activations_and_mask(self):
        # σ‖tanh (two C-channel arrays), ξ and a boolean mask: about 3.1 C-
        # channel arrays, ~3 x here; storing the convolution output, both
        # activations, the product and the dropout output takes ~6 x
        rng = np.random.default_rng(31)
        x = t(rng.normal(size=(2, 40, 16, 16)))
        kernels = [t(rng.normal(size=(8, 16, k))) for k in (2, 3, 2, 3)]
        biases = [t(rng.normal(size=8)) for _ in range(4)]
        held = self.held(lambda: T.gated_conv1d(x, kernels, biases, 1, 0.3, True,
                                                np.random.default_rng(0)))
        assert held <= 3.5 * x.data.nbytes

    def test_layer_norm_residual_keeps_row_statistics(self):
        # the output and a mean and 1/std per row, 1 + 2/16 x; keeping x̂
        # and the normalised value before the residual add takes ~3 x
        rng = np.random.default_rng(32)
        x = t(rng.normal(size=(2, 30, 4, 16)))
        res = t(rng.normal(size=x.shape))
        gain, bias = t(np.ones(16)), t(np.zeros(16))
        held = self.held(lambda: T.layer_norm_residual(x, gain, bias, res))
        assert held <= 1.5 * x.data.nbytes

    def test_skip_linear_keeps_no_flatten(self):
        # the (B, N, 8) output only; a kept (B, N, T·C) flatten is 1 x
        rng = np.random.default_rng(33)
        x = t(rng.normal(size=(2, 30, 4, 16)))
        w, b = t(rng.normal(size=(480, 8))), t(np.zeros(8))
        held = self.held(lambda: T.skip_linear(x, w, b))
        assert held <= 0.25 * x.data.nbytes

    def test_linear_keeps_its_output_only(self):
        # the (B, T, N, 16) output; keeping the product before the bias
        # add as well takes 2 x
        rng = np.random.default_rng(34)
        x = t(rng.normal(size=(2, 30, 4, 16)))
        w, b = t(rng.normal(size=(16, 16))), t(np.zeros(16))
        held = self.held(lambda: T.linear(x, w, b))
        assert held <= 1.1 * x.data.nbytes

    def test_mixhop_keeps_its_output_only(self):
        # the output, which C_in = C_out makes the size of a hop; keeping
        # H₁ and H₂ as well takes ~3 x
        rng = np.random.default_rng(35)
        xi = t(rng.normal(size=(2, 30, 8, 16)))
        adj = t(rng.random((2, 1, 8, 8)))
        weights = [t(rng.normal(size=(16, 16))) for _ in range(3)]
        held = self.held(lambda: T.mixhop(xi, adj, weights, 0.05))
        assert held <= 1.1 * xi.data.nbytes

    def test_gru_sequence_keeps_gates_candidates_and_output(self):
        # r ‖ u, o and the output, 4 x with C = H; keeping the time-major
        # γ, r ⊙ α and the states as well takes ~7 x
        rng = np.random.default_rng(36)
        c = hd = 8
        gammas = t(rng.normal(size=(2, 10, 40, c)))
        alpha0 = t(np.tanh(rng.normal(size=(2, 40, hd))))
        weights = [t(rng.normal(size=(c + hd, hd))) for _ in range(3)]
        biases = [t(rng.normal(size=hd)) for _ in range(3)]
        held = self.held(lambda: T.gru_sequence(gammas, alpha0, *weights, *biases))
        assert held <= 4.3 * gammas.data.nbytes


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


class TestPairwiseGraph:
    """The scorer with its gate and row normalization as one record."""

    C = TestPairwiseMlp.C

    @pytest.fixture(params=["one block", "block per graph"])
    def blocking(self, request, monkeypatch):
        if request.param == "block per graph":
            monkeypatch.setattr(T, "_PAIR_BLOCK", 1)

    def operands(self, shape, seed):
        """α and (edge, mask) heads.  Hidden unit 0 of the edge head is dead
        for every pair, and node 0 kills every edge unit on its rows, so its
        edge scores are all the negative output bias and its rows all zero."""
        rng = np.random.default_rng(seed)
        heads = TestPairwiseMlp().heads(seed=seed)
        # node 0's first feature feeds every edge unit on the left only
        heads[0][0].data[0, :] = 1.0
        heads[0][0].data[self.C, :] = 0.0
        heads[0][3].data[:] = -0.05
        alpha = rng.normal(size=shape)
        alpha[..., 0, :] = (-20.0, 0.0, 0.0)
        return t(alpha), heads

    def chain(self, alpha, heads):
        """The ops the fused record replaces, on pairwise_mlp's scores."""
        scores = T.pairwise_mlp(alpha, heads)
        gated = T.mul(T.relu(T.select(scores, -1, 0)), T.sigmoid(T.select(scores, -1, 1)))
        return T.row_normalize(gated), gated

    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)])
    def test_gradcheck(self, shape, blocking):
        alpha, heads = self.operands(shape, seed=6)
        weights = Tensor(np.random.default_rng(5).normal(size=shape[:-1] + (shape[-2],)))
        graph = self.chain(alpha, heads)[1].data
        assert np.all(graph[..., 0, :] == 0.0)
        assert np.count_nonzero(graph[..., 1:, :]) > graph[..., 1:, :].size // 4
        tensors = {"alpha": alpha}
        for h, head in enumerate(heads):
            for name, p in zip(("w1", "b1", "w2", "b2"), head):
                tensors[f"{h}.{name}"] = p
        assert len(tensors) == 9
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.pairwise_graph(alpha, heads)[0], weights)),
            tensors,
        )
        # the dead unit gets no first-layer or output gradient, and the zero
        # rows pass finite gradients
        assert np.all(heads[0][0].grad[:, 0] == 0.0)
        assert heads[0][1].grad[0] == 0.0 and heads[0][2].grad[0, 0] == 0.0
        assert all(np.all(np.isfinite(p.grad)) for p in tensors.values())

    @pytest.mark.parametrize("shape", [(5, 3), (2, 3, 4, 3)])
    def test_matches_the_chain(self, shape, blocking):
        # the forward runs the chain's elementwise ops in its order, so Ā is
        # equal bit for bit; the gradients agree to rounding
        alpha, heads = self.operands(shape, seed=6)
        weights = Tensor(np.random.default_rng(7).normal(size=shape[:-1] + (shape[-2],)))
        params = [alpha] + [p for head in heads for p in head]

        def run(graph):
            for p in params:
                p.grad = None
            with Tape() as tape:
                out = graph()
                loss = T.reduce_sum(T.mul(out[0], weights))
            tape.backward(loss)
            return out, [p.grad for p in params]

        (a_bar, r), grads = run(lambda: T.pairwise_graph(alpha, heads))
        (want, gated), want_grads = run(lambda: self.chain(alpha, heads))
        assert a_bar.shape == r.shape[:-1] + (shape[-2],) == shape[:-1] + (shape[-2],)
        assert np.array_equal(a_bar.data, want.data)
        assert np.array_equal(r, gated.data.sum(axis=-1, keepdims=True))
        for got, ref in zip(grads, want_grads):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_record(self):
        alpha, heads = self.operands((2, 4, 3), seed=8)
        with Tape() as tape:
            T.pairwise_graph(alpha, heads)
        assert len(tape) == 1

    def test_needs_two_heads(self):
        alpha, heads = self.operands((4, 3), seed=9)
        with pytest.raises(DimensionError, match="edge and a mask"):
            T.pairwise_graph(alpha, heads[:1])
        with pytest.raises(DimensionError, match="pair features"):
            T.pairwise_graph(t(np.zeros((4, self.C + 1))), heads)


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


class TestMixhop:
    N, C_IN, C_OUT = 3, 2, 4

    # (features, adjacency): one graph per step, one graph for all steps,
    # and one graph per segment of d steps
    SHAPES = [((2, 3, N, C_IN), (2, 3, N, N)),
              ((2, 3, N, C_IN), (2, 1, N, N)),
              ((2, 2, 3, N, C_IN), (2, 2, 1, N, N))]

    def inputs(self, xi_shape, adj_shape, psi, seed=0):
        rng = np.random.default_rng(seed)
        xi = t(rng.normal(size=xi_shape))
        adj = t(rng.random(adj_shape))
        weights = [t(rng.normal(size=(self.C_IN, self.C_OUT))) for _ in range(psi + 1)]
        return xi, adj, weights

    @staticmethod
    def reference(xi, adj, weights, beta):
        """The per-hop op chain: a product, two scalings and a sum per hop,
        then a projection and a sum."""
        h = xi
        out = T.matmul(h, weights[0])
        for w in weights[1:]:
            h = T.add(T.mul(xi, beta), T.mul(T.matmul(adj, h), 1.0 - beta))
            out = T.add(out, T.matmul(h, w))
        return out

    @pytest.mark.parametrize("beta", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("psi", [0, 1, 2])
    @pytest.mark.parametrize("xi_shape, adj_shape", SHAPES)
    def test_gradcheck(self, xi_shape, adj_shape, psi, beta):
        xi, adj, weights = self.inputs(xi_shape, adj_shape, psi, seed=psi)
        target = Tensor(np.random.default_rng(9).normal(size=xi_shape[:-1] + (self.C_OUT,)))
        tensors = {"xi": xi, "adj": adj}
        tensors.update((f"w{k}", w) for k, w in enumerate(weights))
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(T.mixhop(xi, adj, weights, beta), target)),
            tensors,
        )

    @pytest.mark.parametrize("xi_shape, adj_shape", SHAPES)
    def test_matches_hop_reference(self, xi_shape, adj_shape):
        xi, adj, weights = self.inputs(xi_shape, adj_shape, psi=2, seed=4)
        target = Tensor(np.random.default_rng(5).normal(size=xi_shape[:-1] + (self.C_OUT,)))
        leaves = [xi, adj] + weights

        def run(fn):
            with Tape() as tape:
                out = fn(xi, adj, weights, 0.05)
                loss = T.reduce_sum(T.mul(out, target))
            tape.backward(loss)
            return out.data, [p.grad.copy() for p in leaves]

        out, grads = run(T.mixhop)
        ref_out, ref_grads = run(self.reference)
        assert np.array_equal(out, ref_out)
        scale = max(np.max(np.abs(g)) for g in ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert np.any(ref != 0)
            assert np.max(np.abs(g - ref)) <= 1e-12 * scale

    def test_no_grad_same_values_no_record(self):
        xi, adj, weights = self.inputs(*self.SHAPES[2], psi=2, seed=6)
        with Tape() as tape:
            recorded = T.mixhop(xi, adj, weights, 0.05)
            with no_grad():
                plain = T.mixhop(xi, adj, weights, 0.05)
        assert len(tape) == 1
        assert not plain.requires_grad
        assert np.array_equal(plain.data, recorded.data)

    def test_bad_shapes(self):
        xi, adj, weights = self.inputs(*self.SHAPES[0], psi=1)
        with pytest.raises(DimensionError, match="adjacency"):
            T.mixhop(xi, t(np.ones((2, 3, self.N, self.N + 1))), weights, 0.5)
        with pytest.raises(DimensionError, match="adjacency"):
            T.mixhop(t(np.ones((2, 1, self.N, self.C_IN))), adj, weights, 0.5)
        with pytest.raises(DimensionError, match="channels"):
            T.mixhop(xi, adj, [weights[0], t(np.ones((self.C_IN, 1)))], 0.5)
        with pytest.raises(DimensionError, match="at least one"):
            T.mixhop(xi, adj, [], 0.5)


class TestDropout:
    """Inverted dropout, which :func:`T.gated_conv1d` applies to its gated
    output: compared with the same call in eval mode, the identity."""

    RATE = 0.3

    @staticmethod
    def gated(x, rate, training, rng=None):
        kernels, biases = TestGatedConv1d.bank(40)
        return T.gated_conv1d(x, kernels, biases, 1, rate, training, rng)

    def test_rate_zero_identity(self):
        x = t(np.random.default_rng(41).normal(size=(2, 9, 2, 3)))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = self.gated(x, 0.0, True, rng)
        assert np.array_equal(out.data, self.gated(x, self.RATE, False).data)
        assert rng.bit_generator.state == state  # nothing drawn

    def test_inference_identity(self):
        x = t(np.random.default_rng(42).normal(size=(2, 9, 2, 3)))
        out = self.gated(x, 0.9, False)
        assert np.array_equal(out.data, self.gated(x, 0.0, False).data)

    def test_inference_returns_input_unrecorded(self):
        # eval mode draws no mask, even when handed an rng, and the gated
        # op is still one record
        x = t(np.random.default_rng(43).normal(size=(2, 9, 2, 3)))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with Tape() as tape:
            self.gated(x, self.RATE, False, rng)
        assert rng.bit_generator.state == state
        assert len(tape) == 1

    def test_survivor_fraction(self):
        x = t(np.random.default_rng(44).normal(size=(4, 400, 8, 3)))
        full = self.gated(x, 0.0, False).data
        out = self.gated(x, self.RATE, True, np.random.default_rng(7)).data
        kept = out != 0
        assert np.count_nonzero(kept) / out.size == pytest.approx(0.7, abs=0.01)
        assert np.allclose(out[kept], full[kept] / 0.7, rtol=1e-15, atol=0)

    def test_needs_rng(self):
        with pytest.raises(ContractError, match="needs an rng"):
            self.gated(t(np.ones((1, 4, 2, 3))), 0.5, True)

    def test_boolean_mask_matches_float_mask(self):
        # output and x's gradient equal the undropped op's under the float
        # mask (rng.random(shape) >= rate) / 0.7; TestRetention bounds what
        # the record keeps
        rng = np.random.default_rng(8)
        x = t(rng.normal(size=(2, 9, 2, 3)))
        w = rng.normal(size=(2, 7, 2, 4))
        keep = (np.random.default_rng(9).random(w.shape) >= self.RATE) / 0.7

        def run(rate, training, weight):
            x.grad = None
            with Tape() as tape:
                out = self.gated(x, rate, training, np.random.default_rng(9))
                loss = T.reduce_sum(T.mul(out, Tensor(weight)))
            tape.backward(loss)
            return out.data, x.grad

        out, grad = run(self.RATE, True, w)
        full, full_grad = run(0.0, False, w * keep)
        assert np.allclose(out, full * keep, rtol=1e-15, atol=0)
        assert np.allclose(grad, full_grad, rtol=1e-13, atol=1e-15)


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


def layer_norm(x, gain, bias, **kw):
    return T.layer_norm_residual(x, gain, bias, Tensor(np.zeros(x.shape)), **kw)


class TestLayerNorm:
    def test_constant_slice(self):
        x = t(np.full((2, 4), 3.0))
        out = layer_norm(x, t(np.ones(4)), t(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_hand_normalization(self):
        x = t([[1.0, 3.0]])
        out = layer_norm(x, t(np.ones(2)), t(np.zeros(2)), eps=1e-16)
        assert np.allclose(out.data, [[-1.0, 1.0]])

    def test_mean_equals_bias(self):
        rng = np.random.default_rng(5)
        x = t(rng.normal(size=(3, 6)))
        bias = t(rng.normal(size=6))
        out = layer_norm(x, t(np.ones(6)), bias)
        assert np.allclose(out.data.mean(axis=-1), bias.data.mean())

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = t(rng.normal(size=(2, 5)))
        g = t(rng.normal(size=5))
        b = t(rng.normal(size=5))
        assert_gradients_close(
            lambda: T.reduce_sum(T.mul(layer_norm(x, g, b), layer_norm(x, g, b))),
            {"x": x, "g": g, "b": b},
        )

    def test_residual_gradcheck(self):
        rng = np.random.default_rng(34)
        x = t(rng.normal(size=(2, 3, 5)))
        g, b = t(rng.normal(size=5)), t(rng.normal(size=5))
        res = t(rng.normal(size=(2, 3, 5)))

        def loss():
            out = T.layer_norm_residual(x, g, b, res)
            return T.reduce_sum(T.mul(out, out))

        assert_gradients_close(loss, {"x": x, "g": g, "b": b, "res": res})

    def test_matches_normalise_then_add(self):
        # the arithmetic of normalising, the affine map and the residual
        # add, in that order, so the value is equal bit for bit
        rng = np.random.default_rng(35)
        x, res = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4, 6))
        g, b = rng.normal(size=6), rng.normal(size=6)
        xc = x - x.mean(axis=-1, keepdims=True)
        xhat = xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-8))
        out = T.layer_norm_residual(t(x), t(g), t(b), t(res))
        assert np.array_equal(out.data, xhat * g + b + res)

    def test_shape_checks(self):
        x = t(np.ones((2, 4)))
        with pytest.raises(DimensionError, match="gain/bias"):
            T.layer_norm_residual(x, t(np.ones(3)), t(np.zeros(4)), x)
        with pytest.raises(DimensionError, match="differ"):
            T.layer_norm_residual(x, t(np.ones(4)), t(np.zeros(4)), t(np.ones((2, 3))))


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

    def test_len_counts_records_after_backward(self):
        x = t([1.0, 2.0])
        with Tape() as tape:
            loss = T.reduce_sum(T.tanh(T.mul(x, x)))
        assert len(tape) == 3
        tape.backward(loss)
        assert len(tape) == 3
        assert not tape._records

    def test_second_backward_rejected(self):
        x = t([1.0, 2.0])
        with Tape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
        tape.backward(loss)
        with pytest.raises(ContractError, match="already ran"):
            tape.backward(loss)

    @staticmethod
    def retaining_backward(tape, loss):
        """Replay without releasing anything: every gradient stays put."""
        produced = {id(out) for out, _, _ in tape._records}
        leaves = [p for _, parents, _ in tape._records for p in parents
                  if p.requires_grad and id(p) not in produced]
        for out, _, _ in tape._records:
            out.grad = None
        for p in leaves:
            p.grad = None
        loss.grad = np.ones_like(loss.data)
        for out, _, fn in reversed(tape._records):
            if out.grad is not None:
                fn(out.grad)
        for p in leaves:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)

    @pytest.mark.parametrize("preset", [single_step_preset, multi_step_preset])
    def test_leaf_gradients_match_retaining_replay(self, preset):
        config = preset(4, seed=2)
        model = Model(config)
        rng = np.random.default_rng(5)
        model.set_reference_series(rng.normal(size=(4, 300, config.n_channels)))
        for p in model.parameters().values():
            p.data = p.data + 0.3 * rng.normal(size=p.shape)
        x = rng.normal(size=(2, config.window, 4, config.n_channels))
        target = rng.normal(size=model.predict(x).shape)

        def step():
            with Tape() as tape:
                pred, _ = model.forward(x, training=True, rng=np.random.default_rng(6))
                loss = loss_tensor(pred, target, "mae")
            return tape, loss

        tape, loss = step()
        self.retaining_backward(tape, loss)
        want = {k: p.grad.copy() for k, p in model.parameters().items()}
        tape, loss = step()
        outs = [out for out, _, _ in tape._records]
        tape.backward(loss)
        for k, p in model.parameters().items():
            assert np.array_equal(p.grad, want[k]), k
        assert all(out.grad is None for out in outs)

    def test_backward_releases_the_chain(self):
        # k scalings of an X-byte array: the forward tape holds k·X; keeping
        # every intermediate gradient as well would peak near 2k·X
        k = 8
        x = t(np.random.default_rng(13).normal(size=1 << 17))
        nbytes = x.data.nbytes
        tracemalloc.start()
        try:
            with Tape() as tape:
                z = x
                for i in range(k):
                    z = T.mul(z, 1.0 + 1.0 / (i + 2))
                loss = T.reduce_sum(z)
            del z
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (k + 3) * nbytes
        assert x.grad.shape == x.shape

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
