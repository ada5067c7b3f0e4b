import tracemalloc

import numpy as np
import pytest

from evograph import tensor as T
from evograph.errors import ConfigurationError, SequenceTooShortError
from evograph.nn import ParamStore
from evograph.rng import RngSource
from evograph.temporal import TcnLayer, layer_dilation
from evograph.tensor import Tensor

from gradcheck import gradient_errors


def store(seed=0):
    return ParamStore(RngSource(seed))


def rand(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


class TestDilation:
    def test_exponential_rate_two(self):
        assert [layer_dilation(l, 2) for l in (1, 2, 3, 4, 5)] == [1, 2, 4, 8, 16]

    def test_rate_one_flat(self):
        assert [layer_dilation(l, 1) for l in (1, 2, 3)] == [1, 1, 1]

    def test_first_layer_always_one(self):
        for q in (1, 2, 3):
            assert layer_dilation(1, q) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            layer_dilation(0, 2)


class TestInception:
    def test_paper_single_step_length(self):
        layer = TcnLayer(store(), "tcn", 1, 16, (2, 3, 6, 7), dilation=1)
        out = layer(rand(1, 3, 168, 1))
        assert out.shape == (1, 3, 162, 16)

    def test_pointwise_filter_keeps_length(self):
        layer = TcnLayer(store(), "tcn", 2, 4, (1,), dilation=1)
        assert layer(rand(1, 3, 9, 2)).shape == (1, 3, 9, 4)

    def test_two_filter_multi_step_length(self):
        layer = TcnLayer(store(), "tcn", 1, 8, (2, 6), dilation=1)
        assert layer(rand(1, 4, 12, 1)).shape == (1, 4, 7, 8)

    def test_too_short_names_minimum(self):
        layer = TcnLayer(store(), "tcn", 1, 4, (2, 7), dilation=2)
        with pytest.raises(SequenceTooShortError, match="needs ≥ 13"):
            layer(rand(1, 3, 12, 1))
        assert layer(rand(1, 3, 13, 1)).shape == (1, 3, 1, 4)

    def test_channel_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            TcnLayer(store(), "tcn", 1, 10, (2, 3, 6, 7), dilation=1)


def gated_fusion(a, b):
    """σ(a) ⊙ tanh(b) through ``gated_conv1d``: a pointwise identity bank
    whose filter half reads a's channels and whose gate half reads b's."""
    c = a.shape[-1]
    eye = np.eye(2 * c)
    x = Tensor(np.concatenate([a.data, b.data], axis=-1)[None, None])
    kernels = [Tensor(eye[:c, :, None]), Tensor(eye[c:, :, None])]
    biases = [Tensor(np.zeros(c)), Tensor(np.zeros(c))]
    return Tensor(T.gated_conv1d(x, kernels, biases, 1, 0.0, False).data[0, 0])


class TestGatedFusion:
    def test_zero_gate_branch(self):
        a, b = rand(2, 3, seed=1), Tensor(np.zeros((2, 3)))
        assert np.allclose(gated_fusion(a, b).data, 0.0)

    def test_saturated_sigmoid(self):
        a = Tensor(np.full((2, 2), 1e4))
        b = rand(2, 2, seed=2)
        assert np.allclose(gated_fusion(a, b).data, np.tanh(b.data))

    def test_bounded(self):
        a, b = rand(4, 5, seed=3), rand(4, 5, seed=4)
        out = gated_fusion(a, b).data
        assert np.all(np.abs(out) < 1.0)


class TestTcnLayer:
    def test_causality_last_step(self):
        layer = TcnLayer(store(), "tcn", 1, 4, (2, 3), dilation=1)
        x = np.random.default_rng(5).normal(size=(1, 2, 10, 1))
        base = layer(Tensor(x)).data
        x2 = x.copy()
        x2[0, 0, -1, 0] += 1.0
        out = layer(Tensor(x2)).data
        diff = np.abs(out - base).sum(axis=(0, 1, 3))
        assert diff[-1] > 0
        assert np.all(diff[:-1] == 0)

    def test_output_bounded(self):
        layer = TcnLayer(store(), "tcn", 2, 4, (2, 3), dilation=2)
        out = layer(rand(2, 3, 12, 2, seed=6)).data
        assert np.all(np.abs(out) < 1.0)

    def test_dropout_only_in_training(self):
        layer = TcnLayer(store(), "tcn", 1, 4, (2,), dilation=1, dropout=0.5)
        x = rand(1, 2, 8, 1, seed=7)
        a = layer(x).data
        b = layer(x).data
        assert np.array_equal(a, b)
        c = layer(x, training=True, rng=np.random.default_rng(0)).data
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("q,n_layers", [(1, 3), (2, 2), (2, 3)])
    def test_receptive_field_by_dependency_trace(self, q, n_layers):
        st = store()
        filters = (2, 3)
        layers = [
            TcnLayer(st, f"l{i}", 1 if i == 0 else 2, 2, filters,
                     dilation=layer_dilation(i + 1, q))
            for i in range(n_layers)
        ]
        # all-ones kernels / zero biases so a bump anywhere registers
        for p in st.params.values():
            p.data[:] = 1.0 if p.ndim == 3 else 0.0
        r = 1 + sum((max(filters) - 1) * q**i for i in range(n_layers))
        p_len = r + 4
        base = np.zeros((1, 2, p_len, 1))

        def final_step(x):
            z = Tensor(x)
            for layer in layers:
                z = layer(z)
            assert z.shape[2] >= 1
            return z.data[0, :, -1]

        ref = final_step(base)
        touched = []
        for i in range(p_len):
            bumped = base.copy()
            bumped[0, 0, i, 0] = 1.0
            if not np.array_equal(final_step(bumped), ref):
                touched.append(i)
        assert touched == list(range(p_len - r, p_len))

    def test_length_law_stacked(self):
        st = store()
        filters = (2, 3, 6, 7)
        x = rand(1, 3, 64, 1, seed=8)
        t = 64
        for i in range(2):
            s = layer_dilation(i + 1, 2)
            layer = TcnLayer(st, f"s{i}", x.shape[-1], 4, filters, dilation=s)
            x = layer(x)
            t = t - (7 - 1) * s
            assert x.shape[2] == t

    def test_branch_gradients(self):
        st = store(3)
        layer = TcnLayer(st, "tcn", 1, 4, (2, 3), dilation=2)
        x = rand(1, 2, 9, 1, seed=9)

        def loss():
            out = layer(x)
            return T.reduce_mean(T.mul(out, out))

        errs = gradient_errors(loss, dict(st.params))
        assert max(errs.values()) <= 1e-4

    @pytest.mark.parametrize("sizes", [(3,), (2, 6), (2, 3, 6, 7)])
    def test_training_call_records(self, sizes):
        # the bank, its gating and dropout are one record, whatever ω
        layer = TcnLayer(store(), "tcn", 2, 4 * len(sizes), sizes, dilation=2, dropout=0.3)
        x = rand(2, 3, 16, 2)
        with T.Tape() as tape:
            layer(x, training=True, rng=np.random.default_rng(0))
        assert len(tape) == 1

    def test_training_output_is_eval_output_under_the_dropout_mask(self):
        # the mask is rng.random(shape) >= rate, drawn once per call and
        # time-major, (B, T, N, C), whatever the features' layout
        layer = TcnLayer(store(2), "tcn", 2, 8, (2, 3), dilation=2, dropout=0.3)
        x = rand(2, 3, 16, 2, seed=5)
        xi = layer(x).data
        keep = np.random.default_rng(4).random((2, 12, 3, 8)).transpose(0, 2, 1, 3) >= 0.3
        out = layer(x, training=True, rng=np.random.default_rng(4)).data
        assert np.array_equal(out, xi * (keep / 0.7))

    def test_no_grad_call_peak(self):
        # computed in place: the bank's 2C-channel output and one reused
        # per-tap product, then that output and the σ‖tanh buffer, about 4
        # C-channel arrays at peak; separate sigmoid, tanh and product
        # arrays take it to about 5
        layer = TcnLayer(store(), "tcn", 16, 16, (2, 3), dilation=1)
        x = rand(2, 32, 64, 16, seed=11)
        tracemalloc.start()
        try:
            with T.no_grad():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = layer(x)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (2, 32, 62, 16)
        assert peak <= 4.5 * x.data.nbytes

    @pytest.mark.parametrize("taped, bound", [(False, 2.0), (True, 3.0)])
    def test_call_peak_where_a_chunk_is_small(self, taped, bound):
        # 128 sequences of 186 output steps, about 11 to a bank chunk: the
        # output, with σ beside it when a tape records, and a few chunk
        # buffers, ~1.6 x the output without a tape and ~2.5 x with one; a
        # whole-array bank output takes either to ~4.2 x
        layer = TcnLayer(store(), "tcn", 16, 16, (2, 3, 6, 7), dilation=1)
        x = rand(16, 8, 192, 16, seed=12)
        tracemalloc.start()
        try:
            with T.Tape() if taped else T.no_grad():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = layer(x)
                peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (16, 8, 186, 16) and out.requires_grad == taped
        assert peak <= bound * out.data.nbytes

    def test_parameter_names_in_registration_order(self):
        # the order checkpoints and the gradient-norm sum follow
        st = store()
        TcnLayer(st, "tcn", 2, 4, (2, 6), dilation=1)
        assert list(st.params) == [
            "tcn.filter.k2.kernel", "tcn.filter.k2.bias",
            "tcn.filter.k6.kernel", "tcn.filter.k6.bias",
            "tcn.gate.k2.kernel", "tcn.gate.k2.bias",
            "tcn.gate.k6.kernel", "tcn.gate.k6.bias",
        ]
        assert st.params["tcn.gate.k6.kernel"].shape == (2, 2, 6)
        assert st.params["tcn.gate.k6.bias"].shape == (2,)

    @pytest.mark.parametrize("sizes,d", [((2, 3, 6, 7), 2), ((2, 6), 1), ((3,), 1)])
    def test_matches_per_branch_reference(self, sizes, d):
        # the per-branch algorithm in numpy: each bank runs one causal conv
        # per filter size, cuts it to the k_max output length and
        # concatenates; the backward is written out by hand, all on
        # (B, T, N, C) arrays that the layer gets node-major
        st = store(4)
        c_in, c_out = 3, 2 * len(sizes)
        layer = TcnLayer(st, "tcn", c_in, c_out, sizes, dilation=d)
        rng = np.random.default_rng(12)
        for p in st.params.values():
            p.data = rng.normal(size=p.shape)
        x = rng.normal(size=(2, 17, 3, c_in))
        w = rng.normal(size=(2, 17 - (max(sizes) - 1) * d, 3, c_out))
        t_out = w.shape[1]

        def taps(k):
            t_k = x.shape[1] - (k - 1) * d
            return t_k, [x[:, (k - 1 - tau) * d:(k - 1 - tau) * d + t_k] for tau in range(k)]

        pre = {}
        for bank in ("filter", "gate"):
            outs = []
            for k in sizes:
                kern = st.params[f"tcn.{bank}.k{k}.kernel"].data
                t_k, xs = taps(k)
                y = st.params[f"tcn.{bank}.k{k}.bias"].data + sum(
                    np.einsum("btnc,oc->btno", xs[tau], kern[:, :, tau]) for tau in range(k)
                )
                outs.append(y[:, t_k - t_out:])
            pre[bank] = np.concatenate(outs, axis=-1)
        sig, th = 1.0 / (1.0 + np.exp(-pre["filter"])), np.tanh(pre["gate"])
        ref_out = sig * th
        g_pre = {"filter": w * th * sig * (1.0 - sig), "gate": w * sig * (1.0 - th * th)}
        ref_grads = {}
        ref_gx = np.zeros_like(x)
        per = c_out // len(sizes)
        for bank in ("filter", "gate"):
            for i, k in enumerate(sizes):
                g = g_pre[bank][..., i * per:(i + 1) * per]
                t_k, xs = taps(k)
                g_full = np.zeros(g.shape[:1] + (t_k,) + g.shape[2:])
                g_full[:, t_k - t_out:] = g
                ref_grads[f"tcn.{bank}.k{k}.kernel"] = np.stack(
                    [np.einsum("btno,btnc->oc", g_full, xs[tau]) for tau in range(k)], axis=-1
                )
                ref_grads[f"tcn.{bank}.k{k}.bias"] = g.sum(axis=(0, 1, 2))
                kern = st.params[f"tcn.{bank}.k{k}.kernel"].data
                for tau in range(k):
                    off = (k - 1 - tau) * d
                    ref_gx[:, off:off + t_k] += np.einsum("btno,oc->btnc", g_full, kern[:, :, tau])

        def node_major(a):
            return np.ascontiguousarray(a.transpose(0, 2, 1, 3))

        xt = Tensor(node_major(x), requires_grad=True)
        with T.Tape() as tape:
            out = layer(xt)
            loss = T.reduce_sum(T.mul(out, Tensor(node_major(w))))
        tape.backward(loss)

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        assert rel(out.data, node_major(ref_out)) <= 1e-12
        assert rel(xt.grad, node_major(ref_gx)) <= 1e-12
        assert set(ref_grads) == set(st.params)
        for name, ref in ref_grads.items():
            assert rel(st.params[name].grad, ref) <= 1e-12, name
