import json

import numpy as np
import pytest

from evograph import tensor as T
from evograph.errors import SequenceTooShortError
from evograph.gradcheck import gradient_errors
from evograph.graph_learner import (
    Egl,
    GruCell,
    SegmentSpec,
    StaticFeatureExtractor,
    export_graphs,
)
from evograph.nn import ParamStore
from evograph.rng import RngSource
from evograph.tensor import Tensor


def store(seed=0):
    return ParamStore(RngSource(seed))


def rand(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


class TestSegments:
    def test_exact_division(self):
        spec = SegmentSpec.for_length(12, 4)
        assert spec.m == 3
        assert spec.boundaries == [(0, 4), (4, 8), (8, 12)]

    def test_remainder_folds_into_last(self):
        spec = SegmentSpec.for_length(13, 4)
        assert spec.m == 3
        assert spec.boundaries[-1] == (8, 13)

    def test_short_sequence_degenerates(self):
        with pytest.warns(UserWarning):
            spec = SegmentSpec.for_length(3, 4)
        assert spec.m == 1
        assert spec.boundaries == [(0, 3)]

    def test_aggregate_shapes(self):
        xi = rand(2, 13, 5, 3)
        spec = SegmentSpec.for_length(13, 4)
        gammas = T.segment_mean(xi, spec.boundaries)
        assert spec.m == 3
        assert gammas.shape == (2, 3, 5, 3)

    def test_aggregate_constant(self):
        xi = Tensor(np.full((1, 12, 4, 2), 7.0))
        gammas = T.segment_mean(xi, SegmentSpec.for_length(12, 4).boundaries)
        assert np.allclose(gammas.data, 7.0)

    def test_aggregate_means(self):
        vals = np.arange(8.0).reshape(1, 8, 1, 1)
        gammas = T.segment_mean(Tensor(vals), SegmentSpec.for_length(8, 4).boundaries)
        assert gammas.data[0, 0].item() == 1.5
        assert gammas.data[0, 1].item() == 5.5


def run_gru(cell, gammas, alpha0):
    return T.gru_sequence(gammas, alpha0, cell.w_r, cell.w_u, cell.w_o,
                          cell.b_r, cell.b_u, cell.b_o)


class TestGru:
    def test_zero_params_halve_hidden(self):
        st = store()
        cell = GruCell(st, "gru", 3, 4)
        for p in st.params.values():
            p.data[:] = 0.0
        h = rand(2, 5, 4, seed=1)
        out = run_gru(cell, rand(2, 1, 5, 3, seed=2), h)
        assert np.allclose(out.data[:, 0], 0.5 * h.data)

    def test_zero_hidden_zero_params(self):
        st = store()
        cell = GruCell(st, "gru", 3, 4)
        for p in st.params.values():
            p.data[:] = 0.0
        out = run_gru(cell, rand(1, 1, 5, 3, seed=3), Tensor(np.zeros((1, 5, 4))))
        assert np.allclose(out.data, 0.0)

    def test_state_stays_bounded(self):
        cell = GruCell(store(1), "gru", 2, 3)
        h = run_gru(cell, rand(1, 50, 4, 2, seed=0), Tensor(np.zeros((1, 4, 3))))
        # convex mix of previous state and tanh keeps |h| < 1 forever
        assert np.all(np.abs(h.data) < 1.0)


class TestStaticExtractor:
    def test_identical_series_identical_rows(self):
        ext = StaticFeatureExtractor(store(), "fs", 1, 6, c_hidden=4)
        series = np.random.default_rng(4).normal(size=(3, 1, 50))
        series[2] = series[0]
        alpha = ext(Tensor(series))
        assert alpha.shape == (3, 6)
        assert np.array_equal(alpha.data[0], alpha.data[2])
        assert not np.array_equal(alpha.data[0], alpha.data[1])

    def test_too_short(self):
        ext = StaticFeatureExtractor(store(), "fs", 1, 6, c_hidden=4)
        with pytest.raises(SequenceTooShortError):
            ext(rand(3, 1, 20, seed=5))

    def test_default_width(self):
        ext = StaticFeatureExtractor(store(), "fs", 2, 40)
        alpha = ext(rand(4, 2, 60, seed=6))
        assert alpha.shape == (4, 40)


class TestAdjacency:
    def test_init_hidden_bounded_and_shaped(self):
        egl = Egl(store(2), "egl", c_in=3, c_e=20, c_s=5)
        a0 = egl.init_hidden(rand(6, 5, seed=7))
        assert a0.shape == (6, 20)
        assert np.all(np.abs(a0.data) < 1.0)

    def test_init_hidden_zero(self):
        st = store()
        egl = Egl(st, "egl", c_in=3, c_e=4, c_s=5)
        st.params["egl.init.weight"].data[:] = 0.0
        st.params["egl.init.bias"].data[:] = 0.0
        a0 = egl.init_hidden(Tensor(np.zeros((6, 5))))
        assert np.allclose(a0.data, 0.0)

    def test_identical_embeddings_constant_matrix(self):
        egl = Egl(store(3), "egl", c_in=3, c_e=4, c_s=5)
        alpha = Tensor(np.tile(np.random.default_rng(8).normal(size=4), (5, 1)))
        a, _, _ = egl.derive_adjacency(alpha)
        assert np.allclose(a.data, a.data.flat[0])

    def test_mask_attenuates(self):
        for seed in range(5):
            egl = Egl(store(seed), "egl", c_in=3, c_e=4, c_s=5)
            a, a_hat, _ = egl.derive_adjacency(rand(6, 4, seed=seed))
            assert np.all(a.data >= 0)
            assert np.all(a.data <= a_hat.data + 1e-15)

    def test_saturated_negative_mask_kills_graph(self):
        st = store(4)
        egl = Egl(st, "egl", c_in=3, c_e=4, c_s=5)
        st.params["egl.mask.fc2.bias"].data[:] = -1e4
        a, a_hat, _ = egl.derive_adjacency(rand(6, 4, seed=9))
        assert np.allclose(a.data, 0.0)
        assert np.any(a_hat.data > 0)

    def test_batched_matches_per_sample(self):
        egl = Egl(store(5), "egl", c_in=3, c_e=4, c_s=5)
        alpha = rand(3, 6, 4, seed=10)
        a_all, _, _ = egl.derive_adjacency(alpha)
        for b in range(3):
            a_one, _, _ = egl.derive_adjacency(Tensor(alpha.data[b]))
            assert np.allclose(a_all.data[b], a_one.data)


class TestPairScorerReference:
    """The fused scorer against the pair tensor built explicitly."""

    @staticmethod
    def reference(egl, alpha):
        """(B, N², 2C) pairs in numpy, both MLPs through plain ops."""
        b, n, c = alpha.shape
        a = alpha.data
        pairs = Tensor(np.concatenate([
            np.repeat(a[:, :, None, :], n, axis=2),
            np.repeat(a[:, None, :, :], n, axis=1),
        ], axis=-1).reshape(b, n * n, 2 * c), requires_grad=True)

        def mlp(fc1, fc2):
            hidden = T.relu(T.bias_add(T.matmul(pairs, fc1.w), fc1.b))
            return T.reshape(T.bias_add(T.matmul(hidden, fc2.w), fc2.b), (b, n, n))

        a_hat = T.relu(mlp(egl.edge_fc1, egl.edge_fc2))
        mask = mlp(egl.mask_fc1, egl.mask_fc2)
        return T.mul(a_hat, T.sigmoid(mask)), a_hat, mask, pairs

    def test_outputs_and_gradients_match(self):
        st = store(11)
        egl = Egl(st, "egl", c_in=3, c_e=5, c_s=4)
        rng = np.random.default_rng(12)
        for p in st.params.values():  # leave the flat init so all paths carry gradient
            p.data = p.data + 0.5 * rng.normal(size=p.shape)
        alpha = Tensor(rng.normal(size=(3, 7, 5)), requires_grad=True)
        weights = [Tensor(rng.normal(size=(3, 7, 7))) for _ in range(3)]
        scorer = [k for k in st.params if ".edge." in k or ".mask." in k]
        assert len(scorer) == 8

        def run(outputs):
            with T.Tape() as tape:
                outs = outputs()
                loss = T.reduce_sum(T.mul(outs[0], weights[0]))
                for o, w in zip(outs[1:3], weights[1:]):
                    loss = T.add(loss, T.reduce_sum(T.mul(o, w)))
            tape.backward(loss)
            return outs, {k: st.params[k].grad.copy() for k in scorer}

        fused, g_fused = run(lambda: egl.derive_adjacency(alpha))
        g_alpha = alpha.grad.copy()
        ref, g_ref = run(lambda: self.reference(egl, alpha))
        # the pair tensor's gradient folds back onto α_i (left) and α_j (right)
        g_pairs = ref[3].grad.reshape(3, 7, 7, 10)
        g_alpha_ref = g_pairs[..., :5].sum(axis=2) + g_pairs[..., 5:].sum(axis=1)

        def close(x, y):
            return np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

        assert np.any(fused[1].data == 0) and np.any(fused[1].data > 0)
        for got, want in zip(fused, ref[:3]):
            assert close(got.data, want.data)
        for k in scorer:
            assert np.any(g_ref[k] != 0), k
            assert close(g_fused[k], g_ref[k]), k
        assert close(g_alpha, g_alpha_ref)


class TestEvolve:
    def make(self, seed=0):
        return Egl(store(seed), "egl", c_in=3, c_e=4, c_s=5)

    def test_single_segment_when_d_is_t(self):
        egl = self.make()
        seq = egl.evolve(rand(1, 8, 5, 3, seed=11), rand(5, 5, seed=12), d=8)
        assert len(seq.matrices) == 1
        assert seq.matrices[0].shape == (1, 5, 5)

    def test_graph_count_matches_segments(self):
        egl = self.make()
        seq = egl.evolve(rand(2, 13, 5, 3, seed=13), rand(5, 5, seed=14), d=4)
        assert len(seq.matrices) == seq.spec.m == 3
        assert all(m.shape == (2, 5, 5) for m in seq.matrices)

    def test_prefix_determinism(self):
        egl = self.make(1)
        alpha_s = rand(5, 5, seed=15)
        xi = np.random.default_rng(16).normal(size=(1, 12, 5, 3))
        xi2 = xi.copy()
        xi2[0, 8:] += 1.0  # perturb only segment 3
        s1 = egl.evolve(Tensor(xi), alpha_s, d=4)
        s2 = egl.evolve(Tensor(xi2), alpha_s, d=4)
        for m in range(2):
            assert np.array_equal(s1.matrices[m].data, s2.matrices[m].data)
        assert not np.array_equal(s1.matrices[2].data, s2.matrices[2].data)

    def test_one_record_per_extra_segment(self):
        # the whole recurrence is one record; only the per-segment view in
        # ``matrices`` grows with M
        egl = self.make(3)
        alpha_s = Tensor(np.random.default_rng(20).normal(size=(5, 5)), requires_grad=True)

        def records(t):
            xi = Tensor(np.random.default_rng(21).normal(size=(2, t, 5, 3)), requires_grad=True)
            with T.Tape() as tape:
                seq = egl.evolve(xi, alpha_s, d=2)
            return len(tape), seq.spec.m

        (short, m_short), (long, m_long) = records(8), records(16)
        assert (m_short, m_long) == (4, 8)
        assert long - short == 4

    def test_static_sequence(self):
        egl = self.make(2)
        seq = egl.static_sequence(rand(5, 5, seed=17), t=12, batch=2)
        assert len(seq.matrices) == 1
        assert seq.spec.boundaries == [(0, 12)]
        assert seq.matrices[0].shape == (2, 5, 5)

    def test_gru_gradients_through_final_graph(self):
        st = store(6)
        egl = Egl(st, "egl", c_in=2, c_e=3, c_s=4)
        xi = rand(1, 8, 4, 2, seed=18)
        alpha_s = rand(4, 4, seed=19)

        def loss():
            seq = egl.evolve(xi, alpha_s, d=4)
            return T.reduce_mean(seq.matrices[-1])

        gru_params = {k: v for k, v in st.params.items() if ".gru." in k}
        errs = gradient_errors(loss, gru_params)
        assert max(errs.values()) <= 1e-4
        # the loss actually depends on the GRU (nonzero gradients)
        assert any(np.any(p.grad != 0) for p in gru_params.values())


class TestExport:
    def test_files_and_index(self, tmp_path):
        egl = Egl(store(7), "egl", c_in=3, c_e=4, c_s=5)
        seq = egl.evolve(rand(1, 13, 5, 3, seed=20), rand(5, 5, seed=21), d=4)
        written = export_graphs(seq, tmp_path, layer=2, time_offset=10)
        index = json.loads((tmp_path / "layer2_index.json").read_text())
        assert len(index) == 3
        assert index[0]["time_range"] == [10, 14]
        assert index[-1]["time_range"] == [18, 23]
        mat = np.loadtxt(tmp_path / index[0]["file"], delimiter=",")
        assert np.array_equal(mat, seq.matrices[0].data[0])
        assert len(written) == 4
