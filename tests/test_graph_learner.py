import json
import tracemalloc

import numpy as np
import pytest

from evograph import tensor as T
from evograph.errors import SequenceTooShortError
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

from gradcheck import gradient_errors
import reference_ops as R


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
        xi = rand(2, 5, 13, 3)
        spec = SegmentSpec.for_length(13, 4)
        gammas = T.segment_mean(xi, spec.boundaries)
        assert spec.m == 3
        assert gammas.shape == (2, 5, 3, 3)

    def test_aggregate_constant(self):
        xi = Tensor(np.full((1, 4, 12, 2), 7.0))
        gammas = T.segment_mean(xi, SegmentSpec.for_length(12, 4).boundaries)
        assert np.allclose(gammas.data, 7.0)

    def test_aggregate_means(self):
        vals = np.arange(8.0).reshape(1, 1, 8, 1)
        gammas = T.segment_mean(Tensor(vals), SegmentSpec.for_length(8, 4).boundaries)
        assert gammas.data[0, 0, 0].item() == 1.5
        assert gammas.data[0, 0, 1].item() == 5.5


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
        out = run_gru(cell, rand(2, 5, 1, 3, seed=2), h)
        assert np.allclose(out.data[:, 0], 0.5 * h.data)

    def test_zero_hidden_zero_params(self):
        st = store()
        cell = GruCell(st, "gru", 3, 4)
        for p in st.params.values():
            p.data[:] = 0.0
        out = run_gru(cell, rand(1, 5, 1, 3, seed=3), Tensor(np.zeros((1, 5, 4))))
        assert np.allclose(out.data, 0.0)

    def test_state_stays_bounded(self):
        cell = GruCell(store(1), "gru", 2, 3)
        h = run_gru(cell, rand(1, 4, 50, 2, seed=0), Tensor(np.zeros((1, 4, 3))))
        # convex mix of previous state and tanh keeps |h| < 1 forever
        assert np.all(np.abs(h.data) < 1.0)


class TestStaticExtractor:
    def test_identical_series_identical_rows(self):
        ext = StaticFeatureExtractor(store(), "fs", 1, 6, c_hidden=4)
        series = np.random.default_rng(4).normal(size=(3, 50, 1))
        series[2] = series[0]
        alpha = ext(Tensor(series))
        assert alpha.shape == (3, 6)
        assert np.array_equal(alpha.data[0], alpha.data[2])
        assert not np.array_equal(alpha.data[0], alpha.data[1])

    def test_too_short(self):
        ext = StaticFeatureExtractor(store(), "fs", 1, 6, c_hidden=4)
        with pytest.raises(SequenceTooShortError):
            ext(rand(3, 20, 1, seed=5))

    def test_default_width(self):
        ext = StaticFeatureExtractor(store(), "fs", 2, 40)
        alpha = ext(rand(4, 60, 2, seed=6))
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
        a, _ = egl.derive_adjacency(alpha)
        assert np.allclose(a.data, a.data.flat[0])

    def test_mask_attenuates(self):
        # A = Ā ⊙ r is the edge score's ReLU attenuated by the mask, and Ā
        # its row-normalized form
        for seed in range(5):
            egl = Egl(store(seed), "egl", c_in=3, c_e=4, c_s=5)
            alpha = rand(6, 4, seed=seed)
            a_bar, r = egl.derive_adjacency(alpha)
            ref = TestPairScorerReference.reference(egl.heads, Tensor(alpha.data[None]))
            a_hat = ref[2].data[0]
            a = a_bar.data * r
            assert np.all(a >= 0)
            assert np.all(a <= a_hat + 1e-15)
            assert np.allclose(r[:, 0], a.sum(axis=-1))
            assert np.allclose(a_bar.data.sum(axis=-1), 1.0)

    def test_saturated_negative_mask_kills_graph(self):
        st = store(4)
        egl = Egl(st, "egl", c_in=3, c_e=4, c_s=5)
        st.params["egl.mask.fc2.bias"].data[:] = -1e4
        alpha = rand(6, 4, seed=9)
        a_bar, r = egl.derive_adjacency(alpha)
        # every row is all zero, and row normalization passes it through
        assert np.all(a_bar.data == 0.0) and np.all(r == 0.0)
        # the edge scores alone would leave live edges
        a_hat = TestPairScorerReference.reference(egl.heads, Tensor(alpha.data[None]))[2]
        assert np.any(a_hat.data > 0)

    def test_batched_matches_per_sample(self):
        egl = Egl(store(5), "egl", c_in=3, c_e=4, c_s=5)
        alpha = rand(3, 6, 4, seed=10)
        a_all, r_all = egl.derive_adjacency(alpha)
        for b in range(3):
            a_one, r_one = egl.derive_adjacency(Tensor(alpha.data[b]))
            assert np.allclose(a_all.data[b], a_one.data)
            assert np.allclose(r_all[b], r_one)

    def test_record_keeps_only_normalized_graph_and_row_sums(self):
        # Ā and r, 1 + 1/N of one (B, M, N, N) array; the unfused chain of
        # scores, ReLU, σ and product holds about 4 x, and its row
        # normalization one more
        egl = Egl(store(6), "egl", c_in=3, c_e=4, c_s=5)
        alpha = Tensor(np.random.default_rng(13).normal(size=(2, 4, 48, 4)), requires_grad=True)
        graph_bytes = 2 * 4 * 48 * 48 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with T.Tape():
                out = egl.derive_adjacency(alpha)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out[0].shape == (2, 4, 48, 48)
        assert held <= 1.1 * graph_bytes


class TestPairScorerReference:
    """The fused scorer and its epilogue against the pair tensor built
    explicitly and a chain of plain ops."""

    @staticmethod
    def reference(heads, alpha):
        """(B, N², 2C) pairs in numpy, the (edge, mask) ``heads``' MLPs, the
        gate and the row normalization through plain ops: Ā, A, relu(s_e)
        and the pair tensor, a leaf."""
        b, n, c = alpha.shape
        a = alpha.data
        pairs = Tensor(np.concatenate([
            np.repeat(a[:, :, None, :], n, axis=2),
            np.repeat(a[:, None, :, :], n, axis=1),
        ], axis=-1).reshape(b, n * n, 2 * c), requires_grad=True)

        def mlp(w1, b1, w2, b2):
            hidden = T.relu(R.bias_add(R.matmul(pairs, w1), b1))
            return T.reshape(R.bias_add(R.matmul(hidden, w2), b2), (b, n, n))

        edge, mask = heads
        a_hat = T.relu(mlp(*edge))
        graph = T.mul(a_hat, R.sigmoid(mlp(*mask)))
        return R.row_normalize(graph), graph, a_hat, pairs

    def test_outputs_and_gradients_match(self):
        st = store(11)
        egl = Egl(st, "egl", c_in=3, c_e=5, c_s=4)
        rng = np.random.default_rng(12)
        for p in st.params.values():  # leave the flat init so all paths carry gradient
            p.data = p.data + 0.5 * rng.normal(size=p.shape)
        alpha_data = rng.normal(size=(3, 7, 5))
        # node 0 of sample 1 kills every edge unit on its rows: all its
        # edge scores are the (negative) output bias, so its row is all zero
        st.params["egl.edge.fc2.bias"].data[:] = -0.5
        alpha_data[1, 0] = np.linalg.solve(egl.edge_fc1.w.data[:5].T, np.full(5, -100.0))
        alpha = Tensor(alpha_data, requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 7, 7)))
        scorer = [k for k in st.params if ".edge." in k or ".mask." in k]
        assert len(scorer) == 8

        def run(graphs):
            with T.Tape() as tape:
                outs = graphs()
                loss = T.reduce_sum(T.mul(outs[0], weight))
            tape.backward(loss)
            return outs, {k: st.params[k].grad.copy() for k in scorer}

        (a_bar, r), g_fused = run(lambda: egl.derive_adjacency(alpha))
        g_alpha = alpha.grad.copy()
        (ref_bar, ref_graph, _, pairs), g_ref = run(lambda: self.reference(egl.heads, alpha))
        # the pair tensor's gradient folds back onto α_i (left) and α_j (right)
        g_pairs = pairs.grad.reshape(3, 7, 7, 10)
        g_alpha_ref = g_pairs[..., :5].sum(axis=2) + g_pairs[..., 5:].sum(axis=1)

        def close(x, y):
            return np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

        assert np.all(ref_graph.data[1, 0] == 0.0) and np.all(r[1, 0] == 0.0)
        assert np.count_nonzero(ref_graph.data == 0) > 7
        assert close(a_bar.data, ref_bar.data)
        assert close(r, ref_graph.data.sum(axis=-1, keepdims=True))
        assert close(a_bar.data * r, ref_graph.data)
        for k in scorer:
            assert np.any(g_ref[k] != 0), k
            assert close(g_fused[k], g_ref[k]), k
        assert close(g_alpha, g_alpha_ref)


class TestEvolve:
    def make(self, seed=0):
        return Egl(store(seed), "egl", c_in=3, c_e=4, c_s=5)

    def test_single_segment_when_d_is_t(self):
        egl = self.make()
        seq = egl.evolve(rand(1, 5, 8, 3, seed=11), rand(5, 5, seed=12), d=8)
        assert len(seq.matrices) == 1
        assert seq.matrices[0].shape == (1, 5, 5)

    def test_graph_count_matches_segments(self):
        egl = self.make()
        seq = egl.evolve(rand(2, 5, 13, 3, seed=13), rand(5, 5, seed=14), d=4)
        assert len(seq.matrices) == seq.spec.m == 3
        assert all(m.shape == (2, 5, 5) for m in seq.matrices)

    def test_prefix_determinism(self):
        egl = self.make(1)
        alpha_s = rand(5, 5, seed=15)
        xi = np.random.default_rng(16).normal(size=(1, 5, 12, 3))
        xi2 = xi.copy()
        xi2[0, :, 8:] += 1.0  # perturb only segment 3
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
            xi = Tensor(np.random.default_rng(21).normal(size=(2, 5, t, 3)), requires_grad=True)
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
        xi = Tensor(rand(1, 8, 4, 2, seed=18).data.transpose(0, 2, 1, 3))
        alpha_s = rand(4, 4, seed=19)
        # a fixed random weighting of the last graph only: a row-normalized
        # graph's plain mean is 1/N whatever the GRU does
        weight = np.zeros((1, 2, 4, 4))
        weight[:, -1] = np.random.default_rng(22).normal(size=(4, 4))

        def loss():
            seq = egl.evolve(xi, alpha_s, d=4)
            return T.reduce_sum(T.mul(seq.adjacency, Tensor(weight)))

        gru_params = {k: v for k, v in st.params.items() if ".gru." in k}
        errs = gradient_errors(loss, gru_params)
        assert max(errs.values()) <= 1e-4
        # the loss actually depends on the GRU, well above rounding
        assert max(np.max(np.abs(p.grad)) for p in gru_params.values()) > 1e-6


class TestExport:
    def test_files_and_index(self, tmp_path):
        egl = Egl(store(7), "egl", c_in=3, c_e=4, c_s=5)
        seq = egl.evolve(rand(1, 5, 13, 3, seed=20), rand(5, 5, seed=21), d=4)
        written = export_graphs(seq, tmp_path, layer=2, time_offset=10)
        index = json.loads((tmp_path / "layer2_index.json").read_text())
        assert len(index) == 3
        assert index[0]["time_range"] == [10, 14]
        assert index[-1]["time_range"] == [18, 23]
        # the graph as learned, A = Ā ⊙ r, not the normalized Ā
        mat = np.loadtxt(tmp_path / index[0]["file"], delimiter=",")
        assert np.array_equal(mat, seq.adjacency.data[0, 0] * seq.row_sums[0, 0])
        assert np.allclose(mat.sum(axis=-1), seq.row_sums[0, 0, :, 0])
        assert len(written) == 4
