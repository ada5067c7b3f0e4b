import numpy as np
import pytest

from evograph import tensor as T
from evograph.errors import ContractError
from evograph.gradcheck import gradient_errors
from evograph.graph_learner import Egl, EvolvingGraphSequence, SegmentSpec
from evograph.nn import ParamStore
from evograph.propagation import MixHop
from evograph.rng import RngSource
from evograph.tensor import Tensor


def store(seed=0):
    return ParamStore(RngSource(seed))


def rand(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape))


def random_adj(n, b=1, seed=0):
    return Tensor(np.random.default_rng(seed).random((b, n, n)))


def over_time(adj):
    """(B, N, N) → (B, 1, N, N), which broadcasts over (B, T, N, C) features."""
    return T.reshape(adj, (adj.shape[0], 1) + adj.shape[1:])


def normalized(adj):
    """The row-normalized (B, 1, N, N) form that ``propagate`` expects."""
    return over_time(T.row_normalize(adj))


def seq_for(matrices, t, d):
    spec = SegmentSpec.for_length(t, d)
    return EvolvingGraphSequence.from_stack(T.stack(matrices, axis=1), spec)


class TestMixHop:
    def test_beta_one_identity(self):
        st = store(1)
        mh = MixHop(st, "mh", 3, 2, psi=2, beta=1.0)
        xi = rand(1, 4, 5, 3, seed=1)
        out = mh.propagate(xi, normalized(random_adj(5, seed=2)))
        total_w = sum(p.data for p in mh.hop_proj)
        assert np.allclose(out.data, xi.data @ total_w)

    def test_zero_adjacency_collapse(self):
        st = store(2)
        beta = 0.3
        mh = MixHop(st, "mh", 3, 2, psi=2, beta=beta)
        xi = rand(1, 4, 5, 3, seed=3)
        out = mh.propagate(xi, over_time(Tensor(np.zeros((1, 5, 5)))))
        w0, w1, w2 = (p.data for p in mh.hop_proj)
        expect = xi.data @ w0 + beta * xi.data @ w1 + beta * xi.data @ w2
        assert np.allclose(out.data, expect)

    def test_hand_iteration(self):
        st = store()
        mh = MixHop(st, "mh", 1, 1, psi=2, beta=0.0)
        for p in mh.hop_proj:
            p.data[:] = 1.0
        xi = Tensor(np.array([1.0, 0.0]).reshape(1, 1, 2, 1))
        adj = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(1, 2, 2))
        out = mh.propagate(xi, over_time(adj))
        assert out.data.reshape(2).tolist() == [2.0, 1.0]

    def test_negative_adjacency_rejected(self):
        mh = MixHop(store(), "mh", 2, 2, psi=1, beta=0.5)
        adj = Tensor(np.array([[0.0, -1.0], [1.0, 0.0]]).reshape(1, 2, 2))
        with pytest.raises(ContractError):
            mh.propagate(rand(1, 3, 2, 2, seed=4), over_time(adj))

    def test_row_normalized_diffusion_fixes_constants(self):
        mh = MixHop(store(3), "mh", 2, 2, psi=3, beta=0.4)
        c = np.array([1.5, -0.5])
        xi = Tensor(np.broadcast_to(c, (1, 4, 6, 2)).copy())
        out = mh.propagate(xi, normalized(random_adj(6, seed=5)))
        total_w = sum(p.data for p in mh.hop_proj)
        assert np.allclose(out.data, np.broadcast_to(c @ total_w, (1, 4, 6, 2)))

    def test_linearity_in_features(self):
        mh = MixHop(store(4), "mh", 3, 2, psi=2, beta=0.05)
        adj = random_adj(5, seed=6)
        x1, x2 = rand(1, 4, 5, 3, seed=7), rand(1, 4, 5, 3, seed=8)
        lhs = mh.propagate(Tensor(2.0 * x1.data + 3.0 * x2.data), normalized(adj))
        rhs = 2.0 * mh.propagate(x1, normalized(adj)).data \
            + 3.0 * mh.propagate(x2, normalized(adj)).data
        assert np.allclose(lhs.data, rhs)

    def test_gradients_through_adjacency_and_features(self):
        st = store(5)
        mh = MixHop(st, "mh", 2, 2, psi=2, beta=0.05)
        xi = rand(1, 3, 4, 2, seed=9)
        adj = Tensor(np.random.default_rng(10).random((1, 4, 4)) + 0.1,
                     requires_grad=True)

        def loss():
            out = mh.propagate(xi, normalized(adj))
            return T.reduce_mean(T.mul(out, out))

        tensors = dict(st.params)
        tensors["adj"] = adj
        tensors["xi"] = xi
        xi.requires_grad = True
        errs = gradient_errors(loss, tensors)
        assert max(errs.values()) <= 1e-4


class TestPerSegment:
    def test_single_segment_equals_global(self):
        mh = MixHop(store(6), "mh", 3, 2, psi=2, beta=0.05)
        xi = rand(2, 8, 4, 3, seed=11)
        adj = random_adj(4, b=2, seed=12)
        seq = seq_for([adj], t=8, d=8)
        a = mh.apply_per_segment(xi, seq)
        b = mh.propagate(xi, normalized(adj))
        assert np.array_equal(a.data, b.data)

    def test_identical_graphs_match_monolithic(self):
        mh = MixHop(store(7), "mh", 3, 2, psi=2, beta=0.05)
        xi = rand(1, 12, 4, 3, seed=13)
        adj = random_adj(4, seed=14)
        seq = seq_for([adj, adj, adj], t=12, d=4)
        a = mh.apply_per_segment(xi, seq)
        b = mh.propagate(xi, normalized(adj))
        assert np.allclose(a.data, b.data)

    def test_output_length_preserved(self):
        mh = MixHop(store(8), "mh", 3, 2, psi=1, beta=0.5)
        xi = rand(1, 13, 4, 3, seed=15)
        mats = [random_adj(4, seed=s) for s in (1, 2, 3)]
        out = mh.apply_per_segment(xi, seq_for(mats, t=13, d=4))
        assert out.shape == (1, 13, 4, 2)

    def test_per_segment_isolation(self):
        mh = MixHop(store(9), "mh", 2, 2, psi=2, beta=0.05)
        base = np.random.default_rng(16).normal(size=(1, 12, 4, 2))
        mats = [random_adj(4, seed=s) for s in (4, 5, 6)]
        seq = seq_for(mats, t=12, d=4)
        ref = mh.apply_per_segment(Tensor(base), seq).data
        bumped = base.copy()
        bumped[0, 5] += 1.0  # inside segment 2 = [4, 8)
        out = mh.apply_per_segment(Tensor(bumped), seq).data
        diff = np.abs(out - ref).sum(axis=(0, 2, 3))
        assert np.all(diff[4:8] >= 0)
        assert np.any(diff[4:8] > 0)
        assert np.all(diff[:4] == 0)
        assert np.all(diff[8:] == 0)

    def test_boundary_mismatch_rejected(self):
        mh = MixHop(store(10), "mh", 2, 2, psi=1, beta=0.5)
        seq = seq_for([random_adj(4, seed=7)], t=8, d=8)
        with pytest.raises(ContractError):
            mh.apply_per_segment(rand(1, 10, 4, 2, seed=17), seq)

    def test_time_offset_alignment(self):
        # graphs learned on [0, 12); features only span the last 5 steps
        mh = MixHop(store(11), "mh", 2, 2, psi=1, beta=0.5)
        mats = [random_adj(4, seed=s) for s in (8, 9, 10)]
        seq = seq_for(mats, t=12, d=4)
        full = rand(1, 12, 4, 2, seed=18)
        tail = Tensor(full.data[:, 7:, :, :])
        out_tail = mh.apply_per_segment(tail, seq, time_offset=7)
        out_full = mh.apply_per_segment(full, seq)
        assert np.allclose(out_tail.data, out_full.data[:, 7:])


def per_segment_reference(egl, mh, xi, alpha_s, d, graph_input=None, time_offset=0):
    """The per-segment algorithm, one small op chain per segment.

    Each segment's mean is its own narrow and mean, each GRU step is its own
    op chain over [γ, α], each GRU state is scored on its own, and each
    segment's features are narrowed and propagated through that segment's
    (B, N, N) graph; the parts are concatenated.  Graphs are learned on
    ``graph_input`` (``xi`` by default), which spans [0, T_g) while ``xi``
    spans [time_offset, time_offset + T).
    """
    src = xi if graph_input is None else graph_input
    spec = SegmentSpec.for_length(src.shape[1], d)
    alpha = T.broadcast_leading(egl.init_hidden(alpha_s), xi.shape[0])
    lo, hi = time_offset, time_offset + xi.shape[1]
    g = egl.gru

    def gate(cat, w, b, act):
        return act(T.bias_add(T.matmul(cat, w), b))

    parts = []
    for start, stop in spec.boundaries:
        gamma = T.reduce_mean(T.narrow(src, 1, start, stop - start), axis=1)
        cat = T.concat([gamma, alpha], axis=2)
        r = gate(cat, g.w_r, g.b_r, T.sigmoid)
        u = gate(cat, g.w_u, g.b_u, T.sigmoid)
        o = gate(T.concat([gamma, T.mul(r, alpha)], axis=2), g.w_o, g.b_o, T.tanh)
        alpha = T.add(T.mul(u, alpha), T.mul(1.0 - u, o))
        scores = T.pairwise_mlp(alpha, egl.heads)  # (B, N, N, 2)
        square = scores.shape[:-1]
        a_hat = T.relu(T.reshape(T.narrow(scores, -1, 0, 1), square))
        mask = T.reshape(T.narrow(scores, -1, 1, 1), square)
        adj = T.mul(a_hat, T.sigmoid(mask))
        s, e = max(start, lo) - lo, min(stop, hi) - lo
        if e > s:
            parts.append(mh.propagate(T.narrow(xi, 1, s, e - s), normalized(adj)))
    return T.concat(parts, axis=1)


class TestSegmentBatching:
    """Batched graph learning and propagation against the per-segment algorithm."""

    @pytest.mark.filterwarnings("ignore:T=.*shorter than segment interval")
    @pytest.mark.parametrize("t, d, t_graph", [
        (9, 1, None),   # one graph per step
        (11, 4, None),  # segments of 4 and a longer last one of 7
        (11, 16, None),  # d > T: one segment
        (9, 1, 12),     # graphs learned on a longer input, offset 3
        (9, 4, 12),     # offset 3: a 1-step piece, then two 4-step segments
    ])
    def test_matches_per_segment_reference(self, t, d, t_graph):
        rng = np.random.default_rng(20 + t + d)
        st = store(21)
        c_in, n, b = 3, 5, 2
        egl = Egl(st, "egl", c_in=c_in, c_e=4, c_s=6)
        mh = MixHop(st, "mh", c_in, 2, psi=2, beta=0.05)
        for p in st.params.values():  # off the flat init, so every path carries gradient
            p.data = p.data + 0.5 * rng.normal(size=p.shape)
        xi = Tensor(rng.normal(size=(b, t, n, c_in)), requires_grad=True)
        offset = 0 if t_graph is None else t_graph - t
        graph_input = None if t_graph is None else \
            Tensor(rng.normal(size=(b, t_graph, n, c_in)), requires_grad=True)
        alpha_s = Tensor(rng.normal(size=(n, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(b, t, n, 2)))
        leaves = dict(st.params, xi=xi, alpha_s=alpha_s)
        if graph_input is not None:
            leaves["graph_input"] = graph_input

        def run(forward):
            with T.Tape() as tape:
                out = forward()
                loss = T.reduce_sum(T.mul(out, weight))
            tape.backward(loss)
            return out.data, {k: v.grad.copy() for k, v in leaves.items()}

        def batched():
            seq = egl.evolve(xi if graph_input is None else graph_input, alpha_s, d=d)
            return mh.apply_per_segment(xi, seq, time_offset=offset)

        out, grads = run(batched)
        ref_out, ref_grads = run(lambda: per_segment_reference(
            egl, mh, xi, alpha_s, d, graph_input, offset))
        assert np.max(np.abs(out - ref_out)) <= 1e-15 * np.max(np.abs(ref_out))
        # measured against the largest gradient entry: row normalization
        # nearly cancels some sums (the scorers' output biases), so their
        # entry-wise relative error says nothing about the op order
        scale = max(np.max(np.abs(g)) for g in ref_grads.values())
        for k, g in grads.items():
            assert np.max(np.abs(g - ref_grads[k])) <= 1e-12 * scale, k
        assert all(np.any(ref_grads[k] != 0) for k in leaves if ".mask." in k or ".gru." in k)
