import numpy as np
import pytest

from evograph import tensor as T
from evograph.errors import ConfigurationError
from evograph.graph_learner import EvolvingGraphSequence, SegmentSpec
from evograph.synth import (
    GroundTruth,
    RegimeSpec,
    generate,
    random_coupling,
    ring_coupling,
    score_recovery,
    spectral_radius,
    two_regime_benchmark,
)
from evograph.tensor import Tensor


class TestSpec:
    def test_unstable_matrix_rejected(self):
        bad = np.eye(3) * 1.2
        with pytest.raises(ConfigurationError, match="spectral radius"):
            RegimeSpec(durations=[10], matrices=[bad])

    def test_negative_entries_rejected(self):
        m = ring_coupling(3)
        m[0, 1] = -0.5
        with pytest.raises(ConfigurationError):
            RegimeSpec(durations=[10], matrices=[m])

    def test_ring_coupling_stable(self):
        assert spectral_radius(ring_coupling(8, 0.9)) == pytest.approx(0.9)

    def test_random_coupling_properties(self):
        rng = np.random.default_rng(0)
        a = random_coupling(6, rng, row_sum=0.8)
        assert np.all(a >= 0)
        assert np.allclose(a.sum(axis=1), 0.8)
        assert np.all(np.diag(a) == 0)
        assert spectral_radius(a) < 1


class TestGenerate:
    def test_zero_everything_decays_to_zero(self):
        spec = RegimeSpec(durations=[50], matrices=[np.zeros((3, 3))], noise=0.0)
        ds, _ = generate(spec, 3, 50, seed=1)
        assert np.allclose(ds.values, 0.0)

    def test_deterministic(self):
        spec = two_regime_benchmark(n=4, t=100)
        a, _ = generate(spec, 4, 100, seed=7)
        b, _ = generate(spec, 4, 100, seed=7)
        assert np.array_equal(a.values, b.values)
        c, _ = generate(spec, 4, 100, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_duration_mismatch(self):
        spec = two_regime_benchmark(n=4, t=100)
        with pytest.raises(ConfigurationError):
            generate(spec, 4, 99, seed=0)

    def test_lagged_cross_correlation(self):
        # node 0 drives node 1 strongly: corr(x0(t−1), x1(t)) > 0.5
        a = np.zeros((2, 2))
        a[1, 0] = 0.9
        spec = RegimeSpec(durations=[2000], matrices=[a], noise=0.1)
        vals = []
        for seed in range(5):
            ds, _ = generate(spec, 2, 2000, seed=seed)
            x = ds.values[:, :, 0]
            vals.append(np.corrcoef(x[0, :-1], x[1, 1:])[0, 1])
        assert np.mean(vals) > 0.5

    def test_stationary_variance(self):
        spec = RegimeSpec(durations=[4000], matrices=[ring_coupling(4, 0.9)],
                          noise=0.1)
        ds, _ = generate(spec, 4, 4000, seed=3)
        first = ds.values[:, 200:2000, 0].var()
        second = ds.values[:, 2000:, 0].var()
        assert second < 4 * first
        assert np.all(np.isfinite(ds.values))

    def test_timeline_boundaries(self):
        spec = two_regime_benchmark(n=4, t=200)
        _, truth = generate(spec, 4, 200, seed=0)
        assert truth.boundaries == [(0, 60), (60, 200)]
        assert truth.regime_at(59) == 0
        assert truth.regime_at(60) == 1
        assert truth.majority_regime(50, 80) == 1

    def test_trend_component(self):
        spec = RegimeSpec(durations=[400], matrices=[np.zeros((2, 2))],
                          noise=0.0, trend_amplitude=2.0, trend_period=100)
        ds, _ = generate(spec, 2, 400, seed=0)
        x = ds.values[0, :, 0]
        assert x.max() > 1.5
        assert abs(x.mean()) < 0.2


class TestGroundTruthIo:
    def test_save_load_roundtrip(self, tmp_path):
        spec = two_regime_benchmark(n=5, t=100)
        _, truth = generate(spec, 5, 100, seed=0)
        truth.save(tmp_path)
        back = GroundTruth.load(tmp_path)
        assert back.boundaries == truth.boundaries
        for a, b in zip(back.matrices, truth.matrices):
            assert np.array_equal(a, b)


def seq_from_arrays(mats, t, d):
    spec = SegmentSpec.for_length(t, d)
    tensors = [Tensor(m[None]) for m in mats]
    return EvolvingGraphSequence.from_stack(T.stack(tensors, axis=1), spec)


class TestRecovery:
    def make_truth(self, n=5):
        return GroundTruth(
            boundaries=[(0, 40), (40, 80)],
            matrices=[ring_coupling(n), ring_coupling(n, reverse=True)],
        )

    def test_perfect_recovery(self):
        truth = self.make_truth()
        mats = [truth.matrices[0]] * 4 + [truth.matrices[1]] * 4
        seq = seq_from_arrays(mats, t=80, d=10)
        score = score_recovery(seq, truth)
        assert np.allclose(score.active_alignment, 1.0)
        assert score.majority == [0] * 4 + [1] * 4
        assert score.flip_segment == 4

    def test_constant_matrix_flagged(self):
        truth = self.make_truth()
        seq = seq_from_arrays([np.full((5, 5), 0.3)] * 8, t=80, d=10)
        score = score_recovery(seq, truth)
        assert np.all(score.alignments == 0.0)
        assert all(score.degenerate)

    def test_scale_invariance(self):
        truth = self.make_truth()
        rng = np.random.default_rng(5)
        mats = [rng.random((5, 5)) for _ in range(8)]
        a = score_recovery(seq_from_arrays(mats, 80, 10), truth).alignments
        b = score_recovery(
            seq_from_arrays([7.5 * m for m in mats], 80, 10), truth
        ).alignments
        assert np.allclose(a, b)

    def test_time_offset_shifts_majority(self):
        truth = self.make_truth()
        mats = [truth.matrices[1]] * 4
        seq = seq_from_arrays(mats, t=40, d=10)
        score = score_recovery(seq, truth, time_offset=40)
        assert score.majority == [1] * 4
        assert score.time_ranges[0] == (40, 50)
        assert np.allclose(score.active_alignment, 1.0)
