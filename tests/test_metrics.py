import json
import math

import numpy as np
import pytest

from evograph.errors import DimensionError, UndefinedMetricError
from evograph.metrics import (
    _as_batch,
    corr,
    corr_details,
    horizon_report,
    mae,
    rmse,
    rse,
)


# ---------------------------------------------------------------------------
# Brute-force oracles: naive double loops, kept deliberately independent of
# the vectorized implementations in evograph.metrics.

def oracle_rse(y_true, y_pred) -> float:
    yt, yp = _as_batch(y_true, y_pred)
    rho, n = yt.shape
    mean = sum(yt[i, j] for i in range(rho) for j in range(n)) / (rho * n)
    num = 0.0
    den = 0.0
    for i in range(rho):
        for j in range(n):
            num += (yt[i, j] - yp[i, j]) ** 2
            den += (yt[i, j] - mean) ** 2
    if den == 0.0:
        raise UndefinedMetricError("RSE undefined: ground truth is constant")
    return math.sqrt(num) / math.sqrt(den)


def oracle_corr(y_true, y_pred) -> float:
    yt, yp = _as_batch(y_true, y_pred)
    rho, n = yt.shape
    node_rs = []
    for j in range(n):
        mt = sum(yt[i, j] for i in range(rho)) / rho
        mp = sum(yp[i, j] for i in range(rho)) / rho
        num = sum((yt[i, j] - mt) * (yp[i, j] - mp) for i in range(rho))
        vt = sum((yt[i, j] - mt) ** 2 for i in range(rho))
        vp = sum((yp[i, j] - mp) ** 2 for i in range(rho))
        if vt > 0 and vp > 0:
            node_rs.append(num / math.sqrt(vt * vp))
    if not node_rs:
        raise UndefinedMetricError("CORR undefined: every node is zero-variance")
    return sum(node_rs) / len(node_rs)


def oracle_rmse(y_true, y_pred) -> float:
    yt, yp = _as_batch(y_true, y_pred)
    rho, n = yt.shape
    total = 0.0
    for i in range(rho):
        for j in range(n):
            total += (yt[i, j] - yp[i, j]) ** 2
    return math.sqrt(total / (rho * n))


def oracle_mae(y_true, y_pred) -> float:
    yt, yp = _as_batch(y_true, y_pred)
    rho, n = yt.shape
    total = 0.0
    for i in range(rho):
        for j in range(n):
            total += abs(yt[i, j] - yp[i, j])
    return total / (rho * n)


def col(xs):
    return np.asarray(xs, dtype=np.float64)[:, None]


class TestRse:
    def test_perfect(self):
        y = col([1.0, 2.0, 3.0])
        assert rse(y, y) == 0.0

    def test_mean_predictor_is_one(self):
        y = col([1.0, 2.0, 3.0])
        assert rse(y, np.full_like(y, 2.0)) == pytest.approx(1.0)

    def test_hand_value(self):
        assert rse(col([1, 2, 3]), col([1, 2, 4])) == pytest.approx(
            math.sqrt(1) / math.sqrt(2)
        )

    def test_constant_truth_undefined(self):
        y = np.full((4, 2), 3.0)
        with pytest.raises(UndefinedMetricError):
            rse(y, y + 1)

    def test_shared_affine_invariance(self):
        rng = np.random.default_rng(0)
        yt, yp = rng.normal(size=(10, 3)), rng.normal(size=(10, 3))
        a = rse(yt, yp)
        b = rse(3.0 * yt + 7.0, 3.0 * yp + 7.0)
        assert a == pytest.approx(b, rel=1e-12)


class TestCorr:
    def test_perfect(self):
        y = np.random.default_rng(1).normal(size=(8, 3))
        assert corr(y, y) == pytest.approx(1.0)

    def test_anticorrelated(self):
        y = np.random.default_rng(2).normal(size=(8, 3))
        assert corr(y, -y + 5.0) == pytest.approx(-1.0)

    def test_half_correlated_two_nodes(self):
        yt = np.zeros((4, 2))
        yp = np.zeros((4, 2))
        yt[:, 0] = [1, 2, 3, 4]
        yp[:, 0] = [2, 4, 6, 8]  # r = 1
        yt[:, 1] = [1, -1, 1, -1]
        yp[:, 1] = [1, 1, -1, -1]  # r = 0
        assert corr(yt, yp) == pytest.approx(0.5)

    def test_zero_variance_node_excluded(self):
        yt = np.zeros((4, 2))
        yp = np.zeros((4, 2))
        yt[:, 0] = [1, 2, 3, 4]
        yp[:, 0] = [1, 2, 3, 4]
        yt[:, 1] = 7.0  # constant -> excluded
        yp[:, 1] = [1, 2, 1, 2]
        value, excluded = corr_details(yt, yp)
        assert value == pytest.approx(1.0)
        assert excluded == 1

    def test_all_constant_undefined(self):
        y = np.full((4, 3), 2.0)
        with pytest.raises(UndefinedMetricError):
            corr(y, y)

    def test_per_node_positive_affine_invariance(self):
        rng = np.random.default_rng(3)
        yt, yp = rng.normal(size=(12, 4)), rng.normal(size=(12, 4))
        scales = rng.uniform(0.5, 3.0, size=4)
        shifts = rng.normal(size=4)
        assert corr(yt, yp) == pytest.approx(
            corr(yt * scales + shifts, yp), rel=1e-12
        )


class TestRmseMae:
    def test_perfect(self):
        y = np.random.default_rng(4).normal(size=(5, 3))
        assert rmse(y, y) == 0.0
        assert mae(y, y) == 0.0

    def test_hand_values(self):
        yt = np.zeros((1, 2))
        yp = np.asarray([[3.0, 4.0]])
        assert rmse(yt, yp) == pytest.approx(math.sqrt(12.5))
        assert mae(yt, yp) == pytest.approx(3.5)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        yt, yp = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        assert rmse(yt, yt + 2 * (yp - yt)) == pytest.approx(2 * rmse(yt, yp))

    def test_mae_le_rmse(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            yt, yp = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
            assert mae(yt, yp) <= rmse(yt, yp) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            rmse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestOracleAgreement:
    def test_random_batches(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            yt = rng.normal(size=(9, 5))
            yp = rng.normal(size=(9, 5))
            assert rse(yt, yp) == pytest.approx(oracle_rse(yt, yp), abs=1e-10)
            assert corr(yt, yp) == pytest.approx(oracle_corr(yt, yp), abs=1e-10)
            assert rmse(yt, yp) == pytest.approx(oracle_rmse(yt, yp), abs=1e-10)
            assert mae(yt, yp) == pytest.approx(oracle_mae(yt, yp), abs=1e-10)

    def test_multichannel_flattening(self):
        rng = np.random.default_rng(8)
        yt = rng.normal(size=(6, 4, 2))
        yp = rng.normal(size=(6, 4, 2))
        flat_t = yt.reshape(6, 8)
        flat_p = yp.reshape(6, 8)
        assert rmse(yt, yp) == pytest.approx(oracle_rmse(flat_t, flat_p), abs=1e-12)
        assert corr(yt, yp) == pytest.approx(oracle_corr(flat_t, flat_p), abs=1e-12)


class TestReports:
    def test_multi_step_rows(self):
        rng = np.random.default_rng(9)
        yt = rng.normal(size=(20, 12, 4))
        yp = rng.normal(size=(20, 12, 4))
        rep = horizon_report(yt, yp, task="multi")
        assert list(rep.rows) == ["3", "6", "12", "All"]
        assert rep.rows["3"]["rmse"] == pytest.approx(rmse(yt[:, 2], yp[:, 2]))
        pooled = rmse(yt.reshape(240, 4), yp.reshape(240, 4))
        assert rep.rows["All"]["rmse"] == pytest.approx(pooled)

    def test_short_horizon_subset(self):
        rng = np.random.default_rng(10)
        yt = rng.normal(size=(8, 6, 3))
        yp = rng.normal(size=(8, 6, 3))
        rep = horizon_report(yt, yp, task="multi")
        assert list(rep.rows) == ["3", "6", "All"]

    def test_single_step_row(self):
        rng = np.random.default_rng(11)
        yt, yp = rng.normal(size=(10, 3)), rng.normal(size=(10, 3))
        rep = horizon_report(yt, yp, task="single", horizon=3)
        assert list(rep.rows) == ["3"]
        assert set(rep.rows["3"]) == {"rse", "corr", "rmse", "mae"}

    def test_json_roundtrip(self):
        rng = np.random.default_rng(12)
        yt, yp = rng.normal(size=(10, 3)), rng.normal(size=(10, 3))
        rep = horizon_report(yt, yp, task="single")
        assert json.loads(rep.to_json()) == rep.rows

    def test_csv_serialization(self, tmp_path):
        rng = np.random.default_rng(13)
        yt = rng.normal(size=(9, 4, 2))
        yp = rng.normal(size=(9, 4, 2))
        rep = horizon_report(yt, yp, task="multi")
        f = tmp_path / "report.csv"
        rep.write_csv(f)
        lines = f.read_text().strip().splitlines()
        assert lines[0] == "horizon,corr,mae,rmse,rse"
        assert len(lines) == 1 + len(rep.rows)
        # values round-trip through repr
        first = lines[1].split(",")
        assert float(first[3]) == rep.rows[lines[1].split(",")[0]]["rmse"]
