import json
import math
import os

import numpy as np
import pytest

from evograph import tensor as T
from evograph import trainer
from evograph.config import ExperimentConfig, ModelConfig, TrainConfig
from evograph.data import TimeSeriesDataset
from evograph.errors import ConfigurationError, TrainingAbortedError
from evograph.graph_learner import StaticFeatureExtractor
from evograph.metrics import horizon_report
from evograph.model import Model, load_checkpoint
from evograph.optim import Adam
from evograph.tensor import Tensor
from evograph.trainer import (
    ExperimentReport,
    PreparedData,
    config_fingerprint,
    dataset_hash,
    evaluate,
    evaluate_split,
    headline_row,
    load_history,
    loss_tensor,
    predict_batched,
    prepare_data,
    run_ablation,
    run_experiment,
    scale_probe,
    train,
    write_history,
)


def tiny_config(**kw):
    base = dict(
        task="single", n_nodes=4, n_channels=1, window=16, horizon=3,
        n_layers=2, intervals=(4, 1), dilation_rate=2, filter_sizes=(2, 3),
        c_xi=4, c_z=4, c_skip=4, c_out1=4, c_s=4, c_e=4, c_static_hidden=4,
        psi=1, beta=0.05, dropout=0.0, seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def sine_dataset(n=4, t=240, noise=0.02, seed=0):
    """Smooth per-node sinusoids plus faint noise: quickly learnable."""
    rng = np.random.default_rng(seed)
    steps = np.arange(t)
    values = np.stack([
        np.sin(2 * np.pi * steps / 40 + 2 * np.pi * i / n) for i in range(n)
    ])[:, :, None]
    values = values + rng.normal(scale=noise, size=values.shape)
    return TimeSeriesDataset(values, [f"n{i}" for i in range(n)], name="sine")


def noise_dataset(n=4, t=240, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, t, 1))
    return TimeSeriesDataset(values, [f"n{i}" for i in range(n)], name="noise")


def experiment(model_cfg=None, **train_kw):
    train_kw.setdefault("lr", 0.01)
    train_kw.setdefault("batch_size", 32)
    train_kw.setdefault("max_epochs", 3)
    train_kw.setdefault("patience", 0)
    return ExperimentConfig(model=model_cfg or tiny_config(),
                            train=TrainConfig(**train_kw))


class TestPrepareData:
    def test_window_counts_per_split(self):
        data = prepare_data(sine_dataset(t=240), experiment())
        # 240 steps at (0.6, 0.2, 0.2) -> 144/48/48; each split loses P+Q-1
        assert data.n_windows("train") == 144 - 16 - 3 + 1
        assert data.n_windows("val") == 48 - 16 - 3 + 1
        assert data.n_windows("test") == 48 - 16 - 3 + 1

    def test_scaler_fitted_on_train_only(self):
        ds = sine_dataset(t=240)
        ds.values[:, 200:, :] *= 100.0  # test-split outliers
        data = prepare_data(ds, experiment())
        assert np.all(data.scaler.scale <= np.abs(ds.values[:, :144]).max() + 1e-12)

    def test_reference_is_normalized_train_slice(self):
        data = prepare_data(sine_dataset(), experiment())
        assert data.reference.shape == (4, 144, 1)
        expect = data.scaler.transform_dataset(data.dataset.values[:, :144])
        assert np.array_equal(data.reference, expect)

    def test_access_counters(self):
        data = prepare_data(sine_dataset(), experiment())
        assert data.counters == {"train": 0, "val": 0, "test": 0}
        data.arrays("train")
        data.arrays("train")
        data.arrays("val")
        assert data.counters == {"train": 2, "val": 1, "test": 0}
        with pytest.raises(ConfigurationError, match="unknown split"):
            data.arrays("holdout")

    def test_dataset_model_mismatch(self):
        with pytest.raises(ConfigurationError, match="expects N="):
            prepare_data(sine_dataset(n=6), experiment())

    def test_split_too_short_for_windows(self):
        with pytest.raises(ConfigurationError, match="yields no windows"):
            with pytest.warns(UserWarning):
                prepare_data(sine_dataset(t=60), experiment())


class TestLosses:
    def test_mae_matches_numpy(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        target = np.array([[0.0, 2.0], [5.0, 3.0]])
        got = loss_tensor(pred, target, "mae")
        assert math.isclose(float(got.data), np.abs(pred.data - target).mean())

    def test_mse_matches_numpy(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        target = np.zeros((2, 2))
        got = loss_tensor(pred, target, "mse")
        assert math.isclose(float(got.data), (pred.data**2).mean())

    def test_unknown_loss(self):
        with pytest.raises(ConfigurationError):
            loss_tensor(Tensor(np.zeros(2)), np.zeros(2), "huber")


class TestTrain:
    def test_loss_decreases_on_learnable_data(self):
        cfg = experiment(max_epochs=8)
        data = prepare_data(sine_dataset(), cfg)
        model = Model(cfg.model)
        result = train(model, data, cfg.train)
        first = result.history[0]["train_loss"]
        last = result.history[-1]["train_loss"]
        assert last < first * 0.7

    def test_history_identical_across_runs(self):
        cfg = experiment(max_epochs=3)
        runs = []
        for _ in range(2):
            data = prepare_data(sine_dataset(), cfg)
            result = train(Model(cfg.model), data, cfg.train)
            runs.append(result.history)
        assert runs[0] == runs[1]

    def test_each_step_enters_one_tape(self, monkeypatch):
        # a step runs from entering its Tape to Adam.step: that is how
        # bench/cli_child.py and bench/tracer.py find steps, so an op that
        # entered a Tape of its own would start steps that never end
        events = []
        enter, step = T.Tape.__enter__, Adam.step

        def tape_enter(tape):
            events.append("tape")
            return enter(tape)

        def adam_step(opt):
            events.append("step")
            return step(opt)

        monkeypatch.setattr(T.Tape, "__enter__", tape_enter)
        monkeypatch.setattr(Adam, "step", adam_step)
        cfg = experiment(tiny_config(dropout=0.3), max_epochs=2, batch_size=16)
        train(Model(cfg.model), prepare_data(sine_dataset(), cfg), cfg.train)
        assert len(events) >= 4
        assert events == ["tape", "step"] * (len(events) // 2)

    def test_best_val_not_worse_than_final_epoch(self):
        cfg = experiment(max_epochs=6)
        data = prepare_data(noise_dataset(), cfg)
        model = Model(cfg.model)
        result = train(model, data, cfg.train)
        assert result.best_val <= result.history[-1]["val_metric"]
        # the model holds the best-epoch parameters: re-validation matches
        x, y, _ = data.arrays("val")
        pred = predict_batched(model, x)
        revalidated = trainer.headline_value(
            "single", data.scaler.inverse(y), data.scaler.inverse(pred)
        )
        assert math.isclose(revalidated, result.best_val, rel_tol=1e-12)

    def test_patience_stops_early(self):
        cfg = experiment(max_epochs=40, patience=2, lr=0.05)
        data = prepare_data(noise_dataset(), cfg)
        result = train(Model(cfg.model), data, cfg.train)
        assert len(result.history) < 40

    def test_nan_loss_aborts_with_diagnostic(self):
        cfg = experiment(max_epochs=2, lr=1e200, loss="mse")
        data = prepare_data(sine_dataset(), cfg)
        with pytest.raises(TrainingAbortedError, match="epoch") as info:
            with np.errstate(all="ignore"):
                train(Model(cfg.model), data, cfg.train)
        diag = info.value.diagnostic
        assert {"epoch", "batch", "global_param_norm", "param_norms"} <= set(diag)

    def test_nan_gradient_aborts_on_its_own_batch(self):
        w = Tensor(np.ones(3), requires_grad=True)
        params = {"w": w}
        opt = Adam(params, lr=0.1)
        bad_batch = 2
        calls, before_bad = [], {}

        def nan_grad(x):
            # identity forward, NaN backward: the loss stays finite
            def back(g, x=x):
                T._accumulate(x, np.full_like(g, np.nan))
            return T._make(x.data.copy(), (x,), back)

        def forward(batch):
            calls.append(batch)
            out = T.mul(w, Tensor(np.full(w.shape, float(batch.sum()))))
            if len(calls) - 1 == bad_batch:
                before_bad.update(w=w.data.copy(), t=opt.t)
                out = nan_grad(out)
            return T.reshape(out, (1, 3))

        xs = np.arange(5.0).reshape(5, 1)
        ys = np.zeros((5, 3))
        cfg = TrainConfig(batch_size=1, loss="mse")
        with pytest.raises(TrainingAbortedError,
                           match=f"gradient norm nan at epoch 4, batch {bad_batch}") as info:
            trainer._run_epoch(forward, params, opt, xs, ys, np.arange(5), cfg, 4)
        assert info.value.diagnostic["batch"] == bad_batch
        assert len(calls) == bad_batch + 1
        # earlier batches stepped; the NaN batch left parameters and Adam alone
        assert opt.t == before_bad["t"] == bad_batch
        assert np.array_equal(w.data, before_bad["w"])
        assert np.all(np.isfinite(opt.m["w"])) and np.all(np.isfinite(opt.v["w"]))

    def test_test_split_untouched_by_training(self):
        cfg = experiment(max_epochs=2)
        data = prepare_data(sine_dataset(), cfg)
        train(Model(cfg.model), data, cfg.train)
        assert data.counters["test"] == 0


class TestEvaluate:
    def test_refuses_without_scaler(self):
        cfg = experiment(max_epochs=1)
        data = prepare_data(sine_dataset(), cfg)
        model = Model(cfg.model)
        train(model, data, cfg.train)
        x, y, _ = data.arrays("val")
        with pytest.raises(ConfigurationError, match="scaler"):
            evaluate(model, x, y, None)

    def test_single_step_report_row(self):
        cfg = experiment(max_epochs=1)
        data = prepare_data(sine_dataset(), cfg)
        model = Model(cfg.model)
        train(model, data, cfg.train)
        report = evaluate_split(model, data, "test")
        assert list(report.rows) == ["3"]
        assert set(report.rows["3"]) == {"rse", "corr", "rmse", "mae"}
        assert data.counters["test"] == 1

    def test_multi_step_report_rows(self):
        mc = tiny_config(task="multi", horizon=6)
        cfg = experiment(mc, max_epochs=1)
        data = prepare_data(sine_dataset(), cfg)
        model = Model(mc)
        train(model, data, cfg.train)
        report = evaluate_split(model, data, "test")
        assert list(report.rows) == ["3", "6", "All"]

    def test_metrics_are_denormalized(self):
        # scale one node by 50x: raw-scale MAE must reflect raw units
        ds = sine_dataset()
        ds.values[0] *= 50.0
        cfg = experiment(max_epochs=1)
        data = prepare_data(ds, cfg)
        model = Model(cfg.model)
        train(model, data, cfg.train)
        report = evaluate_split(model, data, "test")
        x, y, _ = data.arrays("test")
        norm_mae = np.abs(data.scaler.inverse(predict_batched(model, x))
                          - data.scaler.inverse(y)).mean()
        assert math.isclose(report.rows["3"]["mae"], norm_mae, rel_tol=1e-9)


def persistence_report(data: PreparedData, horizon: int):
    """Test-split metrics of the single-step last-value forecast: a
    baseline with no parameters, so only windowing and metrics are tested."""
    x, y, _ = data.arrays("test")
    return horizon_report(data.scaler.inverse(y), data.scaler.inverse(x[:, -1]),
                          task="single", horizon=horizon)


class TestPersistence:
    def test_finite_metrics_on_any_dataset(self):
        cfg = experiment(max_epochs=1)
        data = prepare_data(noise_dataset(), cfg)
        report = persistence_report(data, 3)
        assert all(math.isfinite(v) for v in report.rows["3"].values())

    def test_corr_high_on_random_walk_low_on_white_noise(self):
        rng = np.random.default_rng(3)
        walk = TimeSeriesDataset(
            np.cumsum(rng.normal(size=(4, 600, 1)), axis=1),
            [f"n{i}" for i in range(4)],
        )
        cfg = experiment(tiny_config(horizon=1))
        walk_report = persistence_report(prepare_data(walk, cfg), 1)
        noise_report = persistence_report(
            prepare_data(noise_dataset(t=600, seed=4), cfg), 1
        )
        assert walk_report.rows["1"]["corr"] > 0.9
        assert abs(noise_report.rows["1"]["corr"]) < 0.2


class TestRunDir:
    def test_layout_and_checkpoint_roundtrip(self, tmp_path):
        cfg = experiment(max_epochs=2)
        out = tmp_path / "run"
        model, data, result, report = run_experiment(
            prepare_data(sine_dataset(), cfg), cfg, out_dir=out
        )
        assert {p.name for p in out.iterdir()} == {
            "config.json", "history.csv", "checkpoint.bin",
            "metrics.json", "metrics.csv", "graphs",
        }
        assert (out / "graphs" / "layer1_index.json").exists()
        history = load_history(out / "history.csv")
        assert [h["epoch"] for h in history] == [1, 2]
        loaded, extras = load_checkpoint(out / "checkpoint.bin")
        assert extras["epoch"] == result.best_epoch
        assert extras["scaler"].to_dict() == data.scaler.to_dict()
        # criterion rehearsal: evaluating the loaded model reproduces metrics
        x, y, _ = data.arrays("test")
        re_report = evaluate(loaded, x, y, data.scaler)
        assert re_report.to_json() == (out / "metrics.json").read_text()

    def test_refuses_nonempty_dir_without_force(self, tmp_path):
        cfg = experiment(max_epochs=1)
        out = tmp_path / "run"
        run_experiment(prepare_data(sine_dataset(), cfg), cfg, out_dir=out)
        with pytest.raises(ConfigurationError, match="not empty"):
            run_experiment(prepare_data(sine_dataset(), cfg), cfg, out_dir=out)
        run_experiment(prepare_data(sine_dataset(), cfg), cfg, out_dir=out, force=True)

    def test_refuses_a_file_as_run_directory(self, tmp_path):
        # the ConfigurationError a non-empty directory gets, not the
        # NotADirectoryError of listing a file
        cfg = experiment(max_epochs=1)
        out = tmp_path / "run"
        out.write_text("kept")
        with pytest.raises(ConfigurationError, match="not a directory"):
            run_experiment(prepare_data(sine_dataset(), cfg), cfg, out_dir=out)
        assert out.read_text() == "kept"

    def test_identical_runs_bitwise(self, tmp_path):
        cfg = experiment(max_epochs=2)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            run_experiment(prepare_data(sine_dataset(), cfg), cfg, out_dir=out)
        for name in ("metrics.json", "history.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        graph_files = sorted(p.name for p in (outs[0] / "graphs").iterdir())
        assert graph_files
        for name in graph_files:
            assert (outs[0] / "graphs" / name).read_bytes() == \
                (outs[1] / "graphs" / name).read_bytes()


    def test_graph_export_extracts_static_features_once(self, tmp_path, monkeypatch):
        # every layer's graph_inspection walk shares one α_s, and later
        # walks compute their own again
        calls = []
        extract = StaticFeatureExtractor.__call__

        def counting(self, series):
            calls.append(1)
            return extract(self, series)

        data = prepare_data(sine_dataset(), experiment())
        model = Model(tiny_config())
        model.set_reference_series(data.reference)
        monkeypatch.setattr(StaticFeatureExtractor, "__call__", counting)
        written = trainer.export_run_graphs(model, data, tmp_path)
        assert len(calls) == 1
        assert {p.name for p in written} >= {"layer1_index.json", "layer2_index.json"}
        model.graph_inspection(data.normalized, 1)
        assert len(calls) == 2

class TestAblation:
    def test_report_shape_and_seed_pairing(self):
        cfg = experiment(max_epochs=1)
        report = run_ablation(prepare_data(sine_dataset(), cfg), cfg, repeats=2,
                              variants=("full", "static_only"))
        assert len(report.runs) == 4
        by_variant = {}
        for run in report.runs:
            by_variant.setdefault(run["variant"], []).append(run["seed"])
        assert by_variant == {"full": [0, 1], "static_only": [0, 1]}
        assert set(report.aggregates) == {"full", "static_only"}
        for stats in report.aggregates.values():
            assert set(stats) == {"rmse", "mae", "corr"}

    def test_aggregates_recompute_from_runs(self):
        cfg = experiment(max_epochs=1)
        report = run_ablation(prepare_data(sine_dataset(), cfg), cfg, repeats=2,
                              variants=("full", "static_only"))
        recomputed = ExperimentReport.aggregate(report.runs)
        for variant, stats in report.aggregates.items():
            for metric, agg in stats.items():
                assert abs(agg["mean"] - recomputed[variant][metric]["mean"]) < 1e-12
                assert abs(agg["std"] - recomputed[variant][metric]["std"]) < 1e-12

    def test_parallel_jobs_match_sequential(self):
        cfg = experiment(max_epochs=1)
        seq = run_ablation(prepare_data(sine_dataset(), cfg), cfg, repeats=2, variants=("full",))
        par = run_ablation(prepare_data(sine_dataset(), cfg), cfg, repeats=2, variants=("full",),
                           jobs=2)
        for a, b in zip(seq.runs, par.runs):
            assert a["metrics"] == b["metrics"]

    def test_workers_run_one_blas_thread(self, monkeypatch):
        # a worker that kept the parent's BLAS threads oversubscribed the
        # cores; the parent's own settings come back once the pool closes
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        seen = trainer._spawn_map(os.getenv, trainer._BLAS_THREADS, jobs=2)
        assert seen == ["1"] * len(trainer._BLAS_THREADS)
        assert dict(os.environ) == before

    def test_json_and_csv_round_trip(self, tmp_path):
        cfg = experiment(max_epochs=1)
        report = run_ablation(prepare_data(sine_dataset(), cfg), cfg, repeats=1,
                              variants=("full",))
        assert json.loads(report.to_json()) == report.to_dict()
        path = tmp_path / "table.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("variant,rmse_mean,rmse_std")
        assert len(lines) == 2

    @pytest.mark.parametrize("repeats, jobs", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_no_run_or_no_worker_rejected(self, repeats, jobs):
        with pytest.raises(ConfigurationError, match="ablation has no run|jobs"):
            cfg = experiment(max_epochs=1)
            run_ablation(prepare_data(sine_dataset(), cfg), cfg, repeats=repeats,
                         variants=("full",), jobs=jobs)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="variant"):
            cfg = experiment()
            run_ablation(prepare_data(sine_dataset(), cfg), cfg, repeats=1,
                         variants=("bogus",))

    def test_hashes_stable_and_content_sensitive(self):
        ds = sine_dataset()
        cfg = experiment()
        assert dataset_hash(ds) == dataset_hash(ds)
        assert config_fingerprint(cfg) == config_fingerprint(cfg)
        other = sine_dataset()
        other.values[0, 0, 0] += 1.0
        assert dataset_hash(other) != dataset_hash(ds)

    def test_headline_row_selection(self):
        from evograph.metrics import MetricReport
        multi = MetricReport(rows={"3": {"rmse": 1.0}, "All": {"rmse": 2.0}})
        assert headline_row(multi) == {"rmse": 2.0}
        single = MetricReport(rows={"3": {"rmse": 1.5}})
        assert headline_row(single) == {"rmse": 1.5}


@pytest.fixture(scope="module")
def trained():
    cfg = experiment(max_epochs=2)
    data = prepare_data(sine_dataset(), cfg)
    model = Model(cfg.model)
    train(model, data, cfg.train)
    return model, data


class TestScaleProbe:
    def test_out_of_range_scale(self, trained):
        model, data = trained
        probe_cfg = TrainConfig(lr=0.01, max_epochs=1, patience=0)
        with pytest.raises(ConfigurationError, match="out of range"):
            scale_probe(model, data, 5, probe_cfg)
        with pytest.raises(ConfigurationError, match="out of range"):
            scale_probe(model, data, -1, probe_cfg)

    def test_backbone_untouched(self, trained):
        model, data = trained
        before = {k: p.data.copy() for k, p in model.store.params.items()}
        probe_cfg = TrainConfig(lr=0.05, max_epochs=2, patience=0)
        scale_probe(model, data, 0, probe_cfg)
        for k, arr in before.items():
            assert np.array_equal(arr, model.store.params[k].data)

    def test_probe_learns_on_learnable_data(self, trained):
        model, data = trained
        probe_cfg = TrainConfig(lr=0.02, batch_size=32, max_epochs=8,
                                patience=0)
        result = scale_probe(model, data, 0, probe_cfg)
        assert result.history[-1]["train_loss"] < \
            result.history[0]["train_loss"] * 0.8

    def test_probe_deterministic(self, trained):
        model, data = trained
        probe_cfg = TrainConfig(lr=0.01, max_epochs=2, patience=0)
        a = scale_probe(model, data, 1, probe_cfg)
        b = scale_probe(model, data, 1, probe_cfg)
        assert a.history == b.history
        assert a.report.to_json() == b.report.to_json()


class TestHistoryFile:
    def test_write_and_load_round_trip(self, tmp_path):
        rows = [
            {"epoch": 1, "train_loss": 0.5, "val_metric": 0.7},
            {"epoch": 2, "train_loss": 0.25, "val_metric": 0.66},
        ]
        path = tmp_path / "history.csv"
        write_history(path, rows)
        assert load_history(path) == rows
        header = path.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_metric"
