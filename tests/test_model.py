import base64
import dataclasses
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import evograph
from evograph import tensor as T
from evograph.config import (
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
    multi_step_preset,
    single_step_preset,
)
from evograph.data import Scaler
from evograph.errors import (ConfigurationError, ContractError, DimensionError, LoadError,
                             NonFiniteError, SequenceTooShortError)
from evograph.graph_learner import StaticFeatureExtractor
from evograph.model import Model, load_checkpoint, save_checkpoint
from evograph.optim import Adam
from evograph.trainer import loss_tensor

from backbone import backbone
from test_data import BAD_SCALERS


VARIANTS = ("full", "static_only", "no_scale_specific", "shared_evolution")


def tiny_config(**kw):
    base = dict(
        task="single", n_nodes=4, n_channels=1, window=16, horizon=3,
        n_layers=2, intervals=(4, 1), dilation_rate=2, filter_sizes=(2, 3),
        c_xi=4, c_z=4, c_skip=4, c_out1=4, c_s=4, c_e=4, c_static_hidden=4,
        psi=1, beta=0.05, dropout=0.0, seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(**kw):
    m = Model(tiny_config(**kw))
    rng = np.random.default_rng(99)
    m.set_reference_series(rng.normal(size=(4, 48, 1)))
    return m


def window(b=2, seed=0, p=16, n=4, c=1):
    return np.random.default_rng(seed).normal(size=(b, p, n, c))


def windows_of(series, starts, p=16):
    """The (B, P, N, C) windows of an (N, T, C) series that start at
    ``starts``, node-major in memory as ``graph_inspection``'s are."""
    return np.stack([series[:, s:s + p] for s in starts]).transpose(0, 2, 1, 3)


class TestConfig:
    def test_single_step_preset_lengths(self):
        cfg = single_step_preset(n_nodes=10)
        assert cfg.layer_lengths() == [192, 186, 174, 150, 102, 6]

    def test_multi_step_preset_lengths(self):
        cfg = multi_step_preset(n_nodes=10)
        assert cfg.layer_lengths() == [24, 19, 14, 9]

    def test_window_shorter_than_receptive_field(self):
        with pytest.raises(ConfigurationError, match="receptive field"):
            tiny_config(window=6)
        assert tiny_config(window=7).layer_lengths()[-1] == 1

    def test_filter_divisibility(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            tiny_config(c_xi=5)

    def test_interval_count(self):
        with pytest.raises(ConfigurationError):
            tiny_config(intervals=(4,))
        with pytest.raises(ConfigurationError, match="2 intervals"):
            tiny_config(n_layers=10**9)  # rejected without walking 10⁹ layers

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            tiny_config(variant="bogus")

    def test_dict_roundtrip(self):
        cfg = tiny_config()
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_from_dict_rejects_unknown_and_missing(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ModelConfig.from_dict({**tiny_config().to_dict(), "bogus": 1})
        d = tiny_config().to_dict()
        del d["window"]
        with pytest.raises(ConfigurationError, match="window"):
            ModelConfig.from_dict(d)

    def test_train_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(loss="huber")

    def test_experiment_config_json_roundtrip(self):
        exp = ExperimentConfig(model=tiny_config(), train=TrainConfig(lr=0.005))
        back = ExperimentConfig.from_json(exp.to_json())
        assert back.model == exp.model
        assert back.train == exp.train

    def test_legacy_keys(self):
        # earlier config.json files carry "normalize_adjacency": true and
        # "repeats"; only the one implemented normalization is accepted
        exp = ExperimentConfig(model=tiny_config(), train=TrainConfig(lr=0.005))
        legacy = exp.to_dict()
        legacy["model"]["normalize_adjacency"] = True
        legacy["train"]["repeats"] = 3
        assert ExperimentConfig.from_json(json.dumps(legacy)) == exp
        legacy["model"]["normalize_adjacency"] = False
        with pytest.raises(ConfigurationError, match="normalize_adjacency"):
            ExperimentConfig.from_json(json.dumps(legacy))

    def test_legacy_null_seeds_dropped(self):
        # earlier presets and run directories carry "seeds": null
        exp = ExperimentConfig(model=tiny_config(), train=TrainConfig(lr=0.005))
        legacy = exp.to_dict()
        legacy["train"]["seeds"] = None
        assert ExperimentConfig.from_json(json.dumps(legacy)) == exp

    def test_seeds_list_rejected(self):
        # it once overrode --seed and --repeats without a word
        legacy = ExperimentConfig(model=tiny_config()).to_dict()
        legacy["train"]["seeds"] = [3, 4]
        with pytest.raises(ConfigurationError, match="--seed.*--repeats"):
            ExperimentConfig.from_json(json.dumps(legacy))

    @pytest.mark.parametrize("name, preset", [
        ("single_step", single_step_preset),
        ("multi_step", multi_step_preset),
    ])
    def test_shipped_presets_match_python_presets(self, name, preset):
        path = Path(evograph.__file__).parent / "presets" / f"{name}.json"
        exp = ExperimentConfig.from_json(path.read_text())
        m = exp.model
        assert m == preset(n_nodes=m.n_nodes, n_channels=m.n_channels)
        assert exp == ExperimentConfig(model=m)


class TestForward:
    def test_single_step_shape(self):
        model = tiny_model()
        out, _ = model.forward(window())
        assert out.shape == (2, 4, 1)

    def test_multi_step_shape(self):
        model = Model(tiny_config(task="multi", horizon=6))
        model.set_reference_series(np.random.default_rng(1).normal(size=(4, 48, 1)))
        out, _ = model.forward(window(b=3))
        assert out.shape == (3, 6, 4, 1)

    def test_inference_deterministic(self):
        model = tiny_model()
        x = window(seed=5)
        a, _ = model.forward(x)
        b, _ = model.forward(x)
        assert np.array_equal(a.data, b.data)

    def test_same_seed_same_output(self):
        x = window(seed=6)
        a = tiny_model().forward(x)[0].data
        b = tiny_model().forward(x)[0].data
        assert np.array_equal(a, b)

    def test_requires_reference_series(self):
        model = Model(tiny_config())
        with pytest.raises(ContractError, match="reference series"):
            model.forward(window())

    def test_rejects_wrong_shape(self):
        model = tiny_model()
        with pytest.raises(DimensionError):
            model.forward(window(p=15))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_reference_series(self, bad):
        # caught when set: left in, it made predict return NaN without an error
        model = tiny_model()
        ref = np.random.default_rng(2).normal(size=(4, 48, 1))
        ref[1, 7, 0] = bad
        with pytest.raises(NonFiniteError, match="reference series"):
            model.set_reference_series(ref)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("entry", ["forward", "predict", "branch_features",
                                       "graph_inspection"])
    def test_rejects_non_finite_windows(self, entry, bad):
        # left in, one NaN made predict return NaN forecasts without an error
        model = tiny_model()
        x = window(seed=7)
        x[1, 5, 2, 0] = bad
        run = {"forward": lambda: model.forward(x),
               "predict": lambda: model.predict(x),
               "branch_features": lambda: model.branch_features(x, 1),
               "graph_inspection": lambda: model.graph_inspection(
                   x[1].transpose(1, 0, 2), 1)}[entry]
        with pytest.raises(NonFiniteError, match="non-finite"):
            run()

    def test_rejects_short_reference_series(self):
        # caught when set, not at the next predict
        model = Model(tiny_config())
        n = StaticFeatureExtractor.min_length()
        rng = np.random.default_rng(3)
        with pytest.raises(SequenceTooShortError, match=f"needs ≥ {n}"):
            model.set_reference_series(rng.normal(size=(4, n - 1, 1)))
        model.set_reference_series(rng.normal(size=(4, n, 1)))
        assert model.predict(window()).shape == (2, 4, 1)

    def test_trace_contents(self):
        model = tiny_model()
        trace = backbone(model, window())
        assert len(trace.xi) == 2
        assert len(trace.graphs) == 2
        assert len(trace.z) == 3
        assert trace.xi[0].shape[2] == 14
        assert trace.xi[1].shape[2] == 10
        assert trace.graphs[0].spec.m == 3   # 14 // 4
        assert trace.graphs[1].spec.m == 10  # 10 // 1

    def test_time_bookkeeping(self):
        model = tiny_model()
        trace = backbone(model, window())
        lengths = model.config.layer_lengths()
        for l, xi in enumerate(trace.xi):
            assert xi.shape[2] == lengths[l + 1]

    def test_residual_identity_when_gcn_zeroed(self):
        model = tiny_model()
        for name, p in model.store.params.items():
            if ".gcn.w" in name:
                p.data[:] = 0.0
        x = window(seed=7)
        trace = backbone(model, x)
        # with all selection matrices zero, Z^(l+1) is a truncation chain of Z^(1)
        z1 = trace.z[0].data
        z2 = trace.z[1].data
        z3 = trace.z[2].data
        assert np.array_equal(z2, z1[:, :, -z2.shape[2]:])
        assert np.array_equal(z3, z2[:, :, -z3.shape[2]:])

    def test_segment_graph_alignment(self):
        model = tiny_model()
        trace = backbone(model, window())
        for l, graphs in enumerate(trace.graphs):
            t = trace.xi[l].shape[2]
            d = model.config.intervals[l]
            assert len(graphs.matrices) == max(1, t // d)

    def test_graph_inspection_keeps_each_windows_last_graph(self):
        series = np.random.default_rng(10).normal(size=(4, 26, 1))
        for variant in VARIANTS:
            model = tiny_model(variant=variant)
            rng = np.random.default_rng(11)
            for p in model.store.params.values():
                p.data = p.data + 0.3 * rng.normal(size=p.shape)
            for layer in (1, 2):
                seq = model.graph_inspection(series, layer)
                # the raw-input graph source segments by the first interval
                d = model.config.intervals[
                    0 if variant == "no_scale_specific" else layer - 1]
                ends = list(range(16, 27, d))
                assert seq.adjacency.shape == (1, len(ends), 4, 4)
                assert seq.spec.boundaries == [(e - d, e) for e in ends]
                assert len(seq.matrices) == seq.spec.m == len(ends)
                for mat, e in zip(seq.matrices, ends):
                    trace = backbone(model, windows_of(series, [e - 16]))
                    want = trace.graphs[layer - 1].matrices[-1].data
                    assert np.allclose(mat.data, want, rtol=1e-13, atol=0), (variant, layer, e)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("preset", [single_step_preset, multi_step_preset])
    def test_graph_inspection_returns_the_walks_graphs_bitwise(self, preset, variant):
        config = dataclasses.replace(preset(3), variant=variant)
        model = Model(config)
        rng = np.random.default_rng(13)
        model.set_reference_series(rng.normal(size=(3, 48, config.n_channels)))
        for p in model.store.params.values():
            p.data = p.data + 0.3 * rng.normal(size=p.shape)
        # 16 windows at a stride of 1: one slice of the inspection's walk
        p = config.window
        series = rng.normal(size=(3, p + 15, config.n_channels))
        for layer in range(1, config.n_layers + 1):
            d = config.intervals[0 if variant == "no_scale_specific" else layer - 1]
            starts = range(0, 16, d)
            seq = model.graph_inspection(series, layer)
            walked = backbone(model, windows_of(series, starts, p))
            graphs = walked.graphs[layer - 1]
            assert np.array_equal(seq.adjacency.data[0], graphs.adjacency.data[:, -1]), layer
            assert np.array_equal(seq.row_sums[0], graphs.row_sums[:, -1]), layer

    def test_graph_inspection_rejects_layer_out_of_range(self):
        model = tiny_model()
        series = np.zeros((4, 20, 1))
        for layer in (0, 3):
            with pytest.raises(ConfigurationError, match="1..2"):
                model.graph_inspection(series, layer)

    def test_dropout_changes_training_output(self):
        model = tiny_model(dropout=0.3)
        x = window(seed=8)
        a, _ = model.forward(x)
        b, _ = model.forward(x, training=True, rng=np.random.default_rng(0))
        assert not np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("preset", [single_step_preset, multi_step_preset])
    def test_backbone_is_node_major(self, preset, variant):
        # every ξ and Z is a C-contiguous (B, N, T, C) array, so each skip
        # branch's (B, N, T·C) flatten is a view
        config = dataclasses.replace(preset(3), variant=variant)
        model = Model(config)
        c = config.n_channels
        model.set_reference_series(np.random.default_rng(14).normal(size=(3, 48, c)))
        x = np.random.default_rng(15).normal(size=(2, config.window, 3, c))
        lengths = config.layer_lengths()
        branches = model._branches(model._as_input(x), model._alpha_s())
        for scale, (feats, _, z) in enumerate(branches):
            states = [z] if scale == 0 else [feats, z]
            for state in states:
                assert state.shape[:3] == (2, 3, lengths[scale]), scale
                assert state.data.flags.c_contiguous, scale

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_branch_features_match_forward_trace(self, variant):
        model = tiny_model(variant=variant)
        x = window(b=3, seed=16)
        trace = backbone(model, x)
        branches = [x.transpose(0, 2, 1, 3), *(xi.data for xi in trace.xi), trace.z[-1].data]
        assert len(branches) == model.config.n_layers + 2
        for scale, feats in enumerate(branches):
            b, n, t, c = feats.shape
            want = feats.reshape(b, n, t * c)
            assert np.array_equal(model.branch_features(x, scale), want), scale

    def test_graph_inspection_walks_only_to_its_layer(self, monkeypatch):
        model = tiny_model()
        fed = []
        proj = model.input_proj

        def recording(x):
            fed.append(x.data.copy())
            return proj(x)

        def forbidden(*args, **kw):
            raise AssertionError("layer 1's graphs need no later layer, skip or head")

        monkeypatch.setattr(model, "input_proj", recording)
        monkeypatch.setattr(model, "tcn_layers", [model.tcn_layers[0], forbidden])
        monkeypatch.setattr(model, "skip_in", forbidden)
        monkeypatch.setattr(model, "skip_mid", [forbidden] * 2)
        monkeypatch.setattr(model, "skip_out", forbidden)
        monkeypatch.setattr(model, "head", forbidden)
        series = np.random.default_rng(10).normal(size=(4, 26, 1))
        model.graph_inspection(series, 1)
        # layer 1's stride is 4: windows ending at 16, 20 and 24 only, not
        # the 11 that layer 2's stride of 1 needs; fed node-major
        windows = windows_of(series, (0, 4, 8))
        assert np.array_equal(np.concatenate(fed), windows.transpose(0, 2, 1, 3))


TASKS = ({"task": "single"}, {"task": "multi", "horizon": 6})


def moved_model(**kw):
    """A tiny model whose parameters are moved off their initial values."""
    model = tiny_model(**kw)
    rng = np.random.default_rng(12)
    for p in model.store.params.values():
        p.data = p.data + 0.3 * rng.normal(size=p.shape)
    return model


class TestInference:
    """``predict``, ``branch_features`` and ``graph_inspection`` walk the
    backbone over 16-window slices with α_s computed once per call."""

    @pytest.mark.parametrize("task", TASKS)
    def test_predict_is_its_slices_concatenated(self, task):
        model = moved_model(**task)
        x = window(b=40, seed=20)
        got = model.predict(x)
        slices = np.concatenate([model.predict(x[i:i + 16]) for i in (0, 16, 32)])
        assert np.array_equal(got, slices)
        with T.no_grad():
            whole = model.forward(x)[0].data
        assert np.max(np.abs(got - whole)) <= 1e-12 * np.max(np.abs(whole))

    @pytest.mark.parametrize("task", TASKS)
    def test_no_windows_is_a_dimension_error(self, task):
        model = tiny_model(**task)
        empty = window(b=0)
        with pytest.raises(DimensionError, match="no windows"):
            model.predict(empty)
        with pytest.raises(DimensionError, match="no windows"):
            model.branch_features(empty, 1)

    def test_static_extractor_runs_once_per_call(self, monkeypatch):
        calls = []
        extract = StaticFeatureExtractor.__call__

        def counting(self, series):
            calls.append(1)
            return extract(self, series)

        monkeypatch.setattr(StaticFeatureExtractor, "__call__", counting)
        model = tiny_model()
        x = window(b=40, seed=21)
        # layer 2's stride is 1: a 55-step series holds 40 windows of 16
        series = np.random.default_rng(22).normal(size=(4, 55, 1))
        for run in (lambda: model.predict(x),
                    lambda: model.branch_features(x, 2),
                    lambda: model.graph_inspection(series, 2)):
            calls.clear()
            run()
            assert len(calls) == 1

    def test_predict_after_adam_step_sees_new_parameters(self):
        model = moved_model()
        x = window(b=20, seed=23)
        before = model.predict(x)
        static = {k: p.data.copy() for k, p in model.store.params.items()
                  if k.startswith("static.")}
        with T.Tape() as tape:
            pred, _ = model.forward(x[:4], training=True, rng=np.random.default_rng(0))
            loss = loss_tensor(pred, np.zeros(pred.shape), "mae")
        tape.backward(loss)
        Adam(model.parameters(), lr=0.01).step()
        assert all(not np.array_equal(model.store.params[k].data, v)
                   for k, v in static.items())
        after = model.predict(x)
        with T.no_grad():
            want = model.forward(x)[0].data
        assert not np.allclose(after, before)
        assert np.max(np.abs(after - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def predict_peak(model, x) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model.predict(x)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("task", TASKS)
    def test_predict_peak_does_not_grow_with_windows(self, task):
        # one forward over all 64 windows peaks near 4 x a 16-window one
        model = tiny_model(**task)
        x = window(b=64, seed=24)
        assert self.predict_peak(model, x) <= 1.5 * self.predict_peak(model, x[:16])


class TestVariants:
    def test_all_variants_run(self):
        x = window(seed=10)
        for variant in ("full", "static_only", "no_scale_specific", "shared_evolution"):
            model = tiny_model(variant=variant)
            out, _ = model.forward(x)
            assert out.shape == (2, 4, 1)
            assert np.all(np.isfinite(out.data))

    def test_static_only_single_graph_per_layer(self):
        model = tiny_model(variant="static_only")
        trace = backbone(model, window(seed=11))
        for graphs in trace.graphs:
            assert len(graphs.matrices) == 1

    def test_static_only_graphs_input_independent(self):
        model = tiny_model(variant="static_only")
        t1 = backbone(model, window(seed=12))
        t2 = backbone(model, window(seed=13))
        for g1, g2 in zip(t1.graphs, t2.graphs):
            assert np.array_equal(g1.matrices[0].data, g2.matrices[0].data)

    def test_no_scale_specific_shares_one_sequence(self):
        model = tiny_model(variant="no_scale_specific")
        trace = backbone(model, window(seed=14))
        assert trace.graphs[0] is trace.graphs[1]
        # graphs are learned over the whole window
        assert trace.graphs[0].spec.length == 16

    def test_shared_evolution_fewer_params(self):
        full = tiny_model(variant="full")
        shared = tiny_model(variant="shared_evolution")
        assert shared.parameter_count() < full.parameter_count()

    def test_seeding_contract_tcn_identical(self):
        full = tiny_model(variant="full")
        for variant in ("static_only", "no_scale_specific", "shared_evolution"):
            other = tiny_model(variant=variant)
            for name, p in full.store.params.items():
                if ".tcn." in name or name.startswith(("skip", "out", "input_proj", "static")):
                    assert np.array_equal(p.data, other.store.params[name].data), name


class TestInputLayout:
    """The same windows, or the same series, held in two memory layouts give
    the same bits."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("preset", (single_step_preset, multi_step_preset))
    def test_time_major_and_node_major_agree(self, preset, variant):
        n = 6
        config = dataclasses.replace(preset(n), variant=variant)
        model = Model(config)
        rng = np.random.default_rng(40)
        for p in model.store.params.values():
            p.data = p.data + 0.3 * rng.normal(size=p.shape)
        c, w = config.n_channels, config.window
        series = rng.normal(size=(w + 40, n, c))  # time-major, as a CSV file holds it
        model.set_reference_series(series.transpose(1, 0, 2))
        # C-ordered (B, P, N, C), as load_csv batches are, and node-major
        x = rng.normal(size=(4, w, n, c))
        x_nm = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        target = rng.normal(size=model.predict(x).shape)

        def loss(windows):
            with T.Tape():
                pred, _ = model.forward(windows, training=True, rng=np.random.default_rng(0))
                return loss_tensor(pred, target, "mae").data

        def graphs(arr):
            return model.graph_inspection(arr, 1).adjacency.data

        assert np.array_equal(model.predict(x), model.predict(x_nm))
        assert np.array_equal(loss(x), loss(x_nm))
        assert np.array_equal(graphs(series.transpose(1, 0, 2)),
                              graphs(np.ascontiguousarray(series.transpose(1, 0, 2))))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = tiny_model()
        x = window(seed=15)
        before = model.forward(x)[0].data
        path = tmp_path / "ck.bin"
        scaler = Scaler("zscore", np.full((4, 1), 0.1), np.full((4, 1), 3.0))
        save_checkpoint(model, path, epoch=7, scaler=scaler)
        loaded, extras = load_checkpoint(path)
        after = loaded.forward(x)[0].data
        assert np.array_equal(before, after)
        assert extras["epoch"] == 7
        assert extras["scaler"].to_dict() == scaler.to_dict()
        for name, p in model.store.params.items():
            assert np.array_equal(p.data, loaded.store.params[name].data)

    def test_loads_legacy_keys(self, tmp_path):
        # earlier checkpoints carry "normalize_adjacency": true in their
        # config and an empty "extra" object
        model = tiny_model()
        x = window(seed=16)
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path, epoch=3)
        blob = json.loads(path.read_bytes())
        assert "extra" not in blob and "normalize_adjacency" not in blob["config"]
        blob["config"]["normalize_adjacency"] = True
        blob["extra"] = {}
        path.write_text(json.dumps(blob))
        loaded, extras = load_checkpoint(path)
        assert extras == {"epoch": 3, "scaler": None}
        assert loaded.config == model.config
        assert np.array_equal(loaded.predict(x), model.predict(x))

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_checkpoint(tmp_path / "none.bin")

    def test_corrupt_file(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"\x00\x01not json")
        with pytest.raises(LoadError):
            load_checkpoint(f)

    def test_requires_reference_series(self, tmp_path):
        model = Model(tiny_config())
        with pytest.raises(ContractError):
            save_checkpoint(model, tmp_path / "ck.bin")

    def test_version_check(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        blob = json.loads(path.read_bytes())
        blob["version"] = 99
        path.write_bytes(json.dumps(blob).encode())
        with pytest.raises(LoadError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop", ["config", "params", "reference_series"])
    def test_missing_section(self, tmp_path, drop):
        path = tmp_path / "ck.bin"
        save_checkpoint(tiny_model(), path)
        blob = json.loads(path.read_bytes())
        del blob[drop]
        path.write_text(json.dumps(blob))
        with pytest.raises(LoadError, match=drop):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ['[1, 2]', '"checkpoint"', '{"version": 1}'])
    def test_not_a_checkpoint_object(self, tmp_path, text):
        path = tmp_path / "ck.bin"
        path.write_text(text)
        with pytest.raises(LoadError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, match", [
        ("reference_series", {"data": "not base64!", "shape": [1]}, "malformed tensor"),
        ("reference_series", {"data": "AAAA"}, "malformed tensor"),
    ])
    def test_malformed_entry(self, tmp_path, key, value, match):
        path = tmp_path / "ck.bin"
        save_checkpoint(tiny_model(), path)
        blob = json.loads(path.read_bytes())
        blob[key] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(LoadError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_parameter(self, tmp_path, value):
        model = tiny_model()
        name = "layer2.gcn.w1"
        model.store.params[name].data.flat[3] = value
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        with pytest.raises(LoadError, match=f"parameter {name} holds non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape, bad", [
        ((4, 1, 48), np.nan),   # a NaN step
        ((5, 1, 48), 0.0),      # one node too many
        ((4, 2, 48), 0.0),      # two channels for a one-channel model
        ((4, 48), 0.0),         # no channel axis
        ((4, 1, 35), 0.0),      # one step shorter than the static extractor needs
    ], ids=["nan", "nodes", "channels", "2-d", "short"])
    def test_bad_reference_series(self, tmp_path, shape, bad):
        # a checkpoint stores the series as (N, C, T*)
        path = tmp_path / "ck.bin"
        save_checkpoint(tiny_model(), path)
        ref = np.random.default_rng(17).normal(size=shape)
        ref.flat[5] = bad
        blob = json.loads(path.read_bytes())
        blob["reference_series"] = {"shape": list(shape),
                                    "data": base64.b64encode(ref.tobytes()).decode("ascii")}
        path.write_text(json.dumps(blob))
        with pytest.raises(LoadError, match="bad reference series"):
            load_checkpoint(path)

    def test_reference_series_round_trips(self, tmp_path):
        # held as given, (N, T*, C), and stored as (N, C, T*)
        model = tiny_model()
        series = model.reference_series.data
        assert series.shape == (4, 48, 1)
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path)
        stored = json.loads(path.read_bytes())["reference_series"]
        assert stored["shape"] == [4, 1, 48]
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded.reference_series.data, series)

    @pytest.mark.parametrize("key, value", [
        ("n_nodes", "8"), ("intervals", 4), ("dropout", [0.3]),
        ("window", 3), ("bogus", 1),
    ])
    def test_bad_stored_config(self, tmp_path, key, value):
        path = tmp_path / "ck.bin"
        save_checkpoint(tiny_model(), path)
        blob = json.loads(path.read_bytes())
        blob["config"][key] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(LoadError, match=key):
            load_checkpoint(path)

    def test_loads_old_training_state_keys(self, tmp_path):
        # checkpoints once carried optimizer moments and an RNG counter
        model = tiny_model()
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path, epoch=2)
        blob = json.loads(path.read_bytes())
        assert "optimizer" not in blob and "rng_counter" not in blob
        blob["optimizer"] = {"t": 3, "m": {"a": {"shape": [1], "data": "AAAAAAAA8D8="}},
                             "v": {}, "lr": 0.001}
        blob["rng_counter"] = 5
        path.write_text(json.dumps(blob))
        loaded, extras = load_checkpoint(path)
        x = window(seed=17)
        assert np.array_equal(loaded.forward(x)[0].data, model.forward(x)[0].data)
        assert extras["epoch"] == 2

    @pytest.mark.parametrize("scaler, match", BAD_SCALERS)
    def test_bad_scaler(self, tmp_path, scaler, match):
        # Scaler.from_dict's checks (test_data) reach load_checkpoint's caller
        # as a LoadError, whichever part of the stored scaler is wrong
        path = tmp_path / "ck.bin"
        save_checkpoint(tiny_model(), path)
        blob = json.loads(path.read_bytes())
        blob["scaler"] = scaler
        path.write_text(json.dumps(blob))
        with pytest.raises(LoadError, match=match):
            load_checkpoint(path)

    def test_failed_write_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.bin"
        save_checkpoint(tiny_model(), path)
        old = path.read_bytes()
        other = tiny_model(seed=5)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(other, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]

    def test_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(tiny_model(), path)
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert path.stat().st_mode == plain.stat().st_mode


class TestParamCensus:
    def test_count_matches_sum(self):
        model = tiny_model()
        total = sum(p.size for p in model.store.params.values())
        assert model.parameter_count() == total

    def test_presets_build(self):
        cfg = single_step_preset(n_nodes=6)
        model = Model(cfg)
        assert model.parameter_count() > 0
        cfg2 = multi_step_preset(n_nodes=6)
        assert Model(cfg2).parameter_count() > 0
