import json
import os

import numpy as np
import pytest

from evograph.config import (
    ExperimentConfig,
    ModelConfig,
    TrainConfig,
    multi_step_preset,
    single_step_preset,
)
from evograph.errors import ConfigurationError, ContractError, DimensionError, LoadError
from evograph.model import Model, load_checkpoint, make_variant, save_checkpoint


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

    def test_trace_contents(self):
        model = tiny_model()
        out, trace = model.forward(window(), inspect=True)
        assert len(trace.xi) == 2
        assert len(trace.graphs) == 2
        assert trace.xi[0].shape[1] == 14
        assert trace.xi[1].shape[1] == 10
        assert trace.graphs[0].spec.m == 3   # 14 // 4
        assert trace.graphs[1].spec.m == 10  # 10 // 1
        assert trace.prediction is out

    def test_time_bookkeeping(self):
        model = tiny_model()
        _, trace = model.forward(window(), inspect=True)
        lengths = model.config.layer_lengths()
        for l, xi in enumerate(trace.xi):
            assert xi.shape[1] == lengths[l + 1]

    def test_residual_identity_when_gcn_zeroed(self):
        model = tiny_model()
        for name, p in model.store.params.items():
            if ".gcn.w" in name:
                p.data[:] = 0.0
        x = window(seed=7)
        _, trace = model.forward(x, inspect=True)
        # with all selection matrices zero, Z^(l+1) is a truncation chain of Z^(1)
        z1 = trace.z[0].data
        z2 = trace.z[1].data
        z3 = trace.z[2].data
        assert np.array_equal(z2, z1[:, -z2.shape[1]:])
        assert np.array_equal(z3, z2[:, -z3.shape[1]:])

    def test_segment_graph_alignment(self):
        model = tiny_model()
        _, trace = model.forward(window(), inspect=True)
        for l, graphs in enumerate(trace.graphs):
            t = trace.xi[l].shape[1]
            d = model.config.intervals[l]
            assert len(graphs.matrices) == max(1, t // d)

    def test_graph_inspection_keeps_each_windows_last_graph(self):
        model = tiny_model()
        series = np.random.default_rng(10).normal(size=(26, 4, 1))
        pairs = model.graph_inspection(series, batch_size=2)
        assert len(pairs) == 2
        for layer, (seq, offset) in enumerate(pairs):
            d = model.config.intervals[layer]
            ends = list(range(16, 27, d))
            assert offset == 0
            assert seq.adjacency.shape == (1, len(ends), 4, 4)
            assert seq.spec.boundaries == [(e - d, e) for e in ends]
            assert len(seq.matrices) == seq.spec.m == len(ends)
            for mat, e in zip(seq.matrices, ends):
                _, trace = model.forward(series[None, e - 16:e], inspect=True)
                want = trace.graphs[layer].matrices[-1].data
                assert np.allclose(mat.data, want, rtol=1e-13, atol=0)

    def test_dropout_changes_training_output(self):
        model = tiny_model(dropout=0.3)
        x = window(seed=8)
        a, _ = model.forward(x)
        b, _ = model.forward(x, training=True, rng=np.random.default_rng(0))
        assert not np.array_equal(a.data, b.data)

    def test_scale_mask_zeroes_other_paths(self):
        model = tiny_model()
        x = window(seed=9)
        full, _ = model.forward(x)
        solo, _ = model.forward(x, scale_mask=[1.0, 0.0, 0.0, 0.0])
        assert not np.array_equal(full.data, solo.data)
        # with every skip masked the head sees zeros: output constant over batch
        dead, _ = model.forward(x, scale_mask=[0.0, 0.0, 0.0, 0.0])
        assert np.allclose(dead.data[0], dead.data[1])


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
        _, trace = model.forward(window(seed=11), inspect=True)
        for graphs in trace.graphs:
            assert len(graphs.matrices) == 1

    def test_static_only_graphs_input_independent(self):
        model = tiny_model(variant="static_only")
        _, t1 = model.forward(window(seed=12), inspect=True)
        _, t2 = model.forward(window(seed=13), inspect=True)
        for g1, g2 in zip(t1.graphs, t2.graphs):
            assert np.array_equal(g1.matrices[0].data, g2.matrices[0].data)

    def test_no_scale_specific_shares_one_sequence(self):
        model = tiny_model(variant="no_scale_specific")
        _, trace = model.forward(window(seed=14), inspect=True)
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

    def test_make_variant(self):
        cfg = tiny_config()
        model = make_variant(cfg, "static_only")
        assert model.config.variant == "static_only"
        with pytest.raises(ConfigurationError):
            make_variant(cfg, "bogus")


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = tiny_model()
        x = window(seed=15)
        before = model.forward(x)[0].data
        path = tmp_path / "ck.bin"
        save_checkpoint(model, path, epoch=7, scaler={"mode": "none"},
                        optimizer_state={"t": 3, "m": {"a": np.ones(2)},
                                         "v": {"a": np.full(2, 0.5)}})
        loaded, extras = load_checkpoint(path)
        after = loaded.forward(x)[0].data
        assert np.array_equal(before, after)
        assert extras["epoch"] == 7
        assert extras["scaler"] == {"mode": "none"}
        assert np.array_equal(extras["optimizer"]["m"]["a"], np.ones(2))
        for name, p in model.store.params.items():
            assert np.array_equal(p.data, loaded.store.params[name].data)

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
        ("optimizer", {"m": {}}, "malformed optimizer state"),
        ("optimizer", {"t": 1, "m": [], "v": {}}, "malformed optimizer state"),
    ])
    def test_malformed_entry(self, tmp_path, key, value, match):
        path = tmp_path / "ck.bin"
        save_checkpoint(tiny_model(), path)
        blob = json.loads(path.read_bytes())
        blob[key] = value
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
