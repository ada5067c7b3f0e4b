import dataclasses
import json

import numpy as np
import pytest

from evograph import cli
from evograph.config import ExperimentConfig, ModelConfig, TrainConfig
from evograph.data import TimeSeriesDataset, save_csv
from evograph.model import Model, load_checkpoint, save_checkpoint

from backbone import backbone


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    err = capsys.readouterr().err.strip()
    return code, (json.loads(err.splitlines()[-1]) if err else None)


class TestCheckpointErrors:
    @pytest.mark.parametrize("text", [
        '{"version": 1}', "[]", "not json",
        # a stored config that is not a valid ModelConfig is a bad checkpoint
        '{"version": 1, "config": {"n_nodes": "8"}, "params": {}, "reference_series": {}}',
    ])
    def test_evaluate_reports_bad_checkpoint_as_json(self, tmp_path, capsys, text):
        ck = tmp_path / "ck.bin"
        ck.write_text(text)
        code, err = run_cli(capsys, "evaluate", "--checkpoint", str(ck),
                            "--data", str(tmp_path / "unused.csv"))
        assert code == cli.EXIT_RUNTIME
        assert err["error"] == "LoadError"
        assert err["exit_code"] == cli.EXIT_RUNTIME

    def test_evaluate_rejects_non_finite_parameter(self, tmp_path, capsys):
        ck, data = tiny_run(tmp_path, None)
        model, _ = load_checkpoint(ck)
        model.store.params["layer1.gcn.w0"].data[0, 0] = np.nan
        save_checkpoint(model, ck)
        code, err = run_cli(capsys, "evaluate", "--checkpoint", str(ck), "--data", str(data))
        assert code == cli.EXIT_RUNTIME
        assert err["error"] == "LoadError"
        assert "layer1.gcn.w0" in err["message"]

    def test_missing_checkpoint(self, tmp_path, capsys):
        code, err = run_cli(capsys, "evaluate", "--checkpoint",
                            str(tmp_path / "none.bin"), "--data", "x.csv")
        assert code == cli.EXIT_RUNTIME
        assert err["error"] == "LoadError"


class TestArgumentErrors:
    """A bad command line is a configuration error, reported as JSON."""

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "x.csv"],
        ["train", "--config", "c.json", "--data", "x.csv", "--seed", "1.5"],
        ["export-graphs", "--checkpoint", "ck.bin", "--input", "x.csv",
         "--layer", "one", "--out", "out"],
        ["scale-probe", "--checkpoint", "ck.bin", "--data", "x.csv",
         "--scale", "foo"],
        [],
    ])
    def test_exit_2_with_json(self, capsys, argv):
        code, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_CONFIG
        assert err["error"] == "ConfigurationError"
        assert err["exit_code"] == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section, key, value", [
        ("model", "n_nodes", "8"),
        ("model", "beta", None),
        ("model", "filter_sizes", 7),
        ("model", "intervals", [4, 1.5]),
        ("train", "lr", "0.01"),
        ("train", None, [1]),
        ("model", None, "single"),
        (None, "split", [0.6, 0.2, 0.1, 0.1]),
    ])
    def test_wrong_typed_config_exits_2(self, tmp_path, capsys, section, key, value):
        config = json.loads(ExperimentConfig(model=TINY).to_json())
        if key is None:
            config[section] = value
        elif section is None:
            config[key] = value
        else:
            config[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, err = run_cli(capsys, "train", "--config", str(path),
                            "--data", str(tmp_path / "unused.csv"), "--dry-run")
        assert code == cli.EXIT_CONFIG
        assert err["error"] == "ConfigurationError"
        assert err["exit_code"] == cli.EXIT_CONFIG

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{")
        code, err = run_cli(capsys, "train", "--config", str(path), "--data", "x.csv")
        assert (code, err["error"]) == (cli.EXIT_CONFIG, "ConfigurationError")

    def test_scale_parsed_at_argument_time(self):
        parser = cli.build_parser()
        base = ["scale-probe", "--checkpoint", "ck.bin", "--data", "x.csv"]
        assert parser.parse_args(base).scale == "all"
        assert parser.parse_args(base + ["--scale", "2"]).scale == 2


TINY = ModelConfig(
    task="single", n_nodes=4, n_channels=1, window=16, horizon=3,
    n_layers=2, intervals=(4, 1), dilation_rate=2, filter_sizes=(2, 3),
    c_xi=4, c_z=4, c_skip=4, c_out1=4, c_s=4, c_e=4, c_static_hidden=4,
)


def tiny_run(tmp_path, scaler):
    """A 4-node checkpoint that stores the ``scaler`` dict as it is (or
    none) and a 120-step series for it."""
    rng = np.random.default_rng(0)
    model = Model(TINY)
    model.set_reference_series(rng.normal(size=(4, 48, 1)))
    ck = tmp_path / "ck.bin"
    save_checkpoint(model, ck)
    if scaler is not None:
        blob = json.loads(ck.read_bytes())
        blob["scaler"] = scaler
        ck.write_text(json.dumps(blob))
    data = tmp_path / "series.csv"
    save_csv(TimeSeriesDataset(rng.normal(size=(4, 120, 1)),
                               [f"n{i}" for i in range(4)]), data)
    return ck, data


class TestCheckpointScaler:
    @pytest.mark.parametrize("scaler, match", [
        ({}, "mode"),
        ({"mode": "zscore", "shift": [[0.0]] * 4, "scale": [[1.0]] * 3 + [[0.0]]},
         "zero scale"),
        ({"mode": "zscore", "shift": [[0.0]], "scale": [[1.0]]}, "shift"),
    ])
    def test_evaluate_rejects_bad_scaler(self, tmp_path, capsys, scaler, match):
        ck, data = tiny_run(tmp_path, scaler)
        code, err = run_cli(capsys, "evaluate", "--checkpoint", str(ck),
                            "--data", str(data))
        assert code == cli.EXIT_RUNTIME
        assert err["error"] == "LoadError"
        assert match in err["message"]

    def test_evaluate_accepts_matching_scaler(self, tmp_path, capsys):
        scaler = {"mode": "zscore", "shift": [[0.0]] * 4, "scale": [[2.0]] * 4}
        ck, data = tiny_run(tmp_path, scaler)
        code, err = run_cli(capsys, "evaluate", "--checkpoint", str(ck),
                            "--data", str(data))
        assert code == cli.EXIT_OK
        assert err is None


class TestScaleProbe:
    def test_all_scales_written(self, tmp_path, capsys):
        scaler = {"mode": "none", "shift": [[0.0]] * 4, "scale": [[1.0]] * 4}
        ck, data = tiny_run(tmp_path, scaler)
        config = tmp_path / "config.json"
        config.write_text(ExperimentConfig(
            model=TINY, train=TrainConfig(max_epochs=2, patience=0)).to_json())
        code, err = run_cli(capsys, "scale-probe", "--checkpoint", str(ck),
                            "--data", str(data), "--config", str(config),
                            "--scale", "all", "--out", str(tmp_path / "probes"))
        assert (code, err) == (cli.EXIT_OK, None)
        probes = json.loads((tmp_path / "probes" / "probes.json").read_text())
        # scale 0 (raw input), 1..L (layer features), L+1 (final state)
        assert [p["scale"] for p in probes] == [0, 1, 2, 3, "full"]
        for probe in probes[:-1]:
            assert len(probe["history"]) == 2
            assert set(probe["metrics"]) == {"rse", "corr", "rmse", "mae"}


class TestOutClaimedFirst:
    """A non-empty ``--out`` without ``--force`` fails before any work."""

    @pytest.mark.parametrize("command, flags", [
        ("evaluate", ["--data"]),
        ("scale-probe", ["--data"]),
        ("export-graphs", ["--layer", "1", "--input"]),
    ], ids=["evaluate", "scale-probe", "export-graphs"])
    def test_non_empty_out_exits_2_before_work(self, tmp_path, capsys, monkeypatch,
                                               command, flags):
        ck, data = tiny_run(tmp_path, None)
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")

        def forbidden(*args, **kw):
            raise AssertionError(f"{command} worked before claiming --out")

        monkeypatch.setattr(cli.trainer, "scale_probe", forbidden)
        monkeypatch.setattr(cli.trainer, "evaluate_split", forbidden)
        monkeypatch.setattr(Model, "graph_inspection", forbidden)
        code, err = run_cli(capsys, command, "--checkpoint", str(ck), *flags, str(data),
                            "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert err["error"] == "ConfigurationError"
        assert err["exit_code"] == cli.EXIT_CONFIG
        assert "not empty" in err["message"]
        assert [p.name for p in out.iterdir()] == ["keep.txt"]


class TestRejectedCounts:
    """A count that leaves a command nothing to make is a configuration error."""

    @pytest.mark.parametrize("regimes, nodes", [("0", "8"), ("3", "0"), ("3", "1")])
    def test_gen_synth(self, tmp_path, capsys, regimes, nodes):
        out = tmp_path / "synth"
        code, err = run_cli(capsys, "gen-synth", "--regimes", regimes, "--nodes", nodes,
                            "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert err["error"] == "ConfigurationError"
        assert err["exit_code"] == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--repeats", "0"), ("--repeats", "-2"),
                                             ("--jobs", "0")])
    def test_ablate(self, tmp_path, capsys, flag, value):
        _, data = tiny_run(tmp_path, None)
        config = tmp_path / "config.json"
        config.write_text(ExperimentConfig(model=TINY, train=TrainConfig(max_epochs=1)).to_json())
        out = tmp_path / "ablation"
        code, err = run_cli(capsys, "ablate", "--config", str(config), "--data", str(data),
                            "--out", str(out), flag, value)
        assert code == cli.EXIT_CONFIG
        assert err["error"] == "ConfigurationError"
        assert err["exit_code"] == cli.EXIT_CONFIG
        assert not out.exists()


class TestRejectedRunsClaimNoOut:
    """A run its data or counts reject exits 2 before claiming ``--out``, so
    the corrected run needs no ``--force``."""

    @pytest.mark.parametrize("command, flags", [
        ("train", []), ("ablate", ["--repeats", "1"]),
    ], ids=["train", "ablate"])
    def test_node_count_mismatch(self, tmp_path, capsys, command, flags):
        _, data = tiny_run(tmp_path, None)  # a 4-node series
        config = tmp_path / "config.json"
        model = dataclasses.replace(TINY, n_nodes=6)
        config.write_text(ExperimentConfig(model=model, train=TrainConfig(max_epochs=1)).to_json())
        out = tmp_path / "run"
        code, err = run_cli(capsys, command, "--config", str(config), "--data", str(data),
                            "--out", str(out), *flags)
        assert code == cli.EXIT_CONFIG
        assert err["error"] == "ConfigurationError"
        assert "N=4" in err["message"]
        assert not out.exists()


class TestRuntimeErrors:
    def test_memory_error_exits_1_with_json(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(args):
            raise MemoryError("Unable to allocate 34.0 GiB for an array")

        monkeypatch.setattr(cli, "cmd_gen_synth", out_of_memory)
        code, err = run_cli(capsys, "gen-synth", "--out", str(tmp_path / "synth"))
        assert code == cli.EXIT_RUNTIME
        assert err == {"error": "MemoryError", "exit_code": cli.EXIT_RUNTIME,
                       "message": "Unable to allocate 34.0 GiB for an array"}


class TestManifest:
    def test_written_atomically(self, tmp_path):
        path = cli.write_manifest(tmp_path / "run", "train", None, "sha256:0", [3])
        manifest = json.loads(path.read_text())
        assert list(manifest) == ["command", "config_path", "dataset_hash",
                                  "seed_list", "tool_version", "timestamp"]
        assert manifest["seed_list"] == [3]
        assert [p.name for p in path.parent.iterdir()] == ["manifest.json"]


class TestExportGraphs:
    NONE = {"mode": "none", "shift": [[0.0]] * 4, "scale": [[1.0]] * 4}

    def test_writes_one_graph_per_window_end(self, tmp_path, capsys):
        ck, data = tiny_run(tmp_path, self.NONE)
        out = tmp_path / "graphs"
        code, err = run_cli(capsys, "export-graphs", "--checkpoint", str(ck),
                            "--input", str(data), "--layer", "1", "--out", str(out))
        assert (code, err) == (cli.EXIT_OK, None)
        # layer 1 segments by 4 steps: a window of 16 ends at 16, 20, ..., 120
        ends = range(16, 121, 4)
        index = json.loads((out / "layer1_index.json").read_text())
        assert [row["time_range"] for row in index] == [[e - 4, e] for e in ends]
        assert sorted(p.name for p in out.glob("*.csv")) == \
            sorted(f"layer1_segment{m}.csv" for m in range(1, len(ends) + 1))
        # the last CSV is the last graph layer 1 applies to the final window
        model, _ = load_checkpoint(ck)
        series = cli.load_dataset(data).values.transpose(1, 0, 2)
        trace = backbone(model, series[None, -16:])
        got = np.loadtxt(out / index[-1]["file"], delimiter=",")
        assert np.allclose(got, trace.graphs[0].unnormalized()[0, -1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("layer", ["0", "3"])
    def test_layer_out_of_range_exits_2(self, tmp_path, capsys, layer):
        ck, data = tiny_run(tmp_path, self.NONE)
        code, err = run_cli(capsys, "export-graphs", "--checkpoint", str(ck),
                            "--input", str(data), "--layer", layer,
                            "--out", str(tmp_path / "graphs"))
        assert code == cli.EXIT_CONFIG
        assert err["error"] == "ConfigurationError"
        assert err["exit_code"] == cli.EXIT_CONFIG
        assert "1..2" in err["message"]
        assert not (tmp_path / "graphs").exists()
