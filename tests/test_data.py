import csv
import os
import tracemalloc

import numpy as np
import pytest

from evograph import data
from evograph.data import (
    CsvLayout,
    Scaler,
    SplitSpec,
    TimeSeriesDataset,
    chronological_split,
    fit_scaler,
    load_csv,
    save_csv,
    window_views,
    write_atomic,
    write_csv_atomic,
)
from evograph.errors import ConfigurationError, DimensionError, LoadError


def make_dataset(n=3, t=20, c=1, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeriesDataset(
        rng.normal(size=(n, t, c)), [f"n{i}" for i in range(n)], name="toy"
    )


# stored scalers that do not fit a 4-node, one-channel model, with the word
# their LoadError names (test_model stores each one in a checkpoint)
BAD_SCALERS = [
    ({}, "mode"),
    ({"mode": "robust", "shift": [[0.0]] * 4, "scale": [[1.0]] * 4}, "mode"),
    ({"mode": "zscore", "shift": [[0.0]], "scale": [[1.0]]}, "shift"),
    ({"mode": "zscore", "shift": [[0.0]] * 4, "scale": [[1.0]] * 3}, "scale"),
    ({"mode": "zscore", "shift": [[0.0]] * 4, "scale": "1"}, "scale"),
    ({"mode": "zscore", "shift": [[float("nan")]] * 4, "scale": [[1.0]] * 4}, "shift"),
    ({"mode": "zscore", "shift": [[0.0]] * 4, "scale": [[1.0]] * 3 + [[0.0]]},
     "zero scale"),
    ([1, 2], "mode"),
]


class TestDataset:
    def test_shape_accessors(self):
        ds = make_dataset(4, 10, 2)
        assert (ds.n_nodes, ds.n_steps, ds.n_channels) == (4, 10, 2)

    def test_rejects_single_node(self):
        with pytest.raises(DimensionError):
            TimeSeriesDataset(np.zeros((1, 5, 1)), ["a"])

    def test_rejects_nan(self):
        vals = np.zeros((2, 5, 1))
        vals[0, 0, 0] = np.nan
        with pytest.raises(LoadError):
            TimeSeriesDataset(vals, ["a", "b"])

    def test_rejects_wrong_id_count(self):
        with pytest.raises(DimensionError):
            TimeSeriesDataset(np.zeros((2, 5, 1)), ["a"])


class TestCsv:
    def test_shape_law(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
        ds = load_csv(f)
        assert (ds.n_nodes, ds.n_steps, ds.n_channels) == (3, 4, 1)
        assert ds.values[1, 2, 0] == 8.0

    def test_bad_cell_names_position(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,abc\n")
        with pytest.raises(LoadError, match="row 2, column 2"):
            load_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(LoadError, match="row 2"):
            load_csv(f)

    def test_roundtrip_bitwise(self, tmp_path):
        ds = make_dataset(3, 7, 2, seed=5)
        save_csv(ds, tmp_path / "rt.csv")
        back = load_csv(tmp_path / "rt.csv", CsvLayout(n_channels=2))
        assert np.array_equal(back.values, ds.values)
        assert back.node_ids == ds.node_ids
        assert back.name == "toy"

    def test_header_row_is_a_bad_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(LoadError, match="'a' at row 1, column 1"):
            load_csv(f)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n\n3,4\n")
        assert load_csv(f).values[:, :, 0].tolist() == [[1.0, 3.0], [2.0, 4.0]]
        f.write_text("1,2\n\n3,x\n")
        with pytest.raises(LoadError, match="'x' at row 3, column 2"):
            load_csv(f)
        f.write_text("1,2\n\n3,4,5\n")
        with pytest.raises(LoadError, match="row 3 has 3 cells, expected 2"):
            load_csv(f)

    def test_cells_parse_as_python_floats(self, tmp_path):
        cells = [" 1", "1_0", "-2.5e-3", "0.1 ", "+7"]
        f = tmp_path / "d.csv"
        f.write_text(",".join(cells) + "\n" + ",".join(cells) + "\n")
        assert load_csv(f).values[:, 0, 0].tolist() == [float(c) for c in cells]

    def test_blocks_keep_row_numbers(self, tmp_path):
        f = tmp_path / "d.csv"
        lines = ["1,2", "", "3,4", "5,6", "", "7,8", "9,10", "11,12"]
        f.write_text("\n".join(lines) + "\n")
        assert load_csv(f).values[0, :, 0].tolist() == [1.0, 3.0, 5.0, 7.0, 9.0, 11.0]
        lines[6] = "9,x"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match="'x' at row 7, column 2"):
            load_csv(f)
        # two rows one cell wider, each of which converts, but does not fit the first
        lines[5:7] = ["7,8,0", "9,10,0"]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoadError, match="row 6 has 3 cells, expected 2"):
            load_csv(f)

    def test_transient_peak_bounded(self, tmp_path):
        f = tmp_path / "d.csv"
        values = np.random.default_rng(0).normal(size=(20_000, 32))
        np.savetxt(f, values, delimiter=",", fmt="%.17g")
        tracemalloc.start()
        try:
            ds = load_csv(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.values[:, :, 0], values.T)
        # the float64 buffer, grown in place, and one row's str cells: about
        # 1.2 x; holding a block of str cells per conversion peaks near 3 x
        assert peak < 1.5 * ds.values.nbytes

    def test_non_utf8_bytes_name_file_and_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"1.5,2\n3,\xe94\n")
        with pytest.raises(LoadError, match="row 2, column 2 is not UTF-8") as err:
            load_csv(f)
        assert str(f) in str(err.value)

    def test_oversized_cell_names_file_and_row(self, tmp_path):
        # a cell longer than the csv module's field size limit (131,072
        # characters by default) is a load error, not a csv.Error
        f = tmp_path / "d.csv"
        f.write_text("1,2\n3,4\n5," + "6" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(LoadError, match="row 3 is not valid CSV") as err:
            load_csv(f)
        assert str(f) in str(err.value)

    @pytest.mark.parametrize("text, match", [
        ("[]", "not a JSON object"),
        ('"toy"', "not a JSON object"),
        ("{not json", "not valid JSON"),
        (b"\xff\xfe{", "not valid JSON"),
        ('{"node_ids": 5}', "node_ids"),
        ('{"node_ids": [0, 1, 2]}', "node_ids"),
    ])
    def test_malformed_sidecar_names_file(self, tmp_path, text, match):
        save_csv(make_dataset(), tmp_path / "d.csv")
        sidecar = tmp_path / "d.csv.meta.json"
        if isinstance(text, bytes):
            sidecar.write_bytes(text)
        else:
            sidecar.write_text(text)
        with pytest.raises(LoadError, match=match) as err:
            load_csv(tmp_path / "d.csv")
        assert str(sidecar) in str(err.value)

    def test_sidecar_shape_mismatch(self, tmp_path):
        save_csv(make_dataset(3, 20), tmp_path / "d.csv")
        (tmp_path / "d.csv.meta.json").write_text('{"N": 4}')
        with pytest.raises(LoadError, match="sidecar N=4 but file has 3"):
            load_csv(tmp_path / "d.csv")

    def test_multichannel_columns(self, tmp_path):
        f = tmp_path / "d.csv"
        # node-major: n0c0, n0c1, n1c0, n1c1
        f.write_text("1,2,3,4\n5,6,7,8\n")
        ds = load_csv(f, CsvLayout(n_channels=2))
        assert ds.values[0, 0, 1] == 2.0
        assert ds.values[1, 1, 0] == 7.0


class TestAtomicWrite:
    def test_csv_bytes_match_csv_writer(self, tmp_path):
        rows = [["epoch", "loss"], [1, repr(0.1)], [2, repr(1e-300)]]
        with open(tmp_path / "plain.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        write_csv_atomic(tmp_path / "atomic.csv", iter(rows))
        assert (tmp_path / "atomic.csv").read_bytes() == \
            (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize("existing", [True, False])
    def test_failed_write_leaves_no_partial_or_temp_file(self, tmp_path,
                                                         monkeypatch, existing):
        target = tmp_path / "metrics.json"
        if existing:
            target.write_text("old")
        real_fdopen = os.fdopen

        class DiskFull:
            def __init__(self, fd, mode):
                self.fh = real_fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, payload):
                self.fh.write(payload[:3])  # a partial temp file, then failure
                raise OSError("no space left on device")

        monkeypatch.setattr(data.os, "fdopen", DiskFull)
        with pytest.raises(OSError, match="no space"):
            write_atomic(target, "new contents")
        assert [p.name for p in tmp_path.iterdir()] == (["metrics.json"] if existing else [])
        if existing:
            assert target.read_text() == "old"


class TestSplit:
    def test_622(self):
        ds = make_dataset(2, 100)
        tr, va, te = chronological_split(ds, SplitSpec(0.6, 0.2, 0.2))
        assert (len(tr), len(va), len(te)) == (60, 20, 20)
        assert (tr.start, va.start, te.start) == (0, 60, 80)

    def test_7_15_15(self):
        ds = make_dataset(2, 100)
        tr, va, te = chronological_split(ds, SplitSpec(0.7, 0.15, 0.15))
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_remainder_goes_to_test(self):
        ds = make_dataset(2, 101)
        tr, va, te = chronological_split(ds, SplitSpec(0.6, 0.2, 0.2))
        assert (len(tr), len(va), len(te)) == (60, 20, 21)

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(1.0, 0.0, 0.0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(0.5, 0.2, 0.2)

    def test_empty_split_rejected(self):
        ds = make_dataset(2, 3)
        with pytest.raises(ConfigurationError):
            chronological_split(ds, SplitSpec(0.6, 0.2, 0.2))


class TestScaler:
    def test_maxabs_hand_value(self):
        vals = np.zeros((2, 2, 1))
        vals[0, :, 0] = [-2.0, 4.0]
        vals[1, :, 0] = [1.0, -1.0]
        ds = TimeSeriesDataset(vals, ["a", "b"])
        sc = fit_scaler(ds, range(0, 2), "max-abs")
        assert sc.scale[0, 0] == 4.0
        assert sc.scale[1, 0] == 1.0

    def test_none_is_identity(self):
        ds = make_dataset()
        sc = fit_scaler(ds, range(0, 10), "none")
        assert np.array_equal(sc.transform_dataset(ds.values), ds.values)

    def test_inverse_roundtrip(self):
        ds = make_dataset(4, 30, 2, seed=1)
        for mode in ("max-abs", "zscore", "none"):
            sc = fit_scaler(ds, range(0, 20), mode)
            x = ds.values[:, 5, :]
            assert np.allclose(sc.inverse(sc.transform_dataset(ds.values)[:, 5, :]), x,
                               atol=1e-10)
            # inverse takes any array whose trailing axes are (N, C)
            steps_first = sc.transform_dataset(ds.values).transpose(1, 0, 2)
            assert np.allclose(
                sc.inverse(steps_first), ds.values.transpose(1, 0, 2), atol=1e-10
            )

    def test_stats_ignore_val_test(self):
        ds = make_dataset(3, 30, 1, seed=2)
        tampered = ds.values.copy()
        tampered[:, 20:, :] *= 100.0
        ds2 = TimeSeriesDataset(tampered, ds.node_ids)
        sc1 = fit_scaler(ds, range(0, 20), "max-abs")
        sc2 = fit_scaler(ds2, range(0, 20), "max-abs")
        assert np.array_equal(sc1.scale, sc2.scale)

    def test_zero_variance_zscore_warns(self):
        vals = np.ones((2, 10, 1))
        vals[1] = np.random.default_rng(0).normal(size=(10, 1))
        ds = TimeSeriesDataset(vals, ["a", "b"])
        with pytest.warns(UserWarning, match="zero scale"):
            sc = fit_scaler(ds, range(0, 10), "zscore")
        assert sc.scale[0, 0] == 1.0

    def test_dict_roundtrip(self):
        ds = make_dataset(3, 20, 2, seed=3)
        sc = fit_scaler(ds, range(0, 15), "zscore")
        back = Scaler.from_dict(sc.to_dict(), (3, 2))
        assert back.mode == sc.mode
        assert np.array_equal(back.scale, sc.scale)
        assert np.array_equal(back.shift, sc.shift)

    @pytest.mark.parametrize("d, match", BAD_SCALERS + [({"mode": "max-abs"}, "shift")])
    def test_from_dict_rejects(self, d, match):
        with pytest.raises(LoadError, match=match):
            Scaler.from_dict(d, (4, 1))


class TestWindows:
    def test_single_count(self):
        ds = make_dataset(3, 10)
        x, y, a = window_views(ds.values, 4, 3, "single", range(0, 10))
        assert x.shape[0] == y.shape[0] == a.size == 4

    def test_multi_count_and_shape(self):
        ds = make_dataset(3, 10, 2)
        x, y, a = window_views(ds.values, 4, 3, "multi", range(0, 10))
        assert a.size == 4
        assert x.shape[1:] == (4, 3, 2)
        assert y.shape[1:] == (3, 3, 2)

    def test_boundary_empty(self):
        ds = make_dataset(3, 10)
        with pytest.warns(UserWarning):
            x, y, a = window_views(ds.values, 10, 1, "single", range(0, 10))
        assert x.shape == (0, 10, 3, 1)
        assert y.shape == (0, 3, 1)
        assert a.size == 0

    def test_single_target_offset(self):
        ds = make_dataset(2, 12)
        x, y, a = window_views(ds.values, 3, 2, "single", range(0, 12))
        assert a[0] == 2
        assert np.array_equal(x[0, -1], ds.values[:, 2, :])
        assert np.array_equal(y[0], ds.values[:, 4, :])

    def test_multi_target_sequence(self):
        ds = make_dataset(2, 12)
        _, y, _ = window_views(ds.values, 3, 2, "multi", range(0, 12))
        assert np.array_equal(y[0, 0], ds.values[:, 3, :])
        assert np.array_equal(y[0, 1], ds.values[:, 4, :])

    def test_windows_respect_segment(self):
        ds = make_dataset(2, 20)
        _, _, anchors = window_views(ds.values, 3, 2, "single", range(5, 15))
        for t in anchors:
            assert t - 3 + 1 >= 5
            assert t + 2 <= 14

    def test_count_law_property(self):
        ds = make_dataset(2, 40)
        for p in (2, 5):
            for q in (1, 3):
                for seg in (range(0, 30), range(10, 25)):
                    _, _, a = window_views(ds.values, p, q, "single", seg)
                    assert a.size == len(seg) - p - q + 1

    def test_no_leakage(self):
        ds = make_dataset(2, 50)
        tr, va, te = chronological_split(ds, SplitSpec())
        _, _, train = window_views(ds.values, 4, 2, "single", tr)
        _, _, test = window_views(ds.values, 4, 2, "single", te)
        max_train_target = max(train) + 2
        min_test_input = min(test) - 4 + 1
        assert max_train_target < min_test_input

    def test_stack(self):
        ds = make_dataset(3, 15, 2)
        x, y, a = window_views(ds.values, 4, 2, "multi", range(0, 15))
        assert x.shape == (10, 4, 3, 2)
        assert y.shape == (10, 2, 3, 2)
        assert a.tolist() == list(range(3, 13))

    @pytest.mark.parametrize("task", ["single", "multi"])
    def test_windows_are_read_only_views(self, task):
        ds = make_dataset(3, 30, 2)
        x, y, a = window_views(ds.values, 5, 3, task, range(4, 26))
        for arr in (x, y):
            assert np.shares_memory(arr, ds.values)
        for arr in (x, y, a):
            assert not arr.flags.writeable
        # every window equals the copy the per-window slicing would make
        for b, t in enumerate(a):
            assert np.array_equal(x[b], ds.values[:, t - 4:t + 1].transpose(1, 0, 2))
            if task == "single":
                assert np.array_equal(y[b], ds.values[:, t + 3])
            else:
                assert np.array_equal(y[b], ds.values[:, t + 1:t + 4].transpose(1, 0, 2))
