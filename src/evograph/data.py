"""Dataset loading, normalization, chronological splitting, and windowing.

The on-disk format is a UTF-8, comma-separated CSV with no header row (rows =
time steps, columns = node-major then channel; blank lines are skipped)
with an optional JSON sidecar carrying {name, N, T, C, granularity,
node_ids}.  All arrays are float64 with axis order (N, T, C).
:func:`window_views` cuts a split into read-only window views of the
series: nothing is copied until a batch is gathered with an index array.
:func:`write_atomic` is the package's one way to write a file, and
:func:`write_csv_atomic` renders rows through it; :func:`claim_out_dir` is
its one check that an output directory may be written.
"""

from __future__ import annotations

import array
import csv
import io
import json
import math
import os
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DimensionError, LoadError

Array = np.ndarray

SIDECAR_SUFFIX = ".meta.json"

SCALER_MODES = ("max-abs", "zscore", "none")


@dataclass
class TimeSeriesDataset:
    """A multivariate series: ``values[n, t, c]`` for node n, step t, channel c."""

    values: Array
    node_ids: list[str]
    granularity: str = ""
    name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise DimensionError(f"values must be N×T×C, got shape {self.values.shape}")
        n, t, c = self.values.shape
        if n < 2 or t < 2 or c < 1:
            raise DimensionError(f"need N≥2, T≥2, C≥1, got N={n}, T={t}, C={c}")
        if len(self.node_ids) != n:
            raise DimensionError(f"{len(self.node_ids)} node ids for {n} nodes")
        if not np.all(np.isfinite(self.values)):
            raise LoadError("dataset contains non-finite values")

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    @property
    def n_channels(self) -> int:
        return self.values.shape[2]


@dataclass
class CsvLayout:
    """How to interpret a CSV file: C channels per node, node-major columns."""

    n_channels: int = 1


def load_csv(path, layout: CsvLayout | None = None) -> TimeSeriesDataset:
    """Parse a UTF-8 CSV of shape T×(N·C) into a dataset, with cell-level errors.

    Rows are read as a stream, and each cell goes through Python's float()
    straight into one growing float64 buffer, so only one row's str cells
    are alive at a time.  Row numbers in errors count every CSV line,
    blank ones included, and a row's first bad cell is reported before its
    width.
    """
    layout = layout or CsvLayout()
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    cells = array.array("d")
    width = None
    # a byte that is not UTF-8 decodes to a lone surrogate, which no
    # float() accepts, so it is reported as a bad cell of its row
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            for number, row in enumerate(reader, start=1):
                if not row:
                    continue
                try:
                    cells.extend(map(float, row))
                except ValueError:
                    _raise_bad_cell(path, number, row)
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise LoadError(f"{path}: row {number} has {len(row)} cells, "
                                    f"expected {width}")
        except csv.Error as exc:  # a cell over the csv module's field size limit, say
            raise LoadError(f"{path}: row {reader.line_num} is not valid CSV: {exc}") from None
    if width is None:
        raise LoadError(f"{path}: no data rows")
    flat = np.frombuffer(cells, dtype=np.float64).reshape(-1, width)  # T × (N·C)
    c = layout.n_channels
    if flat.shape[1] % c:
        raise LoadError(f"{path}: {flat.shape[1]} columns not divisible by C={c}")
    n = flat.shape[1] // c
    # (T, N, C) -> (N, T, C)
    values = flat.reshape(flat.shape[0], n, c).transpose(1, 0, 2)

    name, granularity = path.stem, ""
    node_ids = None
    sidecar = path.with_name(path.name + SIDECAR_SUFFIX)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_bytes())
        except ValueError as exc:
            raise LoadError(f"sidecar {sidecar} is not valid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise LoadError(f"sidecar {sidecar} is not a JSON object")
        name = meta.get("name", name)
        granularity = meta.get("granularity", granularity)
        node_ids = meta.get("node_ids")
        if node_ids is not None and not (
                isinstance(node_ids, list) and all(isinstance(i, str) for i in node_ids)):
            raise LoadError(f"sidecar {sidecar}: node_ids must be a list of strings")
        for key, actual in (("N", n), ("T", flat.shape[0]), ("C", c)):
            if key in meta and meta[key] != actual:
                raise LoadError(f"{path}: sidecar {key}={meta[key]} but file has {actual}")
    if node_ids is None:
        node_ids = [f"node{i}" for i in range(n)]
    return TimeSeriesDataset(values, node_ids, granularity=granularity, name=name)


def _raise_bad_cell(path: Path, number: int, row: list[str]) -> None:
    """Raise the LoadError for the first cell of CSV row ``number`` that
    float() rejects."""
    for j, cell in enumerate(row):
        try:
            float(cell)
        except ValueError:
            if any("\udc80" <= ch <= "\udcff" for ch in cell):  # surrogate-escaped bytes
                raise LoadError(f"{path}: row {number}, column {j + 1} is not "
                                f"UTF-8 text") from None
            raise LoadError(
                f"{path}: non-numeric value {cell!r} at row {number}, column {j + 1}"
            ) from None


def save_csv(dataset: TimeSeriesDataset, path) -> None:
    """Write the dataset plus its JSON sidecar; floats round-trip bitwise."""
    path = Path(path)
    n, t, c = dataset.values.shape
    flat = dataset.values.transpose(1, 0, 2).reshape(t, n * c)
    write_csv_atomic(path, ([repr(float(v)) for v in row] for row in flat))
    meta = {
        "name": dataset.name,
        "N": n,
        "T": t,
        "C": c,
        "granularity": dataset.granularity,
        "node_ids": list(dataset.node_ids),
    }
    write_atomic(path.with_name(path.name + SIDECAR_SUFFIX), json.dumps(meta, indent=2))


def write_atomic(path, payload: bytes | str) -> Path:
    """Replace ``path`` with ``payload`` (text is UTF-8 encoded): a temp
    file in the target directory, then a rename, so readers see the old
    file or the new one, never a partial write.  On failure the temp file
    is removed."""
    path = Path(path)
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    # os.open, unlike mkstemp, leaves the file mode to the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def claim_out_dir(out_dir, force: bool) -> Path:
    """``out_dir`` as a Path if it is missing, empty, or not empty and
    ``force``; otherwise a :class:`ConfigurationError`, and nothing written."""
    out = Path(out_dir)
    if out.exists():
        if not out.is_dir():
            raise ConfigurationError(f"output path {out} is not a directory")
        if any(out.iterdir()) and not force:
            raise ConfigurationError(
                f"output directory {out} is not empty; pass force (--force) to overwrite it"
            )
    return out


def write_csv_atomic(path, rows) -> Path:
    """Render ``rows`` with the default ``csv.writer`` dialect (CRLF line
    ends) and write them with :func:`write_atomic`."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return write_atomic(path, buf.getvalue())


@dataclass
class SplitSpec:
    """Chronological train/val/test fractions (must be positive, sum to 1)."""

    train: float = 0.6
    val: float = 0.2
    test: float = 0.2

    def __post_init__(self):
        for name, f in (("train", self.train), ("val", self.val), ("test", self.test)):
            if f <= 0:
                raise ConfigurationError(f"{name} fraction must be positive, got {f}")
        if not math.isclose(self.train + self.val + self.test, 1.0, abs_tol=1e-9):
            raise ConfigurationError(
                f"fractions sum to {self.train + self.val + self.test}, expected 1"
            )


def chronological_split(
    dataset: TimeSeriesDataset, spec: SplitSpec
) -> tuple[range, range, range]:
    """Contiguous train/val/test index ranges; remainder goes to test."""
    t = dataset.n_steps
    i1 = int(math.floor(spec.train * t))
    i2 = i1 + int(math.floor(spec.val * t))
    ranges = (range(0, i1), range(i1, i2), range(i2, t))
    for name, r in zip(("train", "val", "test"), ranges):
        if len(r) == 0:
            raise ConfigurationError(f"{name} split is empty for T={t} with {spec}")
    return ranges


@dataclass
class Scaler:
    """Per-node normalization with statistics taken from the training split only.

    modes: ``max-abs`` (divide by per-node/channel max |x|), ``zscore``
    (subtract mean, divide by std), ``none`` (identity).  Zero scales fall
    back to 1 so the transform stays invertible.
    """

    mode: str
    shift: Array  # (N, C)
    scale: Array  # (N, C)

    def inverse(self, x: Array) -> Array:
        # C order whatever the input's layout: the metrics' sums run in
        # memory order, so a strided window view must not change their bits
        return np.ascontiguousarray(x, dtype=np.float64) * self.scale + self.shift

    def transform_dataset(self, values: Array) -> Array:
        """Normalize an (N, T, C) array in dataset layout."""
        return (values - self.shift[:, None, :]) / self.scale[:, None, :]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "shift": self.shift.tolist(),
            "scale": self.scale.tolist(),
        }

    @classmethod
    def from_dict(cls, d, shape: tuple[int, int]) -> "Scaler":
        """The scaler that :meth:`to_dict` wrote for (N, C) = ``shape``.
        A :class:`LoadError` unless ``d`` has a known mode and finite
        ``shape`` shift and scale, with no zero scale."""
        if not isinstance(d, dict) or d.get("mode") not in SCALER_MODES:
            raise LoadError(f"scaler {d!r:.60} has no mode in {SCALER_MODES}")
        arrays = {}
        for key in ("shift", "scale"):
            try:
                arrays[key] = np.asarray(d.get(key), dtype=np.float64)
            except (TypeError, ValueError):
                arrays[key] = np.empty(0)
            if arrays[key].shape != shape or not np.all(np.isfinite(arrays[key])):
                raise LoadError(f"scaler {key} is not a finite {shape} array")
        if np.any(arrays["scale"] == 0):
            raise LoadError("scaler has a zero scale")
        return cls(d["mode"], arrays["shift"], arrays["scale"])


def fit_scaler(
    dataset: TimeSeriesDataset, train_range: range, mode: str = "max-abs"
) -> Scaler:
    """Fit per-node statistics on ``values[:, train_range, :]`` only."""
    if len(train_range) == 0:
        raise ConfigurationError("cannot fit a scaler on an empty training split")
    n, _, c = dataset.values.shape
    train = dataset.values[:, train_range.start : train_range.stop, :]
    if mode == "none":
        return Scaler("none", np.zeros((n, c)), np.ones((n, c)))
    if mode == "max-abs":
        scale = np.abs(train).max(axis=1)
        shift = np.zeros((n, c))
    elif mode == "zscore":
        shift = train.mean(axis=1)
        scale = train.std(axis=1)
    else:
        raise ConfigurationError(f"unknown scaler mode {mode!r}")
    zero = scale == 0
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} node/channel series have zero scale under "
            f"{mode}; falling back to scale 1",
            stacklevel=2,
        )
        scale = np.where(zero, 1.0, scale)
    return Scaler(mode, shift, scale)


def window_views(values: Array, p: int, q: int, task: str,
                 segment: range) -> tuple[Array, Array, Array]:
    """Look-back/target windows that stay inside one split segment, as
    read-only views of the (N, T, C) ``values``: no window is copied.

    Returns (inputs, targets, anchors).  Window b is anchored at
    t = segment.start + P − 1 + b, its last input step; its input is
    steps t−P+1 .. t, (B, P, N, C).  Single-step targets are the value at
    t+Q, (B, N, C) (one model per horizon); multi-step targets are the
    sequence t+1 .. t+Q, (B, Q, N, C).  B = ``len(segment) − P − Q + 1``,
    or 0 (with a warning) when the segment is too short.
    """
    if task not in ("single", "multi"):
        raise ConfigurationError(f"task must be 'single' or 'multi', got {task!r}")
    if p < 1 or q < 1:
        raise ConfigurationError(f"need P≥1 and Q≥1, got P={p}, Q={q}")
    n, _, c = values.shape
    count = len(segment) - p - q + 1
    if count < 1:
        warnings.warn(
            f"segment of length {len(segment)} is shorter than P+Q={p + q}; no windows",
            stacklevel=2,
        )
        spans = np.empty((0, p + q, n, c))
    else:
        # (T − P − Q + 1, P + Q, N, C): entry s holds steps s .. s + P + Q − 1
        spans = sliding_window_view(values, p + q, axis=1).transpose(1, 3, 0, 2)
        spans = spans[segment.start:segment.start + count]
    inputs = spans[:, :p]
    targets = spans[:, -1] if task == "single" else spans[:, p:]
    anchors = segment.start + p - 1 + np.arange(max(count, 0), dtype=np.int64)
    for arr in (inputs, targets, anchors):
        arr.flags.writeable = False
    return inputs, targets, anchors
