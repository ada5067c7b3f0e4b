"""Training loop, evaluation, ablation runner, and per-scale probes.

One training run is a single Python thread, determined by (seed, config,
dataset) and by the number of threads BLAS runs its products on: a
different thread count can change a result at the level of rounding.  The
ablation and probe harnesses orchestrate many such runs and aggregate their
reports; repeats can fan out across processes, each on one BLAS thread.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import VARIANTS, ExperimentConfig, TrainConfig
from .data import Scaler, TimeSeriesDataset, chronological_split, claim_out_dir, \
    fit_scaler, window_views, write_atomic, write_csv_atomic
from .errors import ConfigurationError, LoadError, TrainingAbortedError
from .graph_learner import export_graphs
from .metrics import MetricReport, horizon_report, rmse, rse
from .model import Model, OutputHead, save_checkpoint
from .nn import Linear, ParamStore
from .optim import Adam, clip_gradients
from .rng import RngSource
from .tensor import Tape, Tensor

Array = np.ndarray

SPLIT_NAMES = ("train", "val", "test")


# ---------------------------------------------------------------------------
# Data preparation

class PreparedData:
    """Normalized, windowed splits with access auditing.

    ``splits`` holds each split's (inputs, targets, anchors); prepare_data
    makes them read-only views of ``normalized``.  Every read of a split's
    arrays goes through :meth:`arrays`, which counts accesses per split; a
    run that never evaluated on test must show ``counters["test"] == 0``.
    """

    def __init__(self, dataset: TimeSeriesDataset, scaler: Scaler,
                 ranges: dict[str, range], normalized: Array,
                 splits: dict[str, tuple[Array, Array, Array]]):
        self.dataset = dataset
        self.scaler = scaler
        self.ranges = ranges
        self.normalized = normalized  # (N, T, C)
        self._splits = splits
        self.counters = {name: 0 for name in SPLIT_NAMES}

    @property
    def reference(self) -> Array:
        """Normalized training slice (N, T_train, C) for the static extractor."""
        r = self.ranges["train"]
        return self.normalized[:, r.start:r.stop, :]

    def arrays(self, split: str) -> tuple[Array, Array, Array]:
        """(inputs, targets, anchors) of one split, counting the access."""
        if split not in self._splits:
            raise ConfigurationError(
                f"unknown split {split!r}; expected one of {SPLIT_NAMES}"
            )
        self.counters[split] += 1
        return self._splits[split]

    def n_windows(self, split: str) -> int:
        if split not in self._splits:
            raise ConfigurationError(
                f"unknown split {split!r}; expected one of {SPLIT_NAMES}"
            )
        return self._splits[split][0].shape[0]


def prepare_data(dataset: TimeSeriesDataset, config: ExperimentConfig,
                 scaler: Scaler | None = None) -> PreparedData:
    """Split chronologically, fit the scaler on train only, window each split.

    An already-fit scaler (e.g. the one stored in a checkpoint) can be
    supplied to normalize exactly as the original training run did.
    """
    mc = config.model
    if dataset.n_nodes != mc.n_nodes or dataset.n_channels != mc.n_channels:
        raise ConfigurationError(
            f"dataset is N={dataset.n_nodes}, C={dataset.n_channels} but the "
            f"model expects N={mc.n_nodes}, C={mc.n_channels}"
        )
    train_r, val_r, test_r = chronological_split(dataset, config.split_spec())
    ranges = {"train": train_r, "val": val_r, "test": test_r}
    if scaler is None:
        scaler = fit_scaler(dataset, train_r, config.scaler_mode)
    normalized = scaler.transform_dataset(dataset.values)
    if not np.all(np.isfinite(normalized)):
        raise LoadError("dataset contains non-finite values")
    splits = {}
    for name, seg in ranges.items():
        splits[name] = window_views(normalized, mc.window, mc.horizon,
                                    mc.task, seg)
        if splits[name][2].size == 0:
            raise ConfigurationError(
                f"{name} split ({len(seg)} steps) yields no windows for "
                f"P={mc.window}, Q={mc.horizon}"
            )
    return PreparedData(dataset, scaler, ranges, normalized, splits)


# ---------------------------------------------------------------------------
# Losses and batched prediction

def loss_tensor(pred: Tensor, target: Array, kind: str) -> Tensor:
    """Scalar training loss on the normalized scale."""
    diff = T.sub(pred, Tensor(np.asarray(target, dtype=np.float64)))
    if kind == "mae":
        return T.reduce_mean(T.absolute(diff))
    if kind == "mse":
        return T.reduce_mean(T.mul(diff, diff))
    raise ConfigurationError(f"unknown loss {kind!r}")


def predict_batched(model: Model, inputs: Array, batch_size: int = 64) -> Array:
    """Predictions for ``inputs``, one ``Model.predict`` call per
    ``batch_size`` windows.  Each call bounds its own memory, running the
    backbone a training batch of windows at a time, and computes α_s once."""
    outs = []
    for start in range(0, inputs.shape[0], batch_size):
        outs.append(model.predict(inputs[start:start + batch_size]))
    return np.concatenate(outs, axis=0)


def headline_value(task: str, y_true: Array, y_pred: Array) -> float:
    """Model-selection metric: RSE for single-step, pooled RMSE for multi."""
    if task == "single":
        return rse(y_true, y_pred)
    pooled_t = y_true.reshape(-1, *y_true.shape[2:])
    pooled_p = y_pred.reshape(-1, *y_pred.shape[2:])
    return rmse(pooled_t, pooled_p)


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainResult:
    history: list[dict]          # {"epoch", "train_loss", "val_metric"}
    best_epoch: int
    best_val: float
    wall_clock: float


def _abort(what: str, value: float, epoch: int, batch: int,
           params: dict[str, Tensor]) -> TrainingAbortedError:
    norms = {name: float(np.linalg.norm(p.data)) for name, p in params.items()}
    total = math.sqrt(sum(v * v for v in norms.values()))
    err = TrainingAbortedError(
        f"non-finite {what} {value!r} at epoch {epoch}, batch {batch}; "
        f"global parameter norm {total:.6g}"
    )
    err.diagnostic = {"epoch": epoch, "batch": batch,
                      "global_param_norm": total, "param_norms": norms}
    return err


def _run_epoch(forward, params: dict[str, Tensor], opt: Adam, xs: Array,
               ys: Array, order: Array, cfg: TrainConfig, epoch: int) -> float:
    """One pass over the training windows; returns the mean sample loss."""
    total, seen = 0.0, 0
    for bi, start in enumerate(range(0, order.size, cfg.batch_size)):
        idx = order[start:start + cfg.batch_size]
        with Tape() as tape:
            pred = forward(xs[idx])
            loss = loss_tensor(pred, ys[idx], cfg.loss)
        value = float(loss.data)
        if not math.isfinite(value):
            raise _abort("loss", value, epoch, bi, params)
        tape.backward(loss)
        # a NaN norm fails `norm > max_norm`, so clipping would pass NaN
        # gradients straight to Adam: stop before the step instead
        norm = clip_gradients([p.grad for p in params.values()], cfg.clip_norm)
        if not math.isfinite(norm):
            raise _abort("gradient norm", norm, epoch, bi, params)
        opt.step()
        total += value * idx.size
        seen += idx.size
    return total / seen


def _fit(forward, validate, params: dict[str, Tensor], cfg: TrainConfig,
         xs: Array, ys: Array, shuffle: RngSource) -> TrainResult:
    """Generic loop shared by full-model training and head-only probes."""
    t0 = time.perf_counter()
    opt = Adam(params, lr=cfg.lr)
    history: list[dict] = []
    best_val = math.inf
    best_epoch = 0
    best_params: dict[str, Array] = {}
    stall = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle.next_stream("shuffle").permutation(xs.shape[0])
        train_loss = _run_epoch(forward, params, opt, xs, ys, order, cfg, epoch)
        val_metric = validate()
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_metric": val_metric})
        if val_metric < best_val:
            best_val = val_metric
            best_epoch = epoch
            best_params = {k: p.data.copy() for k, p in params.items()}
            stall = 0
        else:
            stall += 1
            if cfg.patience and stall >= cfg.patience:
                break
    if best_params:
        for k, p in params.items():
            p.data = best_params[k]
    return TrainResult(history, best_epoch, best_val,
                       time.perf_counter() - t0)


def train(model: Model, data: PreparedData, cfg: TrainConfig) -> TrainResult:
    """Fit the model on the train split, selecting by validation metric.

    The model is left holding the best-validation parameters; the history
    records every epoch's mean training loss and validation metric.
    """
    model.set_reference_series(data.reference)
    xs, ys, _ = data.arrays("train")
    src = model.store.rng
    dropout_rng = src.stream("dropout")

    def forward(batch: Array) -> Tensor:
        out, _ = model.forward(batch, training=True, rng=dropout_rng)
        return out

    def validate() -> float:
        vx, vy, _ = data.arrays("val")
        pred = predict_batched(model, vx)
        return headline_value(model.config.task, data.scaler.inverse(vy),
                              data.scaler.inverse(pred))

    return _fit(forward, validate, model.parameters(), cfg, xs, ys, src)


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(model: Model, inputs: Array, targets: Array,
             scaler: Scaler | None) -> MetricReport:
    """De-normalize predictions and targets, then report per-horizon metrics."""
    if scaler is None:
        raise ConfigurationError(
            "evaluation requires the training scaler; refusing to report "
            "raw-scale metrics"
        )
    preds = predict_batched(model, inputs)
    return horizon_report(scaler.inverse(targets), scaler.inverse(preds),
                          task=model.config.task, horizon=model.config.horizon)


def evaluate_split(model: Model, data: PreparedData,
                   split: str = "test") -> MetricReport:
    x, y, _ = data.arrays(split)
    return evaluate(model, x, y, data.scaler)


# ---------------------------------------------------------------------------
# Run directory

def write_history(path, history: list[dict]) -> None:
    write_csv_atomic(path, [
        ["epoch", "train_loss", "val_metric"],
        *([row["epoch"], repr(row["train_loss"]), repr(row["val_metric"])]
          for row in history),
    ])


def load_history(path) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append({"epoch": int(rec["epoch"]),
                         "train_loss": float(rec["train_loss"]),
                         "val_metric": float(rec["val_metric"])})
    return rows


def export_run_graphs(model: Model, data: PreparedData, out_dir) -> list[Path]:
    """Export every layer's learned adjacency for the final look-back
    window: one ``graph_inspection`` walk per layer over that one window,
    all with one α_s."""
    t_total = data.normalized.shape[1]
    p = model.config.window
    window = data.normalized[:, t_total - p:, :]
    written = []
    with model._alpha_s_pinned():
        for layer in range(1, model.config.n_layers + 1):
            written.extend(export_graphs(model.graph_inspection(window, layer), out_dir,
                                         layer=layer, time_offset=t_total - p))
    return written


def write_run_dir(out_dir, config: ExperimentConfig, model: Model,
                  data: PreparedData, result: TrainResult,
                  report: MetricReport, force: bool = False) -> dict[str, Path]:
    """Persist one run: config, history, checkpoint, metrics, graphs."""
    out = claim_out_dir(out_dir, force)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "config": out / "config.json",
        "history": out / "history.csv",
        "checkpoint": out / "checkpoint.bin",
        "metrics_json": out / "metrics.json",
        "metrics_csv": out / "metrics.csv",
        "graphs": out / "graphs",
    }
    write_atomic(paths["config"], config.to_json())
    write_history(paths["history"], result.history)
    save_checkpoint(model, paths["checkpoint"], epoch=result.best_epoch,
                    scaler=data.scaler)
    write_atomic(paths["metrics_json"], report.to_json())
    report.write_csv(paths["metrics_csv"])
    export_run_graphs(model, data, paths["graphs"])
    return paths


def run_experiment(data: PreparedData, config: ExperimentConfig,
                   out_dir=None, force: bool = False,
                   ) -> tuple[Model, PreparedData, TrainResult, MetricReport]:
    """Train on prepared data → evaluate on test → optionally persist the run."""
    model = Model(config.model)
    result = train(model, data, config.train)
    report = evaluate_split(model, data, "test")
    if out_dir is not None:
        write_run_dir(out_dir, config, model, data, result, report, force)
    return model, data, result, report


# ---------------------------------------------------------------------------
# Ablation harness

HEADLINE_METRICS = ("rmse", "mae", "corr")


def dataset_hash(dataset: TimeSeriesDataset) -> str:
    digest = hashlib.sha256()
    digest.update(repr(dataset.values.shape).encode())
    digest.update(np.ascontiguousarray(dataset.values).tobytes())
    return f"sha256:{digest.hexdigest()}"


def config_fingerprint(config: ExperimentConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return f"sha256:{hashlib.sha256(blob).hexdigest()}"


def headline_row(report: MetricReport) -> dict[str, float]:
    """The 'All' row of a multi-step report, or the single row otherwise."""
    if "All" in report.rows:
        return dict(report.rows["All"])
    (label,) = list(report.rows) if len(report.rows) == 1 else (None,)
    if label is None:
        raise ConfigurationError(
            f"cannot pick a headline row from labels {list(report.rows)}"
        )
    return dict(report.rows[label])


@dataclass
class ExperimentReport:
    """Per-run metrics plus aggregates for a variant-comparison experiment."""

    runs: list[dict]
    aggregates: dict[str, dict[str, dict[str, float]]]
    config_fingerprint: str
    dataset_hash: str
    wall_clock: float

    @staticmethod
    def aggregate(runs: list[dict]) -> dict[str, dict[str, dict[str, float]]]:
        by_variant: dict[str, list[dict]] = {}
        for run in runs:
            by_variant.setdefault(run["variant"], []).append(run["metrics"])
        out: dict[str, dict[str, dict[str, float]]] = {}
        for variant, entries in by_variant.items():
            out[variant] = {}
            for metric in HEADLINE_METRICS:
                values = np.asarray([e[metric] for e in entries])
                out[variant][metric] = {
                    "mean": float(values.mean()),
                    "std": float(values.std()),
                }
        return out

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write_csv(self, path) -> None:
        """Variant-per-row table with mean ± std columns per metric."""
        header = ["variant"]
        for metric in HEADLINE_METRICS:
            header += [f"{metric}_mean", f"{metric}_std"]
        rows = [header]
        for variant, stats in self.aggregates.items():
            row = [variant]
            for metric in HEADLINE_METRICS:
                row += [repr(stats[metric]["mean"]),
                        repr(stats[metric]["std"])]
            rows.append(row)
        write_csv_atomic(path, rows)


def _single_run(data: PreparedData, config: ExperimentConfig, variant: str, seed: int) -> dict:
    t0 = time.perf_counter()
    model = Model(replace(config.model, seed=seed, variant=variant))
    result = train(model, data, config.train)
    report = evaluate_split(model, data, "test")
    metrics = headline_row(report)
    return {
        "variant": variant,
        "seed": seed,
        "metrics": metrics,
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "history": [[r["epoch"], r["train_loss"], r["val_metric"]]
                    for r in result.history],
        "wall_clock": time.perf_counter() - t0,
    }


def _run_task(args: tuple) -> dict:
    values, node_ids, config_dict, variant, seed = args
    dataset = TimeSeriesDataset(values, node_ids)
    config = ExperimentConfig.from_dict(config_dict)
    return _single_run(prepare_data(dataset, config), config, variant, seed)


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _spawn_map(fn, items: list, jobs: int) -> list:
    """``fn`` over ``items`` on ``jobs`` worker processes that run BLAS on one
    thread each.  Forked workers kept the parent's BLAS threads, so two ran
    four threads on two cores; these start from a fresh interpreter while
    the BLAS thread variables read "1", and the parent's come back after."""
    import multiprocessing  # here, as ProcessPoolExecutor is: not on every CLI start
    saved = {var: os.environ.get(var) for var in _BLAS_THREADS}
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        with concurrent.futures.ProcessPoolExecutor(
                jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, items))
    finally:
        for var, value in saved.items():
            os.environ.pop(var)
            if value is not None:
                os.environ[var] = value


def ablation_seeds(config: ExperimentConfig, repeats: int) -> tuple[int, ...]:
    return tuple(config.model.seed + i for i in range(repeats))


def ablation_tasks(config: ExperimentConfig, repeats: int,
                   variants: tuple[str, ...] = VARIANTS, jobs: int = 1,
                   ) -> list[tuple[str, int]]:
    """The ablation's (variant, seed) runs, every variant under the same
    seeds; a :class:`ConfigurationError` for an unknown variant, fewer than
    one worker, or no run at all."""
    for v in variants:
        if v not in VARIANTS:
            raise ConfigurationError(f"unknown variant {v!r}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be ≥ 1, got {jobs}")
    seeds = ablation_seeds(config, repeats)
    tasks = [(variant, seed) for variant in variants for seed in seeds]
    if not tasks:
        raise ConfigurationError(f"the ablation has no run: {len(variants)} variants "
                                 f"and {len(seeds)} seeds (repeats {repeats})")
    return tasks


def run_ablation(data: PreparedData, config: ExperimentConfig,
                 repeats: int = 10, variants: tuple[str, ...] = VARIANTS,
                 jobs: int = 1) -> ExperimentReport:
    """Train every variant under identical per-repeat seeds and compare."""
    tasks = ablation_tasks(config, repeats, variants, jobs)
    dataset = data.dataset
    t0 = time.perf_counter()
    if jobs > 1:
        payload = [(dataset.values, list(dataset.node_ids), config.to_dict(),
                    variant, seed) for variant, seed in tasks]
        runs = _spawn_map(_run_task, payload, jobs)
    else:
        runs = [_single_run(data, config, variant, seed) for variant, seed in tasks]
    return ExperimentReport(
        runs=runs,
        aggregates=ExperimentReport.aggregate(runs),
        config_fingerprint=config_fingerprint(config),
        dataset_hash=dataset_hash(dataset),
        wall_clock=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Scale probes

class ProbeHead:
    """Skip projection plus the two-layer output head, trained in isolation."""

    def __init__(self, model: Model, branch_dim: int, seed: int):
        c = model.config
        self.store = ParamStore(RngSource(seed))
        self.skip = Linear(self.store, "probe.skip", branch_dim, c.c_skip)
        self.head = OutputHead(self.store, "probe.", c)

    def __call__(self, feats: Tensor) -> Tensor:
        return self.head(self.skip(feats))

    def predict(self, feats: Array) -> Array:
        with T.no_grad():
            return self(Tensor(feats)).data


@dataclass
class ProbeResult:
    scale: int
    report: MetricReport
    history: list[dict]
    best_epoch: int
    best_val: float


def scale_probe(model: Model, data: PreparedData, scale: int,
                cfg: TrainConfig) -> ProbeResult:
    """Re-train the output head on one skip branch of the frozen backbone.

    Scale 0 feeds the raw window, 1..L the layer features, L+1 the final
    state; every other branch is absent entirely, so no backbone
    parameter sees a gradient.  The model must hold its reference series,
    as a loaded checkpoint does.
    """
    c = model.config
    if not 0 <= scale <= c.n_layers + 1:
        raise ConfigurationError(
            f"scale index {scale} out of range 0..{c.n_layers + 1}"
        )
    xs, ys, _ = data.arrays("train")
    vx, vy, _ = data.arrays("val")
    feats_train = model.branch_features(xs, scale)
    feats_val = model.branch_features(vx, scale)

    head = ProbeHead(model, feats_train.shape[-1], seed=c.seed)

    def forward(batch: Array) -> Tensor:
        return head(Tensor(batch))

    def validate() -> float:
        pred = head.predict(feats_val)
        return headline_value(c.task, data.scaler.inverse(vy),
                              data.scaler.inverse(pred))

    result = _fit(forward, validate, head.store.params, cfg, feats_train, ys,
                  RngSource(c.seed))

    tx, ty, _ = data.arrays("test")
    feats_test = model.branch_features(tx, scale)
    preds = head.predict(feats_test)
    report = horizon_report(data.scaler.inverse(ty),
                            data.scaler.inverse(preds),
                            task=c.task, horizon=c.horizon)
    return ProbeResult(scale, report, result.history, result.best_epoch,
                       result.best_val)

