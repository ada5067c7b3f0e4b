"""The benchmark's three workloads.

``multi-n32`` and ``single-p192-long`` run in this process as a closed loop:
a training step starts only when the previous one has finished.
``cli-train-n8`` runs ``evograph train`` in fresh processes, as a user
would.  Every workload reports the same end-to-end metrics (see
``README.md``); a traced run (``trace=True``) reports the per-layer ones.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evograph import data, model, optim, synth
from evograph import tensor as T
from evograph import trainer
from evograph.config import (ExperimentConfig, TrainConfig, multi_step_preset,
                             single_step_preset)
from evograph.data import CsvLayout, TimeSeriesDataset

import tracer as tr

BATCH = 16
PREDICT_BATCH = 64
SETUP_REPS = 3          # setup_s is the median over this many set-ups
MIN_STEPS = 12          # timed steps per run, however short --seconds is
ROUNDS = 4              # timed training and prediction alternate this often
PREDICT_WINDOWS = 128   # val windows that prediction cycles over ...
PREDICT_SHARE = 0.25    # ... for this share of --seconds
EPOCH_WINDOWS = 32      # train windows in the in-process one-epoch run
EVAL_WINDOWS = 32       # val and test windows in that run
CHECK_WINDOWS = 4       # train windows in the backward and update checks
CHECK_H = 1e-5          # central-difference step along a unit direction
CHECK_TOL = 1e-6        # relative tolerance of the directional derivative
CHECK_DIRECTIONS = 4    # random directions tried before the backward check fails
ADAM_STEPS = 3          # constant-gradient Adam steps in the update check
TRACE_STEPS = 8         # benchmark-loop steps in a traced run
STEPS_PER_DAY = 288     # time-of-day channel: 5-minute steps
CLIP_NORM = 5.0
CHILD_TIMEOUT = 120     # seconds; one evograph train takes about 25
RUN_FILES = ("manifest.json", "config.json", "history.csv", "checkpoint.bin",
             "metrics.json", "metrics.csv")


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)


@dataclass
class Outcome:
    metrics: dict[str, float]
    notes: dict = field(default_factory=dict)
    spans: list | None = None


def percentile_tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ≥ 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    i = max(n - 11, 0)
    return ordered[i], 100.0 * (i + 1) / n


def strided(n: int, k: int) -> np.ndarray:
    """``k`` indices spread evenly over ``range(n)``."""
    return np.unique(np.linspace(0, n - 1, min(k, n)).round().astype(np.int64))


# ---------------------------------------------------------------------------
# In-process workloads


@dataclass(frozen=True)
class InProcess:
    name: str
    task: str
    n_nodes: int
    n_steps: int
    time_of_day: bool
    scaler_mode: str = "max-abs"

    def config(self) -> ExperimentConfig:
        preset = multi_step_preset if self.task == "multi" else single_step_preset
        return ExperimentConfig(model=preset(self.n_nodes), scaler_mode=self.scaler_mode)

    def write_series(self, seed: int, work: Path) -> Path:
        """The generated input series as a CSV; only this reaches the program."""
        spec = synth.two_regime_benchmark(n=self.n_nodes, t=self.n_steps)
        ds, _ = synth.generate(spec, self.n_nodes, self.n_steps, seed=seed)
        if self.time_of_day:
            tod = (np.arange(self.n_steps) % STEPS_PER_DAY) / STEPS_PER_DAY
            tod = np.broadcast_to(tod[None, :, None], (self.n_nodes, self.n_steps, 1))
            ds = TimeSeriesDataset(np.concatenate([ds.values, tod], axis=2),
                                   ds.node_ids, ds.granularity, ds.name)
        path = work / f"{self.name}.csv"
        data.save_csv(ds, path)
        return path


@dataclass
class Trainee:
    """A model with its optimizer, batch order and dropout stream."""

    model: model.Model
    opt: optim.Adam
    xs: np.ndarray
    ys: np.ndarray
    order: np.random.Generator
    dropout: np.random.Generator
    queue: list = field(default_factory=list)

    def next_batch(self) -> np.ndarray:
        if len(self.queue) < BATCH:
            self.queue.extend(self.order.permutation(self.xs.shape[0]).tolist())
        idx, self.queue = self.queue[:BATCH], self.queue[BATCH:]
        return np.asarray(idx)


def load(wl, csv_path: Path):
    config = wl.config()
    dataset = data.load_csv(csv_path, CsvLayout(n_channels=config.model.n_channels))
    return config, trainer.prepare_data(dataset, config)


def fresh_trainee(config, prepared, seed: int) -> Trainee:
    m = model.Model(config.model)
    m.set_reference_series(prepared.reference)
    xs, ys, _ = prepared.arrays("train")
    return Trainee(m, optim.Adam(m.parameters(), lr=config.train.lr), xs, ys,
                   np.random.default_rng(seed), m.store.rng.stream("dropout"))


def train_step(t: Trainee, loss_kind: str) -> tuple[float, int]:
    """Forward, loss, ``Tape.backward``, ``clip_gradients``, ``Adam.step``.

    Returns the loss and the tape length after the forward pass.
    """
    idx = t.next_batch()
    params = t.model.parameters()
    for p in params.values():
        p.grad = None
    with T.Tape() as tape:
        out, _ = t.model.forward(t.xs[idx], training=True, rng=t.dropout)
        loss = trainer.loss_tensor(out, t.ys[idx], loss_kind)
    value = float(loss.data)
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite loss {value!r}")
    tape.backward(loss)
    grads = []
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        grads.append(p.grad)
    optim.clip_gradients(grads, CLIP_NORM)
    t.opt.step()
    return value, len(tape)


def run_steps(t: Trainee, ledger: Ledger, loss_kind: str, min_steps: int,
              seconds: float = 0.0) -> tuple[list[float], list[float], list[int]]:
    """Closed loop until ``min_steps`` steps and ``seconds`` have passed."""
    times, losses, records = [], [], []
    start = time.perf_counter()
    while len(times) < min_steps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            value, n_records = train_step(t, loss_kind)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            ledger.fail(f"step {len(times) + 1}: {type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
            losses.append(math.nan)
            records.append(-1)
            continue
        times.append(time.perf_counter() - t0)
        losses.append(value)
        records.append(n_records)
        ledger.attempted += 1
    return times, losses, records


def subset(prepared, train: int, evaluate: int):
    """The same prepared data holding only a strided subset of each split."""
    splits = {}
    for name, k in (("train", train), ("val", evaluate), ("test", evaluate)):
        arrays = prepared.arrays(name)
        sel = strided(arrays[0].shape[0], k)
        splits[name] = tuple(a[sel] for a in arrays)
    return trainer.PreparedData(prepared.dataset, prepared.scaler, prepared.ranges,
                                prepared.normalized, splits)


def check_learning(m: model.Model, config, prepared, ledger: Ledger) -> None:
    """Backward and update checks at the workload's shapes, on a trained
    model ``m``, whose parameters it leaves changed.

    A few steps leave ``val_metric`` near its init level, so it cannot show
    a broken backward pass or optimizer; these checks can.  They need a
    trained model: at init the graph learner's gradient is exactly zero, so
    a wrong backward rule there would pass.

    Backward: the eval-mode loss's derivative along a random unit
    direction, from ``Tape.backward``, must match central differences.  A
    kink (ReLU, |x|) within CHECK_H of the point spoils the difference
    along most directions, on a few seeds in a hundred at a step of 1e-4,
    so the check passes if one of CHECK_DIRECTIONS directions agrees; a
    wrong backward rule disagrees along all of them.

    Update: under a constant gradient g, bias-corrected Adam moves each
    parameter by lr·g/(|g| + eps) per step, so ADAM_STEPS steps must add
    up to that.
    """
    m.set_reference_series(prepared.reference)
    xs, ys, _ = prepared.arrays("train")
    x, y = xs[:CHECK_WINDOWS], ys[:CHECK_WINDOWS]
    params = m.parameters()
    for p in params.values():
        p.grad = None

    def loss() -> T.Tensor:
        out, _ = m.forward(x)
        return trainer.loss_tensor(out, y, config.train.loss)

    with T.Tape() as tape:
        value = loss()
    tape.backward(value)
    grads = {k: p.grad if p.grad is not None else np.zeros_like(p.data)
             for k, p in params.items()}
    start = {k: p.data.copy() for k, p in params.items()}

    def loss_at(direction: dict, h: float) -> float:
        for k, p in params.items():
            p.data = start[k] + h * direction[k]
        with T.no_grad():
            return loss().item()

    rng = np.random.default_rng(0)
    for _ in range(CHECK_DIRECTIONS):
        direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}
        analytic = sum(float(np.sum(grads[k] * d)) for k, d in direction.items())
        numeric = (loss_at(direction, CHECK_H)
                   - loss_at(direction, -CHECK_H)) / (2 * CHECK_H)
        agrees = abs(analytic - numeric) <= CHECK_TOL * max(abs(numeric), 1e-4)
        if agrees:
            break
    ledger.check(agrees, f"directional derivative {analytic!r} from backward, "
                 f"{numeric!r} from central differences")

    for k, p in params.items():
        p.data = start[k].copy()
    opt = optim.Adam(params, lr=config.train.lr)
    for _ in range(ADAM_STEPS):
        for k, p in params.items():
            p.grad = grads[k]
        opt.step()
    moved = all(np.allclose(p.data, start[k] - ADAM_STEPS * opt.lr * grads[k]
                            / (np.abs(grads[k]) + opt.eps), rtol=1e-9, atol=1e-12)
                for k, p in params.items())
    ledger.check(moved, f"{ADAM_STEPS} Adam steps under a constant gradient "
                 "did not move the parameters by lr per step")


def one_epoch_run(config, prepared, out: Path, ledger: Ledger) -> tuple[float, float]:
    """A complete run through the trainer API on a fixed window subset:
    one epoch, validation, test evaluation, run directory, reload.

    Returns (wall seconds, validation metric after the epoch).
    """
    small = subset(prepared, EPOCH_WINDOWS, EVAL_WINDOWS)
    cfg = ExperimentConfig(model=config.model, scaler_mode=config.scaler_mode,
                           train=TrainConfig(max_epochs=1, batch_size=BATCH))
    t0 = time.perf_counter()
    m = model.Model(cfg.model)
    result = trainer.train(m, small, cfg.train)
    report = trainer.evaluate_split(m, small, "test")
    trainer.write_run_dir(out, cfg, m, small, result, report, force=True)
    wall = time.perf_counter() - t0
    check_run_dir(out, m, ledger, with_manifest=False)
    val = result.history[0]["val_metric"]
    ledger.check(math.isfinite(val), f"non-finite val metric {val!r}")
    return wall, val


def check_run_dir(out: Path, trained, ledger: Ledger, with_manifest: bool):
    """Checks the run directory's files; returns the reloaded model, if any."""
    names = RUN_FILES if with_manifest else RUN_FILES[1:]
    missing = [n for n in names if not (out / n).is_file()]
    graphs = out / "graphs"
    if not graphs.is_dir() or not any(graphs.iterdir()):
        missing.append("graphs/")
    ledger.check(not missing, f"run directory {out.name} lacks {missing}")
    try:
        loaded, _ = model.load_checkpoint(out / "checkpoint.bin")
    except (ValueError, RuntimeError) as exc:
        ledger.fail(f"checkpoint does not reload: {exc}")
        return None
    if trained is not None:
        same = all(np.array_equal(loaded.store.params[k].data, p.data)
                   for k, p in trained.store.params.items())
        ledger.check(same, "reloaded checkpoint differs from the trained model")
    else:
        ledger.check(all(np.all(np.isfinite(p.data))
                         for p in loaded.store.params.values()),
                     "reloaded checkpoint has non-finite parameters")
    return loaded


def predict_batches(t: Trainee, batches: list, start: int, seconds: float,
                    config, ledger: Ledger) -> tuple[int, float, int]:
    """``Model.predict`` on ``batches`` from index ``start`` on, cycling, for
    ``seconds`` and at least one batch; returns (windows, seconds, next index)."""
    mc = config.model
    windows, elapsed, i = 0, 0.0, start
    while i == start or elapsed < seconds:
        batch = batches[i % len(batches)]
        i += 1
        t0 = time.perf_counter()
        pred = t.model.predict(batch)
        elapsed += time.perf_counter() - t0
        windows += batch.shape[0]
        shape = ((batch.shape[0], mc.horizon, mc.n_nodes, mc.n_channels)
                 if mc.task == "multi" else (batch.shape[0], mc.n_nodes, mc.n_channels))
        ledger.check(pred.shape == shape and bool(np.all(np.isfinite(pred))),
                     f"prediction of shape {pred.shape} (want {shape}) or non-finite")
    return windows, elapsed, i


def timed_rounds(t: Trainee, prepared, config, seconds: float, ledger: Ledger):
    """Training steps for ``seconds`` and prediction for PREDICT_SHARE of it,
    alternating in ROUNDS rounds so that both sample the whole run.

    Returns (step times, predicted windows, predict seconds).
    """
    vx, _, _ = prepared.arrays("val")
    vx = vx[strided(vx.shape[0], PREDICT_WINDOWS)]
    batches = [vx[i:i + PREDICT_BATCH] for i in range(0, vx.shape[0], PREDICT_BATCH)]
    times, windows, pred_s, next_batch = [], 0, 0.0, 0
    for _ in range(ROUNDS):
        step_times, _, _ = run_steps(t, ledger, config.train.loss,
                                     -(-MIN_STEPS // ROUNDS), seconds / ROUNDS)
        times += step_times
        w, s, next_batch = predict_batches(t, batches, next_batch,
                                           PREDICT_SHARE * seconds / ROUNDS, config, ledger)
        windows += w
        pred_s += s
    return times, windows, pred_s


def set_up(wl: InProcess, csv_path: Path, seed: int, ledger: Ledger):
    """Load, window, build the model, install the reference, one warm-up step."""
    config, prepared = load(wl, csv_path)
    t = fresh_trainee(config, prepared, seed)
    run_steps(t, ledger, config.train.loss, 1)
    return config, prepared, t


def run_in_process(wl: InProcess, seed: int, seconds: float, trace: bool,
                   work: Path, import_s: float, ledger: Ledger) -> Outcome:
    csv_path = wl.write_series(seed, work)
    if trace:
        return trace_in_process(wl, csv_path, seed, work, ledger)

    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = None      # drop the previous set-up before building the next
        state = set_up(wl, csv_path, seed, ledger)
        setups.append(time.perf_counter() - t0)
    config, prepared, t = state

    times, n_pred, pred_s = timed_rounds(t, prepared, config, seconds, ledger)
    check_learning(t.model, config, prepared, ledger)
    tail, tail_pct = percentile_tail(times)
    run_s, val = one_epoch_run(config, prepared, work / "run", ledger)

    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "train_windows_per_s": BATCH * len(times) / sum(times),
        "train_step_ms_p50": 1e3 * statistics.median(times),
        "train_step_ms_tail": 1e3 * tail,
        "predict_windows_per_s": n_pred / pred_s,
        "peak_rss_mb": peak_rss_mb(),
        "val_metric": val,
        "run_s": run_s,
    }
    notes = {"steps": len(times), "tail_percentile": round(tail_pct, 1),
             "step_ms": [round(1e3 * t, 1) for t in times],
             "setup_reps_s": setups, "import_s": import_s,
             "predict_windows": n_pred}
    return Outcome(metrics, notes)


def trace_in_process(wl: InProcess, csv_path: Path, seed: int, work: Path,
                     ledger: Ledger) -> Outcome:
    """Untraced steps, then the same steps traced, then the one-epoch run
    traced, then each layer's backward re-run on the captured inputs."""
    config, prepared, _ = set_up(wl, csv_path, seed, ledger)
    loss_kind = config.train.loss
    times_u, losses_u, records_u = run_steps(
        fresh_trainee(config, prepared, seed), ledger, loss_kind, TRACE_STEPS)
    prepared = None

    tracer = tr.Tracer()
    with tracer:
        config, prepared = load(wl, csv_path)
        traced = fresh_trainee(config, prepared, seed)
        times_t, losses_t, _ = run_steps(traced, ledger, loss_kind, TRACE_STEPS)
        one_epoch_run(config, prepared, work / "run", ledger)
    summary = tracer.summary()
    check_learning(traced.model, config, prepared, ledger)

    ledger.check([v.hex() for v in losses_t] == [v.hex() for v in losses_u],
                 "traced losses differ from untraced losses")
    loop_timed = [i for i in range(TRACE_STEPS)
                  if i + 1 not in tr.UNTIMED_STEPS]
    overhead = (statistics.median(times_t[i] for i in loop_timed)
                / statistics.median(times_u[i] for i in loop_timed) - 1.0)
    return traced_outcome(summary, overhead, ledger, expected_records=records_u)


def traced_outcome(summary: dict, overhead: float, ledger: Ledger,
                   expected_records: list[int] | None = None) -> Outcome:
    """Per-layer metrics from a trace summary (see ``Tracer.summary``)."""
    spans = summary["spans"]
    all_steps = tr.step_ids(spans, ())
    counts = tr.count_table(spans, all_steps)
    rows = list(counts.values())
    ledger.check(bool(rows) and all(r == rows[0] for r in rows),
                 f"per-step counts differ between steps: {counts}")
    if expected_records:
        traced = [counts[s]["tensor.tape_records"] for s in all_steps[:len(expected_records)]]
        ledger.check(traced == expected_records,
                     f"traced tape records {traced} != untraced {expected_records}")

    out = tr.layer_metrics(spans, tr.step_ids(spans, tr.UNTIMED_STEPS))
    out.update({f"{layer}.bwd_ms": ms for layer, ms in summary["replay"].items()})
    out.update(rows[0] if rows else {})
    out.update(tr.memory_metrics(spans, summary["step_peak_bytes"]))
    out.update(tr.run_metrics(spans))
    out.update(summary["profile_shares"])
    out["graph_learner.egl.fwd_share_pct"] = \
        100.0 * out["graph_learner.egl.fwd_ms"] / out["model.forward_ms"]
    out["tensor.us_per_record"] = 1e3 * (out["model.forward_ms"] + out["tensor.backward_ms"]) \
        / out["tensor.tape_records"]
    out["trace.overhead_pct"] = 100.0 * overhead
    return Outcome(out, {"profile_top": summary["profile_top"]}, spans)


# ---------------------------------------------------------------------------
# CLI workload


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, log: Path) -> tuple[int, float]:
    """Run a child to completion; returns (exit code, wall seconds).

    A child still running after CHILD_TIMEOUT seconds is killed and the run
    fails, so the benchmark ends within its own time limit.
    """
    t0 = time.perf_counter()
    with open(log, "w") as fh:
        proc = subprocess.run(argv, stdout=fh, stderr=subprocess.STDOUT, env=env,
                              timeout=CHILD_TIMEOUT)
    return proc.returncode, time.perf_counter() - t0


@dataclass(frozen=True)
class CliTrain:
    name: str = "cli-train-n8"

    def config(self) -> ExperimentConfig:
        # two epochs over a 30% train split: validation runs after each, so
        # prediction is timed at three points of the run, not in one block
        return ExperimentConfig(model=multi_step_preset(8, n_channels=1),
                                train=TrainConfig(max_epochs=2, batch_size=BATCH),
                                split=(0.3, 0.35, 0.35))


def cli_train(root: Path, work: Path, env: dict, csv_path: Path, cfg_path: Path,
              out: Path, ledger: Ledger, trace: bool):
    """One ``evograph train`` in a fresh process; returns its record."""
    record_path = work / f"{out.name}.record.json"
    argv = [sys.executable, str(root / "bench" / "cli_child.py"),
            "--record", str(record_path)] + (["--trace"] if trace else []) + [
        "--", "train", "--config", str(cfg_path), "--data", str(csv_path),
        "--out", str(out)]
    code, wall = run_child(argv, env, work / f"{out.name}.log")
    if not ledger.check(code == 0, f"evograph train exited {code}; see {out.name}.log"):
        return None
    rec = json.loads(record_path.read_text())
    rec["wall"] = wall
    ledger.check(bool(rec["losses"]), "evograph train logged no step")
    for i, value in enumerate(rec["losses"], 1):
        ledger.check(math.isfinite(value), f"step {i}: non-finite loss {value!r}")
    loaded = check_run_dir(out, None, ledger, with_manifest=True)
    if loaded is not None and not trace:
        check_learning(loaded, *load(CliTrain(), csv_path), ledger)
    return rec


def step_times(rec: dict, skip: tuple[int, ...] = ()) -> tuple[list[float], int]:
    """Step times after the first (warm-up) step, and the windows they trained.

    A step runs from entering its ``Tape`` to the end of ``Adam.step``, so
    the validation between epochs is not counted.  ``skip`` holds 1-based
    step numbers to leave out.
    """
    starts, ends, sizes = rec["step_starts"], rec["step_ends"], rec["batch_sizes"]
    if not len(starts) == len(ends) == len(sizes):
        raise RuntimeError(f"{len(starts)} step starts, {len(ends)} ends and "
                           f"{len(sizes)} losses")
    kept = [i for i in range(1, len(ends)) if i + 1 not in skip]
    return [ends[i] - starts[i] for i in kept], sum(sizes[i] for i in kept)


def run_cli(wl: CliTrain, root: Path, seed: int, trace: bool, work: Path,
            ledger: Ledger) -> Outcome:
    """gen-synth, three ``train --dry-run`` and one ``evograph train``, each
    in a fresh process.  One training run is the unit of work here, so
    ``--seconds`` does not apply; it takes about 27 s at this commit."""
    env = child_env(root)
    cli = [sys.executable, "-m", "evograph.cli"]
    code, _ = run_child(cli + ["gen-synth", "--seed", str(seed), "--out",
                               str(work / "data")], env, work / "gen.log")
    if code != 0:
        raise RuntimeError(f"gen-synth exited {code}")
    csv_path = work / "data" / "synthetic.csv"
    cfg_path = work / "config.json"
    cfg_path.write_text(wl.config().to_json())

    if trace:
        return trace_cli(root, work, env, csv_path, cfg_path, ledger)

    setups = []
    for rep in range(SETUP_REPS):
        code, wall = run_child(cli + ["train", "--config", str(cfg_path), "--data",
                                      str(csv_path), "--dry-run"],
                               env, work / f"dry{rep}.log")
        ledger.check(code == 0, f"evograph train --dry-run exited {code}")
        setups.append(wall)

    rec = cli_train(root, work, env, csv_path, cfg_path, work / "run", ledger, trace=False)
    if rec is None:
        raise RuntimeError("evograph train failed; no metrics")
    times, windows = step_times(rec)
    tail, tail_pct = percentile_tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "train_windows_per_s": windows / sum(times),
        "train_step_ms_p50": 1e3 * statistics.median(times),
        "train_step_ms_tail": 1e3 * tail,
        "predict_windows_per_s": sum(w for w, _ in rec["predicts"])
        / sum(s for _, s in rec["predicts"]),
        "peak_rss_mb": rec["peak_rss_mb"],
        "val_metric": rec["history"][-1]["val_metric"],
        "run_s": rec["wall"],
    }
    notes = {"steps": len(times), "tail_percentile": round(tail_pct, 1),
             "step_ms": [round(1e3 * t, 1) for t in times], "setup_reps_s": setups}
    return Outcome(metrics, notes)


def trace_cli(root: Path, work: Path, env: dict, csv_path: Path,
              cfg_path: Path, ledger: Ledger) -> Outcome:
    plain = cli_train(root, work, env, csv_path, cfg_path, work / "plain", ledger, False)
    traced = cli_train(root, work, env, csv_path, cfg_path, work / "traced", ledger, True)
    if plain is None or traced is None:
        raise RuntimeError("evograph train failed; no trace")
    ledger.check([v.hex() for v in traced["losses"]] == [v.hex() for v in plain["losses"]],
                 "traced losses differ from untraced losses")
    times_u, _ = step_times(plain, tr.UNTIMED_STEPS)
    times_t, _ = step_times(traced, tr.UNTIMED_STEPS)
    overhead = statistics.median(times_t) / statistics.median(times_u) - 1.0
    return traced_outcome(traced["trace"], overhead, ledger)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "multi-n32": InProcess("multi-n32", "multi", n_nodes=32, n_steps=2000,
                           time_of_day=True),
    # z-score, not max-abs: after two steps the model is near its init, and
    # its RSE under max-abs swung 1.1-5.6 across seeds with the val level
    "single-p192-long": InProcess("single-p192-long", "single", n_nodes=8,
                                  n_steps=26304, time_of_day=False,
                                  scaler_mode="zscore"),
    "cli-train-n8": CliTrain(),
}
