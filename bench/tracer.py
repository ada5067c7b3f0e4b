"""Span tracer that wraps evograph's public calls from outside the package.

Installing a :class:`Tracer` replaces each public function or method listed
in ``TRACED`` with a wrapper that records one span per call: name, start,
end, parent, the training step it ran in, and the tape length before and
after.  Uninstalling restores the originals.  Nothing inside ``src/`` is
changed; the program runs exactly the arithmetic it runs untraced.

Training steps are found from the calls themselves: entering a ``Tape``
starts a step and ``Adam.step`` ends it, which holds both for the
benchmark's own loop and for the loop inside ``trainer.train``.  Three
steps get extra instruments, each on its own step so the others stay
comparable:

* ``CAPTURE_STEP`` keeps every traced layer call's arguments, so each layer
  can be re-run afterwards in its own ``Tape`` to time its backward pass;
* ``MEMORY_STEP`` runs under ``tracemalloc``: per-span retained bytes and
  the step's peak;
* ``PROFILE_STEP`` runs under ``cProfile`` for a per-op table.

Timing medians leave out the memory and profile steps.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import math
import os
import pstats
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from evograph import data, metrics, model, optim, propagation, temporal
from evograph import tensor as T
from evograph import trainer
from evograph.graph_learner import Egl, StaticFeatureExtractor
from evograph.nn import LayerNorm

MB = 1e6
CAPTURE_STEP = 2
MEMORY_STEP = 3
PROFILE_STEP = 4
# the instrumented steps, left out of every timing median
UNTIMED_STEPS = (MEMORY_STEP, PROFILE_STEP)

# (owner, attribute, span name).  Module-level functions are patched in
# every evograph module that imported them by name.
TRACED = [
    (temporal.TcnLayer, "__call__", "temporal.tcn"),
    (Egl, "evolve", "graph_learner.egl"),
    (Egl, "static_sequence", "graph_learner.egl"),
    (StaticFeatureExtractor, "__call__", "graph_learner.static"),
    (propagation.MixHop, "apply_per_segment", "propagation.mixhop"),
    (propagation.MixHop, "propagate", "propagation.mixhop.segment"),
    (LayerNorm, "__call__", "nn.layernorm"),
    (model.Model, "forward", "model.forward"),
    (model.Model, "predict", "model.predict"),
    (model.Model, "graph_inspection", "model.graph_inspection"),
    (T.Tape, "backward", "tensor.backward"),
    (optim.Adam, "step", "optim.adam"),
    (optim, "clip_gradients", "optim.clip"),
    (trainer, "prepare_data", "data.prepare"),
    (data, "load_csv", "data.load_csv"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (metrics, "horizon_report", "metrics.horizon_report"),
    (trainer, "train", "trainer.train"),
    (trainer, "predict_batched", "trainer.predict_batched"),
]

# layers reported with forward and backward time, by span name; the
# backward is timed by re-running the layer in isolation
LAYERS = ("graph_learner.egl", "graph_learner.static", "temporal.tcn",
          "propagation.mixhop", "nn.layernorm")


@dataclass
class Span:
    name: str
    parent: int | None
    step: int
    in_tape: bool
    start: float
    end: float = 0.0
    records_before: int | None = None
    records_after: int | None = None
    mem_delta: int | None = None
    extra: dict = field(default_factory=dict)


def _evograph_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "evograph" or name.startswith("evograph.")) and m]


class Tracer:
    """Records spans around evograph's public calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.step = 0
        self.tape: T.Tape | None = None
        self.in_tape = False
        self.captured: list[tuple[str, object, tuple, dict]] = []
        self.step_peak_bytes: int | None = None
        self.profile: pstats.Stats | None = None
        self._profiler: cProfile.Profile | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            if inspect.ismodule(owner):
                for mod in _evograph_modules():
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)
            else:
                self._patch(owner, attr, wrapped)
        self._patch(T.Tape, "__enter__", self._wrap_enter(T.Tape.__enter__))
        self._patch(T.Tape, "__exit__", self._wrap_exit(T.Tape.__exit__))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- step boundaries ----------------------------------------------------

    def _wrap_enter(self, original):
        tracer = self

        @functools.wraps(original)
        def enter(tape):
            tracer.step += 1
            tracer.tape = tape
            tracer.in_tape = True
            if tracer.step == MEMORY_STEP:
                tracemalloc.start()
            if tracer.step == PROFILE_STEP:
                tracer._profiler = cProfile.Profile()
                tracer._profiler.enable()
            return original(tape)

        return enter

    def _wrap_exit(self, original):
        tracer = self

        @functools.wraps(original)
        def exit_(tape, *exc):
            tracer.in_tape = False
            return original(tape, *exc)

        return exit_

    def _end_step(self) -> None:
        if self.step == MEMORY_STEP and tracemalloc.is_tracing():
            self.step_peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if self.step == PROFILE_STEP and self._profiler is not None:
            self._profiler.disable()
            self.profile = pstats.Stats(self._profiler)
            self._profiler = None
        self.tape = None

    # -- spans --------------------------------------------------------------

    def _wrap(self, original, name: str):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, tracer.stack[-1] if tracer.stack else None,
                        tracer.step, tracer.in_tape, 0.0)
            tape = tracer.tape
            if tape is not None:
                span.records_before = len(tape)
            memory = tracemalloc.is_tracing()
            if memory:
                mem0 = tracemalloc.get_traced_memory()[0]
            if tracer.in_tape and tracer.step == CAPTURE_STEP \
                    and name in LAYERS:
                tracer.captured.append((name, original, args, kwargs))
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if memory and tracemalloc.is_tracing():
                    span.mem_delta = tracemalloc.get_traced_memory()[0] - mem0
                if tape is not None:
                    span.records_after = len(tape)
                if name == "optim.adam":
                    tracer._end_step()
            _annotate(span, args, result)
            return result

        return traced

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        """Everything the per-layer metrics need, as plain JSON values.

        Re-runs the captured layer calls, so call it after uninstalling.
        """
        shares, top = profile_table(self.profile) if self.profile else ({}, [])
        return {"spans": self.to_json(), "replay": replay_backward(self.captured),
                "step_peak_bytes": self.step_peak_bytes,
                "profile_shares": shares, "profile_top": top}

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "step": s.step,
             "in_tape": s.in_tape, "start": s.start, "end": s.end,
             "records_before": s.records_before,
             "records_after": s.records_after, "mem_delta": s.mem_delta,
             **s.extra}
            for i, s in enumerate(self.spans)
        ]


def _annotate(span: Span, args: tuple, result) -> None:
    """Counts taken from a call's own arguments and result."""
    if span.name == "graph_learner.egl":
        owner = args[0]
        graphs = len(result.matrices)
        b, n = result.matrices[0].shape[0], result.matrices[0].shape[-1]
        span.extra["graphs"] = graphs
        # the (B, N², 2·C_e) float64 pair tensor built for every graph
        span.extra["pair_bytes"] = graphs * b * n * n * 2 * owner.c_e * 8
    elif span.name == "data.prepare":
        mc = args[1].model
        per_window = mc.window * mc.n_nodes * mc.n_channels \
            + (1 if mc.task == "single" else mc.horizon) * mc.n_nodes * mc.n_channels
        windows = sum(result.n_windows(s) for s in trainer.SPLIT_NAMES)
        # inputs and targets are float64, anchors int64
        span.extra["windows_bytes"] = windows * (per_window + 1) * 8
    elif span.name == "model.save_checkpoint":
        span.extra["bytes"] = os.path.getsize(args[1])


# ---------------------------------------------------------------------------
# Per-layer backward, re-run outside the training step


def _output_tensors(out) -> list[T.Tensor]:
    if isinstance(out, T.Tensor):
        return [out]
    return list(out.matrices)           # EvolvingGraphSequence


def replay_backward(captured) -> dict[str, float]:
    """Backward ms per layer, summed over the captured step's calls.

    Each call is re-run on its captured inputs inside its own ``Tape``; its
    output is reduced against a fixed random cotangent and only
    ``Tape.backward`` is timed.
    """
    rng = np.random.default_rng(0)
    totals = {name: 0.0 for name in LAYERS}
    for name, fn, args, kwargs in captured:
        kwargs = {k: np.random.default_rng(0)
                  if isinstance(v, np.random.Generator) else v
                  for k, v in kwargs.items()}
        with T.Tape() as tape:
            outs = _output_tensors(fn(*args, **kwargs))
            terms = [T.reduce_sum(T.mul(o, T.Tensor(rng.standard_normal(o.shape))))
                     for o in outs]
            loss = terms[0]
            for term in terms[1:]:
                loss = T.add(loss, term)
        t0 = time.perf_counter()
        tape.backward(loss)
        totals[name] += (time.perf_counter() - t0) * 1e3
    return totals


# ---------------------------------------------------------------------------
# Aggregation


def _children(spans: list[dict]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s["id"])
    return kids


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part its (disjoint, nested) children cover."""
    kids = _children(spans)
    return {s["id"]: (s["end"] - s["start"])
            - sum(spans[k]["end"] - spans[k]["start"] for k in kids.get(s["id"], ()))
            for s in spans}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def _named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def step_ids(spans: list[dict], leave_out: tuple[int, ...]) -> list[int]:
    """Training steps (those that reached ``Adam.step``) not in ``leave_out``."""
    steps = {s["step"] for s in spans if s["name"] == "optim.adam"}
    return sorted(steps - set(leave_out))


def count_table(spans: list[dict], steps: list[int]) -> dict[int, dict[str, int]]:
    """Per-step counts that must repeat exactly from step to step."""
    table = {}
    for step in steps:
        own = [s for s in spans if s["step"] == step]
        row = {}
        for name, key in (("temporal.tcn", "temporal.tcn.records"),
                          ("graph_learner.egl", "graph_learner.egl.records"),
                          ("propagation.mixhop", "propagation.mixhop.records")):
            row[key] = sum(s["records_after"] - s["records_before"]
                           for s in _named(own, name) if s["in_tape"])
        row["graph_learner.egl.graphs"] = sum(
            s.get("graphs", 0) for s in own if s["name"] == "graph_learner.egl"
            and s["in_tape"])
        row["propagation.mixhop.segments"] = sum(
            1 for s in own if s["name"] == "propagation.mixhop.segment"
            and s["in_tape"])
        row["tensor.tape_records"] = sum(
            s["records_before"] for s in own if s["name"] == "tensor.backward")
        table[step] = row
    return table


def layer_metrics(spans: list[dict], steps: list[int]) -> dict[str, float]:
    """Per-step medians of forward time for each layer and the step parts."""
    selfs = self_seconds(spans)
    out: dict[str, float] = {}
    by_step = {step: [s for s in spans if s["step"] == step] for step in steps}

    def per_step(fn) -> float:
        return _median(fn(by_step[step]) for step in steps)

    for layer in LAYERS:
        out[f"{layer}.fwd_ms"] = per_step(lambda own, layer=layer: 1e3 * sum(
            s["end"] - s["start"] for s in _named(own, layer) if s["in_tape"]))
    out["model.forward_ms"] = per_step(lambda own: 1e3 * sum(
        s["end"] - s["start"] for s in own
        if s["name"] == "model.forward" and s["in_tape"]))
    out["model.self_ms"] = per_step(lambda own: 1e3 * sum(
        selfs[s["id"]] for s in own
        if s["name"] == "model.forward" and s["in_tape"]))
    for key, name in (("tensor.backward_ms", "tensor.backward"),
                      ("optim.clip_ms", "optim.clip"),
                      ("optim.adam_ms", "optim.adam")):
        out[key] = per_step(lambda own, name=name: 1e3 * sum(
            s["end"] - s["start"] for s in own if s["name"] == name))
    out["graph_learner.egl.pair_mb_computed"] = per_step(lambda own: sum(
        s.get("pair_bytes", 0) for s in own
        if s["name"] == "graph_learner.egl" and s["in_tape"]) / MB)
    return out


def memory_metrics(spans: list[dict], peak_bytes: int | None) -> dict[str, float]:
    own = [s for s in spans if s["step"] == MEMORY_STEP and s["in_tape"]
           and s["mem_delta"] is not None]
    return {
        "graph_learner.egl.retained_mb": sum(
            s["mem_delta"] for s in _named(own, "graph_learner.egl")) / MB,
        "tensor.step_peak_mb": (peak_bytes or 0) / MB,
    }


def run_metrics(spans: list[dict]) -> dict[str, float]:
    """Seconds spent in the calls that start and finish a run."""

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in _named(spans, name))

    validate = [s for s in spans if s["name"] == "trainer.predict_batched"
                and s["parent"] is not None
                and spans[s["parent"]]["name"] == "trainer.train"]
    validate_s = sum(s["end"] - s["start"] for s in validate)
    epochs = len(validate)      # trainer.train validates once per epoch
    predicts = [s for s in spans if s["name"] == "model.predict"]
    ckpt = [s for s in spans if s["name"] == "model.save_checkpoint"]
    prepare = [s for s in spans if s["name"] == "data.prepare"]
    return {
        "data.load_csv_s": total("data.load_csv"),
        "data.prepare_s": total("data.prepare"),
        "data.windows_mb": (prepare[-1]["windows_bytes"] / MB) if prepare else math.nan,
        "trainer.epoch_s": (total("trainer.train") - validate_s) / epochs
        if epochs else math.nan,
        "trainer.validate_s": validate_s / epochs if epochs else math.nan,
        "model.predict_batch_ms": 1e3 * _median(
            s["end"] - s["start"] for s in predicts),
        "model.save_checkpoint_s": total("model.save_checkpoint"),
        "model.checkpoint_mb": (ckpt[-1]["bytes"] / MB) if ckpt else math.nan,
        "model.graph_inspection_s": total("model.graph_inspection"),
        "metrics.horizon_report_ms": 1e3 * total("metrics.horizon_report"),
    }


def _op_of_line(lineno: int, ops: list[tuple[int, int, str]]) -> str | None:
    for start, stop, name in ops:
        if start <= lineno < stop:
            return name
    return None


def profile_table(stats: pstats.Stats) -> tuple[dict[str, float], list]:
    """Shares of the profiled step: conv1d (forward and backward closure),
    ``np.add.at``, and the top tensor ops by cumulative time."""
    ops = []
    for name, fn in inspect.getmembers(T, inspect.isfunction):
        if fn.__module__ == T.__name__:
            lines, start = inspect.getsourcelines(fn)
            ops.append((start, start + len(lines), name))
    tensor_file = os.path.normcase(inspect.getsourcefile(T))
    total = sum(row[2] for row in stats.stats.values())
    per_op: dict[str, float] = {}
    add_at = 0.0
    for (filename, lineno, func), (_, _, tt, ct, _) in stats.stats.items():
        if func == "<method 'at' of 'numpy.ufunc' objects>":
            add_at += tt
        if os.path.normcase(filename) == tensor_file:
            op = _op_of_line(lineno, ops)
            # forward bodies and their backward closures; helpers such as
            # _make and _accumulate are counted inside their callers
            if op and not op.startswith("_") and (func == op or func.startswith("back")):
                per_op[op] = per_op.get(op, 0.0) + ct
    shares = {
        "profile.conv1d_pct": 100.0 * per_op.get("conv1d", 0.0) / total,
        "profile.add_at_pct": 100.0 * add_at / total,
    }
    top = sorted(per_op.items(), key=lambda kv: -kv[1])[:8]
    return shares, [(op, round(100.0 * t / total, 2)) for op, t in top]
