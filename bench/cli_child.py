"""Run one ``evograph`` CLI command in this process, with step clocks.

Usage: ``python3 bench/cli_child.py --record OUT.json [--trace] -- <cli args>``

This does what the ``evograph`` console script does, ``evograph.cli.main``,
and in addition records when each training step started (entering its
``Tape``) and ended (``Adam.step`` returning), each step's loss and batch
size, the windows and seconds of each ``trainer.predict_batched`` call, and
the process's peak RSS.  These clocks cost two timestamps per step.  With
``--trace`` the span tracer is installed as well and its summary is added
to the record.
Exits with the CLI's own exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time

from evograph import cli, optim, trainer
from evograph import tensor as T

import tracer as tr


def install_clocks(record: dict):
    """Install the clocks; returns a function that removes them again."""
    loss_tensor, adam_step = trainer.loss_tensor, optim.Adam.step
    predict_batched, tape_enter = trainer.predict_batched, T.Tape.__enter__

    @functools.wraps(tape_enter)
    def timed_enter(tape):
        record["step_starts"].append(time.perf_counter())
        return tape_enter(tape)

    @functools.wraps(loss_tensor)
    def timed_loss(pred, target, kind):
        loss = loss_tensor(pred, target, kind)
        record["losses"].append(float(loss.data))
        record["batch_sizes"].append(int(target.shape[0]))
        return loss

    @functools.wraps(adam_step)
    def timed_step(self):
        adam_step(self)
        record["step_ends"].append(time.perf_counter())

    @functools.wraps(predict_batched)
    def timed_predict(model, inputs, batch_size=64):
        t0 = time.perf_counter()
        out = predict_batched(model, inputs, batch_size)
        record["predicts"].append((int(inputs.shape[0]), time.perf_counter() - t0))
        return out

    patches = [(T.Tape, "__enter__", tape_enter, timed_enter),
               (trainer, "loss_tensor", loss_tensor, timed_loss),
               (optim.Adam, "step", adam_step, timed_step),
               (trainer, "predict_batched", predict_batched, timed_predict)]
    for owner, attr, _, clock in patches:
        setattr(owner, attr, clock)

    def remove():
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)

    return remove


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    record = {"losses": [], "batch_sizes": [], "step_starts": [], "step_ends": [],
              "predicts": []}
    remove_clocks = install_clocks(record)
    tracer = tr.Tracer().install() if args.trace else None
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
        remove_clocks()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the summary re-runs layers in tapes of its own, unclocked
    if tracer is not None and code == 0:
        record["trace"] = tracer.summary()
    history = None
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if code == 0 and out is not None:
        history = trainer.load_history(f"{out}/history.csv")
    record["history"] = history
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
