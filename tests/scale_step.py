"""One training step, or one prediction, at scale, as a memory guard.

Builds the single-step preset (or, with ``--preset multi``, the multi-step
one) at N nodes (default 64) and runs one training step (forward,
backward, Adam) on a batch of B random windows (default 16) with a random
reference series of ``--reference-steps`` steps (default 600), on one BLAS
thread.  The windows are node-major in memory, as training batches are.
It prints the step's forward and backward times and the peak resident
size, and exits non-zero if the step fails, a MemoryError included.  With
``--predict K`` it runs one ``Model.predict`` of K random windows instead
and prints its time and the peak resident size.  Run it under an address-space cap to check that
the work fits::

    (ulimit -v 716800; PYTHONPATH=src python tests/scale_step.py --nodes 64)
    (ulimit -v 546816; PYTHONPATH=src python tests/scale_step.py --nodes 128 --predict 64)
    (ulimit -v 490496; PYTHONPATH=src python tests/scale_step.py --preset multi --nodes 128)
    (ulimit -v 282624; PYTHONPATH=src python tests/scale_step.py --nodes 128 --batch 1 --reference-steps 15782)

pytest does not collect this file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from evograph import tensor as T  # noqa: E402
from evograph.config import multi_step_preset, single_step_preset  # noqa: E402
from evograph.model import Model  # noqa: E402
from evograph.optim import Adam  # noqa: E402
from evograph.trainer import loss_tensor  # noqa: E402


PRESETS = {"single": single_step_preset, "multi": multi_step_preset}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def windows(rng: np.random.Generator, count: int, config) -> np.ndarray:
    """``count`` random (P, N, C) windows, node-major in memory as training
    batches are: the (B, P, N, C) transpose view of (B, N, P, C) values."""
    x = rng.normal(size=(count, config.n_nodes, config.window, config.n_channels))
    return x.transpose(0, 2, 1, 3)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=PRESETS, default="single")
    parser.add_argument("--nodes", type=int, default=64)
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--reference-steps", type=int, default=600, metavar="T",
                        help="length of the reference series the static "
                             "representation is extracted from")
    parser.add_argument("--predict", type=int, metavar="K",
                        help="run one no-grad predict of K windows instead of a step")
    args = parser.parse_args()

    config = PRESETS[args.preset](args.nodes)
    model = Model(config)
    rng = np.random.default_rng(0)
    model.set_reference_series(
        rng.normal(size=(args.nodes, args.reference_steps, config.n_channels)))
    if args.predict is not None:
        x = windows(rng, args.predict, config)
        t0 = time.perf_counter()
        model.predict(x)
        seconds = time.perf_counter() - t0
        print(f"{args.preset} N={args.nodes} predict of {args.predict} windows: {seconds:.2f} s, "
              f"peak RSS {peak_rss_mb():.0f} MB")
        return
    x = windows(rng, args.batch, config)
    opt = Adam(model.parameters())

    t0 = time.perf_counter()
    with T.Tape() as tape:
        pred, _ = model.forward(x, training=True, rng=rng)
        loss = loss_tensor(pred, rng.normal(size=pred.shape), "mae")
    t1 = time.perf_counter()
    tape.backward(loss)
    opt.step()
    t2 = time.perf_counter()
    print(f"{args.preset} N={args.nodes} B={args.batch}: forward {t1 - t0:.2f} s, "
          f"backward and Adam {t2 - t1:.2f} s, peak RSS {peak_rss_mb():.0f} MB")


if __name__ == "__main__":
    main()
