"""Command-line entry point for reproducible forecasting experiments.

Subcommands: train, evaluate, ablate, scale-probe, export-graphs, gen-synth.
Every command that produces files takes ``--out`` and refuses to overwrite a
non-empty directory unless ``--force`` is given.  Commands that train write a
``manifest.json`` (command, config path, dataset hash, seed list, tool
version, timestamp) before any other output, and every output file is
written atomically.  Exit codes: 0 success, 1 runtime failure, 2
configuration error, a bad command line included; failures print a
machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, VARIANTS
from .data import CsvLayout, load_csv, save_csv, write_atomic
from .errors import ConfigurationError, EvographError
from .graph_learner import export_graphs
from .model import Model, load_checkpoint
from .synth import RegimeSpec, cluster_coupling, generate, two_regime_benchmark
from . import trainer

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


# ---------------------------------------------------------------------------
# Manifest and output-directory handling

@dataclass
class RunManifest:
    """Provenance record written before any training output."""

    command: str
    config_path: str | None
    dataset_hash: str
    seed_list: list[int]
    tool_version: str
    timestamp: str

    @classmethod
    def create(cls, command: str, config_path, dataset_hash: str,
               seeds) -> "RunManifest":
        return cls(
            command=command,
            config_path=str(config_path) if config_path else None,
            dataset_hash=dataset_hash,
            seed_list=[int(s) for s in seeds],
            tool_version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(),
        )

    def write(self, out_dir: Path) -> Path:
        """Atomic write: temp file in the target directory, then rename."""
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(dataclasses.asdict(self), indent=2)
        return write_atomic(out_dir / "manifest.json", payload)


def claim_out_dir(out_dir, force: bool) -> Path:
    """Refuse to write into a non-empty directory unless forced."""
    out = Path(out_dir)
    if out.exists():
        if not out.is_dir():
            raise ConfigurationError(f"--out {out} exists and is not a directory")
        if any(out.iterdir()) and not force:
            raise ConfigurationError(
                f"output directory {out} is not empty; pass --force to overwrite"
            )
    return out


# ---------------------------------------------------------------------------
# Shared loading helpers

def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        return ExperimentConfig.from_json(p.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {p} is not valid JSON: {exc}") from None


def resolve_seed(config: ExperimentConfig, flag_seed: int | None) -> int:
    """Precedence: --seed flag, then ESG_SEED, then the config file."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("ESG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(f"ESG_SEED must be an integer, got {env!r}")
    return config.model.seed


def load_dataset(path, n_channels: int = 1):
    return load_csv(path, CsvLayout(n_channels=n_channels))


def print_table(headers: list[str], rows: list[list], file=None) -> None:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line, file=file)
    print("  ".join("-" * w for w in widths), file=file)
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=file)


def metric_table(report) -> tuple[list[str], list[list]]:
    headers = ["horizon", "rse", "corr", "rmse", "mae"]
    rows = [
        [label] + [f"{row.get(m, float('nan')):.4f}" for m in headers[1:]]
        for label, row in report.rows.items()
    ]
    return headers, rows


# ---------------------------------------------------------------------------
# Subcommands

def cmd_train(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(config, args.seed)
    config.model.seed = seed
    dataset = load_dataset(args.data, config.model.n_channels)

    if args.dry_run:
        model = Model(config.model)
        trainer.prepare_data(dataset, config)  # validates compatibility
        print_table(["parameters", "seed", "variant"],
                    [[model.parameter_count(), seed, config.model.variant]])
        return EXIT_OK

    out = claim_out_dir(args.out, args.force)
    manifest = RunManifest.create("train", args.config,
                                  trainer.dataset_hash(dataset), [seed])
    manifest.write(out)
    _, _, result, report = trainer.run_experiment(dataset, config,
                                                  out_dir=out, force=True)
    headers, rows = metric_table(report)
    print_table(headers, rows)
    print(f"best epoch {result.best_epoch} | run directory: {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model, extras = load_checkpoint(args.checkpoint)
    if args.config:
        config = load_config(args.config)
    else:
        config = ExperimentConfig(model=model.config)
    config.model = model.config
    dataset = load_dataset(args.data, model.config.n_channels)
    data = trainer.prepare_data(dataset, config, scaler=extras.get("scaler"))
    report = trainer.evaluate_split(model, data, args.split)
    headers, rows = metric_table(report)
    print_table(headers, rows)
    if args.out:
        out = claim_out_dir(args.out, args.force)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "metrics.json", report.to_json())
        report.write_csv(out / "metrics.csv")
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    seed = resolve_seed(config, args.seed)
    config.model.seed = seed
    dataset = load_dataset(args.data, config.model.n_channels)
    out = claim_out_dir(args.out, args.force)
    seeds = trainer.ablation_seeds(config, args.repeats)
    manifest = RunManifest.create("ablate", args.config,
                                  trainer.dataset_hash(dataset), seeds)
    manifest.write(out)
    report = trainer.run_ablation(dataset, config, repeats=args.repeats,
                                  jobs=args.jobs)
    write_atomic(out / "ablation.json", report.to_json())
    report.write_csv(out / "ablation.csv")
    headers = ["variant"] + [f"{m}_{s}" for m in trainer.HEADLINE_METRICS
                             for s in ("mean", "std")]
    rows = []
    for variant, stats in report.aggregates.items():
        rows.append([variant] + [f"{stats[m][s]:.4f}"
                                 for m in trainer.HEADLINE_METRICS
                                 for s in ("mean", "std")])
    print_table(headers, rows)
    print(f"{len(report.runs)} runs in {report.wall_clock:.1f}s | outputs: {out}")
    return EXIT_OK


def cmd_scale_probe(args) -> int:
    model, extras = load_checkpoint(args.checkpoint)
    if args.config:
        config = load_config(args.config)
        config.model = model.config
    else:
        config = ExperimentConfig(model=model.config)
    dataset = load_dataset(args.data, model.config.n_channels)
    data = trainer.prepare_data(dataset, config, scaler=extras.get("scaler"))
    if args.scale == "all":
        scales = list(range(model.config.n_layers + 2))
    else:
        scales = [args.scale]
    results = [trainer.scale_probe(model, data, s, config.train) for s in scales]
    full_report = trainer.evaluate_split(model, data, "test")
    full_rmse = trainer.headline_row(full_report)["rmse"]
    headers = ["scale", "rmse", "mae", "corr", "best_epoch"]
    rows = []
    for res in results:
        row = trainer.headline_row(res.report)
        rows.append([res.scale, f"{row['rmse']:.4f}", f"{row['mae']:.4f}",
                     f"{row['corr']:.4f}", res.best_epoch])
    rows.append(["full", f"{full_rmse:.4f}", "-", "-", "-"])
    print_table(headers, rows)
    if args.out:
        out = claim_out_dir(args.out, args.force)
        out.mkdir(parents=True, exist_ok=True)
        payload = [{"scale": r.scale,
                    "metrics": trainer.headline_row(r.report),
                    "best_epoch": r.best_epoch,
                    "history": r.history}
                   for r in results]
        payload.append({"scale": "full",
                        "metrics": trainer.headline_row(full_report)})
        write_atomic(out / "probes.json", json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_export_graphs(args) -> int:
    model, extras = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.input, model.config.n_channels)
    values = dataset.values
    scaler_dict = extras.get("scaler")
    if scaler_dict:
        from .data import Scaler
        values = Scaler.from_dict(scaler_dict).transform_dataset(values)
    series = values.transpose(1, 0, 2)  # (T, N, C)
    seq = model.graph_inspection(series, args.layer)
    out = claim_out_dir(args.out, args.force)
    written = export_graphs(seq, out, layer=args.layer)
    print_table(["layer", "graphs", "directory"],
                [[args.layer, len(seq.matrices), out]])
    return EXIT_OK if written else EXIT_RUNTIME


def cmd_gen_synth(args) -> int:
    out = claim_out_dir(args.out, args.force)
    if args.regimes == 2:
        spec = two_regime_benchmark(
            n=args.nodes, t=args.steps, noise=args.noise,
            strength=args.strength, self_loop=args.self_loop,
            idle_self_loop=args.idle_self_loop,
            trend_amplitude=args.trend_amplitude,
            trend_period=args.trend_period,
        )
    else:
        # rotate a coupled cluster around the node set, one block per regime
        base, rem = divmod(args.steps, args.regimes)
        durations = [base + (1 if i < rem else 0) for i in range(args.regimes)]
        block = max(args.nodes // args.regimes, 2)
        matrices = []
        for r in range(args.regimes):
            hub = (r * block) % args.nodes
            members = [(hub + k) % args.nodes for k in range(block)]
            a = cluster_coupling(args.nodes, hub, members,
                                 args.strength, args.self_loop)
            for i in range(args.nodes):
                if i not in members:
                    a[i, i] = args.idle_self_loop
            matrices.append(a)
        spec = RegimeSpec(durations=durations, matrices=matrices,
                          noise=args.noise,
                          trend_amplitude=args.trend_amplitude or 0.0,
                          trend_period=args.trend_period)
    dataset, truth = generate(spec, args.nodes, args.steps, seed=args.seed,
                              name=args.name)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{args.name}.csv"
    save_csv(dataset, csv_path)
    truth.save(out)
    print_table(["file", "nodes", "steps", "regimes", "seed"],
                [[csv_path, args.nodes, args.steps, args.regimes, args.seed]])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

class ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigurationError (exit 2, JSON on
    stderr) instead of argparse's usage text; subparsers inherit it."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def scale(text: str) -> int | str:
    """``--scale``: a scale index, or ``all``; argparse reports a ValueError
    as "invalid scale value"."""
    return text if text == "all" else int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="evograph",
        description="Forecasting with evolving multi-scale graph structures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, required: bool):
        p.add_argument("--out", required=required,
                       help="output directory" + ("" if required else " (optional)"))
        p.add_argument("--force", action="store_true",
                       help="overwrite a non-empty output directory")

    p = sub.add_parser("train", help="train one model and write a run directory")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (beats ESG_SEED)")
    p.add_argument("--dry-run", action="store_true",
                   help="validate config and print parameter count, no training")
    add_out(p, required=False)
    p.set_defaults(func=cmd_train, needs_out_unless_dry=True)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None,
                   help="experiment config for split fractions (optional)")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    add_out(p, required=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the four-variant ablation")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--repeats", type=int, default=5,
                   help="seeds per variant (default 5)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed override (beats ESG_SEED)")
    add_out(p, required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("scale-probe",
                       help="linear-probe one temporal scale of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--scale", type=scale, default="all",
                   help="scale index 0..L+1, or 'all' (default)")
    add_out(p, required=False)
    p.set_defaults(func=cmd_scale_probe)

    p = sub.add_parser("export-graphs",
                       help="write one layer's adjacency sequence as CSVs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="input series CSV")
    p.add_argument("--layer", type=int, required=True, help="1-based layer index")
    add_out(p, required=True)
    p.set_defaults(func=cmd_export_graphs)

    p = sub.add_parser("gen-synth",
                       help="generate regime-switching synthetic data")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--regimes", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--strength", type=float, default=0.9,
                   help="coupling of cluster members onto their hub")
    p.add_argument("--self-loop", type=float, default=0.9,
                   help="hub self-coupling (spectral radius of each regime)")
    p.add_argument("--idle-self-loop", type=float, default=0.7,
                   help="self-coupling of nodes outside the active cluster")
    p.add_argument("--trend-amplitude", type=float, default=None)
    p.add_argument("--trend-period", type=int, default=100)
    p.add_argument("--name", default="synthetic")
    add_out(p, required=True)
    p.set_defaults(func=cmd_gen_synth)

    return parser


def emit_error(exc: BaseException, code: int) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "needs_out_unless_dry", False) \
                and not args.dry_run and args.out is None:
            raise ConfigurationError("--out is required unless --dry-run")
        return args.func(args)
    except ConfigurationError as exc:
        emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except EvographError as exc:
        emit_error(exc, EXIT_RUNTIME)
        return EXIT_RUNTIME
    except (OSError, ValueError, MemoryError) as exc:
        emit_error(exc, EXIT_RUNTIME)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
