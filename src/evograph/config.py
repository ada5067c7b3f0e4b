"""Model and training configuration with JSON round-trip and validation."""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field

from .data import SCALER_MODES, SplitSpec
from .errors import ConfigurationError

VARIANTS = ("full", "static_only", "no_scale_specific", "shared_evolution")
TASKS = ("single", "multi")
LOSSES = ("mae", "mse")
_NUMBERS = {"int": (int, numbers.Integral), "float": (float, numbers.Real)}


def _is_number(value, kind: str) -> bool:
    """``value`` is of type ``kind`` ("int" or "float") as JSON reads it; a bool is not."""
    return isinstance(value, _NUMBERS[kind][1]) and not isinstance(value, bool)


def _section(d, what: str) -> dict:
    """``d`` itself, if it is the JSON object a config section must be."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {d!r}")
    return d


def _as_tuple(name: str, values, kind: str) -> tuple:
    """A JSON list of ``kind`` numbers as a tuple of Python numbers."""
    if not isinstance(values, (list, tuple)) or not all(_is_number(v, kind) for v in values):
        raise ConfigurationError(f"{name} must be a list of {kind}s, got {values!r}")
    return tuple(_NUMBERS[kind][0](v) for v in values)


def _check_numbers(cfg) -> None:
    """Reject a string, bool, list or null where a field declares a number."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in _NUMBERS and not _is_number(value, f.type):
            raise ConfigurationError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass
class ModelConfig:
    task: str
    n_nodes: int
    n_channels: int
    window: int          # look-back length P
    horizon: int         # prediction horizon Q
    n_layers: int
    intervals: tuple[int, ...]   # segment width d per layer
    dilation_rate: int
    filter_sizes: tuple[int, ...]
    c_xi: int = 16
    c_z: int = 16
    c_skip: int = 32
    c_out1: int = 64
    c_s: int = 40
    c_e: int = 20
    c_static_hidden: int = 16
    psi: int = 2
    beta: float = 0.05
    dropout: float = 0.3
    variant: str = "full"
    seed: int = 0

    def __post_init__(self):
        self.intervals = _as_tuple("intervals", self.intervals, "int")
        self.filter_sizes = _as_tuple("filter_sizes", self.filter_sizes, "int")
        self.validate()

    def validate(self) -> None:
        _check_numbers(self)
        problems = []
        if self.task not in TASKS:
            problems.append(f"task must be one of {TASKS}, got {self.task!r}")
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.n_nodes < 2:
            problems.append(f"n_nodes must be ≥ 2, got {self.n_nodes}")
        if self.n_channels < 1:
            problems.append(f"n_channels must be ≥ 1, got {self.n_channels}")
        if self.window < 1 or self.horizon < 1:
            problems.append(
                f"window and horizon must be ≥ 1, got {self.window}, {self.horizon}"
            )
        if self.n_layers < 1:
            problems.append(f"n_layers must be ≥ 1, got {self.n_layers}")
        if len(self.intervals) != self.n_layers:
            problems.append(
                f"{len(self.intervals)} intervals for {self.n_layers} layers"
            )
        if any(d < 1 for d in self.intervals):
            problems.append(f"intervals must be ≥ 1, got {self.intervals}")
        if self.dilation_rate < 1:
            problems.append(f"dilation_rate must be ≥ 1, got {self.dilation_rate}")
        if not self.filter_sizes or any(k < 1 for k in self.filter_sizes):
            problems.append(f"bad filter_sizes {self.filter_sizes}")
        elif self.c_xi % len(self.filter_sizes):
            problems.append(
                f"c_xi={self.c_xi} not divisible by {len(self.filter_sizes)} filters"
            )
        for name in ("c_xi", "c_z", "c_skip", "c_out1", "c_s", "c_e", "c_static_hidden"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be ≥ 1, got {getattr(self, name)}")
        if self.psi < 0:
            problems.append(f"psi must be ≥ 0, got {self.psi}")
        if not 0.0 <= self.beta <= 1.0:
            problems.append(f"beta must be in [0,1], got {self.beta}")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout must be in [0,1), got {self.dropout}")
        # one interval per layer bounds the layer loop by the config's size
        layers_ok = len(self.intervals) == self.n_layers >= 1
        if self.filter_sizes and self.dilation_rate >= 1 and layers_ok:
            need = self.window - self.layer_lengths()[-1] + 1
            if self.window < need:
                problems.append(
                    f"window={self.window} shorter than the receptive field "
                    f"{need} of {self.n_layers} layers"
                )
        if problems:
            raise ConfigurationError("; ".join(problems))

    def layer_lengths(self) -> list[int]:
        """[P, len(ξ⁽¹⁾), …, len(ξ⁽ᴸ⁾)] under the valid-convolution length law."""
        k_max = max(self.filter_sizes)
        lengths = [self.window]
        for layer in range(1, self.n_layers + 1):
            s = self.dilation_rate ** (layer - 1)
            lengths.append(lengths[-1] - (k_max - 1) * s)
        return lengths

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(_section(d, "model config"))
        # configs and checkpoints of earlier versions carry the retired
        # switch; only its one implemented value is accepted
        if d.pop("normalize_adjacency", True) is not True:
            raise ConfigurationError(
                "normalize_adjacency=false is not supported: propagation "
                "always row-normalizes the adjacency"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        required = {
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        }
        missing = required - set(d)
        if missing:
            raise ConfigurationError(f"missing config keys: {sorted(missing)}")
        return cls(**d)


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 15          # 0 disables early stopping
    loss: str = "mae"
    clip_norm: float = 5.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _check_numbers(self)
        problems = []
        if self.lr <= 0:
            problems.append(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be ≥ 1, got {self.batch_size}")
        if self.max_epochs < 1:
            problems.append(f"max_epochs must be ≥ 1, got {self.max_epochs}")
        if self.patience < 0:
            problems.append(f"patience must be ≥ 0, got {self.patience}")
        if self.loss not in LOSSES:
            problems.append(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.clip_norm <= 0:
            problems.append(f"clip_norm must be > 0, got {self.clip_norm}")
        if problems:
            raise ConfigurationError("; ".join(problems))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        # "repeats" of earlier versions was never read: --repeats sets it
        d = {k: v for k, v in _section(d, "train config").items() if k != "repeats"}
        # nor "seeds", which overrode --seed and --repeats; its null is dropped
        if d.pop("seeds", None) is not None:
            raise ConfigurationError('train config "seeds" is retired: use --seed and --repeats')
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ConfigurationError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass
class ExperimentConfig:
    """Everything one run needs: model, trainer, and data handling."""

    model: ModelConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    scaler_mode: str = "max-abs"
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        self.split = _as_tuple("split", self.split, "float")
        if len(self.split) != 3:
            raise ConfigurationError(f"split needs 3 fractions, got {self.split}")
        SplitSpec(*self.split)  # validates fractions
        if self.scaler_mode not in SCALER_MODES:
            raise ConfigurationError(f"unknown scaler mode {self.scaler_mode!r}")

    def split_spec(self) -> SplitSpec:
        return SplitSpec(*self.split)

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "train": self.train.to_dict(),
            "scaler_mode": self.scaler_mode,
            "split": list(self.split),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {"model", "train", "scaler_mode", "split"}
        unknown = set(_section(d, "config")) - known
        if unknown:
            raise ConfigurationError(f"unknown experiment keys: {sorted(unknown)}")
        if "model" not in d:
            raise ConfigurationError("missing config key: model")
        return cls(
            model=ModelConfig.from_dict(d["model"]),
            train=TrainConfig.from_dict(d.get("train", {})),
            scaler_mode=d.get("scaler_mode", "max-abs"),
            split=d.get("split", (0.6, 0.2, 0.2)),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def single_step_preset(n_nodes: int, n_channels: int = 1, horizon: int = 3,
                       window: int = 192, seed: int = 0) -> ModelConfig:
    """Deep single-step stack: 5 layers, coarse-to-fine segment widths."""
    return ModelConfig(
        task="single", n_nodes=n_nodes, n_channels=n_channels,
        window=window, horizon=horizon, n_layers=5,
        intervals=(31, 31, 21, 14, 1), dilation_rate=2,
        filter_sizes=(2, 3, 6, 7), c_xi=16, c_z=16, c_skip=32, c_out1=64,
        c_s=40, c_e=20, psi=2, beta=0.05, dropout=0.3, seed=seed,
    )


def multi_step_preset(n_nodes: int, n_channels: int = 2, horizon: int = 12,
                      window: int = 24, seed: int = 0) -> ModelConfig:
    """Shallow multi-step stack: 3 layers, per-step graph evolution."""
    return ModelConfig(
        task="multi", n_nodes=n_nodes, n_channels=n_channels,
        window=window, horizon=horizon, n_layers=3,
        intervals=(1, 1, 1), dilation_rate=1,
        filter_sizes=(2, 6), c_xi=32, c_z=32, c_skip=64, c_out1=128,
        c_s=40, c_e=20, psi=2, beta=0.05, dropout=0.3, seed=seed,
    )
