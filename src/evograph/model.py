"""Full forecasting model: stacked multi-scale extractors over learned
evolving graphs, with residual, skip, and output modules.

Layer l turns Z⁽ˡ⁾ into temporal features ξ⁽ˡ⁾ (gated inception), learns a
sequence of adjacency matrices from ξ⁽ˡ⁾ (variant-dependent), propagates
per segment, layer-normalizes, and adds the time-aligned residual.  Skip
projections collapse the raw input, every ξ⁽ˡ⁾, and the final state into a
shared C_skip space feeding the two-layer output head.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .data import write_atomic
from .errors import (ConfigurationError, ContractError, DimensionError,
                     LoadError, SequenceTooShortError)
from .graph_learner import (Egl, EvolvingGraphSequence, SegmentSpec,
                            StaticFeatureExtractor)
from .nn import LayerNorm, Linear, ParamStore
from .propagation import MixHop
from .rng import RngSource
from .temporal import TcnLayer, layer_dilation
from .tensor import Tensor

CHECKPOINT_VERSION = 1


@dataclass
class ForwardTrace:
    """Per-layer intermediates captured when forward(inspect=True)."""

    xi: list[Tensor]
    graphs: list[EvolvingGraphSequence]
    z: list[Tensor]
    prediction: Tensor


class Model:
    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.store = ParamStore(RngSource(config.seed))
        self.lengths = config.layer_lengths()
        self.reference_series: Tensor | None = None
        c = config
        st = self.store

        self.input_proj = Linear(st, "input_proj", c.n_channels, c.c_z)
        self.static_extractor = StaticFeatureExtractor(
            st, "static", c.n_channels, c.c_s, c.c_static_hidden
        )
        self.tcn_layers = [
            TcnLayer(st, f"layer{l}.tcn", c.c_z, c.c_xi, c.filter_sizes,
                     layer_dilation(l, c.dilation_rate), c.dropout)
            for l in range(1, c.n_layers + 1)
        ]
        self.mixhops = [
            MixHop(st, f"layer{l}.gcn", c.c_xi, c.c_z, c.psi, c.beta)
            for l in range(1, c.n_layers + 1)
        ]
        self.norms = [
            LayerNorm(st, f"layer{l}.norm", c.c_z)
            for l in range(1, c.n_layers + 1)
        ]

        if c.variant == "no_scale_specific":
            self.raw_egl = Egl(st, "egl_raw", c.n_channels, c.c_e, c.c_s)
            self.egls: list[Egl] = []
        elif c.variant == "shared_evolution":
            shared = Egl(st, "egl_shared", c.c_xi, c.c_e, c.c_s)
            self.egls = [shared] * c.n_layers
        else:
            self.egls = [
                Egl(st, f"layer{l}.egl", c.c_xi, c.c_e, c.c_s,
                    with_gru=c.variant != "static_only")
                for l in range(1, c.n_layers + 1)
            ]

        self.skip_in = Linear(st, "skip0", c.window * c.n_channels, c.c_skip)
        self.skip_mid = [
            Linear(st, f"skip{l}", self.lengths[l] * c.c_xi, c.c_skip)
            for l in range(1, c.n_layers + 1)
        ]
        self.skip_out = Linear(
            st, f"skip{c.n_layers + 1}", self.lengths[-1] * c.c_z, c.c_skip
        )
        head = c.n_channels if c.task == "single" else c.horizon * c.n_channels
        self.out1 = Linear(st, "out1", c.c_skip, c.c_out1)
        self.out2 = Linear(st, "out2", c.c_out1, head)

    # -- setup --------------------------------------------------------------

    def set_reference_series(self, series: np.ndarray) -> None:
        """Install the (normalized) training series (N, T*, C) that the
        static representation is extracted from."""
        arr = np.asarray(series, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != self.config.n_nodes \
                or arr.shape[2] != self.config.n_channels:
            raise DimensionError(
                f"reference series must be (N={self.config.n_nodes}, T*, "
                f"C={self.config.n_channels}), got {arr.shape}"
            )
        self.reference_series = Tensor(arr.transpose(0, 2, 1))  # (N, C, T*)

    def parameter_count(self) -> int:
        return self.store.count()

    def parameters(self) -> dict[str, Tensor]:
        return self.store.params

    # -- forward ------------------------------------------------------------

    def _collapse(self, x: Tensor, proj: Linear) -> Tensor:
        """(B, T, N, C) → full-width time collapse → (B, N, C_skip)."""
        b, t, n, c = x.shape
        flat = T.reshape(T.transpose(x, (0, 2, 1, 3)), (b, n, t * c))
        return proj(flat)

    def _graphs_for_layer(self, layer: int, xi: Tensor, alpha_s: Tensor,
                          raw_graphs: EvolvingGraphSequence | None,
                          ) -> tuple[EvolvingGraphSequence, int]:
        c = self.config
        if c.variant == "no_scale_specific":
            offset = c.window - xi.shape[1]
            return raw_graphs, offset
        if c.variant == "static_only":
            return self.egls[layer].static_sequence(
                alpha_s, t=xi.shape[1], batch=xi.shape[0]
            ), 0
        return self.egls[layer].evolve(xi, alpha_s, d=c.intervals[layer]), 0

    def forward(self, x, training: bool = False,
                rng: np.random.Generator | None = None,
                inspect: bool = False,
                scale_mask: list[float] | None = None,
                ) -> tuple[Tensor, ForwardTrace | None]:
        c = self.config
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        if x.ndim != 4 or x.shape[1:] != (c.window, c.n_nodes, c.n_channels):
            raise DimensionError(
                f"input must be (B, {c.window}, {c.n_nodes}, {c.n_channels}), "
                f"got {x.shape}"
            )
        if self.reference_series is None:
            raise ContractError(
                "reference series not set; call set_reference_series first"
            )
        if scale_mask is not None and len(scale_mask) != c.n_layers + 2:
            raise DimensionError(
                f"scale_mask needs {c.n_layers + 2} entries, got {len(scale_mask)}"
            )

        alpha_s = self.static_extractor(self.reference_series)
        raw_graphs = None
        if c.variant == "no_scale_specific":
            raw_graphs = self.raw_egl.evolve(x, alpha_s, d=c.intervals[0])

        z = self.input_proj(x)
        skips = [self._collapse(x, self.skip_in)]
        trace_xi, trace_graphs, trace_z = [], [], [z]
        for layer in range(c.n_layers):
            xi = self.tcn_layers[layer](z, training=training, rng=rng)
            graphs, offset = self._graphs_for_layer(layer, xi, alpha_s, raw_graphs)
            zp = self.mixhops[layer].apply_per_segment(
                xi, graphs, normalize=c.normalize_adjacency, time_offset=offset
            )
            zp = self.norms[layer](zp)
            keep = xi.shape[1]
            z = T.add(zp, T.narrow(z, 1, z.shape[1] - keep, keep))
            skips.append(self._collapse(xi, self.skip_mid[layer]))
            if inspect:
                trace_xi.append(xi)
                trace_graphs.append(graphs)
                trace_z.append(z)
        skips.append(self._collapse(z, self.skip_out))

        if scale_mask is not None:
            skips = [T.mul(s, float(m)) for s, m in zip(skips, scale_mask)]
        agg = skips[0]
        for s in skips[1:]:
            agg = T.add(agg, s)

        out = self.out2(T.relu(self.out1(agg)))  # (B, N, head)
        if c.task == "multi":
            b = out.shape[0]
            out = T.reshape(out, (b, c.n_nodes, c.horizon, c.n_channels))
            out = T.transpose(out, (0, 2, 1, 3))  # (B, Q, N, C)
        trace = None
        if inspect:
            trace = ForwardTrace(trace_xi, trace_graphs, trace_z, out)
        return out, trace

    def predict(self, x) -> np.ndarray:
        with T.no_grad():
            out, _ = self.forward(x, training=False)
        return out.data

    def branch_features(self, x, scale: int) -> np.ndarray:
        """Flattened input to skip branch ``scale`` without gradient tracking.

        Scale 0 is the raw window, 1..L the temporal features ξ⁽ˡ⁾, and
        L+1 the final state Z⁽ᴸ⁺¹⁾; the result is (B, N, t·c), exactly
        what the corresponding skip projection consumes.
        """
        c = self.config
        if not 0 <= scale <= c.n_layers + 1:
            raise ConfigurationError(
                f"scale index {scale} out of range 0..{c.n_layers + 1}"
            )

        def flat(t: Tensor) -> np.ndarray:
            b, length, n, ch = t.shape
            return t.data.transpose(0, 2, 1, 3).reshape(b, n, length * ch)

        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        if x.ndim != 4 or x.shape[1:] != (c.window, c.n_nodes, c.n_channels):
            raise DimensionError(
                f"input must be (B, {c.window}, {c.n_nodes}, {c.n_channels}), "
                f"got {x.shape}"
            )
        with T.no_grad():
            if scale == 0:
                return flat(x)
            if self.reference_series is None:
                raise ContractError(
                    "reference series not set; call set_reference_series first"
                )
            alpha_s = self.static_extractor(self.reference_series)
            raw_graphs = None
            if c.variant == "no_scale_specific":
                raw_graphs = self.raw_egl.evolve(x, alpha_s, d=c.intervals[0])
            z = self.input_proj(x)
            for layer in range(c.n_layers):
                xi = self.tcn_layers[layer](z, training=False)
                if scale == layer + 1:
                    return flat(xi)
                graphs, offset = self._graphs_for_layer(
                    layer, xi, alpha_s, raw_graphs
                )
                zp = self.mixhops[layer].apply_per_segment(
                    xi, graphs, normalize=c.normalize_adjacency,
                    time_offset=offset,
                )
                zp = self.norms[layer](zp)
                keep = xi.shape[1]
                z = T.add(zp, T.narrow(z, 1, z.shape[1] - keep, keep))
            return flat(z)

    def graph_inspection(self, series,
                         batch_size: int = 128,
                         ) -> list[tuple[EvolvingGraphSequence, int]]:
        """Graphs governing each stretch of a series, derived window-by-window.

        Slides the training-shaped window across the series with stride equal
        to the layer's segment interval and keeps each window's most recent
        adjacency — the graph the model actually applied to those steps.
        The graph learner is therefore never unrolled deeper than it is in
        training, where a window holds only a few segments.

        Accepts (T, N, C) with T ≥ window.  Returns one (graphs, offset)
        pair per layer; segment boundaries are absolute series positions
        (offset is always 0) and start at ``window − stride``, the first
        point an entire window precedes.
        """
        c = self.config
        if isinstance(series, Tensor):
            series = series.data
        arr = np.asarray(series, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1:] != (c.n_nodes, c.n_channels):
            raise DimensionError(
                f"series must be (T, {c.n_nodes}, {c.n_channels}), got {arr.shape}"
            )
        total, p = arr.shape[0], c.window
        if total < p:
            raise SequenceTooShortError(
                f"series has {total} steps but the window needs {p}"
            )
        pairs: list[tuple[EvolvingGraphSequence, int]] = []
        with T.no_grad():
            for layer in range(c.n_layers):
                # the raw-input graph source always segments by the first
                # interval, whatever layer it is serving
                d = c.intervals[0] if c.variant == "no_scale_specific" \
                    else c.intervals[layer]
                ends = list(range(p, total + 1, d))
                last_graphs = []
                for chunk in range(0, len(ends), batch_size):
                    batch_ends = ends[chunk:chunk + batch_size]
                    windows = np.stack([arr[e - p:e] for e in batch_ends])
                    _, trace = self.forward(windows, inspect=True)
                    last_graphs.append(trace.graphs[layer].adjacency.data[:, -1])
                # one sample whose M segments are the windows' last graphs
                stack = Tensor(np.concatenate(last_graphs)[None])
                spec = SegmentSpec(d=d, m=len(ends),
                                   boundaries=[(e - d, e) for e in ends])
                pairs.append((EvolvingGraphSequence.from_stack(stack, spec), 0))
        return pairs


def make_variant(config: ModelConfig, variant: str) -> Model:
    """Build a model with the same config/seed but a different graph source."""
    return Model(replace(config, variant=variant))


# ---------------------------------------------------------------------------
# Checkpointing: a versioned JSON blob with base64-encoded float64 tensors.

def _encode(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype=np.float64)
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode(blob: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(blob["data"], validate=True)
        return np.frombuffer(raw, dtype=np.float64).reshape(blob["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed tensor in checkpoint: {exc!r}") from None


def save_checkpoint(model: Model, path, optimizer_state: dict | None = None,
                    epoch: int = 0, rng_counter: int = 0,
                    scaler: dict | None = None,
                    extra: dict | None = None) -> None:
    if model.reference_series is None:
        raise ContractError("cannot checkpoint a model without its reference series")
    blob = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "params": {name: _encode(p.data) for name, p in model.store.params.items()},
        "reference_series": _encode(model.reference_series.data),
        "optimizer": _encode_state(optimizer_state) if optimizer_state else None,
        "epoch": epoch,
        "rng_counter": rng_counter,
        "scaler": scaler,
        "extra": extra or {},
    }
    write_atomic(path, json.dumps(blob).encode("utf-8"))


_STATE_SCALARS = ("lr", "beta1", "beta2", "eps")


def _encode_state(state: dict) -> dict:
    out = {"t": state["t"], "m": {}, "v": {}}
    for key in _STATE_SCALARS:
        if key in state:
            out[key] = state[key]
    for key in ("m", "v"):
        out[key] = {name: _encode(arr) for name, arr in state[key].items()}
    return out


def _decode_state(blob: dict) -> dict:
    try:
        out = {
            "t": blob["t"],
            "m": {name: _decode(b) for name, b in blob["m"].items()},
            "v": {name: _decode(b) for name, b in blob["v"].items()},
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise LoadError(f"malformed optimizer state in checkpoint: {exc!r}") from None
    for key in _STATE_SCALARS:
        if key in blob:
            out[key] = blob[key]
    return out


def load_checkpoint(path) -> tuple[Model, dict]:
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such checkpoint: {path}")
    try:
        blob = json.loads(path.read_bytes().decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise LoadError(f"unreadable checkpoint {path}: {exc}") from None
    if not isinstance(blob, dict):
        raise LoadError(f"checkpoint {path} is not a JSON object")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise LoadError(
            f"checkpoint version {blob.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    for key in ("config", "params", "reference_series"):
        if not isinstance(blob.get(key), dict):
            raise LoadError(f"checkpoint {path} has no {key!r} object")
    model = Model(ModelConfig.from_dict(blob["config"]))
    saved = blob["params"]
    expected = set(model.store.params)
    if set(saved) != expected:
        missing = sorted(expected - set(saved))
        surplus = sorted(set(saved) - expected)
        raise LoadError(
            f"parameter name mismatch: missing {missing}, unexpected {surplus}"
        )
    for name, p in model.store.params.items():
        arr = _decode(saved[name])
        if tuple(arr.shape) != p.shape:
            raise LoadError(
                f"parameter {name} has shape {arr.shape}, expected {p.shape}"
            )
        p.data = arr
    ref = _decode(blob["reference_series"])
    model.reference_series = Tensor(ref)
    extras = {
        "optimizer": _decode_state(blob["optimizer"]) if blob.get("optimizer") else None,
        "epoch": blob.get("epoch", 0),
        "rng_counter": blob.get("rng_counter", 0),
        "scaler": blob.get("scaler"),
        "extra": blob.get("extra", {}),
    }
    return model, extras
