"""Full forecasting model: stacked multi-scale extractors over learned
evolving graphs, with residual, skip, and output modules.

The backbone runs node-major: the (B, P, N, C) windows are viewed once as
(B, N, P, C), and the input projection, every ξ⁽ˡ⁾ and every Z⁽ˡ⁾ are
(B, N, T, C), time on axis −2.  Layer l turns Z⁽ˡ⁾ into temporal features
ξ⁽ˡ⁾ (gated inception), learns a sequence of adjacency matrices from ξ⁽ˡ⁾
(variant-dependent), propagates per segment, then layer-normalizes and
adds the time-aligned residual in one op.  Skip projections collapse the
raw input, every ξ⁽ˡ⁾, and the final state into a shared C_skip space
feeding the two-layer output head; each is a :class:`Linear` on its
branch's (B, N, T·C) view, each node's history as one row, so a branch's
tape keeps no flattened copy.

The layer loop exists once, in ``Model._branches``, a generator that yields
each skip branch's input with its graphs and Z as it goes: ``forward``
builds the skips from it, while ``branch_features`` and
``graph_inspection`` stop it at the requested scale, so neither runs a
later layer, a skip projection or the output head.

``predict``, ``branch_features`` and ``graph_inspection`` never run the
backbone on more than a training batch of windows at once: each walks its
windows in slices of ``TrainConfig.batch_size``'s default, so its arrays
are the size of a training step's and reuse the heap a step freed, and it
computes the static representation α_s once for all its slices.

Checkpoints hold no training state: nothing resumes from it.
"""

from __future__ import annotations

import base64
import json
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .config import ModelConfig, TrainConfig
from .data import Scaler, write_atomic
from .errors import (ConfigurationError, ContractError, DimensionError,
                     LoadError, NonFiniteError, SequenceTooShortError)
from .graph_learner import (Egl, EvolvingGraphSequence, SegmentSpec,
                            StaticFeatureExtractor)
from .nn import LayerNorm, Linear, ParamStore
from .propagation import MixHop
from .rng import RngSource
from .temporal import TcnLayer, layer_dilation
from .tensor import Tensor

CHECKPOINT_VERSION = 1
# windows per backbone walk without gradient tracking: a default training
# batch, so a walk's arrays fit the heap a training step leaves free
_SLICE = TrainConfig.batch_size


class OutputHead:
    """The two-layer output module on the aggregated skips: out1 → ReLU →
    out2, (B, N, C_skip) → (B, N, C) for single-step and → (B, Q, N, C)
    for multi-step forecasts."""

    def __init__(self, store: ParamStore, prefix: str, config: ModelConfig):
        self.config = c = config
        head = c.n_channels if c.task == "single" else c.horizon * c.n_channels
        self.out1 = Linear(store, f"{prefix}out1", c.c_skip, c.c_out1)
        self.out2 = Linear(store, f"{prefix}out2", c.c_out1, head)

    def __call__(self, agg: Tensor) -> Tensor:
        c = self.config
        out = self.out2(T.relu(self.out1(agg)))  # (B, N, head)
        if c.task == "multi":
            b = out.shape[0]
            out = T.reshape(out, (b, c.n_nodes, c.horizon, c.n_channels))
            out = T.transpose(out, (0, 2, 1, 3))  # (B, Q, N, C)
        return out


class Model:
    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.store = ParamStore(RngSource(config.seed))
        self.lengths = config.layer_lengths()
        self.reference_series: Tensor | None = None
        self._alpha_s_pin: Tensor | None = None
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
        self.head = OutputHead(st, "", c)

    # -- setup --------------------------------------------------------------

    def set_reference_series(self, series: np.ndarray) -> None:
        """Install the (normalized) training series (N, T*, C) that the
        static representation is extracted from, as it is given.  It must
        be finite (:class:`NonFiniteError`) and at least
        :meth:`StaticFeatureExtractor.min_length` steps long
        (:class:`SequenceTooShortError`)."""
        arr = np.asarray(series, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != self.config.n_nodes \
                or arr.shape[2] != self.config.n_channels:
            raise DimensionError(
                f"reference series must be (N={self.config.n_nodes}, T*, "
                f"C={self.config.n_channels}), got {arr.shape}"
            )
        if arr.shape[1] < StaticFeatureExtractor.min_length():
            raise SequenceTooShortError(
                f"reference series has {arr.shape[1]} steps; the static extractor "
                f"needs ≥ {StaticFeatureExtractor.min_length()}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("reference series holds non-finite values")
        self.reference_series = Tensor(arr)

    def parameter_count(self) -> int:
        return self.store.count()

    def parameters(self) -> dict[str, Tensor]:
        return self.store.params

    # -- forward ------------------------------------------------------------

    def _as_input(self, x) -> Tensor:
        c = self.config
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        if x.ndim != 4 or x.shape[1:] != (c.window, c.n_nodes, c.n_channels):
            raise DimensionError(
                f"input must be (B, {c.window}, {c.n_nodes}, {c.n_channels}), "
                f"got {x.shape}"
            )
        if x.shape[0] == 0:
            raise DimensionError("input holds no windows")
        if not np.all(np.isfinite(x.data)):
            raise NonFiniteError("input windows hold non-finite values")
        return x

    def _alpha_s(self) -> Tensor:
        """α_s, the static representation of the reference series."""
        if self.reference_series is None:
            raise ContractError(
                "reference series not set; call set_reference_series first"
            )
        return self.static_extractor(self.reference_series)

    def _branches(self, x: Tensor, alpha_s: Tensor, training: bool = False,
                  rng: np.random.Generator | None = None,
                  ) -> Iterator[tuple[Tensor, EvolvingGraphSequence | None, Tensor]]:
        """The backbone, one skip branch at a time.

        Yields (branch input, graphs, Z): first (x, None, Z⁽¹⁾), where x is
        the windows node-major and Z⁽¹⁾ their input projection, then
        (ξ⁽ˡ⁾, its graphs, Z⁽ˡ⁺¹⁾) for each layer l; every branch input and
        Z is (B, N, T, C).  A caller that stops iterating skips the later
        layers.  The windows are data, made C-contiguous node-major once (a
        copy only if held otherwise), so no result depends on their layout.
        """
        c = self.config
        x = Tensor(np.ascontiguousarray(x.data.transpose(0, 2, 1, 3)))
        raw_graphs = None
        if c.variant == "no_scale_specific":
            raw_graphs = self.raw_egl.evolve(x, alpha_s, d=c.intervals[0])
        z = self.input_proj(x)
        yield x, None, z
        for layer in range(c.n_layers):
            xi = self.tcn_layers[layer](z, training=training, rng=rng)
            keep = xi.shape[2]
            if c.variant == "no_scale_specific":
                graphs = raw_graphs
            elif c.variant == "static_only":
                graphs = self.egls[layer].static_sequence(
                    alpha_s, t=keep, batch=xi.shape[0])
            else:
                graphs = self.egls[layer].evolve(xi, alpha_s, d=c.intervals[layer])
            zp = self.mixhops[layer].apply_per_segment(xi, graphs)
            z = self.norms[layer](zp, T.narrow(z, 2, z.shape[2] - keep, keep))
            yield xi, graphs, z

    def forward(self, x, training: bool = False,
                rng: np.random.Generator | None = None,
                ) -> tuple[Tensor, None]:
        """The forecast for windows ``x``, paired with None."""
        x = self._as_input(x)
        return self._forward(x, self._alpha_s(), training, rng), None

    def _forward(self, x: Tensor, alpha_s: Tensor, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        projs = [self.skip_in, *self.skip_mid]
        skips = []
        branches = self._branches(x, alpha_s, training, rng)
        for scale, (feats, _, z) in enumerate(branches):
            skips.append(projs[scale](_histories(feats)))
        skips.append(self.skip_out(_histories(z)))

        agg = skips[0]
        for s in skips[1:]:
            agg = T.add(agg, s)

        return self.head(agg)

    @contextmanager
    def _alpha_s_pinned(self) -> Iterator[None]:
        """Within the block, every no-grad walk reuses one α_s, computed on
        entry: for a caller that makes several ``predict``,
        ``branch_features`` or ``graph_inspection`` calls on unchanged
        parameters."""
        with T.no_grad():
            self._alpha_s_pin = self._alpha_s()
        try:
            yield
        finally:
            self._alpha_s_pin = None

    def _sliced(self, n: int, run) -> np.ndarray:
        """``run(s, alpha_s)`` for each ``slice`` s of ``_SLICE`` windows out
        of ``n``, without gradient tracking and with α_s computed once for
        all of them (or pinned by :meth:`_alpha_s_pinned`); the results
        concatenated along the window axis."""
        with T.no_grad():
            alpha_s = self._alpha_s() if self._alpha_s_pin is None else self._alpha_s_pin
            return np.concatenate([run(slice(i, i + _SLICE), alpha_s)
                                   for i in range(0, n, _SLICE)])

    def predict(self, x) -> np.ndarray:
        """``forward(x)``'s output without gradient tracking, run over the
        windows 16 (a default training batch) at a time.  Equal to the
        unsliced forward up to the summation order of the batched products."""
        x = self._as_input(x).data
        return self._sliced(
            len(x), lambda s, alpha_s: self._forward(Tensor(x[s]), alpha_s).data)

    def _walk(self, x: Tensor, alpha_s: Tensor, scale: int,
              ) -> tuple[Tensor, EvolvingGraphSequence | None]:
        """Skip branch ``scale``'s input and its graphs, running the backbone
        only as far as that branch."""
        for branch, (feats, graphs, z) in enumerate(self._branches(x, alpha_s)):
            if branch == scale:
                return feats, graphs
        return z, None

    def branch_features(self, x, scale: int) -> np.ndarray:
        """Flattened input to skip branch ``scale`` without gradient tracking.

        Scale 0 is the raw window, 1..L the temporal features ξ⁽ˡ⁾, and
        L+1 the final state Z⁽ᴸ⁺¹⁾; the result is (B, N, t·c), exactly
        what the corresponding skip projection consumes.  The backbone
        stops at the requested scale and runs over the windows 16 at a
        time.
        """
        c = self.config
        if not 0 <= scale <= c.n_layers + 1:
            raise ConfigurationError(
                f"scale index {scale} out of range 0..{c.n_layers + 1}"
            )
        x = self._as_input(x).data
        return self._sliced(len(x), lambda s, alpha_s: _histories(
            self._walk(Tensor(x[s]), alpha_s, scale)[0]).data)

    def graph_inspection(self, series, layer: int) -> EvolvingGraphSequence:
        """The graphs layer ``layer`` (1..L) applies across a series.

        Slides the training-shaped window across the series with stride
        equal to the layer's segment interval and keeps each window's most
        recent adjacency — the graph the model actually applied to those
        steps.  The graph learner is therefore never unrolled deeper than
        it is in training, where a window holds only a few segments.  The
        backbone runs only up to the layer, 16 windows at a time.

        Accepts a finite (N, T, C) series, the dataset's layout, with
        T ≥ window.  Returns one sample whose segments are the windows' last
        graphs, their Ā and r exactly as the walk made them; segment
        boundaries are absolute series positions ``(e − stride, e)`` for
        each window end e, the first starting at ``window − stride``.
        """
        c = self.config
        if not 1 <= layer <= c.n_layers:
            raise ConfigurationError(f"layer must be in 1..{c.n_layers}, got {layer}")
        arr = np.asarray(series, dtype=np.float64)
        if arr.ndim != 3 or (arr.shape[0], arr.shape[2]) != (c.n_nodes, c.n_channels):
            raise DimensionError(
                f"series must be ({c.n_nodes}, T, {c.n_channels}), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("series holds non-finite values")
        total, p = arr.shape[1], c.window
        if total < p:
            raise SequenceTooShortError(
                f"series has {total} steps but the window needs {p}"
            )
        if c.variant == "no_scale_specific":
            # every layer applies the raw-input graphs, segmented by the
            # first interval, which layer 1 already yields
            layer = 1
        d = c.intervals[layer - 1]
        starts = np.arange(0, total - p + 1, d)
        # (T − P + 1, P, N, C): entry s holds steps s .. s + P − 1
        windows = sliding_window_view(arr, p, axis=1).transpose(1, 3, 0, 2)

        def last_graphs(s: slice, alpha_s: Tensor) -> np.ndarray:
            """Each window's last Ā and r side by side, (windows, N, N + 1)."""
            _, graphs = self._walk(Tensor(windows[starts[s]]), alpha_s, layer)
            return np.concatenate([graphs.adjacency.data[:, -1], graphs.row_sums[:, -1]],
                                  axis=-1)

        # one sample whose M segments are the windows' last graphs
        last = self._sliced(starts.size, last_graphs)[None]
        ends = range(p, total + 1, d)
        spec = SegmentSpec([(e - d, e) for e in ends])
        n = c.n_nodes
        return EvolvingGraphSequence(Tensor(last[..., :n]), last[..., n:], spec)


def _histories(x: Tensor) -> Tensor:
    """(B, N, T, C) → (B, N, T·C): each node's history as the row its skip
    projection reads; a view when ``x`` is C-contiguous."""
    return T.reshape(x, x.shape[:2] + (-1,))


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


def save_checkpoint(model: Model, path, epoch: int = 0,
                    scaler: Scaler | None = None) -> None:
    """Write the model's config, parameters and reference series, ``epoch``
    and ``scaler`` (as :meth:`Scaler.to_dict` or null) as one JSON file."""
    if model.reference_series is None:
        raise ContractError("cannot checkpoint a model without its reference series")
    blob = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "params": {name: _encode(p.data) for name, p in model.store.params.items()},
        # stored (N, C, T*), the layout checkpoints have always held
        "reference_series": _encode(model.reference_series.data.transpose(0, 2, 1)),
        "epoch": epoch,
        "scaler": None if scaler is None else scaler.to_dict(),
    }
    write_atomic(path, json.dumps(blob))


def load_checkpoint(path) -> tuple[Model, dict]:
    """The model and its extras, ``"epoch"`` and ``"scaler"`` (a :class:`Scaler`
    or None); any malformed part, the scaler included, is a LoadError."""
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
    try:
        config = ModelConfig.from_dict(blob["config"])
    except ConfigurationError as exc:
        raise LoadError(f"checkpoint {path} has a bad config: {exc}") from None
    model = Model(config)
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
        if not np.all(np.isfinite(arr)):
            raise LoadError(f"parameter {name} holds non-finite values")
        p.data = arr
    ref = _decode(blob["reference_series"])  # (N, C, T*)
    try:
        model.set_reference_series(ref.transpose(0, 2, 1) if ref.ndim == 3 else ref)
    except (DimensionError, NonFiniteError) as exc:
        raise LoadError(f"checkpoint {path} has a bad reference series, stored as "
                        f"(N, C, T*): {exc}") from None
    scaler = blob.get("scaler")
    if scaler is not None:
        scaler = Scaler.from_dict(scaler, (config.n_nodes, config.n_channels))
    return model, {"epoch": blob.get("epoch", 0), "scaler": scaler}
