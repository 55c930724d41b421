"""Spatio-temporal graph convolutional forecaster.

Input windows are (batch, history, station, channel). Internally the model
works in (batch, station, time, channel) layout:

    block 1: gated temporal conv -> graph conv -> ReLU -> gated temporal conv
    block 2: same
    head:    gated temporal conv collapsing the remaining time axis to 1,
             then a per-station linear map to a single output channel

Each gated temporal conv is a valid convolution of width f_t whose output is
split in half: linear part times sigmoid gate. Every temporal layer shortens
the time axis by f_t - 1, so a window of P steps must satisfy
P - 4 (f_t - 1) >= 1 before the head sees it.

Every temporal layer is a valid convolution along time and the graph conv,
ReLU and fc act on each column alone, so one forward over a T-row block gives
the next-step forecast of each of its T - P + 1 stride-1 windows.
``StgcnModel.forward_rows`` is that forward: it runs the stages over
(B, T, S, K) rows, and the fc first folds the window positions into the
batch, so it sees each window's column as its own entry. ``forward`` is its
T = P case, where the fold only relabels.

Training minimizes mean squared residual over the windows of a minibatch on
the next-step target, with Adam and best-validation parameter selection. A
minibatch is a few blocks of consecutive training windows under one forward;
under dropout one mask covers every window that shares a column. Multi-step
forecasts at inference iterate the one-step model, writing each prediction
back into the window's predicted channel while exogenous channels hold their
last value. One function, ``_rollout``, checks and rolls out every forecast:
``predict_series`` runs it over a contiguous run of windows, ``predict_batch``
over stacked windows (T = P), ``predict`` over one, at most ``_PREDICT_BATCH``
window positions per call, so a forecast's arrays do not grow with the series.
It runs the layers' arithmetic on plain arrays and records nothing, with the
graph convs' matrices built once per call; its first step is the same forward,
bit for bit. Later steps stream: each step shifts every window by one column,
so every layer has one new output column. Each gated temporal conv keeps its
window's last f_t - 1 input columns and the head its last head_time_steps - 1
(nothing for the graph conv, ReLU and fc), gathered from the first forward's
activations; a later step runs each layer on those plus the new column. The
matmuls then run over other row counts, so BLAS may sum in another order, and
later steps can differ from a full forward on the shifted window in the last
bits.
"""

from __future__ import annotations

import ctypes
import operator
import os
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as tz
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, ParseError, ShapeError, TrainingError, ValidationError
from .graph import GraphOperator, renormalized_adjacency, scaled_laplacian
from .ingest import NormalizationParams, WindowedDataset
from .optim import Adam
from .tensor import Tensor

if TYPE_CHECKING:
    from .config import PipelineConfig  # config imports this module

_MODE_TO_OPERATOR = {
    "chebyshev": "scaled_laplacian",
    "first_order": "renormalized_adjacency",
}


def graph_operator(adjacency, graph_mode: str) -> GraphOperator:
    """The operator a model in a valid ``graph_mode`` consumes, built from ``adjacency``."""
    kind = _MODE_TO_OPERATOR[graph_mode]
    return (scaled_laplacian if kind == "scaled_laplacian" else renormalized_adjacency)(adjacency)


@dataclass
class ModelConfig:
    n_nodes: int
    in_channels: int
    history_steps: int
    channels: tuple[int, int, int] = (32, 8, 32)
    time_kernel: int = 3
    graph_kernel: int = 3
    graph_mode: str = "chebyshev"
    dropout: float = 0.3

    def validate(self) -> None:
        sizes = (self.n_nodes, self.in_channels, self.history_steps, *self.channels,
                 self.time_kernel, self.graph_kernel)
        try:
            list(map(operator.index, sizes))
        except TypeError:
            raise ConfigError(f"model sizes must be integers, got {sizes}") from None
        if self.n_nodes < 1 or self.in_channels < 1:
            raise ConfigError(
                f"need at least one node and one channel, got "
                f"({self.n_nodes}, {self.in_channels})")
        if len(self.channels) != 3 or any(c < 1 for c in self.channels):
            raise ConfigError(f"channels must be three positive ints, got {self.channels}")
        if self.time_kernel < 1:
            raise ConfigError(f"time_kernel must be >= 1, got {self.time_kernel}")
        if self.graph_mode not in _MODE_TO_OPERATOR:
            raise ConfigError(f"graph_mode must be one of {tuple(_MODE_TO_OPERATOR)}, "
                              f"got {self.graph_mode!r}")
        if self.graph_mode == "first_order" and self.graph_kernel != 1:
            raise ConfigError("first_order mode uses graph_kernel=1")
        if self.graph_kernel < 1:
            raise ConfigError(f"graph_kernel must be >= 1, got {self.graph_kernel}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.head_time_steps < 1:
            raise ConfigError(
                f"history_steps={self.history_steps} leaves "
                f"{self.head_time_steps} time steps after four temporal layers "
                f"of width {self.time_kernel}; need at least 1")
        need, memory = self.nbytes(), _physical_memory()
        if memory is not None and need > memory:
            raise ConfigError(
                f"the model needs at least {Decimal(need) / 2**30:.3g} GiB for its "
                f"parameters and one window's activations, more than the "
                f"{memory / 2**30:.3g} GiB of physical memory")

    @property
    def head_time_steps(self) -> int:
        return self.history_steps - 4 * (self.time_kernel - 1)

    def nbytes(self) -> int:
        """A lower bound on the bytes a one-window forward holds.

        The weight kernels, the graph basis and the widest layer's arrays for
        one window: its im2col matrix, its gated conv's two halves and the
        graph conv's filtered input. Computed from the config alone, so it
        can be checked before any weight is drawn.
        """
        c1, c2, c3 = self.channels
        f, r = self.time_kernel, self.graph_kernel
        s, k, p = self.n_nodes, self.in_channels, self.history_steps
        weights = (2 * f * (k * c1 + c2 * c3 + c3 * c1 + c2 * c3) + 2 * r * c1 * c2
                   + 2 * self.head_time_steps * c3 * c3 + c3)
        widest = s * p * (f * max(k, c1, c2, c3) + 2 * max(c1, c3) + r * c2)
        return 8 * (weights + r * s * s + widest)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class TemporalGatedConv:
    """(..., T, c_in) -> (..., T - f + 1, c_out), GLU-gated.

    The forward pass is a single ``gated_conv1d_time`` tape op: one im2col
    matmul against the (f, c_in, 2 c_out) kernel, whose first c_out output
    columns are the linear half and the rest the sigmoid gate.
    """

    def __init__(self, f: int, c_in: int, c_out: int, rng: np.random.Generator):
        self.f = f
        kernel = np.stack([_glorot(rng, (c_in, 2 * c_out), c_in, 2 * c_out)
                           for _ in range(f)])
        self.kernel = Tensor(kernel, requires_grad=True)
        self.bias_lin = Tensor(np.zeros(c_out), requires_grad=True)
        self.bias_gate = Tensor(np.zeros(c_out), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return tz.gated_conv1d_time(x, self.kernel, self.bias_lin, self.bias_gate)

    def values(self, x: np.ndarray) -> np.ndarray:
        """``forward``'s values on a plain array, recording nothing."""
        lin, gate = tz.gated_conv_halves(x, self.kernel.data, self.bias_lin.data,
                                         self.bias_gate.data)
        return lin * gate


class GraphConv:
    """Mix information across stations with a spectral graph filter.

    chebyshev: sum_r T_r(M) x Theta_r with T_0 = I, T_1 = M and
    T_r = 2 M T_{r-1} - T_{r-2}, M the scaled Laplacian.
    first_order: M x Theta_0 with M the renormalized adjacency.

    The forward pass is a single ``graph_conv`` tape op on the whole
    (order, c_in, c_out) kernel and the constant (order, S, S) basis that
    ``GraphConv.basis`` builds, once per model call for both blocks.
    """

    def __init__(self, order: int, c_in: int, c_out: int, rng: np.random.Generator):
        kernel = np.stack([_glorot(rng, (c_in, c_out), c_in, c_out)
                           for _ in range(order)])
        self.kernel = Tensor(kernel, requires_grad=True)

    @staticmethod
    def basis(m: np.ndarray, mode: str, order: int) -> np.ndarray:
        """[M] for first_order, [T_0(M), ..., T_{order-1}(M)] for chebyshev."""
        basis = [m] if mode == "first_order" else [np.eye(len(m)), m]
        while len(basis) < order:
            basis.append(2.0 * m @ basis[-1] - basis[-2])
        return np.stack(basis[:order])

    def forward(self, x: Tensor, basis: np.ndarray) -> Tensor:
        return tz.graph_conv(x, basis, self.kernel)


class STConvBlock:
    """Temporal -> graph -> ReLU -> temporal. Time shrinks by 2 (f - 1)."""

    def __init__(self, config: ModelConfig, c_in: int, rng: np.random.Generator):
        c1, c2, c3 = config.channels
        self.temporal_in = TemporalGatedConv(config.time_kernel, c_in, c1, rng)
        self.graph = GraphConv(config.graph_kernel, c1, c2, rng)
        self.temporal_out = TemporalGatedConv(config.time_kernel, c2, c3, rng)

    def stages(self, basis: np.ndarray) -> list:
        """This block's layers in order; see ``StgcnModel.stages``."""
        t_in, graph, t_out = self.temporal_in, self.graph, self.temporal_out
        operands = tz.graph_conv_operands(basis, graph.kernel.data)
        return [(t_in.f - 1, t_in.forward, t_in.values),
                (0, lambda h: tz.relu(graph.forward(h, basis)),
                 lambda h: tz.relu_values(tz.graph_conv_values(h, *operands))),
                (t_out.f - 1, t_out.forward, t_out.values)]

    def forward(self, x: Tensor, basis: np.ndarray) -> Tensor:
        for _, layer, _ in self.stages(basis):
            x = layer(x)
        return x


class StgcnModel:
    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        rng = np.random.default_rng(seed)
        c3 = config.channels[2]
        self.block1 = STConvBlock(config, config.in_channels, rng)
        self.block2 = STConvBlock(config, c3, rng)
        self.head_temporal = TemporalGatedConv(config.head_time_steps, c3, c3, rng)
        self.fc_weight = Tensor(_glorot(rng, (c3, 1), c3, 1), requires_grad=True)
        self.fc_bias = Tensor(np.zeros(1), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        """Every weight by its model.ckpt name, in file order: the one place both are set."""
        gated = ("kernel", "bias_lin", "bias_gate")
        layers = [(f"block{i}.{part}", getattr(block, part), names)
                  for i, block in ((1, self.block1), (2, self.block2))
                  for part, names in (("temporal_in", gated), ("graph", ("kernel",)),
                                      ("temporal_out", gated))]
        layers.append(("head.temporal", self.head_temporal, gated))
        out = {f"{path}.{name}": getattr(layer, name)
               for path, layer, names in layers for name in names}
        return out | {"head.fc.weight": self.fc_weight, "head.fc.bias": self.fc_bias}

    def _check_shape(self, shape: tuple[int, ...], rows: bool = False) -> None:
        """Reject anything but (B, P, S, K) windows, or with ``rows`` (B, T >= P,
        S, K) rows."""
        cfg = self.config
        p = cfg.history_steps
        if (len(shape) != 4 or shape[2:] != (cfg.n_nodes, cfg.in_channels)
                or not (shape[1] >= p if rows else shape[1] == p)):
            what = f"rows (B, T >= {p}" if rows else f"windows (B, {p}"
            raise ShapeError(
                f"expected {what}, {cfg.n_nodes}, {cfg.in_channels}), got {shape}")

    def _basis(self, op: GraphOperator) -> np.ndarray:
        """Check the operator; return the graph basis."""
        cfg = self.config
        kind = _MODE_TO_OPERATOR[cfg.graph_mode]
        if op.kind != kind:
            raise ValidationError(
                f"model in {cfg.graph_mode!r} mode needs a {kind} operator, got {op.kind!r}")
        if op.matrix.shape != (cfg.n_nodes, cfg.n_nodes):
            raise ShapeError(
                f"graph operator is {op.matrix.shape}, model has {cfg.n_nodes} nodes")
        return GraphConv.basis(op.matrix, cfg.graph_mode, cfg.graph_kernel)

    def stages(self, basis: np.ndarray, training: bool = False, rng=None) -> list:
        """The model's layers in order, as (context, forward, values) triples.

        Each layer maps a (B, S, T, C) input to T - context time steps; the
        fc, last, first folds the n_pos = T - P + 1 window positions into the
        batch: (B, S, n_pos, c3) -> (B n_pos, S, 1). ``forward`` records on
        the tape; ``values`` computes its numbers on plain arrays, without
        dropout, for the rollout. Only here is the order declared.
        """
        cfg = self.config
        weight, bias = self.fc_weight, self.fc_bias
        drop = (0, lambda h: tz.dropout(h, cfg.dropout, training, rng), lambda h: h)
        fold = (-1, cfg.n_nodes, cfg.channels[2])

        def fc(h):
            h = tz.reshape(tz.swap_axes(h, 1, 2), fold)
            return tz.add(tz.matmul(h, weight), bias)

        def fc_values(h):
            return np.swapaxes(h, 1, 2).reshape(fold) @ weight.data + bias.data

        head = self.head_temporal
        return (self.block1.stages(basis) + [drop] + self.block2.stages(basis) + [drop]
                + [(head.f - 1, head.forward, head.values), (0, fc, fc_values)])

    def forward(self, windows, op: GraphOperator, training: bool = False,
                rng=None) -> Tensor:
        """(B, P, S, K) windows -> (B, S, 1) next-step predictions.

        ``forward_rows`` at T = P: one window position per entry, so the fold
        only relabels and the values are those of the unfolded stages.
        """
        x = windows if isinstance(windows, Tensor) else Tensor(windows)
        self._check_shape(x.shape)
        return self.forward_rows(x, op, training, rng)

    def forward_rows(self, rows, op: GraphOperator, training: bool = False,
                     rng=None) -> Tensor:
        """(B, T, S, K) rows -> (B (T - P + 1), S, 1) next-step predictions.

        Entry b (T - P + 1) + j forecasts from the window of rows [j, j + P)
        of block b: each layer runs once over each block (see ``stages``).
        Under dropout, one mask covers every window that shares a column.
        """
        x = rows if isinstance(rows, Tensor) else Tensor(rows)
        self._check_shape(x.shape, rows=True)
        basis = self._basis(op)
        if training and self.config.dropout > 0.0 and rng is None:
            raise ValidationError("training forward with dropout needs an rng")
        h = tz.swap_axes(x, 1, 2)
        for _, layer, _ in self.stages(basis, training, rng):
            h = layer(h)
        return h


def l2_loss(pred: Tensor, target) -> Tensor:
    """Mean over the batch of the squared residual norm."""
    t = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != t.shape:
        raise ShapeError(f"loss operands differ: {pred.shape} vs {t.shape}")
    diff = tz.sub(pred, t)
    return tz.multiply_elementwise(
        tz.reduce_sum(tz.multiply_elementwise(diff, diff)), 1.0 / pred.shape[0])


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0

    def validate(self) -> None:
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_mae: float
    val_rmse: float


@dataclass
class TrainResult:
    history: list[EpochStats]
    best_epoch: int
    best_val_loss: float


def _keep_freed_pages() -> None:
    """Let glibc keep up to 64 MiB of freed memory instead of unmapping it.

    ``backward`` frees each step's arrays; with glibc's defaults their pages
    go back to the kernel and the next step faults them in again, about a
    sixth of the training time at c07's shape. M_MMAP_THRESHOLD = 32 MiB is
    the top of glibc's dynamic range and M_TRIM_THRESHOLD = 64 MiB twice
    that, glibc's own rule; setting either one stops the dynamic
    adjustment, so both are set.
    Only ``train`` calls this, so a process that never trains keeps the
    defaults. Without glibc's ``mallopt``, a no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


# Windows per training block. A minibatch is batch_size // _BLOCK blocks (one
# block of batch_size windows when that is smaller) of _BLOCK + P - 1 rows
# each. At batch size 32, blocks of 16 trained c07's setup faster than blocks
# of 8 or 32, and c08's faster than blocks of 8.
_BLOCK = 16


def _minibatches(rows: np.ndarray, targets: np.ndarray, history_steps: int,
                 batch_size: int, rng: np.random.Generator):
    """One epoch of minibatches, each a stack of blocks of consecutive windows.

    ``rows`` are a split's rows (``WindowedDataset.series``) and ``targets``
    its n windows' (n, S, 1) targets in ``part`` order. With
    L = min(_BLOCK, batch_size) and an offset o drawn from ``rng`` in [0, L),
    the windows are cut into whole blocks of l = min(L, n) windows, the
    first at window o mod (n - l + 1); the windows before the first block
    and after the last sit out the epoch. The blocks are shuffled, up to
    batch_size // l of them make a minibatch, and the minibatches come in
    shuffled order; every draw from ``rng`` happens before the first is
    yielded. Each is ((m, l + P - 1, S, K) rows, (m l, S, 1) targets), the
    targets block-major with the window position varying fastest, as
    ``StgcnModel.forward_rows`` orders its output.
    """
    length = min(_BLOCK, batch_size)
    offset = int(rng.integers(length))
    n = rows.shape[0] - history_steps + 1
    size = min(length, n)
    firsts = np.arange(offset % (n - size + 1), n - size + 1, size)
    firsts = firsts[rng.permutation(len(firsts))]
    per_batch = batch_size // size
    batches = [firsts[lo:lo + per_batch] for lo in range(0, len(firsts), per_batch)]
    for i in rng.permutation(len(batches)):
        yield (np.stack([rows[a:a + size + history_steps - 1] for a in batches[i]]),
               np.concatenate([targets[a:a + size] for a in batches[i]]))


def train(model: StgcnModel, dataset: WindowedDataset, op: GraphOperator,
          config: TrainConfig | None = None) -> TrainResult:
    """Adam training with a fixed shuffle seed and best-validation selection.

    The supervision signal is the first horizon step, the next hour. Each
    epoch draws minibatches of blocks of consecutive training windows
    (``_minibatches``) and runs one ``forward_rows`` per minibatch, the
    forward the rollout's first step shares; under dropout one mask covers
    every window that shares a column. Some windows sit out each epoch, and
    an epoch's ``train_loss`` is the mean over the windows it saw.
    Validation loss, MAE and RMSE of the one-step forecasts are computed on
    the normalized scale after every epoch, by ``predict_series`` on the
    validation rows, at most ``_PREDICT_BATCH`` windows per forward; the parameters
    of the best validation epoch are restored into the model before
    returning; ``WindowedDataset.part`` refuses an empty training or validation
    split. Freed pages stay in the process, up to 64 MiB (``_keep_freed_pages``).
    """
    config = config or TrainConfig()
    config.validate()
    _keep_freed_pages()
    # The next hour's targets: (N, S, 1) of the training windows, (N, S) of the validation's.
    train_y, val_y = dataset.part("train")[1][:, 0], dataset.part("val")[1][:, 0, :, 0]
    train_rows, val_rows = dataset.series("train"), dataset.series("val")

    model._basis(op)                        # rejects a mismatched operator up front
    params = model.parameters()
    opt = Adam(list(params.values()), lr=config.lr)
    rng = np.random.default_rng(config.seed)

    history: list[EpochStats] = []
    best_val = np.inf
    best_epoch = 0
    best_state: dict[str, np.ndarray] = {}

    for epoch in range(1, config.epochs + 1):
        total, seen = 0.0, 0
        for step, (rows, y) in enumerate(_minibatches(
                train_rows, train_y, dataset.history_steps, config.batch_size, rng)):
            with tz.Tape():
                pred = model.forward_rows(rows, op, training=True, rng=rng)
                loss = l2_loss(pred, y)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {step}; "
                    "lower the learning rate")
            tz.backward(loss)
            opt.step()
            opt.zero_grad()
            total += value * len(y)
            seen += len(y)

        err = predict_series(model, val_rows, op, 1, 0)[:, 0] - val_y
        val_loss = float((err ** 2).sum() / len(err))
        val_mae, val_rmse = float(np.abs(err).mean()), float(np.sqrt((err ** 2).mean()))
        history.append(EpochStats(epoch, total / seen, val_loss, val_mae, val_rmse))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_state = {name: p.data.copy() for name, p in params.items()}

    if not best_state:
        raise TrainingError(
            "no epoch produced a finite validation loss; nothing to restore")
    for name, p in params.items():
        p.data[...] = best_state[name]
    return TrainResult(history, best_epoch, float(best_val))


# Window positions per ``_rollout`` call in ``predict_batch`` and ``predict_series``,
# so a forecast's arrays do not grow with its windows. Of 8 to 256, blocks of 32
# and 64 ran fastest at 13 and 60 stations (they stay in cache); 32 holds half.
_PREDICT_BATCH = 32


def predict(model: StgcnModel, window: np.ndarray, op: GraphOperator,
            horizon: int, predicted_channel: int) -> np.ndarray:
    """Iterate the one-step model ``horizon`` times on one (P, S, K) window.

    Each step's prediction is appended into the predicted channel of the
    rolling window; the other channels repeat their last observed value.
    Returns (horizon, S) on the same (normalized) scale as the input.
    """
    return predict_batch(model, window[np.newaxis], op, horizon, predicted_channel)[0]


def predict_batch(model: StgcnModel, windows: np.ndarray, op: GraphOperator,
                  horizon: int, predicted_channel: int) -> np.ndarray:
    """(N, horizon, S): ``_rollout`` on (N, P, S, K) windows, ``_PREDICT_BATCH`` at
    a time. At N = 0, one empty call still checks the arguments and the shape."""
    windows = np.asarray(windows, dtype=np.float64)
    model._check_shape(windows.shape)
    return np.concatenate([
        _rollout(model, windows[lo:lo + _PREDICT_BATCH], op, horizon, predicted_channel)
        for lo in range(0, max(len(windows), 1), _PREDICT_BATCH)])


def predict_series(model: StgcnModel, rows: np.ndarray, op: GraphOperator,
                   horizon: int, predicted_channel: int) -> np.ndarray:
    """``_rollout`` over every stride-1 window of (T, S, K) rows.

    Returns (T - P + 1, horizon, S): entry j forecasts from the window of
    rows [j, j + P), as ``predict_batch`` would, with one first-step forward
    per block of at most ``_PREDICT_BATCH`` windows (P - 1 rows overlap).
    """
    rows = np.asarray(rows, dtype=np.float64)[np.newaxis]
    model._check_shape(rows.shape, rows=True)
    p = model.config.history_steps
    return np.concatenate([
        _rollout(model, rows[:, lo:lo + _PREDICT_BATCH + p - 1], op, horizon,
                 predicted_channel)
        for lo in range(0, rows.shape[1] - p + 1, _PREDICT_BATCH)])


def _tails(h: np.ndarray, context: int, n_pos: int) -> np.ndarray:
    """The last ``context`` input columns of every window position j < n_pos
    of (B, S, T, C) ``h``, as a fresh (B n_pos, S, context, C) array.

    Each position's window spans T - n_pos + 1 columns of ``h``.
    """
    lo = h.shape[2] - n_pos + 1 - context
    if n_pos == 1:                                       # T = P: a plain slice
        return h[:, :, lo:].copy()
    b, s, _, c = h.shape
    cols = sliding_window_view(h[:, :, lo:], context, axis=2)
    return np.array(cols.transpose(0, 2, 1, 4, 3)).reshape(b * n_pos, s, context, c)


def _rollout(model: StgcnModel, rows: np.ndarray, op: GraphOperator, horizon: int,
             predicted_channel: int) -> np.ndarray:
    """Forecast every P-row window of (B, T, S, K) ``rows``: the one function
    that checks and rolls out every forecast.

    Checks the shape, the operator, missing values, the horizon and the
    channel, then returns (B (T - P + 1), horizon, S), window positions
    varying fastest. Every step runs the stages' ``values``, so nothing is
    recorded, even on an active ``Tape``. Step 1 runs each layer over all T
    columns, with ``forward_rows``' bits, and keeps each layer's tails; each
    later step streams one column per window through the stages, from those
    tails.
    """
    model._check_shape(rows.shape, rows=True)
    stages = model.stages(model._basis(op))
    if np.isnan(rows).any():
        raise ValidationError("forecast windows contain missing values")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= predicted_channel < rows.shape[-1]:
        raise ValidationError(f"predicted channel {predicted_channel} out of range "
                              f"for {rows.shape[-1]} channels")
    n_pos = rows.shape[1] - model.config.history_steps + 1
    out = np.empty((rows.shape[0] * n_pos, horizon, rows.shape[2]))
    tails: list = []
    h = x = np.swapaxes(rows, 1, 2)
    for context, _, layer in stages:
        if horizon > 1:
            tails.append(_tails(h, context, n_pos) if context else None)
        h = layer(h)
    out[:, 0] = h[:, :, 0]
    if horizon == 1:
        return out
    nxt = _tails(x, 1, n_pos)[:, :, 0]                   # hold exogenous channels
    for step in range(1, horizon):
        nxt[:, :, predicted_channel] = h[:, :, 0]
        h = nxt[:, :, np.newaxis]                        # (B n_pos, S, 1, K)
        for i, (context, _, layer) in enumerate(stages):
            if context:
                h = np.concatenate([tails[i], h], axis=2)
                tails[i] = h[:, :, 1:]
            h = layer(h)
        out[:, step] = h[:, :, 0]
    return out


def save_model(path, model: StgcnModel, config: PipelineConfig, station_ids: list[str],
               norm: NormalizationParams, result: TrainResult) -> None:
    """Checkpoint the parameters and the run: its config as config text, its ids
    and scaling, which ``load_model`` checks, and its best epoch, a record."""
    from .config import config_text  # here, since config imports this module
    save_checkpoint(path, model.parameters(), {
        "config": config_text(config), "station_ids": station_ids,
        "target_ids": norm.target_ids,
        "normalization": {"mins": norm.mins.tolist(), "maxs": norm.maxs.tolist()},
        "best_epoch": result.best_epoch, "best_val_loss": result.best_val_loss})


def load_model(path) -> tuple[StgcnModel, dict]:
    """Rebuild a model from a ``save_model`` checkpoint; return it and its metadata.

    Each metadata fault is one ParseError naming the key, and then a block that does
    not fit the model a ValidationError. ``meta["config"]`` comes back parsed and
    ``meta["normalization"]`` as float arrays.
    """
    from .config import parse_config_text  # here, since config imports this module
    blocks, meta = load_checkpoint(path)
    try:
        for key in ("station_ids", "target_ids"):
            if not (isinstance(meta[key], list) and all(isinstance(i, str) for i in meta[key])):
                raise ConfigError(f"{key} must be a list of strings")
        if not isinstance(meta["config"], str):
            raise ConfigError("config must be a string")
        meta["config"] = parse_config_text(meta["config"], source="config")
        predicted, n = meta["config"].predicted_target, len(meta["target_ids"])
        if predicted not in meta["target_ids"]:
            raise ConfigError(f"predicted_target {predicted!r} is not one of the target_ids")
        scaling = meta["normalization"]
        bounds = [scaling.get(k) for k in ("mins", "maxs")] if isinstance(scaling, dict) else [0]
        if not all(isinstance(b, list) and len(b) == n and all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max for v in b)
                for b in bounds):
            raise ConfigError(f"normalization needs {n} finite JSON numbers in mins and maxs")
        mins, maxs = np.array(bounds, dtype=float)
        with np.errstate(over="ignore"):
            span = maxs - mins
        if not (np.isfinite(span) & (span >= 0)).all():
            raise ConfigError("normalization: each maxs - mins must be finite and >= 0")
        meta["normalization"] = {"mins": mins, "maxs": maxs}
        model = StgcnModel(replace(meta["config"].model, n_nodes=len(meta["station_ids"]),
                                   in_channels=n), seed=0)  # sized before a weight is drawn
    except (KeyError, TypeError, ConfigError) as exc:
        raise ParseError(f"checkpoint {path}: bad or missing metadata: {exc}") from exc
    params = model.parameters()
    if missing := set(params) ^ set(blocks):
        raise ValidationError(f"checkpoint parameter names do not match model: {missing}")
    for name, p in params.items():
        if blocks[name].shape != p.data.shape:
            raise ValidationError(
                f"parameter {name} has shape {blocks[name].shape}, "
                f"expected {p.data.shape}")
        if blocks[name].dtype.kind not in "iuf" or not np.isfinite(blocks[name]).all():
            raise ValidationError(f"parameter {name} is not all finite real numbers")
        p.data[...] = blocks[name]
    return model, meta
