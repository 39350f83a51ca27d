"""From-scratch fully connected regression network.

Maps a standardized intensity triple to a range in metres through a chain of
affine layers with elementwise nonlinearities and a linear output. Training
is plain minibatch SGD on the mean absolute error with early stopping on
validation MAE. ``train`` and ``grid_search`` share one stacked epoch loop
(``train_stack``): a grid group's learning rates train in lockstep, bit for
bit like serial runs, and ``train`` is its one-member case. ``backward`` and
that loop share one backprop; everything is deterministic under a fixed
seed. Prediction uses the dataset prefilter's validity screen.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataFormatError, TrainingDivergedError
from .evaluation import bin_index
from .pipeline import CONTRAST_FLOOR, screen_triples, standardize_batch, write_table
from .seeding import derive_seed

INPUT_WIDTH = 3
INIT_SCALE = 0.05  # weights start uniform on [-0.05, 0.05], biases at zero
#: Largest weight count of a layout: 8 MB per parameter copy.
MAX_WEIGHTS = 1_000_000

MODEL_FORMAT = "gated-depth-net"
MODEL_VERSION = 1


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z, _a):
    return z > 0.0  # derivative at the kink is taken as 0; multiplies as 1.0 or 0.0


def _tanh(z):
    return np.tanh(z)


def _tanh_grad(_z, a):
    return 1.0 - a * a


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_grad(_z, a):
    return a * (1.0 - a)


ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
}


def parse_hidden(text):
    """Parse hidden-layer notation like ``"40-20-10"`` into a width tuple."""
    text = str(text).strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.replace("x", "-").split("-"))


@dataclass(frozen=True)
class NetworkArch:
    """Hidden layer widths plus the activation used between them."""

    hidden: tuple = (40,)
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        object.__setattr__(self, "activation", str(self.activation).lower())
        if any(w < 1 for w in self.hidden):
            raise ValueError("hidden widths must be positive")
        dims = (INPUT_WIDTH, *self.hidden, 1)
        weights = sum(a * b for a, b in zip(dims, dims[1:]))
        if weights > MAX_WEIGHTS:
            raise ValueError(f"hidden layout {'-'.join(map(str, self.hidden))} has {weights:,} "
                             f"weights, more than {MAX_WEIGHTS:,}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def chunk_rows(self):
        """Rows per evaluation chunk, so no hidden activation holds over 8,192 x 64 floats."""
        return max(1, 8192 * 64 // max((64, *self.hidden)))


@dataclass
class NetworkModel:
    """Weights/biases plus the metadata of the run that produced them."""

    arch: NetworkArch
    weights: list
    biases: list
    seed: int = 0
    epochs_run: int = 0
    val_mae: float = math.nan

    def __post_init__(self):
        dims = (INPUT_WIDTH, *self.arch.hidden, 1)
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("layer count does not match the architecture")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(
                    f"layer {i} shapes {w.shape}/{b.shape} do not chain {dims[i]}->{dims[i + 1]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} contains non-finite parameters")


def init_params(arch: NetworkArch, seed: int) -> NetworkModel:
    """Fresh model: weights uniform on +-0.05, biases exactly zero."""
    rng = np.random.default_rng(seed)
    dims = (INPUT_WIDTH, *arch.hidden, 1)
    weights = [rng.uniform(-INIT_SCALE, INIT_SCALE, (dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return NetworkModel(arch, weights, biases, seed=seed)


def _forward(weights, biases, act, x, cache=None):
    """Network output for an (n, 3) batch, or (K, n) outputs for a (K, n, 3)
    stack through K stacked parameter sets, given as (K, 1, in, out) weights
    and (K, 1, out) biases; a given ``cache`` list receives each layer's
    (input, pre-activation, output) for backprop."""
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        # one-row products: BLAS rounds a whole-batch a @ w by batch size, a
        # row alone does not, and a stacked member's row rounds as it would alone
        z = (a[..., None, :] @ w)[..., 0, :] + b
        a_next = act(z) if i < last else z  # linear output layer
        if cache is not None:
            cache.append((a, z, a_next))
        a = a_next
    return a[..., 0]


def forward(model: NetworkModel, x):
    """Predicted range for a standardized triple or an (n, 3) batch; a model
    that overflows on any input raises ``ValueError``."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = arr.reshape(-1, INPUT_WIDTH)
    if not np.all(np.isfinite(arr)):
        raise ValueError("network input must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite outputs are rejected below
        pred = _forward(model.weights, model.biases, ACTIVATIONS[model.arch.activation][0], arr)
    bad = np.count_nonzero(~np.isfinite(pred))
    if bad:
        raise ValueError(f"{bad} of {len(pred)} network inputs predict a non-finite range")
    return float(pred[0]) if single else pred


def loss_mae(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ValueError("predictions and targets must be non-empty and equal length")
    return float(np.mean(np.abs(predictions - targets)))


def backward(model: NetworkModel, x, y):
    """Subgradient of the batch MAE w.r.t. every weight and bias.

    sign(0) = 0, so exact hits and dead relu units contribute nothing.
    """
    x = np.asarray(x, dtype=float).reshape(-1, INPUT_WIDTH)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape[0] == 0 or x.shape[0] != y.shape[0]:
        raise ValueError("batch must be non-empty with matching targets")
    act, act_grad = ACTIVATIONS[model.arch.activation]
    cache = []
    pred = _forward(model.weights, model.biases, act, x, cache)
    if not np.all(np.isfinite(pred)):
        raise TrainingDivergedError("non-finite activations in forward pass")
    return _backprop(model.weights, cache, pred - y, act_grad)


def _backprop(weights, cache, err, act_grad):
    """Per-layer (weight, bias) gradients of the batch MAE from a cached
    forward pass and its residuals ``err`` (prediction minus target); stacked
    parameters give stacked gradients."""
    delta = (np.sign(err) / err.shape[-1])[..., None]
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = cache[i][0].swapaxes(-1, -2) @ delta
        grads_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = (delta @ weights[i].swapaxes(-1, -2)) * act_grad(*cache[i - 1][1:])
    return grads_w, grads_b


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; patience counts epochs without validation improvement."""

    learning_rate: float
    batch_size: int
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max epochs and patience must be >= 1")


class EpochStats(NamedTuple):
    epoch: int
    train_mae: float
    val_mae: float


def train(train_data, val_data, arch: NetworkArch, cfg: TrainConfig):
    """Minibatch SGD with early stopping; returns (best model, history).

    ``train_data``/``val_data`` are (X, y) pairs of standardized inputs and
    raw targets in metres. After every epoch the validation MAE is measured;
    the returned model is the snapshot with the lowest validation MAE, and
    training stops once ``patience`` epochs pass without improvement. A run
    that goes non-finite raises ``TrainingDivergedError`` naming its epoch.
    """
    (outcome,) = train_stack(train_data, val_data, arch, [cfg])
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome


def train_stack(train_data, val_data, arch: NetworkArch, cfgs):
    """Train one member per ``TrainConfig`` in lockstep, as ``train`` would
    train each alone; returns per member its ``(best model, history)`` or
    the ``TrainingDivergedError`` its solo run raises.

    The members share the data, the architecture and the batch size, epoch
    limit and patience. Each keeps its own seed (initial weights and shuffle
    stream), learning rate, best snapshot and patience counter. Their
    parameters form one (K, ...) stack whose per-member products round like
    the member's own, so every result is bit-identical to a solo run. A
    member leaves the stack when it stops early or diverges; the rest go on.
    """
    x_train = np.asarray(train_data[0], dtype=float).reshape(-1, INPUT_WIDTH)
    y_train = np.asarray(train_data[1], dtype=float).reshape(-1)
    x_val = np.asarray(val_data[0], dtype=float).reshape(-1, INPUT_WIDTH)
    y_val = np.asarray(val_data[1], dtype=float).reshape(-1)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("training and validation sets must be non-empty")
    cfgs = list(cfgs)
    shared = {(c.batch_size, c.max_epochs, c.patience) for c in cfgs}
    if len(shared) != 1:
        raise ValueError("stacked runs need one batch size, epoch limit and patience")
    ((batch, max_epochs, patience),) = shared

    act, act_grad = ACTIVATIONS[arch.activation]
    inits = [init_params(arch, c.seed) for c in cfgs]
    stack = _Stack(np.arange(len(cfgs)), [np.stack(w) for w in zip(*(m.weights for m in inits))],
                   [np.stack(b) for b in zip(*(m.biases for m in inits))],
                   np.array([c.learning_rate for c in cfgs])[:, None, None])
    shuffles = [np.random.default_rng(np.random.SeedSequence(entropy=c.seed, spawn_key=(1,)))
                for c in cfgs]
    outcomes = [None] * len(cfgs)
    best = [None] * len(cfgs)
    best_val = [math.inf] * len(cfgs)
    stale = [0] * len(cfgs)
    history = [[] for _ in cfgs]
    n = x_train.shape[0]
    starts = range(0, n, batch)
    batch_rows = np.array([min(batch, n - start) for start in starts])
    step = arch.chunk_rows

    # A diverging run overflows before the isfinite checks below catch it;
    # numpy's warnings would only repeat what TrainingDivergedError reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(max_epochs):
            orders = np.stack([shuffles[k].permutation(n) for k in stack.members])
            abs_err_sums = np.empty((len(stack.members), len(starts)))
            for j, start in enumerate(starts):
                sel = orders[:, start:start + batch]
                cache = []
                pred = _forward(stack.w_rows, stack.b_rows, act, x_train[sel], cache)
                err = pred - y_train[sel]
                sums = abs_err_sums[:, j] = np.add.reduce(np.abs(err), axis=-1)
                grads_w, grads_b = _backprop(stack.weights, cache, err, act_grad)
                for w, b, gw, gb in zip(stack.weights, stack.biases, grads_w, grads_b):
                    w -= np.multiply(gw, stack.rates, out=gw)
                    b -= np.multiply(gb, stack.b_rates, out=gb)
                if math.isfinite(sums.sum()):  # then every member's forward is finite
                    continue
                finite = np.isfinite(pred).all(axis=-1)
                for k in stack.members[~finite]:
                    outcomes[k] = TrainingDivergedError(
                        f"non-finite forward pass at epoch {epoch}", epoch=epoch)
                stack = stack.keep(finite)
                orders, abs_err_sums = orders[finite], abs_err_sums[finite]
                if not stack.members.size:
                    break
            del orders, sel  # free the shuffles before the validation pass, the peak of memory

            # np.mean of each batch's |err|, then of the batch means
            train_maes = (abs_err_sums / batch_rows).mean(axis=-1)
            stays = np.ones(len(stack.members), dtype=bool)
            for i, k in enumerate(stack.members):
                member_w, member_b = [w[i] for w in stack.weights], [b[i] for b in stack.biases]
                val_pred = np.concatenate([_forward(member_w, member_b, act, x_val[j:j + step])
                                           for j in range(0, len(x_val), step)])
                train_mae, val_mae = float(train_maes[i]), float(np.mean(np.abs(val_pred - y_val)))
                failure = ("validation pass" if not np.isfinite(val_pred).all() else
                           "loss" if not (math.isfinite(train_mae) and math.isfinite(val_mae)) else
                           None)
                if failure:
                    outcomes[k] = TrainingDivergedError(f"non-finite {failure} at epoch {epoch}",
                                                        epoch=epoch)
                    stays[i] = False
                    continue
                history[k].append(EpochStats(epoch, train_mae, val_mae))
                if val_mae < best_val[k]:
                    best_val[k] = val_mae
                    best[k] = ([w.copy() for w in member_w], [b.copy() for b in member_b])
                    stale[k] = 0
                else:
                    stale[k] += 1
                    stays[i] = stale[k] < patience
            stack = stack.keep(stays)
            if not stack.members.size:
                break

    for k, cfg in enumerate(cfgs):
        if outcomes[k] is None:
            model = NetworkModel(arch, *best[k], seed=cfg.seed, epochs_run=len(history[k]),
                                 val_mae=best_val[k])
            outcomes[k] = (model, history[k])
    return outcomes


class _Stack:
    """The parameters of the members still training, one row per member:
    (K, in, out) weights, (K, out) biases and (K, 1, 1) learning rates."""

    def __init__(self, members, weights, biases, rates):
        self.members, self.weights, self.biases, self.rates = members, weights, biases, rates
        # views in the forward's stacked layout, and the rates shaped for the biases
        self.w_rows = [w[:, None] for w in weights]
        self.b_rows = [b[:, None] for b in biases]
        self.b_rates = rates[..., 0]

    def keep(self, mask):
        if mask.all():
            return self
        return _Stack(self.members[mask], [w[mask] for w in self.weights],
                      [b[mask] for b in self.biases], self.rates[mask])


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid: the cartesian product of the four axes. Every axis
    becomes a tuple (so numpy arrays work too), layouts tuples and activations
    lowercase; a value repeated on an axis is a ``ValueError`` naming the axis
    and both spellings."""

    learning_rates: tuple
    batch_sizes: tuple
    hidden_layouts: tuple
    activations: tuple

    def __post_init__(self):
        given = self.axes
        object.__setattr__(self, "learning_rates", tuple(self.learning_rates))
        object.__setattr__(self, "batch_sizes", tuple(self.batch_sizes))
        object.__setattr__(self, "hidden_layouts", tuple(tuple(h) for h in self.hidden_layouts))
        object.__setattr__(self, "activations", tuple(str(a).lower() for a in self.activations))
        if not all(self.axes):
            raise ValueError("every grid axis needs at least one value")
        for axis, spelled, values in zip(dataclasses.fields(self), given, self.axes):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"grid axis {axis.name}: {spelled[i]!r} repeats "
                                     f"{spelled[values.index(value)]!r}; give each value once")

    @classmethod
    def default_grid(cls):
        """The stock search grid (3 x 8 x 10 x 3 = 720 combinations)."""
        return cls(
            learning_rates=(0.1, 0.01, 0.001),
            batch_sizes=(4, 8, 16, 32, 64, 128, 256, 512),
            hidden_layouts=(
                (5,), (10,), (20,), (40,),
                (10, 5), (20, 10), (40, 20),
                (20, 10, 5), (40, 20, 10), (40, 20, 10, 5),
            ),
            activations=("tanh", "sigmoid", "relu"),
        )

    @property
    def axes(self):
        return (self.learning_rates, self.batch_sizes, self.hidden_layouts, self.activations)

    def enumerate(self):
        return [GridPoint(lr, batch, tuple(hidden), activation)
                for lr, batch, hidden, activation in itertools.product(*self.axes)]

    def __len__(self):
        return math.prod(map(len, self.axes))


class GridPoint(NamedTuple):
    learning_rate: float
    batch_size: int
    hidden: tuple
    activation: str


class GridRow(NamedTuple):
    config_index: int
    point: GridPoint
    dataset: str
    val_mae: float  # NaN when the run diverged
    epochs: int


@dataclass
class GridSearchResult:
    rows: list
    ranking: list  # (config_index, mean val MAE over datasets, any_diverged)
    points: list

    @property
    def best(self) -> GridPoint:
        return self.points[self.ranking[0][0]]

    def write_csv(self, path):
        rows = [(p.learning_rate, p.batch_size, "-".join(str(w) for w in p.hidden), p.activation,
                 dataset, val_mae, epochs) for _, p, dataset, val_mae, epochs in self.rows]
        write_table(path, ("lr", "batch", "arch", "activation", "dataset", "val_mae", "epochs"),
                    zip(*rows))


def grid_search(datasets, grid: GridSpec, max_epochs=100, patience=10, seed=0):
    """Train every grid point on every dataset and rank by mean val MAE.

    ``datasets`` is a sequence of ``(tag, (x_train, y_train), (x_val, y_val))``
    entries. Rankings use the mean validation MAE across datasets so a single
    configuration is chosen for all of them; diverged runs are recorded as
    NaN and excluded from the mean but flagged in the ranking. Per-run seeds
    derive from (seed, config index), so results do not depend on run order.
    Points that differ only in learning rate train in lockstep through
    ``train_stack``, with the results of serial ``train`` runs.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("need at least one dataset")
    points = grid.enumerate()
    groups = {}
    for idx, p in enumerate(points):
        groups.setdefault((p.hidden, p.activation, p.batch_size), []).append(idx)
    rows = []
    for (hidden, activation, batch_size), members in groups.items():
        arch = NetworkArch(hidden, activation)
        cfgs = [TrainConfig(points[idx].learning_rate, batch_size, max_epochs, patience,
                            seed=derive_seed(seed, "grid", idx)) for idx in members]
        for tag, train_set, val_set in datasets:
            for idx, outcome in zip(members, train_stack(train_set, val_set, arch, cfgs)):
                if isinstance(outcome, TrainingDivergedError):
                    rows.append(GridRow(idx, points[idx], tag, math.nan, outcome.epoch))
                else:
                    rows.append(GridRow(idx, points[idx], tag, outcome[0].val_mae,
                                        outcome[0].epochs_run))
    rows.sort(key=lambda row: (row.config_index, row.dataset))

    ranking = []
    for idx in range(len(points)):
        vals = [row.val_mae for row in rows if row.config_index == idx]
        finite = [v for v in vals if math.isfinite(v)]
        mean = sum(finite) / len(finite) if finite else math.inf
        ranking.append((idx, mean, len(finite) < len(vals)))
    ranking.sort(key=lambda item: (item[1], item[0]))
    return GridSearchResult(rows, ranking, points)


def predict_depth_batch(model: NetworkModel, triples):
    """Vectorized prediction on raw triples; invalid pixels become NaN.

    Validity is the dataset prefilter's screen (``pipeline.screen_triples``);
    a non-finite prediction for a valid triple raises ``ValueError``.
    """
    values = np.asarray(triples, dtype=float).reshape(-1, 3)
    out = np.full(values.shape[0], np.nan)
    valid = screen_triples(values)[2]
    out[valid] = _valid_ranges(model, values[valid])
    return out


def _valid_ranges(model: NetworkModel, triples):
    """Model ranges of an (n, 3) array of raw valid triples, standardized and
    forwarded ``model.arch.chunk_rows`` rows at a time."""
    out = np.empty(len(triples))
    step = model.arch.chunk_rows
    for i in range(0, len(triples), step):
        out[i:i + step] = forward(model, standardize_batch(triples[i:i + step]))
    return out


@dataclass(frozen=True)
class ProbeTable:
    """Mean max-normalized intensities binned by the predicted range."""

    bin_centers: np.ndarray
    mean_normalized: np.ndarray  # (bins, 3)
    counts: np.ndarray
    total_triples: int

    def write_csv(self, path):
        write_table(path, ("r_hat", "norm_s1", "norm_s2", "norm_s3", "count"),
                    (self.bin_centers, *self.mean_normalized.T, self.counts))


def valid_probe_triples(s1, s2, s3, max_gray=230, contrast_floor=CONTRAST_FLOOR):
    """Probe validity: all below ``max_gray``, spread above ``contrast_floor``,
    and the middle slice not the strict minimum."""
    s1, s2, s3 = np.asarray(s1), np.asarray(s2), np.asarray(s3)
    mx = np.maximum(s1, np.maximum(s2, s3))
    mn = np.minimum(s1, np.minimum(s2, s3))
    return (mx < max_gray) & (mx - mn > contrast_floor) & ~((s2 < s1) & (s2 < s3))


def probe_learned_function(model: NetworkModel, max_gray=230, contrast_floor=CONTRAST_FLOOR,
                           bin_width_m=1.0) -> ProbeTable:
    """Evaluate the model on every valid integer triple and bin the results.

    Reconstructs the effective response curves the network has learned: for
    each predicted-range bin, the mean of each slice's intensity divided by
    the triple's maximum. Validity, z-scores and so the bin depend only on the
    difference pair ``(s1 - s3, s2 - s3)``, so the network runs once per valid
    pair, on its representative ``rep`` (minimum 0, maximum ``top``). The
    pair's triples are ``rep + t`` for ``t = 0 .. max_gray - 1 - top``: it adds
    ``max_gray - top`` to its bin's count and ``tail[rep_j, top]`` to column
    ``j``'s sum, where ``tail[a, m] = sum_t (a + t) / (m + t)``.
    """
    d = np.arange(1 - max_gray, max_gray)  # every difference of two grays
    d1, d2 = (g.reshape(-1) for g in np.meshgrid(d, d, indexing="ij"))
    low = np.minimum(np.minimum(d1, d2), 0)
    reps = np.column_stack([d1 - low, d2 - low, -low])  # each pair's triple with minimum 0
    reps = reps[valid_probe_triples(*reps.T, max_gray, contrast_floor)]
    bins, dense = np.unique(bin_index(_valid_ranges(model, reps), bin_width_m), return_inverse=True)
    top = reps.max(axis=1)

    tail = np.zeros((max_gray + 1, max_gray + 1))  # tail[:, max_gray] = 0: no shift fits
    for m in range(max_gray - 1, 0, -1):  # top >= 1: a valid pair spreads
        tail[:-1, m] = np.arange(max_gray) / m + tail[1:, m + 1]
    counts = np.bincount(dense, weights=max_gray - top, minlength=bins.size).astype(np.int64)
    sums = np.column_stack([np.bincount(dense, weights=tail[reps[:, j], top], minlength=bins.size)
                            for j in range(3)])
    return ProbeTable((bins + 0.5) * bin_width_m, sums / counts[:, None], counts,
                      int(counts.sum()))


def save_model(model: NetworkModel, path):
    """Write the documented line-oriented text model format (version 1)."""
    lines = [
        f"{MODEL_FORMAT} {MODEL_VERSION}",
        f"activation {model.arch.activation}",
        "hidden" + ("".join(f" {w}" for w in model.arch.hidden) or " -"),
        f"seed {model.seed}",
        f"epochs {model.epochs_run}",
        f"val_mae {float(model.val_mae)!r}",
    ]
    for w, b in zip(model.weights, model.biases):
        lines.append(f"layer {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append("bias " + " ".join(repr(float(v)) for v in b))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> NetworkModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read model file {path}: {exc}") from exc
    try:
        magic, version = lines[0].split()
        if magic != MODEL_FORMAT or int(version) != MODEL_VERSION:
            raise DataFormatError(f"{path}: unsupported model format {lines[0]!r}")
        fields = {}
        pos = 1
        for key in ("activation", "hidden", "seed", "epochs", "val_mae"):
            name, _, value = lines[pos].partition(" ")
            if name != key:
                raise DataFormatError(f"{path}: expected {key!r} on line {pos + 1}")
            if key == "epochs" and int(value) < 0:
                raise DataFormatError(f"{path}: negative epochs {value} on line {pos + 1}")
            fields[key] = value
            pos += 1
        hidden = () if fields["hidden"].strip() == "-" else tuple(int(v) for v in fields["hidden"].split())
        arch = NetworkArch(hidden, fields["activation"])
        weights, biases = [], []
        while pos < len(lines) and lines[pos].strip():
            tag, n_in, n_out = lines[pos].split()
            if tag != "layer":
                raise DataFormatError(f"{path}: expected layer header on line {pos + 1}")
            n_in, n_out = int(n_in), int(n_out)
            pos += 1
            rows = [np.array([float(v) for v in lines[pos + i].split()]) for i in range(n_in)]
            pos += n_in
            if not lines[pos].startswith("bias "):
                raise DataFormatError(f"{path}: expected bias row on line {pos + 1}")
            bias = np.array([float(v) for v in lines[pos].split()[1:]])
            pos += 1
            weights.append(np.vstack(rows).reshape(n_in, n_out))
            biases.append(bias)
        for extra in range(pos, len(lines)):
            if lines[extra].strip():
                raise DataFormatError(f"{path}: unexpected line {extra + 1} after the last layer")
        model = NetworkModel(arch, weights, biases, seed=int(fields["seed"]),
                             epochs_run=int(fields["epochs"]), val_mae=float(fields["val_mae"]))
    except DataFormatError:
        raise
    except IndexError:
        raise DataFormatError(f"{path}: model file ends early, after line {len(lines)}") from None
    except ValueError as exc:
        raise DataFormatError(f"{path}: malformed model file ({exc})") from exc
    return model
