"""From-scratch fully connected regression network.

Maps a standardized intensity triple to a range in metres through a chain of
affine layers with elementwise nonlinearities and a linear output. Training
is plain minibatch SGD on the mean absolute error with early stopping on
validation MAE; ``backward`` and ``train`` share one backprop loop, and
everything is deterministic under a fixed seed. Prediction uses the dataset
prefilter's validity screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataFormatError, TrainingDivergedError
from .pipeline import CONTRAST_FLOOR, screen_triples, standardize_batch
from .seeding import derive_seed

INPUT_WIDTH = 3
INIT_SCALE = 0.05  # weights start uniform on [-0.05, 0.05], biases at zero

MODEL_FORMAT = "gated-depth-net"
MODEL_VERSION = 1


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z, _a):
    return (z > 0.0).astype(float)  # derivative at the kink is taken as 0


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
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def notation(self):
        return "-".join(str(w) for w in self.hidden) if self.hidden else "linear"


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

    def copy_params(self):
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]


def init_params(arch: NetworkArch, seed: int) -> NetworkModel:
    """Fresh model: weights uniform on +-0.05, biases exactly zero."""
    rng = np.random.default_rng(seed)
    dims = (INPUT_WIDTH, *arch.hidden, 1)
    weights = [rng.uniform(-INIT_SCALE, INIT_SCALE, (dims[i], dims[i + 1])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return NetworkModel(arch, weights, biases, seed=seed)


def _forward(model: NetworkModel, x, cache=None):
    """Network output for an (n, 3) batch; a given ``cache`` list receives
    each layer's (input, pre-activation, output) for backprop."""
    act, _ = ACTIVATIONS[model.arch.activation]
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a_next = act(z) if i < last else z  # linear output layer
        if cache is not None:
            cache.append((a, z, a_next))
        a = a_next
    return a[:, 0]


def forward(model: NetworkModel, x):
    """Predicted range for a standardized triple or an (n, 3) batch."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = arr.reshape(-1, INPUT_WIDTH)
    if not np.all(np.isfinite(arr)):
        raise ValueError("network input must be finite")
    pred = _forward(model, arr)
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
    cache = []
    pred = _forward(model, x, cache)
    if not np.all(np.isfinite(pred)):
        raise TrainingDivergedError("non-finite activations in forward pass")
    return _backprop(model.weights, cache, pred, y, ACTIVATIONS[model.arch.activation][1])


def _backprop(weights, cache, pred, y, act_grad):
    """Per-layer (weight, bias) gradients of the batch MAE from a cached forward pass."""
    delta = (np.sign(pred - y) / y.size)[:, None]
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        a_in = cache[i][0]
        grads_w[i] = a_in.T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * act_grad(*cache[i - 1][1:])
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
    training stops once ``patience`` epochs pass without improvement.
    """
    x_train = np.asarray(train_data[0], dtype=float).reshape(-1, INPUT_WIDTH)
    y_train = np.asarray(train_data[1], dtype=float).reshape(-1)
    x_val = np.asarray(val_data[0], dtype=float).reshape(-1, INPUT_WIDTH)
    y_val = np.asarray(val_data[1], dtype=float).reshape(-1)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("training and validation sets must be non-empty")

    model = init_params(arch, cfg.seed)
    _, act_grad = ACTIVATIONS[arch.activation]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))

    best_w, best_b = model.copy_params()
    best_val = math.inf
    stale = 0
    history = []

    # A diverging run overflows before the isfinite checks below catch it;
    # numpy's warnings would only repeat what TrainingDivergedError reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            order = shuffle_rng.permutation(x_train.shape[0])
            batch_losses = []
            for start in range(0, order.size, cfg.batch_size):
                sel = order[start : start + cfg.batch_size]
                xb, yb = x_train[sel], y_train[sel]
                cache = []
                pred = _forward(model, xb, cache)
                if not np.all(np.isfinite(pred)):
                    raise TrainingDivergedError(f"non-finite forward pass at epoch {epoch}", epoch=epoch)
                batch_losses.append(float(np.mean(np.abs(pred - yb))))
                grads_w, grads_b = _backprop(model.weights, cache, pred, yb, act_grad)
                for w, b, gw, gb in zip(model.weights, model.biases, grads_w, grads_b):
                    w -= cfg.learning_rate * gw
                    b -= cfg.learning_rate * gb

            train_mae = float(np.mean(batch_losses))
            val_pred = _forward(model, x_val)
            if not np.all(np.isfinite(val_pred)):
                raise TrainingDivergedError(f"non-finite validation pass at epoch {epoch}", epoch=epoch)
            val_mae = float(np.mean(np.abs(val_pred - y_val)))
            if not math.isfinite(train_mae) or not math.isfinite(val_mae):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", epoch=epoch)
            history.append(EpochStats(epoch, train_mae, val_mae))

            if val_mae < best_val:
                best_val = val_mae
                best_w, best_b = model.copy_params()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

    result = NetworkModel(arch, best_w, best_b, seed=cfg.seed,
                          epochs_run=len(history), val_mae=best_val)
    return result, history


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid: the cartesian product of the four axes."""

    learning_rates: tuple
    batch_sizes: tuple
    hidden_layouts: tuple
    activations: tuple

    def __post_init__(self):
        if not (self.learning_rates and self.batch_sizes and self.hidden_layouts and self.activations):
            raise ValueError("every grid axis needs at least one value")

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

    def enumerate(self):
        points = []
        for lr in self.learning_rates:
            for batch in self.batch_sizes:
                for hidden in self.hidden_layouts:
                    for activation in self.activations:
                        points.append(GridPoint(lr, batch, tuple(hidden), activation))
        return points

    def __len__(self):
        return (
            len(self.learning_rates) * len(self.batch_sizes)
            * len(self.hidden_layouts) * len(self.activations)
        )


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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("lr,batch,arch,activation,dataset,val_mae,epochs\n")
            for row in self.rows:
                p = row.point
                arch = "-".join(str(w) for w in p.hidden)
                mae = repr(row.val_mae) if math.isfinite(row.val_mae) else "nan"
                fh.write(f"{p.learning_rate!r},{p.batch_size},{arch},{p.activation},"
                         f"{row.dataset},{mae},{row.epochs}\n")


def grid_search(datasets, grid: GridSpec, max_epochs=100, patience=10, seed=0, threads=1):
    """Train every grid point on every dataset and rank by mean val MAE.

    ``datasets`` is a sequence of ``(tag, (x_train, y_train), (x_val, y_val))``
    entries. Rankings use the mean validation MAE across datasets so a single
    configuration is chosen for all of them; diverged runs are recorded as
    NaN and excluded from the mean but flagged in the ranking. Per-run seeds
    derive from (seed, config index), so results do not depend on execution
    order and the optional thread pool changes nothing but wall time.
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("need at least one dataset")
    points = grid.enumerate()

    def run_one(task):
        idx, point, tag, train_set, val_set = task
        cfg = TrainConfig(point.learning_rate, point.batch_size, max_epochs, patience,
                          seed=derive_seed(seed, "grid", idx))
        arch = NetworkArch(point.hidden, point.activation)
        try:
            model, history = train(train_set, val_set, arch, cfg)
            return GridRow(idx, point, tag, model.val_mae, model.epochs_run)
        except TrainingDivergedError as exc:
            epoch = exc.epoch if exc.epoch is not None else -1
            return GridRow(idx, point, tag, math.nan, epoch)

    tasks = [
        (idx, point, tag, train_set, val_set)
        for idx, point in enumerate(points)
        for tag, train_set, val_set in datasets
    ]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_one, tasks))
    else:
        rows = [run_one(t) for t in tasks]
    rows.sort(key=lambda row: (row.config_index, row.dataset))

    ranking = []
    for idx in range(len(points)):
        vals = [row.val_mae for row in rows if row.config_index == idx]
        finite = [v for v in vals if math.isfinite(v)]
        mean = sum(finite) / len(finite) if finite else math.inf
        ranking.append((idx, mean, len(finite) < len(vals)))
    ranking.sort(key=lambda item: (item[1], item[0]))
    return GridSearchResult(rows, ranking, points)


def predict_depth(model: NetworkModel, triple):
    """Range for one raw triple; NaN when saturated or low-contrast."""
    return float(predict_depth_batch(model, np.asarray(triple, dtype=float).reshape(1, 3))[0])


def predict_depth_batch(model: NetworkModel, triples):
    """Vectorized prediction on raw triples; invalid pixels become NaN.

    Validity is the dataset prefilter's screen (``pipeline.screen_triples``).
    """
    values = np.asarray(triples, dtype=float).reshape(-1, 3)
    out = np.full(values.shape[0], np.nan)
    valid = screen_triples(values)[2]
    if np.any(valid):
        out[valid] = forward(model, standardize_batch(values[valid]))
    return out


@dataclass(frozen=True)
class ProbeTable:
    """Mean max-normalized intensities binned by the predicted range."""

    bin_width_m: float
    bin_centers: np.ndarray
    mean_normalized: np.ndarray  # (bins, 3)
    counts: np.ndarray
    total_triples: int

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("r_hat,norm_s1,norm_s2,norm_s3,count\n")
            for c, row, n in zip(self.bin_centers, self.mean_normalized, self.counts):
                fh.write(f"{float(c)!r},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r},{int(n)}\n")


def valid_probe_triples(s1, s2, s3, max_gray=230, contrast_floor=CONTRAST_FLOOR):
    """Probe validity: all below ``max_gray``, spread above ``contrast_floor``,
    and the middle slice not the strict minimum."""
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    s3 = np.asarray(s3)
    mx = np.maximum(s1, np.maximum(s2, s3))
    mn = np.minimum(s1, np.minimum(s2, s3))
    return (mx < max_gray) & (mx - mn > contrast_floor) & ~((s2 < s1) & (s2 < s3))


def probe_learned_function(model: NetworkModel, max_gray=230, contrast_floor=CONTRAST_FLOOR,
                           bin_width_m=1.0) -> ProbeTable:
    """Evaluate the model on every valid integer triple and bin the results.

    Reconstructs the effective response curves the network has learned: for
    each predicted-range bin, the mean of each slice's intensity divided by
    the triple's maximum.
    """
    grid = np.arange(max_gray)
    s2g, s3g = np.meshgrid(grid, grid, indexing="ij")
    s2f = s2g.reshape(-1).astype(float)
    s3f = s3g.reshape(-1).astype(float)

    sums: dict = {}
    total = 0
    for s1 in range(max_gray):
        mask = valid_probe_triples(s1, s2f, s3f, max_gray, contrast_floor)
        if not np.any(mask):
            continue
        a = s2f[mask]
        b = s3f[mask]
        triples = np.column_stack([np.full(a.size, float(s1)), a, b])
        total += a.size
        preds = forward(model, standardize_batch(triples))
        normalized = triples / triples.max(axis=1, keepdims=True)
        idx = np.floor(preds / bin_width_m).astype(np.int64)
        uniq, inverse = np.unique(idx, return_inverse=True)
        counts = np.bincount(inverse)
        col_sums = np.column_stack([np.bincount(inverse, weights=normalized[:, j]) for j in range(3)])
        for key, n, row in zip(uniq.tolist(), counts.tolist(), col_sums):
            entry = sums.setdefault(key, [0, np.zeros(3)])
            entry[0] += n
            entry[1] += row

    keys = sorted(sums)
    centers = np.array([(k + 0.5) * bin_width_m for k in keys])
    counts = np.array([sums[k][0] for k in keys], dtype=np.int64)
    means = np.vstack([sums[k][1] / sums[k][0] for k in keys]) if keys else np.zeros((0, 3))
    return ProbeTable(bin_width_m, centers, means, counts, total)


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
            fields[key] = value
            pos += 1
        hidden = () if fields["hidden"].strip() == "-" else tuple(int(v) for v in fields["hidden"].split())
        arch = NetworkArch(hidden, fields["activation"])
        weights, biases = [], []
        while pos < len(lines) and lines[pos]:
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
        model = NetworkModel(arch, weights, biases, seed=int(fields["seed"]),
                             epochs_run=int(fields["epochs"]), val_mae=float(fields["val_mae"]))
    except DataFormatError:
        raise
    except (IndexError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed model file ({exc})") from exc
    return model
