"""Offline inverse modules: exact model inversion and a learned MLP surrogate.

Both map (x(k), y_d(k+r)) to the input u(k) that would reproduce the desired
output r steps ahead on the system they were derived from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .systems import EPS_GAIN, finite_number, whole_number

logger = logging.getLogger(__name__)

SERIAL_FORMAT = "xfertrack-mlp-v1"
# train_mlp's recipe: hidden layer sizes, Adam minibatch and step sizes, the
# share of samples held out for validation, and the plateau that stops it
HIDDEN = (20, 20)
BATCH_SIZE = 64
LEARNING_RATE = 1e-3
VAL_FRACTION = 0.1
PATIENCE = 50
# relative improvement of the best validation MSE below which an epoch
# counts toward the early-stopping plateau
MIN_REL_IMPROVEMENT = 1e-3


class SingularInverse(ValueError):
    """The r-step input gain G(x) is too small to invert."""


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class InverseDataset:
    """Paired samples: inputs are [x(k), y(k+r)], labels are u(k)."""

    inputs: np.ndarray  # (N, n+1)
    labels: np.ndarray  # (N,)

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels misaligned")

    def __len__(self):
        return self.labels.shape[0]


def build_inverse_dataset(traces, r: int, subsample: int = 1) -> InverseDataset:
    """Assemble inverse-training pairs from simulation traces.

    Each trace with T inputs contributes pairs for k = 0..T-r: the state
    x(k) and the measured output y(k+r) become the regressors, the applied
    input u(k) the label. Traces too short for one pair are skipped with a
    warning. An optional stride subsamples each trace's pairs.
    """
    if r < 1:
        raise ValueError("relative degree must be >= 1")
    xs, ys, us = [], [], []
    skipped = 0
    for trace in traces:
        T = trace.inputs.shape[0]
        m = T - r + 1
        if m <= 0:
            skipped += 1
            continue
        idx = np.arange(0, m, subsample)
        xs.append(trace.states[idx])
        ys.append(trace.outputs[idx + r])
        us.append(trace.inputs[idx])
    if skipped:
        logger.warning("build_inverse_dataset: skipped %d traces shorter than r+1", skipped)
    if not xs:
        raise ValueError("no trace long enough to contribute a sample")
    inputs = np.hstack([np.vstack(xs), np.concatenate(ys)[:, None]])
    return InverseDataset(inputs=inputs, labels=np.concatenate(us))


class AnalyticInverse:
    """Exact inverse u(k) = (y_d(k+r) - F(x)) / G(x) of a known system."""

    def __init__(self, system):
        self.system = system

    def reference(self, x, y_d_future: float) -> float:
        F, G = self.system.io_terms(x)
        if abs(G) < EPS_GAIN:
            raise SingularInverse(f"input gain {G} below {EPS_GAIN}")
        return (float(y_d_future) - F) / G


class MlpInverseModel:
    """Fully connected tanh network trained as an inverse module.

    Layers are (n+1) -> hidden... -> 1 with tanh activations on hidden
    layers and a linear output. Features and labels are z-scored with
    constants frozen from the training set. All weights and biases live in
    one float64 vector, `params`; `weights` and `biases` are views into it.
    """

    def __init__(self, layer_sizes, in_mean, in_std, out_mean, out_std):
        self.layer_sizes = [int(s) for s in layer_sizes]
        fans = zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in fans))
        self.weights, self.biases = self.views(self.params)
        self.in_mean = np.asarray(in_mean, dtype=float)
        self.in_std = np.asarray(in_std, dtype=float)
        self.out_mean = float(out_mean)
        self.out_std = float(out_std)
        self.validation_rmse = None  # normalized units; set by train_mlp
        self.epochs_run = None

    def views(self, flat: np.ndarray) -> tuple:
        """Per-layer (weights, biases) views of a vector laid out like params.

        The one statement of the layout: W0, b0, W1, b1, ..., each W_i of
        shape (fan_in, fan_out) in row-major order. Writing through a view
        writes the vector.
        """
        if flat.shape != self.params.shape:
            raise ValueError(f"expected {self.params.size} parameters, got shape {flat.shape}")
        weights, biases, at = [], [], 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[at:at + n_in * n_out].reshape(n_in, n_out))
            at += n_in * n_out
            biases.append(flat[at:at + n_out])
            at += n_out
        return weights, biases

    # -- inference ---------------------------------------------------------

    def normalize(self, X):
        return (X - self.in_mean) / self.in_std

    def _activations(self, Xn: np.ndarray) -> list:
        """Every layer's output, from the input Xn to the linear output."""
        acts = [Xn]
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ W + b
            acts.append(z if i == last else np.tanh(z))
        return acts

    def forward(self, Xn: np.ndarray) -> np.ndarray:
        """Network output for already-normalized features (N, d) -> (N,)."""
        return self._activations(Xn)[-1][:, 0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = self.forward(self.normalize(np.atleast_2d(np.asarray(X, dtype=float))))
        return out * self.out_std + self.out_mean

    def reference(self, x, y_d_future: float) -> float:
        feat = np.concatenate([np.asarray(x, dtype=float), [float(y_d_future)]])
        return float(self.predict(feat[None, :])[0])

    # -- training ----------------------------------------------------------

    def loss_and_grads(self, Xn, yn):
        """Mean-squared-error loss and its gradient on normalized data.

        Returns (loss, grad), grad laid out like params (views(grad) splits
        it per layer). Kept explicit so the backward pass can be checked
        against finite differences.
        """
        acts = self._activations(Xn)
        err = acts[-1][:, 0] - yn
        N = yn.shape[0]
        loss = float(np.mean(err ** 2))
        delta = (2.0 / N) * err[:, None]
        grad = np.empty_like(self.params)
        dWs, dbs = self.views(grad)
        for i in range(len(dWs) - 1, -1, -1):
            dWs[i][...] = acts[i].T @ delta
            dbs[i][...] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - acts[i] ** 2)
        return loss, grad

    # -- serialization -----------------------------------------------------

    def save(self, path):
        payload = {
            "format": np.array(SERIAL_FORMAT),
            "layer_sizes": np.asarray(self.layer_sizes, dtype=np.int64),
            "activation": np.array("tanh"),
            "in_mean": self.in_mean, "in_std": self.in_std,
            "out_mean": np.float64(self.out_mean), "out_std": np.float64(self.out_std),
        }
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            payload[f"W{i}"] = W
            payload[f"b{i}"] = b
        np.savez(path, **payload)

    @classmethod
    def load(cls, path) -> "MlpInverseModel":
        with np.load(path, allow_pickle=False) as data:
            fmt = str(data["format"])
            if fmt != SERIAL_FORMAT:
                raise ValueError(f"unsupported model format {fmt!r}")
            model = cls(data["layer_sizes"].tolist(), data["in_mean"], data["in_std"],
                        float(data["out_mean"]), float(data["out_std"]))
            for i, (W, b) in enumerate(zip(model.weights, model.biases)):
                for key, view in ((f"W{i}", W), (f"b{i}", b)):
                    if key not in data:
                        raise ValueError(f"{key} is missing; layer_sizes "
                                         f"{model.layer_sizes} imply it")
                    stored = data[key]
                    if stored.shape != view.shape:
                        raise ValueError(f"{key} has shape {stored.shape}, "
                                         f"layer_sizes {model.layer_sizes} imply {view.shape}")
                    view[...] = stored
            return model


@dataclass
class TrainingConfig:
    """The `mlp` section: train_mlp's epoch budget and the excitation data
    build_training_dataset records. The rest of the recipe is the module
    constants HIDDEN, BATCH_SIZE, LEARNING_RATE, VAL_FRACTION and PATIENCE."""

    epochs: int = 2000
    train_duration_s: float = 40.0  # length of each excitation run
    subsample: int = 10             # stride over each run's training pairs

    def __post_init__(self):
        # counts are stored as ints: training uses them as range bounds and
        # slice steps, where 2.0 fails as surely as 2.5
        for name in ("epochs", "subsample"):
            value = getattr(self, name)
            if not whole_number(value):
                raise ValueError(f"mlp.{name} must be a whole number >= 1, got {value!r}")
            setattr(self, name, int(value))
        if not (finite_number(self.train_duration_s) and self.train_duration_s > 0):
            raise ValueError("mlp.train_duration_s must be positive and finite, "
                             f"got {self.train_duration_s!r}")


def init_mlp(model: MlpInverseModel, rng) -> np.ndarray:
    """Scaled-uniform fan-in init of model.params, returned: layer by layer,
    W_ij ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)) and zero biases."""
    for W in model.weights:
        s = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-s, s, size=W.shape)
    return model.params


def train_mlp(dataset: InverseDataset, config: TrainingConfig | None = None,
              seed: int = 0) -> MlpInverseModel:
    """Train an MLP inverse on a dataset. Deterministic for a fixed seed.

    Adam updates over shuffled minibatches; early stop once the validation
    MSE plateaus; the best-validation weights are restored at the end.
    """
    cfg = config or TrainingConfig()
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)

    perm = rng.permutation(len(dataset))
    n_val = max(1, int(round(VAL_FRACTION * len(dataset))))
    if len(dataset) < 2:
        raise ValueError("need at least two samples to hold out validation data")
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    X_tr, y_tr = dataset.inputs[train_idx], dataset.labels[train_idx]
    X_va, y_va = dataset.inputs[val_idx], dataset.labels[val_idx]

    in_mean = X_tr.mean(axis=0)
    in_std = X_tr.std(axis=0)
    in_std[in_std < 1e-12] = 1.0
    out_mean = float(y_tr.mean())
    out_std = float(y_tr.std())
    if out_std < 1e-12:
        out_std = 1.0

    sizes = [dataset.inputs.shape[1], *HIDDEN, 1]
    model = MlpInverseModel(sizes, in_mean, in_std, out_mean, out_std)
    init_mlp(model, rng)

    Xn_tr = model.normalize(X_tr)
    yn_tr = (y_tr - out_mean) / out_std
    Xn_va = model.normalize(X_va)
    yn_va = (y_va - out_mean) / out_std

    # Adam state
    m = np.zeros_like(model.params)
    v = np.zeros_like(model.params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0

    best_val = np.inf
    best_params = None
    wait = 0
    n_train = len(train_idx)
    epochs_run = 0

    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        order = rng.permutation(n_train)
        X_ep, y_ep = Xn_tr[order], yn_tr[order]
        for start in range(0, n_train, BATCH_SIZE):
            stop = start + BATCH_SIZE
            loss, grad = model.loss_and_grads(X_ep[start:stop], y_ep[start:stop])
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            t += 1
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            model.params -= LEARNING_RATE * mhat / (np.sqrt(vhat) + eps)
        val_mse = float(np.mean((model.forward(Xn_va) - yn_va) ** 2))
        if not np.isfinite(val_mse):
            raise TrainingDiverged(epoch)
        if val_mse < best_val * (1.0 - MIN_REL_IMPROVEMENT) or best_params is None:
            wait = 0
        else:
            wait += 1
        if val_mse < best_val:
            best_val = val_mse
            best_params = model.params.copy()
        if wait >= PATIENCE:
            break

    model.params[...] = best_params  # in place, so weights and biases stay views
    model.validation_rmse = float(np.sqrt(best_val))
    model.epochs_run = epochs_run
    return model
