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

SERIAL_FORMAT = "xfertrack-mlp-v2"
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
# validation RMS, in label-std units, at which training stops: float64
# rounding of the z-scored labels and of the affine map's dot product is a
# few eps, so the least-squares fit of an exactly affine inverse leaves only
# rounding noise (4.4e-16 to 9.3e-16 on the bundled pair, seeds 1, 2, 3 and
# 13), which no network can learn; 1e3 eps (2.2e-13) sits well above that
# noise and far below a residual a network has to learn (3.5e-2 on the mass
# with quadratic drag in tests/test_inverse.py)
ROUNDING_FLOOR = 1e3 * np.finfo(float).eps


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
    """Affine map plus a fully connected tanh network, as an inverse module.

    In z-scored units the output is Xn @ affine_w + affine_c + net(Xn): the
    affine part is a least-squares fit, and the network, (n+1) -> hidden...
    -> 1 with tanh activations on hidden layers and a linear output, learns
    the residual. Features and labels are z-scored with constants frozen
    from the training set. All network weights and biases live in one
    float64 vector, `params`; `weights` and `biases` are views into it.
    """

    def __init__(self, layer_sizes, in_mean, in_std, out_mean, out_std,
                 affine_w, affine_c):
        self.layer_sizes = [int(s) for s in layer_sizes]
        fans = zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in fans))
        self.weights, self.biases = self.views(self.params)
        self.in_mean = np.asarray(in_mean, dtype=float)
        self.in_std = np.asarray(in_std, dtype=float)
        self.out_mean = float(out_mean)
        self.out_std = float(out_std)
        self.affine_w = np.asarray(affine_w, dtype=float)
        self.affine_c = float(affine_c)
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
        """Every network layer's output, from the input Xn to the linear
        output. Xn is one feature row (d,) or a batch (N, d)."""
        acts = [Xn]
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ W + b
            acts.append(z if i == last else np.tanh(z))
        return acts

    def forward(self, Xn: np.ndarray):
        """Normalized output, affine part plus network, for normalized
        features: a row (d,) gives a scalar, a batch (N, d) gives (N,)."""
        return self._activations(Xn)[-1][..., 0] + (Xn @ self.affine_w + self.affine_c)

    def reference(self, x, y_d_future: float) -> float:
        feat = np.concatenate([np.asarray(x, dtype=float), [float(y_d_future)]])
        return float(self.forward(self.normalize(feat)) * self.out_std + self.out_mean)

    # -- training ----------------------------------------------------------

    def loss_and_grads(self, Xn, yn):
        """The network's own mean-squared-error loss against normalized
        targets yn (in training, the affine fit's residuals), and its
        gradient.

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
            "affine_w": self.affine_w, "affine_c": np.float64(self.affine_c),
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
            sizes = data["layer_sizes"].tolist()
            model = cls(sizes, data["in_mean"], data["in_std"],
                        float(data["out_mean"]), float(data["out_std"]),
                        np.zeros(sizes[0]), float(data["affine_c"]))
            arrays = [("affine_w", model.affine_w)]
            for i, (W, b) in enumerate(zip(model.weights, model.biases)):
                arrays += [(f"W{i}", W), (f"b{i}", b)]
            for key, view in arrays:
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
    """Scaled-uniform fan-in init of model.params, returned: hidden layer by
    hidden layer, W_ij ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)); the output
    layer and every bias stay zero, so the network starts at zero and the
    model at its affine part."""
    for W in model.weights[:-1]:
        s = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-s, s, size=W.shape)
    return model.params


def train_mlp(dataset: InverseDataset, config: TrainingConfig | None = None,
              seed: int = 0) -> MlpInverseModel:
    """Train an MLP inverse on a dataset. Deterministic for a fixed seed.

    In z-scored units, the affine part is the least-squares fit of the
    labels on the training split, and the network learns its residual:
    Adam updates over shuffled minibatches, from the zero network. Early
    stop once the validation MSE plateaus or the validation RMS reaches
    ROUNDING_FLOOR; the best-validation weights, the zero start among them,
    are restored at the end.
    """
    cfg = config or TrainingConfig()
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if len(dataset) < 2:
        raise ValueError("need at least two samples to hold out validation data")
    if not (np.isfinite(dataset.inputs).all() and np.isfinite(dataset.labels).all()):
        raise TrainingDiverged(0)
    rng = np.random.default_rng(seed)

    perm = rng.permutation(len(dataset))
    n_val = max(1, int(round(VAL_FRACTION * len(dataset))))
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

    Xn_tr = (X_tr - in_mean) / in_std
    yn_tr = (y_tr - out_mean) / out_std
    coef, *_ = np.linalg.lstsq(np.column_stack([Xn_tr, np.ones(len(yn_tr))]), yn_tr,
                               rcond=None)
    sizes = [dataset.inputs.shape[1], *HIDDEN, 1]
    model = MlpInverseModel(sizes, in_mean, in_std, out_mean, out_std, coef[:-1], coef[-1])
    init_mlp(model, rng)

    # the network's labels: the affine fit's residual, in label-std units
    rn_tr = yn_tr - (Xn_tr @ model.affine_w + model.affine_c)
    Xn_va = (X_va - in_mean) / in_std
    yn_va = (y_va - out_mean) / out_std

    # Adam state
    m = np.zeros_like(model.params)
    v = np.zeros_like(model.params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0

    best_val = float(np.mean((model.forward(Xn_va) - yn_va) ** 2))
    best_params = model.params.copy()
    wait = 0
    n_train = len(train_idx)
    epochs_run = 0

    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        order = rng.permutation(n_train)
        X_ep, r_ep = Xn_tr[order], rn_tr[order]
        for start in range(0, n_train, BATCH_SIZE):
            stop = start + BATCH_SIZE
            loss, grad = model.loss_and_grads(X_ep[start:stop], r_ep[start:stop])
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
        wait = 0 if val_mse < best_val * (1.0 - MIN_REL_IMPROVEMENT) else wait + 1
        if val_mse < best_val:
            best_val = val_mse
            best_params = model.params.copy()
        if wait >= PATIENCE or best_val <= ROUNDING_FLOOR ** 2:
            break

    model.params[...] = best_params  # in place, so weights and biases stay views
    model.validation_rmse = float(np.sqrt(best_val))
    model.epochs_run = epochs_run
    return model
