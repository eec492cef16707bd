"""Training: BPTT under MSE loss, gradient verification, and evaluation.

backward() differentiates one retained ForwardTrace exactly, step by step in
reverse, following the same gate structure the forward pass used (including
the h_tilde = h_prev * r path into the candidate). fit() runs the batched
equivalent for speed; tests pin the two paths against each other and against
central finite differences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import gru
from .errors import (
    DivergedLossError,
    EmptySplitError,
    NonFiniteInputError,
    ShapeMismatchError,
    TraceMismatchError,
)
from .gru import PARAM_FIELDS, ForwardTrace, GruParams
from .ingest import SECTOR_LABELS, WindowedDataset


@dataclass
class Normalizer:
    """Per-sector affine scaling fitted on the training split only."""

    offset: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.offset = np.asarray(self.offset, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.offset.shape != self.scale.shape:
            raise ShapeMismatchError("offset and scale must have the same shape")
        if not (np.all(np.isfinite(self.offset)) and np.all(np.isfinite(self.scale))):
            raise NonFiniteInputError(
                f"offset and scale must be finite, got {self.offset} and {self.scale}")
        if np.any(self.scale <= 0):
            raise ValueError("scale entries must be strictly positive")

    @classmethod
    def identity(cls, dim: int) -> "Normalizer":
        return cls(offset=np.zeros(dim), scale=np.ones(dim))

    @classmethod
    def fit_minmax(cls, values: np.ndarray) -> "Normalizer":
        """Min-max to [0, 1] per column; constant columns get scale 1."""
        values = np.asarray(values, dtype=np.float64).reshape(-1, np.shape(values)[-1])
        lo = values.min(axis=0)
        span = values.max(axis=0) - lo
        return cls(offset=lo, scale=np.where(span > 0, span, 1.0))

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.offset) / self.scale

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.scale + self.offset


@dataclass
class TrainConfig:
    epochs: int = 5
    steps_per_epoch: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    gradient_clip_norm: float | None = 5.0
    seed: int = 0

    def validate(self) -> None:
        for name in ("epochs", "steps_per_epoch", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.gradient_clip_norm is not None and self.gradient_clip_norm <= 0:
            raise ValueError("gradient_clip_norm must be positive or None")


@dataclass
class Gradients:
    """One array per GruParams field, same shapes."""

    W_r: np.ndarray
    R_r: np.ndarray
    b_r: np.ndarray
    W_z: np.ndarray
    R_z: np.ndarray
    b_z: np.ndarray
    W_u: np.ndarray
    R_u: np.ndarray
    b_u: np.ndarray
    W_out: np.ndarray
    b_out: np.ndarray

    @classmethod
    def zeros_like(cls, p: GruParams) -> "Gradients":
        return cls(**{name: np.zeros_like(arr) for name, arr in p.arrays().items()})

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(a * a)) for a in self.arrays().values())))

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.arrays().values())


def mse(y_hat: np.ndarray, y: np.ndarray) -> float:
    """Mean over all elements of the squared differences."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ShapeMismatchError(f"shapes {y_hat.shape} and {y.shape} do not match")
    return float(np.mean((y_hat - y) ** 2))


def backward(p: GruParams, trace: ForwardTrace, y: np.ndarray) -> tuple[float, Gradients]:
    """Exact MSE gradients for one sequence via reverse accumulation.

    The trace must come from forward() under the same parameters; every gate
    value is reused rather than recomputed.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (p.output_dim,):
        raise TraceMismatchError(f"target has shape {y.shape}, expected ({p.output_dim},)")
    if not trace.steps:
        raise TraceMismatchError("trace has no steps")
    for step in trace.steps:
        if step.h.shape != (p.hidden_dim,) or step.x.shape != (p.input_dim,):
            raise TraceMismatchError("trace dimensions do not match parameters")

    g = Gradients.zeros_like(p)
    o = p.output_dim

    y_hat = trace.y_hat
    loss = mse(y_hat, y)
    d_y = 2.0 * (y_hat - y) / o

    h_last = trace.h_last
    g.W_out += np.outer(d_y, h_last)
    g.b_out += d_y
    dh = p.W_out.T @ d_y

    for step in reversed(trace.steps):
        du = dh * (step.z - step.h_prev)
        dz = dh * step.u
        dh_prev = dh * (1.0 - step.u)

        da_u = du * step.u * (1.0 - step.u)
        g.W_u += np.outer(da_u, step.h_prev)
        g.R_u += np.outer(da_u, step.x)
        g.b_u += da_u
        dh_prev += p.W_u.T @ da_u

        da_z = dz * (1.0 - step.z ** 2)
        g.W_z += np.outer(da_z, step.h_tilde)
        g.R_z += np.outer(da_z, step.x)
        g.b_z += da_z
        dh_tilde = p.W_z.T @ da_z
        dh_prev += dh_tilde * step.r
        dr = dh_tilde * step.h_prev

        da_r = dr * step.r * (1.0 - step.r)
        g.W_r += np.outer(da_r, step.h_prev)
        g.R_r += np.outer(da_r, step.x)
        g.b_r += da_r
        dh_prev += p.W_r.T @ da_r

        dh = dh_prev

    return loss, g


def _sequence_loss(p: GruParams, xs: np.ndarray, y: np.ndarray) -> float:
    h0 = np.zeros(p.hidden_dim)
    return mse(gru.forward(p, h0, xs).y_hat, y)


def grad_check_by_tensor(p: GruParams, sample, epsilon: float) -> dict[str, float]:
    """Worst relative error per parameter tensor, analytic vs central differences."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    xs, y = sample
    xs = np.asarray(xs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    h0 = np.zeros(p.hidden_dim)
    _, analytic = backward(p, gru.forward(p, h0, xs), y)

    worst: dict[str, float] = {}
    for name, arr in p.arrays().items():
        a_grad = getattr(analytic, name)
        err = 0.0
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + epsilon
            loss_plus = _sequence_loss(p, xs, y)
            arr[idx] = saved - epsilon
            loss_minus = _sequence_loss(p, xs, y)
            arr[idx] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            a = float(a_grad[idx])
            denom = max(abs(a), abs(numeric), 1e-12)
            err = max(err, abs(a - numeric) / denom)
        worst[name] = err
    return worst


def grad_check(p: GruParams, sample, epsilon: float) -> float:
    """Worst relative error over every scalar parameter."""
    return max(grad_check_by_tensor(p, sample, epsilon).values())


# ---------------------------------------------------------------------------
# Batched fast path used by fit(); numerically identical to folding the
# single-sequence ops over each batch member and averaging.

def _forward_batch(p: GruParams, X: np.ndarray) -> dict:
    """X: (B, T, D). Hidden state starts at zero for every sequence."""
    B, T, _ = X.shape
    H = p.hidden_dim
    h = np.zeros((B, H))
    h_prevs = np.empty((T, B, H))
    rs = np.empty((T, B, H))
    h_tildes = np.empty((T, B, H))
    zs = np.empty((T, B, H))
    us = np.empty((T, B, H))
    for t in range(T):
        x_t = X[:, t, :]
        h_prevs[t] = h
        r = gru.sigmoid(h @ p.W_r.T + x_t @ p.R_r.T + p.b_r)
        h_tilde = h * r
        z = np.tanh(h_tilde @ p.W_z.T + x_t @ p.R_z.T + p.b_z)
        u = gru.sigmoid(h @ p.W_u.T + x_t @ p.R_u.T + p.b_u)
        h = (1.0 - u) * h + u * z
        rs[t], h_tildes[t], zs[t], us[t] = r, h_tilde, z, u
    y_hat = h @ p.W_out.T + p.b_out
    return {"X": X, "h_prevs": h_prevs, "rs": rs, "h_tildes": h_tildes,
            "zs": zs, "us": us, "h_last": h, "y_hat": y_hat}


def _backward_batch(p: GruParams, cache: dict, Y: np.ndarray) -> tuple[float, Gradients]:
    """Gradient of the batch-mean MSE; equals the mean of per-sequence gradients."""
    X = cache["X"]
    B, T, _ = X.shape
    y_hat = cache["y_hat"]
    loss = float(np.mean((y_hat - Y) ** 2))

    g = Gradients.zeros_like(p)
    d_y = 2.0 * (y_hat - Y) / y_hat.size

    g.W_out += d_y.T @ cache["h_last"]
    g.b_out += d_y.sum(axis=0)
    dh = d_y @ p.W_out

    for t in range(T - 1, -1, -1):
        x_t = X[:, t, :]
        h_prev = cache["h_prevs"][t]
        r, h_tilde = cache["rs"][t], cache["h_tildes"][t]
        z, u = cache["zs"][t], cache["us"][t]

        du = dh * (z - h_prev)
        dz = dh * u
        dh_prev = dh * (1.0 - u)

        da_u = du * u * (1.0 - u)
        g.W_u += da_u.T @ h_prev
        g.R_u += da_u.T @ x_t
        g.b_u += da_u.sum(axis=0)
        dh_prev += da_u @ p.W_u

        da_z = dz * (1.0 - z ** 2)
        g.W_z += da_z.T @ h_tilde
        g.R_z += da_z.T @ x_t
        g.b_z += da_z.sum(axis=0)
        dh_tilde = da_z @ p.W_z
        dh_prev += dh_tilde * r
        dr = dh_tilde * h_prev

        da_r = dr * r * (1.0 - r)
        g.W_r += da_r.T @ h_prev
        g.R_r += da_r.T @ x_t
        g.b_r += da_r.sum(axis=0)
        dh_prev += da_r @ p.W_r

        dh = dh_prev

    return loss, g


def _clip_global_norm(g: Gradients, max_norm: float) -> None:
    norm = g.global_norm()
    if norm > max_norm:
        factor = max_norm / norm
        for arr in g.arrays().values():
            arr *= factor


class _Adam:
    def __init__(self, p: GruParams, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in p.arrays().items()}
        self.v = {k: np.zeros_like(v) for k, v in p.arrays().items()}

    def update(self, p: GruParams, g: Gradients) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, grad in g.arrays().items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            getattr(p, name)[...] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def update(self, p: GruParams, g: Gradients) -> None:
        for name, grad in g.arrays().items():
            getattr(p, name)[...] -= self.lr * grad


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)  # normalized units, one per step
    epochs: int = 0
    steps_per_epoch: int = 0
    final_mse_per_sector: np.ndarray = None  # denormalized, held-out
    final_mse: float = float("nan")
    duration_s: float = 0.0

    def history_csv(self) -> str:
        lines = ["step,epoch,loss"]
        for i, loss in enumerate(self.losses):
            lines.append(f"{i},{i // self.steps_per_epoch},{float(loss)!r}")
        return "\n".join(lines) + "\n"


def fit(dataset: WindowedDataset, cfg: TrainConfig,
        hidden_dim: int = 32) -> tuple[GruParams, Normalizer, TrainReport]:
    """Train on the chronological training split; fully seeded.

    The normalizer is fitted on training-split values only, the loss history
    is recorded in normalized units, and the report's held-out MSE is
    denormalized. Identical (seed, data, config) reruns produce bit-identical
    weights and history.
    """
    cfg.validate()
    if dataset.n_train < 1 or dataset.n_test < 1:
        raise EmptySplitError(
            f"need both splits non-empty, got {dataset.n_train}/{dataset.n_test}")

    train_x, train_y = dataset.train_arrays()
    norm = Normalizer.fit_minmax(
        np.concatenate([train_x.reshape(-1, train_x.shape[-1]), train_y]))

    xn = norm.normalize(dataset.inputs)
    yn = norm.normalize(dataset.targets)

    init_seq, batch_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    p = gru.init_params(input_dim=dataset.inputs.shape[-1], hidden_dim=hidden_dim,
                        output_dim=dataset.targets.shape[-1],
                        rng=np.random.default_rng(init_seq))
    opt = _Adam(p, cfg.learning_rate) if cfg.optimizer == "adam" else _Sgd(cfg.learning_rate)
    batch_rng = np.random.default_rng(batch_seq)

    started = time.perf_counter()
    report = TrainReport(epochs=cfg.epochs, steps_per_epoch=cfg.steps_per_epoch)
    for step in range(cfg.epochs * cfg.steps_per_epoch):
        idx = batch_rng.integers(0, dataset.n_train, size=cfg.batch_size)
        # a diverging run overflows on purpose before it is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            cache = _forward_batch(p, xn[idx])
            loss, g = _backward_batch(p, cache, yn[idx])
        if not np.isfinite(loss) or not g.all_finite():
            raise DivergedLossError(
                f"non-finite loss/gradient at step {step} "
                f"(epoch {step // cfg.steps_per_epoch}, loss={loss})")
        if cfg.gradient_clip_norm is not None:
            _clip_global_norm(g, cfg.gradient_clip_norm)
        opt.update(p, g)
        report.losses.append(float(loss))

    result = evaluate(p, norm, dataset)
    report.final_mse_per_sector = result.mse_per_sector
    report.final_mse = result.mse_total
    report.duration_s = time.perf_counter() - started
    return p, norm, report


@dataclass
class EvalResult:
    predictions: np.ndarray  # (n_test, 4), denormalized
    truths: np.ndarray       # (n_test, 4)
    mse_per_sector: np.ndarray
    mse_total: float
    persistence_mse_per_sector: np.ndarray
    persistence_mse_total: float

    @property
    def n_test(self) -> int:
        return self.predictions.shape[0]

    def table_csv(self) -> str:
        """Long-format per-sector (prediction, truth) series for plotting."""
        lines = ["seq_index,sector,prediction,truth"]
        for i in range(self.n_test):
            for s, label in enumerate(SECTOR_LABELS):
                lines.append(f"{i},{label},{float(self.predictions[i, s])!r},"
                             f"{float(self.truths[i, s])!r}")
        return "\n".join(lines) + "\n"


def predict_next(p: GruParams, norm: Normalizer, window: np.ndarray) -> np.ndarray:
    """One-step forecast from a raw-count window of shape (window_len, 4).

    A stack of windows, shape (N, window_len, 4), gives all N forecasts,
    shape (N, 4), from one batched forward pass.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim not in (2, 3) or window.shape[-1] != p.input_dim:
        raise ShapeMismatchError(
            f"window must be (T, {p.input_dim}) or (N, T, {p.input_dim}), got {window.shape}")
    stack = window if window.ndim == 3 else window[None, :, :]
    y_hat = _forward_batch(p, norm.normalize(stack))["y_hat"]
    return norm.denormalize(y_hat if window.ndim == 3 else y_hat[0])


def evaluate(p: GruParams, norm: Normalizer, dataset: WindowedDataset) -> EvalResult:
    """Denormalized held-out MSE plus the persistence baseline.

    Persistence predicts that the next slot repeats the last observed one
    (the final row of each input window, in raw counts).
    """
    test_x, test_y = dataset.test_arrays()
    if test_x.shape[0] == 0:
        raise EmptySplitError("test split is empty")

    y_hat = _forward_batch(p, norm.normalize(test_x))["y_hat"]
    preds = norm.denormalize(y_hat)

    err = (preds - test_y) ** 2
    persisted = test_x[:, -1, :]
    perr = (persisted - test_y) ** 2
    return EvalResult(
        predictions=preds,
        truths=test_y,
        mse_per_sector=err.mean(axis=0),
        mse_total=float(err.mean()),
        persistence_mse_per_sector=perr.mean(axis=0),
        persistence_mse_total=float(perr.mean()),
    )
