"""Training: BPTT under MSE loss, gradient verification, and evaluation.

backward() differentiates one retained ForwardTrace exactly. It walks the
trace's time-first slices in reverse, following the gate structure of the
forward pass (including the h_tilde = h_prev * r path into the candidate),
and stores each slot's pre-activation deltas in stacked buffers laid out
like the trace: [r | u] side by side, (T, ..., 2H), and the candidate's
(T, ..., H). The factors of those deltas that do not depend on the
incoming dh, z - h[t-1] and (1 - z^2) * u, are computed for all slots
before the loop, straight into the two buffers, and each step multiplies
its slot by dh in place: the same operations in the same order per
element, so the same bits as computing them inside the step. Inside the
loop the two sigmoid gates share one product with [W_r; W_u], and the
products are ndarray.dot calls, as in gru._run; after it every weight and
bias gradient is one product or sum over all T*B rows. It is the only
reverse pass: fit() runs it on (B, T, D) batches, the gradient check on
single (T, D) sequences. Gradients come back as a GruParams of the same
shapes. Tests pin forward() to the scalar reference in tests/_oracles.py,
backward() to central finite differences, and both bit for bit to the
earlier time loops kept there.

The gradient check is stacked: for each parameter tensor it builds the
models with one scalar moved by +epsilon and by -epsilon and runs them all
through one gru.stacked_final_state per chunk of models, instead of two
forward() calls per scalar. Its losses are bit-identical to that per-scalar
loop, which tests/_oracles.py keeps as the reference.

Precision is split as in mixed-precision training: fit() runs each step's
forward() and backward() in float32, while the parameters it updates, the
optimizer state, the gradient norm and clip stay float64. backward() works
in the dtype of the parameters it is given, so the gradient check, which
passes the float64 parameters, is float64 throughout, as is inference.

Inference keeps no trace: predict_next(), which evaluate() calls, reads the
final states from gru.final_state(), bit-identical to forward()'s, in memory
that does not grow with the window length.
"""

from __future__ import annotations

import math
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
from .gru import ForwardTrace, GruParams
from .ingest import SECTOR_LABELS, WindowedDataset, cut_windows


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
        # one float64 result, not two: whole series pass through here
        out = np.subtract(values, self.offset, dtype=np.float64)
        out /= self.scale
        return out

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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        # written so that NaN fails too: a NaN bound would never clip
        if self.gradient_clip_norm is not None and not self.gradient_clip_norm > 0:
            raise ValueError(
                f"gradient_clip_norm must be positive or None, got {self.gradient_clip_norm}")


def mse(y_hat: np.ndarray, y: np.ndarray) -> float:
    """Mean over all elements of the squared differences."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ShapeMismatchError(f"shapes {y_hat.shape} and {y.shape} do not match")
    return float(np.mean((y_hat - y) ** 2))


def global_norm(g: GruParams) -> float:
    """Euclidean norm of all gradient entries taken together."""
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in g.arrays().values())))


def all_finite(g: GruParams) -> bool:
    return all(np.all(np.isfinite(a)) for a in g.arrays().values())


def backward(p: GruParams, trace: ForwardTrace, y: np.ndarray) -> tuple[float, GruParams]:
    """Exact gradient of the MSE over all elements of y, by reverse accumulation.

    y is one sequence's (O,) target or a batch's (B, O) targets; the trace
    must come from forward() under the same parameters and batch shape, and
    every gate value in it is reused rather than recomputed. For a batch the
    gradient is the mean of the per-sequence gradients. Every buffer, the
    target and the gradients take the dtype of p; the loss is a float. The
    deltas are written into the trace's da_ru and da_z buffers; the
    gradients share no memory with them.
    """
    dtype = p.W_r.dtype
    y = np.asarray(y, dtype=dtype)
    if y.ndim not in (1, 2) or y.shape[-1] != p.output_dim:
        raise TraceMismatchError(
            f"target has shape {y.shape}, expected ({p.output_dim},) or (B, {p.output_dim})")
    n_steps = len(trace.xs)
    batch = y.shape[:-1]
    if (trace.hs.shape != (n_steps + 1,) + batch + (p.hidden_dim,)
            or trace.xs.shape != (n_steps,) + batch + (p.input_dim,)
            or trace.hs.dtype != dtype):
        raise TraceMismatchError(
            "trace dimensions or dtype do not match parameters and target")

    h = p.hidden_dim
    y_hat = trace.y_hat
    loss = mse(y_hat, y)
    d_y = 2.0 * (y_hat - y) / y_hat.size
    dh = d_y @ p.W_out

    # pre-activation deltas of every slot, [r | u] side by side as in the
    # trace, in buffers the trace keeps for the next pass. The factors that
    # do not depend on dh go in first, for all slots at once; each step
    # multiplies its slot by dh in place. From
    # h[t] = h[t-1] + u * (z - h[t-1]) and z = tanh(a_z):
    hs, ru, z, r, u = trace.hs, trace.ru, trace.z, trace.r, trace.u
    da_ru, da_z = trace.da_ru, trace.da_z
    dr, du = da_ru[..., :h], da_ru[..., h:]
    np.subtract(z, hs[:-1], out=du)
    np.multiply(z, z, out=da_z)
    np.subtract(1.0, da_z, out=da_z)
    da_z *= u
    # the products as gru._run makes them, ndarray.dot for 2-D weights
    product = np.ndarray.dot
    w_ru = np.concatenate([p.W_r, p.W_u])
    dh_tilde, tmp = np.empty(dh.shape, dtype), np.empty(dh.shape, dtype)
    tmp_ru = np.empty(da_ru.shape[1:], dtype)
    for h_prev, ru_t, r_t, u_t, da_ru_t, dr_t, du_t, da_z_t in zip(
            hs[-2::-1], ru[::-1], r[::-1], u[::-1], da_ru[::-1], dr[::-1], du[::-1],
            da_z[::-1]):
        du_t *= dh
        da_z_t *= dh
        # h_tilde = h[t-1] * r feeds a_z
        product(da_z_t, p.W_z, out=dh_tilde)
        np.multiply(dh_tilde, h_prev, out=dr_t)
        # both sigmoid gates at once: s' = s * (1 - s)
        np.subtract(1.0, ru_t, out=tmp_ru)
        tmp_ru *= ru_t
        da_ru_t *= tmp_ru

        dh -= np.multiply(dh, u_t, out=tmp)
        dh += np.multiply(dh_tilde, r_t, out=tmp)
        dh += product(da_ru_t, w_ru, out=tmp)

    # every weight gradient is one product over all T*B rows
    rows_ru, rows_z = da_ru.reshape(-1, 2 * h), da_z.reshape(-1, h)
    h_rows = trace.hs[:-1].reshape(-1, h)
    x_rows = trace.xs.reshape(-1, p.input_dim)
    g_w_ru, g_r_ru, g_b_ru = rows_ru.T @ h_rows, rows_ru.T @ x_rows, rows_ru.sum(axis=0)
    d_y_rows = d_y.reshape(-1, p.output_dim)
    g = GruParams(
        W_r=g_w_ru[:h], R_r=g_r_ru[:h], b_r=g_b_ru[:h],
        W_z=rows_z.T @ trace.h_tilde.reshape(-1, h), R_z=rows_z.T @ x_rows,
        b_z=rows_z.sum(axis=0),
        W_u=g_w_ru[h:], R_u=g_r_ru[h:], b_u=g_b_ru[h:],
        W_out=d_y_rows.T @ trace.h.reshape(-1, h), b_out=d_y_rows.sum(axis=0),
    )
    return loss, g


def _unmoved_stacks(p: GruParams) -> dict:
    """Each tensor of p broadcast, without a copy, to the largest stack of
    models that _perturbed_losses runs at once; a chunk takes a slice of it.

    K models take K * 5H floats per slot in the time walk's buffers: the
    stack is split so that one slot of it fits in CHUNK_BYTES, as
    final_state's is, into chunks of per_chunk scalars and 2 * per_chunk
    models.
    """
    per_chunk = max(1, gru.CHUNK_BYTES // (8 * 5 * p.hidden_dim) // 2)
    return {f: np.broadcast_to(a, (2 * per_chunk,) + a.shape) for f, a in p.arrays().items()}


def _perturbed_losses(p: GruParams, xs: np.ndarray, y: np.ndarray, name: str,
                      epsilon: float, unmoved: dict) -> tuple[np.ndarray, np.ndarray]:
    """The MSE of p on (xs, y) with each scalar of tensor name moved by +epsilon
    and by -epsilon, one scalar at a time; both come back shaped like the tensor.

    The moved models are slices of one stack, run through one stacked
    forward per chunk: the +epsilon models of a chunk of scalars, then
    their -epsilon twins. unmoved is _unmoved_stacks(p); every other
    tensor of a chunk's stack is a slice of it. p itself is never written to.
    """
    base = getattr(p, name)
    flat = base.reshape(-1)
    per_chunk = len(unmoved[name]) // 2
    losses = np.empty((2, flat.size))
    for start in range(0, flat.size, per_chunk):
        idx = np.arange(start, min(flat.size, start + per_chunk))
        k = len(idx)
        moved = np.repeat(flat[None], 2 * k, axis=0)
        moved[np.arange(k), idx] = flat[idx] + epsilon
        moved[np.arange(k, 2 * k), idx] = flat[idx] - epsilon
        stack = {f: a[:2 * k] for f, a in unmoved.items()}
        stack[name] = moved.reshape((2 * k,) + base.shape)
        stack = GruParams(**stack)
        h = gru.stacked_final_state(stack, xs)
        # each model's readout and MSE; a mean along the last axis sums its
        # O outputs as mse() sums one model's, so the losses keep their bits
        y_hat = h @ stack.W_out.swapaxes(-1, -2) + stack.b_out[:, None, :]
        losses[:, idx] = np.mean((y_hat - y) ** 2, axis=-1).reshape(2, k)
    return losses[0].reshape(base.shape), losses[1].reshape(base.shape)


def grad_check_by_tensor(p: GruParams, sample, epsilon: float) -> dict[str, float]:
    """Worst relative error per parameter tensor, analytic vs central differences.

    A non-finite error, a NaN or infinite gradient on either side, counts as
    an infinite error, so it fails every threshold. p is only read.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    xs, y = sample
    xs = np.asarray(xs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    h0 = np.zeros(p.hidden_dim)
    _, analytic = backward(p, gru.forward(p, h0, xs), y)

    worst: dict[str, float] = {}
    unmoved = _unmoved_stacks(p)
    # a large epsilon can overflow a moved loss: its error is then infinite
    with np.errstate(over="ignore", invalid="ignore"):
        for name, a in analytic.arrays().items():
            loss_plus, loss_minus = _perturbed_losses(p, xs, y, name, epsilon, unmoved)
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-12)
            rel = np.abs(a - numeric) / denom
            worst[name] = float(np.max(np.where(np.isfinite(rel), rel, np.inf),
                                       initial=0.0))
    return worst


def grad_check(p: GruParams, sample, epsilon: float) -> float:
    """Worst relative error over every scalar parameter."""
    return max(grad_check_by_tensor(p, sample, epsilon).values())


class _Adam:
    def __init__(self, p: GruParams, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in p.arrays().items()}
        self.v = {k: np.zeros_like(v) for k, v in p.arrays().items()}

    def update(self, p: GruParams, g: GruParams) -> None:
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

    def update(self, p: GruParams, g: GruParams) -> None:
        for name, grad in g.arrays().items():
            getattr(p, name)[...] -= self.lr * grad


@dataclass
class TrainReport:
    losses: list = field(default_factory=list)  # normalized units, one per step
    grad_norms: list = field(default_factory=list)  # pre-clip global norm, one per step
    clipped: list = field(default_factory=list)  # whether the step's gradient was clipped
    epochs: int = 0
    steps_per_epoch: int = 0
    final_mse_per_sector: np.ndarray = None  # denormalized, held-out
    final_mse: float = float("nan")
    duration_s: float = 0.0

    def history_csv(self) -> str:
        lines = ["step,epoch,loss,grad_norm,clipped"]
        for i, (loss, norm_g, clipped) in enumerate(
                zip(self.losses, self.grad_norms, self.clipped, strict=True)):
            lines.append(f"{i},{i // self.steps_per_epoch},{float(loss)!r},"
                         f"{float(norm_g)!r},{int(clipped)}")
        return "\n".join(lines) + "\n"


def fit(dataset: WindowedDataset, cfg: TrainConfig,
        hidden_dim: int = 32) -> tuple[GruParams, Normalizer, TrainReport]:
    """Train on the chronological training split; fully seeded.

    The normalizer is fitted on training-split values only and applied once
    to the series rows, whose windows are then cut as views; the loss
    history is recorded in normalized units, and the report's held-out MSE
    is denormalized. Identical (seed, data, config) reruns produce bit-identical
    weights and history.

    Each step's forward and backward run in float32 against float64 master
    weights, as in mixed-precision training (Micikevicius et al., ICLR 2018):
    the normalized rows are cast to float32 once, the parameters at every
    step, and the gradients back to float64 before the norm, the clip and
    the optimizer update, whose state stays float64 like the parameters
    returned. Every step computes into the buffers of one trace, so the loop
    allocates no trace after its first step. The history records each step's
    loss, its pre-clip gradient norm and whether the clip applied.
    """
    cfg.validate()
    if dataset.n_train < 1 or dataset.n_test < 1:
        raise EmptySplitError(
            f"need both splits non-empty, got {dataset.n_train}/{dataset.n_test}")

    # the training windows and targets hold exactly these rows
    w = dataset.window_len
    norm = Normalizer.fit_minmax(dataset.rows[:dataset.split_index + w])
    rows = norm.normalize(dataset.rows).astype(np.float32)
    xn = cut_windows(rows, w, w, len(rows) - 1)
    yn = rows[w:]

    init_seq, batch_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    dim = dataset.rows.shape[-1]
    p = gru.init_params(input_dim=dim, hidden_dim=hidden_dim, output_dim=dim,
                        rng=np.random.default_rng(init_seq))
    opt = _Adam(p, cfg.learning_rate) if cfg.optimizer == "adam" else _Sgd(cfg.learning_rate)
    batch_rng = np.random.default_rng(batch_seq)

    started = time.perf_counter()
    report = TrainReport(epochs=cfg.epochs, steps_per_epoch=cfg.steps_per_epoch)
    h0 = np.zeros((cfg.batch_size, hidden_dim), np.float32)
    # one trace for the whole run: a step that allocated its own would get
    # fresh pages from the allocator, and faulting them in cost more than
    # the float32 step saved
    trace = None
    for step in range(cfg.epochs * cfg.steps_per_epoch):
        idx = batch_rng.integers(0, dataset.n_train, size=cfg.batch_size)
        # a diverging run overflows on purpose before it is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            p32 = p.astype(np.float32)
            trace = gru.forward(p32, h0, xn[idx], out=trace)
            loss, g = backward(p32, trace, yn[idx])
            g = g.astype(np.float64)
            norm_g = global_norm(g)
        if not np.isfinite(loss) or not all_finite(g):
            last = repr(report.losses[-1]) if report.losses else "none"
            raise DivergedLossError(
                f"non-finite loss/gradient at step {step} "
                f"(epoch {step // cfg.steps_per_epoch}, loss={loss}, "
                f"last finite loss={last}, pre-clip gradient norm={norm_g})")
        clipped = cfg.gradient_clip_norm is not None and norm_g > cfg.gradient_clip_norm
        if clipped:
            factor = cfg.gradient_clip_norm / norm_g
            for arr in g.arrays().values():
                arr *= factor
        opt.update(p, g)
        report.losses.append(float(loss))
        report.grad_norms.append(norm_g)
        report.clipped.append(clipped)

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


def predict_next(p: GruParams, norm: Normalizer, rows: np.ndarray, window_len: int,
                 first_end: int, last_end: int) -> np.ndarray:
    """One-step forecasts from the windows rows[j - window_len:j] of a series.

    rows is an (n_slots, 4) raw-count series, such as SectorSeries.counts;
    j runs over first_end, ..., last_end. The rows are normalized once, the
    windows cut from them as views by cut_windows (which raises ValueError
    for ends outside the series), and all of them go through one batched
    gru.final_state, which keeps no trace: the forecasts are bit-identical
    to forward()'s y_hat. Returns the (last_end - first_end + 1, 4)
    denormalized forecasts, the one for slot j in row j - first_end.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[-1] != p.input_dim:
        raise ShapeMismatchError(f"rows must be (n, {p.input_dim}), got {rows.shape}")
    windows = cut_windows(norm.normalize(rows), window_len, first_end, last_end)
    h0 = np.zeros((windows.shape[0], p.hidden_dim))
    return norm.denormalize(gru.readout(p, gru.final_state(p, h0, windows)))


def evaluate(p: GruParams, norm: Normalizer, dataset: WindowedDataset) -> EvalResult:
    """Denormalized held-out MSE plus the persistence baseline.

    Persistence predicts that the next slot repeats the last observed one
    (the final row of each input window, in raw counts).
    """
    if dataset.n_test < 1:
        raise EmptySplitError("test split is empty")

    # the test split is the windows and targets of rows[split_index:]
    w = dataset.window_len
    rows = dataset.rows[dataset.split_index:]
    preds = predict_next(p, norm, rows, w, w, len(rows) - 1)
    truths = rows[w:]

    err = (preds - truths) ** 2
    perr = (rows[w - 1:-1] - truths) ** 2
    return EvalResult(
        predictions=preds,
        truths=truths,
        mse_per_sector=err.mean(axis=0),
        mse_total=float(err.mean()),
        persistence_mse_per_sector=perr.mean(axis=0),
        persistence_mse_total=float(perr.mean()),
    )
