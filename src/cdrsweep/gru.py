"""Gated recurrent cell with an affine readout head.

Weight naming convention used throughout: the square W matrices act on the
previous hidden state and the rectangular R matrices act on the current
input. The update gate u blends old state into new candidate state,

    h[t] = (1 - u[t]) * h[t-1] + u[t] * z[t]

so a closed update gate (u == 0) freezes the state. The reset gate enters
the candidate through the gated state h_tilde = h[t-1] * r[t]:

    r = sigmoid(W_r h[t-1] + R_r x + b_r)
    z = tanh(W_z h_tilde + R_z x + b_z)
    u = sigmoid(W_u h[t-1] + R_u x + b_u)

Every function takes an optional leading batch axis: one sequence is a
(T, D) input with (H,) states, a batch is (B, T, D) with (B, H) states, and
the same step body serves both. In code the gate pre-activations are
written row-wise, h[t-1] @ W_r.T + x @ R_r.T + b_r and so on.

All operations here are pure functions of their arguments; training-time
mutation lives in the trainer module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, EmptySequenceError

# Canonical parameter order, shared by gradients, optimizers and the model
# file layout.
PARAM_FIELDS = (
    "W_r", "R_r", "b_r",
    "W_z", "R_z", "b_z",
    "W_u", "R_u", "b_u",
    "W_out", "b_out",
)


def sigmoid(x):
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Evaluated branch-wise so neither exp() overflows; safe for entries with
    magnitude well beyond 1e3.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty(arr.shape)
    flat_in = arr.reshape(-1)
    flat_out = out.reshape(-1)
    pos = flat_in >= 0
    flat_out[pos] = 1.0 / (1.0 + np.exp(-flat_in[pos]))
    e = np.exp(flat_in[~pos])
    flat_out[~pos] = e / (1.0 + e)
    return out


@dataclass
class GruParams:
    """All cell weights plus the affine readout head.

    Shapes (H = hidden_dim, D = input_dim, O = output_dim):
    W_* (H, H), R_* (H, D), b_* (H,), W_out (O, H), b_out (O,).
    """

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

    @property
    def hidden_dim(self) -> int:
        return self.W_r.shape[0]

    @property
    def input_dim(self) -> int:
        return self.R_r.shape[1]

    @property
    def output_dim(self) -> int:
        return self.W_out.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def validate(self) -> None:
        h, d, o = self.hidden_dim, self.input_dim, self.output_dim
        expected = {
            "W_r": (h, h), "W_z": (h, h), "W_u": (h, h),
            "R_r": (h, d), "R_z": (h, d), "R_u": (h, d),
            "b_r": (h,), "b_z": (h,), "b_u": (h,),
            "W_out": (o, h), "b_out": (o,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionMismatchError(
                    f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatchError(f"{name} contains non-finite entries")

    def copy(self) -> "GruParams":
        return GruParams(**{k: v.copy() for k, v in self.arrays().items()})


def init_params(input_dim: int, hidden_dim: int, output_dim: int,
                rng: np.random.Generator) -> GruParams:
    """Seeded init: weights uniform in [-1/sqrt(H), 1/sqrt(H)], biases zero."""
    bound = 1.0 / math.sqrt(hidden_dim)

    def w(rows, cols):
        return rng.uniform(-bound, bound, size=(rows, cols))

    h, d, o = hidden_dim, input_dim, output_dim
    return GruParams(
        W_r=w(h, h), R_r=w(h, d), b_r=np.zeros(h),
        W_z=w(h, h), R_z=w(h, d), b_z=np.zeros(h),
        W_u=w(h, h), R_u=w(h, d), b_u=np.zeros(h),
        W_out=w(o, h), b_out=np.zeros(o),
    )


@dataclass
class StepTrace:
    """Every intermediate value of one recurrence step, retained for BPTT.

    Each array is (H,) or (D,) for one sequence, (B, H) or (B, D) for a batch.
    """

    x: np.ndarray
    h_prev: np.ndarray
    r: np.ndarray
    h_tilde: np.ndarray
    z: np.ndarray
    u: np.ndarray
    h: np.ndarray


@dataclass
class ForwardTrace:
    steps: list[StepTrace] = field(default_factory=list)
    y_hat: np.ndarray = None

    @property
    def h_last(self) -> np.ndarray:
        return self.steps[-1].h


def _check_step_dims(p: GruParams, h_prev: np.ndarray, x: np.ndarray) -> None:
    h, d = p.hidden_dim, p.input_dim
    if (h_prev.shape[-1:] != (h,) or x.shape[-1:] != (d,)
            or h_prev.shape[:-1] != x.shape[:-1] or x.ndim > 2):
        raise DimensionMismatchError(
            f"hidden state has shape {h_prev.shape} and input {x.shape}, "
            f"expected ({h},) and ({d},), or (B, {h}) and (B, {d})")


def gru_step(p: GruParams, h_prev: np.ndarray, x: np.ndarray) -> StepTrace:
    """One recurrence step; returns the full trace for later backprop.

    h_prev and x are one sequence's (H,) and (D,) vectors, or (B, H) and
    (B, D) rows, one per batch member.
    """
    h_prev = np.asarray(h_prev, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_step_dims(p, h_prev, x)

    r = sigmoid(h_prev @ p.W_r.T + x @ p.R_r.T + p.b_r)
    h_tilde = h_prev * r
    z = np.tanh(h_tilde @ p.W_z.T + x @ p.R_z.T + p.b_z)
    u = sigmoid(h_prev @ p.W_u.T + x @ p.R_u.T + p.b_u)
    h = (1.0 - u) * h_prev + u * z
    return StepTrace(x=x, h_prev=h_prev, r=r, h_tilde=h_tilde, z=z, u=u, h=h)


def readout(p: GruParams, h: np.ndarray) -> np.ndarray:
    """Affine map from hidden state, (H,) or (B, H), to the output (no activation)."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (1, 2) or h.shape[-1] != p.hidden_dim:
        raise DimensionMismatchError(
            f"hidden state has shape {h.shape}, "
            f"expected ({p.hidden_dim},) or (B, {p.hidden_dim})")
    return h @ p.W_out.T + p.b_out


def forward(p: GruParams, h0: np.ndarray, xs) -> ForwardTrace:
    """Fold gru_step over an input sequence and read out the final state.

    xs is one sequence of input vectors, a (T, input_dim) array with h0 of
    shape (H,), or a batch of them, (B, T, input_dim) with h0 of shape
    (B, H). Deterministic: identical arguments produce bit-identical traces.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs.reshape(1, -1)
    if xs.shape[-2] == 0:
        raise EmptySequenceError("input sequence is empty")

    trace = ForwardTrace()
    h = np.asarray(h0, dtype=np.float64)
    for t in range(xs.shape[-2]):
        step = gru_step(p, h, xs[..., t, :])
        trace.steps.append(step)
        h = step.h
    trace.y_hat = readout(p, h)
    return trace
