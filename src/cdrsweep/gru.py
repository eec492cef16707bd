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

forward() holds the only copy of that step body. It records its trace in
preallocated arrays stacked with time first, the hidden chain h[0..T]
included, and gru_step() is forward() over a one-slot sequence.

All operations here are pure functions of their arguments; training-time
mutation lives in the trainer module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
class ForwardTrace:
    """Every intermediate value of a forward pass, retained for BPTT.

    Time is the leading axis. For one sequence xs is (T, D), hs is the
    hidden chain h[0..T] of shape (T+1, H) and each gate array is (T, H);
    a batch inserts its axis second: (T, B, D), (T+1, B, H) and (T, B, H).
    """

    xs: np.ndarray
    hs: np.ndarray
    r: np.ndarray
    h_tilde: np.ndarray
    z: np.ndarray
    u: np.ndarray
    y_hat: np.ndarray

    @property
    def h(self) -> np.ndarray:
        """The final hidden state h[T]."""
        return self.hs[-1]


def readout(p: GruParams, h: np.ndarray) -> np.ndarray:
    """Affine map from hidden state, (H,) or (B, H), to the output (no activation)."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (1, 2) or h.shape[-1] != p.hidden_dim:
        raise DimensionMismatchError(
            f"hidden state has shape {h.shape}, "
            f"expected ({p.hidden_dim},) or (B, {p.hidden_dim})")
    return h @ p.W_out.T + p.b_out


def forward(p: GruParams, h0: np.ndarray, xs) -> ForwardTrace:
    """Run the recurrence over an input sequence and read out the final state.

    xs is one sequence of input vectors, a (T, input_dim) array with h0 of
    shape (H,), or a batch of them, (B, T, input_dim) with h0 of shape
    (B, H). Deterministic: identical arguments produce bit-identical traces.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 2:
        xs = xs.reshape(1, -1)
    if xs.shape[-2] == 0:
        raise EmptySequenceError("input sequence is empty")
    h0 = np.asarray(h0, dtype=np.float64)
    h, d = p.hidden_dim, p.input_dim
    if (h0.shape[-1:] != (h,) or xs.shape[-1] != d
            or h0.shape[:-1] != xs.shape[:-2] or xs.ndim > 3):
        raise DimensionMismatchError(
            f"hidden state has shape {h0.shape} and input {xs.shape}, "
            f"expected ({h},) and (T, {d}), or (B, {h}) and (B, T, {d})")

    xs = xs.swapaxes(0, -2)  # time first; a view, no copy
    n_steps = xs.shape[0]
    hs = np.empty((n_steps + 1,) + h0.shape)
    hs[0] = h0
    r, h_tilde, z, u = (np.empty((n_steps,) + h0.shape) for _ in range(4))
    for t in range(n_steps):
        x, h_prev = xs[t], hs[t]
        r_t = r[t] = sigmoid(h_prev @ p.W_r.T + x @ p.R_r.T + p.b_r)
        h_tilde_t = h_tilde[t] = h_prev * r_t
        z_t = z[t] = np.tanh(h_tilde_t @ p.W_z.T + x @ p.R_z.T + p.b_z)
        u_t = u[t] = sigmoid(h_prev @ p.W_u.T + x @ p.R_u.T + p.b_u)
        hs[t + 1] = (1.0 - u_t) * h_prev + u_t * z_t
    return ForwardTrace(xs=xs, hs=hs, r=r, h_tilde=h_tilde, z=z, u=u,
                        y_hat=readout(p, hs[-1]))


def gru_step(p: GruParams, h_prev: np.ndarray, x: np.ndarray) -> ForwardTrace:
    """One recurrence step: forward over a one-slot sequence.

    h_prev and x are one sequence's (H,) and (D,) vectors, or (B, H) and
    (B, D) rows, one per batch member; the new state is the trace's h.
    """
    return forward(p, h_prev, np.atleast_1d(x)[..., None, :])
