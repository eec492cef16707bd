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
written row-wise, x @ R_r.T + b_r + h[t-1] @ W_r.T and so on.

forward() holds the only copy of that step body, and gru_step() is forward()
over a one-slot sequence. It records its trace in preallocated arrays
stacked with time first, the hidden chain h[0..T] included, and computes
straight into them:

- the two sigmoid gates share one [r | u] buffer of width 2H, so each step
  makes one h[t-1] @ [W_r; W_u].T product for both;
- before the loop, the input projections of all slots, biases included,
  are written into the [r | u] and z buffers as pre-activations, one
  stacked product per buffer with one BLAS call per slot; each step only
  adds its recurrent term and applies the activation in place;
- the sigmoid is evaluated as 0.5 * (1 + tanh(x / 2)), which cannot
  overflow for any input.

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


def param_shapes(input_dim: int, hidden_dim: int, output_dim: int) -> dict[str, tuple]:
    """The shape of every parameter tensor, in PARAM_FIELDS order."""
    h, d, o = hidden_dim, input_dim, output_dim
    return {
        "W_r": (h, h), "R_r": (h, d), "b_r": (h,),
        "W_z": (h, h), "R_z": (h, d), "b_z": (h,),
        "W_u": (h, h), "R_u": (h, d), "b_u": (h,),
        "W_out": (o, h), "b_out": (o,),
    }


def sigmoid(x):
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Evaluated as 0.5 * (1 + tanh(x / 2)), which overflows for no input:
    it is exactly 0 at -inf and exactly 1 at +inf.
    """
    return _sigmoid_in_place(np.array(x, dtype=np.float64))


def _sigmoid_in_place(a: np.ndarray) -> np.ndarray:
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5
    return a


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
        expected = param_shapes(self.input_dim, self.hidden_dim, self.output_dim)
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
    """Seeded init: weights uniform in [-1/sqrt(H), 1/sqrt(H)], biases zero.

    The weight matrices are drawn in PARAM_FIELDS order. Every dimension
    must be at least 1 (DimensionMismatchError otherwise).
    """
    for name, dim in (("input_dim", input_dim), ("hidden_dim", hidden_dim),
                      ("output_dim", output_dim)):
        if dim < 1:
            raise DimensionMismatchError(f"{name} must be at least 1, got {dim}")
    bound = 1.0 / math.sqrt(hidden_dim)
    shapes = param_shapes(input_dim, hidden_dim, output_dim)
    return GruParams(**{name: rng.uniform(-bound, bound, size=shape) if len(shape) == 2
                        else np.zeros(shape) for name, shape in shapes.items()})


@dataclass
class ForwardTrace:
    """Every intermediate value of a forward pass, retained for BPTT.

    Time is the leading axis. For one sequence xs is (T, D), hs is the
    hidden chain h[0..T] of shape (T+1, H), ru holds the two sigmoid gates
    side by side, [r | u] of shape (T, 2H), and h_tilde and z are (T, H);
    a batch inserts its axis second: (T, B, D), (T+1, B, H), (T, B, 2H) and
    (T, B, H).
    """

    xs: np.ndarray
    hs: np.ndarray
    ru: np.ndarray
    h_tilde: np.ndarray
    z: np.ndarray
    y_hat: np.ndarray

    @property
    def r(self) -> np.ndarray:
        """The reset gate, the first half of ru."""
        return self.ru[..., :self.z.shape[-1]]

    @property
    def u(self) -> np.ndarray:
        """The update gate, the second half of ru."""
        return self.ru[..., self.z.shape[-1]:]

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
    ru = np.empty((n_steps,) + h0.shape[:-1] + (2 * h,))
    h_tilde, z = np.empty((n_steps,) + h0.shape), np.empty((n_steps,) + h0.shape)

    # Input projections of every slot, as pre-activations. One sequence is
    # viewed as a batch of one, so each slot is the same BLAS call that a
    # one-slot forward (gru_step) makes, and gives the same bits. Transposed
    # weights are C-ordered copies: BLAS multiplies those about twice as
    # fast as transposed views at these sizes.
    x_rows = xs.reshape(n_steps, -1, d)
    np.matmul(x_rows, np.concatenate([p.R_r, p.R_u]).T.copy(),
              out=ru.reshape(n_steps, -1, 2 * h))
    ru += np.concatenate([p.b_r, p.b_u])
    np.matmul(x_rows, p.R_z.T.copy(), out=z.reshape(n_steps, -1, h))
    z += p.b_z

    w_ru_t = np.concatenate([p.W_r, p.W_u]).T.copy()
    w_z_t = p.W_z.T.copy()
    rec_ru, rec_z = np.empty(ru.shape[1:]), np.empty(h0.shape)
    for t in range(n_steps):
        h_prev, ru_t, h_tilde_t, z_t, h_next = hs[t], ru[t], h_tilde[t], z[t], hs[t + 1]
        ru_t += np.matmul(h_prev, w_ru_t, out=rec_ru)
        _sigmoid_in_place(ru_t)
        r_t, u_t = ru_t[..., :h], ru_t[..., h:]
        np.multiply(h_prev, r_t, out=h_tilde_t)
        z_t += np.matmul(h_tilde_t, w_z_t, out=rec_z)
        np.tanh(z_t, out=z_t)
        # h[t] = (1 - u) * h[t-1] + u * z, as h[t-1] + u * (z - h[t-1])
        np.subtract(z_t, h_prev, out=h_next)
        h_next *= u_t
        h_next += h_prev
    return ForwardTrace(xs=xs, hs=hs, ru=ru, h_tilde=h_tilde, z=z,
                        y_hat=readout(p, hs[-1]))


def gru_step(p: GruParams, h_prev: np.ndarray, x: np.ndarray) -> ForwardTrace:
    """One recurrence step: forward over a one-slot sequence.

    h_prev and x are one sequence's (H,) and (D,) vectors, or (B, H) and
    (B, D) rows, one per batch member; the new state is the trace's h.
    """
    return forward(p, h_prev, np.atleast_1d(x)[..., None, :])
