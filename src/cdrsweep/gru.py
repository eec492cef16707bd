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

_run() holds the only copy of that step body. It steps through one chunk
of slots and computes straight into preallocated buffers stacked with time
first, the hidden chain included. forward() runs it once, over a chunk of
length T, and keeps the buffers as its trace for backpropagation;
final_state() walks time in chunks whose buffers hold at most CHUNK_BYTES
and keeps only the last state, for inference; gru_step() is forward() over
a one-slot sequence. _run and _step_weights also take an optional leading
model axis: stacked weights (K, D, 2H) and (K, H, 2H) step K models at
once, with (K, 1, H) states per slot, each model's bits those of its own
forward. stacked_final_state() walks such a stack over one sequence with
final_state()'s time walk; the gradient check runs its moved models so.
Within a chunk:

- the two sigmoid gates share one [r | u] buffer of width 2H, so each step
  makes one h[t-1] @ [W_r; W_u].T product for both;
- before the loop, the input projections of the chunk's slots, biases
  included, are written into the [r | u] and z buffers as pre-activations,
  one stacked product per buffer with one BLAS call per slot, so the
  chunk length changes no bit; each step only adds its recurrent term and
  applies the activation in place;
- the sigmoid is evaluated as 0.5 * (1 + tanh(x / 2)), which cannot
  overflow for any input. The [r | u] weights and bias are halved once per
  call (see _step_weights), so the buffer holds x / 2 and a step starts at
  the tanh; bit for bit this is the halving per step it replaces, outside
  the subnormal range, and a subnormal x / 2 gives the gate 0.5 either way;
- one model's two products per step are ndarray.dot calls, which reach the
  same BLAS routine as np.matmul, with the same bits, at a smaller cost
  per call; a stack of models needs np.matmul's broadcasting and keeps it.

Every function computes in the dtype of the parameters it is given: the
inputs, the initial state, the buffers and the readout are cast to it.
Training steps float32 copies of its float64 master weights (see
training.fit); inference, the gradient check and the model file run on the
float64 parameters themselves, so their bits do not depend on float32.

All operations here are pure functions of their arguments, except that
forward() computes into the buffers of a trace passed as out; training-time
mutation lives in the trainer module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptySequenceError

# Upper bound on the chunk buffers final_state() walks time in.
CHUNK_BYTES = 256 * 1024

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
    a = np.array(x, dtype=np.float64)
    a *= 0.5
    return _sigmoid_of_half(a)


def _sigmoid_of_half(a: np.ndarray) -> np.ndarray:
    """sigmoid(2 * a), in place: 0.5 * (1 + tanh(a))."""
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

    def astype(self, dtype) -> "GruParams":
        """Every array cast to dtype, as new arrays."""
        return GruParams(**{k: v.astype(dtype) for k, v in self.arrays().items()})


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
    (T, B, H). da_ru and da_z, shaped like ru and z, are the buffers that
    training.backward() writes its pre-activation deltas into. forward()
    allocates all six buffers, and a forward() given this trace as out
    reuses all six.
    """

    xs: np.ndarray
    hs: np.ndarray
    ru: np.ndarray
    h_tilde: np.ndarray
    z: np.ndarray
    y_hat: np.ndarray
    da_ru: np.ndarray
    da_z: np.ndarray

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
    h = np.asarray(h, dtype=p.W_out.dtype)
    if h.ndim not in (1, 2) or h.shape[-1] != p.hidden_dim:
        raise DimensionMismatchError(
            f"hidden state has shape {h.shape}, "
            f"expected ({p.hidden_dim},) or (B, {p.hidden_dim})")
    return h @ p.W_out.T + p.b_out


def _check_inputs(p: GruParams, h0, xs) -> tuple[np.ndarray, np.ndarray]:
    """Validate a forward pass's arguments; return h0 and xs viewed time-first,
    both in the dtype of p."""
    xs = np.asarray(xs, dtype=p.W_r.dtype)
    if xs.ndim < 2:
        xs = xs.reshape(1, -1)
    if xs.shape[-2] == 0:
        raise EmptySequenceError("input sequence is empty")
    h0 = np.asarray(h0, dtype=p.W_r.dtype)
    h, d = p.hidden_dim, p.input_dim
    if (h0.shape[-1:] != (h,) or xs.shape[-1] != d
            or h0.shape[:-1] != xs.shape[:-2] or xs.ndim > 3):
        raise DimensionMismatchError(
            f"hidden state has shape {h0.shape} and input {xs.shape}, "
            f"expected ({h},) and (T, {d}), or (B, {h}) and (B, T, {d})")
    return h0, xs.swapaxes(0, -2)  # time first; a view, no copy


def _step_weights(p: GruParams) -> tuple[np.ndarray, ...]:
    """The weights in the layout _run multiplies by.

    A stack of K models keeps its leading axis: (K, D, 2H), (K, 1, 2H) and
    so on. Transposed weights are C-ordered copies: BLAS multiplies those
    about twice as fast as transposed views at these sizes.

    The [r | u] weights and bias come halved, so that _run computes the
    halved pre-activation a / 2 that the sigmoid's tanh takes, without a
    halving per step. Scaling by a power of two commutes with rounding, so
    this keeps the bits of halving the sum, unless a weight, product or
    partial sum is subnormal once halved (or a sum overflows unhalved).
    """
    def t(a):
        return a.swapaxes(-1, -2).copy()

    return (t(np.concatenate([p.R_r, p.R_u], axis=-2)) * 0.5,
            np.concatenate([p.b_r, p.b_u], axis=-1)[..., None, :] * 0.5,
            t(p.R_z), p.b_z[..., None, :],
            t(np.concatenate([p.W_r, p.W_u], axis=-2)) * 0.5, t(p.W_z))


def _buffers(n_steps: int, h0: np.ndarray) -> tuple[np.ndarray, ...]:
    """Time-first hs, [r | u], h_tilde and z buffers for n_steps slots, hs[0] = h0,
    all of h0's dtype."""
    hs = np.empty((n_steps + 1,) + h0.shape, h0.dtype)
    hs[0] = h0
    ru = np.empty((n_steps,) + h0.shape[:-1] + (2 * h0.shape[-1],), h0.dtype)
    return (hs, ru, np.empty((n_steps,) + h0.shape, h0.dtype),
            np.empty((n_steps,) + h0.shape, h0.dtype))


def _run(weights: tuple[np.ndarray, ...], x_rows: np.ndarray, hs: np.ndarray,
         ru: np.ndarray, h_tilde: np.ndarray, z: np.ndarray) -> None:
    """Step the recurrence over one chunk of slots, from the state in hs[0].

    x_rows is the chunk's (n, B, D) input, one sequence viewed as a batch
    of one, and hs, ru, h_tilde and z are C-contiguous buffers of n + 1, n,
    n and n slots; every step's values are written into them. Weights
    stacked over K models (see _step_weights) run all K on the same input:
    each slot of the buffers then holds (K, B, .) values, model first.
    """
    w_in_ru, b_ru, w_in_z, b_z, w_ru_t, w_z_t = weights
    n_steps, h = len(x_rows), hs.shape[-1]
    models = w_in_z.shape[:-2]  # () for one model, (K,) for a stack
    x_rows = x_rows.reshape((n_steps,) + (1,) * len(models) + x_rows.shape[1:])
    # Input projections of every slot of the chunk, as pre-activations ([r | u]
    # halved): one stacked product, so each slot (and model) is the same BLAS
    # call that a one-slot forward (gru_step) of one model makes, and gives
    # the same bits.
    np.matmul(x_rows, w_in_ru, out=ru.reshape((n_steps,) + models + (-1, 2 * h)))
    ru += b_ru
    np.matmul(x_rows, w_in_z, out=z.reshape((n_steps,) + models + (-1, h)))
    z += b_z

    # the product for each step's two recurrent terms, chosen once per call
    product = np.matmul if models else np.ndarray.dot
    rec_ru, rec_z = np.empty(ru.shape[1:], ru.dtype), np.empty(hs.shape[1:], hs.dtype)
    for h_prev, ru_t, r_t, u_t, h_tilde_t, z_t, h_next in zip(
            hs[:-1], ru, ru[..., :h], ru[..., h:], h_tilde, z, hs[1:]):
        ru_t += product(h_prev, w_ru_t, out=rec_ru)
        _sigmoid_of_half(ru_t)
        np.multiply(h_prev, r_t, out=h_tilde_t)
        z_t += product(h_tilde_t, w_z_t, out=rec_z)
        np.tanh(z_t, out=z_t)
        # h[t] = (1 - u) * h[t-1] + u * z, as h[t-1] + u * (z - h[t-1])
        np.subtract(z_t, h_prev, out=h_next)
        h_next *= u_t
        h_next += h_prev


def forward(p: GruParams, h0: np.ndarray, xs, out: ForwardTrace | None = None) -> ForwardTrace:
    """Run the recurrence over an input sequence and read out the final state.

    xs is one sequence of input vectors, a (T, input_dim) array with h0 of
    shape (H,), or a batch of them, (B, T, input_dim) with h0 of shape
    (B, H). Deterministic: identical arguments produce bit-identical traces.

    out, an earlier trace of the same shapes and dtype, lends its buffers:
    the new trace is computed into them, and out's values are overwritten.
    A training loop so allocates one trace for all its steps
    (DimensionMismatchError if the shapes or dtype differ).
    """
    h0, xs = _check_inputs(p, h0, xs)
    n_steps = xs.shape[0]
    # the trace is one chunk of length T
    if out is None:
        hs, ru, h_tilde, z = _buffers(n_steps, h0)
        da_ru, da_z = np.empty_like(ru), np.empty_like(z)
    else:
        hs, ru, h_tilde, z, da_ru, da_z = out.hs, out.ru, out.h_tilde, out.z, out.da_ru, out.da_z
        if hs.shape != (n_steps + 1,) + h0.shape or hs.dtype != h0.dtype:
            raise DimensionMismatchError(
                f"out holds a {hs.dtype} trace of shape {hs.shape}, expected "
                f"{h0.dtype} and {(n_steps + 1,) + h0.shape}")
        hs[0] = h0
    _run(_step_weights(p), xs.reshape(n_steps, -1, p.input_dim), hs, ru, h_tilde, z)
    return ForwardTrace(xs=xs, hs=hs, ru=ru, h_tilde=h_tilde, z=z,
                        y_hat=readout(p, hs[-1]), da_ru=da_ru, da_z=da_z)


def final_state(p: GruParams, h0: np.ndarray, xs) -> np.ndarray:
    """The final hidden state of forward(p, h0, xs), bit for bit, without its trace.

    Takes the same shapes as forward(). Time is walked in chunks whose
    buffers hold at most CHUNK_BYTES, so memory stays O(B * H) however
    long the sequence: a chunk's last state seeds the next chunk.
    """
    h0, xs = _check_inputs(p, h0, xs)
    return _walk(_step_weights(p), h0, xs.reshape(len(xs), -1, p.input_dim))


def stacked_final_state(stack: GruParams, xs) -> np.ndarray:
    """The final states of K models run from zero states over one sequence.

    Every array of stack carries a leading model axis of length K, so model
    k is GruParams(W_r=stack.W_r[k], ...). xs is one (T, D) sequence, fed
    to every model. Returns the (K, 1, H) final states, model k's bit for
    bit final_state(model k, zeros(H), xs). The shared time walk keeps its
    buffers at CHUNK_BYTES while K * 5H floats fit in them; a caller with
    more models than that splits the stack.
    """
    xs = np.asarray(xs, dtype=stack.W_r.dtype)
    n_models, _, h = stack.W_r.shape
    return _walk(_step_weights(stack), np.zeros((n_models, 1, h), xs.dtype),
                 xs.reshape(len(xs), 1, xs.shape[-1]))


def _walk(weights: tuple[np.ndarray, ...], h0: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
    """The last state of _run over x_rows from h0, time walked in bounded chunks."""
    n_steps = len(x_rows)
    # hs, [r | u], h_tilde and z take 5H floats per batch member per slot
    chunk = max(1, min(n_steps, CHUNK_BYTES // (h0.itemsize * 5 * max(h0.size, h0.shape[-1]))))
    hs, ru, h_tilde, z = _buffers(chunk, h0)
    for start in range(0, n_steps, chunk):
        n = min(chunk, n_steps - start)
        _run(weights, x_rows[start:start + n], hs[:n + 1], ru[:n], h_tilde[:n], z[:n])
        hs[0] = hs[n]
    return hs[0].copy()


def gru_step(p: GruParams, h_prev: np.ndarray, x: np.ndarray) -> ForwardTrace:
    """One recurrence step: forward over a one-slot sequence.

    h_prev and x are one sequence's (H,) and (D,) vectors, or (B, H) and
    (B, D) rows, one per batch member; the new state is the trace's h.
    """
    return forward(p, h_prev, np.atleast_1d(x)[..., None, :])
