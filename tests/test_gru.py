import numpy as np
import pytest

from cdrsweep import (
    DimensionMismatchError,
    EmptySequenceError,
    GruParams,
    final_state,
    forward,
    gru_step,
    init_params,
    readout,
    sigmoid,
)
from cdrsweep import gru

from _oracles import forward_loop, forward_scalar, gru_step_scalar, weights_as_lists


def zero_params(h=1, d=1, o=1):
    def z(*shape):
        return np.zeros(shape)
    return GruParams(
        W_r=z(h, h), R_r=z(h, d), b_r=z(h),
        W_z=z(h, h), R_z=z(h, d), b_z=z(h),
        W_u=z(h, h), R_u=z(h, d), b_u=z(h),
        W_out=z(o, h), b_out=z(o),
    )


def test_zero_params_halve_and_damp():
    # all-zero weights: r = u = 1/2, candidate z = 0, so h = h_prev * 1/2
    step = gru_step(zero_params(), np.array([0.8]), np.array([0.3]))
    assert abs(step.r[0, 0] - 0.5) < 1e-8
    assert abs(step.h_tilde[0, 0] - 0.4) < 1e-8
    assert abs(step.z[0, 0] - 0.0) < 1e-8
    assert abs(step.u[0, 0] - 0.5) < 1e-8
    assert abs(step.h[0] - 0.4) < 1e-8


def test_closed_update_gate_freezes_state():
    p = zero_params()
    p.b_u[:] = -100.0
    step = gru_step(p, np.array([0.8]), np.array([5.0]))
    assert abs(step.h[0] - 0.8) < 1e-8


def test_open_update_gate_replaces_state():
    p = zero_params()
    p.b_u[:] = 100.0
    p.b_z[:] = 2.0
    step = gru_step(p, np.array([0.8]), np.array([0.0]))
    assert abs(step.h[0] - np.tanh(2.0)) < 1e-8


def test_step_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        h = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        p = init_params(d, h, d, rng)
        for arr in p.arrays().values():
            arr += rng.normal(scale=0.3, size=arr.shape)
        h_prev = rng.normal(size=h)
        x = rng.normal(size=d)

        ours = gru_step(p, h_prev, x).h
        ref = gru_step_scalar(weights_as_lists(p), h_prev.tolist(), x.tolist())
        assert np.max(np.abs(ours - np.array(ref))) <= 1e-12


def test_forward_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h, d, t = 5, 3, int(rng.integers(1, 9))
        p = init_params(d, h, d, rng)
        xs = rng.normal(size=(t, d))
        trace = forward(p, np.zeros(h), xs)
        ref_y, ref_h = forward_scalar(weights_as_lists(p), [0.0] * h, xs.tolist())
        assert np.max(np.abs(trace.y_hat - np.array(ref_y))) <= 1e-12
        assert np.max(np.abs(trace.h - np.array(ref_h))) <= 1e-12


def test_float32_forward_matches_scalar_oracle_and_stays_float32():
    # training steps float32 parameters; the oracle computes in float64 from
    # the same float32 values, so the gap is float32 rounding alone (under
    # 1e-7 here; 1e-6 is about ten float32 ulps at 1)
    rng = np.random.default_rng(8)
    for _ in range(10):
        h, d, t = 5, 3, int(rng.integers(1, 40))
        p = init_params(d, h, d, rng).astype(np.float32)
        # float64 inputs and state are cast to the parameters' dtype
        xs = rng.normal(size=(t, d))
        trace = forward(p, np.zeros(h), xs)
        for name in ("xs", "hs", "ru", "h_tilde", "z", "y_hat"):
            assert getattr(trace, name).dtype == np.float32, name
        ref_y, ref_h = forward_scalar(weights_as_lists(p), [0.0] * h,
                                      xs.astype(np.float32).tolist())
        assert np.max(np.abs(trace.y_hat - np.array(ref_y))) <= 1e-6
        assert np.max(np.abs(trace.h - np.array(ref_h))) <= 1e-6


def test_forward_is_a_fold_of_steps():
    rng = np.random.default_rng(3)
    small = init_params(2, 4, 2, rng)
    wide = init_params(4, 32, 2, np.random.default_rng(33))
    # one sequence, a batch of three, a batch of one (one-row BLAS calls)
    # and a training-sized batch
    for p, batch in [(small, ()), (small, (3,)), (small, (1,)), (wide, (32,))]:
        xs = rng.normal(size=batch + (5, p.input_dim))
        h0 = rng.normal(size=batch + (p.hidden_dim,))
        trace = forward(p, h0, xs)

        assert np.array_equal(trace.hs[0], h0)
        h = h0
        for t in range(5):
            h = gru_step(p, h, xs[..., t, :]).h
            assert np.array_equal(trace.hs[t + 1], h)
        assert np.array_equal(trace.h, h)
        assert np.array_equal(trace.y_hat, readout(p, h))
        assert trace.y_hat.shape == batch + (2,)


def test_forward_records_hidden_chain():
    rng = np.random.default_rng(11)
    small = init_params(3, 2, 3, rng)
    wide = init_params(4, 32, 3, np.random.default_rng(111))
    for p, batch in [(small, ()), (small, (5,)), (small, (1,)), (wide, (32,))]:
        d, h = p.input_dim, p.hidden_dim
        xs = rng.normal(size=batch + (4, d))
        trace = forward(p, np.zeros(batch + (h,)), xs)
        assert trace.xs.shape == (4,) + batch + (d,)
        assert np.array_equal(trace.xs, np.moveaxis(xs, -2, 0))
        assert trace.hs.shape == (5,) + batch + (h,)
        for gate in (trace.r, trace.h_tilde, trace.z, trace.u):
            assert gate.shape == (4,) + batch + (h,)
        for t in range(4):
            step = gru_step(p, trace.hs[t], xs[..., t, :])
            for name in ("r", "h_tilde", "z", "u"):
                assert np.array_equal(getattr(trace, name)[t], getattr(step, name)[0])
            assert np.array_equal(trace.hs[t + 1], step.h)


def test_final_state_is_forwards_last_state_bit_for_bit():
    rng = np.random.default_rng(21)
    for h in (1, 8, 32):
        p = init_params(4, h, 4, rng)
        # one sequence, then batches; at H=8 and B=32 the last chunk is short
        for batch in ((), (1,), (32,), (188,)):
            xs = rng.normal(size=batch + (144, 4))
            h0 = rng.normal(size=batch + (h,))
            got, trace = final_state(p, h0, xs), forward(p, h0, xs)
            assert got.shape == batch + (h,)
            assert got.tobytes() == trace.h.tobytes()
            assert readout(p, got).tobytes() == trace.y_hat.tobytes()


def test_final_state_matches_scalar_oracle_at_every_chunk_length(monkeypatch):
    rng = np.random.default_rng(8)
    p = init_params(3, 5, 3, rng)
    xs = rng.normal(size=(7, 3))
    _, ref_h = forward_scalar(weights_as_lists(p), [0.0] * 5, xs.tolist())
    want = forward(p, np.zeros(5), xs).h
    # a chunk of one slot, three slots (a short last chunk) and all seven
    for chunk_bytes in (1, 3 * 8 * 5 * 5, 10**9):
        monkeypatch.setattr(gru, "CHUNK_BYTES", chunk_bytes)
        got = final_state(p, np.zeros(5), xs)
        assert np.max(np.abs(got - np.array(ref_h))) <= 1e-12
        assert got.tobytes() == want.tobytes()


def test_stacked_final_state_is_each_models_final_state_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(23)
    models = [init_params(4, 8, 4, rng) for _ in range(5)]
    stack = GruParams(**{name: np.stack([getattr(m, name) for m in models])
                         for name in gru.PARAM_FIELDS})
    xs = rng.normal(size=(9, 4))
    want = [forward(m, np.zeros(8), xs).h for m in models]
    # the whole sequence in one chunk, then a chunk of one slot
    for chunk_bytes in (gru.CHUNK_BYTES, 1):
        monkeypatch.setattr(gru, "CHUNK_BYTES", chunk_bytes)
        got = gru.stacked_final_state(stack, xs)
        assert got.shape == (5, 1, 8)
        for k, h in enumerate(want):
            assert got[k, 0].tobytes() == h.tobytes()


# (dtype, batch, T, H) of the cases pinned to the earlier time loops: fit's
# float32 batch, a batch of one, H = 1, an odd H, one slot, and float64
# single sequences drawn as the gradient check draws them
LOOP_CASES = [
    (np.float32, (32,), 144, 32),
    (np.float32, (1,), 144, 32),
    (np.float32, (5,), 20, 1),
    (np.float32, (6,), 30, 7),
    (np.float32, (4,), 1, 8),
    (np.float64, (), None, 4),
    (np.float64, (), None, 8),
]


def loop_case(dtype, batch, n_steps, h, seed=0):
    """A model, initial state, inputs and targets for one LOOP_CASES entry.

    A single float64 sequence (n_steps None) is drawn as `cdrsweep
    gradcheck` draws its first model (length, parameters, inputs, target)
    and starts from a zero state; the others get inputs in [0, 1), like
    fit's normalized rows.
    """
    rng = np.random.default_rng(seed)
    if n_steps is None:
        n_steps = int(rng.integers(3, 11))
        p = init_params(4, h, 4, rng)
        return p, np.zeros(h), rng.normal(size=(n_steps, 4)), rng.normal(size=(4,))
    p = init_params(4, h, 4, rng).astype(dtype)
    h0 = (0.5 * rng.normal(size=batch + (h,))).astype(dtype)
    xs = rng.random(batch + (n_steps, 4)).astype(dtype)
    return p, h0, xs, rng.random(batch + (4,)).astype(dtype)


def case_id(case):
    dtype, batch, n_steps, h = case
    return f"{np.dtype(dtype).name}-B{batch}-T{n_steps}-H{h}"


@pytest.mark.parametrize("case", LOOP_CASES, ids=case_id)
def test_forward_and_final_states_match_the_earlier_loop_bit_for_bit(case, monkeypatch):
    p, h0, xs, _ = loop_case(*case)
    want = dict(zip(("hs", "ru", "h_tilde", "z"), forward_loop(p, h0, xs)))
    trace = forward(p, h0, xs)
    for name, arr in want.items():
        got = getattr(trace, name)
        assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), name
    assert final_state(p, h0, xs).tobytes() == want["hs"][-1].tobytes()

    # three models of the case's shapes, run on its first sequence as a stack
    models = [p] + [init_params(4, p.hidden_dim, 4, np.random.default_rng(k)).astype(
        p.W_r.dtype) for k in (1, 2)]
    stack = GruParams(**{name: np.stack([getattr(m, name) for m in models])
                         for name in gru.PARAM_FIELDS})
    seq = xs.reshape((-1,) + xs.shape[-2:])[0]
    stacked_want = forward_loop(stack, np.zeros((3, 1, p.hidden_dim)), seq)[0][-1]
    # the whole sequence in one chunk, then chunks of one slot
    for chunk_bytes in (gru.CHUNK_BYTES, 1):
        monkeypatch.setattr(gru, "CHUNK_BYTES", chunk_bytes)
        assert gru.stacked_final_state(stack, seq).tobytes() == stacked_want.tobytes()
        assert final_state(p, h0, xs).tobytes() == want["hs"][-1].tobytes()


def test_subnormal_gate_weights_keep_the_earlier_loops_bits():
    # The [r | u] weights are halved once instead of each pre-activation at
    # every step, which is exact outside the subnormal range. Planted here:
    # every [r | u] weight and bias an odd multiple of the least float32
    # subnormal, so halving rounds them (the caveat is live), and the gate
    # pre-activations are subnormal. Their gates still keep the bits, since
    # 1 + tanh(a) rounds to 1 for any subnormal a: the difference stays in
    # the pre-activation, which the trace does not keep.
    rng = np.random.default_rng(5)
    p, h0, xs, _ = loop_case(np.float32, (8,), 12, 6, seed=5)
    least = np.float32(np.finfo(np.float32).smallest_subnormal)
    for name in ("W_r", "R_r", "b_r", "W_u", "R_u", "b_u"):
        shape = getattr(p, name).shape
        odd = (2 * rng.integers(1, 50, size=shape) + 1).astype(np.float32)
        setattr(p, name, odd * least)
    w_in_ru = gru._step_weights(p)[0]
    assert w_in_ru.dtype == np.float32
    assert np.any(w_in_ru * 2 != np.concatenate([p.R_r, p.R_u]).T)
    want = dict(zip(("hs", "ru", "h_tilde", "z"), forward_loop(p, h0, xs)))
    assert np.all(want["ru"] == 0.5)
    trace = forward(p, h0, xs)
    for name, arr in want.items():
        assert getattr(trace, name).tobytes() == arr.tobytes(), name


def test_final_state_rejects_what_forward_rejects():
    p = init_params(3, 4, 2, np.random.default_rng(0))
    with pytest.raises(EmptySequenceError):
        final_state(p, np.zeros(4), np.empty((0, 3)))
    for h0, xs in ((np.zeros(5), np.zeros((2, 3))), (np.zeros(4), np.zeros((2, 5, 3))),
                   (np.zeros((2, 4)), np.zeros((3, 5, 3))), (np.zeros(4), 0.0)):
        with pytest.raises(DimensionMismatchError):
            final_state(p, h0, xs)


def test_empty_sequence_rejected():
    p = zero_params()
    with pytest.raises(EmptySequenceError):
        forward(p, np.zeros(1), np.empty((0, 1)))


def test_step_rejects_wrong_shapes():
    p = init_params(3, 4, 2, np.random.default_rng(0))
    with pytest.raises(DimensionMismatchError):
        gru_step(p, np.zeros(5), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        gru_step(p, np.zeros(4), np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        gru_step(p, np.zeros(4), 0.0)
    with pytest.raises(DimensionMismatchError):
        readout(p, np.zeros(3))
    # a batch: the leading axes of state and input must agree, and be one axis
    assert gru_step(p, np.zeros((2, 4)), np.zeros((2, 3))).h.shape == (2, 4)
    with pytest.raises(DimensionMismatchError):
        gru_step(p, np.zeros((2, 4)), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        gru_step(p, np.zeros(4), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        gru_step(p, np.zeros((1, 2, 4)), np.zeros((1, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        forward(p, np.zeros(4), np.zeros((2, 5, 3)))
    with pytest.raises(DimensionMismatchError):
        forward(p, np.zeros(4), 0.0)
    with pytest.raises(DimensionMismatchError):
        readout(p, np.zeros((2, 3)))


def test_validate_catches_bad_shapes_and_nan():
    p = init_params(3, 4, 2, np.random.default_rng(1))
    p.validate()
    p.b_z = np.zeros(5)
    with pytest.raises(DimensionMismatchError):
        p.validate()
    p.b_z = np.zeros(4)
    p.W_r[0, 0] = np.nan
    with pytest.raises(DimensionMismatchError):
        p.validate()


def test_init_params_ranges_and_determinism():
    p = init_params(4, 16, 4, np.random.default_rng(9))
    bound = 1.0 / np.sqrt(16)
    for name in ("W_r", "R_r", "W_z", "R_z", "W_u", "R_u", "W_out"):
        arr = getattr(p, name)
        assert np.all(np.abs(arr) <= bound)
        assert np.any(arr != 0)
    for name in ("b_r", "b_z", "b_u", "b_out"):
        assert np.all(getattr(p, name) == 0)

    q = init_params(4, 16, 4, np.random.default_rng(9))
    for name, arr in p.arrays().items():
        assert np.array_equal(arr, getattr(q, name))


def test_init_params_rejects_a_dimension_below_one():
    rng = np.random.default_rng(0)
    for name, dims in (("input_dim", (0, 3, 4)), ("hidden_dim", (4, 0, 4)),
                       ("hidden_dim", (4, -3, 4)), ("output_dim", (4, 3, -1))):
        with pytest.raises(DimensionMismatchError, match=f"^{name} must be at least 1"):
            init_params(*dims, rng)


def test_sigmoid_stable_at_extremes():
    with np.errstate(over="raise"):
        out = sigmoid(np.array([-1e4, -30.0, 0.0, 30.0, 1e4]))
    assert out[0] == 0.0
    assert abs(out[2] - 0.5) == 0.0
    assert out[4] == 1.0
    assert np.all(np.diff(out) >= 0)
    with np.errstate(all="raise"):
        ends = sigmoid(np.array([-np.inf, -1e308, 1e308, np.inf]))
    assert ends.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_sigmoid_matches_direct_formula_midrange():
    x = np.linspace(-20, 20, 201)
    direct = 1.0 / (1.0 + np.exp(-x))
    assert np.max(np.abs(sigmoid(x) - direct)) < 1e-15


def test_sigmoid_handles_scalars_and_matrices():
    assert sigmoid(0.0).shape == ()
    assert float(sigmoid(0.0)) == 0.5
    m = sigmoid(np.array([[0.0, 100.0], [-100.0, 0.0]]))
    assert m.shape == (2, 2)
    assert m[0, 1] == 1.0
