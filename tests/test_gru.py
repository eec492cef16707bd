import numpy as np
import pytest

from cdrsweep import (
    DimensionMismatchError,
    EmptySequenceError,
    GruParams,
    forward,
    gru_step,
    init_params,
    readout,
    sigmoid,
)

from _oracles import forward_scalar, gru_step_scalar, weights_as_lists


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
