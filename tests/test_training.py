import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from cdrsweep import (
    DimensionMismatchError,
    DivergedLossError,
    EmptySplitError,
    NonFiniteInputError,
    Normalizer,
    PerSlotPolicy,
    SectorSeries,
    ShapeMismatchError,
    TraceMismatchError,
    TrainConfig,
    backward,
    dumps_model,
    evaluate,
    fit,
    forward,
    grad_check,
    grad_check_by_tensor,
    init_params,
    loads_model,
    make_windows,
    mse,
    predict_next,
    synthetic_series,
)
from cdrsweep import gru, training
from cdrsweep.ingest import cut_windows

from _oracles import (
    backward_loop,
    forward_scalar,
    grad_check_loop,
    mse_scalar,
    weights_as_lists,
)
from test_gru import LOOP_CASES, case_id, loop_case, zero_params


def small_dataset(n_slots=60, window=6, seed=0, fraction=0.8):
    rng = np.random.default_rng(seed)
    t = np.arange(n_slots)
    lam = 5.0 + 4.0 * (1.0 + np.sin(2 * np.pi * t / 24)[:, None] + 0.2 * rng.normal(size=(n_slots, 4)))
    counts = np.clip(np.rint(lam), 0, None).astype(np.int64)
    series = SectorSeries(t0_ms=0, counts=counts)
    return make_windows(series, window_len=window, train_fraction=fraction)


def split_arrays(ds):
    """The (windows, targets) of the training split and of the test split, cut from ds.rows."""
    w, split = ds.window_len, ds.split_index
    windows, targets = cut_windows(ds.rows, w, w, len(ds.rows) - 1), ds.rows[w:]
    return (windows[:split], targets[:split]), (windows[split:], targets[split:])


def test_mse_matches_hand_value_and_oracle():
    assert mse(np.array([3.0, 0, 0, 0]), np.array([5.0, 0, 0, 0])) == 1.0
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    assert abs(mse(a, b) - mse_scalar(a.tolist(), b.tolist())) < 1e-14


def test_mse_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        mse(np.zeros(4), np.zeros(5))
    with pytest.raises(ShapeMismatchError):
        mse(np.zeros((2, 4)), np.zeros(4))


def test_normalizer_minmax_and_roundtrip():
    values = np.array([[0.0, 10.0, 5.0, 7.0],
                       [4.0, 30.0, 5.0, 3.0],
                       [2.0, 20.0, 5.0, 11.0]])
    norm = Normalizer.fit_minmax(values)
    assert norm.offset.tolist() == [0.0, 10.0, 5.0, 3.0]
    assert norm.scale.tolist() == [4.0, 20.0, 1.0, 8.0]  # constant col -> scale 1

    scaled = norm.normalize(values)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0
    assert np.max(np.abs(norm.denormalize(scaled) - values)) < 1e-12

    with pytest.raises(ValueError):
        Normalizer(offset=np.zeros(4), scale=np.array([1.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalizer_rejects_non_finite_values(bad):
    with pytest.raises(NonFiniteInputError):
        Normalizer(offset=np.zeros(4), scale=np.array([bad, 1.0, 1.0, 1.0]))
    with pytest.raises(NonFiniteInputError):
        Normalizer(offset=np.array([0.0, 0.0, bad, 0.0]), scale=np.ones(4))


def test_backward_matches_central_differences():
    # independent numeric check, written out longhand rather than via grad_check
    rng = np.random.default_rng(123)
    p = init_params(3, 4, 3, rng)
    for arr in p.arrays().values():
        arr += rng.normal(scale=0.2, size=arr.shape)
    xs = rng.normal(size=(6, 3))
    y = rng.normal(size=3)

    _, grads = backward(p, forward(p, np.zeros(4), xs), y)

    eps = 1e-6
    for name, arr in p.arrays().items():
        analytic = getattr(grads, name)
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + eps
            up = mse(forward(p, np.zeros(4), xs).y_hat, y)
            flat[idx] = saved - eps
            down = mse(forward(p, np.zeros(4), xs).y_hat, y)
            flat[idx] = saved
            numeric = (up - down) / (2 * eps)
            a = analytic.reshape(-1)[idx]
            assert abs(a - numeric) <= 1e-6 * max(1.0, abs(a), abs(numeric)), name


def test_backward_matches_central_differences_at_a_wide_shape():
    # a batch over a longer sequence and a wider state, a few sampled
    # entries per tensor, at the tolerance of the full check above
    rng = np.random.default_rng(124)
    p = init_params(4, 16, 4, rng)
    for arr in p.arrays().values():
        arr += rng.normal(scale=0.2, size=arr.shape)
    X = rng.normal(size=(4, 40, 4))
    Y = rng.normal(size=(4, 4))
    h0 = np.zeros((4, 16))

    _, grads = backward(p, forward(p, h0, X), Y)

    eps = 1e-6
    for name, arr in p.arrays().items():
        analytic = getattr(grads, name).reshape(-1)
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            saved = flat[idx]
            flat[idx] = saved + eps
            up = mse(forward(p, h0, X).y_hat, Y)
            flat[idx] = saved - eps
            down = mse(forward(p, h0, X).y_hat, Y)
            flat[idx] = saved
            numeric = (up - down) / (2 * eps)
            a = analytic[idx]
            assert abs(a - numeric) <= 1e-6 * max(1.0, abs(a), abs(numeric)), name


def test_backward_loss_equals_mse_of_trace():
    rng = np.random.default_rng(5)
    p = init_params(2, 3, 2, rng)
    xs = rng.normal(size=(4, 2))
    y = rng.normal(size=2)
    trace = forward(p, np.zeros(3), xs)
    loss, _ = backward(p, trace, y)
    assert loss == mse(trace.y_hat, y)


def test_backward_rejects_mismatched_target_and_trace():
    rng = np.random.default_rng(6)
    p = init_params(2, 3, 2, rng)
    trace = forward(p, np.zeros(3), rng.normal(size=(4, 2)))
    with pytest.raises(TraceMismatchError):
        backward(p, trace, np.zeros(3))
    other = init_params(2, 5, 2, rng)
    with pytest.raises(TraceMismatchError):
        backward(other, trace, np.zeros(2))
    # a batched trace needs one target row per batch member
    batched = forward(p, np.zeros((4, 3)), rng.normal(size=(4, 5, 2)))
    for target in (np.zeros(2), np.zeros((3, 2)), np.zeros((1, 4, 2))):
        with pytest.raises(TraceMismatchError):
            backward(p, batched, target)
    with pytest.raises(TraceMismatchError):
        backward(p, trace, np.zeros((1, 2)))
    # the hidden chain of a batch of four with the inputs of a batch of three
    mixed = dataclasses.replace(batched, xs=np.zeros((5, 3, 2)))
    for target in (np.zeros((4, 2)), np.zeros((3, 2))):
        with pytest.raises(TraceMismatchError):
            backward(p, mixed, target)


def test_grad_check_accepts_healthy_model():
    rng = np.random.default_rng(7)
    p = init_params(4, 6, 4, rng)
    sample = (rng.normal(size=(5, 4)), rng.normal(size=4))
    per_tensor = grad_check_by_tensor(p, sample, epsilon=1e-5)
    assert set(per_tensor) == set(p.arrays())
    assert grad_check(p, sample, epsilon=1e-5) == max(per_tensor.values())
    assert grad_check(p, sample, epsilon=1e-5) < 1e-6


def test_grad_check_flags_a_broken_gradient(monkeypatch):
    import cdrsweep.training as training_mod

    rng = np.random.default_rng(8)
    p = init_params(2, 3, 2, rng)
    xs, y = rng.normal(size=(3, 2)), rng.normal(size=2)
    assert grad_check(p, (xs, y), 1e-5) < 1e-6

    original = training_mod.backward

    def crooked(params, trace, target):
        loss, g = original(params, trace, target)
        g.W_z *= 1.01  # a one-percent analytic bug must not slip through
        return loss, g

    monkeypatch.setattr(training_mod, "backward", crooked)
    assert training_mod.grad_check(p, (xs, y), 1e-5) > 1e-3

    def poisoned(params, trace, target):
        loss, g = original(params, trace, target)
        g.W_z[1, 2] = np.nan  # NaN must not vanish from the worst error
        return loss, g

    monkeypatch.setattr(training_mod, "backward", poisoned)
    per_tensor = training_mod.grad_check_by_tensor(p, (xs, y), 1e-5)
    assert per_tensor["W_z"] == np.inf
    assert per_tensor["W_r"] < 1e-6
    assert training_mod.grad_check(p, (xs, y), 1e-5) == np.inf


def test_stacked_central_differences_match_the_per_scalar_loop_bit_for_bit(monkeypatch):
    # criterion 1's battery. At the default bound a W tensor's 128 moved
    # models at H=8 walk time in chunks of 6 slots; the small bound splits
    # every tensor of more than 3 scalars into several stacks of 3 + 3 models.
    rng = np.random.default_rng(np.random.SeedSequence(101))
    for i in range(20):
        hidden = (4, 8)[i % 2]
        p = init_params(4, hidden, 4, rng)
        xs = rng.normal(size=(int(rng.integers(2, 11)), 4))
        y = rng.normal(size=4)
        worst, losses = grad_check_loop(p, (xs, y), 1e-5)
        for chunk_bytes in (gru.CHUNK_BYTES, 8 * 5 * hidden * 6):
            monkeypatch.setattr(gru, "CHUNK_BYTES", chunk_bytes)
            for name, (loss_plus, loss_minus) in losses.items():
                got_plus, got_minus = training._perturbed_losses(p, xs, y, name, 1e-5)
                assert got_plus.tobytes() == loss_plus.tobytes(), (i, name)
                assert got_minus.tobytes() == loss_minus.tobytes(), (i, name)
            assert grad_check_by_tensor(p, (xs, y), 1e-5) == worst
            monkeypatch.undo()


def test_grad_check_only_reads_the_parameters():
    rng = np.random.default_rng(8)
    p = init_params(3, 4, 3, rng)
    sample = (rng.normal(size=(5, 3)), rng.normal(size=3))
    before = {name: a.tobytes() for name, a in p.arrays().items()}
    want = grad_check_by_tensor(p, sample, 1e-5)
    assert {name: a.tobytes() for name, a in p.arrays().items()} == before
    for a in p.arrays().values():
        a.setflags(write=False)
    assert grad_check_by_tensor(p, sample, 1e-5) == want


def test_an_overflowing_moved_loss_is_an_infinite_error_without_a_warning():
    rng = np.random.default_rng(8)
    p = init_params(2, 3, 2, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        per_tensor = grad_check_by_tensor(
            p, (rng.normal(size=(3, 2)), rng.normal(size=2)), 1e300)
    # a readout weight of 1e300 squares past the float range
    assert per_tensor["W_out"] == per_tensor["b_out"] == np.inf
    assert all(np.isfinite(per_tensor[name]) for name in p.arrays()
               if name not in ("W_out", "b_out"))


@pytest.mark.parametrize("epsilon", [0.0, -1e-5, np.nan, np.inf])
def test_grad_check_rejects_a_bad_epsilon(epsilon):
    rng = np.random.default_rng(8)
    p = init_params(2, 3, 2, rng)
    with pytest.raises(ValueError, match="epsilon"):
        grad_check_by_tensor(p, (rng.normal(size=(3, 2)), rng.normal(size=2)), epsilon)


def test_batched_forward_matches_per_sequence():
    rng = np.random.default_rng(9)
    p = init_params(4, 5, 4, rng)
    X = rng.normal(size=(7, 6, 4))
    out = forward(p, np.zeros((7, 5)), X)
    for b in range(7):
        ref_y, ref_h = forward_scalar(weights_as_lists(p), [0.0] * 5, X[b].tolist())
        assert np.max(np.abs(out.y_hat[b] - np.array(ref_y))) < 1e-12
        assert np.max(np.abs(out.h[b] - np.array(ref_h))) < 1e-12


def test_batched_backward_is_mean_of_sequence_gradients():
    rng = np.random.default_rng(10)
    p = init_params(3, 4, 3, rng)
    X = rng.normal(size=(5, 6, 3))
    Y = rng.normal(size=(5, 3))
    h0 = np.zeros((5, 4))

    loss_b, g_b = backward(p, forward(p, h0, X), Y)

    # central differences of the batch-mean MSE, written out longhand
    eps = 1e-6
    for name, arr in p.arrays().items():
        analytic = getattr(g_b, name)
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + eps
            up = mse(forward(p, h0, X).y_hat, Y)
            flat[idx] = saved - eps
            down = mse(forward(p, h0, X).y_hat, Y)
            flat[idx] = saved
            numeric = (up - down) / (2 * eps)
            a = analytic.reshape(-1)[idx]
            assert abs(a - numeric) <= 1e-6 * max(1.0, abs(a), abs(numeric)), name

    per_seq_losses = []
    sums = {name: np.zeros_like(arr) for name, arr in p.arrays().items()}
    for b in range(5):
        loss, g = backward(p, forward(p, np.zeros(4), X[b]), Y[b])
        per_seq_losses.append(loss)
        for name, arr in g.arrays().items():
            sums[name] += arr
    assert abs(loss_b - np.mean(per_seq_losses)) < 1e-12
    for name, total in sums.items():
        assert np.max(np.abs(getattr(g_b, name) - total / 5)) < 1e-12, name


def test_float32_backward_matches_float64_per_tensor():
    # fit's step at its own shape: B=32, T=144, H=32, inputs in [0, 1]. The
    # relative error of each float32 gradient tensor, in the Euclidean norm,
    # read 2e-7 to 4.4e-7 over five seeds; the bound is 1e-5, about 80 ulps
    rng = np.random.default_rng(12)
    p = init_params(4, 32, 4, rng)
    for arr in p.arrays().values():
        arr += rng.normal(scale=0.1, size=arr.shape)
    X = rng.uniform(size=(32, 144, 4)).astype(np.float32)
    Y = rng.uniform(size=(32, 4)).astype(np.float32)
    loss64, g64 = backward(p, forward(p, np.zeros((32, 32)), X), Y)

    p32 = p.astype(np.float32)
    # float64 state and targets do not upcast the float32 step
    trace = forward(p32, np.zeros((32, 32)), X.astype(np.float64))
    loss32, g32 = backward(p32, trace, Y.astype(np.float64))
    assert isinstance(loss32, float)
    assert abs(loss32 - loss64) <= 1e-5 * loss64
    for name, want in g64.arrays().items():
        got = getattr(g32, name)
        assert got.dtype == np.float32, name
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want), name

    # a trace of another dtype than the parameters is refused, not mixed in
    with pytest.raises(TraceMismatchError, match="dtype"):
        backward(p, trace, Y)


def test_fit_steps_in_float32_in_one_set_of_buffers(monkeypatch):
    ds = small_dataset()
    cfg = TrainConfig(epochs=2, steps_per_epoch=4, batch_size=8, seed=3)
    traces, real_forward = [], gru.forward

    def recording_forward(p, h0, xs, out=None):
        trace = real_forward(p, h0, xs, out=out)
        assert p.W_r.dtype == trace.hs.dtype == trace.xs.dtype == np.float32
        traces.append(trace)
        return trace

    monkeypatch.setattr(gru, "forward", recording_forward)
    p, norm, _ = fit(ds, cfg, hidden_dim=6)
    assert len(traces) == 8
    # every step computes into the first step's trace and delta buffers
    for name in ("hs", "ru", "h_tilde", "z", "da_ru", "da_z"):
        first = getattr(traces[0], name)
        assert first.dtype == np.float32, name
        assert all(getattr(t, name) is first for t in traces), name
    # the master weights come back float64 and round-trip through model.txt
    back, back_norm = loads_model(dumps_model(p, norm))
    for name, arr in p.arrays().items():
        assert arr.dtype == np.float64, name
        assert np.array_equal(arr, getattr(back, name)), name
    assert np.array_equal(norm.offset, back_norm.offset)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_reused_trace_gives_the_bits_of_a_fresh_one(dtype):
    rng = np.random.default_rng(13)
    p = init_params(3, 5, 3, rng).astype(dtype)
    h0 = np.zeros((4, 5))
    first, second = rng.normal(size=(2, 4, 7, 3))
    y = rng.normal(size=(4, 3))
    fresh = forward(p, h0, second)
    want_loss, want = backward(p, fresh, y)

    old = forward(p, h0, first)
    backward(p, old, y)
    reused = forward(p, h0, second, out=old)
    assert reused.hs is old.hs and reused.da_ru is old.da_ru
    for name in ("hs", "ru", "h_tilde", "z", "y_hat"):
        assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
    loss, g = backward(p, reused, y)
    assert loss == want_loss
    for name, arr in want.arrays().items():
        assert np.array_equal(getattr(g, name), arr), name
        # the gradients do not alias the delta buffers the next pass overwrites
        assert not np.shares_memory(getattr(g, name), reused.da_ru)
        assert not np.shares_memory(getattr(g, name), reused.da_z)

    # a trace of another length, batch or dtype cannot lend its buffers
    other = p.astype(np.float32 if dtype == np.float64 else np.float64)
    for q, bad_h0, bad_xs in ((p, h0, second[:, :6]), (p, h0[:3], second[:3]),
                              (other, h0, second)):
        with pytest.raises(DimensionMismatchError, match="out holds"):
            forward(q, bad_h0, bad_xs, out=reused)


@pytest.mark.parametrize("case", LOOP_CASES, ids=case_id)
def test_backward_matches_the_earlier_loop_bit_for_bit(case):
    p, h0, xs, y = loop_case(*case)
    trace = forward(p, h0, xs)
    want_loss, want, (want_da_ru, want_da_z) = backward_loop(p, trace, y)
    for _ in range(2):  # a second pass over the same trace writes the same deltas
        loss, g = backward(p, trace, y)
        assert loss == want_loss
        for name, arr in want.items():
            got = getattr(g, name)
            assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), name
        assert trace.da_ru.tobytes() == want_da_ru.tobytes()
        assert trace.da_z.tobytes() == want_da_z.tobytes()


def test_a_training_step_allocates_no_trace_sized_buffer():
    # fit's size: a (T, B, H) float32 buffer is 0.6 MB. The step's own
    # temporaries (the weight layouts, a few (B, H) rows, the gradients)
    # peak at about 50 KB in forward and 125 KB in backward.
    p, h0, xs, y = loop_case(np.float32, (32,), 144, 32)
    trace = forward(p, h0, xs)
    backward(p, trace, y)
    for run in (lambda: forward(p, h0, xs, out=trace), lambda: backward(p, trace, y)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


def test_fit_is_bit_reproducible_and_seed_sensitive():
    ds = small_dataset()
    cfg = TrainConfig(epochs=2, steps_per_epoch=5, batch_size=8, seed=3)
    p1, n1, r1 = fit(ds, cfg, hidden_dim=6)
    p2, n2, r2 = fit(ds, cfg, hidden_dim=6)
    for name, arr in p1.arrays().items():
        assert np.array_equal(arr, getattr(p2, name)), name
    assert r1.losses == r2.losses
    assert np.array_equal(n1.offset, n2.offset)

    p3, _, _ = fit(ds, TrainConfig(epochs=2, steps_per_epoch=5, batch_size=8, seed=4),
                   hidden_dim=6)
    assert any(not np.array_equal(arr, getattr(p3, name))
               for name, arr in p1.arrays().items())


def test_fit_normalizer_comes_from_train_split_only():
    ds = small_dataset()
    _, norm, _ = fit(ds, TrainConfig(epochs=1, steps_per_epoch=2, batch_size=4, seed=0),
                     hidden_dim=4)
    (train_x, train_y), _ = split_arrays(ds)
    pool = np.concatenate([train_x.reshape(-1, 4), train_y])
    assert np.array_equal(norm.offset, pool.min(axis=0))
    span = pool.max(axis=0) - pool.min(axis=0)
    assert np.array_equal(norm.scale, np.where(span > 0, span, 1.0))


def test_fit_normalizes_the_rows_once_with_the_window_formula(monkeypatch):
    # the normalizer of the training windows and targets, pooled as before;
    # the first training window's first row holds a minimum, the last
    # training target a maximum, and the first test target a larger one
    counts = synthetic_series(400, seed=17).counts + 10
    split_end = int(0.8 * (400 - 24)) + 24
    counts[0, 0], counts[split_end - 1, 1], counts[split_end, 2] = 0, 10**6, 10**7
    ds = make_windows(SectorSeries(t0_ms=0, counts=counts), window_len=24, train_fraction=0.8)
    assert ds.split_index + 24 == split_end
    shapes = []
    normalize = Normalizer.normalize

    def spy(self, values):
        shapes.append(np.shape(values))
        return normalize(self, values)

    monkeypatch.setattr(Normalizer, "normalize", spy)
    _, norm, _ = fit(ds, TrainConfig(epochs=1, steps_per_epoch=2, batch_size=4, seed=0),
                     hidden_dim=4)
    (train_x, train_y), _ = split_arrays(ds)
    pooled = Normalizer.fit_minmax(np.concatenate([train_x.reshape(-1, 4), train_y]))
    assert norm.offset.tobytes() == pooled.offset.tobytes()
    assert norm.scale.tobytes() == pooled.scale.tobytes()
    # fit normalizes the (400, 4) rows, and its held-out evaluate the test
    # split's rows; neither normalizes a window
    assert shapes == [(400, 4), (400 - ds.split_index, 4)]


def test_evaluate_on_window_views_matches_contiguous_windows():
    ds = small_dataset(n_slots=120, window=8)
    p = init_params(4, 6, 4, np.random.default_rng(3))
    norm = Normalizer.fit_minmax(ds.rows)
    _, (test_x, _) = split_arrays(ds)
    xn = norm.normalize(np.ascontiguousarray(test_x))
    want = norm.denormalize(forward(p, np.zeros((xn.shape[0], 6)), xn).y_hat)
    assert evaluate(p, norm, ds).predictions.tobytes() == want.tobytes()


def test_fit_loss_history_length_and_decrease():
    ds = small_dataset(n_slots=120, window=8)
    cfg = TrainConfig(epochs=3, steps_per_epoch=20, batch_size=16, seed=1)
    _, _, report = fit(ds, cfg, hidden_dim=8)
    assert len(report.losses) == 60
    head = np.mean(report.losses[:10])
    tail = np.mean(report.losses[-10:])
    assert tail < head, f"loss did not move: {head} -> {tail}"
    lines = report.history_csv().splitlines()
    assert lines[0] == "step,epoch,loss,grad_norm,clipped"
    assert lines[1].startswith("0,0,")
    assert lines[21].startswith("20,1,")
    assert len(lines) == 61


@pytest.mark.parametrize("clip", [0.05, 5.0, None])
def test_history_records_the_pre_clip_norm_and_each_clip(clip):
    ds = small_dataset(n_slots=120, window=8)
    cfg = TrainConfig(epochs=2, steps_per_epoch=10, batch_size=16, seed=1,
                      gradient_clip_norm=clip)
    _, _, report = fit(ds, cfg, hidden_dim=8)
    rows = [line.split(",") for line in report.history_csv().splitlines()[1:]]
    assert len(rows) == 20
    norms = np.array([float(r[3]) for r in rows])
    clipped = np.array([int(r[4]) for r in rows])
    assert np.all(norms > 0) and set(clipped) <= {0, 1}
    assert np.array_equal(norms, report.grad_norms)
    assert np.array_equal(clipped == 1,
                          norms > clip if clip is not None else np.zeros(20, bool))
    # 0.05 is below every step's norm here and 5.0 above: both outcomes are seen
    assert clipped.all() if clip == 0.05 else not clipped.any()


def test_fit_diverges_cleanly_at_huge_learning_rate():
    # the step runs in float32: a gradient that overflows it ends the run
    # even while the loss, taken in float64, is still finite
    ds = small_dataset()
    for optimizer, learning_rate in (("sgd", 1e6), ("adam", 1e30)):
        cfg = TrainConfig(epochs=2, steps_per_epoch=50, batch_size=8,
                          learning_rate=learning_rate, optimizer=optimizer,
                          gradient_clip_norm=None, seed=0)
        with pytest.raises(DivergedLossError) as caught:
            fit(ds, cfg, hidden_dim=6)
        message = str(caught.value)
        assert re.search(r"at step \d+ \(epoch \d+,", message), message
        assert re.search(r"last finite loss=(none|\d\S*)", message), message
        assert "pre-clip gradient norm=" in message, message


def test_fit_rejects_bad_config_and_empty_split():
    ds = small_dataset()
    with pytest.raises(ValueError):
        fit(ds, TrainConfig(optimizer="rmsprop"), hidden_dim=4)
    with pytest.raises(ValueError):
        fit(ds, TrainConfig(epochs=0), hidden_dim=4)
    # a NaN or infinite rate would surface later as a misleading divergence,
    # and a NaN clip bound would silently never clip
    for bad in (dict(learning_rate=np.nan), dict(learning_rate=np.inf),
                dict(learning_rate=-np.inf), dict(gradient_clip_norm=np.nan),
                dict(gradient_clip_norm=0.0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            fit(ds, TrainConfig(**bad), hidden_dim=4)

    broken = small_dataset()
    broken.split_index = broken.n_sequences  # nothing held out
    with pytest.raises(EmptySplitError):
        fit(broken, TrainConfig(epochs=1, steps_per_epoch=1), hidden_dim=4)


def test_gradient_clipping_changes_the_run():
    # sgd feels the clip directly (adam largely renormalizes it away)
    ds = small_dataset()
    base = dict(epochs=1, steps_per_epoch=10, batch_size=8, seed=5,
                optimizer="sgd", learning_rate=0.05)
    _, _, loose = fit(ds, TrainConfig(gradient_clip_norm=None, **base), hidden_dim=6)
    _, _, huge = fit(ds, TrainConfig(gradient_clip_norm=1e9, **base), hidden_dim=6)
    _, _, tight = fit(ds, TrainConfig(gradient_clip_norm=1e-9, **base), hidden_dim=6)
    assert loose.losses == huge.losses  # threshold never reached
    assert tight.losses != loose.losses
    # clipped-to-nothing updates track a frozen-weights run batch for batch
    frozen = dict(base, learning_rate=1e-30)
    _, _, still = fit(ds, TrainConfig(gradient_clip_norm=None, **frozen), hidden_dim=6)
    assert np.allclose(tight.losses, still.losses, atol=1e-6)


def test_evaluate_with_frozen_model_predicts_the_offset():
    # zero weights keep h at 0, so the denormalized prediction is the offset
    ds = small_dataset()
    p = zero_params(h=3, d=4, o=4)
    norm = Normalizer(offset=np.array([1.0, 2.0, 3.0, 4.0]), scale=np.ones(4))
    res = evaluate(p, norm, ds)
    _, (test_x, test_y) = split_arrays(ds)
    assert np.max(np.abs(res.predictions - norm.offset)) < 1e-12
    expected = np.mean((norm.offset - test_y) ** 2)
    assert abs(res.mse_total - expected) < 1e-12

    persisted = test_x[:, -1, :]
    assert abs(res.persistence_mse_total - np.mean((persisted - test_y) ** 2)) < 1e-12
    assert res.mse_per_sector.shape == (4,)
    assert abs(res.mse_per_sector.mean() - res.mse_total) < 1e-12


def test_eval_table_lists_every_test_sequence():
    ds = small_dataset()
    p = zero_params(h=2, d=4, o=4)
    res = evaluate(p, Normalizer.identity(4), ds)
    lines = res.table_csv().splitlines()
    assert lines[0] == "seq_index,sector,prediction,truth"
    assert len(lines) == 1 + 4 * res.n_test
    assert lines[1].startswith("0,A,")
    assert lines[4].startswith("0,D,")
    assert lines[5].startswith("1,A,")


def test_predict_next_denormalizes_and_validates():
    p = zero_params(h=2, d=4, o=4)
    norm = Normalizer(offset=np.array([5.0, 6.0, 7.0, 8.0]), scale=np.ones(4))
    pred = predict_next(p, norm, np.zeros((10, 4)), 10, 10, 10)
    assert pred.shape == (1, 4)
    assert np.max(np.abs(pred - norm.offset)) < 1e-12
    with pytest.raises(ShapeMismatchError):
        predict_next(p, norm, np.zeros((10, 3)), 10, 10, 10)


def test_predict_next_matches_forward_on_contiguous_normalized_windows():
    counts = synthetic_series(400, seed=8).counts
    p = init_params(4, 6, 4, np.random.default_rng(11))
    norm = Normalizer.fit_minmax(counts[:300])
    for first, last in ((200, 200), (364, 399)):
        xn = np.stack([norm.normalize(counts[j - 24:j]) for j in range(first, last + 1)])
        want = norm.denormalize(forward(p, np.zeros((len(xn), 6)), xn).y_hat)
        got = predict_next(p, norm, counts, 24, first, last)
        assert got.shape == (last - first + 1, 4)
        assert got.tobytes() == want.tobytes()
    # one window as a batch of one gives the bits of the batch-less forward
    one = norm.denormalize(forward(p, np.zeros(6), xn[0]).y_hat)
    assert predict_next(p, norm, counts, 24, 364, 364)[0].tobytes() == one.tobytes()


def test_predict_next_allocates_no_stack_of_windows():
    counts = synthetic_series(2016, seed=4).counts
    p = init_params(4, 1, 4, np.random.default_rng(0))
    norm = Normalizer.fit_minmax(counts)
    n, w = 1872, 144
    tracemalloc.start()
    try:
        preds = predict_next(p, norm, counts, w, w, len(counts) - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert preds.shape == (n, 4)
    # a stack of the (1872, 144, 4) windows would be 8.6 MB, and a forward
    # trace (hs, [r | u], h_tilde, z) at H=1 another 10.8 MB
    assert peak < n * w * 4 * 8 // 2


def test_evaluate_keeps_no_forward_trace():
    # the benchmark's size: 188 held-out windows of 144 slots at H=32, where
    # a forward trace would take 35 MB
    ds = make_windows(synthetic_series(2016, seed=4), window_len=144, train_fraction=0.9)
    p = init_params(4, 32, 4, np.random.default_rng(0))
    norm = Normalizer.fit_minmax(ds.rows)
    tracemalloc.start()
    try:
        res = evaluate(p, norm, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.n_test == 188
    assert peak <= 2 * 2**20


def test_predict_next_on_a_stack_matches_per_window_calls():
    # the criterion 8 fixture: a skewed-load series and its trained forecaster
    series = synthetic_series(2016, seed=99, shares=(0.1, 0.1, 0.1, 0.7))
    ds = make_windows(series, window_len=144, train_fraction=0.9)
    p, norm, _ = fit(ds, TrainConfig(seed=0), hidden_dim=16)
    counts = series.counts
    start = counts.shape[0] - 36

    stacked = predict_next(p, norm, counts, 144, start, start + 35)
    one_by_one = np.stack([predict_next(p, norm, counts, 144, j, j)[0]
                           for j in range(start, start + 36)])
    assert stacked.shape == (36, 4)
    assert np.max(np.abs(stacked - one_by_one)) <= 1e-12 * np.max(np.abs(one_by_one))

    from_stack = PerSlotPolicy.from_values("predicted", stacked, np.random.default_rng(7))
    from_calls = PerSlotPolicy.from_values("predicted", one_by_one, np.random.default_rng(7))
    assert from_stack.schedules == from_calls.schedules

    with pytest.raises(ShapeMismatchError):
        predict_next(p, norm, counts[..., :3], 144, start, start + 35)
    with pytest.raises(ShapeMismatchError):
        predict_next(p, norm, counts[None], 144, start, start + 35)
