"""Independent reference implementations used only by the tests.

Everything here is written with plain Python loops and math.* so it cannot
share bugs with the numpy code under test. Parameters come in as nested
lists (or anything indexable), never as the package's own dataclasses.
The exceptions are parse_raw_scalar and aggregate_scalar: the earlier
per-record ingest, kept as it was (one RawCdrRecord per counted line, one
accumulator update per record), which returns the package's ParseResult
and SectorSeries so the columnar path can be compared field by field.
draw_arrivals_scalar is the earlier arrival draw (one poisson call per
slot and sector, and one uniform call and one np.full per pair with
arrivals), reordered to the stream of the code it pins: every count first,
in slot-major order, then every pair's times. numpy's array-argument
poisson and uniform use up the stream one element at a time, so these
scalar calls draw the same values. grad_check_loop is the earlier
gradient check, kept as it was (two gru.forward calls per moved scalar)
except that it moves the scalars of a copy of the parameters.
write_sector_series_scalar is the earlier series writer (one datetime and
one str() per count, row by row), except that it renders each stamp's
fields itself with a four-digit year: strftime's %Y wrote the year 999 as
"999", where series.csv writes "0999".
synthetic_counts_one_draw is the earlier fixture draw, kept as it was (the
whole rate table, then one Poisson draw over it).
forward_loop and backward_loop are the earlier GRU time loops, kept as they
were (np.matmul for every product, and every factor of a slot computed
inside its step). They take the package's GruParams and ForwardTrace, and
pin the hoisted forward and backward to the same bits, not to a tolerance.
"""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from cdrsweep import gru
from cdrsweep.errors import EmptyInputError, UnknownSquareError
from cdrsweep.ingest import (
    _FIELD_DELIMITER,
    _MAX_FIELDS,
    ACTIVITY_NAMES,
    SECTOR_LABELS,
    SLOT_MS,
    ParseIssue,
    ParseResult,
    SectorMap,
    SectorSeries,
)


def sigmoid_scalar(a):
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def _mat_vec(m, v):
    return [sum(m[j][k] * v[k] for k in range(len(v))) for j in range(len(m))]


def gru_step_scalar(weights, h_prev, x):
    """One recurrence step, scalar loop-nest form.

    weights is a dict with keys W_r, R_r, b_r, W_z, R_z, b_z, W_u, R_u, b_u
    holding nested lists. Returns the new hidden state as a list.
    """
    n = len(h_prev)

    pre_r = _mat_vec(weights["W_r"], h_prev)
    in_r = _mat_vec(weights["R_r"], x)
    r = [sigmoid_scalar(pre_r[j] + in_r[j] + weights["b_r"][j]) for j in range(n)]

    h_tilde = [h_prev[j] * r[j] for j in range(n)]

    pre_z = _mat_vec(weights["W_z"], h_tilde)
    in_z = _mat_vec(weights["R_z"], x)
    z = [math.tanh(pre_z[j] + in_z[j] + weights["b_z"][j]) for j in range(n)]

    pre_u = _mat_vec(weights["W_u"], h_prev)
    in_u = _mat_vec(weights["R_u"], x)
    u = [sigmoid_scalar(pre_u[j] + in_u[j] + weights["b_u"][j]) for j in range(n)]

    return [(1.0 - u[j]) * h_prev[j] + u[j] * z[j] for j in range(n)]


def forward_scalar(weights, h0, xs):
    """Fold gru_step_scalar over xs, then apply the affine readout."""
    h = list(h0)
    for x in xs:
        h = gru_step_scalar(weights, h, list(x))
    out = _mat_vec(weights["W_out"], h)
    return [out[j] + weights["b_out"][j] for j in range(len(out))], h


def mse_scalar(y_hat, y):
    flat_a, flat_b = list(_flatten(y_hat)), list(_flatten(y))
    assert len(flat_a) == len(flat_b)
    return sum((a - b) ** 2 for a, b in zip(flat_a, flat_b)) / len(flat_a)


def _flatten(values):
    for v in values:
        if isinstance(v, (list, tuple)):
            yield from _flatten(v)
        else:
            yield v


def weights_as_lists(p):
    """Convert a GruParams into the nested-list dict the oracle consumes."""
    return {name: arr.tolist() for name, arr in p.arrays().items()}


def _step_weights_loop(p):
    """The earlier gru._step_weights, kept as it was."""
    def t(a):
        return a.swapaxes(-1, -2).copy()

    return (t(np.concatenate([p.R_r, p.R_u], axis=-2)),
            np.concatenate([p.b_r, p.b_u], axis=-1)[..., None, :],
            t(p.R_z), p.b_z[..., None, :],
            t(np.concatenate([p.W_r, p.W_u], axis=-2)), t(p.W_z))


def _run_loop(weights, x_rows, hs, ru, h_tilde, z):
    """The earlier gru._run, kept as it was (np.matmul for every product,
    the sigmoid's first halving inside the loop)."""
    w_in_ru, b_ru, w_in_z, b_z, w_ru_t, w_z_t = weights
    n_steps, h = len(x_rows), hs.shape[-1]
    models = w_in_z.shape[:-2]
    x_rows = x_rows.reshape((n_steps,) + (1,) * len(models) + x_rows.shape[1:])
    np.matmul(x_rows, w_in_ru, out=ru.reshape((n_steps,) + models + (-1, 2 * h)))
    ru += b_ru
    np.matmul(x_rows, w_in_z, out=z.reshape((n_steps,) + models + (-1, h)))
    z += b_z

    rec_ru, rec_z = np.empty(ru.shape[1:], ru.dtype), np.empty(hs.shape[1:], hs.dtype)
    for t in range(n_steps):
        h_prev, ru_t, h_tilde_t, z_t, h_next = hs[t], ru[t], h_tilde[t], z[t], hs[t + 1]
        ru_t += np.matmul(h_prev, w_ru_t, out=rec_ru)
        ru_t *= 0.5
        np.tanh(ru_t, out=ru_t)
        ru_t += 1.0
        ru_t *= 0.5
        r_t, u_t = ru_t[..., :h], ru_t[..., h:]
        np.multiply(h_prev, r_t, out=h_tilde_t)
        z_t += np.matmul(h_tilde_t, w_z_t, out=rec_z)
        np.tanh(z_t, out=z_t)
        np.subtract(z_t, h_prev, out=h_next)
        h_next *= u_t
        h_next += h_prev


def forward_loop(p, h0, xs):
    """hs, ru, h_tilde and z of the earlier one-chunk forward, time first.

    p is one model with xs of shape (T, D) or (B, T, D) and h0 of shape
    (H,) or (B, H), or a stack of K models (every array with a leading
    model axis) run on one (T, D) sequence from (K, 1, H) states, as
    gru.stacked_final_state runs it. Everything is in the dtype of p.
    """
    dtype = p.W_r.dtype
    xs = np.asarray(xs, dtype=dtype).swapaxes(0, -2)
    h0 = np.asarray(h0, dtype=dtype)
    n_steps = len(xs)
    hs = np.empty((n_steps + 1,) + h0.shape, dtype)
    hs[0] = h0
    ru = np.empty((n_steps,) + h0.shape[:-1] + (2 * h0.shape[-1],), dtype)
    h_tilde, z = np.empty((n_steps,) + h0.shape, dtype), np.empty((n_steps,) + h0.shape, dtype)
    _run_loop(_step_weights_loop(p), xs.reshape(n_steps, -1, xs.shape[-1]), hs, ru, h_tilde, z)
    return hs, ru, h_tilde, z


def backward_loop(p, trace, y):
    """The earlier training.backward, kept as it was (every factor of a
    slot's deltas computed inside its step, np.matmul for every product),
    except that it writes its deltas into buffers of its own, not the
    trace's. Returns the loss, the gradients as a dict in PARAM_FIELDS
    order, and the (da_ru, da_z) deltas.
    """
    from cdrsweep.training import mse

    dtype = p.W_r.dtype
    y = np.asarray(y, dtype=dtype)
    n_steps, h = len(trace.xs), p.hidden_dim
    y_hat = trace.y_hat
    loss = mse(y_hat, y)
    d_y = 2.0 * (y_hat - y) / y_hat.size
    dh = d_y @ p.W_out

    da_ru, da_z = np.empty_like(trace.ru), np.empty_like(trace.z)
    w_ru = np.concatenate([p.W_r, p.W_u])
    dh_tilde, tmp = np.empty(dh.shape, dtype), np.empty(dh.shape, dtype)
    tmp_ru = np.empty(da_ru.shape[1:], dtype)
    for t in reversed(range(n_steps)):
        h_prev, ru, z = trace.hs[t], trace.ru[t], trace.z[t]
        r, u = ru[..., :h], ru[..., h:]
        da_ru_t, da_z_t = da_ru[t], da_z[t]
        dr, du = da_ru_t[..., :h], da_ru_t[..., h:]

        np.subtract(z, h_prev, out=du)
        du *= dh
        np.multiply(z, z, out=da_z_t)
        np.subtract(1.0, da_z_t, out=da_z_t)
        da_z_t *= u
        da_z_t *= dh
        np.matmul(da_z_t, p.W_z, out=dh_tilde)
        np.multiply(dh_tilde, h_prev, out=dr)
        np.subtract(1.0, ru, out=tmp_ru)
        tmp_ru *= ru
        da_ru_t *= tmp_ru

        dh -= np.multiply(dh, u, out=tmp)
        dh += np.multiply(dh_tilde, r, out=tmp)
        dh += np.matmul(da_ru_t, w_ru, out=tmp)

    rows_ru, rows_z = da_ru.reshape(-1, 2 * h), da_z.reshape(-1, h)
    h_rows = trace.hs[:-1].reshape(-1, h)
    x_rows = trace.xs.reshape(-1, p.input_dim)
    g_w_ru, g_r_ru, g_b_ru = rows_ru.T @ h_rows, rows_ru.T @ x_rows, rows_ru.sum(axis=0)
    d_y_rows = d_y.reshape(-1, p.output_dim)
    g = {
        "W_r": g_w_ru[:h], "R_r": g_r_ru[:h], "b_r": g_b_ru[:h],
        "W_z": rows_z.T @ trace.h_tilde.reshape(-1, h), "R_z": rows_z.T @ x_rows,
        "b_z": rows_z.sum(axis=0),
        "W_u": g_w_ru[h:], "R_u": g_r_ru[h:], "b_u": g_b_ru[h:],
        "W_out": d_y_rows.T @ trace.h.reshape(-1, h), "b_out": d_y_rows.sum(axis=0),
    }
    return loss, g, (da_ru, da_z)


def sector_offsets_scalar(slots, sector, burst_us=250.0):
    """Start offsets of the SSBs aimed at one sector, ascending.

    slots[i] is the sector of SSB i, and the len(slots) SSBs of a burst
    share its burst_us evenly, so SSB i starts at i * (burst_us / len(slots)).
    """
    step = burst_us / len(slots)
    return [i * step for i, s in enumerate(slots) if s == sector]


def expected_delay_scalar(slots, shares, period):
    """Closed-form mean delay of a fixed schedule, one sector at a time.

    Each sector with a positive share adds share * (its mean wait for a
    uniform phase), integrated gap by gap: the lead-in to its first offset,
    the gaps between offsets, and the wrap to the next burst's first offset.
    """
    total = 0.0
    for s, share in enumerate(shares):
        if share == 0:
            continue
        offs = sector_offsets_scalar(slots, s)
        assert offs, f"sector {s} has positive share but no SSB slot"
        first, last = offs[0], offs[-1]
        acc = first ** 2 / 2.0
        acc += sum((b - a) ** 2 for a, b in zip(offs, offs[1:])) / 2.0
        acc += ((period + first - last) ** 2 - first ** 2) / 2.0
        total += share * acc / period
    return total


def expected_wait_brute(offsets, period, n_grid=2_000_000):
    """Mean wait to the next offset for a uniform phase, by dense quadrature.

    Midpoint rule over n_grid phases; independent of the closed form under
    test (which integrates the gaps analytically).
    """
    offs = sorted(offsets)
    total = 0.0
    for i in range(n_grid):
        phase = (i + 0.5) * period / n_grid
        nxt = None
        for o in offs:
            if o >= phase:
                nxt = o
                break
        if nxt is None:
            nxt = period + offs[0]
        total += nxt - phase
    return total / n_grid


def draw_arrivals_scalar(rates, horizon_us, slot_us, rng):
    """Poisson arrivals per (slot, sector), then one stream sorted by time.

    rates holds one row of per-sector rates per slot, or a single row for
    every slot; rng is the arrival substream. Every (slot, sector) pair
    draws its count first, in slot-major order; then each pair with any
    draws its times and labels them with one np.full.
    """
    n_slots = math.ceil(horizon_us / slot_us)
    pairs = []
    for k in range(n_slots):
        row = rates[0] if len(rates) == 1 else rates[k]
        start = k * slot_us
        dur_us = min(horizon_us, start + slot_us) - start
        for s in range(len(row)):
            pairs.append((start, dur_us, s, rng.poisson(row[s] * dur_us / 1e6)))
    times, sectors = [], []
    for start, dur_us, s, n in pairs:
        if n:
            times.append(rng.uniform(start, start + dur_us, size=n))
            sectors.append(np.full(n, s, dtype=np.int64))
    if not times:
        return np.empty(0), np.empty(0, dtype=np.int64)
    times = np.concatenate(times)
    sectors = np.concatenate(sectors)
    order = np.argsort(times, kind="stable")
    return times[order], sectors[order]


def simulate_scalar(arrivals, sectors, needed, offsets_table, burst_period_us, slot_us):
    """Per-UE access delays, one UE and one burst at a time.

    offsets_table[k][s] lists the ascending SSB start offsets aimed at
    sector s under slot k's schedule; needed[i] is the index (from 1) of the
    matching opportunity on which UE i finally detects. Bursts after the
    last slot keep its schedule.
    """
    from bisect import bisect_left

    last_slot = len(offsets_table) - 1
    bursts_per_slot = slot_us / burst_period_us
    delays = []
    for t, s, k in zip(arrivals, sectors, needed):
        b = int(t // burst_period_us)
        while True:
            slot_idx = min(int(b / bursts_per_slot), last_slot)
            offs = offsets_table[slot_idx][s]
            burst_start = b * burst_period_us
            phase = t - burst_start
            lo = bisect_left(offs, phase) if phase > 0 else 0
            avail = len(offs) - lo
            if k <= avail:
                delays.append(burst_start + offs[lo + k - 1] - t)
                break
            k -= avail
            b += 1
    return delays


def report_csv_scalar(runs, labels="ABCD"):
    """Per-UE CSV rows, one f-string per row.

    runs holds (policy, seed, sectors, arrival_us, delay_us) tuples whose
    last three entries are equal-length sequences.
    """
    lines = ["policy,seed,ue_id,sector,arrival_us,delay_us"]
    for policy, seed, sectors, arrival_us, delay_us in runs:
        for i in range(len(delay_us)):
            lines.append(f"{policy},{seed},{i},{labels[int(sectors[i])]},"
                         f"{arrival_us[i]:.3f},{delay_us[i]:.3f}")
    return "\n".join(lines) + "\n"


def grad_check_loop(p, sample, epsilon):
    """Central differences one scalar at a time, each with its own forwards.

    Returns the worst relative error per tensor, as grad_check_by_tensor
    does, and each tensor's (loss_plus, loss_minus) arrays.
    """
    from cdrsweep.training import backward, mse

    xs, y = sample
    xs = np.asarray(xs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h0 = np.zeros(p.hidden_dim)
    _, analytic = backward(p, gru.forward(p, h0, xs), y)

    p = p.copy()
    worst, losses = {}, {}
    for name, arr in p.arrays().items():
        a_grad = getattr(analytic, name)
        plus, minus = np.empty(arr.shape), np.empty(arr.shape)
        err = 0.0
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + epsilon
            loss_plus = mse(gru.forward(p, h0, xs).y_hat, y)
            arr[idx] = saved - epsilon
            loss_minus = mse(gru.forward(p, h0, xs).y_hat, y)
            arr[idx] = saved
            plus[idx], minus[idx] = loss_plus, loss_minus
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            a = float(a_grad[idx])
            denom = max(abs(a), abs(numeric), 1e-12)
            rel = abs(a - numeric) / denom
            err = max(err, rel if math.isfinite(rel) else math.inf)
        worst[name] = err
        losses[name] = (plus, minus)
    return worst, losses


@dataclass
class RawCdrRecord:
    square_id: int
    slot_start_ms: int
    # one entry per ACTIVITY_NAMES position; None where the field was empty
    activities: tuple

    def activity_sum(self) -> float:
        # left to right from 0.0, as sum() adds floats before Python 3.12
        total = 0.0
        for a in self.activities:
            if a is not None:
                total += a
        return total


def parse_raw_scalar(lines) -> ParseResult:
    """Parse tab-separated CDR lines.

    Malformed lines become ParseIssue entries carrying their 1-based line
    number; they are never silently dropped. Raises EmptyInputError when the
    input contains no non-blank lines at all.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()

    records: list[RawCdrRecord] = []
    issues: list[ParseIssue] = []
    saw_line = False

    for line_no, line in enumerate(lines, start=1):
        stripped = line.rstrip("\r\n")
        if not stripped.strip():
            continue
        saw_line = True

        parts = stripped.split(_FIELD_DELIMITER)
        if len(parts) < 2:
            issues.append(ParseIssue(line_no, "fewer than 2 fields"))
            continue
        if len(parts) > _MAX_FIELDS:
            issues.append(ParseIssue(line_no, f"more than {_MAX_FIELDS} fields"))
            continue

        try:
            square_id = int(parts[0].strip())
        except ValueError:
            issues.append(ParseIssue(line_no, f"bad square id {parts[0]!r}"))
            continue
        if square_id <= 0:
            issues.append(ParseIssue(line_no, f"square id must be positive, got {square_id}"))
            continue

        try:
            slot_start = int(parts[1].strip())
        except ValueError:
            issues.append(ParseIssue(line_no, f"bad timestamp {parts[1]!r}"))
            continue
        if slot_start < 0:
            issues.append(ParseIssue(line_no, f"negative timestamp {slot_start}"))
            continue
        if slot_start % SLOT_MS != 0:
            # normalize to the containing 10-minute slot, but say so
            floored = slot_start - slot_start % SLOT_MS
            issues.append(ParseIssue(
                line_no, f"timestamp {slot_start} not slot-aligned; floored to {floored}"))
            slot_start = floored

        # parts[2] is the country code; ignored
        raw_activities = parts[3:_MAX_FIELDS]
        activities = []
        bad = False
        for name, text in zip(ACTIVITY_NAMES, raw_activities):
            text = text.strip()
            if not text:
                activities.append(None)
                continue
            try:
                value = float(text)
            except ValueError:
                issues.append(ParseIssue(line_no, f"bad {name} value {text!r}"))
                bad = True
                break
            if not np.isfinite(value) or value < 0:
                issues.append(ParseIssue(line_no, f"{name} must be finite and >= 0, got {text}"))
                bad = True
                break
            activities.append(value)
        if bad:
            continue
        activities.extend([None] * (len(ACTIVITY_NAMES) - len(activities)))

        if all(a is None for a in activities):
            issues.append(ParseIssue(line_no, "no activity fields; not a CDR event"))
            continue

        records.append(RawCdrRecord(square_id, slot_start, tuple(activities)))

    if not saw_line:
        raise EmptyInputError("input contains no lines")
    return ParseResult(records=records, issues=issues)


def aggregate_scalar(records, sector_map: SectorMap, count_mode: str = "record_count") -> SectorSeries:
    """Bucket records into a SectorSeries.

    record_count counts one per record (the default); activity_sum adds up
    the present activity values and rounds each cell to the nearest integer
    (ties to even). Slots between the first and last record with no events
    are materialized as zeros.
    """
    if count_mode not in ("record_count", "activity_sum"):
        raise ValueError(f"unknown count_mode {count_mode!r}")
    records = list(records)
    if not records:
        raise EmptyInputError("no records to aggregate")

    t0 = min(r.slot_start_ms for r in records)
    t_last = max(r.slot_start_ms for r in records)
    n_slots = (t_last - t0) // SLOT_MS + 1

    acc = np.zeros((n_slots, len(SECTOR_LABELS)), dtype=np.float64)
    for r in records:
        try:
            s = SECTOR_LABELS.index(sector_map.by_square[r.square_id])
        except KeyError:
            raise UnknownSquareError(f"unknown square id {r.square_id}") from None
        i = (r.slot_start_ms - t0) // SLOT_MS
        if count_mode == "record_count":
            acc[i, s] += 1
        else:
            acc[i, s] += r.activity_sum()

    counts = acc.astype(np.int64) if count_mode == "record_count" else np.rint(acc).astype(np.int64)
    return SectorSeries(t0_ms=t0, counts=counts)


def write_sector_series_scalar(series: SectorSeries) -> str:
    """Render the normalized CSV: header time,A,B,C,D then one row per slot."""
    lines = ["time," + ",".join(SECTOR_LABELS)]
    for i in range(series.n_slots):
        row = ",".join(str(int(v)) for v in series.counts[i])
        t = datetime(1970, 1, 1) + timedelta(seconds=int(series.slot_time_ms(i)) // 1000)
        stamp = (f"{t.year:04d}-{t.month:02d}-{t.day:02d}"
                 f"T{t.hour:02d}:{t.minute:02d}:{t.second:02d}Z")
        lines.append(f"{stamp},{row}")
    return "\n".join(lines) + "\n"


def synthetic_counts_one_draw(n_slots, seed, shares=None):
    """The counts of fixtures.synthetic_series, drawn in one call over all slots."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_slots)
    angle = 2.0 * np.pi * t / 144

    if shares is None:
        base = np.array([6.0, 9.0, 5.0, 11.0])
        amp = np.array([10.0, 14.0, 8.0, 16.0])
        phase = np.array([0.0, 0.9, 2.1, 4.0])
        lam = base + amp * 0.5 * (1.0 + np.sin(angle[:, None] + phase))
    else:
        total = 20.0 + 18.0 * (1.0 + np.sin(angle + 1.3))
        lam = total[:, None] * np.asarray(shares, dtype=np.float64)

    return rng.poisson(lam)
