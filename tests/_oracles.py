"""Independent reference implementations used only by the tests.

Everything here is written with plain Python loops and math.* so it cannot
share bugs with the numpy code under test. Parameters come in as nested
lists (or anything indexable), never as the package's own dataclasses.
The exceptions are parse_raw_scalar and aggregate_scalar: the earlier
per-record ingest, kept as it was (one RawCdrRecord per counted line, one
accumulator update per record), which returns the package's ParseResult
and SectorSeries so the columnar path can be compared field by field.
draw_arrivals_scalar is the earlier arrival draw, kept as it was (one
np.full per slot and sector): it must make the same numpy generator calls
in the same order as the code it pins. grad_check_loop is the earlier
gradient check, kept as it was (two gru.forward calls per moved scalar)
except that it moves the scalars of a copy of the parameters.
write_sector_series_scalar is the earlier series writer, kept as it was
(one datetime and one str() per count, row by row).
"""

import math
from dataclasses import dataclass

import numpy as np

from cdrsweep import gru
from cdrsweep.errors import EmptyInputError
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
    _format_ts,
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
    every slot; rng is the arrival substream. Each (slot, sector) pair draws
    its count, then, if any, its times, and labels them with one np.full.
    """
    n_slots = math.ceil(horizon_us / slot_us)
    times, sectors = [], []
    for k in range(n_slots):
        row = rates[0] if len(rates) == 1 else rates[k]
        start = k * slot_us
        dur_us = min(horizon_us, start + slot_us) - start
        for s in range(len(row)):
            n = rng.poisson(row[s] * dur_us / 1e6)
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
        s = sector_map.sector_index(r.square_id)
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
        lines.append(f"{_format_ts(series.slot_time_ms(i))},{row}")
    return "\n".join(lines) + "\n"
