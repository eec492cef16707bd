"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed, numpy and this file, never on the
cdrsweep code under test, so two commits compared with the same seed see
byte-identical inputs (their sha256 hashes are recorded in the run report).
"""

from __future__ import annotations

import hashlib
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SECTORS = ("A", "B", "C", "D")
SQUARES = (5060, 5061, 5160, 5161)  # the CLI's default square -> sector map
SLOT_MS = 600_000
SLOTS_PER_DAY = 144
T0_MS = 1_383_523_200_000  # Monday 2013-11-04 00:00 UTC
SWEEP_SHARES = (0.1, 0.15, 0.25, 0.5)
SWEEP_SERIES_SEED = 2013  # the program's own fixture default
RAW_WEEKS = 4
RAW_MALFORMED_SHARE = 0.01
EMA_KEEP = 0.2  # weight of the newest slot in the sweep model's moving average
EMA_EPS = 0.1   # input scale that keeps tanh in its near-linear range


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def iso_slot(ms: int) -> str:
    return datetime.fromtimestamp(ms // 1000, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def series_counts(n_slots: int, seed: int, shares=None) -> np.ndarray:
    """(n_slots, 4) Poisson counts around a daily sinusoid per sector.

    With shares, one daily total curve is split in fixed proportions, so the
    ranking of sectors by expected load is the same in every slot.
    """
    rng = np.random.default_rng(seed)
    angle = 2.0 * np.pi * np.arange(n_slots) / SLOTS_PER_DAY
    if shares is None:
        base = np.array([6.0, 9.0, 5.0, 11.0])
        amp = np.array([10.0, 14.0, 8.0, 16.0])
        phase = np.array([0.0, 0.9, 2.1, 4.0])
        lam = base + amp * 0.5 * (1.0 + np.sin(angle[:, None] + phase))
    else:
        total = 20.0 + 18.0 * (1.0 + np.sin(angle + 1.3))
        lam = total[:, None] * np.asarray(shares, dtype=np.float64)
    return rng.poisson(lam)


def write_series(path, counts: np.ndarray) -> None:
    """The CLI's series CSV: header time,A,B,C,D then one row per slot."""
    lines = ["time," + ",".join(SECTORS)]
    for i, row in enumerate(counts):
        lines.append(iso_slot(T0_MS + i * SLOT_MS) + "," + ",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_ema_model(path, counts: np.ndarray, hidden: int, seed: int) -> None:
    """A GRU model file that forecasts an exponential moving average.

    The weights are set in closed form instead of trained: the reset gate is
    constant, the update gate is sigmoid(b_u) = EMA_KEEP, the first four
    hidden units carry tanh(EMA_EPS * x) and the readout undoes EMA_EPS, so
    the forecast is about the EMA of the min-max normalised window. Small
    seeded noise keeps every matrix dense. The file follows the program's
    `GRUCDR 1` layout.
    """
    rng = np.random.default_rng(seed)
    d = o = len(SECTORS)
    h = hidden

    def noise(*shape):
        return rng.normal(scale=1e-4, size=shape)

    eye = np.zeros((h, d))
    eye[:d, :d] = np.eye(d)
    arrays = {
        "W_r": noise(h, h), "R_r": noise(h, d), "b_r": noise(h),
        "W_z": noise(h, h), "R_z": EMA_EPS * eye + noise(h, d), "b_z": noise(h),
        "W_u": noise(h, h), "R_u": noise(h, d),
        "b_u": np.full(h, math.log(EMA_KEEP / (1.0 - EMA_KEEP))) + noise(h),
        "W_out": eye.T / EMA_EPS + noise(o, h), "b_out": noise(o),
    }
    lo = counts.min(axis=0).astype(np.float64)
    span = counts.max(axis=0) - lo
    arrays["norm_offset"] = lo
    arrays["norm_scale"] = np.where(span > 0, span, 1).astype(np.float64)

    lines = ["GRUCDR 1", f"dims {d} {h} {o}"]
    for name, arr in arrays.items():
        lines.append(f"{name} " + " ".join(str(n) for n in arr.shape))
        for row in arr.reshape(-1, arr.shape[-1]):
            lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_raw_cdrs(path, n_lines: int, seed: int) -> dict:
    """Raw TSV CDR lines over RAW_WEEKS weeks x the four default squares.

    Activity values are multiples of 1/4, so every sum is exact in float64
    and the expected `activity_sum` series does not depend on the order of
    summation. A RAW_MALFORMED_SHARE of the lines are broken on purpose, in
    three equal kinds, each of which the parser reports as exactly one issue:
    a timestamp off the 10-minute grid (still counted, floored to its slot),
    a bad activity value (dropped), and no activity at all (dropped).

    Returns the expectation for `ingest --count-mode activity_sum`: the
    first slot's time, the (slots, 4) count table and the issue count.
    """
    rng = np.random.default_rng(seed)
    n_slots = RAW_WEEKS * 7 * SLOTS_PER_DAY
    daily = 1.0 + 0.8 * np.sin(2.0 * np.pi * np.arange(n_slots) / SLOTS_PER_DAY)
    slot = rng.choice(n_slots, size=n_lines, p=daily / daily.sum())
    slot[0], slot[-1] = 0, n_slots - 1  # pin the span
    square = rng.integers(0, len(SQUARES), size=n_lines)
    # quarters: activity value * 4, -1 where the field is empty
    quarters = rng.integers(0, 400, size=(n_lines, 5))
    present = rng.random((n_lines, 5)) < 0.45
    present[np.arange(n_lines), rng.integers(0, 5, size=n_lines)] = True
    quarters[~present] = -1
    country = rng.choice([39, 33, 49, 44, 86], size=n_lines)

    kind = np.where(rng.random(n_lines) < RAW_MALFORMED_SHARE, rng.integers(1, 4, size=n_lines), 0)
    kind[0] = kind[-1] = 0
    misaligned, bad_value, no_activity = (kind == 1), (kind == 2), (kind == 3)
    offset_ms = np.where(misaligned, rng.integers(1, SLOT_MS, size=n_lines), 0)
    quarters[no_activity] = -1

    text = [repr(q / 4.0) for q in range(400)] + [""]  # text[-1] is the empty field
    bad_texts = ("n/a", "-1.5", "nan", "1e", "inf")
    ts = (T0_MS + slot * SLOT_MS + offset_ms).tolist()
    square_ids, countries = np.asarray(SQUARES)[square].tolist(), country.tolist()
    bad_lines = set(np.flatnonzero(bad_value).tolist())
    out = []
    for i, row in enumerate(quarters.tolist()):
        fields = [text[q] for q in row]
        if i in bad_lines:
            j = next(k for k in range(5) if fields[k])
            fields[j] = bad_texts[i % len(bad_texts)]
        out.append(f"{square_ids[i]}\t{ts[i]}\t{countries[i]}\t" + "\t".join(fields))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")

    counted = ~(bad_value | no_activity)
    q_sum = np.where(quarters >= 0, quarters, 0).sum(axis=1)
    first, last = int(slot[counted].min()), int(slot[counted].max())
    acc = np.zeros((last - first + 1, len(SQUARES)), dtype=np.int64)
    np.add.at(acc, (slot[counted] - first, square[counted]), q_sum[counted])
    return {
        "t0_ms": T0_MS + first * SLOT_MS,
        "counts": np.rint(acc / 4.0).astype(np.int64),
        "issues": int((kind > 0).sum()),
    }
