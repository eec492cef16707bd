"""Deterministic data fixtures.

demo_raw_lines() is a tiny hand-written raw extract covering five 10-minute
slots of one evening; synthetic_series() generates weeks of plausible
per-sector counts (sinusoidal daily rhythm plus Poisson noise) for training
and simulation experiments without shipping a real dataset.
"""

from __future__ import annotations

import numpy as np

from .ingest import (
    DEFAULT_SQUARES,
    MAX_SLOTS,
    SLOT_MS,
    SLOTS_PER_DAY,
    SectorMap,
    SectorSeries,
    check_shares,
)

# Five slots starting 2013-11-17 22:10 UTC; row i gives counts for A,B,C,D.
DEMO_T0_MS = 1_384_726_200_000
DEMO_SLOT_COUNTS = (
    (3, 3, 3, 5),
    (2, 2, 2, 2),
    (3, 2, 1, 2),
    (2, 3, 3, 4),
    (3, 1, 2, 5),
)

# Monday 2013-11-04 00:00 UTC
SYNTHETIC_T0_MS = 1_383_523_200_000
# synthetic_series draws its counts this many slots at a time
_DRAW_SLOTS = 4096


def demo_sector_map() -> SectorMap:
    return SectorMap.from_squares(DEFAULT_SQUARES)


def demo_raw_lines() -> list[str]:
    """Raw TSV lines that aggregate (record_count) to DEMO_SLOT_COUNTS.

    Each event carries one or two plausible activity values; the exact
    numbers only matter for activity_sum mode and are chosen deterministic.
    """
    lines = []
    for i, row in enumerate(DEMO_SLOT_COUNTS):
        ts = DEMO_T0_MS + i * SLOT_MS
        for s, count in enumerate(row):
            square = DEFAULT_SQUARES[s]
            for j in range(count):
                sms_in = f"{0.1 * (1 + (i + j) % 4):.2f}"
                call_in = f"{0.05 * (1 + (s + j) % 3):.2f}" if (i + s + j) % 2 else ""
                lines.append(f"{square}\t{ts}\t39\t{sms_in}\t\t{call_in}\t\t")
    return lines


def synthetic_series(n_slots: int = 2016, seed: int = 2013,
                     shares=None) -> SectorSeries:
    """Seeded counts with a daily sinusoid per sector plus Poisson noise.

    Without shares each sector gets its own base level, amplitude and phase.
    With shares the total intensity follows one daily curve and is split in
    the given proportions, so the busiest sector stays busiest all day.
    A series spans 1 to MAX_SLOTS slots, checked before anything is allocated.
    The counts are drawn _DRAW_SLOTS slots at a time, in row order, so the
    generator gives the counts one draw over all slots would, and only the
    counts are held whole.
    """
    if not 1 <= n_slots <= MAX_SLOTS:
        raise ValueError(f"n_slots must be between 1 and {MAX_SLOTS}, got {n_slots}")
    if shares is None:
        base = np.array([6.0, 9.0, 5.0, 11.0])
        amp = np.array([10.0, 14.0, 8.0, 16.0])
        phase = np.array([0.0, 0.9, 2.1, 4.0])
    else:
        shares = check_shares(shares)
    rng = np.random.default_rng(seed)
    counts = np.empty((n_slots, 4), dtype=np.int64)
    for lo in range(0, n_slots, _DRAW_SLOTS):
        angle = 2.0 * np.pi * np.arange(lo, min(lo + _DRAW_SLOTS, n_slots)) / SLOTS_PER_DAY
        if shares is None:
            lam = base + amp * 0.5 * (1.0 + np.sin(angle[:, None] + phase))
        else:
            total = 20.0 + 18.0 * (1.0 + np.sin(angle + 1.3))
            lam = total[:, None] * shares
        counts[lo:lo + len(angle)] = rng.poisson(lam)
    return SectorSeries(t0_ms=SYNTHETIC_T0_MS, counts=counts)
