"""Sector ranking and SSB burst scheduling.

A synchronization burst carries 14 SSB slots in 250 microseconds, which start
at SSB_OFFSETS_US. Sectors are ranked by predicted activity (ties broken
uniformly at random) and packed round-robin starting from the top rank, so
the busiest sector gets both the earliest slot and the most repetitions while
every sector stays covered in every burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInputError
from .ingest import SECTOR_LABELS

SSB_SLOTS = 14
BURST_DURATION_US = 250.0
BURST_PERIOD_US = 20_000.0
SSB_OFFSETS_US = np.arange(SSB_SLOTS) * (BURST_DURATION_US / SSB_SLOTS)
SSB_OFFSETS_US.setflags(write=False)

# two predictions closer than this are treated as tied
_TIE_RTOL = 1e-9


def _tied(a: float, b: float) -> bool:
    return abs(a - b) <= _TIE_RTOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class SectorRanking:
    """A sweep order: sector indices into SECTOR_LABELS, best first."""

    order: tuple
    tie_groups: tuple  # groups of indices with equal value, in ranked order

    def __post_init__(self):
        if sorted(self.order) != list(range(len(SECTOR_LABELS))):
            raise ValueError(f"order {self.order} is not a permutation of all sectors")
        flat = tuple(s for group in self.tie_groups for s in group)
        if flat != self.order:
            raise ValueError("tie_groups do not flatten to order")

    @property
    def labels(self) -> tuple:
        return tuple(SECTOR_LABELS[s] for s in self.order)


def rank_sectors(pred, rng: np.random.Generator) -> SectorRanking:
    """Descending sort of the 4 predicted values; ties shuffled uniformly.

    Tie detection is float-safe: values within 1e-9 relative of their
    neighbor in sorted order fall into one group, and each group is permuted
    by a Fisher-Yates shuffle from rng. Deterministic for a seeded rng.
    """
    values = np.asarray(pred, dtype=np.float64)
    if values.shape != (len(SECTOR_LABELS),):
        raise ValueError(f"expected {len(SECTOR_LABELS)} values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteInputError(f"predictions must be finite, got {values}")
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a seeded numpy Generator, got {rng!r}")

    by_value = np.argsort(-values, kind="stable")
    groups: list[list[int]] = [[int(by_value[0])]]
    for k in range(1, len(by_value)):
        cur, prev = int(by_value[k]), int(by_value[k - 1])
        if _tied(values[cur], values[prev]):
            groups[-1].append(cur)
        else:
            groups.append([cur])

    for group in groups:
        if len(group) > 1:
            rng.shuffle(group)

    return SectorRanking(
        order=tuple(s for group in groups for s in group),
        tie_groups=tuple(tuple(group) for group in groups),
    )


def sequential_ranking() -> SectorRanking:
    """The conventional fixed sweep A, B, C, D."""
    return SectorRanking(order=(0, 1, 2, 3), tie_groups=((0,), (1,), (2,), (3,)))


@dataclass(frozen=True)
class SweepSchedule:
    """Assignment of the 14 SSB slots of one burst to sectors.

    slots[i] is the sector index transmitted in SSB i; SSB i starts
    SSB_OFFSETS_US[i] microseconds into the burst.
    """

    slots: tuple

    def __post_init__(self):
        if len(self.slots) != SSB_SLOTS:
            raise ValueError(f"need exactly {SSB_SLOTS} slots, got {len(self.slots)}")
        if any(s not in range(len(SECTOR_LABELS)) for s in self.slots):
            raise ValueError(f"slots must be sector indices, got {self.slots}")

    def csv_text(self) -> str:
        lines = ["ssb_index,sector,start_offset_us"]
        for i, (s, offset) in enumerate(zip(self.slots, SSB_OFFSETS_US)):
            lines.append(f"{i},{SECTOR_LABELS[s]},{offset:.6f}")
        return "\n".join(lines) + "\n"


def build_schedule(ranking: SectorRanking) -> SweepSchedule:
    """Round-robin packing in ranking order.

    14 slots over 4 sectors gives the top two ranks 4 slots each and the
    bottom two 3 each; first occurrences fall at slot 0, 1, 2, 3 in ranking
    order.
    """
    n = len(ranking.order)
    return SweepSchedule(slots=tuple(ranking.order[i % n] for i in range(SSB_SLOTS)))


# simulator binds rank_sectors by name, and bench/tracer.py wraps both names
# as one layer only if that binding is made before it replaces this module's
# function. The CLI imports simulator only where it runs, so it is imported
# with this module (simulator imports this module first, and that order works
# as well).
from . import simulator  # noqa: E402,F401
