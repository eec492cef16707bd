"""Monte-Carlo measurement of UE initial-access delay under a sweep policy.

UEs arrive per-sector as Poisson processes whose rates may change every
10-minute slot. A UE detects the cell at the start of the first SSB slot
aimed at its sector at or after its arrival; each such opportunity succeeds
independently with detect_prob. The whole run is driven by one 64-bit seed
split into independent substreams for arrivals, detection and schedule
tie-breaking, so two policies simulated under the same seed face identical
arrival streams and identical per-UE detection luck (common random numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, MismatchedConfigsError
from .ingest import SECTOR_LABELS, check_shares
from .scheduler import (
    BURST_DURATION_US,
    BURST_PERIOD_US,
    SectorRanking,
    SweepSchedule,
    build_schedule,
    rank_sectors,
)

SLOT_US = 600_000_000.0  # one 10-minute aggregation slot, in microseconds
N_SECTORS = len(SECTOR_LABELS)
REPORT_HEADER = "policy,seed,ue_id,sector,arrival_us,delay_us\n"  # see report_csv


@dataclass
class SimConfig:
    """One simulation run.

    arrival_rates_per_s has one row per 10-minute slot (a single row is
    broadcast over the whole horizon); entries are UE arrivals per second
    per sector.
    """

    arrival_rates_per_s: np.ndarray
    horizon_us: float
    detect_prob: float = 1.0
    seed: int = 0
    burst_period_us: float = BURST_PERIOD_US
    slot_us: float = SLOT_US

    def __post_init__(self):
        self.arrival_rates_per_s = np.atleast_2d(
            np.asarray(self.arrival_rates_per_s, dtype=np.float64))
        self.validate()

    def validate(self) -> None:
        r = self.arrival_rates_per_s
        if r.ndim != 2 or r.shape[1] != N_SECTORS:
            raise InvalidConfigError(f"rates must be (slots, {N_SECTORS}), got {r.shape}")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise InvalidConfigError("rates must be finite and non-negative")
        if not 0.0 < self.detect_prob <= 1.0:
            raise InvalidConfigError(f"detect_prob must be in (0, 1], got {self.detect_prob}")
        for name in ("horizon_us", "burst_period_us", "slot_us"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InvalidConfigError(f"{name} must be finite and positive, got {value}")
        if not BURST_DURATION_US < self.burst_period_us:
            raise InvalidConfigError(f"burst_period_us must exceed {BURST_DURATION_US}")
        if 1 < r.shape[0] < self.n_slots:
            raise InvalidConfigError(f"{r.shape[0]} rate rows cannot cover {self.n_slots} slots")

    @property
    def n_slots(self) -> int:
        return int(np.ceil(self.horizon_us / self.slot_us))


def rates_from_counts(counts, mean_total_rate_per_s: float) -> np.ndarray:
    """Per-slot rates proportional to observed counts.

    Scaled so the time-averaged total arrival rate equals
    mean_total_rate_per_s.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if mean_total_rate_per_s < 0:
        raise InvalidConfigError("mean rate must be non-negative")
    mean_total = counts.sum(axis=1).mean()
    if mean_total == 0:
        return np.zeros_like(counts)
    return counts * (mean_total_rate_per_s / mean_total)


class PerSlotPolicy:
    """A sweep policy: one schedule for every 10-minute slot, or one per slot.

    Built once: offsets[i, s, :counts[i, s]] are the ascending start offsets
    of the SSBs aimed at sector s under schedule i; the rest of a row is inf.
    """

    def __init__(self, name: str, schedules):
        self.name = name
        self.schedules = tuple(schedules)
        if not self.schedules:
            raise InvalidConfigError("need at least one schedule")
        slots = np.array([sched.slots for sched in self.schedules])
        aimed = slots[:, None, :] == np.arange(N_SECTORS)[:, None]
        self.counts = aimed.sum(axis=2)
        empty = np.argwhere(self.counts == 0)
        if empty.size:
            i, s = empty[0]
            raise InvalidConfigError(
                f"schedule {i} leaves sector {SECTOR_LABELS[s]} without any SSB")
        # every schedule's SSBs start at the same offsets; sorting moves the
        # ones aimed at each sector to the front of its row, in order
        self.offsets = np.sort(
            np.where(aimed, self.schedules[0].offsets_us(), np.inf), axis=2)

    @classmethod
    def from_ranking(cls, ranking: SectorRanking, name: str) -> "PerSlotPolicy":
        """One schedule for every slot."""
        return cls(name, [build_schedule(ranking)])

    @classmethod
    def from_values(cls, name: str, values_per_slot,
                    rng: np.random.Generator) -> "PerSlotPolicy":
        """Rank each slot's 4-vector and build its schedule; ties use rng."""
        values_per_slot = np.atleast_2d(np.asarray(values_per_slot, dtype=np.float64))
        return cls(name, [build_schedule(rank_sectors(v, rng)) for v in values_per_slot])


@dataclass
class SimReport:
    policy: str
    seed: int
    sectors: np.ndarray     # int sector index per UE
    arrival_us: np.ndarray
    delay_us: np.ndarray

    @property
    def n_ues(self) -> int:
        return self.delay_us.shape[0]

    @property
    def mean_us(self) -> float:
        return float(np.mean(self.delay_us)) if self.n_ues else float("nan")


def _draw_arrivals(cfg: SimConfig, rng: np.random.Generator):
    """Poisson arrivals per (slot, sector), then one stream sorted by time."""
    rates = cfg.arrival_rates_per_s
    if rates.shape[0] == 1:
        rates = np.repeat(rates, cfg.n_slots, axis=0)

    times, sectors = [], []
    for k in range(cfg.n_slots):
        start = k * cfg.slot_us
        dur_us = min(cfg.horizon_us, start + cfg.slot_us) - start
        for s in range(N_SECTORS):
            n = rng.poisson(rates[k, s] * dur_us / 1e6)
            if n:
                times.append(rng.uniform(start, start + dur_us, size=n))
                sectors.append(np.full(n, s, dtype=np.int64))

    if not times:
        return np.empty(0), np.empty(0, dtype=np.int64)
    times = np.concatenate(times)
    sectors = np.concatenate(sectors)
    order = np.argsort(times, kind="stable")
    return times[order], sectors[order]


def _slot_ends(n_slots: int, bursts_per_slot: float) -> np.ndarray:
    """ends[k]: the first burst b whose slot int(b / bursts_per_slot) is past k.

    Found with the same float division the slot lookup uses, so the two never
    disagree on which slot a burst belongs to. The last slot never ends.
    """
    k = np.arange(1, n_slots, dtype=np.float64)
    first = np.ceil(k * bursts_per_slot).astype(np.int64)
    # k * bursts_per_slot is rounded: step onto the exact boundary
    while np.any(late := (first - 1) / bursts_per_slot >= k):
        first[late] -= 1
    while np.any(early := first / bursts_per_slot < k):
        first[early] += 1
    return np.append(first, np.iinfo(np.int64).max)


def simulate(cfg: SimConfig, policy: PerSlotPolicy) -> SimReport:
    """Run one (config, policy) pair; deterministic given cfg.seed.

    The substream split keeps arrivals and detection draws identical across
    policies under the same seed. Bursts start every burst_period_us from
    time 0; a UE arriving near the horizon is still followed until detection
    under the final slot's schedule. Slot k uses the policy's schedule k; a
    single schedule serves every slot, and any other policy needs at least
    cfg.n_slots schedules.

    All UEs are resolved at once: a UE whose needed-th opportunity is the
    j-th SSB aimed at its sector counted from the start of its arrival burst
    detects in burst + j // n at position j % n, n being that sector's SSB
    count in the slot. Only UEs whose jump leaves the slot are stepped to the
    next slot's first burst and resolved again.
    """
    offsets, counts = policy.offsets, policy.counts
    if counts.shape[0] == 1:
        offsets = np.broadcast_to(offsets, (cfg.n_slots,) + offsets.shape[1:])
        counts = np.broadcast_to(counts, (cfg.n_slots, N_SECTORS))
    elif counts.shape[0] < cfg.n_slots:
        raise InvalidConfigError(
            f"{counts.shape[0]} schedules of {policy.name!r} cannot cover {cfg.n_slots} slots")
    arrival_seq, detect_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    arrivals, sectors = _draw_arrivals(cfg, np.random.default_rng(arrival_seq))
    last_slot = cfg.n_slots - 1

    n = arrivals.shape[0]
    # one geometric draw per UE: which matching opportunity finally succeeds
    needed = np.random.default_rng(detect_seq).geometric(cfg.detect_prob, size=n)

    period = cfg.burst_period_us
    bursts_per_slot = cfg.slot_us / period
    ends = _slot_ends(cfg.n_slots, bursts_per_slot)

    burst = (arrivals // period).astype(np.int64)
    slot = np.minimum((burst / bursts_per_slot).astype(np.int64), last_slot)
    phase = arrivals - burst * period
    # SSBs of the arrival burst that start before the arrival count as used
    j = (offsets[slot, sectors] < phase[:, None]).sum(axis=1) + needed - 1
    n_sector = counts[slot, sectors]

    crossing = np.flatnonzero(j // n_sector >= ends[slot] - burst)
    while crossing.size:
        b, s = burst[crossing], slot[crossing]
        j[crossing] -= (ends[s] - b) * n_sector[crossing]
        b = ends[s]
        s = np.minimum((b / bursts_per_slot).astype(np.int64), last_slot)
        burst[crossing], slot[crossing] = b, s
        n_sector[crossing] = counts[s, sectors[crossing]]
        crossing = crossing[j[crossing] // n_sector[crossing] >= ends[s] - b]

    burst += j // n_sector
    delays = burst * period + offsets[slot, sectors, j % n_sector] - arrivals

    return SimReport(policy=policy.name, seed=cfg.seed, sectors=sectors,
                     arrival_us=arrivals, delay_us=delays)


def expected_delay_static(schedule: SweepSchedule, sector_shares,
                          burst_period_us: float = BURST_PERIOD_US) -> float:
    """Closed-form mean delay for a fixed repeating schedule, detect_prob 1.

    The arrival phase is uniform over one burst period; within each sector
    the wait to the next matching slot start integrates piecewise to
    gap^2 / 2 terms. Shares weight the per-sector means.
    """
    shares = check_shares(sector_shares)

    p = burst_period_us
    total = 0.0
    for s in range(N_SECTORS):
        if shares[s] == 0:
            continue
        offs = schedule.sector_offsets_us(s)
        if offs.size == 0:
            raise InvalidConfigError(
                f"sector {SECTOR_LABELS[s]} has positive share but no SSB slot")
        first, last = offs[0], offs[-1]
        acc = first ** 2 / 2.0
        acc += float(np.sum(np.diff(offs) ** 2)) / 2.0
        acc += ((p + first - last) ** 2 - first ** 2) / 2.0
        total += shares[s] * acc / p
    return total


@dataclass
class ComparisonRow:
    policy: str
    n_seeds: int
    mean_us: float          # grand mean of per-seed mean delays
    mean_diff_us: float     # vs the first (baseline) policy, paired by seed
    n_lower: int
    n_equal: int
    n_higher: int
    ci_lo_us: float         # 95% normal CI on the paired mean difference
    ci_hi_us: float


@dataclass
class Comparison:
    baseline: str
    rows: list

    def csv_text(self) -> str:
        lines = ["policy,n_seeds,mean_us,mean_diff_us,n_lower,n_equal,n_higher,"
                 "ci_lo_us,ci_hi_us"]
        for r in self.rows:
            lines.append(f"{r.policy},{r.n_seeds},{r.mean_us:.3f},{r.mean_diff_us:.3f},"
                         f"{r.n_lower},{r.n_equal},{r.n_higher},"
                         f"{r.ci_lo_us:.3f},{r.ci_hi_us:.3f}")
        return "\n".join(lines) + "\n"


def compare(reports) -> Comparison:
    """Paired per-seed comparison; the first report's policy is the baseline.

    All policies must cover exactly the same seed set, and every run must
    hold at least one UE: a run without one has no mean delay to compare.
    """
    reports = list(reports)
    if not reports:
        raise MismatchedConfigsError("need at least one report to compare")

    by_policy: dict[str, dict[int, SimReport]] = {}
    for rep in reports:
        if not rep.n_ues:
            raise InvalidConfigError(
                f"policy {rep.policy!r} seed {rep.seed} has no UE to compare")
        seeds = by_policy.setdefault(rep.policy, {})
        if rep.seed in seeds:
            raise MismatchedConfigsError(
                f"duplicate report for policy {rep.policy!r} seed {rep.seed}")
        seeds[rep.seed] = rep

    policies = list(by_policy)
    base_seeds = sorted(by_policy[policies[0]])
    for pol in policies[1:]:
        if sorted(by_policy[pol]) != base_seeds:
            raise MismatchedConfigsError(
                f"policy {pol!r} covers different seeds than {policies[0]!r}")

    base_means = np.array([by_policy[policies[0]][s].mean_us for s in base_seeds])
    rows = []
    for pol in policies:
        means = np.array([by_policy[pol][s].mean_us for s in base_seeds])
        diffs = means - base_means
        n = len(diffs)
        mean_diff = float(diffs.mean())
        if n > 1 and pol != policies[0]:
            half = 1.96 * float(diffs.std(ddof=1)) / np.sqrt(n)
        else:
            half = 0.0
        rows.append(ComparisonRow(
            policy=pol, n_seeds=n, mean_us=float(means.mean()),
            mean_diff_us=mean_diff,
            n_lower=int(np.sum(diffs < 0)), n_equal=int(np.sum(diffs == 0)),
            n_higher=int(np.sum(diffs > 0)),
            ci_lo_us=mean_diff - half, ci_hi_us=mean_diff + half))
    return Comparison(baseline=policies[0], rows=rows)


def report_csv(reports) -> str:
    """Per-UE rows of the given runs, in the columns of REPORT_HEADER.

    Only rows, no header: a report file is REPORT_HEADER followed by the
    rows of its runs, so it can be written a few runs at a time and never
    held whole (the CLI writes one seed's runs at a time).
    """
    chunks = []
    for rep in reports:
        # one %-format per run renders all its rows without a string per row
        row = f"{rep.policy},{rep.seed},".replace("%", "%%") + "%d,%s,%.3f,%.3f\n"
        fields = [None] * (4 * rep.n_ues)
        fields[0::4] = range(rep.n_ues)
        fields[1::4] = [SECTOR_LABELS[s] for s in rep.sectors.tolist()]
        fields[2::4] = rep.arrival_us.tolist()
        fields[3::4] = rep.delay_us.tolist()
        chunks.append((row * rep.n_ues) % tuple(fields))
    return "".join(chunks)


def summary_csv(reports) -> str:
    """Pooled per-policy stats: policy,mean_us,median_us,p95_us,n."""
    pooled: dict[str, list] = {}
    for rep in reports:
        pooled.setdefault(rep.policy, []).append(rep.delay_us)
    lines = ["policy,mean_us,median_us,p95_us,n"]
    for pol, chunks in pooled.items():
        delays = np.concatenate(chunks) if chunks else np.empty(0)
        if delays.size:
            lines.append(f"{pol},{delays.mean():.3f},{np.median(delays):.3f},"
                         f"{np.percentile(delays, 95):.3f},{delays.size}")
        else:
            lines.append(f"{pol},nan,nan,nan,0")
    return "\n".join(lines) + "\n"
