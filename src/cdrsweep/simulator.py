"""Monte-Carlo measurement of UE initial-access delay under a sweep policy.

UEs arrive per-sector as Poisson processes whose rates may change every
10-minute slot. The simulator runs on one integer clock: SSB bursts start
every BURST_PERIOD_US (20 ms, the periodicity a UE in initial cell search
assumes), and a slot is exactly BURSTS_PER_SLOT of them. A UE detects the
cell at the start of the first SSB aimed at its sector at or after its
arrival (one offsets table, _offsets_table, holds them, and
expected_delay_static reads it too); each such opportunity succeeds
independently with detect_prob. The whole run is driven by one 64-bit seed
split into independent substreams for arrivals, detection and schedule
tie-breaking, so two policies simulated under the same seed face identical
arrival streams and identical per-UE detection luck (common random numbers).
The arrival substream gives every (slot, sector) count in slot-major order,
then every arrival time in the same order, one generator call each; seeded
simulate outputs changed once when the counts moved ahead of the times.
draw_ues draws a seed's UEs once, and simulate resolves each policy against
that one draw; report_bytes renders a draw's columns once for all its runs
and yields their rows one run at a time, and report_csv joins them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, MismatchedConfigsError
from .ingest import MAX_SLOTS, SECTOR_LABELS, SLOT_MS, check_shares
from .scheduler import (
    BURST_PERIOD_US,
    SSB_OFFSETS_US,
    SSB_SLOTS,
    SectorRanking,
    SweepSchedule,
    build_schedule,
    rank_sectors,
)

SLOT_US = SLOT_MS * 1000.0  # one 10-minute aggregation slot, in microseconds
BURSTS_PER_SLOT = int(SLOT_US // BURST_PERIOD_US)  # 30,000; a slot is whole bursts
N_SECTORS = len(SECTOR_LABELS)
# The most UEs a run may expect to draw (the sum of rate x duration over its
# slots). Drawing, resolving three policies and writing their report rows
# peaked at about 260 bytes per UE (tracemalloc, 1M UEs), so a seed of the
# CLI stays near 1.1 GB however high the rates are set.
MAX_UES = 2 ** 22
REPORT_HEADER = "policy,seed,ue_id,sector,arrival_us,delay_us\n"  # see report_csv

# The least detect_prob whose delays stay below 2**62 us (about 1.95e-13).
# numpy draws a geometric count as ceil(E / -log1p(-p)), with E a standard
# exponential that its sampler keeps below 44.5 (53 ln 2 plus the start of the
# ziggurat's tail, 7.7), so a UE waits for fewer than 45 / p opportunities.
# Every burst holds one for each sector, so its delay is under (45 / p + 2)
# bursts, which this floor keeps below 2**62 us plus two bursts. Far lower,
# the draw saturates at 2**63 - 1 and the index arithmetic wraps into
# negative delays (at 1e-300, about -6e22 us).
DETECT_PROB_FLOOR = 45.0 * BURST_PERIOD_US / 2.0 ** 62


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
        # at most MAX_SLOTS slots keeps every arrival far below 2**53 us
        if not 0.0 < self.horizon_us <= MAX_SLOTS * SLOT_US:
            raise InvalidConfigError(
                f"horizon_us must be positive and at most {MAX_SLOTS} slots "
                f"({MAX_SLOTS * SLOT_US} us), got {self.horizon_us}")
        if self.detect_prob < DETECT_PROB_FLOOR:
            raise InvalidConfigError(
                f"detect_prob must be at least {DETECT_PROB_FLOOR!r} (45 * BURST_PERIOD_US "
                f"/ 2**62) to keep every delay below 2**62 us, got {self.detect_prob}")
        if 1 < r.shape[0] < self.n_slots:
            raise InvalidConfigError(f"{r.shape[0]} rate rows cannot cover {self.n_slots} slots")
        if not (expected := self.expected_ues) <= MAX_UES:
            raise InvalidConfigError(
                f"the rates give {expected:.4g} UEs per run on average, "
                f"more than MAX_UES = {MAX_UES}")

    @property
    def n_slots(self) -> int:
        return int(np.ceil(self.horizon_us / SLOT_US))

    @property
    def expected_ues(self) -> float:
        """The mean UE count of a run: the sum of rate x duration over its slots."""
        r = self.arrival_rates_per_s
        if r.shape[0] == 1:
            return float(r.sum()) * self.horizon_us / 1e6
        starts = np.arange(self.n_slots) * SLOT_US
        slot_us = np.minimum(self.horizon_us, starts + SLOT_US) - starts
        return float(slot_us @ r[:self.n_slots].sum(axis=1)) / 1e6


def check_mean_rate(mean_total_rate_per_s: float) -> None:
    """Refuse a mean arrival rate that is NaN, infinite or negative, as rates_from_counts does."""
    if not (np.isfinite(mean_total_rate_per_s) and mean_total_rate_per_s >= 0):
        raise InvalidConfigError(
            f"mean rate must be finite and non-negative, got {mean_total_rate_per_s}")


def rates_from_counts(counts, mean_total_rate_per_s: float) -> np.ndarray:
    """Per-slot rates proportional to observed counts.

    Scaled so the time-averaged total arrival rate equals
    mean_total_rate_per_s.
    """
    counts = np.asarray(counts, dtype=np.float64)
    check_mean_rate(mean_total_rate_per_s)
    if (bad := np.argwhere(~(np.isfinite(counts) & (counts >= 0)))).size:
        cell = tuple(bad[0].tolist())
        raise InvalidConfigError(f"counts{list(cell)} must be finite and non-negative, "
                                 f"got {counts[cell]}")
    mean_total = counts.sum(axis=1).mean()
    if mean_total == 0:
        return np.zeros_like(counts)
    return counts * (mean_total_rate_per_s / mean_total)


def _offsets_table(schedules):
    """offsets[i, s, :counts[i, s]]: the ascending start offsets of the SSBs
    aimed at sector s under schedules[i], in rows padded with inf to 14;
    before[i, s, m]: how many of them are among the first m SSBs of a burst,
    so before[i, s, -1] == counts[i, s]."""
    slots = np.array([sched.slots for sched in schedules])
    aimed = slots[:, None, :] == np.arange(N_SECTORS)[:, None]
    before = np.zeros(aimed.shape[:2] + (SSB_SLOTS + 1,), dtype=np.int64)
    np.cumsum(aimed, axis=2, out=before[:, :, 1:])
    # sorting moves the SSBs aimed at each sector to the front of its row, in order
    offsets = np.sort(np.where(aimed, SSB_OFFSETS_US, np.inf), axis=2)
    return offsets, aimed.sum(axis=2), before


class PerSlotPolicy:
    """A sweep policy: one schedule for every 10-minute slot, or one per slot,
    whose offsets, counts and before are the _offsets_table of its schedules."""

    def __init__(self, name: str, schedules):
        self.name = name
        self.schedules = tuple(schedules)
        if not self.schedules:
            raise InvalidConfigError("need at least one schedule")
        self.offsets, self.counts, self.before = _offsets_table(self.schedules)
        if (empty := np.argwhere(self.counts == 0)).size:
            i, s = empty[0]
            raise InvalidConfigError(
                f"schedule {i} leaves sector {SECTOR_LABELS[s]} without any SSB")

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
    """One policy's run on a draw_ues: the delay of each of its UEs, in the draw's order."""

    policy: str
    seed: int
    delay_us: np.ndarray

    @property
    def n_ues(self) -> int:
        return self.delay_us.shape[0]

    @property
    def mean_us(self) -> float:
        return float(np.mean(self.delay_us)) if self.n_ues else float("nan")


def _draw_arrivals(cfg: SimConfig, rng: np.random.Generator):
    """Poisson arrivals per (slot, sector), then one stream sorted by time."""
    n = cfg.n_slots
    starts = np.arange(n) * SLOT_US
    dur_us = np.minimum(cfg.horizon_us, starts + SLOT_US) - starts
    # every count, then every time, both slot-major; a one-row rate table broadcasts
    counts = rng.poisson(cfg.arrival_rates_per_s[:n] * dur_us[:, None] / 1e6)
    per_slot = counts.sum(axis=1)
    times = rng.uniform(np.repeat(starts, per_slot), np.repeat(starts + dur_us, per_slot))
    # counts runs over (slot, sector) pairs in the order times were drawn
    sectors = np.repeat(np.tile(np.arange(N_SECTORS), n), counts.ravel())
    order = np.argsort(times)
    ordered = times[order]
    # the default sort may put equal times out of draw order; only then sort stably
    if np.any(ordered[1:] == ordered[:-1]):
        order = np.argsort(times, kind="stable")
        ordered = times[order]
    return ordered, sectors[order]


@dataclass(frozen=True, eq=False)
class UeDraw:
    """The UEs of one run of cfg, which every policy run of cfg shares.

    Besides each UE's arrival and sector it holds what no policy changes:
    which matching opportunity finally detects it (needed, from 1), its
    arrival burst and that burst's slot, and ssb_pos, how many of the
    burst's SSB_OFFSETS_US start before the arrival.
    """

    cfg: SimConfig
    arrival_us: np.ndarray
    sectors: np.ndarray
    needed: np.ndarray
    burst: np.ndarray
    slot: np.ndarray
    ssb_pos: np.ndarray


def draw_ues(cfg: SimConfig) -> UeDraw:
    """Draw the UEs of one run of cfg; deterministic given cfg.seed.

    The seed is split into an arrival substream and a detection substream,
    so every policy resolved against this draw, or against another draw of
    the same cfg, faces identical arrivals and identical detection luck.
    """
    arrival_seq, detect_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    arrivals, sectors = _draw_arrivals(cfg, np.random.default_rng(arrival_seq))
    # one geometric draw per UE: which matching opportunity finally succeeds
    needed = np.random.default_rng(detect_seq).geometric(cfg.detect_prob,
                                                         size=arrivals.shape[0])
    burst = (arrivals // BURST_PERIOD_US).astype(np.int64)
    # an arrival drawn onto the horizon itself still belongs to the last slot
    slot = np.minimum(burst // BURSTS_PER_SLOT, cfg.n_slots - 1)
    phase = arrivals - burst * BURST_PERIOD_US
    return UeDraw(cfg=cfg, arrival_us=arrivals, sectors=sectors, needed=needed,
                  burst=burst, slot=slot, ssb_pos=np.searchsorted(SSB_OFFSETS_US, phase))


def simulate(ues: UeDraw, policy: PerSlotPolicy) -> SimReport:
    """Resolve policy against ues, a draw_ues of the SimConfig it carries;
    deterministic given the draw.

    Bursts start every BURST_PERIOD_US from time 0, and burst b belongs to
    slot b // BURSTS_PER_SLOT; a UE arriving near the horizon is still
    followed until detection under the final slot's schedule. Slot k uses
    the policy's schedule k; a single schedule serves every slot, and any
    other policy needs at least ues.cfg.n_slots schedules.

    All UEs are resolved at once: a UE whose needed-th opportunity is the
    j-th SSB aimed at its sector counted from the start of its arrival burst
    detects in burst + j // n at position j % n, n being that sector's SSB
    count in the slot. Only UEs whose jump leaves the slot are stepped to the
    next slot's first burst and resolved again.
    """
    cfg = ues.cfg
    offsets, counts, before = policy.offsets, policy.counts, policy.before
    if counts.shape[0] == 1:
        offsets = np.broadcast_to(offsets, (cfg.n_slots,) + offsets.shape[1:])
        counts = np.broadcast_to(counts, (cfg.n_slots, N_SECTORS))
        before = np.broadcast_to(before, (cfg.n_slots,) + before.shape[1:])
    elif counts.shape[0] < cfg.n_slots:
        raise InvalidConfigError(
            f"{counts.shape[0]} schedules of {policy.name!r} cannot cover {cfg.n_slots} slots")

    # ends[k]: the first burst of slot k + 1; the last slot never ends
    ends = np.arange(1, cfg.n_slots + 1) * BURSTS_PER_SLOT
    ends[-1] = np.iinfo(np.int64).max

    sectors, burst, slot = ues.sectors, ues.burst.copy(), ues.slot.copy()
    # SSBs of the arrival burst that start before the arrival count as used
    j = before[slot, sectors, ues.ssb_pos] + ues.needed - 1
    n_sector = counts[slot, sectors]

    crossing = np.flatnonzero(j // n_sector >= ends[slot] - burst)
    while crossing.size:
        b, s = burst[crossing], slot[crossing]
        j[crossing] -= (ends[s] - b) * n_sector[crossing]
        b, s = ends[s], s + 1
        burst[crossing], slot[crossing] = b, s
        n_sector[crossing] = counts[s, sectors[crossing]]
        crossing = crossing[j[crossing] // n_sector[crossing] >= ends[s] - b]

    burst += j // n_sector
    delays = burst * BURST_PERIOD_US + offsets[slot, sectors, j % n_sector] - ues.arrival_us

    return SimReport(policy=policy.name, seed=cfg.seed, delay_us=delays)


def expected_delay_static(schedule: SweepSchedule, sector_shares) -> float:
    """Closed-form mean delay for a fixed repeating schedule, detect_prob 1.

    With the arrival phase uniform over one burst period P (BURST_PERIOD_US),
    a sector's mean wait is its sum of squared cyclic gaps between SSB starts
    over 2P. Shares weight the sector means; a sector without share need not
    be swept.
    """
    shares = check_shares(sector_shares)
    (offsets,), (counts,), _ = _offsets_table([schedule])
    if (unswept := np.flatnonzero((counts == 0) & (shares > 0))).size:
        raise InvalidConfigError(
            f"sector {SECTOR_LABELS[unswept[0]]} has positive share but no SSB slot")
    offs = offsets[counts > 0]
    # the last gap wraps to the next burst's first SSB, and the inf padding
    # becomes that point, so its gaps are 0 and never inf - inf
    wrap = BURST_PERIOD_US + offs[:, :1]
    gaps = np.diff(np.minimum(offs, wrap), axis=1, append=wrap)
    return float(shares[counts > 0] @ (gaps ** 2).sum(axis=1)) / (2.0 * BURST_PERIOD_US)


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


def _words(*texts: bytes) -> np.ndarray:
    """Four-byte texts as uint32 words, in memory order."""
    return np.frombuffer(b"".join(texts), dtype=np.uint32).copy()


def _digit_tables():
    """report_csv's digit words: every 4-digit group, as is and with its
    leading zeros as NUL (for the leading group of a number), then the 1000
    fractions ".000" to ".999". Built from np.indices in uint8, so that
    importing the module stays cheap in time and in memory."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    lead = digits.copy()
    for place in range(4):   # a group below 10**(3 - place) has a leading zero there
        lead[:10 ** (3 - place), place] = 0
    fracs = digits[:1000].copy()
    fracs[:, 0] = ord(".")
    return (np.concatenate([digits, lead]).view(np.uint32).ravel(),
            fracs.view(np.uint32).ravel())


# report_csv writes each row as 4-byte words, pads them with NUL bytes and
# deletes the NULs at the end. _GROUP_WORDS[g] is the word of g's four digits,
# _GROUP_WORDS[10_000 + g] the same with leading zeros as NUL.
_GROUP_WORDS, _FRAC_WORDS = _digit_tables()
_ZERO_WORD = _words(b"\0\0\0" + b"0")[0]
# [2 * sector + sign bit of arrival_us]: ",A,", then "-" or NUL
_SECTOR_WORDS = _words(*(f",{label},".encode() + sign
                         for label in SECTOR_LABELS for sign in (b"\0", b"-")))
_COMMA_WORDS = _words(b",\0\0\0", b",\0\0-")   # [sign bit of delay_us]
_NEWLINE_WORD = _words(b"\n\0\0\0")[0]


def _thousandths(a: np.ndarray):
    """round(1000 * a) for float64 a in [0, 2**63), split into whole units and
    thousandths (int64), rounded as '%.3f' rounds: exactly, ties to even."""
    m, e = np.frexp(a)
    mant = np.ldexp(m, 53).astype(np.int64)     # a == mant * 2**(e - 53)
    integral = e > 52                           # a >= 2**52 has no fraction
    # 1000 * mant < 2**63; below 2**-11, 1000 * a < 1/2 rounds to 0
    num = np.where(integral | (e < -10), 0, mant) * 1000
    shift = np.clip(53 - e, 1, 63).astype(np.int64)
    q = num >> shift
    rem = num - (q << shift)
    half = 1 << (shift - 1)
    q += (rem > half) | ((rem == half) & ((q & 1) == 1))
    whole = q // 1000
    return np.where(integral, a.astype(np.int64), whole), q - 1000 * whole


def _n_words(values: np.ndarray) -> int:
    """Words that the digits of the largest of values fill."""
    return -(-len(str(int(values.max()))) // 4)


def _put_digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write non-negative int64 values into out's columns as 4-digit words,
    the units last, with leading zeros as NUL."""
    for k in range(out.shape[1] - 1, -1, -1):
        high = values // 10_000
        out[:, k] = _GROUP_WORDS[values - 10_000 * high + 10_000 * (high == 0)]
        values = high
    units = out[:, -1]
    units[units == 0] = _ZERO_WORD   # the value 0 reads "0"


def _digit_fields(x: np.ndarray, rep: SimReport, name: str):
    """x, the column name of the run rep, as (sign bit, whole units, thousandths),
    or InvalidConfigError naming rep and the row of a value '%.3f' cannot give."""
    x = np.asarray(x, dtype=np.float64)
    magnitude = np.abs(x)
    if not np.all(fits := magnitude < 2.0 ** 63):
        row = int(np.argmin(fits))
        raise InvalidConfigError(
            f"cannot render policy {rep.policy!r} seed {rep.seed} row {row}: "
            f"{name} {float(x[row])} is not finite and below 2**63 in magnitude")
    return (np.signbit(x), *_thousandths(magnitude))


def _lead_words(ues: UeDraw, first: SimReport) -> np.ndarray:
    """The words of the ue_id, sector and arrival_us columns of ues, one row
    per UE: ue_id | ",A,-" | arrival | ".ddd"; a bad arrival names first."""
    neg, whole, frac = _digit_fields(ues.arrival_us, first, "arrival_us")
    ue = np.arange(len(ues.arrival_us))
    u = _n_words(ue)
    lead = np.empty((ue.size, u + _n_words(whole) + 2), np.uint32)
    _put_digits(ue, lead[:, :u])
    lead[:, u] = _SECTOR_WORDS[2 * ues.sectors + neg]
    _put_digits(whole, lead[:, u + 1:-1])
    lead[:, -1] = _FRAC_WORDS[frac]
    return lead


def _run_rows(rep: SimReport, lead: np.ndarray) -> bytes:
    """One run's report rows without their policy,seed, prefix, UTF-8
    encoded, given the _lead_words of its draw."""
    neg, whole, frac = _digit_fields(rep.delay_us, rep, "delay_us")
    k = lead.shape[1]
    # words: lead | ",-" | delay | ".ddd" | "\n"
    body = np.empty((rep.n_ues, k + _n_words(whole) + 3), np.uint32)
    body[:, :k] = lead
    body[:, k] = _COMMA_WORDS[neg.view(np.uint8)]
    _put_digits(whole, body[:, k + 1:-2])
    body[:, -2] = _FRAC_WORDS[frac]
    body[:, -1] = _NEWLINE_WORD
    return body.tobytes().translate(None, b"\0")


def report_bytes(ues: UeDraw, runs):
    """Yield the report rows of report_csv as UTF-8 bytes, one run at a time.

    Each run gives two pieces: its policy,seed, prefix, then its rows with
    the prefix put after every newline but the last, so no row text is
    copied to join it. Refusals are those of report_csv, raised before the
    first piece; a policy name with a lone surrogate is encoded with
    surrogatepass.
    """
    runs = list(runs)
    n_ues = len(ues.arrival_us)
    for rep in runs:
        if rep.seed != ues.cfg.seed or rep.n_ues != n_ues:
            raise MismatchedConfigsError(
                f"policy {rep.policy!r} seed {rep.seed} holds {rep.n_ues} UEs, "
                f"but its draw is of seed {ues.cfg.seed} with {n_ues} UEs")
    if not (runs and n_ues):
        return
    lead = _lead_words(ues, runs[0])
    for rep in runs:
        # the prefix goes in after the NULs are gone: a policy name may hold one
        prefix = f"{rep.policy},{rep.seed},".encode("utf-8", "surrogatepass")
        yield prefix
        yield _run_rows(rep, lead).replace(b"\n", b"\n" + prefix, n_ues - 1)


def report_csv(ues: UeDraw, runs) -> str:
    """Per-UE rows of the given runs of the draw ues, in the columns of REPORT_HEADER.

    Only rows, no header: a report file is REPORT_HEADER followed by the
    rows of its draws' runs, so it can be written one draw at a time and
    never held whole (the CLI writes the report_bytes of one run at a time).
    The draw's ue_id, sector and arrival_us columns are rendered once, then
    each run's delay_us column, all in numpy, with the digits '%.3f' would
    give. A run whose seed or UE count is not its draw's raises
    MismatchedConfigsError naming it, before any row is rendered. An arrival
    or delay that is not finite, or 2**63 or more in magnitude, raises
    InvalidConfigError naming its row and run; a bad arrival names the first
    run.
    """
    return b"".join(report_bytes(ues, runs)).decode("utf-8", "surrogatepass")


def summary_csv(reports) -> str:
    """Pooled per-policy stats: policy,mean_us,median_us,p95_us,n."""
    pooled: dict[str, list] = {}
    for rep in reports:
        pooled.setdefault(rep.policy, []).append(rep.delay_us)
    lines = ["policy,mean_us,median_us,p95_us,n"]
    for pol, chunks in pooled.items():
        delays = np.concatenate(chunks)
        if delays.size:
            mean = delays.mean()
            # order statistics depend only on the values, so the pooled copy,
            # and never a report's delays, may be reordered to find them
            median = np.median(delays, overwrite_input=True)
            p95 = np.percentile(delays, 95, overwrite_input=True)
            lines.append(f"{pol},{mean:.3f},{median:.3f},{p95:.3f},{delays.size}")
        else:
            lines.append(f"{pol},nan,nan,nan,0")
        del delays  # so that no two policies' pooled copies are held at once
    return "\n".join(lines) + "\n"
