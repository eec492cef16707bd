import math
import re
import tracemalloc

import numpy as np
import pytest

import cdrsweep.simulator as sim_mod
from cdrsweep import (
    BURST_PERIOD_US,
    MAX_SLOTS,
    REPORT_HEADER,
    SLOT_MS,
    SLOT_US,
    SSB_OFFSETS_US,
    BadSharesError,
    InvalidConfigError,
    MismatchedConfigsError,
    PerSlotPolicy,
    SimConfig,
    SimReport,
    SweepSchedule,
    build_schedule,
    compare,
    draw_ues,
    expected_delay_static,
    rank_sectors,
    rates_from_counts,
    report_csv,
    sequential_ranking,
    simulate,
    summary_csv,
    synthetic_series,
)
from cdrsweep.fixtures import _DRAW_SLOTS
from cdrsweep.simulator import BURSTS_PER_SLOT, DETECT_PROB_FLOOR, MAX_UES

from _oracles import (
    draw_arrivals_scalar,
    expected_delay_scalar,
    expected_wait_brute,
    report_csv_scalar,
    sector_offsets_scalar,
    simulate_scalar,
    synthetic_counts_one_draw,
)

SLOT_DUR = 250.0 / 14


def uniform_cfg(seed=0, total_rate=0.5, horizon_slots=1, detect_prob=1.0):
    rates = np.full((1, 4), total_rate / 4)
    return SimConfig(arrival_rates_per_s=rates,
                     horizon_us=horizon_slots * sim_mod.SLOT_US,
                     detect_prob=detect_prob, seed=seed)


def d_first_policy():
    return PerSlotPolicy.from_ranking(
        rank_sectors([3.0, 3.0, 3.0, 5.0], np.random.default_rng(0)), name="d_first")


def planted_arrivals(monkeypatch, times, sectors):
    """Make simulate see these arrivals; returns them for scalar_run."""
    planted = np.asarray(times, dtype=np.float64), np.asarray(sectors, dtype=np.int64)
    monkeypatch.setattr(sim_mod, "_draw_arrivals", lambda cfg, rng: planted)
    return planted


def test_ue_at_burst_start_with_matching_first_slot(monkeypatch):
    planted_arrivals(monkeypatch, [0.0], [3])
    report = simulate(draw_ues(uniform_cfg()), d_first_policy())
    assert report.delay_us[0] == 0.0


def test_ue_at_burst_start_under_sequential_waits_three_slots(monkeypatch):
    planted_arrivals(monkeypatch, [0.0], [3])
    report = simulate(draw_ues(uniform_cfg()),
                      PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert abs(report.delay_us[0] - 3 * SLOT_DUR) < 1e-9
    assert abs(report.delay_us[0] - 53.5714285) < 1e-3


def test_ue_just_after_last_sector_slot_catches_next_burst(monkeypatch):
    # sector D's last SSB under sequential sits at offset 11 * slot
    planted_arrivals(monkeypatch, [11 * SLOT_DUR + 0.01], [3])
    report = simulate(draw_ues(uniform_cfg()),
                      PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    expected = (20_000.0 + 3 * SLOT_DUR) - (11 * SLOT_DUR + 0.01)
    assert abs(report.delay_us[0] - expected) < 1e-9
    assert report.delay_us[0] < 20_000.0 + 250.0


def test_mid_burst_arrival_picks_next_matching_slot(monkeypatch):
    # arrival between the two A-slots of a sequential burst
    planted_arrivals(monkeypatch, [2 * SLOT_DUR, 4.5 * SLOT_DUR], [0, 0])
    report = simulate(draw_ues(uniform_cfg()),
                      PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert abs(report.delay_us[0] - 2 * SLOT_DUR) < 1e-9   # waits for slot 4
    assert abs(report.delay_us[1] - 3.5 * SLOT_DUR) < 1e-9  # waits for slot 8


def test_every_sampled_delay_matches_the_static_rule():
    cfg = uniform_cfg(seed=42, total_rate=2.0)
    sched = build_schedule(sequential_ranking())
    ues = draw_ues(cfg)
    report = simulate(ues, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert report.n_ues > 100
    period = BURST_PERIOD_US
    for t, s, d in zip(ues.arrival_us, ues.sectors, report.delay_us):
        offs = np.array(sector_offsets_scalar(sched.slots, int(s)))
        phase = t % period
        later = offs[offs >= phase]
        expected = (later[0] - phase) if later.size else (period + offs[0] - phase)
        assert abs(d - expected) < 1e-6
        assert 0.0 <= d < period + 250.0


def test_simulation_is_deterministic_and_arrivals_are_paired():
    cfg = uniform_cfg(seed=7, total_rate=1.0)
    ues_a, ues_b = draw_ues(cfg), draw_ues(cfg)
    for name in ("arrival_us", "sectors", "needed"):
        assert np.array_equal(getattr(ues_a, name), getattr(ues_b, name)), name
    a = simulate(ues_a, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    b = simulate(ues_b, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert np.array_equal(a.delay_us, b.delay_us)

    c = simulate(ues_a, d_first_policy())
    assert not np.array_equal(a.delay_us, c.delay_us)


def test_detection_failures_stretch_delays():
    sure_ues = draw_ues(uniform_cfg(seed=3, total_rate=1.0))
    flaky_ues = draw_ues(uniform_cfg(seed=3, total_rate=1.0, detect_prob=0.4))
    sure = simulate(sure_ues, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    flaky = simulate(flaky_ues, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert np.array_equal(sure_ues.arrival_us, flaky_ues.arrival_us)
    assert flaky.mean_us > sure.mean_us
    assert np.all(flaky.delay_us >= sure.delay_us - 1e-9)
    assert np.all(np.isfinite(flaky.delay_us))


def test_dominance_of_earlier_first_slot():
    # all arrivals in sector A: A-first beats A-last with matched arrivals
    rates = np.array([[1.0, 0.0, 0.0, 0.0]])
    cfg = SimConfig(arrival_rates_per_s=rates, horizon_us=sim_mod.SLOT_US, seed=5)
    ues = draw_ues(cfg)
    a_first = simulate(ues, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    a_last = simulate(ues, PerSlotPolicy.from_ranking(
        rank_sectors([0.0, 3.0, 2.0, 1.0], np.random.default_rng(0)), name="a_last"))
    assert a_first.mean_us < a_last.mean_us
    only_a = [1.0, 0.0, 0.0, 0.0]
    assert (expected_delay_static(build_schedule(sequential_ranking()), only_a)
            < expected_delay_static(build_schedule(
                rank_sectors([0.0, 3.0, 2.0, 1.0], np.random.default_rng(0))), only_a))


def test_zero_rates_give_empty_report():
    cfg = SimConfig(arrival_rates_per_s=np.zeros((1, 4)),
                    horizon_us=sim_mod.SLOT_US, seed=0)
    ues = draw_ues(cfg)
    report = simulate(ues, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert report.n_ues == 0
    assert report_csv(ues, [report]) == ""
    assert np.isnan(report.mean_us)
    text = summary_csv([report])
    assert text.splitlines()[1] == "sequential,nan,nan,nan,0"


def test_compare_refuses_a_run_without_ues():
    cfg = uniform_cfg(seed=4, total_rate=0.2)
    seq = PerSlotPolicy.from_ranking(sequential_ranking(), "sequential")
    empty = simulate(draw_ues(SimConfig(arrival_rates_per_s=np.zeros((1, 4)),
                                        horizon_us=sim_mod.SLOT_US, seed=5)), seq)
    assert empty.n_ues == 0
    with pytest.raises(InvalidConfigError, match="'sequential' seed 5 has no UE"):
        compare([simulate(draw_ues(cfg), seq), empty])


def test_per_slot_policy_switches_schedules(monkeypatch):
    # two slots: first favors A, second favors D; same phase in each slot
    values = np.array([[9.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 9.0]])
    policy = PerSlotPolicy.from_values("oracle", values, np.random.default_rng(0))
    t2 = sim_mod.SLOT_US + 0.0  # first burst of slot 1
    planted_arrivals(monkeypatch, [0.0, t2], [0, 0])
    cfg = SimConfig(arrival_rates_per_s=np.zeros((2, 4)),
                    horizon_us=2 * sim_mod.SLOT_US, seed=0)
    report = simulate(draw_ues(cfg), policy)
    assert report.delay_us[0] == 0.0              # A leads slot 0's schedule
    assert report.delay_us[1] > 2 * SLOT_DUR - 1e-9  # A is ranked behind C,D now

    # two schedules cannot cover a third slot
    cfg = SimConfig(arrival_rates_per_s=np.zeros((3, 4)),
                    horizon_us=3 * sim_mod.SLOT_US, seed=0)
    with pytest.raises(InvalidConfigError):
        simulate(draw_ues(cfg), policy)


def test_simulate_rejects_schedules_missing_a_sector():
    lopsided = SweepSchedule(slots=(0, 1, 2) * 4 + (0, 1))  # sector D never swept
    with pytest.raises(InvalidConfigError):
        PerSlotPolicy("bad", [lopsided])


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        SimConfig(arrival_rates_per_s=np.full((1, 4), -1.0), horizon_us=1e6)
    with pytest.raises(InvalidConfigError):
        SimConfig(arrival_rates_per_s=np.zeros((1, 3)), horizon_us=1e6)
    with pytest.raises(InvalidConfigError):
        SimConfig(arrival_rates_per_s=np.zeros((1, 4)), horizon_us=0.0)
    with pytest.raises(InvalidConfigError):
        SimConfig(arrival_rates_per_s=np.zeros((1, 4)), horizon_us=1e6,
                  detect_prob=0.0)
    # more than MAX_SLOTS slots: 1e25 us would put arrivals past 2**63 us
    longest = MAX_SLOTS * SLOT_US
    for horizon_us in (np.inf, -np.inf, np.nan, -1.0, np.nextafter(longest, np.inf), 1e25):
        with pytest.raises(InvalidConfigError,
                           match=f"horizon_us must be positive and at most {MAX_SLOTS} slots"):
            SimConfig(arrival_rates_per_s=np.zeros((1, 4)), horizon_us=horizon_us)
    assert SimConfig(arrival_rates_per_s=np.zeros((1, 4)), horizon_us=longest).n_slots == MAX_SLOTS
    # two rate rows cannot cover three slots
    with pytest.raises(InvalidConfigError):
        SimConfig(arrival_rates_per_s=np.ones((2, 4)), horizon_us=3 * sim_mod.SLOT_US)
    SimConfig(arrival_rates_per_s=np.ones((3, 4)), horizon_us=3 * sim_mod.SLOT_US)


def test_config_refuses_more_than_max_ues_before_drawing_any():
    # one row over the whole horizon, and per-slot rows with a half last slot
    at_cap = MAX_UES / (3 * SLOT_US / 1e6)
    per_slot = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 9.0, 0.0, 0.0]])
    per_slot *= MAX_UES / (per_slot.sum(axis=1) @ [SLOT_US, SLOT_US, SLOT_US / 2] / 1e6)
    for rates, horizon_us in (([[at_cap / 4] * 4], 3 * SLOT_US), (per_slot, 2.5 * SLOT_US)):
        SimConfig(arrival_rates_per_s=rates, horizon_us=horizon_us)
        with pytest.raises(InvalidConfigError, match=f"more than MAX_UES = {MAX_UES}"):
            SimConfig(arrival_rates_per_s=np.asarray(rates) * (1 + 1e-9), horizon_us=horizon_us)
    # far above the cap over the longest horizon: refused without a draw
    # (4e12 UEs per second over 6e8 s would ask for 2.4e21 UEs)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfigError,
                           match=r"the rates give 2\.4e\+21 UEs per run on average"):
            SimConfig(arrival_rates_per_s=np.full((1, 4), 1e12), horizon_us=MAX_SLOTS * SLOT_US)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # a finite rate whose expected count overflows is refused too
    with pytest.raises(InvalidConfigError, match="the rates give inf UEs"):
        SimConfig(arrival_rates_per_s=np.full((1, 4), 1e305), horizon_us=SLOT_US)


def test_rates_from_counts_scales_to_target_mean():
    counts = np.array([[10, 0, 0, 10], [20, 0, 0, 0]])
    rates = rates_from_counts(counts, 2.0)
    assert rates.shape == (2, 4)
    assert abs(rates.sum(axis=1).mean() - 2.0) < 1e-12
    assert rates[0, 1] == 0.0
    assert np.array_equal(rates_from_counts(np.zeros((3, 4)), 5.0), np.zeros((3, 4)))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidConfigError, match=f"mean rate .* got {bad}"):
            rates_from_counts(counts, bad)


@pytest.mark.parametrize("counts, cell, value", [([[np.nan, 1, 1, 1]], "[0, 0]", "nan"),
                                                 ([[-4, 1, 1, 1]], "[0, 0]", "-4.0"),
                                                 ([[-3, 1, 1, 1]], "[0, 0]", "-3.0"),
                                                 ([[1, 1, 1, 1], [1, 1, np.inf, 1]],
                                                  "[1, 2]", "inf")])
def test_rates_from_counts_names_the_first_bad_count(counts, cell, value):
    with pytest.raises(InvalidConfigError, match=re.escape(
            f"counts{cell} must be finite and non-negative, got {value}")):
        rates_from_counts(counts, 1.0)


def test_a_slot_is_a_whole_number_of_bursts():
    assert isinstance(BURSTS_PER_SLOT, int)
    assert BURSTS_PER_SLOT * BURST_PERIOD_US == SLOT_US == SLOT_MS * 1000


def test_detect_prob_has_a_floor_that_keeps_delays_renderable():
    floor = DETECT_PROB_FLOOR
    assert floor == 45.0 * BURST_PERIOD_US / 2.0 ** 62
    rates = np.full((1, 4), 2.0)
    cfg = SimConfig(arrival_rates_per_s=rates, horizon_us=30e6, detect_prob=floor, seed=1)
    ues = draw_ues(cfg)
    report = simulate(ues, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert report.n_ues > 100
    # delays far beyond any slot, yet positive and below 2**62 us plus two bursts
    assert np.all(report.delay_us > 0)
    assert np.all(report.delay_us < 2.0 ** 62 + 2 * BURST_PERIOD_US)
    assert report_csv(ues, [report]).count("\n") == report.n_ues
    with pytest.raises(InvalidConfigError, match=r"detect_prob must be at least .* got 1e-300"):
        SimConfig(arrival_rates_per_s=rates, horizon_us=30e6, detect_prob=1e-300)
    below = float(np.nextafter(floor, 0.0))
    with pytest.raises(InvalidConfigError, match=f"detect_prob must be at least {floor!r}"):
        SimConfig(arrival_rates_per_s=rates, horizon_us=30e6, detect_prob=below)


def test_expected_delay_closed_form_against_quadrature():
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(3):
        cases.append((build_schedule(rank_sectors(rng.uniform(0, 10, 4), rng)),
                      rng.dirichlet(np.ones(4))))
    # sector D has no share and no SSB
    cases.append((SweepSchedule(slots=(0, 1, 2) * 4 + (0, 1)), [0.5, 0.25, 0.25, 0.0]))
    for sched, shares in cases:
        closed = expected_delay_static(sched, shares)
        brute = sum(shares[s] * expected_wait_brute(
                        sector_offsets_scalar(sched.slots, s), 20_000.0, n_grid=200_000)
                    for s in range(4) if shares[s] > 0)
        assert abs(closed - brute) / brute < 1e-3
    assert abs(closed - 9800.40) < 0.01  # the unswept-sector case


def random_schedules(rng, n):
    """n schedules, in turn: round-robin from a random ranking, 14 random
    slots that sweep every sector, and 14 random slots over a random subset
    of the sectors."""
    scheds = []
    for k in range(n):
        if k % 3 == 0:
            slots = build_schedule(rank_sectors(rng.uniform(0, 10, 4), rng)).slots
        elif k % 3 == 1:
            slots = rng.permutation(np.r_[0:4, rng.integers(0, 4, 10)]).tolist()
        else:
            slots = rng.choice(rng.permutation(4)[:rng.integers(1, 5)], 14).tolist()
        scheds.append(SweepSchedule(slots=tuple(slots)))
    return scheds


def test_expected_delay_matches_the_per_sector_loop():
    rng = np.random.default_rng(33)
    unswept = 0  # sectors left without share or SSB
    for sched in random_schedules(rng, 240):
        shares = rng.dirichlet(np.ones(4))
        shares[[s not in sched.slots for s in range(4)]] = 0.0
        shares /= shares.sum()
        unswept += int(np.sum(shares == 0))
        closed = expected_delay_static(sched, shares)
        loop = expected_delay_scalar(sched.slots, shares.tolist(), BURST_PERIOD_US)
        assert abs(closed - loop) <= 1e-12 * loop
    assert unswept > 50


def test_policy_tables_match_the_per_sector_offsets():
    rng = np.random.default_rng(34)
    for _ in range(200):
        # the first is round-robin, so at least one schedule sweeps every sector
        scheds = [sched for sched in random_schedules(rng, int(rng.integers(1, 7)))
                  if len(set(sched.slots)) == 4]
        policy = PerSlotPolicy("p", scheds)
        rows = [[sector_offsets_scalar(sched.slots, s) for s in range(4)] for sched in scheds]
        offsets = np.array([[row + [np.inf] * (14 - len(row)) for row in table]
                            for table in rows])
        counts = np.array([[len(row) for row in table] for table in rows])
        assert policy.offsets.dtype == offsets.dtype and policy.counts.dtype == counts.dtype
        assert policy.offsets.tobytes() == offsets.tobytes()
        assert policy.counts.tobytes() == counts.tobytes()


def test_expected_delay_hand_cases():
    # single opportunity at offset 0 and the whole share on it: mean P/2
    lonely = SweepSchedule(slots=(0,) + (1, 2, 3) * 4 + (1,))
    val = expected_delay_static(lonely, [1.0, 0.0, 0.0, 0.0])
    assert abs(val - 10_000.0) < 1e-9

    # uniform shares: relabeling the sectors in the ranking keeps the mean
    base = build_schedule(sequential_ranking())
    rot = build_schedule(rank_sectors([3.0, 4.0, 1.0, 2.0], np.random.default_rng(0)))
    u = [0.25, 0.25, 0.25, 0.25]
    assert abs(expected_delay_static(base, u) - expected_delay_static(rot, u)) < 1e-9


def test_monte_carlo_tracks_the_closed_form():
    rng = np.random.default_rng(17)
    shares = rng.dirichlet(np.ones(4) * 3)
    sched_rng = np.random.default_rng(18)
    ranking = rank_sectors(sched_rng.uniform(0, 5, 4), sched_rng)
    policy = PerSlotPolicy.from_ranking(ranking, name="static")
    sched = build_schedule(ranking)

    cfg = SimConfig(arrival_rates_per_s=(shares * 50.0).reshape(1, 4),
                    horizon_us=sim_mod.SLOT_US, seed=4)
    report = simulate(draw_ues(cfg), policy)
    assert report.n_ues > 20_000
    expected = expected_delay_static(sched, shares)
    assert abs(report.mean_us - expected) / expected < 0.02


def test_bad_shares_rejected():
    sched = build_schedule(sequential_ranking())
    with pytest.raises(BadSharesError):
        expected_delay_static(sched, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(BadSharesError):
        expected_delay_static(sched, [0.3, 0.3, 0.3, 0.3])
    with pytest.raises(BadSharesError):
        expected_delay_static(sched, [1.0, 0.0, 0.0])
    lonely = SweepSchedule(slots=(0,) + (1, 2, 3) * 4 + (1,))
    with pytest.raises(InvalidConfigError):
        # sector D holds share but never appears in the schedule
        expected_delay_static(SweepSchedule(slots=(0, 1, 2) * 4 + (0, 1)),
                              [0.25, 0.25, 0.25, 0.25])
    assert expected_delay_static(lonely, [1.0, 0.0, 0.0, 0.0]) > 0


@pytest.mark.parametrize("shares", [
    [0.25, 0.25, np.nan, 0.5],
    [0.5, 0.5, 0.5, -0.5],
    [0.5, 0.5, 0.0],
    [0.3, 0.3, 0.3, 0.3],
])
def test_synthetic_series_rejects_bad_shares(shares):
    # the same check guards expected_delay_static (test_bad_shares_rejected)
    with pytest.raises(BadSharesError):
        synthetic_series(10, seed=0, shares=shares)
    with pytest.raises(BadSharesError):
        expected_delay_static(build_schedule(sequential_ranking()), shares)


@pytest.mark.parametrize("shares", [None, (0.1, 0.15, 0.25, 0.5)])
def test_synthetic_series_draws_in_blocks_what_one_draw_gives(shares):
    n_slots = 3 * _DRAW_SLOTS + 123   # three whole blocks and a part
    for seed in (0, 2013):
        counts = synthetic_series(n_slots, seed=seed, shares=shares).counts
        want = synthetic_counts_one_draw(n_slots, seed, shares)
        assert counts.dtype == want.dtype and counts.tobytes() == want.tobytes()


def test_paired_ci_is_narrower_than_unpaired():
    # common random numbers: both policies see the same arrivals per seed,
    # so the per-seed means move together and their differences vary less
    shares = np.array([0.1, 0.1, 0.1, 0.7])
    seq = PerSlotPolicy.from_ranking(sequential_ranking(), "sequential")
    skewed = PerSlotPolicy.from_ranking(rank_sectors(shares, np.random.default_rng(0)),
                                        name="skewed")
    reports = []
    for seed in range(20):
        cfg = SimConfig(arrival_rates_per_s=shares * 0.5, horizon_us=sim_mod.SLOT_US,
                        seed=seed)
        ues = draw_ues(cfg)
        reports += [simulate(ues, seq), simulate(ues, skewed)]
    row = compare(reports).rows[1]

    means_a = np.array([r.mean_us for r in reports[0::2]])
    means_b = np.array([r.mean_us for r in reports[1::2]])
    n = len(means_a)
    unpaired = 2 * 1.96 * np.sqrt(np.var(means_a, ddof=1) / n + np.var(means_b, ddof=1) / n)
    paired = row.ci_hi_us - row.ci_lo_us
    assert abs(row.mean_diff_us - float(np.mean(means_b - means_a))) < 1e-9
    assert 0 < paired < unpaired, (paired, unpaired)


def test_compare_pairs_by_seed():
    def fake_report(policy, seed, mean):
        delays = np.array([mean])
        return SimReport(policy=policy, seed=seed, delay_us=delays)

    reports = []
    for seed, (a, b) in enumerate([(10.0, 8.0), (12.0, 9.0), (11.0, 11.0)]):
        reports.append(fake_report("sequential", seed, a))
        reports.append(fake_report("predicted", seed, b))
    comp = compare(reports)
    assert comp.baseline == "sequential"
    assert [r.policy for r in comp.rows] == ["sequential", "predicted"]
    seq, pred = comp.rows
    assert seq.mean_diff_us == 0.0 and seq.n_equal == 3
    assert pred.n_lower == 2 and pred.n_equal == 1 and pred.n_higher == 0
    assert abs(pred.mean_diff_us - (-5.0 / 3)) < 1e-12
    assert pred.ci_lo_us < pred.mean_diff_us < pred.ci_hi_us

    header = comp.csv_text().splitlines()[0]
    assert header.startswith("policy,n_seeds,mean_us,mean_diff_us")

    with pytest.raises(MismatchedConfigsError):
        compare(reports + [fake_report("oracle", 99, 5.0)])
    with pytest.raises(MismatchedConfigsError):
        compare(reports + [fake_report("sequential", 0, 1.0)])
    with pytest.raises(MismatchedConfigsError):
        compare([])


def test_identical_policies_compare_to_zero():
    cfg_a = uniform_cfg(seed=1, total_rate=0.5)
    cfg_b = uniform_cfg(seed=2, total_rate=0.5)
    seq = PerSlotPolicy.from_ranking(sequential_ranking(), "sequential")
    twin = PerSlotPolicy.from_ranking(sequential_ranking(), name="twin")
    ues_a, ues_b = draw_ues(cfg_a), draw_ues(cfg_b)
    reports = [simulate(ues_a, seq), simulate(ues_a, twin),
               simulate(ues_b, seq), simulate(ues_b, twin)]
    comp = compare(reports)
    assert comp.rows[1].mean_diff_us == 0.0
    assert comp.rows[1].n_equal == 2


def test_report_csv_layout():
    ues = draw_ues(uniform_cfg(seed=9, total_rate=0.2))
    report = simulate(ues, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    lines = (REPORT_HEADER + report_csv(ues, [report])).splitlines()
    assert lines[0] == "policy,seed,ue_id,sector,arrival_us,delay_us"
    assert len(lines) == 1 + report.n_ues
    first = lines[1].split(",")
    assert first[0] == "sequential" and first[2] == "0"
    assert first[3] in "ABCD"

    summary = summary_csv([report]).splitlines()
    assert summary[0] == "policy,mean_us,median_us,p95_us,n"
    assert summary[1].split(",")[4] == str(report.n_ues)


@pytest.mark.parametrize("n_ues", [7, 8])   # pooled over three seeds: 21 and 24 UEs
def test_summary_csv_leaves_shared_delays_as_they_are(n_ues):
    # the CLI keeps each policy's delays in one buffer and reports views of it
    kept = np.random.default_rng(n_ues).exponential(5000.0, size=(2, 3 * n_ues))
    before = kept.copy()
    views = [SimReport(policy, seed, kept[p, seed * n_ues:(seed + 1) * n_ues])
             for seed in range(3) for p, policy in enumerate(("first", "second"))]
    text = summary_csv(views)
    assert kept.tobytes() == before.tobytes()
    assert text == summary_csv([SimReport(r.policy, r.seed, r.delay_us.copy()) for r in views])
    assert text.splitlines()[1:] == [
        f"{policy},{delays.mean():.3f},{np.median(delays.copy()):.3f},"
        f"{np.percentile(delays.copy(), 95):.3f},{3 * n_ues}"
        for policy, delays in zip(("first", "second"), before)]


@pytest.mark.parametrize("rates, n_slots", [
    (np.full((1, 4), 0.01), 5),                                   # one row for every slot
    (np.random.default_rng(2).uniform(0, 0.01, (6, 4)), 5.4),     # per-slot, partial last
    ([[0.0, 0.01, 0.0, 0.002]], 3.25),                            # zero-rate sectors
    ([[0.0, 0.0, 0.005, 0.0], [0.0, 0.0, 0.0, 0.0]], 1.7),        # a slot without UEs
    (np.zeros((1, 4)), 2),                                        # no UE at all
    (np.full((1, 4), 0.02), 36),                                  # the CLI's sweep length
])
def test_draw_arrivals_matches_the_scalar_oracle_bit_for_bit(rates, n_slots):
    cfg = SimConfig(arrival_rates_per_s=rates, horizon_us=n_slots * SLOT_US)
    for seed in range(3):
        got = sim_mod._draw_arrivals(cfg, np.random.default_rng(seed))
        want = draw_arrivals_scalar(cfg.arrival_rates_per_s.tolist(), cfg.horizon_us,
                                    SLOT_US, np.random.default_rng(seed))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class PlantedStream:
    """An arrival substream that serves planted values in draw order, one per
    element of each request, as numpy's generator does: poisson takes the
    next of counts and uniform the next of times, whether a call asks for
    one value or for an array of them."""

    def __init__(self, counts, times):
        self.counts, self.times = np.asarray(counts), np.concatenate(times)
        self.used = {"counts": 0, "times": 0}

    def _next(self, name, shape):
        start = self.used[name]
        self.used[name] += math.prod(shape)
        return getattr(self, name)[start:self.used[name]].reshape(shape)[()]

    def poisson(self, lam):
        return self._next("counts", np.shape(lam))

    def uniform(self, low, high, size=None):
        return self._next("times", np.broadcast(low, high).shape if size is None else (size,))


class CountingStream:
    """A real generator that counts the calls made to each of its methods."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("n_slots", [1, 36])
def test_draw_arrivals_makes_one_poisson_and_one_uniform_call_per_run(n_slots):
    cfg = SimConfig(arrival_rates_per_s=np.full((1, 4), 0.02), horizon_us=n_slots * SLOT_US)
    stream = CountingStream(3)
    got = sim_mod._draw_arrivals(cfg, stream)
    assert stream.calls == {"poisson": 1, "uniform": 1}
    assert got[0].size > 0
    for g, w in zip(got, sim_mod._draw_arrivals(cfg, np.random.default_rng(3))):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("ties", [True, False])
def test_draw_arrivals_sorts_stably_only_when_times_tie(monkeypatch, ties):
    cfg = SimConfig(arrival_rates_per_s=np.full((1, 4), 0.01), horizon_us=2 * SLOT_US)
    counts = [300, 0, 250, 200, 180, 220, 0, 150]   # two slots of four sectors
    rng = np.random.default_rng(7)
    # with ties, times on a coarse grid: many equal times across sectors
    times = [rng.integers(0, 40, n) * 1e6 if ties else rng.uniform(0, 4e7, n)
             for n in counts if n]
    want = draw_arrivals_scalar(cfg.arrival_rates_per_s.tolist(), cfg.horizon_us, SLOT_US,
                                PlantedStream(counts, times))
    if ties:   # the default sort does not keep the draw order of equal times
        assert not np.array_equal(want[1], np.repeat(np.arange(8) % 4, counts)[
            np.argsort(np.concatenate(times))])
    kinds, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda a, kind=None: kinds.append(kind) or argsort(a, kind=kind))
    got = sim_mod._draw_arrivals(cfg, PlantedStream(counts, times))
    assert kinds == ([None, "stable"] if ties else [None])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def scalar_run(cfg, policy, planted=None):
    """simulate() through the scalar oracles: the same arrival and detection
    streams (or the planted arrivals), then one UE and one burst at a time."""
    arrival_seq, detect_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    if planted is None:
        arrivals, sectors = draw_arrivals_scalar(
            cfg.arrival_rates_per_s.tolist(), cfg.horizon_us, SLOT_US,
            np.random.default_rng(arrival_seq))
    else:
        arrivals, sectors = planted
    needed = np.random.default_rng(detect_seq).geometric(cfg.detect_prob,
                                                         size=arrivals.shape[0])
    # the plain reference: each slot's schedule, one sector at a time
    schedules = policy.schedules
    if len(schedules) == 1:
        schedules *= cfg.n_slots
    table = [[sector_offsets_scalar(sched.slots, s) for s in range(4)]
             for sched in schedules[:cfg.n_slots]]
    delays = simulate_scalar(arrivals.tolist(), sectors.tolist(), needed.tolist(),
                             table, BURST_PERIOD_US, SLOT_US)
    return arrivals, sectors, np.array(delays)


def assert_matches_scalar(cfg, policy, planted=None):
    """simulate on draw_ues(cfg) equals scalar_run; returns the draw and the run."""
    ues = draw_ues(cfg)
    report = simulate(ues, policy)
    arrivals, sectors, delays = scalar_run(cfg, policy, planted)
    assert np.array_equal(ues.arrival_us, arrivals)
    assert np.array_equal(ues.sectors, sectors)
    assert report.delay_us.dtype == delays.dtype
    assert np.array_equal(report.delay_us, delays)  # bit for bit, not to a tolerance
    return ues, report


def slots_crossed(ues, report):
    """UEs that detect in a later slot than the one they arrived in."""
    def slot_of(t):
        burst = (t // BURST_PERIOD_US).astype(np.int64)
        return np.minimum(burst // BURSTS_PER_SLOT, ues.cfg.n_slots - 1)

    return int(np.sum(slot_of(ues.arrival_us + report.delay_us) != slot_of(ues.arrival_us)))


@pytest.mark.parametrize("detect_prob", [1.0, 0.5, 0.1, 0.03])
def test_simulate_matches_scalar_oracle_bit_for_bit(monkeypatch, detect_prob):
    rng = np.random.default_rng(round(detect_prob * 1000))
    crossed = n_ues = 0
    for trial in range(12):
        n_slots = int(rng.integers(1, 7))
        horizon_us = (n_slots - rng.uniform(0.0, 0.9)) * SLOT_US
        shares = rng.dirichlet(np.ones(4))
        per_slot = rng.uniform(0.5, 1.5, size=(n_slots, 1))
        rates = per_slot * shares * (300.0 / (horizon_us / 1e6))
        cfg = SimConfig(arrival_rates_per_s=rates, horizon_us=horizon_us,
                        detect_prob=detect_prob, seed=int(rng.integers(2**63)))
        # drawn arrivals rarely retry past the end of a 30,000-burst slot, so
        # plant 100 more in the last three bursts of random slots
        ends = rng.integers(1, n_slots + 1, size=100) * BURSTS_PER_SLOT
        late = (ends - rng.integers(1, 4, size=100)) * BURST_PERIOD_US
        late = np.sort(late + rng.uniform(0.0, BURST_PERIOD_US, size=100))
        late = late[late < horizon_us]
        # small integer values per slot: many ties, broken by the policy's rng
        tied = rng.integers(0, 3, size=(cfg.n_slots, 4)).astype(np.float64)
        for policy in (PerSlotPolicy.from_values("tied", tied, rng),
                       PerSlotPolicy.from_ranking(rank_sectors(rng.uniform(0, 1, 4),
                                                               rng), "predicted")):
            reports = [assert_matches_scalar(cfg, policy)]
            with monkeypatch.context() as patch:
                planted = planted_arrivals(patch, late, rng.integers(0, 4, size=late.size))
                reports.append(assert_matches_scalar(cfg, policy, planted))
            for ues, report in reports:
                crossed += slots_crossed(ues, report)
                n_ues += report.n_ues
    assert n_ues > 2_000
    assert crossed > 0


@pytest.mark.parametrize("detect_prob", [1.0, 0.3])
def test_simulate_matches_scalar_oracle_on_planted_edges(monkeypatch, detect_prob):
    values = np.array([[9.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 9.0], [5.0, 5.0, 1.0, 1.0]])
    policy = PerSlotPolicy.from_values("edges", values, np.random.default_rng(0))
    # bursts at phase 0, and the last burst of each of the first two slots
    first_bursts = [0, BURSTS_PER_SLOT, 2 * BURSTS_PER_SLOT]
    last_bursts = [b - 1 for b in first_bursts[1:]]
    phases = [0.0, SLOT_DUR, SLOT_DUR + 0.01, 13 * SLOT_DUR, 13 * SLOT_DUR + 1e-6, 249.0,
              19_999.0]
    times = [b * BURST_PERIOD_US + ph for b in first_bursts + last_bursts for ph in phases]
    times += [SLOT_US, 2 * SLOT_US, SLOT_US - 1.0]
    times = np.repeat(times, 4)
    sectors = np.tile(np.arange(4), times.size // 4)
    planted = planted_arrivals(monkeypatch, times, sectors)
    cfg = SimConfig(arrival_rates_per_s=np.zeros((3, 4)), horizon_us=3 * SLOT_US,
                    detect_prob=detect_prob, seed=3)
    assert slots_crossed(*assert_matches_scalar(cfg, policy, planted)) > 0


def test_count_table_matches_the_offsets_compare_on_planted_phases(monkeypatch):
    # arrivals on every SSB offset, one ulp either side, and one ulp before the
    # next burst, in the first burst (where the arrival is the phase), mid-slot
    # and around the slot boundaries
    bursts = np.array([0, 17, BURSTS_PER_SLOT - 1, BURSTS_PER_SLOT, 2 * BURSTS_PER_SLOT + 5])
    starts = bursts[:, None] * BURST_PERIOD_US
    on = starts + SSB_OFFSETS_US
    times = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
                            np.nextafter(starts + BURST_PERIOD_US, 0.0)], axis=1).ravel()
    times = np.repeat(np.sort(times[times >= 0.0]), 4)
    planted = planted_arrivals(monkeypatch, times, np.tile(np.arange(4), times.size // 4))
    cfg = SimConfig(arrival_rates_per_s=np.zeros((3, 4)), horizon_us=3 * SLOT_US,
                    detect_prob=0.3, seed=8)
    ues = draw_ues(cfg)
    phase = ues.arrival_us - ues.burst * BURST_PERIOD_US
    assert np.isin(SSB_OFFSETS_US, phase).all()
    assert np.isin([0.0, np.nextafter(SSB_OFFSETS_US[1], 0.0),
                    np.nextafter(BURST_PERIOD_US, 0.0)], phase).all()
    values = [[9.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 9.0], [5.0, 5.0, 1.0, 1.0]]
    for policy in (PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"),
                   PerSlotPolicy.from_values("per_slot", values, np.random.default_rng(1))):
        k = np.minimum(ues.slot, len(policy.schedules) - 1)
        passed = (policy.offsets[k, ues.sectors] < phase[:, None]).sum(axis=1)
        assert np.array_equal(policy.before[k, ues.sectors, ues.ssb_pos], passed)
        assert np.array_equal(policy.before[:, :, -1], policy.counts)
        assert_matches_scalar(cfg, policy, planted)


def planted_draw(seed, sectors, arrival_us):
    """A draw of these sectors and arrivals for seed; report_csv reads no more of one."""
    zeros = np.zeros(len(arrival_us), dtype=np.int64)
    return sim_mod.UeDraw(cfg=uniform_cfg(seed=seed), arrival_us=np.asarray(arrival_us, float),
                          sectors=np.asarray(sectors, np.int64), needed=zeros + 1,
                          burst=zeros, slot=zeros, ssb_pos=zeros)


def test_report_csv_refuses_a_run_of_another_draw(monkeypatch):
    ues = draw_ues(uniform_cfg(seed=5, total_rate=2.0))
    good = simulate(ues, d_first_policy())
    seq = PerSlotPolicy.from_ranking(sequential_ranking(), "sequential")
    rendered = []
    for name in ("_lead_words", "_run_rows"):
        real = getattr(sim_mod, name)
        monkeypatch.setattr(sim_mod, name,
                            lambda *args, real=real: rendered.append(args) or real(*args))
    # another seed, and the same seed with another UE count
    for other in (uniform_cfg(seed=6, total_rate=2.0), uniform_cfg(seed=5, total_rate=1.0)):
        bad = simulate(draw_ues(other), seq)
        assert (bad.seed, bad.n_ues) != (good.seed, good.n_ues)
        with pytest.raises(MismatchedConfigsError, match=re.escape(
                f"policy 'sequential' seed {bad.seed} holds {bad.n_ues} UEs, "
                f"but its draw is of seed 5 with {good.n_ues} UEs")):
            report_csv(ues, [good, bad])
        assert rendered == []
    assert report_csv(ues, [good]).count("\n") == good.n_ues


def test_report_csv_renders_the_columns_of_one_draw_once_and_byte_for_byte(monkeypatch):
    policies = [PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"),
                d_first_policy(), PerSlotPolicy.from_ranking(sequential_ranking(), "100%d")]
    lead_words = sim_mod._lead_words
    renders = []
    monkeypatch.setattr(sim_mod, "_lead_words",
                        lambda ues, first: renders.append(first.policy) or lead_words(ues, first))
    for seed in (31, 32):
        ues = draw_ues(uniform_cfg(seed=seed, total_rate=2.0, detect_prob=0.5))
        runs = [simulate(ues, policy) for policy in policies]
        renders.clear()
        text = report_csv(ues, runs)
        assert renders == ["sequential"]
        assert REPORT_HEADER + text == report_csv_scalar(
            [(r.policy, r.seed, ues.sectors, ues.arrival_us, r.delay_us) for r in runs])
        # rows of consecutive runs of one draw concatenate to the rows of all of them
        assert "".join(report_csv(ues, [r]) for r in runs) == text
        assert report_csv(ues, []) == ""


def test_report_csv_names_the_first_run_of_a_shared_arrival_it_cannot_render():
    ues = planted_draw(4, np.arange(3), [1.0, 2.0, np.nan])
    runs = [SimReport(policy=name, seed=4, delay_us=np.array([5.0, 6.0, 7.0]))
            for name in ("first", "second")]
    for start, name in ((0, "first"), (1, "second")):
        with pytest.raises(InvalidConfigError,
                           match=re.escape(f"policy {name!r} seed 4 row 2: arrival_us nan ")):
            report_csv(ues, runs[start:])


def test_report_csv_matches_scalar_renderer_byte_for_byte():
    # .0005 rounding edges (exact and inexact in binary), zero, and > 1e10;
    # negatives, -0.0, a subnormal, the last half below 2**52, whole numbers
    # from 2**53 up to the largest double below 2**63
    arrivals = np.array([0.0, 0.0005, 1.0005, 2.0625, 0.0015, 2.675, 1e10 + 0.0005,
                         123456789012.3455, 5e15 + 0.5, 999.9995, -0.0, -2.0625,
                         5e-324, 2.0 ** 52 - 0.5, 2.0 ** 53, 2.0 ** 63 - 1024])
    delays = np.array([0.0, 1.0005, 0.0625, 0.0005, 1e11 + 0.0625, 3.0005, 12.5,
                       0.125, 19_999.9995, 1e12, -0.0004, -(2.0 ** 63 - 1024),
                       -5e-324, -(2.0 ** 52 - 0.5), -0.0, 7.0])
    sectors = np.array([0, 1, 2, 3, 3, 2, 1, 0, 0, 3, 1, 2, 0, 3, 2, 1])
    runs = [(planted_draw(seed, sectors[::step], arrivals[::step]),
             SimReport(policy=name, seed=seed, delay_us=delays[::step]))
            for name, seed, step in (("sequential", 0, 1),
                                     ("predicted", 2**63 + 11, 2),
                                     ("100%d", 7, 3),
                                     ("s\u00e9quence \u2192", 3, 1),
                                     ("nul\0name\0", 4, 5))]
    runs.append((planted_draw(1, [], []), SimReport(policy="empty", seed=1, delay_us=np.empty(0))))
    text = "".join(report_csv(ues, [rep]) for ues, rep in runs)
    assert REPORT_HEADER + text == report_csv_scalar(
        [(rep.policy, rep.seed, ues.sectors.tolist(), ues.arrival_us.tolist(),
          rep.delay_us.tolist()) for ues, rep in runs])

    ues = draw_ues(uniform_cfg(seed=9, total_rate=2.0, detect_prob=0.5))
    sim = [simulate(ues, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))]
    assert REPORT_HEADER + report_csv(ues, sim) == report_csv_scalar(
        [(r.policy, r.seed, ues.sectors, ues.arrival_us, r.delay_us) for r in sim])


def test_report_csv_matches_percent_format_on_fuzzed_values():
    rng = np.random.default_rng(1241)
    n = 60_000
    values = np.concatenate([
        10.0 ** rng.uniform(-8, 18, n),                  # every magnitude in range
        rng.integers(0, 2**44, n // 2) / 2000.0,         # halves of a thousandth,
        (2 * rng.integers(0, 2**44, n // 4) + 1) / 16,   # and the exact ones in binary
        rng.uniform(2.0 ** 52, 2.0 ** 63, n // 20),      # whole numbers only
    ])
    values *= rng.choice([-1.0, 1.0], values.size)
    values = values[rng.permutation(values.size)]
    assert values.size >= 100_000
    rows = report_csv(planted_draw(0, np.zeros(values.size, np.int64), values),
                      [SimReport(policy="p", seed=0, delay_us=values[::-1])]).splitlines()
    assert [row.split(",")[4] for row in rows] == ["%.3f" % v for v in values.tolist()]
    assert [row.split(",")[5] for row in rows] == ["%.3f" % v for v in values[::-1].tolist()]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 2.0 ** 63, -(2.0 ** 63)])
@pytest.mark.parametrize("column", ["arrival_us", "delay_us"])
def test_report_csv_refuses_a_value_it_cannot_render(value, column):
    fields = {"arrival_us": np.array([1.0, 2.0, 3.0, 4.0]),
              "delay_us": np.array([5.0, 6.0, 7.0, 8.0])}
    fields[column][2] = value
    fields[column][3] = value
    report = SimReport(policy="predicted", seed=17, delay_us=fields["delay_us"])
    with pytest.raises(InvalidConfigError,
                       match=re.escape(f"policy 'predicted' seed 17 row 2: {column} {value} ")):
        report_csv(planted_draw(17, np.arange(4), fields["arrival_us"]), [report])
