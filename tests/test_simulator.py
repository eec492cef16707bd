import numpy as np
import pytest

import cdrsweep.simulator as sim_mod
from cdrsweep import (
    REPORT_HEADER,
    BadSharesError,
    InvalidConfigError,
    MismatchedConfigsError,
    PerSlotPolicy,
    SimConfig,
    SimReport,
    SweepSchedule,
    build_schedule,
    compare,
    expected_delay_static,
    rank_sectors,
    rates_from_counts,
    report_csv,
    sequential_ranking,
    simulate,
    summary_csv,
    synthetic_series,
)

from _oracles import (
    expected_delay_scalar,
    expected_wait_brute,
    report_csv_scalar,
    sector_offsets_scalar,
    simulate_scalar,
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
    def fake(cfg, rng):
        return np.asarray(times, dtype=np.float64), np.asarray(sectors, dtype=np.int64)
    monkeypatch.setattr(sim_mod, "_draw_arrivals", fake)


def test_ue_at_burst_start_with_matching_first_slot(monkeypatch):
    planted_arrivals(monkeypatch, [0.0], [3])
    report = simulate(uniform_cfg(), d_first_policy())
    assert report.delay_us[0] == 0.0


def test_ue_at_burst_start_under_sequential_waits_three_slots(monkeypatch):
    planted_arrivals(monkeypatch, [0.0], [3])
    report = simulate(uniform_cfg(),
                      PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert abs(report.delay_us[0] - 3 * SLOT_DUR) < 1e-9
    assert abs(report.delay_us[0] - 53.5714285) < 1e-3


def test_ue_just_after_last_sector_slot_catches_next_burst(monkeypatch):
    # sector D's last SSB under sequential sits at offset 11 * slot
    planted_arrivals(monkeypatch, [11 * SLOT_DUR + 0.01], [3])
    report = simulate(uniform_cfg(),
                      PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    expected = (20_000.0 + 3 * SLOT_DUR) - (11 * SLOT_DUR + 0.01)
    assert abs(report.delay_us[0] - expected) < 1e-9
    assert report.delay_us[0] < 20_000.0 + 250.0


def test_mid_burst_arrival_picks_next_matching_slot(monkeypatch):
    # arrival between the two A-slots of a sequential burst
    planted_arrivals(monkeypatch, [2 * SLOT_DUR, 4.5 * SLOT_DUR], [0, 0])
    report = simulate(uniform_cfg(),
                      PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert abs(report.delay_us[0] - 2 * SLOT_DUR) < 1e-9   # waits for slot 4
    assert abs(report.delay_us[1] - 3.5 * SLOT_DUR) < 1e-9  # waits for slot 8


def test_every_sampled_delay_matches_the_static_rule():
    cfg = uniform_cfg(seed=42, total_rate=2.0)
    sched = build_schedule(sequential_ranking())
    report = simulate(cfg, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert report.n_ues > 100
    period = cfg.burst_period_us
    for t, s, d in zip(report.arrival_us, report.sectors, report.delay_us):
        offs = np.array(sector_offsets_scalar(sched.slots, int(s)))
        phase = t % period
        later = offs[offs >= phase]
        expected = (later[0] - phase) if later.size else (period + offs[0] - phase)
        assert abs(d - expected) < 1e-6
        assert 0.0 <= d < period + 250.0


def test_simulation_is_deterministic_and_arrivals_are_paired():
    cfg = uniform_cfg(seed=7, total_rate=1.0)
    a = simulate(cfg, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    b = simulate(cfg, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert np.array_equal(a.arrival_us, b.arrival_us)
    assert np.array_equal(a.delay_us, b.delay_us)

    c = simulate(cfg, d_first_policy())
    assert np.array_equal(a.arrival_us, c.arrival_us)
    assert np.array_equal(a.sectors, c.sectors)
    assert not np.array_equal(a.delay_us, c.delay_us)


def test_detection_failures_stretch_delays():
    sure = simulate(uniform_cfg(seed=3, total_rate=1.0),
                    PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    flaky = simulate(uniform_cfg(seed=3, total_rate=1.0, detect_prob=0.4),
                     PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert np.array_equal(sure.arrival_us, flaky.arrival_us)
    assert flaky.mean_us > sure.mean_us
    assert np.all(flaky.delay_us >= sure.delay_us - 1e-9)
    assert np.all(np.isfinite(flaky.delay_us))


def test_dominance_of_earlier_first_slot():
    # all arrivals in sector A: A-first beats A-last with matched arrivals
    rates = np.array([[1.0, 0.0, 0.0, 0.0]])
    cfg = SimConfig(arrival_rates_per_s=rates, horizon_us=sim_mod.SLOT_US, seed=5)
    a_first = simulate(cfg, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    a_last = simulate(cfg, PerSlotPolicy.from_ranking(
        rank_sectors([0.0, 3.0, 2.0, 1.0], np.random.default_rng(0)), name="a_last"))
    assert a_first.mean_us < a_last.mean_us
    only_a = [1.0, 0.0, 0.0, 0.0]
    assert (expected_delay_static(build_schedule(sequential_ranking()), only_a)
            < expected_delay_static(build_schedule(
                rank_sectors([0.0, 3.0, 2.0, 1.0], np.random.default_rng(0))), only_a))


def test_zero_rates_give_empty_report():
    cfg = SimConfig(arrival_rates_per_s=np.zeros((1, 4)),
                    horizon_us=sim_mod.SLOT_US, seed=0)
    report = simulate(cfg, PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    assert report.n_ues == 0
    assert np.isnan(report.mean_us)
    text = summary_csv([report])
    assert text.splitlines()[1] == "sequential,nan,nan,nan,0"


def test_compare_refuses_a_run_without_ues():
    cfg = uniform_cfg(seed=4, total_rate=0.2)
    seq = PerSlotPolicy.from_ranking(sequential_ranking(), "sequential")
    empty = simulate(SimConfig(arrival_rates_per_s=np.zeros((1, 4)),
                               horizon_us=sim_mod.SLOT_US, seed=5), seq)
    assert empty.n_ues == 0
    with pytest.raises(InvalidConfigError, match="'sequential' seed 5 has no UE"):
        compare([simulate(cfg, seq), empty])


def test_per_slot_policy_switches_schedules(monkeypatch):
    # two slots: first favors A, second favors D; same phase in each slot
    values = np.array([[9.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 9.0]])
    policy = PerSlotPolicy.from_values("oracle", values, np.random.default_rng(0))
    t2 = sim_mod.SLOT_US + 0.0  # first burst of slot 1
    planted_arrivals(monkeypatch, [0.0, t2], [0, 0])
    cfg = SimConfig(arrival_rates_per_s=np.zeros((2, 4)),
                    horizon_us=2 * sim_mod.SLOT_US, seed=0)
    report = simulate(cfg, policy)
    assert report.delay_us[0] == 0.0              # A leads slot 0's schedule
    assert report.delay_us[1] > 2 * SLOT_DUR - 1e-9  # A is ranked behind C,D now

    # two schedules cannot cover a third slot
    cfg = SimConfig(arrival_rates_per_s=np.zeros((3, 4)),
                    horizon_us=3 * sim_mod.SLOT_US, seed=0)
    with pytest.raises(InvalidConfigError):
        simulate(cfg, policy)


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
    with pytest.raises(InvalidConfigError):
        SimConfig(arrival_rates_per_s=np.zeros((1, 4)), horizon_us=1e6,
                  burst_period_us=100.0)
    for bad in ({"burst_period_us": np.inf}, {"burst_period_us": np.nan},
                {"burst_period_us": -20_000.0}, {"slot_us": np.nan},
                {"slot_us": np.inf}, {"slot_us": 0.0}, {"slot_us": -1.0}):
        with pytest.raises(InvalidConfigError):
            SimConfig(arrival_rates_per_s=np.zeros((1, 4)), horizon_us=1e6, **bad)
    for horizon_us in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidConfigError):
            SimConfig(arrival_rates_per_s=np.zeros((1, 4)), horizon_us=horizon_us)
    # two rate rows cannot cover three slots
    with pytest.raises(InvalidConfigError):
        SimConfig(arrival_rates_per_s=np.ones((2, 4)), horizon_us=3 * sim_mod.SLOT_US)
    SimConfig(arrival_rates_per_s=np.ones((3, 4)), horizon_us=3 * sim_mod.SLOT_US)


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
        period = float(rng.choice([20_000.0, 260.0, 5_000.0, 160_000.0]))
        closed = expected_delay_static(sched, shares, period)
        loop = expected_delay_scalar(sched.slots, shares.tolist(), period)
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


@pytest.mark.parametrize("period", [0.0, np.nan, np.inf, 100.0, -5.0])
def test_a_burst_period_is_finite_and_longer_than_the_burst(period):
    sched = build_schedule(sequential_ranking())
    with pytest.raises(InvalidConfigError) as closed_form:
        expected_delay_static(sched, [0.25] * 4, period)
    with pytest.raises(InvalidConfigError) as config:
        SimConfig(arrival_rates_per_s=np.zeros((1, 4)), horizon_us=1e6,
                  burst_period_us=period)
    assert str(closed_form.value) == str(config.value)
    assert str(closed_form.value).endswith(f"got {period}")


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
    report = simulate(cfg, policy)
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
        reports += [simulate(cfg, seq), simulate(cfg, skewed)]
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
        return SimReport(policy=policy, seed=seed, sectors=np.zeros(1, dtype=np.int64),
                         arrival_us=np.zeros(1), delay_us=delays)

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
    reports = [simulate(cfg_a, seq), simulate(cfg_a, twin),
               simulate(cfg_b, seq), simulate(cfg_b, twin)]
    comp = compare(reports)
    assert comp.rows[1].mean_diff_us == 0.0
    assert comp.rows[1].n_equal == 2


def test_report_csv_layout():
    report = simulate(uniform_cfg(seed=9, total_rate=0.2),
                      PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))
    lines = (REPORT_HEADER + report_csv([report])).splitlines()
    assert lines[0] == "policy,seed,ue_id,sector,arrival_us,delay_us"
    assert len(lines) == 1 + report.n_ues
    first = lines[1].split(",")
    assert first[0] == "sequential" and first[2] == "0"
    assert first[3] in "ABCD"

    summary = summary_csv([report]).splitlines()
    assert summary[0] == "policy,mean_us,median_us,p95_us,n"
    assert summary[1].split(",")[4] == str(report.n_ues)


def scalar_run(cfg, policy):
    """simulate() through the scalar oracle: the same arrival and detection
    streams, then one UE and one burst at a time."""
    arrival_seq, detect_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    arrivals, sectors = sim_mod._draw_arrivals(cfg, np.random.default_rng(arrival_seq))
    needed = np.random.default_rng(detect_seq).geometric(cfg.detect_prob,
                                                         size=arrivals.shape[0])
    # the plain reference: each slot's schedule, one sector at a time
    schedules = policy.schedules
    if len(schedules) == 1:
        schedules *= cfg.n_slots
    table = [[sector_offsets_scalar(sched.slots, s) for s in range(4)]
             for sched in schedules[:cfg.n_slots]]
    delays = simulate_scalar(arrivals.tolist(), sectors.tolist(), needed.tolist(),
                             table, cfg.burst_period_us, cfg.slot_us)
    return arrivals, sectors, np.array(delays)


def assert_matches_scalar(cfg, policy):
    report = simulate(cfg, policy)
    arrivals, sectors, delays = scalar_run(cfg, policy)
    assert np.array_equal(report.arrival_us, arrivals)
    assert np.array_equal(report.sectors, sectors)
    assert report.delay_us.dtype == delays.dtype
    assert np.array_equal(report.delay_us, delays)  # bit for bit, not to a tolerance
    return report


def slots_crossed(cfg, report):
    """UEs that detect in a later slot than the one they arrived in."""
    bursts_per_slot = cfg.slot_us / cfg.burst_period_us
    last = cfg.n_slots - 1

    def slot_of(t):
        burst = (t // cfg.burst_period_us).astype(np.int64)
        return np.minimum((burst / bursts_per_slot).astype(np.int64), last)

    return int(np.sum(slot_of(report.arrival_us + report.delay_us)
                      != slot_of(report.arrival_us)))


# slot lengths in bursts: whole, fractional, shorter than one burst, default
BURSTS_PER_SLOT = (3.0, 7.5, 0.75, 50.000123, sim_mod.SLOT_US / 20_000.0)


@pytest.mark.parametrize("detect_prob", [1.0, 0.5, 0.1, 0.03])
def test_simulate_matches_scalar_oracle_bit_for_bit(detect_prob):
    rng = np.random.default_rng(round(detect_prob * 1000))
    crossed = n_ues = 0
    for trial in range(12):
        slot_us = BURSTS_PER_SLOT[trial % len(BURSTS_PER_SLOT)] * 20_000.0
        n_slots = int(rng.integers(1, 7))
        horizon_us = (n_slots - rng.uniform(0.0, 0.9)) * slot_us
        shares = rng.dirichlet(np.ones(4))
        per_slot = rng.uniform(0.5, 1.5, size=(n_slots, 1))
        rates = per_slot * shares * (300.0 / (horizon_us / 1e6))
        cfg = SimConfig(arrival_rates_per_s=rates, horizon_us=horizon_us,
                        detect_prob=detect_prob, seed=int(rng.integers(2**63)),
                        slot_us=slot_us)
        # small integer values per slot: many ties, broken by the policy's rng
        tied = rng.integers(0, 3, size=(cfg.n_slots, 4)).astype(np.float64)
        for policy in (PerSlotPolicy.from_values("tied", tied, rng),
                       PerSlotPolicy.from_ranking(rank_sectors(rng.uniform(0, 1, 4),
                                                               rng), "predicted")):
            report = assert_matches_scalar(cfg, policy)
            crossed += slots_crossed(cfg, report)
            n_ues += report.n_ues
    assert n_ues > 2_000
    assert crossed > 0


@pytest.mark.parametrize("bursts_per_slot", [7.5, sim_mod.SLOT_US / 20_000.0])
@pytest.mark.parametrize("detect_prob", [1.0, 0.3])
def test_simulate_matches_scalar_oracle_on_planted_edges(monkeypatch, bursts_per_slot,
                                                         detect_prob):
    period = 20_000.0
    slot_us = bursts_per_slot * period
    values = np.array([[9.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 9.0], [5.0, 5.0, 1.0, 1.0]])
    policy = PerSlotPolicy.from_values("edges", values, np.random.default_rng(0))
    # bursts at phase 0, and the last burst of each of the first two slots
    first_bursts = [0, int(np.ceil(bursts_per_slot)), int(np.ceil(2 * bursts_per_slot))]
    last_bursts = [b - 1 for b in first_bursts[1:]]
    phases = [0.0, SLOT_DUR, SLOT_DUR + 0.01, 13 * SLOT_DUR, 13 * SLOT_DUR + 1e-6, 249.0,
              19_999.0]
    times = [b * period + ph for b in first_bursts + last_bursts for ph in phases]
    times += [slot_us, 2 * slot_us, slot_us - 1.0]
    times = np.repeat(times, 4)
    sectors = np.tile(np.arange(4), times.size // 4)
    planted_arrivals(monkeypatch, times, sectors)
    cfg = SimConfig(arrival_rates_per_s=np.zeros((3, 4)), horizon_us=3 * slot_us,
                    detect_prob=detect_prob, seed=3, slot_us=slot_us)
    report = assert_matches_scalar(cfg, policy)
    assert slots_crossed(cfg, report) > 0


@pytest.mark.parametrize("detect_prob", [1.0, 0.3])
def test_simulate_matches_scalar_oracle_where_a_slot_start_rounds(monkeypatch, detect_prob):
    # 1.1 bursts per slot: 170 * 1.1 rounds up to just above 187, yet
    # int(187 / 1.1) == 170, so burst 187 already belongs to slot 170
    slot_us = 22_000.0
    bursts_per_slot = slot_us / 20_000.0
    assert int(187 / bursts_per_slot) == 170 and 170 * bursts_per_slot > 187
    n_slots = 172
    values = np.array([np.roll([4.0, 3.0, 2.0, 1.0], k) for k in range(n_slots)])
    policy = PerSlotPolicy.from_values("rotating", values, np.random.default_rng(0))
    times = [b * 20_000.0 + ph for b in range(184, 189)
             for ph in (0.0, 5 * SLOT_DUR + 1.0, 13 * SLOT_DUR + 1.0)]
    times = np.repeat(times, 4)
    planted_arrivals(monkeypatch, times, np.tile(np.arange(4), times.size // 4))
    cfg = SimConfig(arrival_rates_per_s=np.zeros((n_slots, 4)),
                    horizon_us=n_slots * slot_us, detect_prob=detect_prob, seed=8,
                    slot_us=slot_us)
    assert_matches_scalar(cfg, policy)


def test_report_csv_matches_scalar_renderer_byte_for_byte():
    # .0005 rounding edges (exact and inexact in binary), zero, and > 1e10
    arrivals = np.array([0.0, 0.0005, 1.0005, 2.0625, 0.0015, 2.675, 1e10 + 0.0005,
                         123456789012.3455, 5e15 + 0.5, 999.9995])
    delays = np.array([0.0, 1.0005, 0.0625, 0.0005, 1e11 + 0.0625, 3.0005, 12.5,
                       0.125, 19_999.9995, 1e12])
    sectors = np.array([0, 1, 2, 3, 3, 2, 1, 0, 0, 3])
    reports = [SimReport(policy=name, seed=seed, sectors=sectors[::step],
                         arrival_us=arrivals[::step], delay_us=delays[::step])
               for name, seed, step in (("sequential", 0, 1),
                                        ("predicted", 2**63 + 11, 2),
                                        ("100%d", 7, 3))]
    reports.append(SimReport(policy="empty", seed=1, sectors=np.empty(0, dtype=np.int64),
                             arrival_us=np.empty(0), delay_us=np.empty(0)))
    runs = [(r.policy, r.seed, r.sectors.tolist(), r.arrival_us.tolist(),
             r.delay_us.tolist()) for r in reports]
    assert REPORT_HEADER + report_csv(reports) == report_csv_scalar(runs)
    # rows of consecutive runs concatenate to the rows of all of them
    assert "".join(report_csv([r]) for r in reports) == report_csv(reports)

    sim = [simulate(uniform_cfg(seed=9, total_rate=2.0, detect_prob=0.5),
                    PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"))]
    assert REPORT_HEADER + report_csv(sim) == report_csv_scalar(
        [(r.policy, r.seed, r.sectors, r.arrival_us, r.delay_us) for r in sim])
