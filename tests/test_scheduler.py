from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from cdrsweep import (
    SSB_OFFSETS_US,
    SSB_SLOTS,
    NonFiniteInputError,
    PerSlotPolicy,
    SectorRanking,
    SweepSchedule,
    build_schedule,
    rank_sectors,
    sequential_ranking,
)


def test_strict_values_force_the_order():
    ranking = rank_sectors([1.0, 2.0, 3.0, 4.0], np.random.default_rng(0))
    assert ranking.order == (3, 2, 1, 0)
    assert ranking.labels == ("D", "C", "B", "A")
    assert ranking.tie_groups == ((3,), (2,), (1,), (0,))


def test_unique_max_always_first_rest_shuffled():
    seen = set()
    for seed in range(200):
        ranking = rank_sectors([3.0, 3.0, 3.0, 5.0], np.random.default_rng(seed))
        assert ranking.order[0] == 3
        assert len(ranking.tie_groups) == 2
        assert sorted(ranking.tie_groups[1]) == [0, 1, 2]
        seen.add(ranking.order[1:])
    assert seen == set(permutations((0, 1, 2)))


def test_all_tied_hits_every_permutation():
    seen = Counter()
    for seed in range(2000):
        ranking = rank_sectors([2.0, 2.0, 2.0, 2.0], np.random.default_rng(seed))
        assert ranking.tie_groups == (ranking.order,)
        seen[ranking.order] += 1
    assert len(seen) == 24


def test_tie_detection_is_relative():
    rng = np.random.default_rng(1)
    near = rank_sectors([1.0, 1.0 + 1e-12, 0.5, 0.25], rng)
    assert sorted(near.tie_groups[0]) == [0, 1]
    far = rank_sectors([1.0, 1.0 + 1e-7, 0.5, 0.25], rng)
    assert far.order[:2] == (1, 0)
    assert far.tie_groups[0] == (1,)
    # large magnitudes scale the tolerance with them
    big = rank_sectors([1e9, 1e9 + 0.1, 5.0, 1.0], rng)
    assert sorted(big.tie_groups[0]) == [0, 1]


def test_chained_near_ties_group_together():
    vals = [1.0, 1.0 + 6e-10, 1.0 + 1.2e-9, 0.0]
    ranking = rank_sectors(vals, np.random.default_rng(2))
    assert sorted(ranking.tie_groups[0]) == [0, 1, 2]


def test_non_finite_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(NonFiniteInputError):
        rank_sectors([1.0, float("nan"), 2.0, 3.0], rng)
    with pytest.raises(NonFiniteInputError):
        rank_sectors([1.0, float("inf"), 2.0, 3.0], rng)
    with pytest.raises(ValueError):
        rank_sectors([1.0, 2.0, 3.0], rng)


def test_seeded_draws_are_reproducible():
    a = rank_sectors([2.0, 2.0, 2.0, 2.0], np.random.default_rng(99))
    b = rank_sectors([2.0, 2.0, 2.0, 2.0], np.random.default_rng(99))
    assert a.order == b.order


def test_positive_affine_transform_keeps_the_order():
    values = np.array([4.0, 1.0, 9.0, 2.5])
    base = rank_sectors(values, np.random.default_rng(0)).order
    for c, d in ((2.0, 0.0), (0.5, -3.0), (10.0, 100.0)):
        assert rank_sectors(c * values + d, np.random.default_rng(1)).order == base


def test_permutation_equivariance_without_ties():
    values = np.array([4.0, 1.0, 9.0, 2.5])
    base = rank_sectors(values, np.random.default_rng(0)).order
    perm = [2, 0, 3, 1]  # new index of each old sector
    permuted = np.empty(4)
    for old, new in enumerate(perm):
        permuted[new] = values[old]
    moved = rank_sectors(permuted, np.random.default_rng(0)).order
    assert moved == tuple(perm[s] for s in base)


def test_sequential_ranking_is_fixed():
    a, b = sequential_ranking(), sequential_ranking()
    assert a.order == (0, 1, 2, 3)
    assert a.order == b.order
    assert build_schedule(a).slots[:5] == (0, 1, 2, 3, 0)


def test_round_robin_schedule_layout():
    ranking = rank_sectors([1.0, 2.0, 3.0, 4.0], np.random.default_rng(0))
    sched = build_schedule(ranking)
    assert sched.slots == (3, 2, 1, 0) * 3 + (3, 2)
    counts = Counter(sched.slots)
    assert counts[3] == 4 and counts[2] == 4 and counts[1] == 3 and counts[0] == 3
    firsts = [sched.slots.index(s) for s in ranking.order]
    assert firsts == [0, 1, 2, 3]


def test_every_sector_gets_at_least_three_slots():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sched = build_schedule(rank_sectors(rng.uniform(0, 10, 4), rng))
        assert min(Counter(sched.slots).values()) >= 3


def test_slot_timing_and_csv():
    assert SSB_OFFSETS_US.shape == (SSB_SLOTS,)
    assert SSB_OFFSETS_US[0] == 0.0
    assert np.allclose(np.diff(SSB_OFFSETS_US), 250.0 / 14, rtol=0, atol=1e-12)
    assert abs(SSB_OFFSETS_US[-1] - 13 * 250.0 / 14) < 1e-9
    with pytest.raises(ValueError):
        SSB_OFFSETS_US[0] = 1.0
    policy = PerSlotPolicy.from_ranking(sequential_ranking(), "sequential")
    assert policy.counts[0, 0] == 4
    assert np.array_equal(policy.offsets[0, 0, :4], SSB_OFFSETS_US[[0, 4, 8, 12]])
    assert np.all(np.isinf(policy.offsets[0, 0, 4:]))

    sched = build_schedule(sequential_ranking())

    lines = sched.csv_text().splitlines()
    assert lines[0] == "ssb_index,sector,start_offset_us"
    assert len(lines) == 1 + SSB_SLOTS
    assert lines[1] == "0,A,0.000000"
    assert lines[4] == "3,D,53.571429"


def test_ranking_invariants_enforced():
    with pytest.raises(ValueError):
        SectorRanking(order=(0, 1, 2, 2), tie_groups=((0,), (1,), (2,), (2,)))
    with pytest.raises(ValueError):
        SweepSchedule(slots=(0,) * 13)
    with pytest.raises(ValueError):
        SweepSchedule(slots=(0,) * 13 + (9,))


def test_rank_sectors_needs_a_generator():
    with pytest.raises(TypeError):
        rank_sectors([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(TypeError):
        rank_sectors([1.0, 2.0, 3.0, 4.0], None)
