import math
import tracemalloc

import numpy as np
import pytest

from cdrsweep import (
    MAX_SLOTS,
    RECORD_DTYPE,
    SECTOR_LABELS,
    EmptyInputError,
    OutOfRangeError,
    ParseResult,
    SectorMap,
    SectorSeries,
    SeriesFormatError,
    SeriesTooShortError,
    UnknownSquareError,
    aggregate,
    load_sector_series,
    make_windows,
    parse_raw,
    write_sector_series,
)
from cdrsweep import ingest
from cdrsweep.fixtures import demo_raw_lines, demo_sector_map, DEMO_SLOT_COUNTS, synthetic_series
from cdrsweep.ingest import _BATCH_LINES, _MAX_ISSUES, SlotGrid, cut_windows
from _oracles import aggregate_scalar, parse_raw_scalar, write_sector_series_scalar

T0 = 1_384_726_200_000
SLOT = 600_000
LAST_MS = 253_402_300_799_999  # 9999-12-31T23:59:59.999Z
FIRST_MS = -62_135_596_800_000  # 0001-01-01T00:00:00Z
Y999_MS = -30_610_224_600_000  # 0999-12-31T23:50:00Z, the last slot of the year 999
Y1969_MS = -14_182_940_000  # 1969-07-20T20:17:40Z, off midnight and off the 10-minute grid


def line(square, ts, *activities):
    return f"{square}\t{ts}\t39\t" + "\t".join(str(a) for a in activities)


def full(square, ts, *activities):
    """A line with all 8 fields: the activities, then empty ones."""
    return line(square, ts, *activities, *[""] * (5 - len(activities)))


def test_parse_basic_record():
    result = parse_raw([line(5060, T0, 1.5, "", 2.0)])
    assert not result.issues
    rec = result.records[0]
    assert rec.square_id == 5060
    assert rec.slot_start_ms == T0
    assert rec.activity_sum == 3.5


def test_parse_skips_blank_lines_but_not_all_blank():
    result = parse_raw(["", line(5060, T0, 1.0), "   "])
    assert len(result.records) == 1
    with pytest.raises(EmptyInputError):
        parse_raw(["", "   ", "\n"])


def test_a_lone_issue_after_batches_of_blank_lines_is_not_empty_input():
    blank = ["", "   ", "\t"] * _BATCH_LINES
    result = parse_raw(blank + ["x"])
    assert not len(result.records) and result.n_issues == 1
    assert [(i.line_no, i.reason) for i in result.issues] == [
        (len(blank) + 1, "fewer than 2 fields")]
    with pytest.raises(EmptyInputError):
        parse_raw(blank)


def test_parse_keeps_the_first_issues_and_counts_them_all():
    lines = ["x"] * 200_000 + [line(5060, T0, 1.0)]
    tracemalloc.start()
    try:
        result = parse_raw(iter(lines))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_issues == 200_000
    assert [i.line_no for i in result.issues] == list(range(1, _MAX_ISSUES + 1))
    assert result.records.tolist() == [(5060, T0, 1.0)]
    assert peak < 3 * 2**20  # one issue per line would be about 24 MB


def test_parse_reports_malformed_lines_with_numbers():
    result = parse_raw([
        "justonefield",
        line(5060, T0, 1.0),
        line("notanint", T0, 1.0),
        line(5060, "notatime", 1.0),
        line(-4, T0, 1.0),
        line(5060, -600000, 1.0),
        line(5060, T0, "NaN"),
        line(5060, T0, -3.0),
        f"5060\t{T0}\t39",  # no activity fields at all
        line(5060, T0, 1, 2, 3, 4, 5, 6),  # too many fields
    ])
    assert len(result.records) == 1
    reported_lines = [i.line_no for i in result.issues]
    assert reported_lines == [1, 3, 4, 5, 6, 7, 8, 9, 10]


def test_an_issue_quotes_a_long_field_only_in_part():
    long, digits = "x" * 100_000, "9" * 4000
    lines = [line(long, T0, 1.0), line("-" + digits, T0, 1.0), line(5060, long, 1.0),
             line(5060, "-" + digits, 1.0), line(5060, T0, long), line(5060, T0, "-" + digits)]
    result = parse_raw(lines * 50)
    assert [i.reason for i in result.issues[:6]] == [
        f"bad square id {'x' * 40!r}... (100,000 characters)",
        f"square id must be positive, got {'-' + '9' * 39}... (4,001 characters)",
        f"bad timestamp {'x' * 40!r}... (100,000 characters)",
        f"negative timestamp {'-' + '9' * 39}... (4,001 characters)",
        f"bad sms_in value {'x' * 40!r}... (100,000 characters)",
        f"sms_in must be finite and >= 0, got {'-' + '9' * 39}... (4,001 characters)"]
    # whole fields would make 300 reasons of 4 kB to 100 kB each, 15.6 MB
    assert result.n_issues == 300
    assert sum(len(i.reason) for i in result.issues) < 32 * 1024


def test_parse_floors_misaligned_timestamp_and_reports_it():
    result = parse_raw([line(5060, T0 + 123_456, 1.0)])
    assert len(result.records) == 1
    assert result.records[0].slot_start_ms == T0
    assert len(result.issues) == 1
    assert "floored" in result.issues[0].reason
    # off the grid and without activity: both issues, in that order
    result = parse_raw([full(5060, T0 + 7)])
    assert not len(result.records)
    assert [(i.line_no, i.reason) for i in result.issues] == [
        (1, f"timestamp {T0 + 7} not slot-aligned; floored to {T0}"),
        (1, "no activity fields; not a CDR event")]


def test_sector_map_roundtrip_and_unknown_square():
    smap = SectorMap.from_squares([10, 20, 30, 40])
    assert smap.sector_indices(np.array([10, 40], dtype=np.int64)).tolist() == [0, 3]
    with pytest.raises(UnknownSquareError, match="99"):
        smap.sector_indices(np.array([99], dtype=np.int64))
    with pytest.raises(ValueError):
        SectorMap.from_squares([10, 10, 30, 40])
    with pytest.raises(ValueError):
        SectorMap.from_squares([10, 20, 30])


def test_sector_indices_match_the_map_and_name_the_first_unknown_id():
    smap = SectorMap.from_squares([40, -3, 2**70, 7])
    ids = np.array([7, 40, -3, 7, 40, -3], dtype=np.int64)
    assert smap.sector_indices(ids).tolist() == [
        SECTOR_LABELS.index(smap.by_square[int(i)]) for i in ids]
    for bad, first in (([7, 41, 0], 41), ([0, 7], 0), ([2**63 - 1], 2**63 - 1), ([-2**63], -2**63),
                       ([-4, 99], -4)):
        with pytest.raises(UnknownSquareError, match=f"^unknown square id {first}$"):
            smap.sector_indices(np.array(bad, dtype=np.int64))
    far = SectorMap.from_squares([2**64, 2**65, 2**66, 2**67])
    with pytest.raises(UnknownSquareError, match="^unknown square id 5$"):
        far.sector_indices(np.array([5], dtype=np.int64))


def test_aggregate_record_count_and_gap_fill():
    lines = [
        line(5060, T0, 1.0),
        line(5060, T0, 1.0),
        line(5061, T0, 2.5),
        # nothing in slot 1
        line(5161, T0 + 2 * SLOT, 0.5),
    ]
    series = aggregate(parse_raw(lines).records, demo_sector_map())
    assert series.n_slots == 3
    assert series.counts.tolist() == [[2, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    assert series.gap_slots().tolist() == [1]
    assert series.slot_time_ms(2) == T0 + 2 * SLOT


def test_aggregate_activity_sum_rounds_half_to_even():
    lines = [
        line(5060, T0, 1.0, 0.5),   # 1.5 -> 2
        line(5061, T0, 2.5),        # 2.5 -> 2
        line(5160, T0, 0.2, 0.05),  # 0.25 -> 0
    ]
    series = aggregate(parse_raw(lines).records, demo_sector_map(),
                       count_mode="activity_sum")
    assert series.counts.tolist() == [[2, 2, 0, 0]]


def test_aggregate_rejects_empty_and_bad_mode():
    with pytest.raises(EmptyInputError):
        aggregate([], demo_sector_map())
    with pytest.raises(ValueError):
        aggregate(parse_raw([line(5060, T0, 1.0)]).records, demo_sector_map(),
                  count_mode="bogus")


def test_aggregate_bounds_the_slot_span():
    smap = demo_sector_map()
    last = T0 + (MAX_SLOTS - 1) * SLOT
    series = aggregate(parse_raw([line(5060, T0, 1.0), line(5161, last, 2.0)]).records, smap)
    assert series.n_slots == MAX_SLOTS
    assert series.counts[[0, -1]].tolist() == [[1, 0, 0, 0], [0, 0, 0, 1]]
    # a timestamp in microseconds among milliseconds, in records built without
    # parse_raw, which rejects that line itself (it falls after the year 9999)
    records = np.array([(5060, T0, 1.0), (5060, T0 * 1000, 1.0)], dtype=RECORD_DTYPE)
    span = (T0 * 1000 - T0) // SLOT + 1
    with pytest.raises(OutOfRangeError, match=f"from {T0} to {T0 * 1000} ms span {span} slots"):
        aggregate(records, smap)
    records = parse_raw([line(5060, T0, 1.0), line(5161, last + SLOT, 1.0)]).records
    with pytest.raises(OutOfRangeError, match=f"span {MAX_SLOTS + 1} slots"):
        aggregate(records, smap)


def test_parse_rejects_ids_and_timestamps_beyond_int64():
    fits = 2**63 - 1
    result = parse_raw([line(fits, T0, 1.0), line(5060, LAST_MS, 1.0)])
    assert result.records.square_id.tolist() == [fits, 5060]
    with pytest.raises(OutOfRangeError, match="line 2: square id 9223372036854775808"):
        parse_raw([line(5060, T0, 1.0), line(fits + 1, T0, 1.0)])
    with pytest.raises(OutOfRangeError, match="line 1: timestamp 100000000000000000000"):
        parse_raw([line(5060, 10**20, 1.0)])


def test_parse_rejects_timestamps_after_the_year_9999():
    result = parse_raw([line(5060, LAST_MS, 1.0)])
    series = aggregate(result.records, demo_sector_map())
    assert write_sector_series(series).splitlines()[1] == "9999-12-31T23:50:00Z,1,0,0,0"
    with pytest.raises(OutOfRangeError,
                       match="line 2: timestamp 253402300800000 is after the year 9999"):
        parse_raw([line(5060, T0, 1.0), line(5060, LAST_MS + 1, 1.0)])


def test_aggregate_rejects_a_cell_sum_beyond_int64():
    smap = demo_sector_map()
    records = parse_raw([line(5060, T0, 1.0), line(5061, T0 + SLOT, 1e308, 1e308)]).records
    assert aggregate(records, smap).counts.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    with pytest.raises(OutOfRangeError, match="inf of sector B in slot 2013-11-17T22:20:00Z"):
        aggregate(records, smap, count_mode="activity_sum")
    records = parse_raw([line(5160, T0, 2.0**62), line(5160, T0, 2.0**62)]).records
    with pytest.raises(OutOfRangeError, match="sector C"):
        aggregate(records, smap, count_mode="activity_sum")


def test_a_cell_sum_beyond_int64_names_its_slot_as_series_csv_writes_it():
    records = np.array([(5061, Y999_MS, 1e308), (5061, Y999_MS, 1e308),
                        (5060, Y999_MS + SLOT, 1.0)], dtype=RECORD_DTYPE)
    series = aggregate(records, demo_sector_map())
    assert write_sector_series(series).splitlines()[1:] == [
        "0999-12-31T23:50:00Z,0,2,0,0", "1000-01-01T00:00:00Z,1,0,0,0"]
    with pytest.raises(OutOfRangeError, match="inf of sector B in slot 0999-12-31T23:50:00Z "):
        aggregate(records, demo_sector_map(), count_mode="activity_sum")


def test_aggregate_adds_each_cell_in_record_order():
    # (0.02 + 0.24) + 2.24 is 2.5 and rounds to 2; (2.24 + 0.24) + 0.02 is
    # 2.5000000000000004 and rounds to 3
    for values, want in (((0.02, 0.24, 2.24), 2), ((2.24, 0.24, 0.02), 3)):
        lines = [line(5060, T0, v) for v in values]
        series = aggregate(parse_raw(lines).records, demo_sector_map(), count_mode="activity_sum")
        oracle = aggregate_scalar(parse_raw_scalar(lines).records, demo_sector_map(),
                                  count_mode="activity_sum")
        assert series.counts[0, 0] == oracle.counts[0, 0] == want


def _grid_series(batches, smap, mode):
    grid = SlotGrid(smap, mode)
    for batch in batches:
        grid.add(batch)
    return grid.series()


def _random_splits(rng, records, n_splits):
    cuts = np.sort(rng.integers(0, len(records) + 1, size=n_splits))
    return np.split(records, cuts)


@pytest.mark.parametrize("seed", range(6))
def test_the_grid_fed_in_random_batches_gives_one_aggregates_series(seed):
    rng = np.random.default_rng(seed)
    # the first lines sit in the middle of the span, so that later batches
    # land before the grid, after it and on both sides at once
    slots = np.concatenate([rng.integers(90, 110, size=40), rng.integers(0, 400, size=460)])
    values = ("0.1", "0.2", "2.675", "0.3333333333333333", "1e-3", "7")
    lines = [full(int(rng.choice([5060, 5061, 5160, 5161])), T0 + int(k) * SLOT,
                  *rng.choice(values, size=int(rng.integers(1, 6))).tolist()) for k in slots]
    records, oracle_records = parse_raw(lines).records, parse_raw_scalar(lines).records
    smap = demo_sector_map()
    for mode in ("record_count", "activity_sum"):
        whole = aggregate(records, smap, count_mode=mode)
        oracle = aggregate_scalar(oracle_records, smap, count_mode=mode)
        assert (whole.t0_ms, whole.counts.tobytes()) == (oracle.t0_ms, oracle.counts.tobytes())
        for n_splits in (1, 3, 20, 200):
            series = _grid_series(_random_splits(rng, records, n_splits), smap, mode)
            assert series.t0_ms == whole.t0_ms
            assert series.counts.dtype == whole.counts.dtype
            assert series.counts.tobytes() == whole.counts.tobytes()


def test_an_off_grid_slot_start_counts_in_the_slot_that_contains_it():
    smap = demo_sector_map()
    # 22:11 and 22:20 are two slots, and the series starts on the grid at 22:10
    records = np.array([(5060, T0 + 60_000, 1.0), (5061, T0 + SLOT, 1.0)], dtype=RECORD_DTYPE)
    series = aggregate(records, smap)
    assert series.t0_ms == T0
    assert series.counts.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    # the span is counted in slots too: 22:11 to 22:10 MAX_SLOTS slots later is one too many
    records["slot_start_ms"][1] = T0 + MAX_SLOTS * SLOT
    with pytest.raises(OutOfRangeError, match=(
            f"^timestamps from {T0} to {T0 + MAX_SLOTS * SLOT} ms span {MAX_SLOTS + 1} slots")):
        aggregate(records, smap)

    rng = np.random.default_rng(3)
    records = np.zeros(300, dtype=RECORD_DTYPE)
    records["square_id"] = rng.choice([5060, 5061, 5160, 5161], size=300)
    records["slot_start_ms"] = T0 + rng.integers(-5, 50, size=300) * SLOT + rng.integers(
        0, SLOT, size=300)
    records["activity_sum"] = rng.choice([0.1, 0.2, 2.675, 7.0], size=300)
    floored = records.copy()
    floored["slot_start_ms"] -= floored["slot_start_ms"] % SLOT
    for mode in ("record_count", "activity_sum"):
        want = aggregate(floored, smap, count_mode=mode)
        for series in [aggregate(records, smap, count_mode=mode)] + [
                _grid_series(_random_splits(rng, records, n_splits), smap, mode)
                for n_splits in (1, 3, 20, 200)]:
            assert series.t0_ms == want.t0_ms
            assert series.counts.tobytes() == want.counts.tobytes()


def test_the_grid_reaches_exactly_max_slots_over_several_batches():
    smap = demo_sector_map()
    last = T0 + (MAX_SLOTS - 1) * SLOT
    batches = [np.array(rows, dtype=RECORD_DTYPE) for rows in (
        [(5061, T0 + 500_000 * SLOT, 2.5), (5061, T0 + 500_001 * SLOT, 0.5)],
        [(5060, T0 + 10 * SLOT, 1.0)],  # before the grid
        [(5161, last, 3.5), (5160, T0 + 700_000 * SLOT, 1.0)],  # after it
        [(5060, T0, 1.5), (5161, last, 1.0)],  # the whole span
    )]
    records = np.concatenate(batches)
    for mode in ("record_count", "activity_sum"):
        series = _grid_series(batches, smap, mode)
        whole = aggregate(records, smap, count_mode=mode)
        assert series.n_slots == MAX_SLOTS and series.t0_ms == T0
        assert series.counts.tobytes() == whole.counts.tobytes()
    # one slot more is refused, whichever batch goes past
    with pytest.raises(OutOfRangeError, match=f"span {MAX_SLOTS + 1} slots"):
        _grid_series(batches + [np.array([(5060, last + SLOT, 1.0)], dtype=RECORD_DTYPE)],
                     smap, "record_count")


def test_the_grid_raises_the_span_error_before_an_unknown_square_naming_the_whole_input():
    smap = demo_sector_map()
    batches = [np.array(rows, dtype=RECORD_DTYPE) for rows in (
        [(5060, T0 + 10 * SLOT, 1.0)],
        [(7777, T0 + 20 * SLOT, 1.0), (8888, T0, 1.0)],  # unknown, the span still fits
        [(5061, T0 + MAX_SLOTS * SLOT, 1.0)],  # the span is now too wide
        [(5061, T0 + 2 * MAX_SLOTS * SLOT, 1.0)],  # and wider still
        [(7777, T0 - 5 * SLOT, 1.0)],  # the first slot start comes last
    )]
    first, last = T0 - 5 * SLOT, T0 + 2 * MAX_SLOTS * SLOT
    message = (f"^timestamps from {first} to {last} ms span {2 * MAX_SLOTS + 6} slots, "
               f"more than the {MAX_SLOTS} allowed$")
    with pytest.raises(OutOfRangeError, match=message):
        _grid_series(batches, smap, "record_count")
    with pytest.raises(OutOfRangeError, match=message):
        aggregate(np.concatenate(batches), smap)
    # within the span, the first unknown square in record order is named
    with pytest.raises(UnknownSquareError, match="^unknown square id 7777$"):
        _grid_series(batches[:2] + batches[4:], smap, "activity_sum")
    # and an unknown square comes before a cell beyond int64
    too_big = np.array([(5060, T0, 1e308), (5060, T0, 1e308)], dtype=RECORD_DTYPE)
    with pytest.raises(OutOfRangeError, match="^activity sum inf of sector A"):
        _grid_series([too_big], smap, "activity_sum")
    with pytest.raises(UnknownSquareError, match="^unknown square id 7777$"):
        _grid_series([too_big, batches[1]], smap, "activity_sum")


_SQUARES = ("5060", "5061", "5160", "5161", " 5161 ", "+5060")
_BAD_SQUARES = ("x12", "", "-4", "0", "5.0")
_STAMPS_BAD = ("notatime", "", "-600000", "1.5e12")
_VALUES = ("1.5", "0.25", "7", "0.1", "0.2", "0.3333333333333333", "2.675", "1e-3",
           " 0.7 ", "", " ", "\x0b")
_BAD_VALUES = ("nan", "inf", "-1.5", "1e", "n/a", "-inf", "NaN")
_CANONICAL_VALUES = ("1.5", "0.25", "7", "0.1", "2.675", "5.", ".5", "007", "",
                     "0.3333333333333333", "12345678901234567")


def _random_raw_lines(rng, n, unknown_square, canonical=False):
    """n raw lines mixing good records with every kind of malformed line.

    With canonical, about 9 lines in 10 have 8 fields of digits and "."
    only, as a CDR extract does; the others are drawn as without it.
    """
    out = []
    for _ in range(n):
        if canonical and rng.random() < 0.9:
            stamp = T0 + int(rng.integers(0, 30)) * SLOT
            if rng.random() < 0.05:
                stamp += int(rng.integers(1, SLOT))
            values = [str(rng.choice(_CANONICAL_VALUES)) for _ in range(5)]
            out.append(full(rng.choice(_SQUARES[:4]), stamp, *values).replace(
                "\t39\t", "\t" + str(rng.choice(["39", "", "3.3"])) + "\t", 1))
            continue
        kind = rng.random()
        if kind < 0.05:
            out.append(str(rng.choice(["", "   ", "\t", " \t "])))
            continue
        if kind < 0.08:
            out.append(str(rng.choice(["justonefield", "5060", "  5060  "])))
            continue
        square = str(rng.choice(_SQUARES))
        if rng.random() < 0.05:
            square = str(rng.choice(_BAD_SQUARES))
        elif unknown_square and rng.random() < 0.02:
            square = str(rng.choice(["7777", "6666", "8888"]))
        slot = int(rng.integers(0, 30))
        stamp = str(T0 + slot * SLOT)
        r = rng.random()
        if r < 0.05:
            stamp = str(T0 + slot * SLOT + int(rng.integers(1, SLOT)))
        elif r < 0.08:
            stamp = str(rng.choice(_STAMPS_BAD))
        n_values = int(rng.integers(0, 7))
        values = [str(rng.choice(_VALUES)) for _ in range(n_values)]
        if values and rng.random() < 0.08:
            values[int(rng.integers(0, n_values))] = str(rng.choice(_BAD_VALUES))
        fields = [square, stamp] + ([str(rng.choice(["39", "", "33"]))] + values
                                    if n_values or rng.random() < 0.5 else [])
        ending = str(rng.choice(["", "", "", "\n", "\r\n"]))
        out.append("\t".join(fields) + ending)
    return out


def _assert_parses_as_the_oracle(lines):
    """parse_raw's issues and records (to the byte) equal parse_raw_scalar's."""
    got, want = parse_raw(lines), parse_raw_scalar(lines)
    assert [(i.line_no, i.reason) for i in got.issues] == \
        [(i.line_no, i.reason) for i in want.issues]
    expected = np.array([(r.square_id, r.slot_start_ms, r.activity_sum()) for r in want.records],
                        dtype=RECORD_DTYPE)
    assert got.records.dtype == expected.dtype
    assert got.records.tobytes() == expected.tobytes()
    return got, want


# seeds 12 and up draw mostly canonical lines, over more than two batches
@pytest.mark.parametrize("seed", range(16))
def test_columnar_ingest_matches_the_per_record_oracle(seed):
    rng = np.random.default_rng(seed)
    canonical = seed >= 12
    lines = _random_raw_lines(rng, 2 * _BATCH_LINES + 100 if canonical else 400,
                              unknown_square=seed % 3 == 0, canonical=canonical)
    got, want = _assert_parses_as_the_oracle(lines)

    smap = demo_sector_map()
    for mode in ("record_count", "activity_sum"):
        try:
            expected = aggregate_scalar(want.records, smap, count_mode=mode)
        except UnknownSquareError as exc:
            with pytest.raises(UnknownSquareError, match=f"^{exc}$"):
                aggregate(got.records, smap, count_mode=mode)
            continue
        series = aggregate(got.records, smap, count_mode=mode)
        assert series.t0_ms == expected.t0_ms
        assert series.counts.dtype == expected.counts.dtype
        assert series.counts.tobytes() == expected.counts.tobytes()


def _canonical_block():
    """More than two batches of canonical lines, of every kind the bulk parser takes."""
    return [full(5060 + i % 2, T0 + i % 7 * SLOT, f"{i % 13}.25", "", i % 5, *["0.5"][:i % 2])
            if i % 50 else full(5161, T0 + 1000 + i, "") for i in range(2 * _BATCH_LINES + 10)]


# lines on or just past an edge of the canonical grammar; each goes through
# the bulk parser or the per-line one, and must come out as the oracle's
_EDGE_LINES = {
    "dot": full(5060, T0, "."),
    "trailing-dot": full(5060, T0, "5."),
    "leading-dot": full(5060, T0, ".5"),
    "two-dots": full(5060, T0, "1.2.3"),
    "leading-zeros": full("007", T0, "007"),
    "16-digit-value": full(5060, T0, "1234567890123456"),
    "25-digit-value": full(5060, T0, "1234567890.123456789012345"),
    "square-0": full(0, T0, "1"),
    "16-digit-square": full(10**15, T0, "1"),
    "last-ms": full(5060, LAST_MS, "1"),
    "7-fields": full(5060, T0, "1", "2", "3", "4").rsplit("\t", 1)[0],
    "9-fields": full(5060, T0, "1") + "\t9",
    "trailing-tab": full(5060, T0, "1", "2", "3", "4"),
    "off-grid-no-activity": full(5060, T0 + 7),
    "newline": full(5060, T0, "1.5") + "\n",
    "crlf": full(5060, T0, "1.5") + "\r\n",
    "non-ascii-country": full(5060, T0, "1").replace("\t39\t", "\t\u00dc\t"),
    "bom": "\ufeff" + full(5060, T0, "1"),
}


@pytest.mark.parametrize("edge", _EDGE_LINES.values(), ids=_EDGE_LINES.keys())
def test_edge_lines_parse_as_the_oracle_alone_and_in_a_canonical_block(edge):
    block = _canonical_block()
    _assert_parses_as_the_oracle([edge])
    for at in (0, _BATCH_LINES - 1, _BATCH_LINES, len(block) // 2, len(block)):
        _assert_parses_as_the_oracle(block[:at] + [edge] + block[at:])


@pytest.mark.parametrize("edge, message", [
    (full(10**19 + 7, T0, "1"), "square id 10000000000000000007 does not fit in int64"),
    (full(5060, LAST_MS + 1, "1"), f"timestamp {LAST_MS + 1} is after the year 9999"),
], ids=["20-digit-square", "past-last-ms"])
def test_an_out_of_range_line_is_named_wherever_it_sits_in_a_canonical_block(edge, message):
    block = _canonical_block()
    for at in (0, _BATCH_LINES - 1, _BATCH_LINES, len(block) // 2, len(block)):
        with pytest.raises(OutOfRangeError, match=f"^line {at + 1}: {message}$"):
            parse_raw(block[:at] + [edge] + block[at:])


def test_only_lines_outside_the_canonical_grammar_reach_the_per_line_parser(monkeypatch):
    seen = []
    per_line = ingest._parse_lines

    def spy(numbered, rows, issues):
        numbered = list(numbered)
        seen.extend(line_no for line_no, _ in numbered)
        return per_line(numbered, rows, issues)

    monkeypatch.setattr(ingest, "_parse_lines", spy)
    block = _canonical_block()
    block[3], block[_BATCH_LINES + 4] = line(5060, T0, 1.0), full(5060, T0, "n/a")
    _assert_parses_as_the_oracle(block)
    # and the lines that block draws off the grid without activity
    assert seen == sorted([4, _BATCH_LINES + 5] + list(range(1, len(block) + 1, 50)))


def _cut_after_newlines(text, rng, most):
    """text in blocks of at most most characters where that can be, each cut after a "\n"."""
    blocks, lo = [], 0
    while lo < len(text):
        hi = text.rfind("\n", lo, lo + int(rng.integers(1, most + 1))) + 1
        if hi <= lo:  # no "\n" in reach: the block runs to the next one
            hi = text.find("\n", lo) + 1 or len(text)
        blocks.append(text[lo:hi])
        lo = hi
    return blocks


# seeds 4 and up draw mostly canonical lines; 2 and 6 end without a "\n"
@pytest.mark.parametrize("seed", range(8))
def test_parse_blocks_gives_what_parse_raw_gives_for_the_joined_text(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    lines = _random_raw_lines(rng, 3000, unknown_square=False, canonical=seed >= 4)
    text = "\n".join(lines) + ("" if seed % 4 == 2 else "\n")
    want = parse_raw(text)
    for most in (64, 4096, ingest._BATCH_CHARS):
        # one block in ten is as long as a batch may be, or longer
        monkeypatch.setattr(ingest, "_BATCH_CHARS", max(most // 2, 16))
        log = ParseResult()
        got = list(ingest.parse_blocks(_cut_after_newlines(text, rng, most), log))
        assert all(batch.size for batch in got)
        assert np.concatenate(got).tobytes() == want.records.tobytes()
        assert [(i.line_no, i.reason) for i in log.issues] == \
            [(i.line_no, i.reason) for i in want.issues]
        assert log.n_issues == want.n_issues


def test_parse_blocks_finds_the_lines_of_a_block_from_its_bytes(monkeypatch):
    # an ASCII block with "\n" breaks only never makes a str of a bulk line
    text = "".join(full(5060 + i % 2, T0 + i % 3 * SLOT, f"{i}.5") + "\n" for i in range(500))
    bad = full(5060, T0, "n/a")
    want = parse_raw((text + bad + "\n") * 2).records
    seen = []
    per_line = ingest._parse_lines

    def spy(numbered, rows, issues):
        numbered = list(numbered)
        seen.extend(numbered)
        return per_line(numbered, rows, issues)

    monkeypatch.setattr(ingest, "_parse_lines", spy)
    monkeypatch.setattr(ingest, "_joined_lines", None)  # no block may take that path
    log = ParseResult()
    got = list(ingest.parse_blocks([text, "", bad + "\n\n" + text, bad], log))
    assert seen == [(501, bad), (502, ""), (1003, bad)]
    assert np.concatenate(got).tobytes() == want.tobytes()


_GOOD = full(5060, T0, "1")


@pytest.mark.parametrize("short", ["\n", "x\n", "\t\n"], ids=["blank", "x", "tab"])
def test_a_block_of_short_lines_parses_within_a_fixed_peak(short):
    block = short * ((ingest._BATCH_CHARS - 64) // len(short)) + _GOOD + "\n"
    tracemalloc.start()
    try:
        records = list(ingest.parse_blocks([block], ParseResult()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(np.concatenate(records)) == 1
    # with three lists of every line the per-line parser takes, blank lines peaked at 9.5 MB
    assert peak < 5 * 2**20


@pytest.mark.parametrize("block", [
    _GOOD + "\x0b" + _GOOD, _GOOD + "\r\n" + _GOOD, _GOOD.replace("39", "\u00dc") + "\n",
    _GOOD + "\x85", _GOOD + "\u2028\n", _GOOD + "\n" + "x" * 70_000 + "\n",
], ids=["vt", "crlf", "non-ascii", "nel", "line-separator", "longer-than-a-batch"])
def test_parse_blocks_splits_any_other_block_with_splitlines(block, monkeypatch):
    calls = []
    joined = ingest._joined_lines
    monkeypatch.setattr(ingest, "_joined_lines", lambda lines: calls.append(lines) or joined(lines))
    log = ParseResult()
    list(ingest.parse_blocks([block], log))
    assert calls == [block.splitlines()]
    assert log.n_issues == block.endswith("x\n")


def test_both_parsers_add_the_activity_values_left_to_right(monkeypatch):
    # 1e16 + 1.0 is 1e16 in float64, so a left fold gives 1e16, and math.fsum
    # (which sum() matches from Python 3.12 on) gives 1.0000000000000002e16
    clean = full(5060, T0, "10000000000000000", "1", "1")
    spaced = clean.replace("\t1\t", "\t 1\t", 1)  # outside the canonical grammar
    lines = [clean, spaced]
    plain = parse_raw(lines).records
    assert plain.activity_sum.tolist() == [1e16, 1e16]
    monkeypatch.setattr(ingest, "sum", math.fsum, raising=False)
    assert parse_raw(lines).records.tobytes() == plain.tobytes()
    _assert_parses_as_the_oracle(lines)


def test_demo_fixture_reproduces_expected_counts():
    series = aggregate(parse_raw(demo_raw_lines()).records, demo_sector_map())
    assert series.t0_ms == T0
    assert series.counts.tolist() == [list(row) for row in DEMO_SLOT_COUNTS]


def test_windowing_shapes_and_alignment():
    counts = np.arange(40).reshape(10, 4)
    series = SectorSeries(t0_ms=T0, counts=counts)
    ds = make_windows(series, window_len=3, train_fraction=0.8)
    assert ds.n_sequences == 7
    assert ds.split_index == 5
    inputs, targets = cut_windows(ds.rows, 3, 3, 9), ds.rows[3:]
    assert inputs.shape == (7, 3, 4)
    # window i covers rows [i, i+3), target is row i+3
    assert inputs[0].tolist() == counts[0:3].tolist()
    assert targets[0].tolist() == counts[3].tolist()
    assert inputs[6].tolist() == counts[6:9].tolist()
    assert targets[6].tolist() == counts[9].tolist()
    train_x, train_y = inputs[:ds.split_index], targets[:ds.split_index]
    test_x, test_y = inputs[ds.split_index:], targets[ds.split_index:]
    assert train_x.shape[0] == 5 and test_x.shape[0] == 2
    assert train_y.shape == (5, 4) and test_y.shape == (2, 4)
    assert ds.n_train == 5 and ds.n_test == 2
    # every window and target is a view of one read-only row array
    assert ds.rows.tolist() == counts.tolist()
    assert np.shares_memory(inputs, ds.rows) and np.shares_memory(targets, ds.rows)
    assert not inputs.flags.writeable and not targets.flags.writeable


def test_make_windows_allocates_the_series_not_the_windows():
    series = SectorSeries(t0_ms=T0, counts=np.ones((20_000, 4), dtype=np.int64))
    tracemalloc.start()
    try:
        ds = make_windows(series, window_len=144, train_fraction=0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n_sequences == 19_856
    assert peak < 2 * 2**20  # the rows are 0.64 MB; a copy of the windows is 91.5 MB


def test_cut_windows_matches_slices_and_checks_its_bounds():
    counts = np.random.default_rng(3).integers(0, 100, size=(30, 4))
    windows = cut_windows(counts, 5, 7, 30)
    assert windows.shape == (24, 5, 4) and windows.dtype == np.float64
    for k, end in enumerate(range(7, 31)):
        assert np.array_equal(windows[k], counts[end - 5:end])
    assert np.array_equal(cut_windows(counts, 30, 30, 30)[0], counts)
    assert np.array_equal(cut_windows(counts, 1, 1, 1)[0], counts[:1])
    for window_len, first, last in ((0, 5, 5), (-5, -3, -3), (6, 5, 9), (5, 9, 8),
                                    (5, 5, 31)):
        with pytest.raises(ValueError, match=f"window_len={window_len}, "
                                             f"ends {first}..{last}, n_slots=30"):
            cut_windows(counts, window_len, first, last)


def test_windowing_two_weeks_at_default_settings():
    # 14 days of 10-minute slots, daily window, 90/10 chronological split
    series = SectorSeries(t0_ms=T0, counts=np.zeros((2016, 4), dtype=np.int64))
    ds = make_windows(series, window_len=144, train_fraction=0.9)
    assert ds.n_sequences == 1872
    assert ds.n_train == 1684
    assert ds.n_test == 188


def test_make_windows_rejects_a_window_len_below_one():
    series = SectorSeries(t0_ms=T0, counts=np.zeros((20, 4), dtype=np.int64))
    for window_len in (0, -3):
        with pytest.raises(ValueError, match=f"window_len={window_len}$"):
            make_windows(series, window_len=window_len, train_fraction=0.9)


def test_windowing_too_short_raises():
    series = SectorSeries(t0_ms=T0, counts=np.zeros((5, 4), dtype=np.int64))
    with pytest.raises(SeriesTooShortError):
        make_windows(series, window_len=5, train_fraction=0.9)
    with pytest.raises(SeriesTooShortError):
        make_windows(series, window_len=6, train_fraction=0.9)
    # 2 sequences at fraction 0.1 would leave the training split empty
    series = SectorSeries(t0_ms=T0, counts=np.zeros((6, 4), dtype=np.int64))
    with pytest.raises(SeriesTooShortError):
        make_windows(series, window_len=4, train_fraction=0.1)


def test_series_csv_roundtrip():
    rng = np.random.default_rng(5)
    series = SectorSeries(t0_ms=T0, counts=rng.integers(0, 50, size=(30, 4)))
    text = write_sector_series(series)
    back = load_sector_series(text)
    assert back.t0_ms == series.t0_ms
    assert np.array_equal(back.counts, series.counts)
    header, first = text.splitlines()[:2]
    assert header == "time,A,B,C,D"
    assert first.startswith("2013-11-17T22:10:00Z,")
    # a stamp without "Z" is read as UTC
    assert load_sector_series(text.replace("Z,", ",")).t0_ms == T0
    # a fraction of a second counts to the millisecond, before 1970 too
    assert load_sector_series(header + "\n1969-12-31T23:59:59.5Z,1,1,1,1\n").t0_ms == -500


@pytest.mark.parametrize("series", [
    SectorSeries(t0_ms=T0, counts=[[3, 0, 2**63 - 1, 12]]),
    SectorSeries(t0_ms=0, counts=np.arange(40).reshape(10, 4)),
    synthetic_series(MAX_SLOTS, seed=7),
    SectorSeries(t0_ms=LAST_MS - LAST_MS % SLOT - 2 * SLOT, counts=np.ones((3, 4), dtype=np.int64)),
    SectorSeries(t0_ms=Y999_MS, counts=np.arange(8).reshape(2, 4) * 2**40),
    SectorSeries(t0_ms=Y1969_MS + 250, counts=np.arange(1200).reshape(300, 4)),
], ids=["one-slot", "epoch", "max-slots", "year-9999", "year-999", "before-1970-off-midnight"])
def test_series_writer_matches_the_per_row_writer(series):
    assert write_sector_series(series) == write_sector_series_scalar(series)


@pytest.mark.parametrize("t0_ms, n_slots", [
    (FIRST_MS - SLOT, 3),  # the first slot falls in the year 0
    (LAST_MS - LAST_MS % SLOT, 2),  # the last slot falls in the year 10000
    (-2**62, 1),
    (2**62, 1),
], ids=["year-0", "year-10000", "far-past", "far-future"])
def test_the_writer_refuses_a_slot_outside_the_years_1_to_9999_before_the_header(t0_ms, n_slots):
    blocks = ingest.sector_series_blocks(
        SectorSeries(t0_ms=t0_ms, counts=np.ones((n_slots, 4), dtype=np.int64)))
    with pytest.raises(ValueError, match="outside the years 1 to 9999"):
        next(blocks)


def test_series_csv_rejects_bad_input():
    good = write_sector_series(
        SectorSeries(t0_ms=T0, counts=np.ones((3, 4), dtype=np.int64)))
    with pytest.raises(EmptyInputError):
        load_sector_series("")
    with pytest.raises(EmptyInputError, match="^series file has no data rows$"):
        load_sector_series("time,A,B,C,D\n")
    with pytest.raises(SeriesFormatError):
        load_sector_series(good.replace("time,A,B,C,D", "time,A,B,C"))
    with pytest.raises(SeriesFormatError, match="^row 3: expected 5 columns, got 4$"):
        load_sector_series(good.replace("22:20:00Z,1,1,1,1", "22:20:00Z,1,1,1"))
    with pytest.raises(SeriesFormatError, match="^row 3: bad timestamp 'notatime'$"):
        load_sector_series(good.replace("2013-11-17T22:20:00Z", "notatime"))
    with pytest.raises(SeriesFormatError):
        load_sector_series(good.replace("22:20", "22:21"))  # breaks the grid
    with pytest.raises(SeriesFormatError, match=(
            r"^row 3: timestamp 2013-11-17T22:20:00\.999Z breaks the 600 s grid$")):
        load_sector_series(good.replace("22:20:00Z", "22:20:00.999Z"))
    with pytest.raises(SeriesFormatError):
        load_sector_series(good.replace("1,1,1,1", "1,1,x,1", 1))
    with pytest.raises(SeriesFormatError):
        load_sector_series(good.replace("1,1,1,1", "1,1,-1,1", 1))


def test_series_csv_takes_int64_counts_and_names_a_row_beyond_them():
    good = write_sector_series(
        SectorSeries(t0_ms=T0, counts=np.ones((3, 4), dtype=np.int64)))
    top = load_sector_series(good.replace("1,1,1,1", f"1,{2**63 - 1},1,1", 1))
    assert top.counts[0, 1] == 2**63 - 1
    with pytest.raises(SeriesFormatError, match=rf"^row 2: count {2**63} does not fit in int64$"):
        load_sector_series(good.replace("1,1,1,1", f"1,1,{2**63},1", 1))


def test_series_csv_counts_blank_lines_in_the_row_it_names():
    series = SectorSeries(t0_ms=T0, counts=np.arange(16).reshape(4, 4))
    header, *data = write_sector_series(series).splitlines()
    # file lines: blank, header, data 0, two blanks, data 1 to 3 on lines 6 to 8
    lines = ["", header, data[0], "", "  ", *data[1:]]
    back = load_sector_series("\n".join(lines))
    assert back.t0_ms == series.t0_ms and np.array_equal(back.counts, series.counts)

    bad_count = lines.copy()
    bad_count[6] = data[2].replace(",9,", ",x,")
    with pytest.raises(SeriesFormatError, match=r"^row 7: non-integer count$"):
        load_sector_series("\n".join(bad_count))
    off_grid = lines.copy()
    off_grid[7] = data[3].replace("22:40", "22:41")
    with pytest.raises(SeriesFormatError, match=r"^row 8: timestamp \S+ breaks the 600 s grid$"):
        load_sector_series("\n".join(off_grid))
    # without blank lines, the row is the file line as before
    with pytest.raises(SeriesFormatError, match=r"^row 4: non-integer count$"):
        load_sector_series("\n".join([header, *data[:2], bad_count[6], data[3]]))


def test_series_csv_refuses_the_data_row_after_max_slots(monkeypatch):
    monkeypatch.setattr(ingest, "MAX_SLOTS", 3)
    header, *data = write_sector_series(
        SectorSeries(t0_ms=T0, counts=np.arange(16).reshape(4, 4))).splitlines()
    back = load_sector_series("\n".join([header, *data[:3]]))
    assert np.array_equal(back.counts, np.arange(12).reshape(3, 4))
    with pytest.raises(SeriesFormatError, match=r"^row 5: more than 3 data rows$"):
        load_sector_series("\n".join([header, *data]))


def test_series_rejects_negative_or_misshaped_counts():
    with pytest.raises(ValueError):
        SectorSeries(t0_ms=T0, counts=np.array([[1, 2, 3]]))
    with pytest.raises(ValueError):
        SectorSeries(t0_ms=T0, counts=np.array([[1, 2, 3, -1]]))
