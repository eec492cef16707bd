"""Raw CDR parsing, 10-minute per-sector aggregation, and window extraction.

The raw input is tab-separated text, one record per line:

    square_id <tab> slot_start_ms [<tab> country_code
        [<tab> sms_in <tab> sms_out <tab> call_in <tab> call_out <tab> internet]]

Activity fields may be empty; a line with no activity value at all is not a
CDR event and is reported, not counted. Aggregation buckets events into
consecutive 600-second slots for the four sectors A..D of one cell. One
slot rule holds throughout: a timestamp belongs to slot
slot_start_ms // SLOT_MS, which starts on the 10-minute grid. The parser
floors an off-grid timestamp to that slot's start (and reports it), and
aggregation counts any slot start in that slot.

Every text file cdrsweep reads (raw CDRs, series.csv, model.txt, config
files) goes through read_blocks, in blocks of whole lines of at most
_BATCH_CHARS characters, or read_lines, their lines; a reader that refuses
a line reads no further. Ingest reads its input once. parse_blocks
yields each block's counted lines as three numeric columns (square id,
slot start, activity sum; see RECORD_DTYPE) and keeps the reported issues,
so the input text itself need never be held in memory. A SlotGrid adds
each batch to its per-slot, per-sector cells as it arrives, so nothing is
kept per line: what ingest holds depends on the slot span, not on the
number of lines. The aggregated series covers every slot between the first
and last record, and that span is bounded by MAX_SLOTS. parse_raw and
aggregate are the same two steps over one whole input given as lines.

parse_blocks and parse_raw parse in bulk, with numpy, each canonical line
(see _parse_bulk) that gives one record and no issue; every other line
goes through the per-line parser _parse_lines, the one source of issues,
and the records are merged back into line order (see _parse_text). The
first _MAX_ISSUES issues are kept, plus a count of them all, each quoting
at most 40 characters of a field (errors.quoted). Parsing a block of
64 Ki characters peaks at about 4.7 MB traced when every line is blank,
the worst case measured, and at about 0.9 MB for a CDR extract.
sector_series_blocks writes _WRITE_ROWS plain rows at a time, each
stamped by one rule (_stamp), so writing the series adds a fixed amount too.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from math import isfinite

import numpy as np

from .errors import (
    BadSharesError,
    EmptyInputError,
    OutOfRangeError,
    SeriesFormatError,
    SeriesTooShortError,
    UnknownSquareError,
    quoted,
)

SECTOR_LABELS = ("A", "B", "C", "D")
# the four grid squares of the demo cell, sectors A..D in order; ingest's default
DEFAULT_SQUARES = (5060, 5061, 5160, 5161)
SLOT_MS = 600_000
SLOTS_PER_DAY = 86_400_000 // SLOT_MS
# the longest series aggregate builds: 1,000,000 ten-minute slots, about 19
# years. A timestamp in microseconds among milliseconds would otherwise ask
# for billions of slots.
MAX_SLOTS = 1_000_000
ACTIVITY_NAMES = ("sms_in", "sms_out", "call_in", "call_out", "internet")
# what aggregate puts in a cell; the first is its default
COUNT_MODES = ("record_count", "activity_sum")
_FIELD_DELIMITER = "\t"
# square_id, slot_start, country code, then the five activity fields
_MAX_FIELDS = 3 + len(ACTIVITY_NAMES)
_INT64_MAX = 2**63 - 1
# the first and the last millisecond of the years 1 to 9999, all a series.csv stamp can hold
_MIN_TS_MS, _MAX_TS_MS = -62_135_596_800_000, 253_402_300_799_999
# one row per counted line; activity_sum is sum() of the line's present
# activity values, in field order
RECORD_DTYPE = np.dtype([("square_id", np.int64), ("slot_start_ms", np.int64),
                         ("activity_sum", np.float64)])
# read_blocks cuts a file into blocks of at most _BATCH_CHARS characters,
# as many as parse_blocks parses from their bytes; parse_raw joins at most
# _BATCH_LINES lines of at most _BATCH_CHARS characters together, and the
# per-line parser takes at most _BATCH_LINES lines at a time
_BATCH_LINES = 1024
_BATCH_CHARS = 64 * 1024
# the parsers keep the first _MAX_ISSUES issues and count the rest
_MAX_ISSUES = 10_000
_TAB, _DOT, _ZERO, _NL = b"\t.0\n"
# the line breaks of str.splitlines, other than "\n", that are ASCII
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
# an integer of at most 15 digits is below 2**53, so float64 holds it exactly
_EXACT_DIGITS = 15
# sector_series_blocks renders this many rows at a time
_WRITE_ROWS = 512


def check_shares(shares) -> np.ndarray:
    """Per-sector shares as a float array: finite, non-negative, summing to 1."""
    shares = np.asarray(shares, dtype=np.float64)
    if shares.shape != (len(SECTOR_LABELS),) or not np.all(np.isfinite(shares)):
        raise BadSharesError(f"need {len(SECTOR_LABELS)} finite shares, got {shares}")
    if np.any(shares < 0) or abs(shares.sum() - 1.0) > 1e-9:
        raise BadSharesError(f"shares must be non-negative and sum to 1, got {shares}")
    return shares


@dataclass
class ParseIssue:
    line_no: int
    reason: str


@dataclass
class ParseResult:
    # one RECORD_DTYPE row per counted line, in line order; a record array, so
    # records.square_id and records[i].square_id work as records["square_id"].
    # Left out, it is empty: parse_blocks fills only the issue fields.
    records: np.recarray = field(
        default_factory=lambda: np.empty(0, dtype=RECORD_DTYPE).view(np.recarray))
    issues: list[ParseIssue] = field(default_factory=list)
    # how many issues were found; issues may hold only the first of them.
    # Left as None, it is len(issues).
    n_issues: int | None = None

    def __post_init__(self):
        if self.n_issues is None:
            self.n_issues = len(self.issues)


def read_blocks(fh):
    """The text of fh in blocks of whole lines, each ending in "\\n" but the last.

    A block holds at most _BATCH_CHARS characters, unless a line is longer:
    it is cut after its last "\\n", which ends a line for str.splitlines
    whatever follows it, and the rest begins the next block.
    """
    pending, size = [], 0  # the text read since the last "\n", and its length
    while chunk := fh.read(_BATCH_CHARS - size if size < _BATCH_CHARS else _BATCH_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield "".join(pending)
            pending, size = [chunk[cut:]], len(chunk) - cut
        else:
            pending.append(chunk)
            size += len(chunk)
    if size:
        yield "".join(pending)


def read_lines(fh):
    """The lines of a text file as fh.read().splitlines() gives them, a block at a time."""
    for block in read_blocks(fh):
        yield from block.splitlines()


def parse_blocks(blocks, log: ParseResult):
    """Parse tab-separated CDR text in one pass, yielding columnar records.

    blocks is an iterable of str, each ending in "\\n" but the last, such as
    read_blocks gives; their lines are those of the blocks joined, as
    str.splitlines gives them. It is consumed once and never held whole.
    Each counted line becomes one RECORD_DTYPE row; no per-line object is
    kept. The rows come out a batch at a time, in line order, each batch a
    RECORD_DTYPE array that is never empty.
    Malformed lines become ParseIssue entries in log.issues, carrying their
    1-based line number, in line order; they are never silently dropped.
    The first _MAX_ISSUES of them are kept, and log.n_issues counts them
    all. log is a ParseResult, such as a new ParseResult(); its records
    are left as they are.
    Raises EmptyInputError, once the blocks are used up, when no line gave
    a record or an issue (the input is empty or blank), and OutOfRangeError,
    naming the line, for a square id that does not fit in int64 or a
    timestamp after the year 9999.

    A block of ASCII text, of at most _BATCH_CHARS characters and with no
    line break but "\\n", is parsed from its bytes: numpy finds its lines,
    and no str is made for a line that the bulk parser takes. Any other
    block is split with str.splitlines and parsed as parse_raw parses lines.
    """
    return _parse_texts(_block_texts(blocks), log)


def parse_raw(lines) -> ParseResult:
    """Parse CDR lines as parse_blocks parses text, into one ParseResult.

    lines is a str (split with str.splitlines) or any iterable of lines;
    each element is one line, whatever characters it holds. Its records are
    every batch's, concatenated in line order, and its issues and n_issues
    those parse_blocks would log. Raises what parse_blocks raises.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    result = ParseResult()
    batches = list(_parse_texts(_joined_lines(lines), result))
    if batches:
        result.records = np.concatenate(batches).view(np.recarray)
    return result


def _parse_texts(texts, log: ParseResult):
    """Parse each (text, data, starts) of texts (see _parse_text), numbering on."""
    counted = False
    first = 1  # the line number of the next text's first line
    for text, data, starts in texts:
        records = _parse_text(text, data, starts, first, log)
        first += len(starts) - 1
        if records.size:
            counted = True
            yield records
    if not counted and not log.n_issues:
        raise EmptyInputError("input contains no lines")


def _joined_lines(lines):
    """The lines in runs of at most _BATCH_LINES lines and _BATCH_CHARS
    characters (a delimiter each), a longer line alone, as (text, data, starts)."""
    run, size = [], 0
    for line in lines:
        size += len(line) + 1
        if run and (size > _BATCH_CHARS or len(run) == _BATCH_LINES):
            yield _joined(run)
            run, size = [], len(line) + 1
        run.append(line)
    if run:
        yield _joined(run)


def _joined(run: list):
    """The lines of run as one (text, data, starts)."""
    starts = np.zeros(len(run) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, run), dtype=np.intp, count=len(run)) + 1, out=starts[1:])
    if starts[-1] > _BATCH_CHARS:  # one long line, never canonical: no copy
        return run[0], None, starts
    # a non-ASCII character reads as one "?" byte, so line i keeps its offsets
    text = "\n".join(run) + "\n"
    return text, _bytes_of(text.encode("ascii", "replace")), starts


def _block_texts(blocks):
    """Each block as (text, data, starts): numpy finds the lines of one that qualifies."""
    for block in blocks:
        if not block:
            continue
        if (len(block) > _BATCH_CHARS or not block.isascii()
                or any(brk in block for brk in _OTHER_BREAKS)):
            yield from _joined_lines(block.splitlines())
            continue
        if not block.endswith("\n"):
            block += "\n"
        data = _bytes_of(block.encode("ascii"))
        # the first line starts at 0, every other one after a "\n"
        starts = np.concatenate([[0], np.flatnonzero(data == _NL) + 1])
        yield block, data, starts


def _bytes_of(encoded: bytes) -> np.ndarray:
    """A writable uint8 copy of encoded."""
    return np.frombuffer(encoded, dtype=np.uint8).copy()


def _parse_text(text: str, data, starts: np.ndarray, first: int, log: ParseResult) -> np.ndarray:
    """The RECORD_DTYPE records of the lines of text, numbered from first.

    Line i of text is text[starts[i]:starts[i + 1] - 1], and one terminator
    character follows it. data is text's bytes, one per character, or None
    when text is one line longer than _BATCH_CHARS (which then has no
    terminator, so that no copy of it is made). The bulk parser takes the
    lines it can from data; only every other line is sliced out of text,
    for the per-line parser, _BATCH_LINES lines at a time, and the records
    of both are merged back into line order. Issues go to log.
    """
    if data is None:
        bulk, records = np.zeros(1, dtype=bool), np.empty(0, dtype=RECORD_DTYPE)
    else:
        bulk, records = _parse_bulk(data, starts)
    others = np.flatnonzero(~bulk)
    issues, each = log.issues, []
    for lo in range(0, others.size, _BATCH_LINES):
        some = others[lo:lo + _BATCH_LINES]
        kept = len(issues)
        _parse_lines([(first + i, text[a:b - 1]) for i, a, b in zip(
            some.tolist(), starts[some].tolist(), starts[some + 1].tolist())], each, issues)
        log.n_issues += len(issues) - kept
        del issues[_MAX_ISSUES:]
    if each:
        # each per-line record goes after the bulk records of the lines before it
        at = np.searchsorted(np.flatnonzero(bulk), [row[0] - first for row in each])
        records = np.insert(records, at, np.array([row[1:] for row in each], dtype=RECORD_DTYPE))
    return records


def _parse_bulk(data: np.ndarray, starts: np.ndarray):
    """Parse in numpy the lines that give one record and no issue.

    data holds the lines as bytes, each followed by one terminator byte
    (written to here): line i is data[starts[i]:starts[i + 1] - 1]. The
    lines taken are the canonical ones with a square id above 0, a
    timestamp on the 10-minute grid and no later than _MAX_TS_MS, and a
    finite activity sum. A canonical line has exactly _MAX_FIELDS
    tab-separated fields; every byte is a digit, "." or a tab; the square id
    and the timestamp are 1 to _EXACT_DIGITS digits; each activity field is
    empty or a decimal number (digits with at most one "."); and at least
    one activity field is not empty. Every other line is left to the
    per-line parser, which reports or refuses it, so this never raises.

    Returns (bulk, records): which lines were parsed here, and their
    RECORD_DTYPE records in line order. Its numpy temporaries grow with
    data, which the callers keep within _BATCH_CHARS.
    """
    bulk = np.zeros(len(starts) - 1, dtype=bool)
    ends = starts[1:] - 1
    data[ends] = _TAB  # every line, and so every field, ends in a tab
    marks = np.flatnonzero(data - _ZERO > 9)  # every byte but a digit
    kind = data[marks]
    others = np.searchsorted(marks[(kind != _TAB) & (kind != _DOT)], starts)
    at_tab = np.flatnonzero(kind == _TAB)  # the tabs among the marks
    tabs = marks[at_tab]
    del marks, kind  # a block of tabs holds 8 bytes per byte in each
    first_tab = np.searchsorted(tabs, starts)
    picked = np.flatnonzero((np.diff(first_tab) == _MAX_FIELDS) & (np.diff(others) == 0))

    # field k of data ends at tabs[k]. Every mark between two tabs of a
    # picked line is a dot, so dots[k] counts the dots of field k there.
    width, dots = _gaps(tabs), _gaps(at_tab)
    is_int = (width > 0) & (width <= _EXACT_DIGITS) & (dots == 0)
    is_value = (width == 0) | ((dots <= 1) & (width > dots))
    field = first_tab[picked]  # field 0 of each picked line
    ok = is_int[field] & is_int[field + 1]
    filled = np.zeros(len(picked), dtype=bool)
    for j in range(3, _MAX_FIELDS):  # the activity fields
        ok &= is_value[field + j]
        filled |= width[field + j] > 0
    picked = picked[ok & filled]
    if not picked.size:
        return bulk, np.empty(0, dtype=RECORD_DTYPE)

    # the picked lines, one per row, with a 0 in front of every field but the
    # first: an empty field reads 0, and no number changes its value
    bulk[picked] = True
    data[ends] = _NL
    text = data[np.repeat(bulk, np.diff(starts))].tobytes().replace(b"\t", b"\t0")
    values = np.loadtxt(io.BytesIO(text), delimiter=_FIELD_DELIMITER, comments=None,
                        usecols=(0, 1, *range(3, _MAX_FIELDS)), ndmin=2)

    # exact: both are below 2**53
    square_id, slot_start = values[:, 0].astype(np.int64), values[:, 1].astype(np.int64)
    # the present values added left to right from 0.0, as _parse_lines adds
    # them: an empty field reads 0.0, and x + 0.0 == x for every x >= 0
    a = values[:, 2:]
    total = (((a[:, 0] + a[:, 1]) + a[:, 2]) + a[:, 3]) + a[:, 4]
    ok = ((square_id > 0) & (slot_start <= _MAX_TS_MS) & (slot_start % SLOT_MS == 0)
          & np.isfinite(total))
    bulk[picked[~ok]] = False
    records = np.empty(int(ok.sum()), dtype=RECORD_DTYPE)
    records["square_id"] = square_id[ok]
    records["slot_start_ms"] = slot_start[ok]
    records["activity_sum"] = total[ok]
    return bulk, records


def _gaps(ends: np.ndarray) -> np.ndarray:
    """ends[k] - ends[k - 1] - 1 for every k, with ends[-1] read as -1.

    For the ascending places where consecutive runs end, that is how many
    places each run holds before its end. Only the result is allocated.
    """
    gaps = np.empty_like(ends)
    np.subtract(ends[1:], ends[:-1], out=gaps[1:])
    gaps -= 1
    gaps[:1] = ends[:1]
    return gaps


def _parse_lines(numbered, rows: list, issues: list) -> None:
    """The per-line parser: parse (line number, line) pairs one at a time.

    Appends (line_no, square_id, slot_start, activity_sum) to rows for
    each counted line and a ParseIssue to issues for each malformed one,
    skips blank lines, and raises OutOfRangeError as parse_blocks does.
    """
    for line_no, line in numbered:
        stripped = line.rstrip("\r\n")
        if not stripped.strip():
            continue

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
            issues.append(ParseIssue(line_no, f"bad square id {quoted(parts[0])}"))
            continue
        if square_id <= 0:
            issues.append(ParseIssue(
                line_no, f"square id must be positive, got {quoted(square_id, str)}"))
            continue
        if square_id > _INT64_MAX:
            raise OutOfRangeError(f"line {line_no}: square id {square_id} does not fit in int64")

        try:
            slot_start = int(parts[1].strip())
        except ValueError:
            issues.append(ParseIssue(line_no, f"bad timestamp {quoted(parts[1])}"))
            continue
        if slot_start < 0:
            issues.append(ParseIssue(line_no, f"negative timestamp {quoted(slot_start, str)}"))
            continue
        if slot_start > _MAX_TS_MS:
            raise OutOfRangeError(f"line {line_no}: timestamp {slot_start} " + (
                "does not fit in int64" if slot_start > _INT64_MAX
                else "is after the year 9999"))
        if slot_start % SLOT_MS != 0:
            # normalize to the containing 10-minute slot, but say so
            floored = slot_start - slot_start % SLOT_MS
            issues.append(ParseIssue(
                line_no, f"timestamp {slot_start} not slot-aligned; floored to {floored}"))
            slot_start = floored

        # parts[2] is the country code; ignored. The present activity values
        # are added left to right from 0.0, as sum() did before Python 3.12.
        total, counted = 0.0, False
        for name, text in zip(ACTIVITY_NAMES, parts[3:]):
            text = text.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                issues.append(ParseIssue(line_no, f"bad {name} value {quoted(text)}"))
                break
            if not isfinite(value) or value < 0:
                issues.append(ParseIssue(
                    line_no, f"{name} must be finite and >= 0, got {quoted(text, str)}"))
                break
            total += value
            counted = True
        else:
            if not counted:
                issues.append(ParseIssue(line_no, "no activity fields; not a CDR event"))
                continue
            rows.append((line_no, square_id, slot_start, total))


@dataclass
class SectorMap:
    """Bijection between the four grid squares of one cell and sectors A..D."""

    by_square: dict
    # the squares that fit in int64, ascending, then a pad entry for the ids
    # above them all; and the sector index of each of those squares
    _keys: np.ndarray = field(init=False, repr=False, compare=False)
    _sectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.by_square) != 4:
            raise ValueError(f"sector map needs exactly 4 squares, got {len(self.by_square)}")
        if sorted(self.by_square.values()) != sorted(SECTOR_LABELS):
            raise ValueError(f"sector labels must be exactly {SECTOR_LABELS}")
        squares = sorted(s for s in self.by_square if -2**63 <= s < 2**63)
        self._keys = np.array(squares + [0], dtype=np.int64)
        self._sectors = np.array([SECTOR_LABELS.index(self.by_square[s]) for s in squares],
                                 dtype=np.intp)

    @classmethod
    def from_squares(cls, square_ids) -> "SectorMap":
        """Map four square ids to A, B, C, D in the order given."""
        ids = list(square_ids)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate square ids in {quoted(ids, str)}")
        return cls(by_square=dict(zip(ids, SECTOR_LABELS)))

    def sector_indices(self, square_ids: np.ndarray) -> np.ndarray:
        """The SECTOR_LABELS index of every id's sector; the first unknown id raises.

        Each id is looked up among the four squares with one searchsorted,
        so the temporaries are a few arrays of the ids' length.
        """
        at = np.searchsorted(self._keys[:-1], square_ids)
        unknown = np.flatnonzero((self._keys[at] != square_ids) | (at == len(self._sectors)))
        if unknown.size:
            raise UnknownSquareError(f"unknown square id {square_ids[unknown[0]]}")
        return self._sectors[at]


@dataclass
class SectorSeries:
    """Gap-free per-sector counts on a fixed 10-minute grid.

    counts[i][s] covers [t0_ms + i*SLOT_MS, t0_ms + (i+1)*SLOT_MS) for
    sector SECTOR_LABELS[s]. Slots without any record hold explicit zeros.
    """

    t0_ms: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[1] != len(SECTOR_LABELS):
            raise ValueError(f"counts must be (S, 4), got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def n_slots(self) -> int:
        return self.counts.shape[0]

    def slot_time_ms(self, i: int) -> int:
        return self.t0_ms + i * SLOT_MS

    def gap_slots(self) -> np.ndarray:
        """Indices of slots with no activity in any sector."""
        return np.flatnonzero(~self.counts.any(axis=1))


class SlotGrid:
    """Per-slot, per-sector cells that RECORD_DTYPE batches are added to as they arrive.

    add(records) takes one batch, such as parse_blocks yields, and
    series() returns what aggregate returns for all the batches added, in
    order, as one array: every cell is summed in record order. The grid
    holds one cell per sector and slot of the span seen so far (a little
    more while it grows), never more than MAX_SLOTS slots, so its memory
    depends on that span, not on the number of records. It grows
    geometrically on the side a batch lands.

    A record goes to its absolute slot, slot_start_ms // SLOT_MS: the
    10-minute slot that contains its slot start, the one the parser
    floors an off-grid timestamp to. The grid keeps only slot numbers. An
    error is found as the records arrive, after which the cells are dropped
    and only the first and last slot are followed; series() raises it. See
    aggregate for the errors and their order.
    """

    def __init__(self, sector_map: SectorMap, count_mode: str = COUNT_MODES[0]):
        if count_mode not in COUNT_MODES:
            raise ValueError(f"unknown count_mode {count_mode!r}")
        self.sector_map = sector_map
        self.count_mode = count_mode
        self._first = self._last = None  # the first and last slot added
        self._lo = 0  # the slot of _cells[0]
        self._cells = None  # (capacity, n_sectors), from the first record until an error
        self._unknown = None  # the UnknownSquareError of the first square not in sector_map

    def add(self, records: np.ndarray) -> None:
        """Add a RECORD_DTYPE array's records, each to its cell, in array order."""
        slots = records["slot_start_ms"] // SLOT_MS
        if not slots.size:
            return
        first, last = int(slots.min()), int(slots.max())
        if self._first is not None:
            first, last = min(self._first, first), max(self._last, last)
        self._first, self._last = first, last
        too_wide = last - first + 1 > MAX_SLOTS
        if not too_wide and self._unknown is None:
            try:
                sectors = self.sector_map.sector_indices(records["square_id"])
            except UnknownSquareError as err:
                self._unknown = err
        # once an error is certain (the span only widens), follow the span only
        if too_wide or self._unknown is not None:
            self._cells = None
            return

        self._fit(first, last)
        cells = (slots - self._lo) * len(SECTOR_LABELS) + sectors
        # np.add.at adds unbuffered, in index order: each cell in record order.
        # A sum that overflows to inf is reported by series() as beyond int64.
        with np.errstate(over="ignore"):
            np.add.at(self._cells.reshape(-1), cells,
                      1 if self.count_mode == "record_count" else records["activity_sum"])

    def series(self) -> SectorSeries:
        """The SectorSeries of every record added; raises as aggregate does."""
        if self._first is None:
            raise EmptyInputError("no records to aggregate")
        n_slots = self._last - self._first + 1
        if n_slots > MAX_SLOTS:
            raise OutOfRangeError(
                f"timestamps from {self._first * SLOT_MS} to {self._last * SLOT_MS} ms span "
                f"{n_slots} slots, more than the {MAX_SLOTS} allowed")
        if self._unknown is not None:
            raise self._unknown

        t0 = self._first * SLOT_MS
        cells = self._cells[self._first - self._lo:self._last + 1 - self._lo]
        if self.count_mode == "record_count":
            return SectorSeries(t0_ms=t0, counts=cells.copy())
        sums = np.rint(cells).reshape(-1)
        too_big = np.flatnonzero(~(sums < 2.0**63))
        if too_big.size:
            i, s = divmod(int(too_big[0]), len(SECTOR_LABELS))
            raise OutOfRangeError(
                f"activity sum {sums[too_big[0]]} of sector {SECTOR_LABELS[s]} in slot "
                f"{_stamp(t0 + i * SLOT_MS)} does not fit in int64")
        return SectorSeries(t0_ms=t0, counts=sums.astype(np.int64).reshape(n_slots, -1))

    def _fit(self, first: int, last: int) -> None:
        """Make the cells cover slots first to last, the span of every record added."""
        if self._cells is None:
            dtype = np.int64 if self.count_mode == "record_count" else np.float64
            self._lo = first
            self._cells = np.zeros((last - first + 1, len(SECTOR_LABELS)), dtype=dtype)
            return
        old, lo = self._cells, self._lo
        if lo <= first and last < lo + len(old):
            return
        size = min(max(last + 1 - first, 2 * len(old)), MAX_SLOTS)
        # the room to spare goes on the side the batch went past
        new_lo = last + 1 - size if first < lo else first
        self._cells = np.zeros((size, old.shape[1]), dtype=old.dtype)
        a, b = max(lo, new_lo), min(lo + len(old), new_lo + size)
        self._cells[a - new_lo:b - new_lo] = old[a - lo:b - lo]
        self._lo = new_lo


def aggregate(records, sector_map: SectorMap, count_mode: str = COUNT_MODES[0]) -> SectorSeries:
    """Bucket records into a SectorSeries: one SlotGrid, added to once.

    records is a RECORD_DTYPE array such as ParseResult.records (or anything
    np.asarray turns into one). Each record goes to the slot that contains
    its slot start, slot_start_ms // SLOT_MS, so an off-grid slot start
    counts as the slot start the parser floors it to, and t0_ms is on the
    grid. record_count counts one per record (the default); activity_sum
    adds the records' activity sums into each cell in record order and
    rounds each cell to the nearest integer (ties to even). Slots between
    the first and last record with no events are materialized as zeros.
    Raises, in this order: ValueError for an unknown count_mode;
    EmptyInputError when there is no record; OutOfRangeError when the
    records span more than MAX_SLOTS slots (checked before the series is
    allocated), naming the start of the first and last slot;
    UnknownSquareError for the first record whose square is not in
    sector_map; and OutOfRangeError when a rounded cell sum does not fit in
    int64 (checked before the cast).
    """
    grid = SlotGrid(sector_map, count_mode)
    grid.add(np.asarray(records, dtype=RECORD_DTYPE))
    return grid.series()


@dataclass
class WindowedDataset:
    """Sliding supervised sequences: window_len input slots, 1 slot ahead.

    rows is the series as one read-only float64 array. Sequence i is the
    input window rows[i:i + window_len] with the target row i + window_len;
    training cuts the windows from the normalized rows (cut_windows), so
    none is held here. The first split_index sequences are the
    chronological training split, and their windows and targets together
    hold exactly rows[:split_index + window_len].
    """

    window_len: int
    rows: np.ndarray  # (n_slots, 4) float64, read-only
    split_index: int

    @property
    def n_sequences(self) -> int:
        return self.rows.shape[0] - self.window_len

    @property
    def n_train(self) -> int:
        return self.split_index

    @property
    def n_test(self) -> int:
        return self.n_sequences - self.split_index


def cut_windows(values, window_len: int, first_end: int, last_end: int) -> np.ndarray:
    """The windows values[j - window_len:j] for j = first_end, ..., last_end.

    values is an (n_slots, 4) series, such as SectorSeries.counts. The
    windows come back as one read-only (last_end - first_end + 1,
    window_len, 4) view of values itself when it is float32 or float64,
    and of a float64 copy of it otherwise; nothing is stacked. Raises
    ValueError unless 1 <= window_len <= first_end <= last_end <= n_slots.
    """
    rows = np.asarray(values)
    if rows.dtype != np.float32:
        rows = rows.astype(np.float64, copy=False)
    n_slots = rows.shape[0]
    if not 1 <= window_len <= first_end <= last_end <= n_slots:
        raise ValueError(
            f"windows need 1 <= window_len <= first end <= last end <= n_slots, got "
            f"window_len={window_len}, ends {first_end}..{last_end}, n_slots={n_slots}")
    view = np.lib.stride_tricks.sliding_window_view(
        rows[first_end - window_len:last_end], window_len, axis=0)
    return view.swapaxes(1, 2)


def check_window_args(window_len: int, train_fraction: float) -> None:
    """Refuse what make_windows refuses before it sees a series.

    Raises ValueError for a train_fraction outside (0, 1) or a window_len
    below 1.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if window_len < 1:
        raise ValueError(f"need window_len >= 1, got window_len={window_len}")


def make_windows(series: SectorSeries, window_len: int, train_fraction: float) -> WindowedDataset:
    """Slide a window of window_len slots over the series with stride 1.

    Produces n_slots - window_len sequences and splits them chronologically:
    split_index = floor(train_fraction * n_sequences). Both splits must end
    up non-empty. The dataset holds one read-only float64 copy of the
    counts and no window, so its size grows with n_slots, not with
    n_slots * window_len.
    """
    check_window_args(window_len, train_fraction)
    n_seq = series.n_slots - window_len
    if n_seq < 1:
        raise SeriesTooShortError(
            f"{series.n_slots} slots cannot fit a {window_len}-slot window plus a target")

    rows = series.counts.astype(np.float64)
    rows.flags.writeable = False

    split_index = int(train_fraction * n_seq)
    if split_index < 1 or split_index >= n_seq:
        raise SeriesTooShortError(
            f"{n_seq} sequences split at {split_index} leaves an empty split")
    return WindowedDataset(window_len=window_len, rows=rows, split_index=split_index)


def _stamp(ms: int) -> str:
    """series.csv's stamp of the UTC time ms, to the second; ValueError outside the years 1-9999."""
    if not _MIN_TS_MS <= ms <= _MAX_TS_MS:
        raise ValueError(f"time {ms} ms falls outside the years 1 to 9999")
    day, s = divmod(int(ms) // 1000, 86_400)
    return f"{date(1970, 1, 1) + timedelta(day)}T{s // 3600:02}:{s // 60 % 60:02}:{s % 60:02}Z"


def _parse_ts(text: str, row_no: int) -> int:
    cleaned = text.strip().replace(" ", "T")
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(cleaned)
    except ValueError:
        raise SeriesFormatError(f"row {row_no}: bad timestamp {quoted(text)}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # exact integer milliseconds, a fraction of one floored, before 1970 too
    return (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(milliseconds=1)


def write_sector_series(series: SectorSeries) -> str:
    """The normalized CSV as one str: the blocks of sector_series_blocks joined."""
    return "".join(sector_series_blocks(series))


def sector_series_blocks(series: SectorSeries):
    """Render the normalized CSV: header time,A,B,C,D then one row per slot.

    Yields the header, then _WRITE_ROWS rows at a time: each slot's _stamp
    (its day's date and a time of day from a table of a day's slots) and
    counts. A slot outside the years 1 to 9999 raises ValueError before the header.
    """
    if series.n_slots:  # the first and the last slot time are in range
        _stamp(series.t0_ms), _stamp(series.slot_time_ms(series.n_slots - 1))
    yield "time," + ",".join(SECTOR_LABELS) + "\n"
    # the first slot is slot `first` of its day, and every slot starts ms into its own
    first, ms = divmod(series.t0_ms // 1000 * 1000 % (SLOTS_PER_DAY * SLOT_MS), SLOT_MS)
    clocks = [_stamp(k * SLOT_MS + ms)[10:] + "," for k in range(SLOTS_PER_DAY)]
    for lo in range(0, series.n_slots, _WRITE_ROWS):
        rows = []
        for i, (a, b, c, d) in enumerate(series.counts[lo:lo + _WRITE_ROWS].tolist(), lo):
            slot = (first + i) % SLOTS_PER_DAY
            if slot == 0 or i == 0:  # a new date
                today = _stamp(series.slot_time_ms(i))[:10]
            rows.append(f"{today}{clocks[slot]}{a},{b},{c},{d}\n")
        yield "".join(rows)


def load_sector_series(text: str | Iterable[str]) -> SectorSeries:
    """Parse the normalized CSV back into a SectorSeries.

    text is the whole file, or its lines without line ends (as
    str.splitlines or read_lines gives them), which are read only up to the
    first row in error. Validates the header, the 600-second stride (to
    the millisecond) and integer counts from 0 to 2**63 - 1, and at most
    MAX_SLOTS data rows; write_sector_series followed by load_sector_series
    is the identity.
    Blank lines are skipped, and an error names the file row (1-based,
    blank lines counted) where it occurred.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    rows = ((row_no, line) for row_no, line in enumerate(lines, start=1) if line.strip())
    header = next(rows, (0, ""))[1].strip()
    if not header:
        raise EmptyInputError("series file is empty")
    if header != "time," + ",".join(SECTOR_LABELS):
        raise SeriesFormatError(f"unexpected header {quoted(header)}")

    t0 = None
    counts = []
    for slot, (row_no, line) in enumerate(rows):
        if slot == MAX_SLOTS:
            raise SeriesFormatError(f"row {row_no}: more than {MAX_SLOTS} data rows")
        parts = line.split(",")
        if len(parts) != 1 + len(SECTOR_LABELS):
            raise SeriesFormatError(f"row {row_no}: expected 5 columns, got {len(parts)}")
        ts = _parse_ts(parts[0], row_no)
        if t0 is None:
            t0 = ts
        elif ts != t0 + slot * SLOT_MS:
            raise SeriesFormatError(
                f"row {row_no}: timestamp {quoted(parts[0], str)} breaks the 600 s grid")
        try:
            values = [int(v) for v in parts[1:]]
        except ValueError:
            raise SeriesFormatError(f"row {row_no}: non-integer count") from None
        if any(v < 0 for v in values):
            raise SeriesFormatError(f"row {row_no}: negative count")
        if max(values) > _INT64_MAX:
            raise SeriesFormatError(f"row {row_no}: count {max(values)} does not fit in int64")
        counts.append(values)
    if not counts:
        raise EmptyInputError("series file has no data rows")

    return SectorSeries(t0_ms=t0, counts=np.array(counts, dtype=np.int64))
