"""End-to-end tests that drive the command line in subprocesses."""

import io
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cdrsweep.ingest as ingest_mod
import cdrsweep.simulator as sim_mod
from cdrsweep import (
    MAX_SLOTS,
    REPORT_HEADER,
    SLOT_US,
    GruParams,
    Normalizer,
    PerSlotPolicy,
    SectorSeries,
    SeriesFormatError,
    SimConfig,
    SimReport,
    aggregate,
    cli,
    compare,
    demo_raw_lines,
    demo_sector_map,
    draw_ues,
    dumps_model,
    load_model,
    load_sector_series,
    parse_raw,
    predict_next,
    rates_from_counts,
    report_csv,
    sequential_ranking,
    simulate,
    summary_csv,
    synthetic_series,
    write_sector_series,
)
from _cli import run_cli
from _oracles import report_csv_scalar


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a small series, raw demo data and a trained model."""
    wd = tmp_path_factory.mktemp("cli")
    (wd / "raw_demo.tsv").write_text("\n".join(demo_raw_lines()) + "\n")
    series = synthetic_series(320, seed=5)
    (wd / "series.csv").write_text(write_sector_series(series))
    proc = run_cli(
        ["train", "--series", "series.csv", "--window-len", "24",
         "--hidden", "6", "--epochs", "1", "--steps", "8", "--batch", "8",
         "--seed", "3", "--model-out", "model.txt"],
        cwd=wd)
    assert proc.returncode == 0, proc.stderr
    return wd


def test_ingest_demo_roundtrip(workdir):
    proc = run_cli(["ingest", "--raw", "raw_demo.tsv", "--out", "demo.csv"],
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("slots=5 gaps=0")
    lines = (workdir / "demo.csv").read_text().splitlines()
    assert lines[0] == "time,A,B,C,D"
    assert lines[1] == "2013-11-17T22:10:00Z,3,3,3,5"
    assert lines[5] == "2013-11-17T22:50:00Z,3,1,2,5"


def test_ingest_empty_input_is_a_validation_error(workdir):
    (workdir / "empty.tsv").write_text("")
    proc = run_cli(["ingest", "--raw", "empty.tsv"], cwd=workdir)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_ingest_unknown_square_names_the_id(workdir):
    (workdir / "stray.tsv").write_text("9999\t1384726200000\t39\t1.0\t\t\t\t\n")
    proc = run_cli(["ingest", "--raw", "stray.tsv"], cwd=workdir)
    assert proc.returncode == 2
    assert "9999" in proc.stderr


T0 = 1384726200000


_OUT_OF_RANGE = [
    # a timestamp that does not fit in int64
    ("huge_ts", f"5060\t{T0}\t39\t1.0\n5061\t100000000000000000000\t39\t1.0\n", [],
     "line 2: timestamp 100000000000000000000 does not fit in int64"),
    # the first millisecond of the year 10000, which series.csv cannot write
    ("year_10000", "5060\t253402300800000\t39\t1.0\n", [],
     "line 1: timestamp 253402300800000 is after the year 9999"),
    ("huge_id", f"5060\t{T0}\t39\t1.0\n\n9223372036854775808\t{T0}\t39\t1.0\n", [],
     "line 3: square id 9223372036854775808 does not fit in int64"),
    # one timestamp in microseconds among milliseconds: 2.3e9 slots, and
    # in the year 45850
    ("micro_ts", f"5060\t{T0}\t39\t1.0\n5061\t{T0 * 1000}\t39\t1.0\n", [],
     f"line 2: timestamp {T0 * 1000} is after the year 9999"),
    ("big_sum", f"5060\t{T0}\t39\t1e308\t1e308\n", ["--count-mode", "activity_sum"],
     "activity sum inf of sector A in slot 2013-11-17T22:10:00Z does not fit in int64"),
]


@pytest.mark.parametrize("name, raw, args, message", _OUT_OF_RANGE,
                         ids=[case[0] for case in _OUT_OF_RANGE])
def test_ingest_out_of_range_input_is_a_validation_error(workdir, name, raw, args, message):
    (workdir / f"{name}.tsv").write_text(raw)
    proc = run_cli(["ingest", "--raw", f"{name}.tsv", "--out", f"{name}.csv", *args],
                   cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (workdir / f"{name}.csv").exists()


def _raw_text(sep="\n", blank=False, non_ascii=False, long_line=0, final_newline=True):
    """300 raw lines, about 1% of them malformed, joined by sep (every 7th
    line break is "\n" instead, so both kinds meet in one block)."""
    rng = np.random.default_rng(29)
    squares = [5060, 5061, 5160, 5161]
    lines = []
    for i in range(300):
        slot = T0 + int(rng.integers(0, 6)) * 600_000
        values = [str(v) if v >= 0 else "" for v in rng.integers(-2, 90, size=5) / 4]
        lines.append(f"{squares[i % 4]}\t{slot}\t39\t" + "\t".join(values))
        if i % 100 == 50:
            lines.append(f"5060\t{slot + 7}\t39\tn/a")  # an issue
        elif i % 100 == 80:
            lines.append(f"5061\t{slot + 7}\t39\t1.5")  # an issue, and a record
        elif i % 100 == 95:
            lines.append("x")  # an issue
        if blank and i % 40 == 0:
            lines += ["", "   ", "\t"]
        if non_ascii and i % 30 == 0:
            lines.append(f"5161\t{slot}\t\u00dc\t2.5")
    if long_line:
        lines[120:120] = [f"5160\t{T0}\t39\t1.5" + " " * long_line, "x" * long_line]
    text = "".join(ln + ("\n" if i % 7 == 6 else sep) for i, ln in enumerate(lines))
    return text if final_newline else text[:-len(sep)]


def _every_break_text():
    """Records and issues after every line break str.splitlines knows, in turn."""
    separators = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028", "\u2029", "\n\n", "\r\n\r\n", "\n  \n"]
    squares = [5060, 5061, 5160, 5161]
    parts = []
    for i, sep in enumerate(separators * 2):
        slot = T0 + (i % 5) * 600_000
        parts.append(f"{squares[i % 4]}\t{slot}\t39\t{i + 0.1}\t0.3333333333333333")
        parts.append(sep)
        if i % 4 == 0:
            parts.append(f"{squares[i % 4]}\t{slot + 7}\t39\tn/a")  # an issue after it
            parts.append(sep)
    parts.append(f"5161\t{T0}\t39\t2.5")  # no newline at the end
    return "".join(parts)


_RAW_CASES = {
    "every-break": _every_break_text(),
    "lf": _raw_text(),
    "crlf": _raw_text("\r\n"),
    "cr": _raw_text("\r"),
    **{f"u{ord(sep):04x}": _raw_text(sep)
       for sep in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")},
    "non-ascii": _raw_text(non_ascii=True),
    "blank-lines": _raw_text(blank=True),
    "no-final-newline": _raw_text(final_newline=False),
    "crlf-no-final-newline": _raw_text("\r\n", final_newline=False),
    # longer than every block below, the default one included
    "long-line": _raw_text(long_line=70_000),
}


@pytest.mark.parametrize("block", [7, 100, 1000, None], ids=["7", "100", "1000", "default"])
@pytest.mark.parametrize("case", _RAW_CASES)
def test_ingest_reads_the_same_lines_from_the_file_as_parse_raw(
        tmp_path, monkeypatch, capsys, case, block):
    """The file is read in blocks; every line break str.splitlines knows must
    end a line there too, so issue line numbers match parse_raw(text)."""
    text = _RAW_CASES[case]
    raw = tmp_path / "raw.tsv"
    raw.write_bytes(text.encode("utf-8"))
    if block is not None:
        # read blocks and the parser's batches of this many characters
        monkeypatch.setattr(ingest_mod, "_BATCH_CHARS", block)
    parsed = parse_raw(text)
    assert 0 < parsed.n_issues

    log = ingest_mod.ParseResult()
    with open(raw, encoding="utf-8") as fh:
        records = np.concatenate(list(ingest_mod.parse_blocks(ingest_mod.read_blocks(fh), log)))
    assert [(i.line_no, i.reason) for i in log.issues] == \
        [(i.line_no, i.reason) for i in parsed.issues]
    assert log.n_issues == parsed.n_issues
    assert records.tobytes() == parsed.records.tobytes()

    code = cli.main(["ingest", "--raw", str(raw), "--out", str(tmp_path / "series.csv"),
                     "--count-mode", "activity_sum"])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == [f"line {i.line_no}: {i.reason}" for i in parsed.issues[:20]] + (
        [f"... {parsed.n_issues - 20} more issues"] if parsed.n_issues > 20 else [])
    series = aggregate(parsed.records, demo_sector_map(), count_mode="activity_sum")
    assert (tmp_path / "series.csv").read_text() == write_sector_series(series)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_ingest_reads_the_same_lines_across_block_boundaries(monkeypatch, block):
    text = "5060\t1\r\n\r\n5061\t2\x0b5160\t3\r5161\t4\u2028\n\n  \n5060\t5" * 3
    monkeypatch.setattr(ingest_mod, "_BATCH_CHARS", block)
    assert list(ingest_mod.read_lines(io.StringIO(text, newline=None))) == text.splitlines()


@pytest.mark.parametrize("block", [1, 7, 64, 300])
def test_read_blocks_cut_after_a_newline_and_outgrow_the_size_only_for_a_long_line(
        monkeypatch, block):
    text = "5060\t1\n" * 40 + "x" * 100 + "\n" + "5161\t2\r\n" * 40 + "no newline"
    monkeypatch.setattr(ingest_mod, "_BATCH_CHARS", block)
    blocks = list(ingest_mod.read_blocks(io.StringIO(text, newline="")))
    assert "".join(blocks) == text
    assert all(b.endswith("\n") for b in blocks[:-1])
    # a block holds no more characters than a read unless a line alone does
    assert all(len(b) <= block or max(map(len, b.splitlines(True))) >= block for b in blocks)


def test_ingest_counts_the_gaps_of_a_wide_span(tmp_path):
    last = T0 + (MAX_SLOTS - 1) * 600_000
    (tmp_path / "wide.tsv").write_text(f"5060\t{T0}\t39\t1\n5161\t{last}\t39\t1\n")
    proc = run_cli(["ingest", "--raw", "wide.tsv", "--out", "wide.csv"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"slots={MAX_SLOTS} gaps={MAX_SLOTS - 2} A=1 B=0 C=0 D=1\n"


def test_ingest_counts_every_issue_past_the_twenty_it_shows(tmp_path):
    (tmp_path / "noisy.tsv").write_text("x\n" * 30_000 + f"5060\t{T0}\t39\t1\n")
    proc = run_cli(["ingest", "--raw", "noisy.tsv", "--out", "noisy.csv"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    shown = [ln for ln in proc.stderr.splitlines() if ln.startswith("line ")]
    assert shown == [f"line {n}: fewer than 2 fields" for n in range(1, 21)]
    assert proc.stderr.endswith("\n... 29980 more issues\n")
    assert proc.stdout == "slots=1 gaps=0 A=1 B=0 C=0 D=0\n"


_GOOD = f"5060\t{T0}\t39\t1\n"


@pytest.mark.parametrize("raw, errors", [
    # an issue in each of the three batches and an unknown square in the
    # second and the third: the first unknown square is named, after every issue
    ("x\n" + _GOOD * 1500 + "5060\tsoon\t39\t1\n" + f"7777\t{T0 + 600_000}\t39\t1\n"
     + _GOOD * 1500 + f"8888\t{T0}\t39\t1\n" + f"5061\t{T0 + 7}\t39\t2\n",
     ["line 1: fewer than 2 fields", "line 1502: bad timestamp 'soon'",
      f"line 3005: timestamp {T0 + 7} not slot-aligned; floored to {T0}",
      "error: unknown square id 7777"]),
    # an unknown square in the first batch, a span too wide in the second,
    # and the first slot start in the third: the span error names the whole input
    (f"7777\t{T0}\t39\t1\n" + _GOOD * 1500 + f"5061\t{T0 + MAX_SLOTS * 600_000}\t39\t1\n"
     + "x\n" + _GOOD * 1500 + f"5161\t{T0 - 3 * 600_000}\t39\t1\n",
     ["line 1503: fewer than 2 fields",
      f"error: timestamps from {T0 - 3 * 600_000} to {T0 + MAX_SLOTS * 600_000} ms span "
      f"{MAX_SLOTS + 4} slots, more than the {MAX_SLOTS} allowed"]),
], ids=["unknown-square", "span-and-unknown-square"])
def test_ingest_prints_every_issue_then_the_first_error(tmp_path, raw, errors):
    (tmp_path / "raw.tsv").write_text(raw)
    proc = run_cli(["ingest", "--raw", "raw.tsv", "--out", "series.csv"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[1:] == errors
    assert proc.stdout == "" and not (tmp_path / "series.csv").exists()


def test_ingest_memory_does_not_grow_with_the_line_count(tmp_path):
    # each parsed batch goes into the slot grid; nothing is kept per line
    rng = np.random.default_rng(11)

    def peak(n_lines):
        slots = rng.integers(0, 2016, size=n_lines)
        slots[:2] = 0, 2015  # the same span at every size
        squares = rng.choice([5060, 5061, 5160, 5161], size=n_lines).tolist()
        raw = tmp_path / f"raw_{n_lines}.tsv"
        raw.write_text("".join(f"{sq}\t{T0 + 600_000 * k}\t39\t{k % 7}.25\t\t3\t\t\n"
                               for sq, k in zip(squares, slots.tolist())))
        tracemalloc.start()
        try:
            code = cli.main(["ingest", "--raw", str(raw), "--count-mode", "activity_sum",
                             "--out", str(tmp_path / f"series_{n_lines}.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    peak(2_000)  # one-time allocations of the first run stay out of the difference
    assert abs(peak(120_000) - peak(30_000)) < 2**20


def test_missing_input_file_is_an_io_error(workdir):
    proc = run_cli(["ingest", "--raw", "no_such_file.tsv"], cwd=workdir)
    assert proc.returncode == 1


# each subcommand with only its required flags: the resolved options are
# echoed before any input is read, so the files need not exist
_ECHO = [
    ("ingest", ["--raw", "missing.tsv"],
     "[ingest] count_mode=record_count out=series.csv out_dir=. raw=missing.tsv seed=0 "
     "squares=[5060, 5061, 5160, 5161]"),
    ("train", ["--series", "missing.csv"],
     "[train] batch=32 clip=5.0 epochs=5 hidden=32 history_out=history.csv lr=0.001 "
     "model_out=model.txt optimizer=adam out_dir=. seed=0 series=missing.csv steps=50 "
     "train_fraction=0.9 window_len=144"),
    ("predict", ["--model", "missing.txt", "--series", "missing.csv"],
     "[predict] at_slot=None model=missing.txt out_dir=. seed=0 series=missing.csv "
     "window_len=144"),
    ("schedule", ["--model", "missing.txt", "--series", "missing.csv"],
     "[schedule] at_slot=None model=missing.txt out=schedule.csv out_dir=. seed=0 "
     "series=missing.csv window_len=144"),
    ("eval", ["--model", "missing.txt", "--series", "missing.csv"],
     "[eval] model=missing.txt out=eval.csv out_dir=. seed=0 series=missing.csv "
     "train_fraction=0.9 window_len=144"),
    ("simulate", ["--series", "missing.csv"],
     "[simulate] compare_out=sim_compare.csv detect_prob=1.0 model=None n_seeds=30 "
     "out_dir=. policies=['sequential', 'predicted', 'oracle'] report_out=sim_report.csv "
     "seed=0 series=missing.csv sim_slots=36 summary_out=sim_summary.csv ue_rate=0.1 "
     "window_len=144"),
    ("gradcheck", [],
     "[gradcheck] epsilon=1e-05 hidden=[4, 8] max_len=10 models=20 out_dir=. seed=0 "
     "threshold=0.0001"),
    ("fixture", [],
     "[fixture] kind=series out=None out_dir=. seed=0 shares=None slots=2016"),
]


@pytest.mark.parametrize("command, args, echo", _ECHO, ids=[case[0] for case in _ECHO])
def test_each_subcommand_echoes_every_option_and_default(tmp_path, command, args, echo):
    proc = run_cli([command, *args], cwd=tmp_path)
    assert proc.stderr.splitlines()[0] == echo


# (command and flags, the flag the error names): each refused value exits 2
# before the input is read and before the resolved options are echoed
_REFUSED = [
    (["ingest", "--raw", "missing.tsv", "--count-mode", "bogus"], "--count-mode"),
    (["ingest", "--raw", "missing.tsv", "--squares", ","], "--squares"),
    (["train", "--series", "missing.csv", "--hidden", "0"], "--hidden"),
    (["simulate", "--series", "missing.csv", "--policies", ","], "--policies"),
    (["simulate", "--series", "missing.csv", "--policies", "oracle,sequential,oracle"],
     "--policies"),
    (["gradcheck", "--hidden", ","], "--hidden"),
    (["fixture", "--kind", "bogus"], "--kind"),
]


@pytest.mark.parametrize("args, flag", _REFUSED, ids=[" ".join(a[-2:]) for a, _ in _REFUSED])
def test_a_refused_option_is_named_before_any_input_is_read(tmp_path, args, flag):
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {flag} ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, error", [
    (["ingest", "--raw", "missing.tsv", "--squares", "1,2,3"],
     "error: sector map needs exactly 4 squares, got 3"),
    (["train", "--series", "missing.csv", "--optimizer", "rmsprop"],
     "error: unknown optimizer 'rmsprop'"),
    (["train", "--series", "missing.csv", "--window-len", "0"],
     "error: need window_len >= 1, got window_len=0"),
    (["eval", "--model", "missing.txt", "--series", "missing.csv", "--train-fraction", "1"],
     "error: train_fraction must be in (0, 1), got 1.0"),
    (["simulate", "--series", "missing.csv", "--policies", "sequential", "--ue-rate", "nan"],
     "error: mean rate must be finite and non-negative, got nan"),
], ids=["ingest-squares", "train-optimizer", "train-window-len", "eval-train-fraction",
        "simulate-ue-rate"])
def test_the_library_checks_options_before_the_input_is_read(tmp_path, args, error):
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == error


def test_a_series_count_beyond_int64_names_its_row(tmp_path):
    series = write_sector_series(synthetic_series(40, seed=1)).splitlines()
    series[3] = series[3].rsplit(",", 1)[0] + ",100000000000000000000"
    (tmp_path / "huge.csv").write_text("\n".join(series) + "\n")
    proc = run_cli(["train", "--series", "huge.csv", "--window-len", "4"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        "error: row 4: count 100000000000000000000 does not fit in int64")
    assert "Traceback" not in proc.stderr


def test_a_series_longer_than_max_slots_is_a_validation_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ingest_mod, "MAX_SLOTS", 3)
    (tmp_path / "long.csv").write_text(write_sector_series(synthetic_series(4, seed=1)))
    code = cli.main(["train", "--series", str(tmp_path / "long.csv"), "--window-len", "3",
                     "--model-out", str(tmp_path / "model.txt")])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: row 5: more than 3 data rows"
    assert not (tmp_path / "model.txt").exists()


def test_a_series_is_read_only_up_to_the_refused_row(tmp_path, monkeypatch):
    path = tmp_path / "long.csv"
    text = write_sector_series(synthetic_series(200_000, seed=1))  # 6.3 MB
    path.write_text(text)
    # the lines of the file load as the whole text does
    assert np.array_equal(load_sector_series(iter(text.splitlines())).counts,
                          load_sector_series(text).counts)
    del text
    monkeypatch.setattr(ingest_mod, "MAX_SLOTS", 3)
    tracemalloc.start()
    try:
        with pytest.raises(SeriesFormatError, match="^row 5: more than 3 data rows$"):
            cli._load_series(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # reading and splitting the whole file first peaked at 17.6 MB
    assert peak < 2**20


def test_train_rejects_window_longer_than_series(workdir):
    proc = run_cli(["train", "--series", "series.csv", "--window-len", "400"],
                   cwd=workdir)
    assert proc.returncode == 2


def test_train_divergence_has_its_own_exit_code(workdir):
    proc = run_cli(
        ["train", "--series", "series.csv", "--window-len", "24",
         "--hidden", "8", "--epochs", "1", "--steps", "40",
         "--optimizer", "sgd", "--lr", "1e6", "--clip", "none",
         "--model-out", "diverged.txt"],
        cwd=workdir)
    assert proc.returncode == 3
    assert "diverged" in proc.stderr


@pytest.mark.parametrize("flag, name", [("--lr", "learning_rate"),
                                        ("--clip", "gradient_clip_norm")])
def test_train_rejects_a_nan_rate_or_clip(workdir, tmp_path, flag, name):
    proc = run_cli(["train", "--series", str(workdir / "series.csv"),
                    "--window-len", "24", "--hidden", "4", "--epochs", "1",
                    "--steps", "2", flag, "nan"], cwd=tmp_path)
    assert proc.returncode == 2
    assert name in proc.stderr
    assert not (tmp_path / "model.txt").exists()


def test_train_reruns_are_byte_identical(workdir, tmp_path):
    args = ["train", "--series", str(workdir / "series.csv"),
            "--window-len", "24", "--hidden", "5", "--epochs", "1",
            "--steps", "6", "--batch", "8", "--seed", "11"]
    for sub in ("a", "b"):
        proc = run_cli(args + ["--out-dir", sub], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    for name in ("model.txt", "history.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_predict_prints_one_line_per_slot(workdir):
    proc = run_cli(
        ["predict", "--model", "model.txt", "--series", "series.csv",
         "--window-len", "24"],
        cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("slot=320 ")
    for label in ("A=", "B=", "C=", "D="):
        assert f" {label}" in proc.stdout


@pytest.mark.parametrize("window_len, at_slot", [(24, 3), (24, 500), (-5, -3), (0, None)])
@pytest.mark.parametrize("command", ["predict", "schedule"])
def test_predict_needs_enough_history(workdir, tmp_path, command, window_len, at_slot):
    args = [command, "--model", workdir / "model.txt", "--series", workdir / "series.csv",
            "--window-len", window_len]
    if at_slot is not None:
        args += ["--at-slot", at_slot]
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("error:") and "window_len" in error
    assert not list(tmp_path.iterdir())


def test_predict_and_simulate_forecast_each_slot_from_the_window_before_it(workdir, tmp_path):
    # a GRU whose update gate is open, so its forecast is tanh(0.01 * the
    # window's last row) and its sector order changes from slot to slot
    zero, eye = np.zeros((4, 4)), np.eye(4)
    params = GruParams(W_r=zero, R_r=zero, b_r=np.zeros(4), W_z=zero, R_z=0.01 * eye,
                       b_z=np.zeros(4), W_u=zero, R_u=zero, b_u=np.full(4, 50.0),
                       W_out=eye, b_out=np.zeros(4))
    norm = Normalizer.identity(4)
    model, series_csv = tmp_path / "last_row.txt", workdir / "series.csv"
    model.write_text(dumps_model(params, norm))
    counts = load_sector_series(series_csv.read_text()).counts.astype(float)

    proc = run_cli(["predict", "--model", model, "--series", series_csv,
                    "--window-len", "24", "--at-slot", "200"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    pred = predict_next(params, norm, counts, 24, 200, 200)[0]
    assert np.allclose(pred, np.tanh(0.01 * counts[199]))
    assert proc.stdout == "slot=200 " + " ".join(
        f"{label}={v:.6f}" for label, v in zip("ABCD", pred)) + "\n"

    proc = run_cli(["simulate", "--series", series_csv, "--model", model,
                    "--window-len", "24", "--policies", "predicted", "--n-seeds", "1",
                    "--sim-slots", "36", "--seed", "9"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    start = len(counts) - 36
    preds = predict_next(params, norm, counts, 24, start, len(counts) - 1)
    _, predicted_ties, run_seeds = np.random.SeedSequence(9).spawn(3)
    policy = PerSlotPolicy.from_values("predicted", preds, np.random.default_rng(predicted_ties))
    cfg = SimConfig(arrival_rates_per_s=rates_from_counts(counts[start:], 0.1),
                    horizon_us=36 * SLOT_US,
                    seed=int(run_seeds.generate_state(1, np.uint64)[0]))
    ues = draw_ues(cfg)
    assert (tmp_path / "sim_report.csv").read_text() == (
        REPORT_HEADER + report_csv(ues, [simulate(ues, policy)]))


def test_simulate_report_matches_the_scalar_renderer_byte_for_byte(workdir, tmp_path):
    # three policies and three seeds, each seed's rows written as it is simulated
    proc = run_cli(["simulate", "--series", workdir / "series.csv",
                    "--model", workdir / "model.txt", "--window-len", "24",
                    "--policies", "sequential,predicted,oracle", "--n-seeds", "3",
                    "--sim-slots", "6", "--detect-prob", "0.5", "--seed", "4"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    counts = load_sector_series((workdir / "series.csv").read_text()).counts.astype(float)
    start = len(counts) - 6
    oracle_ties, predicted_ties, run_seeds = np.random.SeedSequence(4).spawn(3)
    params, norm = load_model(workdir / "model.txt")
    preds = predict_next(params, norm, counts, 24, start, len(counts) - 1)
    policies = [
        PerSlotPolicy.from_ranking(sequential_ranking(), "sequential"),
        PerSlotPolicy.from_values("predicted", preds, np.random.default_rng(predicted_ties)),
        PerSlotPolicy.from_values("oracle", counts[start:], np.random.default_rng(oracle_ties)),
    ]
    runs, rows = [], []
    for seed in run_seeds.generate_state(3, np.uint64):
        cfg = SimConfig(arrival_rates_per_s=rates_from_counts(counts[start:], 0.1),
                        horizon_us=6 * SLOT_US, detect_prob=0.5, seed=int(seed))
        ues = draw_ues(cfg)
        runs += (seed_runs := [simulate(ues, policy) for policy in policies])
        rows += [(r.policy, r.seed, ues.sectors, ues.arrival_us, r.delay_us) for r in seed_runs]
    assert len({r.seed for r in runs}) == 3 and all(r.n_ues for r in runs)
    assert (tmp_path / "sim_report.csv").read_text() == report_csv_scalar(rows)
    # the summary and the comparison still see every seed's runs
    assert (tmp_path / "sim_summary.csv").read_text() == summary_csv(runs)
    assert (tmp_path / "sim_compare.csv").read_text() == compare(runs).csv_text()


def test_simulate_draws_each_seed_once_and_its_runs_share_the_arrays(workdir, tmp_path,
                                                                    monkeypatch, capsys):
    draw, render = sim_mod.draw_ues, sim_mod.report_bytes
    draws, rendered = [], []
    monkeypatch.setattr(sim_mod, "draw_ues", lambda cfg: draws.append(ues := draw(cfg)) or ues)
    monkeypatch.setattr(sim_mod, "report_bytes",
                        lambda ues, runs: rendered.append((ues, runs)) or render(ues, runs))
    code = cli.main(["simulate", "--series", str(workdir / "series.csv"),
                     "--model", str(workdir / "model.txt"), "--window-len", "24",
                     "--policies", "sequential,predicted,oracle", "--n-seeds", "4",
                     "--sim-slots", "3", "--seed", "8", "--out-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert len(draws) == 4 and len({ues.cfg.seed for ues in draws}) == 4
    # one report_bytes call per seed, given that seed's draw and its three runs
    assert [ues for ues, _ in rendered] == draws
    for ues, runs in rendered:
        assert all(type(r) is SimReport and r.n_ues == ues.arrival_us.size for r in runs)
        assert [(r.policy, r.seed) for r in runs] == [
            ("sequential", ues.cfg.seed), ("predicted", ues.cfg.seed), ("oracle", ues.cfg.seed)]


def test_simulate_keeps_the_same_delays_when_its_buffers_must_grow(workdir, tmp_path,
                                                                   monkeypatch):
    # the kept delays are sized from SimConfig.expected_ues; with room for a
    # few UEs only, every seed grows them, and no output changes
    def outputs(out):
        code = cli.main(["simulate", "--series", str(workdir / "series.csv"),
                         "--policies", "sequential,oracle", "--n-seeds", "5",
                         "--sim-slots", "4", "--seed", "2", "--out-dir", str(out)])
        assert code == 0
        return [(out / name).read_bytes()
                for name in ("sim_report.csv", "sim_summary.csv", "sim_compare.csv")]

    sized = outputs(tmp_path / "sized")
    monkeypatch.setattr(SimConfig, "expected_ues", property(lambda cfg: 0.01))
    assert outputs(tmp_path / "grown") == sized


def test_simulate_refuses_more_than_max_ues_per_run(workdir, tmp_path):
    proc = run_cli(["simulate", "--series", workdir / "series.csv", "--policies", "sequential",
                    "--ue-rate", "1e9", "--out-dir", "fresh"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        f"error: the rates give 2.16e+13 UEs per run on average, "
        f"more than MAX_UES = {sim_mod.MAX_UES}")
    assert not list(tmp_path.iterdir())


def test_simulate_memory_grows_by_the_kept_arrays_not_the_report_text(workdir, tmp_path):
    # each UE keeps 8 bytes per run (report row), its delay, for the summary
    # and the comparison; its draw and its CSV text go with its seed's chunk
    # and are not kept
    def peak_and_rows(n_seeds):
        out = tmp_path / f"seeds_{n_seeds}"
        tracemalloc.start()
        try:
            code = cli.main(["simulate", "--series", str(workdir / "series.csv"),
                             "--policies", "sequential,oracle", "--n-seeds", str(n_seeds),
                             "--sim-slots", "2", "--ue-rate", "1", "--out-dir", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with open(out / "sim_report.csv", encoding="utf-8") as fh:
            return peak, sum(1 for _ in fh) - 1

    peak_and_rows(1)  # one-time allocations of the first run stay out of the difference
    (small_peak, small_rows), (large_peak, large_rows) = peak_and_rows(4), peak_and_rows(16)
    assert large_rows - small_rows > 20_000
    assert (large_peak - small_peak) / (large_rows - small_rows) <= 12


def test_predict_rejects_slots_past_the_series(workdir):
    proc = run_cli(
        ["predict", "--model", "model.txt", "--series", "series.csv",
         "--window-len", "24", "--at-slot", "500"],
        cwd=workdir)
    assert proc.returncode == 2


def test_schedule_writes_fourteen_slots(workdir):
    proc = run_cli(
        ["schedule", "--model", "model.txt", "--series", "series.csv",
         "--window-len", "24", "--seed", "7", "--out", "sched.csv"],
        cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert "order=" in proc.stdout
    lines = (workdir / "sched.csv").read_text().splitlines()
    assert lines[0] == "ssb_index,sector,start_offset_us"
    assert len(lines) == 15
    assert lines[1].startswith("0,")

    again = run_cli(
        ["schedule", "--model", "model.txt", "--series", "series.csv",
         "--window-len", "24", "--seed", "7", "--out", "sched2.csv"],
        cwd=workdir)
    assert again.returncode == 0
    assert (workdir / "sched.csv").read_bytes() == \
        (workdir / "sched2.csv").read_bytes()


def test_eval_reports_persistence_ratio(workdir):
    proc = run_cli(
        ["eval", "--model", "model.txt", "--series", "series.csv",
         "--window-len", "24", "--out", "eval.csv"],
        cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert "persistence_mse=" in proc.stdout
    header = (workdir / "eval.csv").read_text().splitlines()[0]
    assert header == "seq_index,sector,prediction,truth"


def test_eval_survives_a_zero_persistence_error(workdir, tmp_path):
    # a constant series: persistence is exact on the held-out slots
    flat = SectorSeries(t0_ms=T0, counts=np.full((400, 4), 5, dtype=np.int64))
    (tmp_path / "flat.csv").write_text(write_sector_series(flat))
    proc = run_cli(["train", "--series", "flat.csv", "--window-len", "24",
                    "--epochs", "1", "--steps", "2"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # zero inputs leave the fresh model at the offset, so both errors are 0
    for model, ratio in ((tmp_path / "model.txt", "1.0000"),
                         (workdir / "model.txt", "inf")):
        (tmp_path / "eval.csv").unlink(missing_ok=True)
        proc = run_cli(["eval", "--model", model, "--series", "flat.csv",
                        "--window-len", "24"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "persistence_mse=0.000000" in proc.stdout
        assert proc.stdout.rstrip().endswith(f" ratio={ratio}"), proc.stdout
        header = (tmp_path / "eval.csv").read_text().splitlines()[0]
        assert header == "seq_index,sector,prediction,truth"


def test_eval_rejects_a_model_with_a_non_finite_normalizer(workdir):
    head, scale_row = (workdir / "model.txt").read_text().split("norm_scale 4\n")
    values = scale_row.splitlines()[0].split()
    (workdir / "nan_model.txt").write_text(
        head + "norm_scale 4\n" + " ".join(["nan"] + values[1:]) + "\nend\n")
    proc = run_cli(["eval", "--model", "nan_model.txt", "--series", "series.csv",
                    "--window-len", "24", "--out", "nan_eval.csv"], cwd=workdir)
    assert proc.returncode == 2
    assert "finite" in proc.stderr
    assert not (workdir / "nan_eval.csv").exists()


def test_simulate_writes_three_reports(workdir):
    args = ["simulate", "--series", "series.csv", "--model", "model.txt",
            "--window-len", "24", "--n-seeds", "2", "--sim-slots", "4",
            "--seed", "9"]
    proc = run_cli(args, cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    for name in ("sim_report.csv", "sim_summary.csv", "sim_compare.csv"):
        assert (workdir / name).exists()
    compare = (workdir / "sim_compare.csv").read_text().splitlines()
    assert compare[0].startswith("policy,n_seeds,")
    assert len(compare) == 4  # header + sequential + predicted + oracle


def test_simulate_rejects_unknown_policy(workdir):
    proc = run_cli(
        ["simulate", "--series", "series.csv", "--policies", "sideways",
         "--n-seeds", "1", "--sim-slots", "2"],
        cwd=workdir)
    assert proc.returncode == 2
    assert "sideways" in proc.stderr


@pytest.mark.parametrize("flag, value", [("--n-seeds", "0"), ("--n-seeds", "-1"),
                                         ("--sim-slots", "0")])
def test_simulate_rejects_run_counts_below_one(workdir, tmp_path, flag, value):
    counts = {"--n-seeds": "2", "--sim-slots": "4", flag: value}
    proc = run_cli(["simulate", "--series", str(workdir / "series.csv"),
                    "--model", str(workdir / "model.txt"), "--window-len", "24"]
                   + [arg for pair in counts.items() for arg in pair], cwd=tmp_path)
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert not list(tmp_path.glob("sim_*.csv"))


def test_simulate_rejects_a_window_len_below_one(workdir, tmp_path):
    proc = run_cli(["simulate", "--series", workdir / "series.csv",
                    "--model", workdir / "model.txt", "--window-len", "0",
                    "--n-seeds", "2", "--sim-slots", "4"], cwd=tmp_path)
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("error:") and "window_len=0" in error
    assert not list(tmp_path.glob("sim_*.csv"))


def test_simulate_rejects_a_zero_ue_rate(workdir, tmp_path):
    proc = run_cli(["simulate", "--series", workdir / "series.csv",
                    "--model", workdir / "model.txt", "--window-len", "24",
                    "--n-seeds", "2", "--sim-slots", "4", "--ue-rate", "0"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "error: no UE would arrive: --ue-rate is 0"
    assert not list(tmp_path.glob("sim_*.csv"))
    proc = run_cli(["simulate", "--series", workdir / "series.csv",
                    "--policies", "sequential", "--n-seeds", "2", "--sim-slots", "4",
                    "--ue-rate", "nan"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        "error: mean rate must be finite and non-negative, got nan")
    assert not list(tmp_path.glob("sim_*.csv"))


@pytest.mark.parametrize("value", ["0", "1.5", "nan"])
def test_simulate_rejects_a_detect_prob_outside_zero_one(workdir, tmp_path, value):
    proc = run_cli(["simulate", "--series", workdir / "series.csv",
                    "--policies", "sequential,oracle", "--n-seeds", "2", "--sim-slots", "4",
                    "--detect-prob", value, "--out-dir", "fresh"], cwd=tmp_path)
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("error: detect_prob must be in (0, 1]")
    # neither a sim_*.csv nor the --out-dir was created
    assert not list(tmp_path.iterdir())
    # and the predicted policy's model is not read before it
    proc = run_cli(["simulate", "--series", workdir / "series.csv", "--model", "missing.txt",
                    "--detect-prob", value], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith("error: detect_prob must be in (0, 1]")


def test_simulate_takes_the_detect_prob_floor_and_refuses_below_it(workdir, tmp_path):
    floor = 45.0 * 20_000.0 / 2.0 ** 62   # 45 bursts of 20 ms over 2**62 us
    args = ["simulate", "--series", workdir / "series.csv", "--policies", "sequential,oracle",
            "--n-seeds", "2", "--sim-slots", "4", "--detect-prob"]
    proc = run_cli(args + [repr(float(np.nextafter(floor, 0.0))), "--out-dir", "below"],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith(
        f"error: detect_prob must be at least {floor!r}")
    assert not list(tmp_path.iterdir())
    proc = run_cli(args + [repr(floor)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    delays = [float(row.split(",")[5])
              for row in (tmp_path / "sim_report.csv").read_text().splitlines()[1:]]
    assert delays and all(0 < d < 2.0 ** 62 + 40_000.0 for d in delays)


# at 0.002 UEs/s over one slot, CLI seed 1 gives UEs to its first two run
# seeds and none to the third, after two seeds' rows went to the temp file
@pytest.mark.parametrize("ue_rate, seed, failing", [("1e-6", "0", "seed 1 of 3"),
                                                    ("0.002", "1", "seed 3 of 3")])
def test_simulate_refuses_a_seed_without_ues(workdir, tmp_path, ue_rate, seed, failing):
    old = {name: f"old {name}\n"
           for name in ("sim_report.csv", "sim_summary.csv", "sim_compare.csv")}
    for name, text in old.items():
        (tmp_path / name).write_text(text)
    proc = run_cli(["simulate", "--series", workdir / "series.csv",
                    "--policies", "sequential,oracle", "--n-seeds", "3", "--sim-slots", "1",
                    "--ue-rate", ue_rate, "--seed", seed], cwd=tmp_path)
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith(f"error: {failing} (run seed ") and "drew no UE" in error
    assert "--ue-rate" in error and "--sim-slots" in error
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == old
    # the --out-dir the failed report write created is removed again
    proc = run_cli(["simulate", "--series", workdir / "series.csv",
                    "--policies", "sequential,oracle", "--n-seeds", "3", "--sim-slots", "1",
                    "--ue-rate", ue_rate, "--seed", seed, "--out-dir", "fresh/sim"],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "drew no UE" in proc.stderr.splitlines()[-1]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(old)


def test_simulate_rejects_slots_without_counts(workdir, tmp_path):
    series = synthetic_series(320, seed=5)
    series.counts[-4:] = 0
    (tmp_path / "quiet.csv").write_text(write_sector_series(series))
    proc = run_cli(["simulate", "--series", "quiet.csv",
                    "--model", workdir / "model.txt", "--window-len", "24",
                    "--n-seeds", "2", "--sim-slots", "4"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        "error: no UE would arrive: every count in the last 4 slots of the series is 0")
    assert not list(tmp_path.glob("sim_*.csv"))
    # one slot with arrivals is enough
    proc = run_cli(["simulate", "--series", "quiet.csv",
                    "--model", workdir / "model.txt", "--window-len", "24",
                    "--n-seeds", "2", "--sim-slots", "5"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "nan" not in (tmp_path / "sim_summary.csv").read_text()


def test_config_file_sits_between_flags_and_defaults(workdir, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# small run\nepochs=1\nsteps=4\nhidden=5\nwindow_len=24\n")
    proc = run_cli(
        ["train", "--series", str(workdir / "series.csv"),
         "--config", str(cfg), "--steps", "6"],
        cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    resolved = proc.stderr.splitlines()[0]
    assert resolved.startswith("[train] ")
    assert "steps=6" in resolved      # flag beats file
    assert "epochs=1" in resolved     # file beats default
    assert "batch=32" in resolved     # default fills the rest
    dims = (tmp_path / "model.txt").read_text().splitlines()[1]
    assert dims == "dims 4 5 4"


def test_config_file_rejects_unknown_keys(workdir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs=1\nturbo=yes\n")
    proc = run_cli(
        ["train", "--series", str(workdir / "series.csv"), "--config", str(cfg)],
        cwd=tmp_path)
    assert proc.returncode == 2
    assert "turbo" in proc.stderr


def test_config_file_is_refused_at_its_bad_line_and_read_no_further(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # past the bad line, comments of several read blocks, then bytes that are not UTF-8
    cfg.write_bytes(b"epochs=1\nturbo\n" + b"# comment\n" * 30_000 + b"\xff\n")
    assert cli.main(["train", "--series", "series.csv", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: config line 2 is not key=value: 'turbo'\n"


@pytest.mark.parametrize("kind", ["model", "config", "series"])
def test_a_one_mib_token_is_quoted_short_on_stderr(workdir, tmp_path, capsys, kind):
    big = tmp_path / "big.txt"
    big.write_text("x" * 2**20)  # one line, one token, no line break
    paths = {"model": workdir / "model.txt", "series": workdir / "series.csv", "config": None}
    paths[kind] = big
    args = [f"--{name}={path}" for name, path in paths.items() if path is not None]
    assert cli.main(["predict", *args]) == 2
    err = capsys.readouterr().err
    assert "'xxxxxxxx" in err and "... (1,048,576 characters)" in err
    assert len(err.encode()) < 1024


def test_a_long_out_path_is_quoted_short_in_the_echo_and_the_io_error(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("raw.tsv").write_text("5060\t1384726200000\t39\t1\n")
    echoed = {}
    for out in ("s" * 36 + ".csv", "s" * 37 + ".csv"):  # 40 and 41 characters
        assert cli.main(["ingest", "--raw", "raw.tsv", "--out", out]) == 0
        echoed[out] = capsys.readouterr().err.split()
    assert "out=" + "s" * 36 + ".csv" in echoed["s" * 36 + ".csv"]
    assert "out=" + "s" * 37 in " ".join(echoed["s" * 37 + ".csv"])
    assert "(41 characters)" in " ".join(echoed["s" * 37 + ".csv"])
    # a path too long for the file system: echoed whole, then named whole in
    # the error, it made 200,138 characters of stderr
    Path("long.cfg").write_text("out=" + "x" * 100_000 + "\n")
    assert cli.main(["ingest", "--raw", "raw.tsv", "--config", "long.cfg"]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert "out=" + "x" * 40 + "... (100,000 characters)" in err
    assert err.splitlines()[-1].startswith("error: [Errno ")


def test_bad_flag_value_is_a_validation_error(workdir):
    proc = run_cli(["train", "--series", "series.csv", "--epochs", "many"],
                   cwd=workdir)
    assert proc.returncode == 2
    assert "epochs" in proc.stderr


def test_gradcheck_smoke(workdir):
    proc = run_cli(
        ["gradcheck", "--models", "2", "--hidden", "5", "--max-len", "4"],
        cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert "gradcheck PASS" in proc.stdout


def test_gradcheck_rejects_a_nan_epsilon(workdir):
    proc = run_cli(["gradcheck", "--models", "1", "--epsilon", "nan"], cwd=workdir)
    assert proc.returncode == 2
    assert "epsilon" in proc.stderr
    assert "PASS" not in proc.stdout


@pytest.mark.parametrize("hidden", ["0", "-3", "4,0"])
@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_a_hidden_size_below_one_is_a_validation_error(workdir, tmp_path, command, hidden):
    args = [command, "--hidden", hidden]
    if command == "train":
        args += ["--series", workdir / "series.csv", "--window-len", "24",
                 "--epochs", "1", "--steps", "2"]
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("error:") and "hidden" in error
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [("--models", "0"), ("--models", "-2"),
                                         ("--max-len", "2")])
def test_gradcheck_rejects_a_vacuous_battery(workdir, flag, value):
    proc = run_cli(["gradcheck", flag, value], cwd=workdir)
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("error:") and flag in error
    assert proc.stdout == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_gradcheck_refuses_a_threshold_that_is_not_positive_and_finite(workdir, value):
    proc = run_cli(["gradcheck", "--threshold", value], cwd=workdir)
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("error:") and "--threshold" in error
    assert proc.stdout == ""


def test_gradcheck_refuses_a_max_len_above_max_slots(workdir):
    # checked before a length is drawn: no sequence of that size is allocated
    proc = run_cli(["gradcheck", "--max-len", "100000000000"], cwd=workdir)
    assert proc.returncode == 2
    error = proc.stderr.splitlines()[-1]
    assert error.startswith("error:") and "--max-len" in error
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_gradcheck_overflow_is_a_failure_without_a_warning(workdir):
    proc = run_cli(["gradcheck", "--models", "1", "--epsilon", "1e300"], cwd=workdir)
    assert proc.returncode == 2
    assert "max_rel_err=inf" in proc.stdout and "gradcheck FAIL" in proc.stdout
    assert "Warning" not in proc.stderr


def test_fixture_series_with_shares(workdir, tmp_path):
    proc = run_cli(
        ["fixture", "--kind", "series", "--slots", "64",
         "--shares", "0.1,0.2,0.3,0.4", "--out", "shared.csv"],
        cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "shared.csv").read_text().splitlines()
    assert lines[0] == "time,A,B,C,D"
    assert len(lines) == 65


@pytest.mark.parametrize("slots", ["1000001", "100000000000"])
def test_fixture_series_refuses_more_than_max_slots(tmp_path, slots):
    # checked before the counts are allocated: no MemoryError traceback
    proc = run_cli(["fixture", "--kind", "series", "--slots", slots], cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"error: n_slots must be between 1 and 1000000, got {slots}")
    assert not list(tmp_path.iterdir())


def test_unknown_subcommand_exits_2(workdir):
    proc = run_cli(["frobnicate"], cwd=workdir)
    assert proc.returncode == 2


def test_atomic_write_sends_a_str_in_one_call_and_chunks_as_they_come(tmp_path, monkeypatch):
    real_open, writes = open, []

    class Recorder:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            writes.append(data)
            self.fh.write(data)

    monkeypatch.setattr(cli, "open", lambda *a, **kw: Recorder(real_open(*a, **kw)),
                        raising=False)
    cli._write_atomic(tmp_path / "one.csv", "a,b\n1,2\n")
    cli._write_atomic(tmp_path / "two.csv", iter(["a,b\n", "", "1,2\n"]))
    assert writes == [b"a,b\n1,2\n", b"a,b\n", b"", b"1,2\n"]
    assert (tmp_path / "two.csv").read_text() == "a,b\n1,2\n"
    # bytes chunks go as they are, str chunks as strict UTF-8, and may mix
    writes.clear()
    cli._write_atomic(tmp_path / "three.csv", iter([b"s\xc3\xa9q,\n", "\u2192\n"]))
    assert writes == [b"s\xc3\xa9q,\n", "\u2192\n".encode()]
    assert (tmp_path / "three.csv").read_text(encoding="utf-8") == "s\u00e9q,\n\u2192\n"
    # a lone surrogate has no UTF-8 encoding: refused, and the old file stays
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(tmp_path / "three.csv", iter(["a\n", "\ud800\n"]))
    assert (tmp_path / "three.csv").read_text(encoding="utf-8") == "s\u00e9q,\n\u2192\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "three.csv", "two.csv"]


def _chunks_failing_after_the_first():
    yield "new,content\n" * 1000
    raise OSError("the rows of the next chunk could not be made")


@pytest.mark.parametrize("failure", ["write", "chunks"])
def test_atomic_write_failing_partway_keeps_the_old_file(tmp_path, monkeypatch, failure):
    target = tmp_path / "out.csv"
    cli._write_atomic(target, "old\n")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError("no space left on device")

    if failure == "write":
        monkeypatch.setattr(cli, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)),
                            raising=False)
        content = "new,content\n" * 1000
    else:
        content = _chunks_failing_after_the_first()
    with pytest.raises(OSError):
        cli._write_atomic(target, content)
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
