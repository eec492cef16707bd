"""Command-line pipeline: raw CDRs -> series -> model -> schedule -> simulation.

_COMMANDS declares each subcommand once: its handler, and each option's
converter and default. Every option can come from a flag, a flat key=value
config file (--config), or that default, in that precedence order. A
converter also checks its option's bounds: a refused value exits 2 with an
error naming the flag, before the resolved configuration is echoed and
before any input is read. ingest builds its sector map, train validates
its TrainConfig, train and eval check the window length and train fraction,
and simulate checks the UE rate, all with the library's own checks, before
reading too. Limits that depend on the input, and the detection
probability, are checked once the input is read. Each run prints its
resolved configuration (including the seed) to stderr, writes files
atomically, and is deterministic given identical inputs and seed.

Exit codes: 0 success, 1 I/O failure, 2 validation failure,
3 numeric divergence during training.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import sys
import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import CdrSweepError, DivergedLossError, InvalidConfigError, quoted
# Each handler imports the other modules it runs, so a command loads only
# what it needs: ingest runs on this module, errors and ingest alone.
from .ingest import (
    COUNT_MODES,
    DEFAULT_SQUARES,
    MAX_SLOTS,
    SECTOR_LABELS,
    ParseResult,
    SectorMap,
    SlotGrid,
    check_window_args,
    load_sector_series,
    make_windows,
    parse_blocks,
    read_blocks,
    read_lines,
    sector_series_blocks,
)
# ingest streams through parse_blocks and a SlotGrid. parse_raw and
# aggregate, the same two steps over a whole input, stay importable here as
# cli.parse_raw and cli.aggregate, the names bench/tracer.py wraps them by.
from .ingest import aggregate, parse_raw  # noqa: F401

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3

POLICIES = ("sequential", "predicted", "oracle")

# an option default: the flag (or its config key) must be given
REQUIRED = object()


# A converter raises ValueError for text it cannot parse and
# InvalidConfigError, worded to follow the flag name, for a value out of bounds.
def _clip_value(text: str):
    return None if text.strip().lower() == "none" else float(text)


def _bounded(convert, least=None, most=None):
    def check(text: str):
        value = convert(text)
        if least is not None and value < least:
            raise InvalidConfigError(f"must be at least {least}, got {quoted(value, str)}")
        if most is not None and value > most:
            raise InvalidConfigError(f"must be at most {most}, got {quoted(value, str)}")
        return value
    return check


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):  # written so that NaN fails too
        raise InvalidConfigError(f"must be positive and finite, got {value}")
    return value


def _one_of(choices):
    def check(text: str) -> str:
        if text not in choices:
            raise InvalidConfigError(f"must be one of {', '.join(choices)}, got {quoted(text)}")
        return text
    return check


def _listed(item, unique=False):
    """Converter for a non-empty comma-separated list, item applied to each entry."""
    def convert(text: str) -> list:
        values = [item(v.strip()) for v in text.split(",") if v.strip()]
        if not values:
            raise InvalidConfigError("must list at least one value")
        if unique and len(set(values)) < len(values):
            raise InvalidConfigError(f"must not repeat a value, got {quoted(text)}")
        return values
    return convert


# (dest, converter, default); flag and config-file text pass through the same
# converter, a default is taken as it is (a _default is read first).
_GLOBAL_OPTS = [
    ("seed", int, 0),
    ("out_dir", str, "."),
]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cdrsweep",
        description="CDR-driven sector forecasting and SSB sweep scheduling")
    subs = top.add_subparsers(dest="command", required=True)
    for name, (_, opts) in _COMMANDS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="flat key=value file; flags override it")
        for dest, _, _ in _GLOBAL_OPTS + opts:
            sp.add_argument("--" + dest.replace("_", "-"), dest=dest, default=None)
    return top


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(read_lines(fh), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfigError(f"config line {line_no} is not key=value: {quoted(line)}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _resolve(args, opts) -> dict:
    spec = _GLOBAL_OPTS + opts
    file_vals = _read_config_file(args.config) if args.config else {}
    known = {dest for dest, _, _ in spec}
    unknown = sorted(set(file_vals) - known)
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {quoted(', '.join(unknown), str)}")

    resolved = {}
    for dest, convert, default in spec:
        flag = "--" + dest.replace("_", "-")
        raw = getattr(args, dest)
        if raw is None:
            raw = file_vals.get(dest)
        if raw is None:
            if default is REQUIRED:
                raise InvalidConfigError(f"{flag} is required")
            resolved[dest] = default() if callable(default) else default
            continue
        try:
            resolved[dest] = convert(raw)
        except ValueError as exc:
            raise InvalidConfigError(f"bad value for {dest}: {quoted(raw)}") from exc
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"{flag} {exc}") from None
    return resolved


def _print_resolved(command: str, res: dict) -> None:
    pairs = " ".join(f"{key}={quoted(res[key], str)}" for key in sorted(res))
    print(f"[{command}] {pairs}", file=sys.stderr)


def _os_error(exc: OSError) -> str:
    """str(exc), with each file name in it quoted by errors.quoted."""
    if exc.strerror is None or exc.filename is None:
        return str(exc)
    names = (quoted(name) for name in (exc.filename, exc.filename2) if name is not None)
    return f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(names)}"


def _write_atomic(path: Path, content) -> None:
    """Replace path with content through a temp file unique to this write.

    content is a str, written in one call, or an iterable of str or bytes
    chunks, written as they come; a str is encoded as strict UTF-8.
    Concurrent writers never share a temp file. On any failure, an exception
    from the iterable included, the temp file and the directories this call
    made (while empty) go, and path keeps its old content.
    """
    path = Path(path)
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with open(fd, "wb") as fh:
            # mkstemp creates the file 0600; give it the mode open(path) would
            os.fchmod(fd, 0o666 & ~umask)
            for chunk in [content] if isinstance(content, str) else content:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        with contextlib.suppress(OSError):  # stop at the first one not empty
            for directory in made:  # innermost first
                directory.rmdir()
        raise


def _out_path(res: dict, name: str) -> Path:
    p = Path(name)
    return p if p.is_absolute() else Path(res["out_dir"]) / p


def _load_series(path: str):
    # read block by block: a refused row stops the read there
    with open(path, encoding="utf-8") as fh:
        return load_sector_series(read_lines(fh))


def _cmd_ingest(res: dict) -> int:
    # each parsed batch goes into the grid as it comes; no record is kept
    grid = SlotGrid(SectorMap.from_squares(res["squares"]), res["count_mode"])
    log = ParseResult()  # only its issues are filled
    with open(res["raw"], encoding="utf-8") as fh:
        for records in parse_blocks(read_blocks(fh), log, os.fstat(fh.fileno()).st_size):
            grid.add(records)
    for issue in log.issues[:20]:
        print(f"line {issue.line_no}: {issue.reason}", file=sys.stderr)
    if log.n_issues > 20:
        print(f"... {log.n_issues - 20} more issues", file=sys.stderr)

    series = grid.series()
    _write_atomic(_out_path(res, res["out"]), sector_series_blocks(series))

    totals = " ".join(f"{lab}={int(v)}"
                      for lab, v in zip(SECTOR_LABELS, series.counts.sum(axis=0)))
    print(f"slots={series.n_slots} gaps={series.gap_slots().size} {totals}")
    return EXIT_OK


def _cmd_train(res: dict) -> int:
    from . import model_io, training

    cfg = training.TrainConfig(
        epochs=res["epochs"], steps_per_epoch=res["steps"], batch_size=res["batch"],
        learning_rate=res["lr"], optimizer=res["optimizer"],
        gradient_clip_norm=res["clip"], seed=res["seed"])
    cfg.validate()
    check_window_args(res["window_len"], res["train_fraction"])
    series = _load_series(res["series"])
    dataset = make_windows(series, res["window_len"], res["train_fraction"])
    params, norm, report = training.fit(dataset, cfg, hidden_dim=res["hidden"])

    _write_atomic(_out_path(res, res["model_out"]), model_io.dumps_model(params, norm))
    _write_atomic(_out_path(res, res["history_out"]), report.history_csv())
    print(f"trained {dataset.n_train} sequences, held out {dataset.n_test}; "
          f"held_out_mse={report.final_mse:.6f}")
    print(f"duration_s={report.duration_s:.1f}", file=sys.stderr)
    return EXIT_OK


def _predict_vector(res: dict):
    from . import model_io, training

    params, norm = model_io.load_model(res["model"])
    series = _load_series(res["series"])
    at_slot = res["at_slot"] if res["at_slot"] is not None else series.n_slots
    return training.predict_next(params, norm, series.counts, res["window_len"],
                                 at_slot, at_slot)[0], at_slot


def _print_prediction(pred, at_slot: int) -> None:
    values = " ".join(f"{lab}={v:.6f}" for lab, v in zip(SECTOR_LABELS, pred))
    print(f"slot={at_slot} {values}")


def _cmd_predict(res: dict) -> int:
    _print_prediction(*_predict_vector(res))
    return EXIT_OK


def _cmd_schedule(res: dict) -> int:
    from . import scheduler

    pred, at_slot = _predict_vector(res)
    ranking = scheduler.rank_sectors(pred, np.random.default_rng(res["seed"]))
    sched = scheduler.build_schedule(ranking)
    _write_atomic(_out_path(res, res["out"]), sched.csv_text())

    _print_prediction(pred, at_slot)
    print(f"order={','.join(ranking.labels)}")
    return EXIT_OK


def _cmd_eval(res: dict) -> int:
    from . import model_io, training

    check_window_args(res["window_len"], res["train_fraction"])
    params, norm = model_io.load_model(res["model"])
    series = _load_series(res["series"])
    dataset = make_windows(series, res["window_len"], res["train_fraction"])
    result = training.evaluate(params, norm, dataset)
    _write_atomic(_out_path(res, res["out"]), result.table_csv())
    if result.persistence_mse_total > 0:
        ratio = result.mse_total / result.persistence_mse_total
    else:
        # an exact persistence baseline: any model error is infinitely worse
        ratio = math.inf if result.mse_total > 0 else 1.0
    print(f"n_test={result.n_test} mse={result.mse_total:.6f} "
          f"persistence_mse={result.persistence_mse_total:.6f} ratio={ratio:.4f}")
    return EXIT_OK


def _cmd_simulate(res: dict) -> int:
    from . import model_io, scheduler, simulator, training

    # the one rule that ties two options together
    if "predicted" in res["policies"] and res["model"] is None:
        raise InvalidConfigError("the predicted policy needs --model")
    simulator.check_mean_rate(res["ue_rate"])
    series = _load_series(res["series"])
    n_sim = res["sim_slots"]
    start = series.n_slots - n_sim
    if start < 0:
        raise InvalidConfigError(
            f"sim_slots={n_sim} exceeds the series ({series.n_slots} slots)")
    truth = series.counts[start:start + n_sim].astype(np.float64)
    rates = simulator.rates_from_counts(truth, res["ue_rate"])
    if not np.any(rates):
        cause = ("--ue-rate is 0" if res["ue_rate"] == 0
                 else f"every count in the last {n_sim} slots of the series is 0")
        raise InvalidConfigError(f"no UE would arrive: {cause}")

    seed_root = np.random.SeedSequence(res["seed"])
    oracle_ties, predicted_ties, run_seed_src = seed_root.spawn(3)
    # every config is checked before the model is loaded or the report file opened
    configs = [simulator.SimConfig(
        arrival_rates_per_s=rates, horizon_us=n_sim * simulator.SLOT_US,
        detect_prob=res["detect_prob"], seed=int(run_seed))
        for run_seed in run_seed_src.generate_state(res["n_seeds"], np.uint64)]

    policy_objs = []
    for name in res["policies"]:
        if name == "sequential":
            policy_objs.append(
                simulator.PerSlotPolicy.from_ranking(scheduler.sequential_ranking(),
                                                     "sequential"))
        elif name == "oracle":
            policy_objs.append(simulator.PerSlotPolicy.from_values(
                "oracle", truth, np.random.default_rng(oracle_ties)))
        else:
            params, norm = model_io.load_model(res["model"])
            preds = training.predict_next(params, norm, series.counts, res["window_len"],
                                          start, series.n_slots - 1)
            policy_objs.append(simulator.PerSlotPolicy.from_values(
                "predicted", preds, np.random.default_rng(predicted_ties)))

    # the delays of every run, seed after seed, in one row per policy: room
    # for the expected UEs and four standard deviations of their Poisson
    # total, grown geometrically if the draws hold more
    expected = len(configs) * configs[0].expected_ues
    kept = np.empty((len(policy_objs), int(expected + 4 * math.sqrt(expected)) + 16))
    spans = []  # (seed, first, end) of each seed's columns of kept

    def report_chunks():
        nonlocal kept
        # one run's rows at a time; the runs go, their delays stay in kept
        yield simulator.REPORT_HEADER
        end = 0
        for i, cfg in enumerate(configs, 1):
            ues = simulator.draw_ues(cfg)
            if not ues.arrival_us.size:
                raise InvalidConfigError(
                    f"seed {i} of {len(configs)} (run seed {cfg.seed}) drew no UE: "
                    "raise --ue-rate or --sim-slots")
            # every policy meets the same UEs
            runs = [simulator.simulate(ues, pol) for pol in policy_objs]
            first, end = end, end + ues.arrival_us.size
            if end > kept.shape[1]:
                grown = np.empty((kept.shape[0], max(end, 2 * kept.shape[1])))
                grown[:, :first] = kept[:, :first]
                kept = grown
            for row, run in zip(kept, runs):
                row[first:end] = run.delay_us
            spans.append((cfg.seed, first, end))
            yield from simulator.report_bytes(ues, runs)

    _write_atomic(_out_path(res, res["report_out"]), report_chunks())
    reports = [simulator.SimReport(pol.name, seed, row[first:end])
               for seed, first, end in spans for pol, row in zip(policy_objs, kept)]
    _write_atomic(_out_path(res, res["summary_out"]), simulator.summary_csv(reports))
    comparison = simulator.compare(reports)
    _write_atomic(_out_path(res, res["compare_out"]), comparison.csv_text())

    for row in comparison.rows:
        print(f"{row.policy}: mean={row.mean_us:.3f}us diff={row.mean_diff_us:+.3f}us "
              f"lower/equal/higher={row.n_lower}/{row.n_equal}/{row.n_higher}")
    return EXIT_OK


def _cmd_gradcheck(res: dict) -> int:
    from . import gru, training

    rng = np.random.default_rng(res["seed"])
    hiddens = res["hidden"]
    worst = 0.0
    n = len(SECTOR_LABELS)  # one input and one output per sector
    for i in range(res["models"]):
        h = hiddens[i % len(hiddens)]
        seq_len = int(rng.integers(3, res["max_len"] + 1))
        params = gru.init_params(n, h, n, rng)
        xs = rng.normal(size=(seq_len, n))
        y = rng.normal(size=(n,))
        model_worst = training.grad_check(params, (xs, y), res["epsilon"])
        worst = max(worst, model_worst)
        print(f"model {i}: hidden={h} len={seq_len} max_rel_err={model_worst:.3e}")
    ok = worst < res["threshold"]
    print(f"gradcheck {'PASS' if ok else 'FAIL'}: worst={worst:.3e} "
          f"threshold={res['threshold']:.1e}")
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_fixture(res: dict) -> int:
    from . import fixtures

    if res["kind"] == "raw":
        out = _out_path(res, res["out"] or "raw_demo.tsv")
        _write_atomic(out, "\n".join(fixtures.demo_raw_lines()) + "\n")
    else:
        series = fixtures.synthetic_series(
            n_slots=res["slots"], seed=res["seed"], shares=res["shares"])
        out = _out_path(res, res["out"] or "synthetic.csv")
        _write_atomic(out, sector_series_blocks(series))
    print(f"wrote {out}")
    return EXIT_OK


def _default(module: str, name: str):
    """A library default, module's attribute name (dotted), read when it is used.

    _resolve reads it only when the option takes its default, so a module is
    imported by the commands that run it alone, and the value is written once.
    """
    return lambda: attrgetter(name)(importlib.import_module(f".{module}", __package__))


# options that several subcommands share
_SERIES = ("series", str, REQUIRED)
_MODEL = ("model", str, REQUIRED)
_WINDOW = ("window_len", int, 144)
_FRACTION = ("train_fraction", float, 0.9)
_AT_SLOT = ("at_slot", int, None)

_COMMANDS = {
    "ingest": (_cmd_ingest, [
        ("raw", str, REQUIRED),
        ("squares", _listed(int), list(DEFAULT_SQUARES)),
        ("count_mode", _one_of(COUNT_MODES), COUNT_MODES[0]),
        ("out", str, "series.csv"),
    ]),
    "train": (_cmd_train, [
        _SERIES, _WINDOW, _FRACTION,
        ("hidden", _bounded(int, least=1), 32),
        ("epochs", int, _default("training", "TrainConfig.epochs")),
        ("steps", int, _default("training", "TrainConfig.steps_per_epoch")),
        ("batch", int, _default("training", "TrainConfig.batch_size")),
        ("lr", float, _default("training", "TrainConfig.learning_rate")),
        ("optimizer", str, _default("training", "TrainConfig.optimizer")),
        ("clip", _clip_value, _default("training", "TrainConfig.gradient_clip_norm")),
        ("model_out", str, "model.txt"),
        ("history_out", str, "history.csv"),
    ]),
    "predict": (_cmd_predict, [_MODEL, _SERIES, _WINDOW, _AT_SLOT]),
    "schedule": (_cmd_schedule, [_MODEL, _SERIES, _WINDOW, _AT_SLOT,
                                 ("out", str, "schedule.csv")]),
    "eval": (_cmd_eval, [_MODEL, _SERIES, _WINDOW, _FRACTION, ("out", str, "eval.csv")]),
    "simulate": (_cmd_simulate, [
        _SERIES,
        ("model", str, None),
        _WINDOW,
        ("policies", _listed(_one_of(POLICIES), unique=True), list(POLICIES)),
        ("n_seeds", _bounded(int, least=1), 30),
        ("sim_slots", _bounded(int, least=1), 36),
        ("ue_rate", float, 0.1),
        ("detect_prob", float, _default("simulator", "SimConfig.detect_prob")),
        ("report_out", str, "sim_report.csv"),
        ("summary_out", str, "sim_summary.csv"),
        ("compare_out", str, "sim_compare.csv"),
    ]),
    "gradcheck": (_cmd_gradcheck, [
        ("models", _bounded(int, least=1), 20),
        ("hidden", _listed(_bounded(int, least=1)), [4, 8]),
        # every model draws a sequence length from [3, max_len]
        ("max_len", _bounded(int, least=3, most=MAX_SLOTS), 10),
        ("epsilon", float, 1e-5),
        ("threshold", _positive_finite, 1e-4),
    ]),
    "fixture": (_cmd_fixture, [
        ("kind", _one_of(("raw", "series")), "series"),
        ("slots", int, 2016),
        ("shares", _listed(float), None),
        ("out", str, None),
    ]),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, opts = _COMMANDS[args.command]
    try:
        resolved = _resolve(args, opts)
        _print_resolved(args.command, resolved)
        return handler(resolved)
    except DivergedLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {_os_error(exc)}", file=sys.stderr)
        return EXIT_IO
    except (CdrSweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
