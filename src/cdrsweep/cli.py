"""Command-line pipeline: raw CDRs -> series -> model -> schedule -> simulation.

Every option can come from a flag, a flat key=value config file (--config),
or the built-in default, in that precedence order. Each run prints its
resolved configuration (including the seed) to stderr, writes files
atomically, and is deterministic given identical inputs and seed.

Exit codes: 0 success, 1 I/O failure, 2 validation failure,
3 numeric divergence during training.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import fixtures, gru, model_io, scheduler, simulator, training
from .errors import CdrSweepError, DivergedLossError, InvalidConfigError
from .ingest import (
    MAX_SLOTS,
    SECTOR_LABELS,
    SectorMap,
    aggregate,
    load_sector_series,
    make_windows,
    parse_raw,
    write_sector_series,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3


def _clip_value(text: str):
    return None if text.strip().lower() == "none" else float(text)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


# (dest, converter, default); argparse stores raw strings so flag, file and
# default values all pass through the same converter.
_GLOBAL_OPTS = [
    ("seed", int, 0),
    ("out_dir", str, "."),
]

_SUB_OPTS = {
    "ingest": [
        ("raw", str, None),
        ("squares", _int_list, [5060, 5061, 5160, 5161]),
        ("count_mode", str, "record_count"),
        ("out", str, "series.csv"),
    ],
    "train": [
        ("series", str, None),
        ("window_len", int, 144),
        ("train_fraction", float, 0.9),
        ("hidden", int, 32),
        ("epochs", int, 5),
        ("steps", int, 50),
        ("batch", int, 32),
        ("lr", float, 1e-3),
        ("optimizer", str, "adam"),
        ("clip", _clip_value, 5.0),
        ("model_out", str, "model.txt"),
        ("history_out", str, "history.csv"),
    ],
    "predict": [
        ("model", str, None),
        ("series", str, None),
        ("window_len", int, 144),
        ("at_slot", int, None),
    ],
    "schedule": [
        ("model", str, None),
        ("series", str, None),
        ("window_len", int, 144),
        ("at_slot", int, None),
        ("out", str, "schedule.csv"),
    ],
    "eval": [
        ("model", str, None),
        ("series", str, None),
        ("window_len", int, 144),
        ("train_fraction", float, 0.9),
        ("out", str, "eval.csv"),
    ],
    "simulate": [
        ("series", str, None),
        ("model", str, None),
        ("window_len", int, 144),
        ("policies", _str_list, ["sequential", "predicted", "oracle"]),
        ("n_seeds", int, 30),
        ("sim_slots", int, 36),
        ("ue_rate", float, 0.1),
        ("detect_prob", float, 1.0),
        ("report_out", str, "sim_report.csv"),
        ("summary_out", str, "sim_summary.csv"),
        ("compare_out", str, "sim_compare.csv"),
    ],
    "gradcheck": [
        ("models", int, 20),
        ("hidden", _int_list, [4, 8]),
        ("max_len", int, 10),
        ("epsilon", float, 1e-5),
        ("threshold", float, 1e-4),
    ],
    "fixture": [
        ("kind", str, "series"),
        ("slots", int, 2016),
        ("shares", _float_list, None),
        ("out", str, None),
    ],
}

_REQUIRED = {
    "ingest": ("raw",),
    "train": ("series",),
    "predict": ("model", "series"),
    "schedule": ("model", "series"),
    "eval": ("model", "series"),
    "simulate": ("series",),
    "gradcheck": (),
    "fixture": (),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cdrsweep",
        description="CDR-driven sector forecasting and SSB sweep scheduling")
    subs = top.add_subparsers(dest="command", required=True)
    for name, opts in _SUB_OPTS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="flat key=value file; flags override it")
        for dest, _, _ in _GLOBAL_OPTS + opts:
            sp.add_argument("--" + dest.replace("_", "-"), dest=dest, default=None)
    return top


def _read_config_file(path: str) -> dict:
    values = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfigError(f"config line {line_no} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _resolve(args, command: str) -> dict:
    spec = _GLOBAL_OPTS + _SUB_OPTS[command]
    file_vals = _read_config_file(args.config) if args.config else {}
    known = {dest for dest, _, _ in spec}
    unknown = sorted(set(file_vals) - known)
    if unknown:
        raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")

    resolved = {}
    for dest, convert, default in spec:
        raw = getattr(args, dest)
        if raw is None and dest in file_vals:
            raw = file_vals[dest]
        if raw is None:
            resolved[dest] = default
            continue
        try:
            resolved[dest] = convert(raw)
        except ValueError as exc:
            raise InvalidConfigError(f"bad value for {dest}: {raw!r}") from exc

    for dest in _REQUIRED[command]:
        if resolved[dest] is None:
            raise InvalidConfigError(f"--{dest.replace('_', '-')} is required")
    return resolved


def _print_resolved(command: str, res: dict) -> None:
    pairs = " ".join(f"{key}={res[key]}" for key in sorted(res))
    print(f"[{command}] {pairs}", file=sys.stderr)


def _write_atomic(path: Path, content) -> None:
    """Replace path with content through a temp file unique to this write.

    content is a str, written in one call, or an iterable of str chunks,
    written as they come. Concurrent writers never share a temp file. On any
    failure, an exception from the iterable included, the temp file and the
    directories this call made (while empty) go, and path keeps its old content.
    """
    path = Path(path)
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            # mkstemp creates the file 0600; give it the mode open(path) would
            os.fchmod(fd, 0o666 & ~umask)
            for chunk in [content] if isinstance(content, str) else content:
                fh.write(chunk)
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
    return load_sector_series(Path(path).read_text(encoding="utf-8"))


def _cmd_ingest(res: dict) -> int:
    # the same lines as read_text().splitlines(), read one at a time
    with open(res["raw"], encoding="utf-8") as fh:
        parsed = parse_raw(p for line in fh for p in line.splitlines())
    for issue in parsed.issues[:20]:
        print(f"line {issue.line_no}: {issue.reason}", file=sys.stderr)
    if len(parsed.issues) > 20:
        print(f"... {len(parsed.issues) - 20} more issues", file=sys.stderr)

    series = aggregate(parsed.records, SectorMap.from_squares(res["squares"]),
                       count_mode=res["count_mode"])
    _write_atomic(_out_path(res, res["out"]), write_sector_series(series))

    totals = " ".join(f"{lab}={int(v)}"
                      for lab, v in zip(SECTOR_LABELS, series.counts.sum(axis=0)))
    print(f"slots={series.n_slots} gaps={len(series.gap_slots())} {totals}")
    return EXIT_OK


def _cmd_train(res: dict) -> int:
    series = _load_series(res["series"])
    dataset = make_windows(series, res["window_len"], res["train_fraction"])
    cfg = training.TrainConfig(
        epochs=res["epochs"], steps_per_epoch=res["steps"], batch_size=res["batch"],
        learning_rate=res["lr"], optimizer=res["optimizer"],
        gradient_clip_norm=res["clip"], seed=res["seed"])
    params, norm, report = training.fit(dataset, cfg, hidden_dim=res["hidden"])

    _write_atomic(_out_path(res, res["model_out"]), model_io.dumps_model(params, norm))
    _write_atomic(_out_path(res, res["history_out"]), report.history_csv())
    print(f"trained {dataset.n_train} sequences, held out {dataset.n_test}; "
          f"held_out_mse={report.final_mse:.6f}")
    print(f"duration_s={report.duration_s:.1f}", file=sys.stderr)
    return EXIT_OK


def _predict_vector(res: dict):
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
    pred, at_slot = _predict_vector(res)
    ranking = scheduler.rank_sectors(pred, np.random.default_rng(res["seed"]))
    sched = scheduler.build_schedule(ranking)
    _write_atomic(_out_path(res, res["out"]), sched.csv_text())

    _print_prediction(pred, at_slot)
    print(f"order={','.join(ranking.labels)}")
    return EXIT_OK


def _cmd_eval(res: dict) -> int:
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
    for dest in ("n_seeds", "sim_slots"):
        if res[dest] < 1:
            raise InvalidConfigError(
                f"--{dest.replace('_', '-')} must be at least 1, got {res[dest]}")
    series = _load_series(res["series"])
    policies = res["policies"]
    if not policies:
        raise InvalidConfigError("need at least one policy")
    unknown = [p for p in policies if p not in ("sequential", "predicted", "oracle")]
    if unknown:
        raise InvalidConfigError(f"unknown policies: {', '.join(unknown)}")
    if len(set(policies)) != len(policies):
        raise InvalidConfigError("duplicate policy names")

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

    policy_objs = []
    for name in policies:
        if name == "sequential":
            policy_objs.append(
                simulator.PerSlotPolicy.from_ranking(scheduler.sequential_ranking(),
                                                     "sequential"))
        elif name == "oracle":
            policy_objs.append(simulator.PerSlotPolicy.from_values(
                "oracle", truth, np.random.default_rng(oracle_ties)))
        else:
            if res["model"] is None:
                raise InvalidConfigError("the predicted policy needs --model")
            params, norm = model_io.load_model(res["model"])
            preds = training.predict_next(params, norm, series.counts, res["window_len"],
                                          start, series.n_slots - 1)
            policy_objs.append(simulator.PerSlotPolicy.from_values(
                "predicted", preds, np.random.default_rng(predicted_ties)))

    # every config is checked before the report file is opened
    configs = [simulator.SimConfig(
        arrival_rates_per_s=rates, horizon_us=n_sim * simulator.SLOT_US,
        detect_prob=res["detect_prob"], seed=int(run_seed))
        for run_seed in run_seed_src.generate_state(res["n_seeds"], np.uint64)]
    reports = []

    def report_chunks():
        # one seed's rows at a time; the kept reports hold arrays, not text
        yield simulator.REPORT_HEADER
        for i, cfg in enumerate(configs, 1):
            runs = [simulator.simulate(cfg, pol) for pol in policy_objs]
            if not runs[0].n_ues:
                raise InvalidConfigError(
                    f"seed {i} of {len(configs)} (run seed {cfg.seed}) drew no UE: "
                    "raise --ue-rate or --sim-slots")
            reports.extend(runs)
            yield simulator.report_csv(runs)

    _write_atomic(_out_path(res, res["report_out"]), report_chunks())
    _write_atomic(_out_path(res, res["summary_out"]), simulator.summary_csv(reports))
    comparison = simulator.compare(reports)
    _write_atomic(_out_path(res, res["compare_out"]), comparison.csv_text())

    for row in comparison.rows:
        print(f"{row.policy}: mean={row.mean_us:.3f}us diff={row.mean_diff_us:+.3f}us "
              f"lower/equal/higher={row.n_lower}/{row.n_equal}/{row.n_higher}")
    return EXIT_OK


def _cmd_gradcheck(res: dict) -> int:
    rng = np.random.default_rng(res["seed"])
    hiddens = res["hidden"]
    if not hiddens:
        raise InvalidConfigError("need at least one hidden size")
    # every model draws a sequence length from [3, max_len]
    for dest, least in (("models", 1), ("max_len", 3)):
        if res[dest] < least:
            raise InvalidConfigError(
                f"--{dest.replace('_', '-')} must be at least {least}, got {res[dest]}")
    if res["max_len"] > MAX_SLOTS:
        raise InvalidConfigError(
            f"--max-len must be at most {MAX_SLOTS}, got {res['max_len']}")
    # written so that NaN fails too
    if not (math.isfinite(res["threshold"]) and res["threshold"] > 0):
        raise InvalidConfigError(
            f"--threshold must be positive and finite, got {res['threshold']}")
    worst = 0.0
    for i in range(res["models"]):
        h = hiddens[i % len(hiddens)]
        seq_len = int(rng.integers(3, res["max_len"] + 1))
        params = gru.init_params(4, h, 4, rng)
        xs = rng.normal(size=(seq_len, 4))
        y = rng.normal(size=(4,))
        errs = training.grad_check_by_tensor(params, (xs, y), res["epsilon"])
        model_worst = max(errs.values())
        worst = max(worst, model_worst)
        print(f"model {i}: hidden={h} len={seq_len} max_rel_err={model_worst:.3e}")
    ok = worst < res["threshold"]
    print(f"gradcheck {'PASS' if ok else 'FAIL'}: worst={worst:.3e} "
          f"threshold={res['threshold']:.1e}")
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_fixture(res: dict) -> int:
    kind = res["kind"]
    if kind == "raw":
        out = _out_path(res, res["out"] or "raw_demo.tsv")
        _write_atomic(out, "\n".join(fixtures.demo_raw_lines()) + "\n")
    elif kind == "series":
        series = fixtures.synthetic_series(
            n_slots=res["slots"], seed=res["seed"], shares=res["shares"])
        out = _out_path(res, res["out"] or "synthetic.csv")
        _write_atomic(out, write_sector_series(series))
    else:
        raise InvalidConfigError(f"unknown fixture kind {kind!r}")
    print(f"wrote {out}")
    return EXIT_OK


_HANDLERS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "schedule": _cmd_schedule,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "gradcheck": _cmd_gradcheck,
    "fixture": _cmd_fixture,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        resolved = _resolve(args, command)
        _print_resolved(command, resolved)
        return _HANDLERS[command](resolved)
    except DivergedLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CdrSweepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
