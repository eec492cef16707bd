#!/usr/bin/env python3
"""cdrsweep benchmark: time the real CLI stages of one workload.

    python3 bench/run.py --workload {forecast,sweep,ingest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src. The load is a closed loop with one client: one CLI subprocess at a
time, the workload's stages in order, passes repeated for S seconds. Inputs
are generated from the seed before any timing starts. BLAS and OpenMP are
pinned to one thread in every child. Times are reported at a reference
machine speed measured next to every child (see reference_s).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 every other pass runs each stage under bench/tracer.py and the
last line carries the per-layer metrics. The full report (fingerprint,
input and output hashes, per-stage median/percentile/sample count, spans
summary) goes to .bench_work/<workload>/report.json.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
import workloads
from workloads import CheckFailed, StageRun

BENCH_DIR = Path(__file__).resolve().parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES_PER_PASS = 1

# The host's speed drifts: on a shared 2-vCPU VM the same stage took 0.9 s
# and 1.7 s a few minutes apart, and runs of any length cannot average that
# out. So every timed child is bracketed by reference_s(), a fixed mix of
# line parsing, small-matrix work and fresh memory run in this process, and
# every reported time is its wall time x REF_NOMINAL_S / the mean of the
# reference times before and after it (consecutive children share one):
# seconds at the speed at which the reference takes REF_NOMINAL_S, about a
# quiet host's. The reference does not touch cdrsweep, so a change to the
# program moves these times fully.
REF_NOMINAL_S = 0.1
_REF_LINES = [f"{i}\t{i % 97}\t{i * 7919 % 1000}.25" for i in range(80_000)]
_REF_W = np.random.default_rng(0).standard_normal((32, 32)) / 8.0

# per-layer metrics taken from the traced passes: (metric, layer, how, unit)
#   total_s: seconds in the layer per pass; calls: calls per pass;
#   per_call_ms / per_call_us: mean per call; a counter name reads the
#   layer's counter per pass.
LAYER_METRICS = (
    ("ingest.parse_raw.s", "ingest.parse_raw", "total_s", "s"),
    ("ingest.aggregate.s", "ingest.aggregate", "total_s", "s"),
    ("ingest.records", "ingest.parse_raw", "records", "count"),
    ("ingest.issues", "ingest.parse_raw", "issues", "count"),
    ("ingest.load_sector_series.s", "ingest.load_sector_series", "total_s", "s"),
    ("training.fit.s", "training.fit", "total_s", "s"),
    ("training.evaluate.s", "training.evaluate", "total_s", "s"),
    ("training.predict_next.calls", "training.predict_next", "calls", "count"),
    ("training.predict_next.ms", "training.predict_next", "per_call_ms", "ms"),
    ("training.grad_check_by_tensor.ms", "training.grad_check_by_tensor", "per_call_ms", "ms"),
    ("gru.forward.calls", "gru.forward", "calls", "count"),
    ("gru.gru_step.calls", "gru.gru_step", "calls", "count"),
    ("gru.forward.us", "gru.forward", "per_call_us", "us"),
    ("model_io.loads_model.ms", "model_io.loads_model", "per_call_ms", "ms"),
    ("model_io.dumps_model.ms", "model_io.dumps_model", "per_call_ms", "ms"),
    ("scheduler.rank_sectors.calls", "scheduler.rank_sectors", "calls", "count"),
    ("simulator.PerSlotPolicy.from_values.ms", "simulator.PerSlotPolicy.from_values",
     "per_call_ms", "ms"),
    ("simulator.simulate.calls", "simulator.simulate", "calls", "count"),
    ("simulator.simulate.ues", "simulator.simulate", "ues", "count"),
    ("simulator.report_csv.s", "simulator.report_csv", "total_s", "s"),
    ("simulator.report_csv.bytes", "simulator.report_csv", "bytes", "bytes"),
    ("simulator.summary_csv.s", "simulator.summary_csv", "total_s", "s"),
    ("simulator.compare.s", "simulator.compare", "total_s", "s"),
)
CLI_STAGES = ("ingest", "train", "eval", "schedule", "gradcheck", "simulate")
# stage throughputs from the untraced passes: (metric, stage)
STAGE_RATES = (
    ("train_steps_per_s", "train"),
    ("gradcheck_models_per_s", "gradcheck"),
    ("sim_ues_per_s", "simulate"),
    ("ingest_lines_per_s", "ingest"),
)
PASS_VALUES = (("heldout_mse_ratio", "ratio"), ("delay_gain_pct", "%"))

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{metric: unit for metric, _, _, unit in LAYER_METRICS},
    "training.fit.ms_per_step": "ms",
    "ingest.parse_raw.us_per_line": "us",
    "simulator.simulate.us_per_ue": "us",
    **{f"cli.{stage}.s": "s" for stage in CLI_STAGES},
    "trace_overhead_pct": "%",
    **{metric: "1/s" for metric, _ in STAGE_RATES},
    **dict(PASS_VALUES),
    "error_rate": "ratio",
}


def summarize(xs) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    xs = sorted(xs)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None}
    q = int(100 * (1 - 10 / len(xs))) if xs else 0
    if q >= 50:
        out[f"p{q}"] = float(np.percentile(xs, q))
    return out


def reference_s() -> float:
    """Seconds this process takes for fixed line-parsing, small-matrix and new-page work."""
    started = time.perf_counter()
    totals = {}
    for line in _REF_LINES:
        a, b, c = line.split("\t")
        totals[b] = totals.get(b, 0.0) + int(a) * float(c)
    h = np.ones((32, 32))
    for _ in range(3_000):
        h = np.tanh(_REF_W @ h + 0.5 * h)
    for _ in range(2):
        fresh = np.ones(4_000_000)  # 32 MB of new pages, as the stages' outputs take
        fresh += h[0, 0]
    return time.perf_counter() - started


class Runner:
    """Runs CLI stages as children of this process, one at a time."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}
        self.last_ref_s = None  # the reference taken after the previous child

    def spawn(self, argv, out_name: str) -> StageRun:
        """Run argv to completion; wall time, machine speed and the child's peak RSS."""
        ref_before = self.last_ref_s or reference_s()
        out_path, err_path = self.work / f"{out_name}.out", self.work / f"{out_name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        self.last_ref_s = reference_s()
        speed = 2.0 * REF_NOMINAL_S / (ref_before + self.last_ref_s)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StageRun(work=self.work, exit_code=proc.returncode, wall_s=wall,
                        maxrss_mb=usage.ru_maxrss / 1024.0, speed=speed,
                        stdout=out_path.read_text(errors="replace"),
                        stderr=err_path.read_text(errors="replace"))

    def check_import(self) -> None:
        """Fail unless children import cdrsweep from this checkout (also a warm-up)."""
        probe = self.spawn(["-c", "import cdrsweep; print(cdrsweep.__file__)"], "setup")
        expected = (self.root / "src" / "cdrsweep" / "__init__.py").resolve()
        if probe.exit_code != 0 or Path(probe.stdout.strip()).resolve() != expected:
            raise SystemExit(f"cannot import cdrsweep from {expected.parent}:\n{probe.stderr}")

    def setup_time(self) -> float:
        """Time of a fresh interpreter that imports cdrsweep and exits (reference speed)."""
        return self.spawn(["-c", "import cdrsweep"], "setup").norm_s

    def run_stage(self, stage, spans: Path | None) -> StageRun:
        peak = self.work / "peak_kb.txt"
        argv = ([str(BENCH_DIR / "tracer.py"), str(spans)] if spans
                else [str(BENCH_DIR / "peak.py"), str(peak)])
        run = self.spawn([*argv, stage.name, *stage.args], stage.name)
        if peak.exists():  # the stage's own peak, not one inherited from this process
            run.maxrss_mb = int(peak.read_text()) / 1024.0
            peak.unlink()
        if run.exit_code != 0:
            run.failure = f"exit code {run.exit_code}: {run.stderr.strip()[-300:]}"
            return run
        try:
            stage.check(run)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            run.failure = f"{type(exc).__name__}: {exc}"
        return run


def read_spans(path: Path, speed: float) -> dict:
    """Per layer: calls, total ns, the per-call durations; plus counters, absent.

    Durations are scaled by the machine speed measured around the stage.
    """
    with np.load(path) as z:
        rows, names = z["rows"], [str(n) for n in z["names"]]
        counters = dict(zip((str(k) for k in z["counter_keys"]), z["counter_values"].tolist()))
        absent = [str(a) for a in z["absent"]]
    durations = np.rint((rows[:, 3] - rows[:, 2]) * speed).astype(np.int64)
    layers = {}
    for nid, name in enumerate(names):
        d = durations[rows[:, 0] == nid]
        layers[name] = {"calls": int(d.size), "total_ns": int(d.sum()), "durations_ns": d}
    return {"layers": layers, "counters": counters, "absent": absent}


def merge_spans(parts: list[dict]) -> dict:
    calls, total, counters, absent, durations = Counter(), Counter(), Counter(), set(), {}
    for part in parts:
        for name, layer in part["layers"].items():
            calls[name] += layer["calls"]
            total[name] += layer["total_ns"]
            durations.setdefault(name, []).append(layer["durations_ns"])
        counters.update(part["counters"])
        absent.update(part["absent"])
    return {"calls": calls, "total_ns": total, "counters": counters, "absent": sorted(absent),
            "durations_ns": {k: np.concatenate(v) for k, v in durations.items()}}


def layer_values(spans: dict, raw_lines: int) -> dict:
    """Per-layer metric values of one traced pass; layers not called read 0."""
    calls, total, counters = spans["calls"], spans["total_ns"], spans["counters"]
    out = {}
    for metric, layer, how, _ in LAYER_METRICS:
        n, ns = calls[layer], total[layer]
        if how == "total_s":
            out[metric] = ns / 1e9
        elif how == "calls":
            out[metric] = n
        elif how == "per_call_ms":
            out[metric] = ns / 1e6 / n if n else 0.0
        elif how == "per_call_us":
            out[metric] = ns / 1e3 / n if n else 0.0
        else:
            out[metric] = counters[f"{layer}.{how}"]
    steps = counters["training.fit.steps"]
    out["training.fit.ms_per_step"] = total["training.fit"] / 1e6 / steps if steps else 0.0
    out["ingest.parse_raw.us_per_line"] = (
        total["ingest.parse_raw"] / 1e3 / raw_lines if calls["ingest.parse_raw"] else 0.0)
    ues = counters["simulator.simulate.ues"]
    out["simulator.simulate.us_per_ue"] = total["simulator.simulate"] / 1e3 / ues if ues else 0.0
    for stage in CLI_STAGES:
        out[f"cli.{stage}.s"] = total[f"cli.{stage}"] / 1e9
    return out


def fingerprint(root: Path) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("version") for k in ("blas", "lapack")}
        blas["blas_name"] = deps.get("blas", {}).get("name")
    except (TypeError, AttributeError):  # numpy without mode="dicts"
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "git_commit": commit or "unknown",
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 size: str = "full") -> dict:
    """Prepare, measure and check one workload; returns the full report."""
    work = root / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load = workloads.WORKLOADS[name](work, seed, workloads.SIZES[name][size])
    runner = Runner(root, work)
    input_hashes = {f: inputs.sha256_file(work / f) for f in load.inputs}

    runner.check_import()
    setup = []

    walls = {s.name: [] for s in load.stages}
    raw_walls = {s.name: [] for s in load.stages}
    speeds = {s.name: [] for s in load.stages}
    traced_walls = {s.name: [] for s in load.stages}
    pass_walls, traced_pass_walls, layer_passes, span_parts = [], [], [], []
    items, values, failures, output_hashes = {}, {}, [], []
    attempted = failed = 0
    peak_rss = 0.0
    deadline = time.perf_counter() + seconds
    n_pass, pass_s = 0, 0.0
    # start a pass only if it should end in time; a traced run needs one of each kind
    while n_pass < 1 + trace or time.perf_counter() + pass_s <= deadline:
        pass_started = time.perf_counter()
        traced = trace and n_pass % 2 == 1
        # spread the set-up probes over the run rather than bunching them
        setup.extend(runner.setup_time() for _ in range(SETUP_PROBES_PER_PASS))
        pass_spans, pass_wall = [], 0.0
        for stage in load.stages:
            spans = work / f"spans_{stage.name}.npz" if traced else None
            run = runner.run_stage(stage, spans)
            attempted += 1
            if run.failure:
                failed += 1
                failures.append({"pass": n_pass, "stage": stage.name, "reason": run.failure})
            pass_wall += run.norm_s
            if traced:
                traced_walls[stage.name].append(run.norm_s)
                if spans.exists():
                    pass_spans.append(read_spans(spans, run.speed))
                    spans.unlink()
                continue
            walls[stage.name].append(run.norm_s)
            raw_walls[stage.name].append(run.wall_s)
            speeds[stage.name].append(run.speed)
            peak_rss = max(peak_rss, run.maxrss_mb)
            items[stage.name] = stage.items if stage.items is not None else run.values.get("items")
            for key, value in run.values.items():
                values.setdefault(key, []).append(value)
        if traced:
            traced_pass_walls.append(pass_wall)
            merged = merge_spans(pass_spans)
            span_parts.extend(pass_spans)
            layer_passes.append(layer_values(merged, load.raw_lines))
        else:
            pass_walls.append(pass_wall)
            # each stage's stdout counts as an output; stderr carries timings
            output_hashes.append({f: inputs.sha256_file(work / f)
                                  for s in load.stages for f in (*s.outputs, f"{s.name}.out")
                                  if (work / f).exists()})
        n_pass += 1
        pass_s = time.perf_counter() - pass_started

    stage_median = {k: statistics.median(v) for k, v in walls.items() if v}
    wall_s = sum(stage_median.values())
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "items_per_s": (items.get(load.primary) or 0) / stage_median[load.primary],
        "peak_rss_mb": peak_rss,
    }

    per_layer = {}
    if trace:
        for metric in layer_passes[0]:
            per_layer[metric] = statistics.median(p[metric] for p in layer_passes)
        per_layer["trace_overhead_pct"] = 100.0 * (
            statistics.median(traced_pass_walls) / statistics.median(pass_walls) - 1)
        for metric, stage in STAGE_RATES:
            per_layer[metric] = ((items[stage] or 0) / stage_median[stage]
                                 if stage in stage_median else 0.0)
        for metric, _ in PASS_VALUES:
            per_layer[metric] = statistics.median(values[metric]) if metric in values else 0.0
        per_layer["error_rate"] = failed / attempted

    all_spans = merge_spans(span_parts) if span_parts else None
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "fingerprint": fingerprint(root),
        "inputs_sha256": input_hashes,
        "outputs_sha256": output_hashes[0] if output_hashes else {},
        "reruns_identical": all(h == output_hashes[0] for h in output_hashes),
        "failures": failures[:20],
        "setup_s": summarize(setup),
        "passes": {"untraced": len(pass_walls), "traced": len(traced_pass_walls)},
        "pass_wall_s": summarize(pass_walls),
        "stage_wall_s": {k: summarize(v) for k, v in walls.items()},
        "stage_unscaled_wall_s": {k: summarize(v) for k, v in raw_walls.items()},
        "machine_speed": {k: summarize(v) for k, v in speeds.items()},
        # every plain pass in order: (time at the reference speed, unscaled, speed)
        "stage_samples": {k: list(zip(walls[k], raw_walls[k], speeds[k])) for k in walls},
        "traced_stage_wall_s": {k: summarize(v) for k, v in traced_walls.items() if v},
        "spans": None if all_spans is None else {
            "absent": all_spans["absent"],
            "counters": dict(all_spans["counters"]),
            "layers_us": {k: summarize((d / 1e3).tolist())
                          for k, d in all_spans["durations_ns"].items() if d.size},
        },
    }


def result_line(report: dict) -> dict:
    metrics, units = ((report["per_layer"], PER_LAYER_UNITS) if report["trace"]
                      else (report["end_to_end"], END_TO_END_UNITS))
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cdrsweep" / "__init__.py").is_file():
        print(f"error: no cdrsweep source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    report_path = root / ".bench_work" / args.workload / "report.json"
    report_path.write_text(json.dumps(report, indent=1, default=float) + "\n")
    for f in report["failures"]:
        print(f"FAILED pass {f['pass']} {f['stage']}: {f['reason']}", file=sys.stderr)
    print(f"report: {report_path}", file=sys.stderr)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
