"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Run from the root of a source checkout. Each workload must run and pass its
output checks; a deliberately corrupted output must be counted as failed;
the metric names and units must be the ones BENCHMARK.json declares; and
the benchmark must refuse to run where there is no program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run
import workloads

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# one output per workload and a way to break it after the stage wrote it
CORRUPT = {
    "forecast": ("schedule", "schedule.csv", lambda text: text[:text.rstrip("\n").rfind("\n") + 1]),
    "sweep": ("simulate", "sim_report.csv", lambda text: text[:text.rstrip("\n").rfind("\n") + 1]),
    "ingest": ("ingest", "series.csv", lambda text: text.rstrip("\n") + "1\n"),
}


def _declared(group: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[group]}


def test_metric_names_match_benchmark_json():
    assert run.END_TO_END_UNITS == _declared("end_to_end")
    assert run.PER_LAYER_UNITS == _declared("per_layer")
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_each_workload_passes_its_checks_traced():
    for name in workloads.WORKLOADS:
        report = run.run_workload(name, seed=3, seconds=0, trace=True, root=ROOT, size="tiny")
        assert report["correct"] and report["failed"] == 0, report["failures"]
        assert report["passes"] == {"untraced": 1, "traced": 1}
        assert report["spans"]["absent"] == []
        line = run.result_line(report)
        assert set(line["metrics"]) == set(_declared("per_layer"))
        assert line["metrics"]["error_rate"]["value"] == 0
        report["trace"] = False
        line = run.result_line(report)
        assert set(line["metrics"]) == set(_declared("end_to_end"))
        assert all(m["value"] > 0 for m in line["metrics"].values()), line


def test_corrupted_output_flips_error_rate():
    real_spawn = run.Runner.spawn
    for name, (stage, output, corrupt) in CORRUPT.items():
        def spawn(self, argv, out_name, stage=stage, output=output, corrupt=corrupt):
            result = real_spawn(self, argv, out_name)
            if out_name == stage:
                path = self.work / output
                path.write_text(corrupt(path.read_text()))
            return result

        run.Runner.spawn = spawn
        try:
            report = run.run_workload(name, seed=3, seconds=0, trace=True, root=ROOT,
                                      size="tiny")
        finally:
            run.Runner.spawn = real_spawn
        assert not report["correct"], name
        assert report["failed"] == report["passes"]["untraced"] + report["passes"]["traced"]
        assert report["per_layer"]["error_rate"] > 0
        assert all(f["stage"] == stage for f in report["failures"])


def test_refuses_to_run_without_program_source():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "ingest", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


if __name__ == "__main__":
    for test in (test_metric_names_match_benchmark_json,
                 test_each_workload_passes_its_checks_traced,
                 test_corrupted_output_flips_error_rate,
                 test_refuses_to_run_without_program_source):
        test()
        print(f"{test.__name__}: ok")
