"""Run one cdrsweep CLI stage in this process and record its own peak RSS.

    python3 bench/peak.py PEAK_FILE <cdrsweep subcommand and flags...>

This is `python -m cdrsweep ...` plus one exit hook. The ru_maxrss that
os.wait4 returns for a child keeps the high-water mark of the process it
was spawned from (Linux carries it across exec), so for a stage that needs
less memory than the benchmark itself it reads the benchmark's peak. VmHWM
in /proc/self/status counts only this program image; the hook writes it to
PEAK_FILE, in kB, when the stage exits. The exit code is the stage's own.
"""

from __future__ import annotations

import atexit
import runpy
import sys


def _record(path: str) -> None:
    try:
        with open("/proc/self/status") as fh:
            kb = next((line.split()[1] for line in fh if line.startswith("VmHWM:")), None)
    except OSError:  # no procfs: the caller keeps ru_maxrss
        return
    if kb is not None:
        with open(path, "w") as out:
            out.write(kb + "\n")


if __name__ == "__main__":
    atexit.register(_record, sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    runpy.run_module("cdrsweep", run_name="__main__", alter_sys=True)
