"""Run the `cdrsweep` command line in a subprocess, for the CLI-level tests.

The child runs from a test's tmp directory, where a relative PYTHONPATH
(such as `PYTHONPATH=src`) no longer points at the package. So the child
gets an absolute PYTHONPATH that starts with the directory holding the
`cdrsweep` package this test process imported, and runs the same code,
whether that comes from `src/` or from an installed copy. The child
writes no bytecode, as the test process does not (see conftest.py).
"""

import os
import subprocess
import sys
from pathlib import Path

import cdrsweep

PACKAGE_PARENT = str(Path(cdrsweep.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    rest = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": PACKAGE_PARENT + (os.pathsep + rest if rest else "")}
    return subprocess.run(
        [sys.executable, "-m", "cdrsweep", *[str(a) for a in args]],
        capture_output=True, text=True, cwd=str(cwd), env=env)
