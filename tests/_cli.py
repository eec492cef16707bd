"""Run the `cdrsweep` command line in a subprocess, for the CLI-level tests.

The child runs from a test's tmp directory, where a relative PYTHONPATH
(such as `PYTHONPATH=src`) no longer points at the package. So the child
gets an absolute PYTHONPATH that starts with the directory holding the
`cdrsweep` package this test process imported, and runs the same code,
whether that comes from `src/` or from an installed copy. The child
writes no bytecode, as the test process does not (see conftest.py).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cdrsweep

PACKAGE_PARENT = str(Path(cdrsweep.__file__).resolve().parent.parent)

# python -m cdrsweep ARGS..., then the names in sys.modules written to a file
_LOADED = """\
import atexit, json, runpy, sys
out, sys.argv = sys.argv[1], ["cdrsweep", *sys.argv[2:]]
atexit.register(lambda: open(out, "w").write(json.dumps(sorted(sys.modules))))
runpy.run_module("cdrsweep", run_name="__main__", alter_sys=True)
"""


def run_python(argv, cwd):
    """python ARGV... in cwd, with the package of this test process on its path."""
    rest = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": PACKAGE_PARENT + (os.pathsep + rest if rest else "")}
    return subprocess.run([sys.executable, *[str(a) for a in argv]],
                          capture_output=True, text=True, cwd=str(cwd), env=env)


def run_cli(args, cwd):
    return run_python(["-m", "cdrsweep", *args], cwd)


def loaded_modules(args, cwd):
    """(the finished run, the modules loaded when it exits) of `python -m cdrsweep args`."""
    out = Path(cwd) / "modules.json"
    proc = run_python(["-c", _LOADED, out, *args], cwd)
    return proc, set(json.loads(out.read_text()))


def loaded_by_import(cwd):
    """The modules a fresh interpreter holds after `import cdrsweep`."""
    proc = run_python(
        ["-c", "import json, sys, cdrsweep; print(json.dumps(sorted(sys.modules)))"], cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))
