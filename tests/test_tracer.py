"""The benchmark tracer finds every layer it names in the package.

bench/tracer.py lists a name it cannot resolve as absent rather than
failing, so a refactor that drops a traced name would otherwise show only
in the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

from _cli import run_python

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_and_alias_resolves():
    tracer = _load_tracer()
    absent = []
    # the check install makes before it patches a name and its aliases
    for name, aliases, _ in tracer.TRACED:
        found = tracer._resolve(name)
        if found is None or not callable(getattr(found[0], found[1])):
            absent.append(name)
            continue
        for alias in aliases:
            bound = tracer._resolve(alias)
            if bound is None or bound[2] is not found[2]:
                absent.append(alias)
    assert absent == []


def test_a_fresh_process_finds_every_traced_name_and_alias(tmp_path):
    # as the tracer runs: only what `cli` imports is loaded before install,
    # so an alias is bound only if its module imports before the name is wrapped
    proc = run_python(["-c", "import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
                       "from cdrsweep import cli; t = tracer.Tracer(); tracer.install(t); "
                       "print(t.absent)", TRACER.parent], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
