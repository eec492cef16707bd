"""Run one cdrsweep CLI stage in-process with spans around its public layers.

    python3 bench/tracer.py SPANS.npz <cdrsweep subcommand and flags...>

Each function in TRACED is resolved by module-attribute name under the
`cdrsweep` package and replaced by a wrapper that records a span (name,
parent span, start, end) and, for some layers, counts taken from the
result. Names that modules import directly (`cli.parse_raw`,
`simulator.rank_sectors`, ...) are patched too, so calls through them are
seen. A name that no longer exists is listed as absent instead of failing,
so the tracer keeps working while the program is refactored.

Spans are kept in memory and written to SPANS.npz when the stage ends,
together with the layer names, the counters and the absent names. The exit
code is the stage's own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

# (layer, other names bound to the same function, counts taken from the result)
TRACED = (
    ("ingest.parse_raw", ("cli.parse_raw",),
     lambda r: {"records": len(r.records), "issues": len(r.issues)}),
    ("ingest.aggregate", ("cli.aggregate",), None),
    ("ingest.load_sector_series", ("cli.load_sector_series",), None),
    ("training.fit", (), lambda r: {"steps": len(r[2].losses)}),
    ("training.evaluate", (), None),
    ("training.predict_next", (), None),
    ("training.grad_check_by_tensor", (), None),
    ("gru.forward", (), None),
    ("gru.gru_step", (), None),
    ("model_io.loads_model", (), None),
    ("model_io.dumps_model", (), None),
    ("scheduler.rank_sectors", ("simulator.rank_sectors",), None),
    ("simulator.PerSlotPolicy.from_values", (), None),
    ("simulator.simulate", (), lambda r: {"ues": r.n_ues}),
    ("simulator.report_csv", (), lambda r: {"bytes": len(r)}),
    ("simulator.summary_csv", (), None),
    ("simulator.compare", (), None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.rows: list[list[int]] = []  # [name id, parent row or -1, start ns, end ns]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        rows, stack, counters, clock = self.rows, self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [nid, stack[-1], clock(), 0]
            stack.append(len(rows))
            rows.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    counters[f"{name}.{key}"] += value
            return result
        return traced

    def save(self, path, exit_code: int) -> None:
        keys = sorted(self.counters)
        np.savez(path, rows=np.array(self.rows, dtype=np.int64).reshape(-1, 4),
                 names=np.array(self.names), counter_keys=np.array(keys, dtype=str),
                 counter_values=np.array([self.counters[k] for k in keys], dtype=np.int64),
                 absent=np.array(self.absent, dtype=str), exit_code=np.int64(exit_code))


def _resolve(dotted: str):
    """(owner, attribute, static value) for `module.attr[.attr...]`, or None."""
    module, *attrs = dotted.split(".")
    try:
        owner = importlib.import_module(f"cdrsweep.{module}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    try:
        return owner, attrs[-1], inspect.getattr_static(owner, attrs[-1])
    except AttributeError:
        return None


def install(tracer: Tracer) -> None:
    for name, aliases, count in TRACED:
        found = _resolve(name)
        if found is None or not callable(getattr(found[0], found[1])):
            tracer.absent.append(name)
            continue
        owner, attr, static = found
        if isinstance(static, (classmethod, staticmethod)):
            setattr(owner, attr, type(static)(tracer.wrap(name, static.__func__, count)))
            continue
        wrapped = tracer.wrap(name, static, count)
        setattr(owner, attr, wrapped)
        for alias in aliases:
            bound = _resolve(alias)
            if bound is not None and bound[2] is static:
                setattr(bound[0], bound[1], wrapped)
            else:
                tracer.absent.append(alias)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from cdrsweep import cli

    tracer = Tracer()
    install(tracer)
    exit_code = tracer.wrap(f"cli.{cli_args[0]}", cli.main)(cli_args)
    tracer.save(spans_path, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
