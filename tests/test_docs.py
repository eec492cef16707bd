"""The README's library example runs, and its numbers match the package's."""

import ast
import re
from pathlib import Path

import cdrsweep
from cdrsweep import ingest, simulator

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_imports_exported_names():
    names = [alias.name for node in ast.walk(ast.parse(_library_example()))
             if isinstance(node, ast.ImportFrom) and node.module == "cdrsweep"
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(cdrsweep, n)] == []


def test_readme_library_example_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split()
    # the held-out and persistence MSE, then the simulated mean delay
    assert len(printed) == 3 and all(float(v) > 0 for v in printed)
    assert not list(tmp_path.iterdir())


def test_readme_states_the_ingest_limits_the_code_defines():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for phrase in (f"sends every line to the per-line parser, {ingest._BATCH_LINES:,} lines "
                   "at a time",
                   f"parses at most {ingest._BATCH_CHARS // 1024} Ki characters",
                   f"keeps the first {ingest._MAX_ISSUES:,} `ParseIssue`s",
                   f"is written {ingest._WRITE_ROWS:,} rows at a time"):
        assert phrase in text


def test_readme_states_the_ue_cap_the_code_defines():
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"`MAX_UES` = {simulator.MAX_UES:,} (2^{simulator.MAX_UES.bit_length() - 1})" in text
