"""The README's library example stays importable as the package changes."""

import ast
import re
from pathlib import Path

import cdrsweep

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_imports_exported_names():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = [alias.name for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "cdrsweep"
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(cdrsweep, n)] == []
