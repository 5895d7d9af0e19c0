"""The documented examples: module docstrings and the README's Library block."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import convfib
from convfib import Series

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = [name for _, name, _ in pkgutil.iter_modules(convfib.__path__) if name != "__main__"]


def test_docstring_examples():
    results = {name: doctest.testmod(importlib.import_module(f"convfib.{name}")) for name in MODULES}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) > 0


def shown(value: object) -> str:
    """A value as the README writes it: a series as its coefficient list."""
    if isinstance(value, Series):
        return ", ".join(str(c) for c in value.coefficients)
    return str(value)


def test_readme_library_block_states_true_values():
    """Each ``expression  # value`` line of the block states what the
    expression gives; a ``: ...`` or `` == ...`` after the value is a gloss.
    The block's own statements, its assert included, run as written."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment or "=" in code:
            continue
        stated = re.split(r": | == ", comment.strip(), maxsplit=1)[0]
        assert shown(eval(code, namespace)) == stated, line
        checked += 1
    assert checked == 5
