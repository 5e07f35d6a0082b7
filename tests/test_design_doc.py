"""DESIGN.md's equation table must cite functions that exist."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"
CELL = re.compile(r"`(\w+)\.py::([\w.]+)`")


def _equation_table() -> str:
    text = DESIGN.read_text(encoding="utf-8")
    start = text.index("## 5. Key equations implemented")
    return text[start : text.index("\n## 6.", start)]


def test_equation_table_cites_real_functions():
    cells = CELL.findall(_equation_table())
    assert len(cells) >= 10, cells
    missing = []
    for module_name, path in cells:
        target = importlib.import_module(f"repro.core.{module_name}")
        for attr in path.split("."):
            target = getattr(target, attr, None)
            if target is None:
                missing.append(f"{module_name}.py::{path}")
                break
    assert not missing, f"DESIGN.md section 5 cites missing functions: {missing}"
