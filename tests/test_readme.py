"""The README's library quick start runs and prints what its comments say."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_with_its_commented_values():
    code = quick_start()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert re.search(r"^paths = .*# 27 paths$", code, re.M)
    assert re.search(r"^deg = .*# -1$", code, re.M)
    assert len(namespace["paths"]) == 27
    assert namespace["deg"] == -1
