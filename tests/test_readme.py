"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quickstart (API)"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names = {}
    exec(compile(block, f"{README}:quickstart", "exec"), names)
    est = names["est"]
    assert list(est.reports["effect"]) == ["rho", "tau", "gamma", "beta"]
    assert names["lo"] <= est.reports["effect"]["tau"] <= names["hi"]
