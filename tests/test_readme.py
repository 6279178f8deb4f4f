"""The README's library quick start runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_quick_start_prints_one_finite_float():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert math.isfinite(float(lines[0]))
