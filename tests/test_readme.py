"""The README's library quick start and command-line block run as written."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

from hcderiv.cli import main

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_quick_start_prints_one_finite_float():
    blocks = _blocks("python")
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert math.isfinite(float(lines[0]))


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    blocks = [b for b in _blocks("sh") if "\nhcderiv " in "\n" + b]
    assert len(blocks) == 1
    commands = [
        shlex.split(line, comments=True)
        for line in blocks[0].replace("\\\n", " ").splitlines()
        if line.startswith("hcderiv ")
    ]
    assert [argv[1] for argv in commands] == ["coeffs", "diff", "cross", "experiment", "radius"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(ROOT / a) if a.startswith("src/") else a for a in argv[1:]]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        outs = [v for flag, v in zip(argv, argv[1:]) if flag.startswith("--out")]
        assert outs and all((tmp_path / out).is_file() for out in outs), argv
