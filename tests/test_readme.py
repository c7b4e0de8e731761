"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from logidp.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
PYTHON_BLOCKS = [code for lang, code in BLOCKS if lang == "python"]
CLI_LINES = [
    line for lang, code in BLOCKS if not lang
    for line in code.splitlines() if line.startswith("logidp ")
]
# The sweep block writes the sweep.json that the CLI block's commands read.
SWEEP_BLOCK = next(code for code in PYTHON_BLOCKS if "sweep.json" in code)


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(code, tmp_path, monkeypatch):
    # each block stands alone: fresh namespace, empty working directory
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


def test_examples_present():
    assert len(PYTHON_BLOCKS) >= 3
    commands = {shlex.split(line)[1] for line in CLI_LINES}
    assert commands == {"sample", "sensitivity", "protect", "attack", "sweep", "report"}


@pytest.mark.parametrize("line", CLI_LINES, ids=[shlex.split(line)[1] for line in CLI_LINES])
def test_cli_line_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


def test_cli_block_runs_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(SWEEP_BLOCK, "README.md", "exec"), {"__name__": "readme"})
    for line in CLI_LINES:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = argv[argv.index("--out") + 1]
        assert list(tmp_path.glob(out + "*")), f"{line} wrote no {out}"
