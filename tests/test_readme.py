"""The Python examples and the CLI lines of README.md run as written."""

import re
import shlex
from pathlib import Path

import pytest

from lindosc import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace = {}  # later blocks build on the names of earlier ones
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README}:python-block-{k}", "exec"), namespace)


def _cli_lines():
    """Every ``lindosc ...`` line of the sh blocks, continuations joined."""
    text = re.sub(r"\\\n\s*", " ", "\n".join(_blocks("sh")))
    return [line for line in text.splitlines() if line.startswith("lindosc ")]


@pytest.mark.filterwarnings("ignore:thermal_fluctuation_time")
@pytest.mark.parametrize("line", _cli_lines())
def test_sh_block_cli_lines_exit_zero(line, tmp_path, monkeypatch, capsys):
    argv = [str(ROOT / a) if a.startswith("configs/") else a for a in shlex.split(line)[1:]]
    monkeypatch.chdir(tmp_path)  # --out files land here
    assert cli.main(argv) == 0, capsys.readouterr().err
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file()
