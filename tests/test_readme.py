"""The Python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}  # later blocks build on the names of earlier ones
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README}:python-block-{k}", "exec"), namespace)
