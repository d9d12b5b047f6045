"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_every_python_block_of_the_readme_runs():
    blocks = python_blocks()
    assert blocks  # the quick start at least
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
