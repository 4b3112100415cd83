"""The python examples of README.md and PAPER.md run as written: each
file's blocks in order, in one namespace."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_python_blocks(path: Path) -> None:
    blocks = re.findall(r"^```python\n(.*?)^```", path.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(path), "exec"), namespace)


def test_readme_python_blocks_run():
    _run_python_blocks(ROOT / "README.md")


def test_paper_python_blocks_run():
    _run_python_blocks(ROOT / "PAPER.md")
