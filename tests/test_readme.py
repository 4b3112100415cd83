"""The python examples of README.md and PAPER.md run as written: each
file's blocks in order, in one namespace.  The README's config file loads
as written."""

import dataclasses
import re
from pathlib import Path

from expmart.config import RunConfig, load_ini

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


def test_readme_config_block_is_the_default_config(tmp_path):
    # the documented INI loads as written, to the defaults, and names each
    # field's key exactly once
    [block] = re.findall(r"^```ini\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    ini = tmp_path / "run.ini"
    ini.write_text(block)
    assert load_ini(str(ini)) == RunConfig()
    keys, section = [], None
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = header[1]
        elif key := re.match(r"(\w+) =", line):
            keys.append((section, key[1]))
    fields = [f.metadata["ini"][:2] for f in dataclasses.fields(RunConfig)]
    assert sorted(keys) == sorted(fields)
