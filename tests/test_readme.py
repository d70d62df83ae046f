"""The Python examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    # later blocks use names the earlier ones define, as a reader would
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
