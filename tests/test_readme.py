"""The README's examples run: every ``python`` block, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    # a later block may use the names an earlier one defined, as a reader would
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
