"""README.md's python blocks run, in order, in one namespace: a stale API
in them fails here."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order():
    assert BLOCKS
    namespace = {}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
