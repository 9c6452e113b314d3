"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert blocks, "README.md has no python examples"
    # one namespace, in order: later examples use names of earlier ones
    namespace = {"__name__": "readme"}
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k}", "exec"), namespace)
