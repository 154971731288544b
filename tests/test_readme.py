"""README's Library example runs as written.

The README holds one fenced python block.  It is executed in process, so
a renamed public name or a changed signature fails the suite, not only
a reader who copies the example.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
