"""The README's fenced python blocks run as written, so the documented
API stays working."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    assert BLOCKS
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
