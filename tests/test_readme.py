"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names = {}
    exec(compile(block, "README.md (## Library)", "exec"), names)
    ci = names["ci"]
    assert ci.lower < ci.estimate < ci.upper
