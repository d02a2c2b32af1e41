"""The README's Python examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, README, "exec"), {"__name__": "readme"})
    capsys.readouterr()
