"""The README's library quick start runs as written, so a deletion that
the README still names fails the suite."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert '"schema": "v1"' in capsys.readouterr().out
