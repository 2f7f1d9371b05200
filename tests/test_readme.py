"""The README's Python examples run as written.

Every ```` ```python ```` block of ``README.md`` is executed in order in
one namespace, as a reader pasting them into one session would, so a
later block may use the names an earlier one defined.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_python_blocks_run_in_order(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 4
    namespace: dict[str, object] = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"),
             namespace)
    # the Bertrand example prints its verdict
    assert capsys.readouterr().out.splitlines()[-1] == "True circular-helix"
