"""The README's "Library quick start" block runs as written, so a change to
the public API cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    return code


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start(), f"{README} (Library quick start)", "exec"), {})
    *_, certificate = capsys.readouterr().out.split()
    assert certificate == "True"
