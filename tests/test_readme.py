"""The README's code example runs against the current package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    index, quadrant, axis, value = printed
    assert int(index) > 0
    assert quadrant in ("UP", "DOWN", "LEFT", "RIGHT")
    assert axis.startswith("Axis.")
    assert abs(float(value)) == 0.6
