"""The README's code example runs against the current package, and its
CSV column lines match the package and the benchmark's checks."""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402

from clgmd import cli, flightsim  # noqa: E402


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


def _readme_columns(command):
    section = README.read_text().split(f"### `clgmd {command}", 1)[1]
    return re.search(r"```\n(.*?)\n```", section).group(1).split(",")


def test_csv_columns_are_one_schema():
    assert flightsim.TRACE_COLUMNS == flightsim.TrialRecord._fields
    trace = list(flightsim.TRACE_COLUMNS)
    assert trace == checks.TRACE_COLUMNS == _readme_columns("simulate")
    detect = list(cli.DETECT_COLUMNS)
    assert detect == checks.DETECT_COLUMNS == _readme_columns("detect")
