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
from clgmd.competition import CLgmdPotentials  # noqa: E402
from clgmd.detector import DetectionResult  # noqa: E402


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
    # A detection's cells fill the same named columns in both tables.
    potentials = CLgmdPotentials(k_f0=9.0, kappa=1.5, u=2.5, d=3.5, l=4.5, r=5.5)
    result = DetectionResult(3, potentials, spike=True, confirmed=False)
    named = {"kappa": 1.5, "u": 2.5, "d": 3.5, "l": 4.5, "r": 5.5}
    named.update(spike=1, confirmed=0)
    for columns in (detect[1:8], trace[8:15]):
        assert dict(zip(columns, result.cells(), strict=True)) == named
    assert [type(cell) for cell in result.cells()[5:]] == [int, int]
