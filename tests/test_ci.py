"""The CI workflow runs the tier-1 command on the oldest supported Python."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())


def _runs(workflow):
    return [step.get("run", "").strip() for step in workflow["jobs"]["tests"]["steps"]]


def test_runs_on_every_push_and_pull_request(workflow):
    # YAML 1.1 reads the bare key `on` as the boolean True.
    assert {"push", "pull_request"} <= set(workflow[True])


def test_matrix_includes_the_requires_python_floor(workflow):
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M).group(1)
    # An unquoted 3.10 would load as the float 3.1, so compare the text.
    versions = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    assert floor in [str(v) for v in versions]


def test_installs_the_test_extra(workflow):
    assert any(re.search(r"pip install .*\.\[test\]", run) for run in _runs(workflow))


def test_test_extra_lists_pyyaml():
    # Without it this module would skip on the CI runner instead of binding.
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    assert '"pyyaml' in extra


def test_test_step_is_the_tier1_command(workflow):
    assert TIER1 in _runs(workflow)


def test_a_hung_run_times_out(workflow):
    assert workflow["jobs"]["tests"]["timeout-minutes"] == 20
