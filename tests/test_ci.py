"""The CI workflow runs the installed console script, and the tier-1 command
on the oldest supported Python."""

import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy
import pytest

import pinned
from clgmd.cli import main

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
VERSIONS = 'python -c "import sys, numpy; print(sys.version.split()[0], numpy.__version__)"'


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


def test_a_leg_pins_the_declared_numpy_floor(workflow):
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^    "numpy>=([\d.]+)",$', pyproject, re.M).group(1)
    python = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M).group(1)
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
    assert matrix["numpy"] == ["newest"]
    legs = [{key: str(value) for key, value in leg.items()} for leg in matrix["include"]]
    assert {"python-version": python, "numpy": f"{floor}.*"} in legs
    # The pin replaces the numpy the test extra resolved, ahead of the tests.
    runs = _runs(workflow)
    install = next(i for i, run in enumerate(runs) if re.search(r"pip install .*\.\[test\]", run))
    pin = runs.index('pip install "numpy==${{ matrix.numpy }}"')
    assert install < pin < runs.index(TIER1)
    assert workflow["jobs"]["tests"]["steps"][pin]["if"] == "matrix.numpy != 'newest'"


def test_installs_the_test_extra(workflow):
    assert any(re.search(r"pip install .*\.\[test\]", run) for run in _runs(workflow))


def test_test_extra_lists_pyyaml():
    # Without it this module would skip on the CI runner instead of binding.
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    assert '"pyyaml' in extra


def test_test_step_is_the_tier1_command(workflow):
    assert TIER1 in _runs(workflow)


def test_versions_are_printed_before_the_tests(workflow):
    # Each leg's log records the numpy it installed, ahead of the tests.
    runs = _runs(workflow)
    install = next(i for i, run in enumerate(runs) if re.search(r"pip install .*\.\[test\]", run))
    assert install < runs.index(VERSIONS) < runs.index(TIER1)
    argv = shlex.split(VERSIONS)
    printed = subprocess.run(
        [sys.executable, *argv[1:]], capture_output=True, text=True, check=True
    ).stdout
    assert printed == f"{sys.version.split()[0]} {numpy.__version__}\n"


def test_a_hung_run_times_out(workflow):
    assert workflow["jobs"]["tests"]["timeout-minutes"] == 20


def test_installed_console_script_runs_each_command(workflow):
    # The step runs the `clgmd` script from [project.scripts] under
    # PYTHONWARNINGS=error; the cases below run its lines through pinned.py.
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^clgmd = "clgmd\.cli:entrypoint"$', pyproject, re.M)
    runs = _runs(workflow)
    install = next(i for i, run in enumerate(runs) if re.search(r"pip install .*\.\[test\]", run))
    [script] = [i for i, run in enumerate(runs) if run.startswith("clgmd ")]
    assert install < script < runs.index(TIER1)
    assert runs[script].splitlines() == pinned.ci_lines()
    assert workflow["jobs"]["tests"]["steps"][script]["env"] == {"PYTHONWARNINGS": "error"}


# Every output the step writes, and any pin that no line writes any more.
OUTPUTS = sorted(pinned.CI.keys() | pinned.PINS.keys() - pinned.GOLDEN.keys())


@pytest.mark.parametrize("name", OUTPUTS)
def test_console_script_output_is_pinned(name, tmp_path):
    pinned.check(name, tmp_path)


HOSTILE = [
    'code=0; clgmd simulate --set c1=1e400 --out "$RUNNER_TEMP/c1.csv" || code=$?; test $code = 1',
    'code=0; clgmd simulate --set c_de=0.5 --out "$RUNNER_TEMP/c_de.csv" || code=$?; '
    "test $code = 1",
    'code=0; clgmd simulate --set delta_c=0 --out "$RUNNER_TEMP/delta_c.csv" || code=$?; '
    "test $code = 1",
    'code=0; clgmd generate "$RUNNER_TEMP/wide" --width "1$(printf \'%04999d\' 0)" || code=$?; '
    "test $code = 1",
    'code=0; clgmd simulate --set "$(printf \'%05000d\' 0)=1" --out "$RUNNER_TEMP/key.csv" '
    "|| code=$?; test $code = 1",
    'code=0; clgmd generate "$RUNNER_TEMP/way" --direction "$(printf \'%05000d\' 0)" '
    "|| code=$?; test $code = 1",
    'mkdir "$RUNNER_TEMP/stray" && touch "$RUNNER_TEMP/stray/frame_1.pgm"',
    'code=0; clgmd generate "$RUNNER_TEMP/stray" --frames 2 || code=$?; test $code = 3',
    'mkdir "$RUNNER_TEMP/deep" && '
    'printf \'P5\\n5 5\\n65535\\n%050d\' 0 > "$RUNNER_TEMP/deep/frame_000000.pgm"',
    'code=0; clgmd detect "$RUNNER_TEMP/deep" --out "$RUNNER_TEMP/deep.csv" || code=$?; '
    "test $code = 3",
]


def test_hostile_input_exits_with_its_code_on_every_leg(workflow, tmp_path, capsys):
    # A second console-script step, under PYTHONWARNINGS=error, asserts the
    # exit code of each hostile line in bash; here each runs in-process.
    runs = _runs(workflow)
    [step] = [i for i, run in enumerate(runs) if run.startswith("code=0; clgmd ")]
    console = next(i for i, run in enumerate(runs) if run.startswith("clgmd "))
    assert console < step < runs.index(VERSIONS)
    assert workflow["jobs"]["tests"]["steps"][step]["env"] == {"PYTHONWARNINGS": "error"}
    assert runs[step].splitlines() == HOSTILE
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path)}
    for line in HOSTILE:
        match = re.fullmatch(r"code=0; (clgmd .*) \|\| code=\$\?; test \$code = (\d)", line)
        if match is None:  # set-up, run as the runner would
            subprocess.run(["bash", "-c", line], env=env, check=True)
            continue
        # bash makes the words, expanding $RUNNER_TEMP and the 5,000 digits.
        words = subprocess.run(
            ["bash", "-c", f'set -- {match[1]}; printf "%s\\0" "$@"'],
            env=env, capture_output=True, check=True,
        ).stdout.decode().split("\0")[:-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(words[1:]) == int(match[2]), words[:3]
        captured = capsys.readouterr()
        assert not captured.out and captured.err.count("\n") == 1
        assert len(captured.err.replace(str(tmp_path), "$RUNNER_TEMP").encode()) <= 120
    # Nothing written: no trace, no sequence, no CSV, only the set-up files.
    written = sorted(path.name for path in tmp_path.rglob("*"))
    assert written == ["deep", "frame_000000.pgm", "frame_1.pgm", "stray"]
