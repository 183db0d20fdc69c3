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


def test_installed_console_script_runs_each_command(workflow, tmp_path, monkeypatch, capsys):
    # The step runs the `clgmd` script that pip installs from
    # [project.scripts]; here each line runs in-process through the same
    # entry point, with $RUNNER_TEMP a temporary directory.
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^clgmd = "clgmd\.cli:entrypoint"$', pyproject, re.M)
    runs = _runs(workflow)
    install = next(i for i, run in enumerate(runs) if re.search(r"pip install .*\.\[test\]", run))
    [script] = [i for i, run in enumerate(runs) if run.startswith("clgmd ")]
    assert install < script < runs.index(TIER1)
    monkeypatch.setenv("RUNNER_TEMP", str(tmp_path))
    lines = [shlex.split(os.path.expandvars(line)) for line in runs[script].splitlines()]
    assert [argv[:2] for argv in lines] == [
        ["clgmd", "generate"], ["clgmd", "detect"], ["clgmd", "simulate"],
        ["clgmd", "simulate"], ["clgmd", "generate"], ["clgmd", "generate"], ["clgmd", "detect"],
        ["clgmd", "simulate"], ["clgmd", "generate"], ["clgmd", "detect"],
        ["clgmd", "generate"], ["clgmd", "detect"], ["clgmd", "generate"], ["clgmd", "detect"],
        ["clgmd", "detect"], ["clgmd", "detect"], ["clgmd", "simulate"],
    ]
    assert "--frames" in lines[0] and "max_duration=0.5" in lines[2]
    assert lines[1][2] == lines[0][2]  # detect reads the generated sequence
    # A full default trial whose obstacle passes beside and then behind the
    # camera, so the render takes windows astride and behind its plane.
    assert "placement=up" in lines[3] and not any("max_duration" in a for a in lines[3])
    # A receding sequence: the sphere is farthest at its last frame.
    assert "--frames" in lines[4] and "--speed=-1.2" in lines[4]
    # A noisy 320x240 sequence, whose float64 render image is past glibc's
    # 128 KiB mmap threshold, read back through the delayed-inhibition path,
    # which spreads the previous P while I and S share the scratch grid.
    assert lines[5][2:] == [lines[6][2], "--frames", "4", "--width", "320", "--height", "240",
                            "--noise", "5"]
    assert lines[6][3:5] == ["--set", "inhibition_delay=1"]
    # A noisy closed loop, the only kind of trial the benchmark runs.
    assert lines[7][2:8] == ["--set", "noise_amplitude=5", "--set", "noise_seed=1",
                             "--set", "max_duration=0.5"]
    # A noisy sequence of a sphere 0.5 m ahead: every window is the full
    # grid, and its rays past the silhouette take a NaN root, which must
    # raise no warning on any numpy the matrix installs.
    assert lines[8][2:] == [lines[9][2], "--frames", "3", "--distance", "0.5", "--noise", "5"]
    assert lines[9][3:] == ["--out", f"{tmp_path}/close.csv"]
    # A noisy sequence at the smallest legal frame, read back through the
    # delayed-inhibition path: the inhibition's flat runs start and end at
    # the first and last cells of its padded buffers.
    assert lines[10][2:] == [lines[11][2], "--frames", "3", "--width", "5", "--height", "5",
                             "--noise", "5"]
    assert lines[11][3:] == ["--set", "inhibition_delay=1", "--out", f"{tmp_path}/tiny.csv"]
    # A noisy 37x23 sequence from the left, read back with delay 0: an odd
    # size whose quadrant mask splits unevenly.
    assert lines[12][2:] == [lines[13][2], "--frames", "3", "--width", "37", "--height", "23",
                             "--noise", "5", "--direction", "left"]
    assert lines[13][3:] == ["--set", "inhibition_delay=0", "--out", f"{tmp_path}/odd.csv"]
    # The same sequence with t_de=0: no cell of G decays, so every cell is
    # a candidate and each frame re-zeroes and rewrites the whole G grid.
    assert lines[14][2:] == [lines[12][2], "--set", "t_de=0", "--out", f"{tmp_path}/dense.csv"]
    # The same sequence again, delayed: each frame's P is spread by the next
    # call at an odd size, and the scratch grid that holds I and then S is
    # written on every cell, none of which G decays.
    assert lines[15][2:] == [lines[12][2], "--set", "inhibition_delay=1", "--set", "t_de=0",
                             "--out", f"{tmp_path}/odd-delayed.csv"]
    # A centred trial with spiking disabled flies straight on until
    # check_collision ends it, as the benchmark's fifth closed-loop job does.
    assert lines[16][2:] == ["--set", "placement=centered", "--set", "t_s=256",
                             "--out", f"{tmp_path}/collide.csv"]
    # PYTHONWARNINGS=error makes any warning from the run fail the step.
    assert workflow["jobs"]["tests"]["steps"][script]["env"] == {"PYTHONWARNINGS": "error"}
    for argv in lines:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv[1:]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OUTCOME=COLLIDED"
    with open(tmp_path / "collide.csv") as trace:
        assert sum(1 for _ in trace) == 1 + 180


HOSTILE = [
    'code=0; clgmd simulate --set c1=1e400 --out "$RUNNER_TEMP/c1.csv" || code=$?; test $code = 1',
    'code=0; clgmd generate "$RUNNER_TEMP/wide" --width "1$(printf \'%04999d\' 0)" || code=$?; '
    "test $code = 1",
    'code=0; clgmd simulate --set "$(printf \'%05000d\' 0)=1" --out "$RUNNER_TEMP/key.csv" '
    "|| code=$?; test $code = 1",
    'code=0; clgmd generate "$RUNNER_TEMP/way" --direction "$(printf \'%05000d\' 0)" '
    "|| code=$?; test $code = 1",
    'mkdir "$RUNNER_TEMP/stray" && touch "$RUNNER_TEMP/stray/frame_1.pgm"',
    'code=0; clgmd generate "$RUNNER_TEMP/stray" --frames 2 || code=$?; test $code = 3',
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
    # Nothing written: no trace, no sequence, and only the stray file.
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["frame_1.pgm", "stray"]
