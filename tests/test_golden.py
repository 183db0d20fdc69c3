"""Seed-0 outputs of every benchmark workload equal the stored reference,
and fifteen CLI runs write byte-identical CSVs.

The benchmark check uses the benchmark's own inputs, commands and
comparison (``bench/run.py`` ``prepare``, ``check`` and
``bench/reference/*.json.gz``): discrete columns and outcomes exactly, float
columns within 1e-6.  The byte check pins every written digit by sha256.  A
change that drifts the numerics fails here, without a benchmark run.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402

cli = run.load_clgmd()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed0_outputs_match_reference(name, tmp_path):
    workload = run.WORKLOADS[name]
    reference = run.load_reference(workload)
    assert reference["seed"] == run.REFERENCE_SEED
    jobs = run.prepare(workload, run.REFERENCE_SEED, tmp_path / "inputs")
    assert sorted(job.name for job in jobs) == sorted(reference["outputs"])
    for job in jobs:
        code, _, stdout = run.call_main(job.argv)
        assert run.check(job, workload, code, stdout, reference) == [], job.name


# sha256 of the CSV each CLI run writes.  Detection runs on
# `generate --direction D --seed 0 --noise 5 --frames 120`, at 100x100 with
# the defaults and at 320x240 with `--set inhibition_delay=1`; a simulation
# is `simulate` with the settings in SIMULATE_SETTINGS.  Only the two
# moving-obstacle runs see the obstacle's time base.
QVGA_DETECTIONS = "fc2d4258ee31eb1ac326c36a1bf20c087e8fcee82cbd66663268e91a448e88f9"
GOLDEN_SHA256 = {
    "detect-100-up": "ec78db0501c5b132163934c24d97f92b5d9aa38901ae4850420d592db65078de",
    "detect-100-down": "9a06f956ccc0312221073fb6112c031a33d060fb2830899c6bc2d65eecf49be2",
    "detect-100-left": "f48468379027c6bcefcc2bc2025aa2b6a3106f07930d6cb17d52e676211bebe0",
    "detect-100-right": "a5d295a1542b9b71a2dfc22b02907d368203d202b9b3a255bcb14bd9d82116c8",
    "detect-qvga-up": QVGA_DETECTIONS,
    "detect-qvga-down": QVGA_DETECTIONS,
    "detect-qvga-left": QVGA_DETECTIONS,
    "detect-qvga-right": QVGA_DETECTIONS,
    "simulate-left": "96cb6fe0e7f9d5d3a1c2e61643019fa8084a4fdbe52ef61acd0386a9aaf039f6",
    "simulate-right": "bafcf296e4ff759ef77ed4e3f3702549b8f0f7afde332334402f4195ad8c5fdf",
    "simulate-up": "c97b94ef92d1002db230527d208a12c80adfc6cc37ff8eaa52c0493ba2311fc8",
    "simulate-down": "5e88cd020591702e39395bc7dffeaa82182200a63f49bb45351284c59d765b17",
    "simulate-centered": "58c13ea1f0146b48df1d434cb5d11a1f65347a6b1f399665aeaa288a907a457d",
    "simulate-moving-vx": "c6a120a7751681aa2484fe6455fd849d1629d22de106811777c0146506018565",
    "simulate-moving-vz-down-noise": (
        "c95e06ea8a422fdeaf4ef5f6ce83f1ca600af9aadda72948b32b99e768132a16"
    ),
}
SIMULATE_SETTINGS = {
    **{p: [f"placement={p}"] for p in ("left", "right", "up", "down")},
    "centered": ["placement=centered", "t_s=256"],  # spiking disabled
    "moving-vx": ["obstacle_vx=-1.0"],
    "moving-vz-down-noise": ["obstacle_vz=0.37", "placement=down", "noise_amplitude=5"],
}
GOLDEN_OUTCOME = {"centered": "COLLIDED"}


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_cli_output_is_byte_identical(case, tmp_path, capsys):
    command, _, name = case.partition("-")
    out = tmp_path / "out.csv"
    if command == "detect":
        size, direction = name.split("-")
        frames = tmp_path / "frames"
        generate = ["generate", str(frames), "--direction", direction, "--seed", "0"]
        generate += ["--noise", "5", "--frames", "120"]
        detect = ["detect", str(frames), "--out", str(out)]
        if size == "qvga":
            generate += ["--width", "320", "--height", "240"]
            detect += ["--set", "inhibition_delay=1"]
        assert cli.main(generate) == 0
        assert cli.main(detect) == 0
    else:
        simulate = ["simulate", "--out", str(out)]
        for setting in SIMULATE_SETTINGS[name]:
            simulate += ["--set", setting]
        capsys.readouterr()
        assert cli.main(simulate) == 0
        outcome = GOLDEN_OUTCOME.get(name, "AVOIDED")
        assert capsys.readouterr().out == f"OUTCOME={outcome}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[case]
