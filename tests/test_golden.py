"""Every golden CLI run in ``pinned.py`` writes its pinned CSV or PGMs, and
its eight detect sequences give bit-identical whole-field sums: a change that
drifts the numerics fails here, without a benchmark run."""

import hashlib

import pytest

import pinned
from clgmd.detector import CollisionDetector
from clgmd.layers import CoreParams
from clgmd.stimulus import CameraModel, Direction, ScenarioSpec, generate_sequence

CSVS = sorted(name for name, script in pinned.GOLDEN.items() if "--out" in script)


@pytest.mark.parametrize("case", CSVS)
def test_cli_output_is_byte_identical(case, tmp_path):
    pinned.check(case, tmp_path)


@pytest.mark.parametrize("case", sorted(pinned.GOLDEN.keys() - CSVS))
def test_generated_frames_are_byte_identical(case, tmp_path):
    pinned.check(case, tmp_path)


# sha256 over float.hex(k_f0), one line per detection, of the eight detect
# goldens in pinned.py, generated and detected in-process.  k_f0 is the raw
# whole-field sum: it is in no CSV, and kappa is 0 on every 320x240 row, so
# this is what pins the 320x240 numerics bit for bit.
K_F0_SHA256 = "fc701a722439460fdc767bfe44a5ef4197c318a157c57feaace55c1a52bb0389"


def test_k_f0_is_bit_identical():
    digest = hashlib.sha256()
    for width, height, delay in ((100, 100, 0), (320, 240, 1)):
        camera = CameraModel(width=width, height=height)
        for direction in ("up", "down", "left", "right"):
            spec = ScenarioSpec(Direction(direction), seed=0, noise_amplitude=5.0, frames=120)
            detector = CollisionDetector(core=CoreParams(inhibition_delay=delay))
            for frame in generate_sequence(spec, camera):
                result = detector.process(frame)
                if result is not None:
                    digest.update(f"{result.potentials.k_f0.hex()}\n".encode())
    assert digest.hexdigest() == K_F0_SHA256
