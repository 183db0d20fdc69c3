"""Seed-0 outputs of every benchmark workload equal the stored reference.

The inputs, the commands and the comparison are the benchmark's own
(``bench/run.py`` ``prepare``, ``check`` and ``bench/reference/*.json.gz``):
discrete columns and outcomes exactly, float columns within 1e-6.  A change
that drifts the numerics fails here, without a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402

run.load_clgmd()


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
