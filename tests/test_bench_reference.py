"""The benchmark's seed-0 outputs equal its stored references byte for byte.

``bench/run.py --seed 0`` checks the same outputs with ``checks.compare``,
which allows 1e-6 on every float cell; this test allows no difference.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402

run.load_clgmd()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_0_outputs_equal_the_reference(name, tmp_path):
    workload = run.WORKLOADS[name]
    stored = run.load_reference(workload)["outputs"]
    jobs = run.prepare(workload, run.REFERENCE_SEED, tmp_path / "in")
    assert sorted(job.name for job in jobs) == sorted(stored)
    for job in jobs:
        code, _, stdout = run.call_main(job.argv)
        assert code == 0, job.name
        assert job.out.read_bytes() == stored[job.name]["csv"].encode(), job.name
        if workload.command == "simulate":
            outcome = stdout.rpartition("OUTCOME=")[2].strip()
            assert outcome == stored[job.name]["outcome"], job.name
