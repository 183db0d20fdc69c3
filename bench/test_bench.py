"""Self-tests for the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_clgmd()


def tiny(workload):
    """A few-millisecond version of a workload, with the same code paths."""
    options = workload.options
    if workload.command == "simulate":
        options += ("--set", "max_duration=1")
    return dataclasses.replace(workload, width=24, height=24, frames=10, options=options)


def reference_text(workload_name, job):
    return run.load_reference(run.WORKLOADS[workload_name])["outputs"][job]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(name, trace):
    result, lines, _, meta = run.run_workload(
        tiny(run.WORKLOADS[name]), seed=1, seconds=0.2, trace=trace,
        min_intervals=20, setup_repeats=1,
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert emitted == run.declared_metrics(trace)
    assert all(isinstance(e["value"], (int, float)) for e in result["metrics"].values())
    if not trace:
        reported = {line.split()[0] for line in lines}
        assert {"frame_p99_us", "error_rate", "task_success_rate"} <= reported
    assert {"commit", "numpy", "scipy", "blas_threads", "nproc", "loadavg_end"} <= set(meta)
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_reference_outputs_satisfy_the_invariants(name):
    workload = run.WORKLOADS[name]
    reference = run.load_reference(workload)
    assert reference["seed"] == run.REFERENCE_SEED
    for job_name, output in reference["outputs"].items():
        job = run.Job(job_name, [], None, run.DISABLED_T_S if job_name == "centered"
                      else run.DEFAULT_T_S)
        assert run.verify(job, workload, output["csv"], output["outcome"], reference) == []


def _flip_first_confirmation(text):
    lines = text.splitlines(keepends=True)
    column = lines[0].split(",").index("confirmed")
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[column] == "1":
            cells[column] = "0"
            lines[number] = ",".join(cells)
            return "".join(lines)
    raise AssertionError("reference has no confirmation to flip")


@pytest.mark.parametrize("use_reference", [True, False])
def test_flipped_confirmed_bit_is_a_failure(use_reference):
    workload = run.WORKLOADS["detect-100"]
    reference = run.load_reference(workload) if use_reference else None
    text = _flip_first_confirmation(reference_text("detect-100", "left")["csv"])
    job = run.Job("left", [], None, run.DEFAULT_T_S)
    problems = run.verify(job, workload, text, "", reference)
    assert any("confirmed" in p for p in problems)


def test_nonzero_exit_is_a_failure(tmp_path):
    workload = run.WORKLOADS["detect-100"]
    out = tmp_path / "out.csv"
    job = run.Job("left", ["detect", str(tmp_path / "missing"), "--out", str(out)], out,
                  run.DEFAULT_T_S)
    code, _, _ = run.call_main(job.argv)
    tally = run.Tally()
    tally.add(job, run.check(job, workload, code, "", None))
    assert code != 0
    assert (tally.attempted, tally.failed) == (1, 1)


def test_changed_repeat_output_is_a_failure(tmp_path):
    workload = run.WORKLOADS["detect-100"]
    job = run.Job("left", [], tmp_path / "out.csv", run.DEFAULT_T_S)
    job.out.write_text(reference_text("detect-100", "left")["csv"])
    assert run.check(job, workload, 0, "", run.load_reference(workload)) == []
    job.out.write_text(_flip_first_confirmation(job.out.read_text()))
    assert run.check(job, workload, 0, "", None) != []


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "detect-100", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
