"""Self-tests of the benchmark harness, on tiny workload sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: Parameter overrides that keep every workload to about a second.
TINY = {
    "fft-gasnet": {"nranks": 4, "m": 1 << 12},
    "ra-replay": {"nranks": 8, "latency_factors": [1, 2], "bandwidth_factors": [1, 2]},
}


def tiny_workloads() -> dict:
    workloads = run.load_json(HERE / "workloads.json")
    for name, spec in workloads.items():
        spec["params"].update(TINY[name])
        # The stored constants belong to the full-size parameters.
        del spec["expect"]
    return workloads


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    workloads = run.load_json(HERE / "workloads.json")
    assert [w["name"] for w in bench["workloads"]] == list(workloads)
    for spec in workloads.values():
        assert {"makespan", "events", "digest"} <= set(spec["expect"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(capsys, trace):
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    named = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    workloads = tiny_workloads()
    for name in workloads:
        argv = ["--workload", name, "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv, workloads) == 0
        result = last_json(capsys)
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] == 1 + trace
        assert {k: m["unit"] for k, m in result["metrics"].items()} == named, name
        if trace:
            assert result["metrics"]["trace.coverage"]["value"] > 0
            assert result["metrics"]["trace.overhead"]["value"] > 0
        else:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reference_units_divide_medians_by_the_median_reference_loop():
    samples = [
        {"wall_s": 2.0, "cpu_s": 1.0, "events_per_s": 50.0, "ref_s": 0.5},
        {"wall_s": 9.0, "cpu_s": 9.0, "events_per_s": 1.0, "ref_s": 0.1},
        {"wall_s": 1.0, "cpu_s": 0.5, "events_per_s": 90.0, "ref_s": 0.9},
    ]
    assert run.in_ref_units(samples) == {"wall_ref": 4.0, "events_per_ref": 25.0, "cpu_ref": 2.0}


def test_wrong_stored_constant_fails_every_run(capsys):
    workloads = tiny_workloads()
    spec = workloads["fft-gasnet"]
    truth = run.run_child(spec, spec["seed"], True)
    spec["expect"] = {
        "makespan": truth["outputs"]["makespan"],
        "events": truth["outputs"]["events"],
        "digest": truth["digest"],
    }
    argv = ["--workload", "fft-gasnet", "--seconds", "0", "--trace", "1"]
    assert run.main(argv, workloads) == 0
    good = last_json(capsys)
    assert good["correct"] and good["failed"] == 0

    spec["expect"]["makespan"] *= 1.5
    assert run.main(argv, workloads) == 0
    bad = last_json(capsys)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] == 2  # fail_ratio 1


def test_wrong_stored_digest_fails_the_traced_run(capsys):
    workloads = tiny_workloads()
    spec = workloads["fft-gasnet"]
    spec["expect"] = {"digest": "0" * 32}
    assert run.main(["--workload", "fft-gasnet", "--seconds", "0", "--trace", "1"], workloads) == 0
    result = last_json(capsys)
    assert result["failed"] == 1 and result["attempted"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fft-gasnet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
