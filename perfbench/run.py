"""The repository benchmark: host cost of the simulator, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fft-gasnet --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py                 # every workload, stored seeds

Load model: a closed loop of one run at a time. This driver spawns one
fresh interpreter (``child.py``) per run and never runs two at once; it
keeps starting runs while the next one is expected to end within
``--seconds`` and reports medians: of every timed sample (an ``ra-replay``
run times several sweeps) for the time metrics, of every run for
``setup_s`` and ``peak_rss_mb``.
Runs are not pinned; each records the affinity mask it was given.

Time metrics come in two units. ``wall_s``, ``events_per_s`` and ``cpu_s``
are seconds. ``wall_ref``, ``events_per_ref`` and ``cpu_ref`` are their
medians with each second divided by the median ``ref_s``: the wall time of
a fixed pure-Python loop (``host.reference_s``) timed in the same process
right before and right after each timed part. On a shared host the speed
of a core drifts by a third over minutes, and the loop slows with it, so
the ``*_ref`` metrics keep a program's cost steady across runs where
seconds do not; a change to the simulator moves both alike. The ``*_ref``
metrics, ``setup_s`` and ``peak_rss_mb`` are the end-to-end metrics;
seconds are printed and kept in the record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates an untraced and a traced run (timing spans from
``layers.py``, event-order digest on) and reports the per-layer metrics.
``trace.overhead`` is traced over untraced ``wall_ref``; for ``ra-replay``
that is the sweep, where only the ``ir`` spans fire, and the traced
recording's time is ``ir.record.s``.

Every run's outputs are checked: the app's own verification, the identity
point of the replay sweep, and -- for a workload's stored seed -- the
makespan, event count and (traced) event-order digest stored in
``workloads.json``. A traced run must also reproduce the
untraced run's simulated outputs exactly. ``fail_ratio`` is failed runs
over runs attempted.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (every run,
host fingerprint, calibration) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: A run taking longer than this is counted as failed (runs take seconds).
RUN_TIMEOUT_S = 60.0
#: Values compared exactly against ``workloads.json`` for the stored seed.
EXPECTED_OUTPUTS = ("makespan", "events")
#: Unit of every summary value. ``ref_s`` is the reference loop (``child.py``).
UNITS = {
    "wall_s": "s", "events_per_s": "1/s", "cpu_s": "s", "ref_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
#: Values measured once per run; all others once per timed sample.
PER_RUN = ("setup_s", "peak_rss_mb")
#: Units of the time metrics once expressed in reference-loop durations.
REF_UNITS = {"wall_ref": "ref", "events_per_ref": "1/ref", "cpu_ref": "ref"}


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def run_child(spec: dict, seed: int, traced: bool, timeout: float = RUN_TIMEOUT_S) -> dict:
    """One run in a fresh interpreter; returns its record or ``{"error": ...}``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_SIM_")}
    if traced:
        env["REPRO_SIM_DIGEST"] = "1"
    cmd = [
        sys.executable, str(HERE / "child.py"), "--spec", json.dumps(spec),
        "--seed", str(seed), "--trace", str(int(traced)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"run exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced, "error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    return {"traced": traced, **json.loads(lines[-1])}


def check(record: dict, spec: dict, seed: int, reference: dict | None) -> list[str]:
    """Every reason this run's outputs are wrong (empty when correct)."""
    if "error" in record:
        return [record["error"]]
    problems = list(record["failures"])
    outputs = record["outputs"]
    expect = spec.get("expect") if seed == spec["seed"] else None
    if expect:
        for key in EXPECTED_OUTPUTS:
            if key in expect and outputs.get(key) != expect[key]:
                problems.append(f"{key} {outputs.get(key)!r} != stored {expect[key]!r}")
        if record["traced"] and "digest" in expect and record["digest"] != expect["digest"]:
            problems.append(f"digest {record['digest']} != stored {expect['digest']}")
    if record["traced"] and reference is not None and outputs != reference["outputs"]:
        problems.append("traced run's simulated outputs differ from the untraced run's")
    return problems


def in_ref_units(samples: list[dict]) -> dict[str, float]:
    """Median time metrics of ``samples``, each second divided by ``ref_s``.

    Medians are taken first: one reference loop jitters more than the
    median of a run's loops, all timed next to its samples.
    """
    med = {
        k: statistics.median(s[k] for s in samples)
        for k in ("wall_s", "events_per_s", "cpu_s", "ref_s")
    }
    return {
        "wall_ref": med["wall_s"] / med["ref_s"],
        "events_per_ref": med["events_per_s"] * med["ref_s"],
        "cpu_ref": med["cpu_s"] / med["ref_s"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(name: str, spec: dict, seed: int, seconds: float, traced: bool,
                 bench: dict) -> dict:
    """Run one workload for ``seconds``; return its summary.

    A round is one run (or one untraced/traced pair). At least one round
    runs; another starts only while it is expected to end within
    ``seconds``, taking the longest round so far as the estimate, so a
    workload's runs end close to ``seconds`` instead of overrunning it.
    """
    start = time.perf_counter()
    records: list[dict] = []
    longest = 0.0
    while True:
        began = time.perf_counter()
        for tr in (False, True) if traced else (False,):
            records.append(run_child(spec, seed, tr))
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now - start + longest > seconds or any("error" in r for r in records):
            break

    reference = next((r for r in records if not r["traced"] and "error" not in r), None)
    problems = [check(rec, spec, seed, reference) for rec in records]
    failures = [f"run {i}: {p}" for i, probs in enumerate(problems) for p in probs]
    failed = sum(1 for probs in problems if probs)
    plain = [r for r in records if not r["traced"] and "error" not in r]
    tracedruns = [r for r in records if r["traced"] and "error" not in r]

    samples = [s for r in plain for s in r["samples"]]
    summary = {}
    for key in UNITS:
        pool = [r[key] for r in plain] if key in PER_RUN else [s[key] for s in samples]
        if pool:
            q1, med, q3 = quartiles(pool)
            summary[key] = {"median": med, "q1": q1, "q3": q3, "n": len(pool)}

    values: dict[str, float] = {k: v["median"] for k, v in summary.items()}
    if samples:
        values.update(in_ref_units(samples))
    if tracedruns and plain:
        layer_keys = tracedruns[0]["layers"]
        values.update(
            {k: statistics.median(r["layers"][k] for r in tracedruns) for k in layer_keys}
        )
        out = tracedruns[0]["outputs"]
        values["sim.engine.events"] = out["events"]
        values["sim.engine.stale_wakes"] = out["stale_wakes"]
        values["sim.network.messages"] = out["messages"]
        values["sim.network.bytes"] = out["bytes"]
        values["sim.engine.ctx_switches"] = statistics.median(r["nvcsw"] for r in plain)
        traced_samples = [s for r in tracedruns for s in r["samples"]]
        values["trace.overhead"] = in_ref_units(traced_samples)["wall_ref"] / values["wall_ref"]

    section = "per_layer" if traced else "end_to_end"
    metrics = {}
    if plain and (tracedruns or not traced):
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench[section]
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "params": spec["params"],
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "failures": failures,
        "summary": summary,
        "in_ref_units": {k: values[k] for k in REF_UNITS if k in values},
        "metrics": metrics,
        "runs": records,
    }


def print_summary(result: dict) -> None:
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"runs={result['attempted']} (closed loop, one run at a time, unpinned)"
    )
    for key, s in result["summary"].items():
        print(
            f"{key:<14} {s['median']:>14.6g} {UNITS[key]:<6} "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
        )
    for key, value in result["in_ref_units"].items():
        print(f"{key:<14} {value:>14.6g} {REF_UNITS[key]:<6} from medians of {key[:-4]}_s and ref_s")
    print(
        f"{'fail_ratio':<14} {result['fail_ratio']:>14.6g} {'ratio':<6} "
        f"({result['failed']} of {result['attempted']} runs failed)"
    )
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    if result["trace"]:
        for name, m in result["metrics"].items():
            print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None, workloads: dict | None = None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    workloads = workloads or load_json(HERE / "workloads.json")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads])
    ap.add_argument("--seed", type=int, help="input seed (default: the workload's stored seed)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from host import calibrate, fingerprint

    host = {**fingerprint(ROOT), "calibration": calibrate()}
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        spec = workloads[name]
        seed = spec["seed"] if args.seed is None else args.seed
        result = run_workload(name, spec, seed, args.seconds, bool(args.trace), bench)
        result["host"] = host
        results.append(result)
        print_summary(result)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")

    cal = host["calibration"]
    print(
        f"# host nproc={host['nproc']} affinity={host['affinity']} "
        f"python={host['python']} numpy={host['numpy']} git={host['git_sha']} "
        f"loop={cal['python_loop_mops']:.2f} Mops/s handoff={cal['handoff_us']:.2f} us"
    )
    if not all(r["metrics"] for r in results):
        print("error: no run produced metrics", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
