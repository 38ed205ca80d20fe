"""One benchmark run in a fresh interpreter; prints one JSON record.

Usage (from the repository root, normally spawned by ``run.py``)::

    python3 perfbench/child.py --spec '<workload json>' --seed 1 --trace 0

The record holds the run's host timings, its simulated outputs (makespan,
event counts, ...) and the result of the app's own output verification.
With ``--trace 1`` it also holds the per-layer span statistics.

``setup_s`` and ``peak_rss_mb`` are one value per run; ``samples`` holds
one ``{wall_s, cpu_s, events_per_s, ref_s}`` entry per timed part, where
``ref_s`` is the mean of the reference loops (``host.reference_s``) timed
right before and right after that part. ``fft-gasnet``:
``setup_s`` runs from the ``run_caf`` call until the last rank enters the
program body; its one sample runs from there until ``run_caf`` returns
(``cpu_s`` is process CPU). ``ra-replay``: ``setup_s`` is the recorded live
run; each sample is one compile plus the sweep over the latency x bandwidth
grid, and an untraced run makes :data:`SWEEPS` of them from its one
recording (a traced run makes one, so its ``ir`` spans describe one sweep).
``peak_rss_mb`` is read before verification, and ``trace.coverage`` divides
span self CPU by the process CPU of the workload, from its start to the end
of its timed part, less the reference loops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from host import reference_s

HERE = Path(__file__).resolve().parent
#: Timed sweeps per untraced ``ra-replay`` run. The live recording costs
#: about as much as two sweeps, so sweeping it three times spends most of a
#: run timing the sweep, while runs stay short enough that each workload
#: run still records several times for ``setup_s``.
SWEEPS = 3


class EntryClock:
    """Marks the moment the last rank enters the program body."""

    def __init__(self, nranks: int) -> None:
        self.pending = nranks
        self.wall: float | None = None
        self.cpu: float | None = None

    def wrap(self, program):
        def body(img, **kwargs):
            self.pending -= 1
            if self.pending == 0:
                self.wall = time.perf_counter()
                self.cpu = time.process_time()
            return program(img, **kwargs)

        body.__name__ = program.__name__
        return body


def _sim_outputs(run) -> dict:
    engine = run.cluster.engine
    return {
        "makespan": run.elapsed,
        "events": engine.events_executed,
        "stale_wakes": engine.stale_wakes_dropped,
        "messages": run.fabric.messages_sent,
        "bytes": run.fabric.bytes_sent,
    }


# Each workload returns (run, timing, simulated outputs, verify, extra
# per-layer values); ``verify()`` runs after the timed part and returns
# the list of failed checks.


def fft(params, seed, tracer):
    from repro.apps.fft import make_input, run_fft
    from repro.apps.verification import verify_fft
    from repro.caf import run_caf

    program = run_fft
    if tracer is not None:
        from layers import BODY

        program = tracer.wrap(BODY, program)
    clock = EntryClock(params["nranks"])
    refs = [reference_s()]
    t0 = time.perf_counter()
    run = run_caf(
        clock.wrap(program), params["nranks"], backend=params["backend"],
        seed=seed, m=params["m"],
    )
    wall = time.perf_counter() - clock.wall
    cpu = time.process_time() - clock.cpu
    refs.append(reference_s())
    timing = {
        "setup_s": clock.wall - t0,
        "reference_s": refs,
        "samples": [{
            "wall_s": wall,
            "cpu_s": cpu,
            "events_per_s": run.cluster.engine.events_executed / wall,
            "ref_s": (refs[0] + refs[1]) / 2,
        }],
    }
    out = _sim_outputs(run)
    out["gflops"] = run.results[0].gflops

    def verify():
        report = verify_fft(
            run.cluster.shared("fft-output", dict), make_input(seed, params["m"])
        )
        return [] if report.passed else [str(report)]

    return run, timing, out, verify, {}


def ra_replay(params, seed, tracer):
    """Record RandomAccess live (set-up), then sweep the trace (timed)."""
    from repro.apps.randomaccess import run_randomaccess
    from repro.apps.verification import verify_randomaccess
    from repro.caf import run_caf
    from repro.ir import record as ir_record
    from repro.ir import run_sweep
    from repro.ir.replay import CompiledTrace
    from repro.ir.sweep import SweepPoint

    program = run_randomaccess
    if tracer is not None:
        from layers import BODY

        program = tracer.wrap(BODY, program)
    work = HERE / "out"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        t0 = time.perf_counter()
        with ir_record.recording(Path(tmp) / "ra.npz"):
            run = run_caf(
                program, params["nranks"], backend=params["backend"], seed=seed,
                table_bits_per_image=params["table_bits_per_image"],
                updates_per_image=params["updates_per_image"],
                batches=params["batches"],
            )
        setup = time.perf_counter() - t0
    trace = ir_record.last_trace()

    base = trace.recorded_spec()
    # The first point is the recorded spec itself (factors 1, 1).
    points = [
        SweepPoint(
            name=f"lat x{lf}, bw /{bf}",
            overrides={"latency": base.latency * lf, "bandwidth": base.bandwidth / bf},
        )
        for lf in params["latency_factors"]
        for bf in params["bandwidth_factors"]
    ]
    samples = []
    sweeps = []
    refs = [reference_s()]
    for _ in range(1 if tracer is not None else SWEEPS):
        t1 = time.perf_counter()
        c1 = time.process_time()
        outcome = run_sweep(CompiledTrace(trace), points)
        wall = time.perf_counter() - t1
        cpu = time.process_time() - c1
        refs.append(reference_s())
        samples.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "events_per_s": trace.nops * len(points) / wall,
            "ref_s": (refs[-2] + refs[-1]) / 2,
        })
        sweeps.append([res.makespan for _point, res in outcome.results])
    timing = {"setup_s": setup, "reference_s": refs, "samples": samples}
    out = _sim_outputs(run)
    out["replay_makespans"] = sweeps[0]

    def verify():
        report = verify_randomaccess(
            run.cluster.shared("ra-tables", dict), seed=seed, nranks=params["nranks"],
            table_bits_per_image=params["table_bits_per_image"],
            updates_per_image=params["updates_per_image"],
        )
        failures = [] if report.passed else [str(report)]
        identity = out["replay_makespans"][0]
        if identity != run.elapsed:
            failures.append(
                f"identity-point replay makespan {identity!r} != live {run.elapsed!r}"
            )
        if any(makespans != sweeps[0] for makespans in sweeps):
            failures.append("repeated sweeps of one trace gave different makespans")
        return failures

    return run, timing, out, verify, {"ir.trace.ops": trace.nops, "ir.record.s": setup}


KINDS = {"fft": fft, "ra-replay": ra_replay}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workload entry as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)

    # Runs are not pinned: they measure the simulator as users run it.
    # The mask the run was given is recorded.
    affinity = sorted(os.sched_getaffinity(0))
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = time.process_time()
    run, timing, outputs, verify, extra = KINDS[spec["kind"]](
        spec["params"], args.seed, tracer
    )
    process_cpu = time.process_time() - cpu0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    failures = verify()

    record = {
        **timing,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "nvcsw": ru1.ru_nvcsw - ru0.ru_nvcsw,
        "affinity": affinity,
        "outputs": outputs,
        "digest": run.cluster.engine.order_digest(),
        "failures": failures,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers.update({"ir.trace.ops": 0, "ir.record.s": 0.0, **extra})
        workload_cpu = process_cpu - sum(timing["reference_s"])
        layers["trace.coverage"] = tracer.total_self_cpu_s() / workload_cpu
        record["layers"] = layers
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
