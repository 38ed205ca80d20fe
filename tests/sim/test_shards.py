"""Sharded conservative-PDES dispatcher: equivalence and protocol tests.

The tentpole invariant mirrors the fast-path dispatcher's: sharding
changes how the host *organizes* the schedule (windows, shard ownership,
cross-shard accounting), never *which* schedule executes. Every virtual
output — the global order digest, the per-shard digests, the makespan,
profiler totals, figures of merit — must be bit-identical to the
sequential dispatcher at every tested shard count, on both backends.
"""

import os
import subprocess
import sys

import pytest

from repro.apps.cgpop import run_cgpop
from repro.apps.fft import run_fft
from repro.apps.randomaccess import run_randomaccess
from repro.caf.program import run_caf
from repro.sim.engine import Engine, ShardedEngine
from repro.sim.lbts import LbtsController, lbts_bound
from repro.sim.network import MachineSpec
from repro.sim.shard import (
    ShardFallbackWarning,
    plan_shards,
    run_app_config,
    shards_from_env,
)
from repro.util.errors import SimulationError

SPEC = MachineSpec(name="generic")

APPS = {
    "randomaccess": (
        run_randomaccess,
        dict(table_bits_per_image=6, updates_per_image=64, batches=2),
    ),
    "fft": (run_fft, dict(m=1 << 10)),
    "cgpop": (run_cgpop, dict(ny=16, nx=16, max_iter=8)),
}


# ---------------------------------------------------------------------------
# Plan construction and gating
# ---------------------------------------------------------------------------


def test_shards_from_env_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_SHARDS", raising=False)
    assert shards_from_env() == 1
    monkeypatch.setenv("REPRO_SIM_SHARDS", "")
    assert shards_from_env() == 1
    monkeypatch.setenv("REPRO_SIM_SHARDS", "4")
    assert shards_from_env() == 4
    monkeypatch.setenv("REPRO_SIM_SHARDS", "zero")
    with pytest.raises(SimulationError):
        shards_from_env()
    monkeypatch.setenv("REPRO_SIM_SHARDS", "0")
    with pytest.raises(SimulationError):
        shards_from_env()


def test_env_gates_engine_selection(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SHARDS", "2")
    run = run_caf(run_randomaccess, 8, SPEC, backend="mpi",
                  **APPS["randomaccess"][1])
    assert isinstance(run.cluster.engine, ShardedEngine)
    assert run.cluster.shard_plan.nshards == 2
    monkeypatch.delenv("REPRO_SIM_SHARDS")
    run = run_caf(run_randomaccess, 8, SPEC, backend="mpi",
                  **APPS["randomaccess"][1])
    assert type(run.cluster.engine) is Engine
    assert run.cluster.shard_plan is None


def test_plan_contiguous_and_node_aligned():
    plan = plan_shards(64, SPEC, 4)
    assert plan.nshards == 4
    assert plan.bounds[0][0] == 0 and plan.bounds[-1][1] == 64
    for (lo_a, hi_a), (lo_b, _hi_b) in zip(plan.bounds, plan.bounds[1:]):
        assert hi_a == lo_b  # contiguous, no gaps
    assert all(plan.owner[r] == plan.shard_of(r) for r in range(64))
    # generic spec has >= 4 nodes at 64 ranks: boundaries on node edges.
    assert plan.node_aligned
    assert plan.lookahead == SPEC.cross_shard_lookahead(True) == SPEC.latency


def test_plan_inside_node_uses_loopback_floor():
    # More shards than nodes forces a boundary inside a node.
    rpn = SPEC.ranks_per_node
    plan = plan_shards(rpn, SPEC, 2)
    assert not plan.node_aligned
    assert plan.lookahead == min(SPEC.latency, SPEC.loopback_latency)


def test_plan_clamps_to_nranks():
    plan = plan_shards(3, SPEC, 8)
    assert plan.nshards == 3


def test_zero_lookahead_falls_back_with_warning():
    flat = SPEC.with_overrides(latency=0.0, loopback_latency=0.0)
    with pytest.warns(ShardFallbackWarning):
        plan = plan_shards(16, flat, 4)
    assert plan.nshards == 1 and not plan.is_sharded
    # A full run on the degenerate spec still works — sequentially.
    with pytest.warns(ShardFallbackWarning):
        run = run_caf(run_randomaccess, 8, flat, backend="mpi", shards=4,
                      **APPS["randomaccess"][1])
    assert run.cluster.shard_plan is None
    assert type(run.cluster.engine) is Engine


def test_sharded_engine_requires_fastpath(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
    with pytest.raises(SimulationError, match="fast-path"):
        ShardedEngine(plan_shards(8, SPEC, 2))


def test_sharded_engine_rejects_sequential_plan():
    with pytest.raises(SimulationError, match="nshards > 1"):
        ShardedEngine(plan_shards(8, SPEC, 1))


# ---------------------------------------------------------------------------
# LBTS controller unit tests
# ---------------------------------------------------------------------------


def test_lbts_bound_is_min_plus_lookahead():
    assert lbts_bound([3.0, 1.0, 2.0], 0.5) == 1.5


def test_lbts_null_messages_count_silent_pairs():
    c = LbtsController(3, 1e-6)
    c.open_window(0.0)
    c.note_traffic(0, 1)
    c.note_traffic(0, 1)  # same pair: still one suppressed null
    c.open_window(1e-5)  # settles epoch 1: 3*2 pairs, 1 spoke
    c.finish(2e-5)
    stats = c.stats()
    assert stats["epochs"] == 2
    # Epoch 1: 6 ordered pairs - 1 that carried traffic = 5 nulls;
    # epoch 2 was fully silent: all 6 pairs null.
    assert stats["null_messages"] == 5 + 6


def test_lbts_rejects_backward_bound():
    c = LbtsController(2, 1e-6)
    c.open_window(5.0)
    with pytest.raises(SimulationError):
        c.open_window(1.0)


# ---------------------------------------------------------------------------
# Golden equivalence: shards=1 vs shards in {2, 4}, both backends
# ---------------------------------------------------------------------------


def _fingerprint(run):
    eng = run.cluster.engine
    totals = {c: run.profiler.total(c) for c in run.profiler.categories()}
    return (
        eng.order_digest(),
        eng.shard_digests(),
        eng.events_executed,
        run.elapsed,
        totals,
    )


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_sharded_schedule_bit_identical_to_sequential(monkeypatch, backend, app):
    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    fn, kw = APPS[app]
    for nshards in (2, 4):
        seq = run_caf(fn, 8, SPEC, backend=backend, shards=1,
                      digest_partition=nshards, **kw)
        shd = run_caf(fn, 8, SPEC, backend=backend, shards=nshards, **kw)
        assert _fingerprint(shd) == _fingerprint(seq)
        # The per-shard digests are a genuine partition: every shard saw
        # some of the schedule, and nothing fell outside the partition.
        st = shd.cluster.engine.shard_stats()
        assert sum(st["events_per_shard"]) == shd.cluster.engine.events_executed
        assert all(n > 0 for n in st["events_per_shard"])


@pytest.mark.parametrize("backend", ["mpi", "gasnet"])
def test_figures_of_merit_identical(monkeypatch, backend):
    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    fn, kw = APPS["randomaccess"]
    seq = run_caf(fn, 8, SPEC, backend=backend, shards=1, **kw)
    shd = run_caf(fn, 8, SPEC, backend=backend, shards=2, **kw)
    assert shd.results[0].gups == seq.results[0].gups  # bit-identical
    assert shd.elapsed == seq.elapsed


def test_conservative_guarantee_holds():
    fn, kw = APPS["randomaccess"]
    run = run_caf(fn, 16, SPEC, backend="mpi", shards=4, **kw)
    st = run.cluster.engine.shard_stats()
    assert st["cross_messages"] > 0  # the protocol was actually exercised
    assert st["lookahead_violations"] == 0
    assert st["epochs"] > 1
    assert st["lookahead"] == run.cluster.shard_plan.lookahead


def test_faulty_run_equivalent_under_shards(monkeypatch):
    from repro.sim.faults import FaultPlan

    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    fn, kw = APPS["randomaccess"]

    def run_one(nshards):
        faults = FaultPlan(seed=3, crashes=[(5, 2e-4)])
        part = dict(digest_partition=2) if nshards == 1 else {}
        try:
            r = run_caf(fn, 8, SPEC, backend="mpi", shards=nshards,
                        faults=faults, reliable=True, deadline=1.0,
                        **part, **kw)
            return ("ok", _fingerprint(r)[:4])
        except Exception as exc:  # noqa: BLE001 - fingerprint failures too
            cl = exc.caf_cluster
            return (type(exc).__name__, sorted(cl.failed_ranks),
                    cl.engine.order_digest(), cl.elapsed)

    assert run_one(2) == run_one(1)


def test_digest_partition_validates_against_plan():
    fn, kw = APPS["randomaccess"]
    with pytest.raises(SimulationError, match="digest_partition"):
        run_caf(fn, 8, SPEC, backend="mpi", shards=2, digest_partition=4, **kw)


# ---------------------------------------------------------------------------
# Feature gates: IR recording and the sanitizer refuse sharded runs
# ---------------------------------------------------------------------------


def test_ir_recording_refuses_sharded_runs(tmp_path):
    from repro.ir import record as ir_record

    fn, kw = APPS["randomaccess"]
    ir_record.start(tmp_path / "trace")
    try:
        with pytest.raises(NotImplementedError, match="REPRO_SIM_SHARDS"):
            run_caf(fn, 8, SPEC, backend="mpi", shards=2, **kw)
    finally:
        ir_record.abort()
        ir_record.stop()


def test_sanitizer_refuses_sharded_runs():
    fn, kw = APPS["randomaccess"]
    with pytest.raises(NotImplementedError, match="sanitizer"):
        run_caf(fn, 8, SPEC, backend="mpi", shards=2, sanitize=True, **kw)


def test_forced_sanitizer_refuses_sharded_runs():
    from repro import sanitizer

    fn, kw = APPS["randomaccess"]
    sanitizer.force_enable()
    try:
        with pytest.raises(NotImplementedError, match="sanitizer"):
            run_caf(fn, 8, SPEC, backend="mpi", shards=2, **kw)
    finally:
        sanitizer.force_disable()


# ---------------------------------------------------------------------------
# Observability integration
# ---------------------------------------------------------------------------


def test_report_carries_shard_section_and_identical_metrics():
    fn, kw = APPS["randomaccess"]
    seq = run_caf(fn, 8, SPEC, backend="mpi", shards=1, metrics=True, **kw)
    shd = run_caf(fn, 8, SPEC, backend="mpi", shards=2, metrics=True, **kw)
    srep, xrep = seq.report(app="ra").data, shd.report(app="ra").data
    assert srep["meta"]["shards"] == 1 and "shards" not in srep
    assert xrep["meta"]["shards"] == 2
    assert xrep["shards"]["nshards"] == 2
    assert xrep["shards"]["lookahead_violations"] == 0
    # Obs metrics must not notice the dispatcher swap.
    assert xrep["ops"] == srep["ops"]
    assert xrep["profiler"] == srep["profiler"]
    assert xrep["meta"]["makespan"] == srep["meta"]["makespan"]
    assert xrep["comm_matrix"] == srep["comm_matrix"]


# ---------------------------------------------------------------------------
# Spawn-safe OS-process workers
# ---------------------------------------------------------------------------


def _worker_config(shards):
    return {
        "app": "randomaccess",
        "nranks": 8,
        "backend": "mpi",
        "shards": shards,
        "digest_partition": None if shards > 1 else 2,
        "kwargs": APPS["randomaccess"][1],
        "env": {"REPRO_SIM_DIGEST": "1"},
    }


def test_run_app_config_in_process(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_DIGEST", "1")
    out = run_app_config(_worker_config(2))
    assert out["shards"] == 2
    assert out["shard_stats"]["lookahead_violations"] == 0
    base = run_app_config(_worker_config(1))
    assert out["digest"] == base["digest"]
    assert out["shard_digests"] == base["shard_digests"]
    assert out["makespan"] == base["makespan"]
    assert out["events"] == base["events"]
    assert out["profiler_totals"] == base["profiler_totals"]


def test_run_configs_parallel_across_processes():
    # Exercise the real spawn path in a subprocess-driven pool: the
    # baseline and the sharded run execute in separate interpreters and
    # their fingerprints must still match bit-for-bit. On a host with two
    # or more allowed CPUs each worker runs pinned to a CPU of its own.
    code = (
        "import json, sys\n"
        "sys.path.insert(0, 'tests')\n"
        "from tests.sim.test_shards import _worker_config\n"
        "from repro.sim.shard import run_configs_parallel\n"
        "base, shd = run_configs_parallel("
        "[_worker_config(1), _worker_config(2)], processes=2)\n"
        "assert shd['digest'] == base['digest'], (shd, base)\n"
        "assert shd['shard_digests'] == base['shard_digests']\n"
        "assert shd['makespan'] == base['makespan']\n"
        "import os\n"
        "if hasattr(os, 'sched_setaffinity') and len(os.sched_getaffinity(0)) > 1:\n"
        "    cpus = (base['cpus'], shd['cpus'])\n"
        "    assert [len(c) for c in cpus] == [1, 1], cpus\n"
        "    assert set(cpus[0]).isdisjoint(cpus[1]), cpus\n"
        "print('spawn-ok')\n"
    )
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "spawn-ok" in proc.stdout
