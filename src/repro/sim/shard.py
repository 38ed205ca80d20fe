"""Rank partitioning and OS-process fan-out for the sharded engine.

``REPRO_SIM_SHARDS=N`` (or ``Cluster(shards=N)`` / ``run_caf(shards=N)``)
partitions the simulated ranks into ``N`` contiguous shards and runs the
conservative windowed dispatcher (:class:`repro.sim.engine.ShardedEngine`)
over them, gated exactly like ``REPRO_SIM_FASTPATH``: unset means off, and
the sequential dispatcher stays the measured baseline.

Partitioning policy
-------------------
Shards are contiguous rank blocks, aligned to node boundaries whenever the
machine has at least as many nodes as shards. Alignment decides the
*lookahead* — the minimum virtual delay any cross-shard message can incur:

* node-aligned boundaries: every cross-shard message crosses the wire, so
  the lookahead is the spec's inter-node ``latency``;
* a boundary inside a node: two shards share a loopback path, so the
  lookahead floor drops to ``min(latency, loopback_latency)``;
* a non-positive lookahead (a zero-latency spec) leaves no safe window at
  all — the plan falls back to a single shard with a
  :class:`ShardFallbackWarning` rather than run an unsound protocol.

OS worker processes
-------------------
Simulated rank state is a single shared object graph (coarrays, AM boards,
delivery closures), so one run's shards execute in one address space; the
multi-core element is run-level: :func:`run_app_config` is a spawn-safe,
module-level worker that builds and runs a complete configuration from a
picklable dict, and :func:`run_configs_parallel` fans a batch of such
configurations out across OS worker processes (``multiprocessing`` spawn
context, one fresh interpreter per config, each worker pinned to a CPU of
its own from the caller's affinity mask). The equivalence suite and the
shard-scale benchmark use it to run the sequential baseline and the
sharded runs side by side and cross-check their digests.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

from repro.util.errors import SimulationError


class ShardFallbackWarning(UserWarning):
    """A sharded run fell back to one shard (no usable lookahead)."""


def shards_from_env() -> int:
    """Parse ``REPRO_SIM_SHARDS`` (unset/empty means 1, i.e. sequential)."""
    raw = os.environ.get("REPRO_SIM_SHARDS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise SimulationError(
            f"REPRO_SIM_SHARDS must be an integer, got {raw!r}"
        ) from None
    if n < 1:
        raise SimulationError(f"REPRO_SIM_SHARDS must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class ShardPlan:
    """A fixed partition of ``nranks`` ranks into contiguous shards."""

    nshards: int
    nranks: int
    #: Per-shard ``[lo, hi)`` world-rank bounds, in shard order.
    bounds: tuple[tuple[int, int], ...]
    #: ``owner[rank]`` -> shard index; length ``nranks``.
    owner: tuple[int, ...]
    #: Minimum virtual delay of any cross-shard interaction (seconds).
    lookahead: float
    #: True when every shard boundary falls on a node boundary.
    node_aligned: bool

    @property
    def is_sharded(self) -> bool:
        return self.nshards > 1

    def shard_of(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise SimulationError(
                f"rank {rank} out of range [0, {self.nranks})"
            )
        return self.owner[rank]

    def sizes(self) -> list[int]:
        """Ranks per shard, in shard order (telemetry/report labeling)."""
        return [hi - lo for lo, hi in self.bounds]

    def describe(self) -> dict:
        """JSON-able summary (embedded in obs RunReports)."""
        return {
            "nshards": self.nshards,
            "nranks": self.nranks,
            "bounds": [list(b) for b in self.bounds],
            "lookahead": self.lookahead,
            "node_aligned": self.node_aligned,
        }


def plan_shards(nranks: int, spec, nshards: int) -> ShardPlan:
    """Build the shard plan for ``nranks`` ranks on ``spec``.

    ``nshards`` is clamped to ``[1, nranks]``. When the derived lookahead
    is non-positive the plan falls back to a single shard and warns
    (:class:`ShardFallbackWarning`) — with no safe window the conservative
    protocol degenerates to sequential execution anyway.
    """
    if nranks <= 0:
        raise SimulationError(f"nranks must be positive, got {nranks}")
    if nshards < 1:
        raise SimulationError(f"nshards must be >= 1, got {nshards}")
    nshards = min(nshards, nranks)
    rpn = spec.ranks_per_node
    nnodes = -(-nranks // rpn)
    if nshards <= nnodes:
        # Balanced node blocks: boundaries land on node multiples.
        cuts = [
            min((i * nnodes // nshards) * rpn, nranks)
            for i in range(nshards + 1)
        ]
        cuts[-1] = nranks
    else:
        cuts = [i * nranks // nshards for i in range(nshards + 1)]
    bounds = tuple(
        (cuts[i], cuts[i + 1]) for i in range(nshards)
    )
    node_aligned = all(lo % rpn == 0 for lo, _hi in bounds)
    lookahead = spec.cross_shard_lookahead(node_aligned)
    if nshards > 1 and lookahead <= 0:
        warnings.warn(
            f"REPRO_SIM_SHARDS={nshards} requested but spec {spec.name!r} "
            f"yields lookahead {lookahead!r} <= 0 (a zero-latency pair "
            "leaves no safe window); falling back to a single shard",
            ShardFallbackWarning,
            stacklevel=2,
        )
        return plan_shards(nranks, spec, 1)
    owner = [0] * nranks
    for shard, (lo, hi) in enumerate(bounds):
        for r in range(lo, hi):
            owner[r] = shard
    return ShardPlan(
        nshards=nshards,
        nranks=nranks,
        bounds=bounds,
        owner=tuple(owner),
        lookahead=lookahead if nshards > 1 else 0.0,
        node_aligned=node_aligned,
    )


# -- spawn-safe run workers --------------------------------------------------
#
# Everything below must stay importable at module top level (the spawn
# start method pickles ``run_app_config`` by qualified name) and must only
# exchange plain JSON-able dicts with the parent.

#: Apps the worker can run, resolved by name so configs stay picklable.
WORKER_APPS = {
    "randomaccess": ("repro.apps.randomaccess", "run_randomaccess"),
    "fft": ("repro.apps.fft", "run_fft"),
    "cgpop": ("repro.apps.cgpop", "run_cgpop"),
}


def run_app_config(config: dict) -> dict:
    """Run one app configuration and return a JSON-able summary.

    ``config`` keys: ``app`` (a :data:`WORKER_APPS` name), ``nranks``,
    optional ``backend`` (default ``mpi``), ``platform`` (a
    :mod:`repro.platforms` name; default the generic spec), ``shards``
    (int or None for env gating), ``kwargs`` (forwarded to the app), and
    ``env`` (environment overrides such as ``REPRO_SIM_DIGEST`` — applied
    to this process, which is why this function is meant for spawn
    workers; in-process callers should set the environment themselves).

    The summary carries the determinism fingerprints the equivalence
    suite compares: the global ``order_digest``, per-shard digests, the
    virtual makespan (exact — floats survive pickling bit-for-bit),
    executed event counts and the engine's shard statistics. It also
    reports ``wall_s`` (measured in-child around the run itself, so a
    spawn-per-measurement benchmark sees neither interpreter start-up
    nor any state accumulated by earlier runs), ``figures`` (the
    scalar fields of the rank-0 app result, e.g. GUPS or GFLOP/s) and
    ``cpus`` (the worker's sorted CPU affinity mask, ``None`` where the
    platform has none).
    """
    import dataclasses
    import importlib
    import time

    for key, value in config.get("env", {}).items():
        os.environ[key] = value
    app_name = config["app"]
    if app_name not in WORKER_APPS:
        raise SimulationError(
            f"unknown worker app {app_name!r}; choose from {sorted(WORKER_APPS)}"
        )
    mod_name, fn_name = WORKER_APPS[app_name]
    app = getattr(importlib.import_module(mod_name), fn_name)
    from repro.caf.program import run_caf
    from repro.sim.network import MachineSpec

    platform = config.get("platform")
    if platform is None:
        spec = MachineSpec(name="generic")
    else:
        from repro.platforms import PLATFORMS

        spec = PLATFORMS[platform]
    t0 = time.perf_counter()
    run = run_caf(
        app,
        config["nranks"],
        spec,
        backend=config.get("backend", "mpi"),
        shards=config.get("shards"),
        digest_partition=config.get("digest_partition"),
        **config.get("kwargs", {}),
    )
    wall = time.perf_counter() - t0
    engine = run.cluster.engine
    plan = run.cluster.shard_plan
    stats = engine.shard_stats() if plan is not None else None
    result = run.results[0]
    figures = {
        key: value
        for key, value in dataclasses.asdict(result).items()
        if isinstance(value, (int, float))
    }
    return {
        "app": app_name,
        "nranks": config["nranks"],
        "backend": config.get("backend", "mpi"),
        "shards": plan.nshards if plan is not None else 1,
        "digest": engine.order_digest(),
        "shard_digests": engine.shard_digests(),
        "makespan": run.elapsed,
        "wall_s": wall,
        "figures": figures,
        "events": engine.events_executed,
        "profiler_totals": {
            cat: run.profiler.total(cat) for cat in run.profiler.categories()
        },
        "shard_stats": stats,
        "cpus": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
    }


def _pin_worker(counter, cpus: list[int]) -> None:
    """Pool initializer: pin the n-th worker started to ``cpus[n % len(cpus)]``."""
    with counter.get_lock():
        slot = counter.value
        counter.value += 1
    try:
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
    except (AttributeError, OSError):
        pass  # cannot pin here: keep the inherited mask


def run_configs_parallel(
    configs: list[dict], *, processes: int | None = None
) -> list[dict]:
    """Run configurations across OS worker processes (spawn context).

    Each config gets a fresh interpreter, so environment overrides and
    engine state never leak between runs — and on a multi-core host the
    batch genuinely executes in parallel. The pool defaults to one worker
    per CPU in the caller's affinity mask (capped at the batch size), and
    each worker is pinned to its own allowed CPU, so no two workers share
    a core while ``processes`` does not exceed the allowed CPUs. Results
    come back in input order.
    """
    if not configs:
        return []
    import multiprocessing

    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    else:
        cpus = list(range(os.cpu_count() or 1))
    nproc = processes or min(len(configs), len(cpus))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(
        processes=max(1, nproc),
        initializer=_pin_worker,
        initargs=(ctx.Value("i", 0), cpus),
    ) as pool:
        return pool.map(run_app_config, configs)
