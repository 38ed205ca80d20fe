"""Per-layer timing spans, installed from outside around the simulator.

Nothing under ``src/`` knows about these spans: :class:`Tracer` replaces
public functions and methods of ``repro.sim``, ``repro.caf``, ``repro.mpi``,
``repro.gasnet`` and ``repro.ir`` with wrappers that time each call and
then call the original.

Each span reads two clocks on the calling thread:

* ``time.thread_time_ns`` -- CPU of this thread. The engine runs exactly one
  rank fiber (one OS thread) at a time, so the wall interval of a blocking
  call also contains other ranks' execution; thread CPU does not.
* ``time.perf_counter_ns`` -- wall time.

``self_cpu`` is a span's thread CPU minus that of the spans nested in it.
``wait`` is span wall minus span thread CPU: the seconds the calling rank
sat parked (or descheduled) inside the call, summed over ranks.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

FULL = ("calls", "self_cpu_s", "wait_s")

#: (metric prefix, module, attribute path, stats reported).
SPANS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("sim.engine.block", "repro.sim.engine", "Proc.block", FULL),
    ("sim.engine.sleep", "repro.sim.engine", "Proc.sleep", FULL),
    ("sim.network.transfer", "repro.sim.network", "NetFabric.transfer",
     ("calls", "self_cpu_s")),
    ("caf.coarray.write", "repro.caf.coarray", "Coarray.write", FULL),
    ("caf.coarray.read", "repro.caf.coarray", "Coarray.read", FULL),
    ("caf.events.notify", "repro.caf.events", "EventArray.notify", FULL),
    ("caf.events.wait", "repro.caf.events", "EventArray.wait", FULL),
    ("caf.image.sync_all", "repro.caf.image", "Image.sync_all", FULL),
    ("caf.image.team_alltoall", "repro.caf.image", "Image.team_alltoall", FULL),
    ("caf.image.compute", "repro.caf.image", "Image.compute", FULL),
    ("caf.image.allocate_coarray", "repro.caf.image", "Image.allocate_coarray", FULL),
    ("mpi.window.put", "repro.mpi.window", "Window.put", FULL),
    ("mpi.window.rput", "repro.mpi.window", "Window.rput", FULL),
    ("mpi.window.get", "repro.mpi.window", "Window.get", FULL),
    ("mpi.window.rget", "repro.mpi.window", "Window.rget", FULL),
    ("mpi.window.accumulate", "repro.mpi.window", "Window.accumulate", FULL),
    ("mpi.window.flush", "repro.mpi.window", "Window.flush", FULL),
    ("mpi.window.flush_all", "repro.mpi.window", "Window.flush_all", FULL),
    ("mpi.window.lock_all", "repro.mpi.window", "Window.lock_all", FULL),
    ("mpi.comm.allreduce", "repro.mpi.comm", "Comm.allreduce", FULL),
    ("mpi.comm.alltoall", "repro.mpi.comm", "Comm.alltoall", FULL),
    ("mpi.comm.isend", "repro.mpi.comm", "Comm.isend", FULL),
    ("mpi.comm.recv", "repro.mpi.comm", "Comm.recv", FULL),
    ("gasnet.core.put_nb", "repro.gasnet.core", "GasnetRank.put_nb", FULL),
    ("gasnet.core.get_nb", "repro.gasnet.core", "GasnetRank.get_nb", FULL),
    ("gasnet.core.am_request_short", "repro.gasnet.core",
     "GasnetRank.am_request_short", FULL),
    ("gasnet.core.am_request_medium", "repro.gasnet.core",
     "GasnetRank.am_request_medium", FULL),
    ("gasnet.core.poll", "repro.gasnet.core", "GasnetRank.poll", FULL),
    ("gasnet.core.block_until", "repro.gasnet.core", "GasnetRank.block_until", FULL),
    ("gasnet.core.wait_syncnb", "repro.gasnet.core", "GasnetRank.wait_syncnb", FULL),
    ("gasnet.collectives.alltoall", "repro.gasnet.collectives",
     "TeamExchange.alltoall", FULL),
    ("ir.compile", "repro.ir.replay", "CompiledTrace.__init__", ("self_cpu_s",)),
    ("ir.replay", "repro.ir.replay", "replay", ("calls", "self_cpu_s")),
)

#: Modules that bound a spanned function by name at import, so they must
#: be patched too for their calls to be seen.
ALIASES = {"ir.replay": ("repro.ir.sweep",)}

#: The program body of every rank; its self CPU is app code plus numpy.
BODY = "apps.body"


class Tracer:
    """Collects ``[calls, self_cpu_ns, wait_ns]`` per span name."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self._local = threading.local()

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span that accumulates into ``name``."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        local = self._local
        thread_ns = time.thread_time_ns
        wall_ns = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # One cell per open span: nested spans add their CPU here.
            child_ns = [0]
            stack.append(child_ns)
            w0 = wall_ns()
            c0 = thread_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_ns() - c0
                wall = wall_ns() - w0
                stack.pop()
                stats[0] += 1
                stats[1] += cpu - child_ns[0]
                stats[2] += wall - cpu
                if stack:
                    stack[-1][0] += cpu

        return traced

    def install(self) -> None:
        """Wrap every function in :data:`SPANS` for the rest of the process."""
        for prefix, mod_name, attr, _stats in SPANS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = self.wrap(prefix, original)
            setattr(owner, leaf, traced)
            for alias in ALIASES.get(prefix, ()):
                setattr(importlib.import_module(alias), leaf, traced)

    def total_self_cpu_s(self) -> float:
        return sum(s[1] for s in self.stats.values()) / 1e9

    def metrics(self) -> dict[str, float]:
        """Every span statistic by metric name, zero for spans never entered."""
        out: dict[str, float] = {}
        for prefix, _mod, _attr, stats in SPANS:
            calls, self_ns, wait_ns = self.stats.get(prefix, (0, 0, 0))
            values = {"calls": calls, "self_cpu_s": self_ns / 1e9, "wait_s": wait_ns / 1e9}
            for stat in stats:
                out[f"{prefix}.{stat}"] = values[stat]
        out[f"{BODY}.self_cpu_s"] = self.stats.get(BODY, (0, 0, 0))[1] / 1e9
        return out
