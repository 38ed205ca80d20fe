"""Deterministic discrete-event engine with pluggable process substrates.

Design
------
* The engine owns a priority queue of ``(time, seq, event)`` entries and a
  virtual clock. ``seq`` is a monotone counter so ties break
  deterministically in scheduling order. Events are either plain callbacks
  or :class:`_Resume` tokens naming a process and the block generation they
  target.
* Each simulated process (:class:`Proc`) runs user code on its own fiber
  (an OS thread by default, a greenlet when ``REPRO_SIM_SUBSTRATE=greenlet``),
  but the engine guarantees **exactly one fiber runs at a time**. This gives
  plain blocking-style user code, determinism, and free atomicity for all
  simulator state.
* A process yields with :meth:`Proc.block` and is resumed by
  :meth:`Proc.wake`, which schedules a resume event at the waker's current
  time. :meth:`Proc.sleep` advances the process's local time, which is how
  modeled compute/communication costs are charged. Every block carries a
  generation number; resume events for an older generation are ignored, and
  duplicate wakes of the same generation are dropped at the call site
  without allocating an event.
* Because scheduling is cooperative, nothing can run between a process
  registering itself in a wait list and blocking — lost wake-ups cannot
  happen as long as wakers only wake registered waiters.
* When the event queue empties while live processes remain blocked, the
  engine raises :class:`~repro.util.errors.DeadlockError` naming each
  blocked process's call site — the hazard of Figure 2 of the paper.

Fast path vs. legacy scheduler
------------------------------
The default dispatcher (the *fast path*) has no scheduler thread: whichever
fiber holds the baton runs the dispatch loop itself. Generic callbacks
execute inline on the current OS thread; when the next event is a resume of
another process the baton is handed over directly (one context switch
instead of the legacy round trip's two), and when a process sleeps with no
earlier pending event it simply advances the clock and keeps running (zero
switches, no heap traffic). Same-time events bypass the heap through a FIFO
``_due`` deque, merged with the heap by ``(time, seq)`` so the executed
event order is *bit-identical* to the legacy scheduler's.

``REPRO_SIM_FASTPATH=0`` selects the legacy dispatcher — a dedicated
scheduler loop that round-trips through ``threading.Semaphore`` pairs for
every resume — kept as the measured baseline for the wall-clock perf
harness and as a cross-check that fast paths never alter virtual time.

Invariant: every wall-clock optimization here changes *how fast* the host
executes the schedule, never *which* schedule is executed. Virtual times,
event order (see :meth:`Engine.order_digest`), profiler totals and figure
outputs are identical across dispatchers and substrates.
"""

from __future__ import annotations

import _thread
import heapq
import os
import struct
import threading
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.sim import irhook as _irhook
from repro.util.errors import DeadlockError, SimTimeoutError, SimulationError

try:  # optional substrate; never required
    import greenlet as _greenlet_mod  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised only without greenlet
    _greenlet_mod = None

#: Event-order digest record: (virtual time, pid) — pid is -1 for callbacks.
_pack_order = struct.Struct("<dq").pack


def _pin_to_one_cpu() -> set[int] | None:
    """Pin the calling thread to one allowed CPU; return the mask it replaced.

    Only one fiber runs at a time, so a run gains nothing from a second
    core and pays a cross-core wakeup on every baton handoff. Threads
    inherit affinity at spawn, so every fiber started afterwards shares
    the core. Keeps the CPU the thread is on, else the lowest allowed one.
    Returns ``None`` (nothing to restore) when the mask already has one
    CPU or the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    mask = os.sched_getaffinity(0)
    if len(mask) <= 1:
        return None
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            cpu = int(f.read().rpartition(b")")[2].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        cpu = -1
    try:
        os.sched_setaffinity(0, {cpu if cpu in mask else min(mask)})
    except OSError:
        return None
    return mask


class _Killed(BaseException):
    """Raised inside a process fiber to unwind it during engine teardown.

    Derives from ``BaseException`` so user ``except Exception`` blocks cannot
    swallow it.
    """


class _Resume:
    """A scheduled resume of ``proc``, valid only for block generation ``gen``."""

    __slots__ = ("proc", "gen")

    def __init__(self, proc: Proc, gen: int):
        self.proc = proc
        self.gen = gen


class Proc:
    """A simulated process: user code plus scheduling state.

    The target callable receives this object (usually wrapped in a richer
    per-rank context) and may only interact with the engine while it is the
    running process.
    """

    NEW = "new"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"

    def __init__(
        self,
        engine: Engine,
        pid: int,
        target: Callable[[Proc], Any],
        name: str,
        daemon: bool = False,
    ):
        self.engine = engine
        self.pid = pid
        self.name = name
        #: Owning shard (always 0 under the sequential engine). Set at
        #: creation from the engine's spawn context so the very first
        #: resume can already be routed (see ShardedEngine.spawn).
        self.shard = engine._spawn_shard
        #: Daemon processes (library progress agents) may outlive the
        #: program: they neither block run() completion nor count as
        #: deadlocked when everything else finishes.
        self.daemon = daemon
        self.state = Proc.NEW
        self.block_reason = "not started"
        #: Virtual time this process last resumed execution — the watchdog
        #: and deadlock diagnostics report it so a hung rank can be told
        #: apart from a slow one.
        self.last_progress = 0.0
        #: Set by :meth:`_crash`: the process was killed mid-run by an
        #: injected image-crash event (not normal teardown).
        self.crashed = False
        self.result: Any = None
        self._target = target
        self._killed = False
        self._gen = 0  # generation of the current block; stale resumes are ignored
        #: Generation for which a resume event is already scheduled; wakes
        #: targeting the same generation are dropped at the call site.
        self._woken_gen = -1
        self._wake_payload: Any = None
        if engine._greenlet:
            self._glet: Any = None  # created lazily in _start (needs greenlet)
        elif engine._fastpath:
            # Raw lock as a pre-locked baton: park = acquire, resume = release.
            # ~5x cheaper than threading.Semaphore's pure-python Condition.
            self._baton = _thread.allocate_lock()
            self._baton.acquire()
            self._thread = threading.Thread(
                target=self._run, name=f"sim-{name}", daemon=True
            )
        else:
            self._sem = threading.Semaphore(0)
            self._thread = threading.Thread(
                target=self._run, name=f"sim-{name}", daemon=True
            )

    # -- scheduler side -------------------------------------------------

    def _start(self) -> None:
        eng = self.engine
        if eng._greenlet:
            # Parent is the main greenlet so a normally-dying fiber returns
            # control to run(); killers re-parent before throwing.
            self._glet = _greenlet_mod.greenlet(self._glet_run, eng._main_glet)
        else:
            self._thread.start()
        eng._schedule_resume(eng.now, self, 0)

    def _legacy_resume(self) -> None:
        """Legacy dispatcher: hand the baton over and wait for it back."""
        engine = self.engine
        engine._make_running(self)
        self._sem.release()
        engine._control.acquire()
        engine._current = None

    def _kill(self) -> None:
        """Engine-teardown kill: unwind the fiber and wait for it to die."""
        if self.state == Proc.DONE:
            return
        self._killed = True
        eng = self.engine
        if eng._greenlet:
            if self._glet is not None and not self._glet.dead:
                self._glet.parent = _greenlet_mod.getcurrent()
                self._glet.throw(_Killed)
            self.state = Proc.DONE
        elif eng._fastpath:
            self._baton.release()
            self._thread.join()
        else:
            self._sem.release()
            self._thread.join()

    def _crash(self) -> None:
        """Kill this process mid-run (an injected image crash).

        Must be called from dispatcher context while the process is parked
        (blocked or awaiting a resume), which injected crash events always
        are. Under the legacy dispatcher the dying thread's ``finally``
        releases the engine's control semaphore once as it unwinds; nobody
        is waiting on that release, so re-acquire it to keep the scheduler
        handshake balanced. The fast path has no such imbalance: a killed
        fiber neither dispatches nor signals.
        """
        if self.state == Proc.DONE:
            return
        self.crashed = True
        self._killed = True
        eng = self.engine
        if eng._greenlet:
            if self._glet is not None and _greenlet_mod.getcurrent() is self._glet:
                # The crash event fired while this process's own fiber was
                # dispatching (fast path runs callbacks inline). Mark it dead
                # now — wakes and pending resumes are dropped from here on —
                # and let _park unwind the fiber once dispatch hands off.
                self.state = Proc.DONE
                return
            if self._glet is not None and not self._glet.dead:
                # Die back to the killer (which may itself be a proc fiber
                # running a crash callback), not to the main greenlet.
                self._glet.parent = _greenlet_mod.getcurrent()
                self._glet.throw(_Killed)
            self.state = Proc.DONE
        elif eng._fastpath:
            if threading.current_thread() is self._thread:
                self.state = Proc.DONE  # as above: deferred self-kill
                return
            self._baton.release()
            self._thread.join()
        else:
            self._sem.release()
            self._thread.join()
            eng._control.acquire()

    # -- process side ---------------------------------------------------

    def _run(self) -> None:
        eng = self.engine
        fast = eng._fastpath
        if fast:
            self._baton.acquire()  # wait for the initial resume
        else:
            self._sem.acquire()
        if self._killed:
            self.state = Proc.DONE
            if not fast:
                eng._control.release()
            return
        try:
            self.result = self._target(self)
        except _Killed:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to scheduler
            # A crashed process may explode in user ``finally`` blocks while
            # unwinding; those secondary failures are part of the injected
            # crash, not program bugs, so only live processes report.
            if not self._killed and eng._failure is None:
                eng._failure = exc
        finally:
            self.state = Proc.DONE
            if not fast:
                eng._control.release()
            elif not self._killed:
                # Fast path: the dying fiber dispatches whatever comes next
                # (or signals the end of the run) before its thread exits.
                eng._current = None
                nxt = eng._advance()
                if nxt is not None:
                    nxt._baton.release()
                else:
                    eng._end.release()

    def _glet_run(self) -> None:
        eng = self.engine
        try:
            self.result = self._target(self)
        except _Killed:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to scheduler
            if not self._killed and eng._failure is None:
                eng._failure = exc
        finally:
            self.state = Proc.DONE
        if self._killed:
            return  # dies; control passes to the killer via parent
        eng._current = None
        nxt = eng._advance()
        if nxt is not None:
            nxt._glet.switch()
        else:
            eng._main_glet.switch()

    def _yield_to_scheduler(self) -> None:
        """Legacy dispatcher park: two semaphore handoffs per round trip."""
        self.engine._control.release()
        self._sem.acquire()
        if self._killed:
            raise _Killed
        self.state = Proc.RUNNING

    def _park(self) -> None:
        """Fast-path park: run the dispatch loop on this fiber.

        Callbacks execute inline; a self-resume returns without any context
        switch; a resume of another process hands the baton over directly
        (one switch instead of the legacy round trip's two).
        """
        eng = self.engine
        eng._current = None
        nxt = eng._advance()
        if self._killed:
            # An inline crash callback killed *this* fiber while it was
            # dispatching (state is already DONE, so nxt is never self).
            # Hand the baton on, then unwind our own suspended user frames.
            if eng._greenlet:
                cur = _greenlet_mod.getcurrent()
                cur.parent = nxt._glet if nxt is not None else eng._main_glet
            elif nxt is not None:
                nxt._baton.release()
            else:
                eng._end.release()
            raise _Killed
        if nxt is self:
            return
        if eng._greenlet:
            if nxt is not None:
                nxt._glet.switch()
            else:
                eng._main_glet.switch()
            # resumed by a later switch; a kill arrives as _Killed here
        else:
            if nxt is not None:
                nxt._baton.release()
            else:
                eng._end.release()
            self._baton.acquire()
            if self._killed:
                raise _Killed

    def block(self, reason: str) -> Any:
        """Yield until some other party calls :meth:`wake`.

        The caller must have registered itself with whatever structure will
        eventually wake it *before* blocking. Returns the payload passed to
        ``wake``.
        """
        self._check_running("block")
        self._gen += 1
        self.state = Proc.BLOCKED
        self.block_reason = reason
        if self.engine._fastpath:
            self._park()
        else:
            self._yield_to_scheduler()
        payload, self._wake_payload = self._wake_payload, None
        return payload

    def wake(self, payload: Any = None) -> None:
        """Schedule this process to resume at the engine's current time.

        A wake targets the process's *current* block; if the process blocks
        again before the resume event fires, the stale resume is ignored
        (the waker must wake it again through the new wait structure).
        Waking a generation that already has a pending resume is a no-op —
        the duplicate is dropped here, at the call site, without allocating
        an event that the dispatcher would discard later. The duplicate's
        ``payload`` is discarded with it: the *first* wake of a generation
        determines the payload the blocked process receives (the legacy
        scheduler delivered the last one, but no double-wake ever carries
        two distinct payloads in practice — a waker whose payload matters
        must target a fresh block, i.e. a new generation).
        """
        if self.state == Proc.DONE and self._killed:
            # A crashed (or torn-down) process may still sit in waiter
            # lists; dropping the wake lets survivors carry on.
            return
        if self.state != Proc.BLOCKED:
            raise SimulationError(f"wake() on non-blocked {self!r}")
        engine = self.engine
        if self._woken_gen == self._gen:
            engine.stale_wakes_dropped += 1
            return
        self._wake_payload = payload
        engine._schedule_resume(engine.now, self, self._gen)

    def sleep(self, duration: float) -> None:
        """Advance this process's local (virtual) time by ``duration``."""
        self._check_running("sleep")
        if duration < 0:
            raise SimulationError(f"cannot sleep for negative time {duration!r}")
        rec = _irhook.RECORDER
        if rec is not None:
            # Before the zero-duration fast exit: the cost expression may be
            # nonzero under the replay target spec even when it is zero here.
            rec.on_sleep(duration)
        if duration == 0:
            return
        engine = self.engine
        when = engine.now + duration
        if (
            engine._fastpath
            and not engine._due
            and (engine._deadline is None or when <= engine._deadline)
        ):
            heap = engine._heap
            if not heap or heap[0][0] > when:
                # Nothing can run before this sleep ends: advance the clock
                # in place. No event, no heap traffic, no context switch.
                # The executed schedule is identical — the legacy path would
                # pop this resume next with nothing in between.
                self._gen += 1
                engine.now = when
                engine.events_executed += 1
                engine._make_running(self)
                return
        self._gen += 1
        self.state = Proc.BLOCKED
        self.block_reason = f"sleep({duration:g})"
        engine._schedule_resume(when, self, self._gen)
        if engine._fastpath:
            self._park()
        else:
            self._yield_to_scheduler()

    def _check_running(self, op: str) -> None:
        if self.engine._current is not self:
            raise SimulationError(
                f"{op}() called from outside the running process "
                f"(current={self.engine._current}, self={self})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Proc {self.pid} {self.name!r} {self.state}>"


class Engine:
    """Event queue, virtual clock and process registry.

    Parameters
    ----------
    fastpath:
        Select the dispatcher. ``None`` (default) reads ``REPRO_SIM_FASTPATH``
        (default on); ``False`` forces the legacy scheduler-thread loop.
    substrate:
        Process substrate: ``"threads"`` (default) or ``"greenlet"``.
        ``None`` reads ``REPRO_SIM_SUBSTRATE``. Both substrates execute
        bit-identical event orders; greenlet needs no OS threads at all.
    """

    def __init__(
        self, *, fastpath: bool | None = None, substrate: str | None = None
    ) -> None:
        if fastpath is None:
            fastpath = os.environ.get("REPRO_SIM_FASTPATH", "1") != "0"
        if substrate is None:
            substrate = os.environ.get("REPRO_SIM_SUBSTRATE", "threads")
        if substrate not in ("threads", "greenlet"):
            raise SimulationError(
                f"unknown process substrate {substrate!r} "
                "(expected 'threads' or 'greenlet')"
            )
        if substrate == "greenlet":
            if _greenlet_mod is None:
                raise SimulationError(
                    "REPRO_SIM_SUBSTRATE=greenlet requested but the greenlet "
                    "package is not installed; use the default threads substrate"
                )
            if not fastpath:
                raise SimulationError(
                    "the greenlet substrate requires the fast-path dispatcher "
                    "(unset REPRO_SIM_FASTPATH=0)"
                )
        self._fastpath = fastpath
        self._greenlet = substrate == "greenlet"
        self.substrate = substrate
        self._heap: list[tuple[float, int, Any]] = []
        #: Same-time events (``when == now``) bypass the heap through this
        #: FIFO; it stays sorted by ``(when, seq)`` because ``now`` never
        #: decreases, and is merged with the heap head on pop.
        self._due: deque[tuple[float, int, Any]] = deque()
        self._seq = 0
        self.now = 0.0
        self.procs: list[Proc] = []
        self._control = threading.Semaphore(0)  # legacy dispatcher handshake
        self._end = _thread.allocate_lock()  # fast path run-over signal
        self._end.acquire()
        self._main_glet: Any = None
        self._current: Proc | None = None
        #: Attached by :class:`~repro.sim.cluster.Cluster` when sanitizing;
        #: every scheduling point of a rank process ticks its vector clock.
        self.sanitizer = None
        #: Attached by the cluster when live telemetry is armed
        #: (:class:`~repro.obs.live.LiveTelemetry`); every executed resume
        #: offers the tap a heartbeat. Same zero-cost-off contract as the
        #: sanitizer: one attribute load plus an ``is None`` test. The
        #: pacing countdown lives here, not on the tap, so the armed cost
        #: is one decrement per event — the tap only sees every
        #: ``check_every``-th resume.
        self.telemetry = None
        self._tel_countdown = 0
        self._failure: BaseException | None = None
        self._ran = False
        self._finished = False
        self._deadline: float | None = None
        self._timeout_info: tuple[dict[int, str], dict[int, float]] | None = None
        #: Executed events (live resumes + callbacks); stale resumes and
        #: dropped wakes are not counted. Identical across dispatchers for
        #: the same program, which is what makes events/sec comparable.
        self.events_executed = 0
        #: Duplicate same-generation wakes dropped at the call site.
        self.stale_wakes_dropped = 0
        #: Shard the next spawned Proc belongs to; the sequential engine
        #: leaves it at 0, ShardedEngine.spawn sets it per process.
        self._spawn_shard = 0
        self._digest: Any = None
        self._shard_digests: list[Any] | None = None
        self._shard_owner: tuple[int, ...] = ()
        if os.environ.get("REPRO_SIM_DIGEST"):
            self.enable_order_digest()

    # -- construction ---------------------------------------------------

    def spawn(
        self,
        target: Callable[[Proc], Any],
        name: str | None = None,
        *,
        daemon: bool = False,
    ) -> Proc:
        """Register a new process.

        Before :meth:`run`, the process starts at virtual time 0. During a
        run (e.g. a library spawning a progress agent), it starts at the
        current virtual time. Daemon processes neither hold the run open
        nor count as deadlocked.
        """
        if self._finished:
            raise SimulationError("cannot spawn after the engine has finished")
        pid = len(self.procs)
        proc = Proc(self, pid, target, name or f"proc{pid}", daemon=daemon)
        self.procs.append(proc)
        if self._ran:
            proc._start()
        return proc

    # -- event-order digest ---------------------------------------------

    def enable_order_digest(self, shard_plan: Any = None) -> None:
        """Start hashing the executed event order (must precede :meth:`run`).

        The digest covers ``(virtual time, pid)`` for every live resume and
        ``(virtual time, -1)`` for every callback, in execution order — the
        determinism fingerprint compared across dispatchers and substrates.
        Also enabled by setting ``REPRO_SIM_DIGEST`` in the environment.

        ``shard_plan`` (a :class:`~repro.sim.shard.ShardPlan`) additionally
        keeps one digest per shard over the resumes of that shard's rank
        processes — the partition-local fingerprint the sharded engine and
        its sequential baseline compare. The global digest is unaffected.
        """
        if self._digest is None:
            import hashlib

            self._digest = hashlib.blake2b(digest_size=16)
        if shard_plan is not None and self._shard_digests is None:
            import hashlib

            self._shard_owner = shard_plan.owner
            self._shard_digests = [
                hashlib.blake2b(digest_size=16)
                for _ in range(shard_plan.nshards)
            ]

    def order_digest(self) -> str | None:
        """Hex digest of the executed event order, or ``None`` if disabled."""
        return self._digest.hexdigest() if self._digest is not None else None

    def shard_digests(self) -> list[str] | None:
        """Per-shard hex digests, or ``None`` when not tracking a plan.

        Shard *k*'s digest hashes ``(virtual time, pid)`` for every
        executed resume of a rank process owned by shard *k*, in execution
        order. It is a pure relabeling of the global digest stream, so a
        sequential engine handed the same plan produces bit-identical
        values — which is exactly the equivalence the shard suite asserts.
        """
        if self._shard_digests is None:
            return None
        return [d.hexdigest() for d in self._shard_digests]

    # -- event queue -----------------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn()`` to run in dispatcher context at virtual time ``when``."""
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < now={now})"
            )
        rec = _irhook.RECORDER
        if rec is not None:
            fn = rec.on_call_at(when - now, fn)
        entry = (when, self._seq, fn)
        self._seq += 1
        if when == now and self._fastpath:
            self._due.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def call_at_shard(
        self, when: float, fn: Callable[[], None], shard: int
    ) -> None:
        """Schedule ``fn`` with an explicit owning shard.

        The sequential engine has a single partition, so ``shard`` is
        ignored here; ShardedEngine overrides this to route the event.
        Callers that know the destination shard (the fabric delivering to
        a rank, the cluster seeding a crash) use this so the one call site
        works under both engines.
        """
        self.call_at(when, fn)

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        rec = _irhook.RECORDER
        if rec is not None:
            # Hand the recorder the caller's delay verbatim: call_at only
            # sees the absolute time, and ``(now + delay) - now`` is not
            # bit-identical to ``delay``. Replay re-adds the raw delay,
            # reproducing the live ``now + delay`` arithmetic exactly.
            rec.pending_delay = delay
        self.call_at(self.now + delay, fn)

    def _schedule_resume(self, when: float, proc: Proc, gen: int) -> None:
        proc._woken_gen = gen
        entry = (when, self._seq, _Resume(proc, gen))
        self._seq += 1
        if when == self.now and self._fastpath:
            self._due.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    # -- shared dispatcher pieces ----------------------------------------

    def _make_running(self, proc: Proc) -> None:
        proc.state = Proc.RUNNING
        proc.last_progress = self.now
        self._current = proc
        san = self.sanitizer
        if san is not None and proc.pid < san.nranks:
            san.tick(proc.pid)
        if self._digest is not None:
            self._digest.update(_pack_order(self.now, proc.pid))
            sd = self._shard_digests
            if sd is not None and proc.pid < len(self._shard_owner):
                sd[self._shard_owner[proc.pid]].update(
                    _pack_order(self.now, proc.pid)
                )
        tel = self.telemetry
        if tel is not None:
            # Read-only heartbeat: the tap inspects engine state and writes
            # to its own stream, never schedules — the event order (and so
            # the digest) is bit-identical with telemetry on or off.
            self._tel_countdown -= 1
            if self._tel_countdown <= 0:
                self._tel_countdown = tel.check_every
                tel.tick(self)

    def _advance(self) -> Proc | None:
        """Fast-path dispatch loop: run events until a process must resume.

        Executes callbacks inline on the calling fiber (with no process
        current) and returns the next process to run — already marked
        running — or ``None`` when the run is over (queue drained, deadline
        hit, or a failure recorded).
        """
        if self._failure is not None:
            return None
        heap = self._heap
        due = self._due
        pop = heapq.heappop
        deadline = self._deadline
        digest = self._digest
        while True:
            if due:
                d = due[0]
                if heap:
                    h = heap[0]
                    if h[0] < d[0] or (h[0] == d[0] and h[1] < d[1]):
                        ev = pop(heap)
                    else:
                        ev = due.popleft()
                else:
                    ev = due.popleft()
            elif heap:
                ev = pop(heap)
            else:
                return None
            when = ev[0]
            if deadline is not None and when > deadline:
                blocked = self._blocked_report()
                if blocked:
                    self.now = deadline
                    self._timeout_info = (blocked, self._progress_report())
                return None  # daemon-only activity past the deadline ends quietly
            self.now = when
            fn = ev[2]
            if type(fn) is _Resume:
                proc = fn.proc
                if fn.gen != proc._gen or proc.state == Proc.DONE:
                    continue  # stale resume (re-block or died process)
                self.events_executed += 1
                self._make_running(proc)
                return proc
            self.events_executed += 1
            if digest is not None:
                digest.update(_pack_order(when, -1))
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced from run()
                if self._failure is None:
                    self._failure = exc
            if self._failure is not None:
                return None

    # -- main loop ------------------------------------------------------

    def run(self, *, deadline: float | None = None) -> None:
        """Run until all processes finish. Must be called from the creating thread.

        ``deadline`` is a virtual-time watchdog: if the next event lies
        beyond it while non-daemon processes remain unfinished, the run
        aborts with :class:`SimTimeoutError` instead of spinning through
        (say) an unbounded retransmission schedule. Daemon-only activity
        past the deadline is not a hang; the run ends quietly.

        Raises
        ------
        DeadlockError
            If the event queue empties while unfinished processes remain.
        SimTimeoutError
            If ``deadline`` is reached with unfinished processes.
        Exception
            Re-raises the first exception raised inside any process.
        """
        if self._ran:
            raise SimulationError("engine can only run once")
        if deadline is not None and deadline < 0:
            raise SimulationError(f"deadline must be non-negative, got {deadline}")
        self._ran = True
        self._deadline = deadline
        saved_mask = _pin_to_one_cpu()
        try:
            if self._greenlet:
                self._main_glet = _greenlet_mod.getcurrent()
            for proc in self.procs:
                proc._start()
            if self._fastpath:
                self._run_fast()
            else:
                self._run_legacy(deadline)
        finally:
            self._finished = True
            for proc in self.procs:
                proc._kill()
            if saved_mask is not None:
                os.sched_setaffinity(0, saved_mask)

    def _run_fast(self) -> None:
        first = self._advance()
        if first is not None:
            if self._greenlet:
                first._glet.switch()  # returns when the run is over
            else:
                first._baton.release()
                self._end.acquire()  # released by whichever fiber ends the run
        if self._timeout_info is not None:
            blocked, progress = self._timeout_info
            raise SimTimeoutError(self._deadline, blocked, last_progress=progress)
        if self._failure is not None:
            raise self._failure
        blocked = self._blocked_report()
        if blocked:
            raise DeadlockError(
                blocked, now=self.now, last_progress=self._progress_report()
            )

    def _run_legacy(self, deadline: float | None) -> None:
        """The pre-fast-path scheduler loop: every event pops here, every
        resume round-trips through a semaphore pair. Kept verbatim as the
        perf baseline and as a determinism cross-check."""
        digest = self._digest
        while self._heap:
            when, _seq, fn = heapq.heappop(self._heap)
            if deadline is not None and when > deadline:
                blocked = self._blocked_report()
                if not blocked:
                    break  # only daemon housekeeping remains
                self.now = deadline
                raise SimTimeoutError(
                    deadline, blocked, last_progress=self._progress_report()
                )
            self.now = when
            if type(fn) is _Resume:
                proc = fn.proc
                if fn.gen == proc._gen and proc.state != Proc.DONE:
                    self.events_executed += 1
                    proc._legacy_resume()
            else:
                self.events_executed += 1
                if digest is not None:
                    digest.update(_pack_order(when, -1))
                fn()
            if self._failure is not None:
                raise self._failure
        blocked = self._blocked_report()
        if blocked:
            raise DeadlockError(
                blocked, now=self.now, last_progress=self._progress_report()
            )

    def _blocked_report(self) -> dict[int, str]:
        """Per-rank call-site of every unfinished, non-daemon process."""
        return {
            p.pid: p.block_reason
            for p in self.procs
            if p.state != Proc.DONE and not p.daemon
        }

    def _progress_report(self) -> dict[int, float]:
        return {
            p.pid: p.last_progress
            for p in self.procs
            if p.state != Proc.DONE and not p.daemon
        }

    def unfinished(self) -> list[Proc]:
        return [p for p in self.procs if p.state != Proc.DONE]


class ShardedEngine(Engine):
    """Conservative windowed dispatcher over a fixed rank partition.

    Gated behind ``REPRO_SIM_SHARDS=N`` (see :mod:`repro.sim.shard`), the
    way ``REPRO_SIM_FASTPATH`` gates the fast path. Every event carries
    its owning shard: resumes belong to their process's shard, fabric
    deliveries to the destination rank's shard (routed through
    :meth:`call_at_shard`), and plain callbacks to the scheduling
    context's shard. Dispatch runs the conservative-PDES window protocol:
    the run is a sequence of *epochs*, each covering the safe window
    ``[T, T + lookahead)`` where ``T`` is the globally earliest pending
    event (the LBTS bound, :mod:`repro.sim.lbts`); cross-shard messages
    are accounted against the epoch they were sent in, and the engine
    asserts the conservative guarantee — a cross-shard delivery never
    lands earlier than ``send time + lookahead`` (violations are counted
    and tested to be zero, not silently absorbed).

    Events still execute in global ``(time, seq)`` order — the windows
    partition that order, they never permute it — so virtual times, the
    global order digest, profiler totals and figure outputs are
    bit-identical to the sequential dispatcher by construction, and the
    per-shard digests factor the same schedule by partition. Rank state
    (coarrays, AM boards, delivery closures) lives in one shared object
    graph, so one run's shards share an address space; OS-process
    parallelism happens at the run level (see
    :func:`repro.sim.shard.run_configs_parallel`).
    """

    def __init__(
        self, plan, *, fastpath: bool | None = None, substrate: str | None = None
    ) -> None:
        super().__init__(fastpath=fastpath, substrate=substrate)
        if not self._fastpath:
            raise SimulationError(
                "REPRO_SIM_SHARDS>1 requires the fast-path dispatcher "
                "(unset REPRO_SIM_FASTPATH=0)"
            )
        if not plan.is_sharded:
            raise SimulationError(
                "ShardedEngine needs a plan with nshards > 1; "
                "use Engine for sequential runs"
            )
        from repro.sim.lbts import LbtsController

        self.plan = plan
        self.nshards = plan.nshards
        self.lbts = LbtsController(plan.nshards, plan.lookahead)
        self._window_end = -float("inf")
        #: Shard owning the event currently dispatching (callback context).
        self._dispatch_shard = 0
        self.events_per_shard = [0] * plan.nshards
        self.cross_messages = 0
        self.cross_bytes = 0
        #: Same-time cross-shard wakes (completion/agreement signals): the
        #: interactions a fully distributed implementation would carry on
        #: a coordinator ack channel because they undercut the lookahead.
        self.coordinator_signals = 0
        #: Cross-shard deliveries below ``send + lookahead`` — must be 0.
        self.lookahead_violations = 0
        if self._digest is not None:
            # REPRO_SIM_DIGEST was read by Engine.__init__ before the plan
            # existed; upgrade to per-shard tracking now.
            self.enable_order_digest(plan)

    def enable_order_digest(self, shard_plan: Any = None) -> None:
        # May fire from Engine.__init__ (REPRO_SIM_DIGEST) before the plan
        # is attached; __init__ re-runs it with the plan right after.
        super().enable_order_digest(
            shard_plan if shard_plan is not None else getattr(self, "plan", None)
        )

    # -- shard routing ---------------------------------------------------

    def _context_shard(self) -> int:
        cur = self._current
        return cur.shard if cur is not None else self._dispatch_shard

    def spawn(
        self,
        target: Callable[[Proc], Any],
        name: str | None = None,
        *,
        daemon: bool = False,
    ) -> Proc:
        """Rank processes land on their plan shard; library agents spawned
        mid-run inherit the spawning context's shard."""
        pid = len(self.procs)
        if pid < self.plan.nranks:
            self._spawn_shard = self.plan.owner[pid]
        else:
            self._spawn_shard = self._context_shard()
        return super().spawn(target, name, daemon=daemon)

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        self.call_at_shard(when, fn, self._context_shard())

    def call_at_shard(
        self, when: float, fn: Callable[[], None], shard: int
    ) -> None:
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule event in the past ({when} < now={now})"
            )
        entry = (when, self._seq, fn, shard)
        self._seq += 1
        if when == now:
            self._due.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def _schedule_resume(self, when: float, proc: Proc, gen: int) -> None:
        proc._woken_gen = gen
        shard = proc.shard
        if shard != self._context_shard() and when == self.now:
            self.coordinator_signals += 1
        entry = (when, self._seq, _Resume(proc, gen), shard)
        self._seq += 1
        if when == self.now:
            self._due.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def note_cross(
        self, src_shard: int, dst_shard: int, nbytes: int, deliver: float
    ) -> None:
        """Fabric hook: one cross-shard message scheduled for ``deliver``."""
        self.cross_messages += 1
        self.cross_bytes += nbytes
        if deliver < self.now + self.plan.lookahead:
            self.lookahead_violations += 1
        self.lbts.note_traffic(src_shard, dst_shard)

    # -- dispatch --------------------------------------------------------

    def _make_running(self, proc: Proc) -> None:
        super()._make_running(proc)
        self.events_per_shard[proc.shard] += 1

    def _advance(self) -> Proc | None:
        """The fast-path dispatch loop plus window bookkeeping.

        Identical pop order to :meth:`Engine._advance` — the merged
        ``(time, seq)`` schedule is what makes sharded runs bit-identical
        to sequential ones — with one extra comparison per event: an event
        at or past the current window bound closes the epoch and opens the
        next safe window at its own time (it is the global minimum, so the
        new LBTS is exactly ``its time + lookahead``).
        """
        if self._failure is not None:
            return None
        heap = self._heap
        due = self._due
        pop = heapq.heappop
        deadline = self._deadline
        digest = self._digest
        while True:
            if due:
                d = due[0]
                if heap:
                    h = heap[0]
                    if h[0] < d[0] or (h[0] == d[0] and h[1] < d[1]):
                        ev = pop(heap)
                    else:
                        ev = due.popleft()
                else:
                    ev = due.popleft()
            elif heap:
                ev = pop(heap)
            else:
                return None
            when = ev[0]
            if when >= self._window_end:
                self._window_end = self.lbts.open_window(when)
            if deadline is not None and when > deadline:
                blocked = self._blocked_report()
                if blocked:
                    self.now = deadline
                    self._timeout_info = (blocked, self._progress_report())
                return None
            self.now = when
            fn = ev[2]
            if type(fn) is _Resume:
                proc = fn.proc
                if fn.gen != proc._gen or proc.state == Proc.DONE:
                    continue
                self.events_executed += 1
                self._make_running(proc)
                return proc
            self.events_executed += 1
            self.events_per_shard[ev[3]] += 1
            self._dispatch_shard = ev[3]
            if digest is not None:
                digest.update(_pack_order(when, -1))
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced from run()
                if self._failure is None:
                    self._failure = exc
            if self._failure is not None:
                return None

    def run(self, *, deadline: float | None = None) -> None:
        try:
            super().run(deadline=deadline)
        finally:
            self.lbts.finish(self.now)

    def shard_stats(self) -> dict:
        """JSON-able protocol statistics (embedded in obs RunReports)."""
        stats = dict(self.plan.describe())
        stats.update(self.lbts.stats())
        stats.update(
            events_per_shard=list(self.events_per_shard),
            cross_messages=self.cross_messages,
            cross_bytes=self.cross_bytes,
            coordinator_signals=self.coordinator_signals,
            lookahead_violations=self.lookahead_violations,
        )
        return stats
