"""Unit tests for the discrete-event engine."""

import os

import pytest

from repro.sim.engine import Engine
from repro.util.errors import DeadlockError, SimTimeoutError, SimulationError


def test_single_proc_runs_and_returns_result():
    eng = Engine()
    proc = eng.spawn(lambda p: 42)
    eng.run()
    assert proc.result == 42
    assert proc.state == "done"


def test_sleep_advances_virtual_clock():
    eng = Engine()

    def body(p):
        assert eng.now == 0.0
        p.sleep(1.5)
        assert eng.now == 1.5
        p.sleep(0.5)
        return eng.now

    proc = eng.spawn(body)
    eng.run()
    assert proc.result == 2.0
    assert eng.now == 2.0


def test_zero_sleep_is_noop():
    eng = Engine()
    trace = []

    def body(p):
        p.sleep(0.0)
        trace.append(eng.now)

    eng.spawn(body)
    eng.run()
    assert trace == [0.0]


def test_negative_sleep_rejected():
    eng = Engine()

    def body(p):
        p.sleep(-1.0)

    eng.spawn(body)
    with pytest.raises(SimulationError):
        eng.run()


def test_two_procs_interleave_by_time_order():
    eng = Engine()
    trace = []

    def slow(p):
        p.sleep(2.0)
        trace.append(("slow", eng.now))

    def fast(p):
        p.sleep(1.0)
        trace.append(("fast", eng.now))

    eng.spawn(slow)
    eng.spawn(fast)
    eng.run()
    assert trace == [("fast", 1.0), ("slow", 2.0)]


def test_ties_break_in_spawn_order():
    eng = Engine()
    trace = []
    for i in range(5):
        eng.spawn(lambda p, i=i: trace.append(i))
    eng.run()
    assert trace == [0, 1, 2, 3, 4]


def test_block_and_wake_transfers_payload():
    eng = Engine()
    got = []

    def waiter(p):
        got.append(p.block("waiting for pal"))

    def waker(p):
        p.sleep(3.0)
        w.wake("hello")

    w = eng.spawn(waiter)
    eng.spawn(waker)
    eng.run()
    assert got == ["hello"]
    assert eng.now == 3.0


def test_wake_resumes_at_wakers_time():
    eng = Engine()
    times = []

    def waiter(p):
        p.block("wait")
        times.append(eng.now)

    def waker(p):
        p.sleep(7.0)
        w.wake()

    w = eng.spawn(waiter)
    eng.spawn(waker)
    eng.run()
    assert times == [7.0]


def test_deadlock_detected_with_block_reasons():
    eng = Engine()
    eng.spawn(lambda p: p.block("recv(tag=7)"))
    eng.spawn(lambda p: p.block("barrier"))
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    assert ei.value.blocked == {0: "recv(tag=7)", 1: "barrier"}
    assert "recv(tag=7)" in str(ei.value)


def test_partial_deadlock_detected():
    eng = Engine()
    eng.spawn(lambda p: p.block("event_wait"))
    eng.spawn(lambda p: p.sleep(1.0))
    with pytest.raises(DeadlockError) as ei:
        eng.run()
    assert list(ei.value.blocked) == [0]


def test_exception_in_proc_propagates():
    eng = Engine()

    def bad(p):
        p.sleep(1.0)
        raise ValueError("boom")

    eng.spawn(bad)
    eng.spawn(lambda p: p.block("never woken"))
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_call_at_in_past_rejected():
    eng = Engine()

    def body(p):
        p.sleep(5.0)
        eng.call_at(1.0, lambda: None)

    eng.spawn(body)
    with pytest.raises(SimulationError):
        eng.run()


def test_stale_wake_is_ignored():
    """A wake targeting an old block must not resume a newer block."""
    eng = Engine()
    trace = []

    def waiter(p):
        p.block("first")
        trace.append(("resumed-first", eng.now))
        p.block("second")
        trace.append(("resumed-second", eng.now))

    def waker(p):
        p.sleep(1.0)
        w.wake()  # resumes "first"
        w.wake()  # stale: targets the same generation, only one resume happens
        p.sleep(1.0)
        w.wake()  # resumes "second"

    w = eng.spawn(waiter)
    eng.spawn(waker)
    eng.run()
    assert trace == [("resumed-first", 1.0), ("resumed-second", 2.0)]


def test_engine_runs_once():
    eng = Engine()
    eng.spawn(lambda p: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.run()


def test_spawn_after_run_rejected():
    eng = Engine()
    eng.spawn(lambda p: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.spawn(lambda p: None)


def test_sleep_from_foreign_thread_rejected():
    eng = Engine()

    def body(p):
        other.sleep(1.0)  # not the running proc

    other = eng.spawn(lambda p: p.block("parked"))
    eng.spawn(body)
    with pytest.raises(SimulationError, match="outside the running process"):
        eng.run()


def test_many_procs_deterministic_order():
    def run_once():
        eng = Engine()
        trace = []

        def body(p, i):
            p.sleep((i * 7) % 5 + 0.5)
            trace.append(i)
            p.sleep((i * 3) % 4 + 0.25)
            trace.append(i + 100)

        for i in range(20):
            eng.spawn(lambda p, i=i: body(p, i))
        eng.run()
        return trace

    assert run_once() == run_once()


def test_scheduler_callbacks_run_in_time_order():
    eng = Engine()
    order = []

    def body(p):
        eng.call_in(3.0, lambda: order.append("c"))
        eng.call_in(1.0, lambda: order.append("a"))
        eng.call_in(2.0, lambda: order.append("b"))
        p.sleep(10.0)

    eng.spawn(body)
    eng.run()
    assert order == ["a", "b", "c"]


# -- one core per run ---------------------------------------------------------

needs_pinning = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least two allowed CPUs",
)


@pytest.fixture
def caller_mask():
    mask = os.sched_getaffinity(0)
    assert len(mask) >= 2, "an earlier run left this thread pinned"
    yield mask
    os.sched_setaffinity(0, mask)


@needs_pinning
@pytest.mark.parametrize("fastpath", [True, False])
def test_run_pins_every_rank_fiber_to_one_cpu(caller_mask, fastpath):
    eng = Engine(fastpath=fastpath)
    seen = []

    def body(p):
        for _ in range(3):
            seen.append(os.sched_getaffinity(0))
            p.sleep(1.0)

    for _ in range(3):
        eng.spawn(body)
    eng.run()
    assert len(seen) == 9
    assert all(len(mask) == 1 for mask in seen)
    assert len(set(map(frozenset, seen))) == 1
    assert seen[0] <= caller_mask


@needs_pinning
def test_daemon_spawned_mid_run_shares_the_pinned_cpu(caller_mask):
    eng = Engine()
    seen = {}

    def agent(p):
        seen["agent"] = os.sched_getaffinity(0)

    def body(p):
        p.sleep(1.0)
        seen["rank"] = os.sched_getaffinity(0)
        eng.spawn(agent, "progress", daemon=True)
        p.sleep(1.0)

    eng.spawn(body)
    eng.run()
    assert len(seen["rank"]) == 1
    assert seen["agent"] == seen["rank"]


def _never_woken(p):
    p.block("never woken")


def _too_long(p):
    p.sleep(10.0)


def _raises(p):
    p.sleep(1.0)
    raise ValueError("boom")


@needs_pinning
@pytest.mark.parametrize(
    "body, error",
    [
        (lambda p: p.sleep(1.0), None),
        (_never_woken, DeadlockError),
        (_too_long, SimTimeoutError),
        (_raises, ValueError),
    ],
    ids=["normal", "deadlock", "timeout", "exception"],
)
def test_run_restores_the_callers_mask(caller_mask, body, error):
    eng = Engine()
    eng.spawn(body)
    if error is None:
        eng.run(deadline=5.0)
    else:
        with pytest.raises(error):
            eng.run(deadline=5.0)
    assert os.sched_getaffinity(0) == caller_mask


@needs_pinning
def test_single_cpu_caller_is_left_untouched(caller_mask, monkeypatch):
    one = {min(caller_mask)}
    os.sched_setaffinity(0, one)
    calls = []
    real = os.sched_setaffinity
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, mask: calls.append(mask) or real(pid, mask)
    )
    eng = Engine()
    proc = eng.spawn(lambda p: os.sched_getaffinity(0))
    eng.run()
    assert calls == []
    assert proc.result == one
    assert os.sched_getaffinity(0) == one


@needs_pinning
def test_pin_skipped_when_setaffinity_fails(caller_mask, monkeypatch):
    def refuse(pid, mask):
        raise OSError("affinity not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    eng = Engine()
    proc = eng.spawn(lambda p: os.sched_getaffinity(0))
    eng.run()
    assert proc.result == caller_mask
    assert os.sched_getaffinity(0) == caller_mask


def test_pin_skipped_without_setaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    eng = Engine()
    proc = eng.spawn(lambda p: 42)
    eng.run()
    assert proc.result == 42
