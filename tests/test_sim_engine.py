"""Tests for the discrete-event engine and thread machinery."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, ThreadProgramError
from repro.sim.engine import Simulator
from repro.sim.events import Delay, Load, OpResult, Rdtsc
from repro.sim.thread import SimThread, ThreadState


def unit_executor(latency_by_op=None):
    """An executor charging fixed latencies, no real memory."""
    table = latency_by_op or {}

    def execute(thread, op):
        latency = table.get(type(op), 10.0)
        if isinstance(op, Delay):
            latency = op.cycles
        if isinstance(op, Rdtsc):
            latency = 0.0
        return OpResult(latency=latency, timestamp=thread.clock + latency)

    return execute


def test_single_thread_runs_to_completion():
    sim = Simulator()
    log = []

    def program(cpu):
        yield from cpu.delay(100)
        log.append((yield from cpu.rdtsc()))

    thread = sim.spawn("t", program, core_id=0, executor=unit_executor())
    sim.run()
    assert thread.state is ThreadState.DONE
    assert log == [100.0]


def test_threads_interleave_in_time_order():
    sim = Simulator()
    order = []

    def make(name, step):
        def program(cpu):
            for _ in range(3):
                yield from cpu.delay(step)
                order.append((name, (yield from cpu.rdtsc())))
        return program

    sim.spawn("fast", make("fast", 10), core_id=0, executor=unit_executor())
    sim.spawn("slow", make("slow", 25), core_id=1, executor=unit_executor())
    sim.run()
    times = [t for _n, t in order]
    assert times == sorted(times)
    assert order[0][0] == "fast"


def test_global_clock_advances():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(500)

    sim.spawn("t", program, core_id=0, executor=unit_executor())
    sim.run()
    assert sim.global_clock >= 500


def test_daemon_does_not_block_run():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(10)

    def short(cpu):
        yield from cpu.delay(50)

    daemon = sim.spawn("d", forever, core_id=0, executor=unit_executor(),
                       daemon=True)
    sim.spawn("s", short, core_id=1, executor=unit_executor())
    sim.run()
    assert not daemon.done  # still alive for a follow-up run


def test_kill_daemons_on_request():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(10)

    def short(cpu):
        yield from cpu.delay(50)

    daemon = sim.spawn("d", forever, core_id=0, executor=unit_executor(),
                       daemon=True)
    sim.spawn("s", short, core_id=1, executor=unit_executor())
    sim.run(kill_daemons=True)
    assert daemon.state is ThreadState.KILLED


def test_max_events_guard():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(1)

    thread = sim.spawn("t", forever, core_id=0, executor=unit_executor())
    with pytest.raises(SimulationError):
        sim.run(max_events=100)
    assert thread.ops_executed == 100


def test_max_events_allows_exactly_max_events_ops():
    sim = Simulator()

    def three_ops(cpu):
        for _ in range(3):
            yield from cpu.delay(1)

    thread = sim.spawn("t", three_ops, core_id=0, executor=unit_executor())
    sim.run(max_events=3)
    assert thread.state is ThreadState.DONE
    assert thread.ops_executed == 3


def test_max_cycles_guard():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(1000)

    sim.spawn("t", forever, core_id=0, executor=unit_executor())
    with pytest.raises(SimulationError):
        sim.run(max_cycles=10_000)


def test_stop_when_predicate():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(10)

    sim.spawn("t", forever, core_id=0, executor=unit_executor())
    sim.run(stop_when=lambda s: s.global_clock > 200)
    assert 200 < sim.global_clock < 400


def test_invalid_yield_raises():
    sim = Simulator()

    def bad(cpu):
        yield "not an op"

    thread = sim.spawn("bad", bad, core_id=0, executor=unit_executor())
    with pytest.raises(ThreadProgramError):
        sim.run()
    assert thread.state is ThreadState.FAILED


def test_thread_result_captured():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(5)
        return "payload"

    thread = sim.spawn("t", program, core_id=0, executor=unit_executor())
    sim.run()
    assert thread.result == "payload"


def test_spawn_mid_run_starts_at_current_time():
    sim = Simulator()
    seen = []

    def parent(cpu):
        yield from cpu.delay(100)
        child = sim.spawn("child", child_prog, core_id=1,
                          executor=unit_executor())
        seen.append(child.clock)
        yield from cpu.delay(10)

    def child_prog(cpu):
        yield from cpu.delay(1)

    sim.spawn("parent", parent, core_id=0, executor=unit_executor())
    sim.run()
    assert seen and seen[0] >= 100


def test_thread_by_name():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(1)

    sim.spawn("alpha", program, core_id=0, executor=unit_executor())
    assert sim.thread_by_name("alpha").name == "alpha"
    with pytest.raises(KeyError):
        sim.thread_by_name("missing")


def test_duplicate_live_name_rejected():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(1)

    sim.spawn("t", program, core_id=0, executor=unit_executor())
    with pytest.raises(SimulationError, match="duplicate thread name"):
        sim.spawn("t", program, core_id=1, executor=unit_executor())


def test_name_reuse_after_exit_allowed():
    sim = Simulator()

    def program(cpu):
        yield from cpu.delay(1)

    first = sim.spawn("t", program, core_id=0, executor=unit_executor())
    sim.run()
    assert first.state is ThreadState.DONE
    # Dead threads release their name; the index resolves to the newest.
    second = sim.spawn("t", program, core_id=0, executor=unit_executor())
    assert sim.thread_by_name("t") is second
    sim.run()


def test_name_reuse_after_kill_allowed():
    sim = Simulator()

    def forever(cpu):
        while True:
            yield from cpu.delay(1)

    first = sim.spawn("t", forever, core_id=0, executor=unit_executor(),
                      daemon=True)
    first.kill()
    second = sim.spawn("t", forever, core_id=0, executor=unit_executor(),
                       daemon=True)
    assert sim.thread_by_name("t") is second
    second.kill()


def test_on_exit_fires_once():
    sim = Simulator()
    calls = []

    def program(cpu):
        yield from cpu.delay(1)

    thread = sim.spawn("t", program, core_id=0, executor=unit_executor())
    thread.on_exit = lambda t: calls.append(t.tid)
    sim.run()
    thread.kill()  # no double fire
    assert calls == [thread.tid]


def test_on_exit_fires_on_kill():
    sim = Simulator()
    calls = []

    def forever(cpu):
        while True:
            yield from cpu.delay(1)

    thread = sim.spawn("t", forever, core_id=0, executor=unit_executor(),
                       daemon=True)
    thread.on_exit = lambda t: calls.append("killed")
    thread.kill()
    assert calls == ["killed"]


def test_timed_load_measures_load_only():
    sim = Simulator()
    results = []

    def program(cpu):
        result = yield from cpu.timed_load(0x40)
        results.append(result)

    executor = unit_executor({Load: 123.0})
    sim.spawn("t", program, core_id=0, executor=executor)
    sim.run()
    assert results[0].latency == 123.0


# ----------------------------------------------------------------------
# run-ahead order equivalence
# ----------------------------------------------------------------------


class ReferenceScheduler:
    """The plain event loop: pop and push the heap on every event.

    Same spawn signature and (clock, seq) ordering as :class:`Simulator`,
    driving threads through the public ``SimThread.step``/``complete``.
    """

    def __init__(self):
        self.threads = []
        self.heap = []
        self.seq = itertools.count()
        self.global_clock = 0.0

    def spawn(self, name, program, core_id, executor, start_time=None,
              daemon=False):
        thread = SimThread(len(self.threads), name, program, core_id, executor)
        thread.daemon = daemon
        thread.clock = self.global_clock if start_time is None else start_time
        self.threads.append(thread)
        heapq.heappush(self.heap, (thread.clock, next(self.seq), thread))
        return thread

    def run(self):
        while self.heap and any(not t.daemon and not t.done
                                for t in self.threads):
            _clock, _seq, thread = heapq.heappop(self.heap)
            if thread.done:
                continue
            op = thread.step()
            if op is None:
                continue
            thread.complete(thread.executor(thread, op))
            self.global_clock = max(self.global_clock, thread.clock)
            heapq.heappush(self.heap, (thread.clock, next(self.seq), thread))


#: Small integer delays (zero included) make equal-clock ties common.
_delays = st.lists(st.integers(0, 4), max_size=10)


@st.composite
def schedules(draw):
    """Threads (start, delays), a mid-run child, a kill and a daemon."""
    threads = draw(st.lists(st.tuples(st.integers(0, 6), _delays),
                            min_size=1, max_size=4))
    child = draw(st.none() | st.tuples(
        st.integers(0, len(threads) - 1), st.integers(0, 9), _delays))
    kill = draw(st.none() | st.tuples(
        st.integers(0, len(threads) - 1), st.integers(0, 9)))
    daemon = draw(st.none() | st.tuples(
        st.integers(0, 6), st.lists(st.integers(1, 4), min_size=1,
                                    max_size=3)))
    return threads, child, kill, daemon


def build(sim, schedule, log):
    """Spawn *schedule* on *sim*; every executed op appends to *log*."""
    threads, child, kill, daemon = schedule
    doomed = None if kill is None else (f"t{kill[0]}", kill[1])

    def execute(thread, op):
        log.append((thread.name, thread.ops_executed, thread.clock))
        if (thread.name, thread.ops_executed) == doomed:
            # Killed mid-op: the op still completes, nothing after it runs.
            thread.kill()
        latency = 0.0 if type(op) is Rdtsc else float(op.cycles)
        return OpResult(latency, thread.clock + latency)

    def straight(delays, spawn_at=None):
        def program(cpu):
            for index, cycles in enumerate(delays):
                if index == spawn_at:
                    sim.spawn("child", straight(child[2]), 1, execute)
                yield Delay(cycles)
            yield Rdtsc()
        return program

    for index, (start, delays) in enumerate(threads):
        spawn_at = child[1] if child is not None and child[0] == index else None
        sim.spawn(f"t{index}", straight(delays, spawn_at), 0, execute,
                  start_time=float(start))
    if daemon is not None:
        def forever(cpu):
            for cycles in itertools.cycle(daemon[1]):
                yield Delay(cycles)
        sim.spawn("daemon", forever, 2, execute,
                  start_time=float(daemon[0]), daemon=True)


def outcome(sim, log):
    """Everything the two schedulers must agree on."""
    return log, sim.global_clock, [(t.name, t.state) for t in sim.threads]


def reference_outcome(schedule):
    log = []
    reference = ReferenceScheduler()
    build(reference, schedule, log)
    reference.run()
    return outcome(reference, log)


def assert_heap_holds_every_live_thread(sim):
    live = {t.tid for t in sim.threads if t.state is ThreadState.READY}
    assert {t.tid for t in sim.live_run_order()} == live


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_run_ahead_matches_reference_order(schedule):
    log = []
    sim = Simulator()
    build(sim, schedule, log)
    assert sim.run() is False
    assert outcome(sim, log) == reference_outcome(schedule)
    assert sim.stats.counter("engine.events") == len(log)
    assert_heap_holds_every_live_thread(sim)


@settings(max_examples=150, deadline=None)
@given(schedules(), st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_pause_and_resume_match_reference(schedule, pauses):
    log = []
    sim = Simulator()
    build(sim, schedule, log)
    for pause_at in sorted(pauses):
        if not sim.run(pause_at=float(pause_at)):
            break
        # The thread carried at the pause is back on the heap.
        assert_heap_holds_every_live_thread(sim)
    sim.run()
    assert outcome(sim, log) == reference_outcome(schedule)


@settings(max_examples=150, deadline=None)
@given(schedules(), st.integers(0, 30))
def test_stop_when_and_resume_match_reference(schedule, stop_after):
    log = []
    sim = Simulator()
    build(sim, schedule, log)

    def stop(s):
        # stop_when sees the full heap, carried thread included.
        assert_heap_holds_every_live_thread(s)
        return len(log) >= stop_after

    sim.run(stop_when=stop)
    assert_heap_holds_every_live_thread(sim)
    sim.run()
    assert outcome(sim, log) == reference_outcome(schedule)
