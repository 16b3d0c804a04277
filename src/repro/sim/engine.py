"""The discrete-event engine: time-ordered interleaving of threads.

The engine keeps every thread's local cycle clock and always runs the
thread with the smallest clock next.  All operations on shared state
(the cache hierarchy) are therefore applied in global time order, which
makes cross-thread timing interference — the substance of the covert
channel — causally consistent without a full cycle-accurate pipeline.

Threads never block on each other at the Python level; they communicate
only through the simulated memory system and through timing, exactly as
the paper's trojan and spy do.

The inner loop is amortized O(1) per event: liveness is a counter
maintained at spawn/exit (not a scan over the thread list, which grows
with every transmission on a long-lived session), name lookup is a dict,
and the event counter is a bound handle flushed once per run.  A thread
whose new clock is still strictly the earliest runs again without a heap
push/pop (run-ahead), which is the common case for a thread spinning
on short delays.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import DeadlockError, SimulationError, ThreadProgramError
from repro.sim.events import Op
from repro.sim.stats import StatsRegistry
from repro.sim.thread import Cpu, Executor, SimThread, ThreadState

_READY = ThreadState.READY
_DONE = ThreadState.DONE
_FAILED = ThreadState.FAILED


class Simulator:
    """Owns the thread set and drives the time-ordered event loop.

    Parameters
    ----------
    stats:
        Optional shared statistics registry; one is created if omitted.
    """

    def __init__(self, stats: StatsRegistry | None = None):
        self.stats = stats if stats is not None else StatsRegistry()
        self.threads: list[SimThread] = []
        self._heap: list[tuple[float, int, SimThread]] = []
        self._seq = itertools.count()
        self._next_tid = itertools.count()
        self.global_clock: float = 0.0
        #: Threads in READY state that are not daemons; maintained at
        #: spawn and thread exit so the run loop never rescans
        #: ``self.threads`` (which only ever grows).
        self._live_count = 0
        self._by_name: dict[str, SimThread] = {}
        self._events_counter = self.stats.counter_handle("engine.events")
        #: When True, every thread spawned gets a replay log so its
        #: position can be checkpointed (see :mod:`repro.checkpoint`).
        #: Off by default: the log costs one list append per event.
        self.checkpointing = False

    def spawn(
        self,
        name: str,
        program: Callable[[Cpu], Generator],
        core_id: int,
        executor: Executor,
        start_time: float | None = None,
        daemon: bool = False,
        process: Any = None,
        spec: Any = None,
    ) -> SimThread:
        """Create a thread and schedule its first step.

        Parameters
        ----------
        name:
            Label for traces and errors; must be unique among live
            threads (it indexes :meth:`thread_by_name`, which always
            resolves to the most recently spawned holder of the name).
        program:
            Generator function taking a :class:`~repro.sim.thread.Cpu`.
        core_id:
            Global core index the thread is pinned to.
        executor:
            Callable executing ops for this thread (normally supplied by
            the kernel, which closes over the process's address space).
        start_time:
            Cycle at which the thread becomes runnable; defaults to the
            current global clock.
        daemon:
            Daemon threads do not keep :meth:`run` alive; they are killed
            once every non-daemon thread has finished.
        process:
            Optional owning process object (used by the kernel layer).
        spec:
            Optional :class:`repro.checkpoint.ProgramSpec` describing
            how to rebuild *program* from plain data; threads without
            one cannot be checkpointed (a session falls back to an
            unsegmented run when any live thread lacks a spec).
        """
        existing = self._by_name.get(name)
        if existing is not None and existing.state is _READY:
            raise SimulationError(
                f"duplicate thread name {name!r}: names index thread_by_name "
                "and must be unique among live threads"
            )
        thread = SimThread(
            tid=next(self._next_tid),
            name=name,
            program=program,
            core_id=core_id,
            executor=executor,
            process=process,
        )
        thread.daemon = daemon
        thread.clock = self.global_clock if start_time is None else float(start_time)
        thread._engine_exit = self._thread_exited
        thread.program_spec = spec
        if self.checkpointing and spec is not None:
            # Only spec-bearing threads get a replay log: a thread with
            # no ProgramSpec cannot be restored anyway, and some
            # spec-less programs (fault injectors) loop without calling
            # Cpu.mark, which would grow an untruncated log unboundedly.
            thread.replay_log = []
        self.threads.append(thread)
        self._by_name[name] = thread
        if not daemon:
            self._live_count += 1
        self._push(thread)
        return thread

    def _thread_exited(self, thread: SimThread) -> None:
        """Exit hook fired exactly once per thread (done/killed/failed)."""
        if not thread.daemon:
            self._live_count -= 1

    def _push(self, thread: SimThread) -> None:
        heapq.heappush(self._heap, (thread.clock, next(self._seq), thread))

    def run(
        self,
        max_cycles: float | None = None,
        max_events: int | None = 50_000_000,
        stop_when: Callable[["Simulator"], bool] | None = None,
        kill_daemons: bool = False,
        pause_at: float | None = None,
    ) -> bool:
        """Run until every non-daemon thread finishes.

        Returns True if the run *paused* at ``pause_at`` with work still
        outstanding, False if it ran to completion.

        Parameters
        ----------
        max_cycles:
            Abort (raising :class:`SimulationError`) if the global clock
            passes this value — a guard against runaway programs.
        max_events:
            Abort (raising :class:`SimulationError`) when op
            ``max_events + 1`` is about to execute.
        stop_when:
            Optional predicate checked after every event; return True to
            stop early (e.g. when a decoder has seen enough samples).
        kill_daemons:
            Kill surviving daemon threads on return.  Leave False when
            daemons (noise workloads, the KSM scanner) must persist
            across multiple :meth:`run` calls on the same simulator.
        pause_at:
            Pause (without error) once the global clock reaches this
            cycle: every thread is parked between ops, which is the
            state :func:`repro.checkpoint.capture` snapshots.  Resuming
            is just calling :meth:`run` again — the pause is invisible
            to the simulation.
        """
        events = 0
        paused = False
        # Hoisted hot-loop state: bound methods, the heap list and the
        # sequence counter are locals so each event pays zero repeated
        # attribute lookups.  The body of SimThread.step()/complete() is
        # inlined below (those methods stay as the public per-thread API
        # and must mirror any change made here): one executed op costs
        # two Python method calls total (the generator resume and the
        # executor) instead of four.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        seq_next = self._seq.__next__
        global_clock = self.global_clock
        op_types = SimThread._OP_TYPES
        valid_ops = SimThread._VALID_OPS
        event_limit = float("inf") if max_events is None else max_events
        cycle_limit = float("inf") if max_cycles is None else max_cycles
        pause_limit = float("inf") if pause_at is None else pause_at
        # Run-ahead: a thread whose new clock is strictly below every
        # heap entry is kept here and resumed next without a heap round
        # trip.  Exact: a strictly lower clock cannot tie on (clock,
        # seq), so the heap would have popped this thread next anyway
        # (stale or dead entries at the top only make the test fail).
        # A carried thread is not on the heap, so every exit pushes it
        # back (the finally below) and stop_when sees the full heap.
        carried = None
        try:
            while True:
                if self._live_count == 0:
                    break
                if carried is not None:
                    thread = carried
                    carried = None
                    if thread.state is not _READY:
                        continue
                else:
                    if not heap:
                        raise DeadlockError(
                            "event heap empty but non-daemon threads remain READY"
                        )
                    clock, _seq, thread = heappop(heap)
                    if thread.state is not _READY:
                        continue
                    tclock = thread.clock
                    if clock < tclock:
                        # Stale heap entry (thread was rescheduled); reinsert.
                        heappush(heap, (tclock, seq_next(), thread))
                        continue
                # -- inlined SimThread.step() --------------------------
                # send(None) on a fresh generator is next(), so one send
                # covers both the first and every later resume.
                pending = thread._pending_result
                log = thread.replay_log
                if log is not None and pending is not None:
                    # Checkpoint support: record the result being
                    # delivered *before* the send, so (cursor, log,
                    # pending) always re-drive a fresh generator to the
                    # thread's exact position (Cpu.mark truncates).
                    log.append(pending)
                try:
                    op = thread._generator.send(pending)
                except StopIteration as stop:
                    thread.state = _DONE
                    thread.result = stop.value
                    thread._fire_exit()
                    continue
                except BaseException:
                    thread.state = _FAILED
                    thread._fire_exit()
                    raise
                if type(op) not in op_types and not isinstance(op, valid_ops):
                    thread.state = _FAILED
                    thread._fire_exit()
                    raise ThreadProgramError(
                        f"thread {thread.name!r} yielded {op!r}; "
                        "expected a simulator op"
                    )
                if events >= event_limit:
                    # Op max_events + 1 is refused unexecuted; the run
                    # aborts mid-event and cannot be resumed.
                    raise SimulationError(
                        f"exceeded max_events={max_events} "
                        f"(global clock {global_clock:.0f})"
                    )
                result = thread.executor(thread, op)
                # -- inlined SimThread.complete() ----------------------
                tclock = result.timestamp
                thread.clock = tclock
                thread.ops_executed += 1
                thread._pending_result = result
                if tclock > global_clock:
                    # Write-through: programs may spawn threads or read
                    # the clock mid-run, so the attribute must track the
                    # hoisted local.
                    global_clock = tclock
                    self.global_clock = tclock
                if heap and heap[0][0] <= tclock:
                    heappush(heap, (tclock, seq_next(), thread))
                else:
                    carried = thread
                events += 1
                if global_clock > cycle_limit:
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles}"
                    )
                if global_clock >= pause_limit:
                    paused = True
                    break
                if stop_when is not None:
                    if carried is not None:
                        self._push(carried)
                        carried = None
                    if stop_when(self):
                        break
        finally:
            if carried is not None:
                self._push(carried)
            self._events_counter.value += events
        if kill_daemons:
            self.kill_daemons()
        return paused

    def kill_daemons(self) -> None:
        """Kill every surviving daemon thread (final cleanup)."""
        for thread in self.threads:
            if thread.daemon and not thread.done:
                thread.kill()

    def live_run_order(self) -> list[SimThread]:
        """Live threads in the order the event loop would pop them next.

        Checkpoint support: a restored simulator respawns threads in
        exactly this order with ``start_time=thread.clock``, so the
        fresh heap's FIFO tie-breaking (its sequence counter) reproduces
        the original pop order bit-for-bit.  Simulates the run loop's
        pop-and-reinsert handling of stale entries on a copy of the
        heap; ``self._heap`` is not mutated.
        """
        heap = list(self._heap)
        heapq.heapify(heap)
        seen: set[int] = set()
        order: list[SimThread] = []
        seq_next = self._seq.__next__
        while heap:
            clock, _seq, thread = heapq.heappop(heap)
            if thread.state is not _READY or thread.tid in seen:
                continue
            if clock < thread.clock:
                # Stale entry: the run loop would reinsert it with a
                # fresh (largest) sequence number; mirror that exactly.
                heapq.heappush(heap, (thread.clock, seq_next(), thread))
                continue
            seen.add(thread.tid)
            order.append(thread)
        return order

    def thread_by_name(self, name: str) -> SimThread:
        """Look up a thread by its (unique) name."""
        return self._by_name[name]
