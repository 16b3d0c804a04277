"""The trojan: Algorithm 1 of the paper.

The trojan is multi-threaded: a *controller* walks the payload and
decides which (location, state) combination the shared block B should be
in during each slot, and *worker* threads — placed on local/remote cores
per Table I — keep re-loading B so the intended coherence state is
re-established after every flush the spy issues.

Workers coordinate with the controller through a plain shared object;
this models ordinary intra-process shared memory inside the trojan and
carries no information to the spy, who only ever observes load timing.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field

from repro.channel.config import (
    _THREADS_NEEDED,
    LineState,
    Location,
    ProtocolParams,
    Scenario,
    StatePair,
)
from repro.sim.events import Delay, Load, Store
from repro.sim.thread import Cpu


@dataclass(frozen=True)
class WorkerRole:
    """Identity of one trojan worker: its location and rank there."""

    location: Location
    index: int


@dataclass
class TrojanControl:
    """Shared state between the trojan's controller and its workers."""

    active_pair: StatePair | None = None
    running: bool = True
    generation: int = 0
    transitions: int = 0
    bits_sent: list[int] = field(default_factory=list)

    def set_pair(self, pair: StatePair | None) -> None:
        """Activate a new (location, state) target (None = go idle)."""
        if pair != self.active_pair:
            self.transitions += 1
        self.active_pair = pair
        self.generation += 1

    def stop(self) -> None:
        """Tell every worker to exit its loop."""
        self.running = False
        self.active_pair = None

    def snapshot(self) -> tuple:
        """Checkpoint cursor payload: every field a re-drive re-mutates.

        Taken by the controller *before* each step's ``set_pair``; on
        restore the re-driven controller re-applies the step's mutations
        on top of this state, landing exactly on the parked values.
        """
        return (
            self.active_pair, self.running, self.generation,
            self.transitions, len(self.bits_sent),
        )

    def restore(self, snap: tuple) -> None:
        """Rewind to a :meth:`snapshot` (truncating ``bits_sent``)."""
        pair, running, generation, transitions, n_bits = snap
        self.active_pair = pair
        self.running = running
        self.generation = generation
        self.transitions = transitions
        del self.bits_sent[n_bits:]

    def is_active(self, role: WorkerRole) -> bool:
        """Whether a worker with *role* should be re-loading B now."""
        pair = self.active_pair
        if pair is None or role.location is not pair.location:
            return False
        return role.index < _THREADS_NEEDED[pair.state]


def worker_program(
    control: TrojanControl,
    role: WorkerRole,
    block_va: int,
    params: ProtocolParams,
    cursor: tuple | None = None,
) -> Callable[[Cpu], Generator]:
    """A trojan reader thread: keep B cached while my role is active.

    While active the worker re-loads B every ``params.reload_period``
    cycles, restoring the target coherence state after each spy flush;
    while inactive it polls the control state at the same period.

    For the OWNED pair the rank-0 worker *stores* instead, paced at the
    reload period: the dirty write gives the block an owner for rank
    1's read to pull into O.  Store-only pacing matters — every state
    the block passes through between the spy's flush and the settled O
    (DRAM-filled E at the reader, M at the writer, O) services reads
    from an owning cache, so the spy never observes the ownerless
    shared state that is the O channel's *boundary* symbol.  A
    load-then-dirty writer would pass through exactly that state (a
    clean E owner demotes to S when the reader hits it) and leak
    boundary labels into communication slots.
    """

    def program(cpu: Cpu) -> Generator:
        # Hot loop: this program runs once per worker reload for the
        # whole transmission, so the ops it issues are pre-built frozen
        # instances yielded directly (every delay period here is a
        # closure constant) — no per-iteration op or helper-generator
        # allocation.  The op/result protocol is identical to going
        # through the Cpu helpers.
        load_op = Load(block_va)
        store_op = Store(block_va, 1)
        idle_op = Delay(params.reload_period)
        backoff_op = Delay(params.worker_backoff_fraction * params.slot_cycles)
        spin_op = Delay(params.worker_spin_cycles)
        adaptive = params.adaptive_backoff
        refill_floor = params.worker_refill_floor
        role_location = role.location
        role_index = role.index
        owned = LineState.OWNED
        needed = _THREADS_NEEDED
        mark = cpu.mark
        resume = cursor
        # The active/writer decision is a pure function of the (frozen)
        # pair, so it is recomputed only when the controller installs a
        # new pair object -- not on every poll (the LineState-keyed
        # lookup costs an Enum.__hash__ per call).  Starts as the
        # decision for None (idle).
        last_pair = None
        active = writer = False
        while True:
            if resume is not None:
                # Re-drive: replay the parked iteration's poll verbatim
                # instead of re-polling the live control object (whose
                # state may have moved past the park point).
                running, pair = resume
                resume = None
            else:
                # Inlined TrojanControl.is_active(role) — one poll per
                # worker wakeup for the whole transmission.
                running, pair = control.running, control.active_pair
            mark((running, pair))
            if not running:
                break
            if pair is not last_pair:
                last_pair = pair
                active = (
                    pair is not None
                    and role_location is pair.location
                    and role_index < needed[pair.state]
                )
                writer = active and role_index == 0 and pair.state is owned
            if active:
                if writer:
                    # Re-dirty at the idle cadence, not the spin one: an
                    # O-line store is a full RFO, and spinning RFOs
                    # congest the ring enough to push the spy's samples
                    # out of the calibrated owner-service band.
                    yield store_op
                    yield idle_op
                    continue
                # Spin: re-load as fast as the machine allows, with only a
                # tiny loop cost between issues, so the target state is
                # re-established as soon as possible after each spy flush.
                result = yield load_op
                if adaptive and result.latency >= refill_floor:
                    # We just re-established the state after a flush;
                    # stay quiet until the next slot so the spy's flush
                    # primitive (clflush or eviction sweep) is not
                    # disturbed by our reloads.
                    yield backoff_op
                else:
                    yield spin_op
            else:
                yield idle_op

    return program


def controller_program(
    control: TrojanControl,
    scenario: Scenario,
    params: ProtocolParams,
    block_va: int,
    payload: list[int],
    lead_in_slots: int = 4,
    tail_slots: int = 4,
    cursor: tuple | None = None,
) -> Callable[[Cpu], Generator]:
    """Algorithm 1: modulate B's coherence state to send *payload*.

    For each bit the controller holds B in the boundary combination CSb
    for ``cb`` slots and then in the communication combination CSc for
    ``c1`` (bit 1) or ``c0`` (bit 0) slots.  Transitions flush B from
    all caches so the workers rebuild the new placement immediately;
    the spy's own flush-per-slot keeps the placement fresh afterwards.

    The hold sequence is flattened into an indexed step list so the
    program's position is one integer — the checkpoint ``cursor``
    carries ``(step index, control snapshot)``; a re-driven controller
    rewinds the shared control object and replays the parked step's
    mutations on top, landing exactly on the park-time state.
    """

    # One (pair, slots, bit-to-record) tuple per hold, in emission
    # order.  The lead-in parks B in the communication state so the
    # spy's start-of-transmission poll locks on when the first boundary
    # arrives (Algorithm 2 waits for a Tb observation); the closing
    # boundary delimits the final communication run; channels whose
    # quiet state is itself a symbol (the LRU channel's COLD) park B in
    # a distinct out-of-band terminator pair long enough for the spy's
    # end-of-transmission run to complete.
    steps: list[tuple[StatePair, int, int | None]] = [
        (scenario.csc, lead_in_slots, None)
    ]
    for bit in payload:
        steps.append((scenario.csb, params.cb, None))
        steps.append((scenario.csc, params.c1 if bit else params.c0, bit))
    steps.append((scenario.csb, params.cb, None))
    if scenario.terminator is not None:
        steps.append((scenario.terminator, params.end_run + 2, None))
    n_steps = len(steps)

    def program(cpu: Cpu) -> Generator:
        start = 0
        if cursor is not None:
            start, snap = cursor
            control.restore(snap)
        mark = cpu.mark
        for index in range(start, n_steps):
            pair, slots, bit = steps[index]
            mark((index, control.snapshot()))
            control.set_pair(pair)
            yield from cpu.flush(block_va)
            yield from cpu.delay(slots * params.slot_cycles)
            if bit is not None:
                control.bits_sent.append(bit)
        # Go dark: the spy sees out-of-band samples and ends reception.
        mark((n_steps, control.snapshot()))
        control.stop()
        yield from cpu.delay(tail_slots * params.slot_cycles)

    return program


def worker_roles(scenario: Scenario) -> list[WorkerRole]:
    """The worker set Table I prescribes for *scenario*."""
    roles = [
        WorkerRole(Location.LOCAL, i) for i in range(scenario.local_threads)
    ]
    roles.extend(
        WorkerRole(Location.REMOTE, i) for i in range(scenario.remote_threads)
    )
    return roles
