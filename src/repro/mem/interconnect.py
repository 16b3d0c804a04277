"""Interconnect contention model (on-chip ring, QPI link, memory bus).

Every memory operation registers traffic on the resources its service
path crosses; a sliding-window occupancy count converts concurrent
traffic into queuing delay.  This is what makes co-located noise
workloads (Figure 9) degrade the covert channel: they both evict the
covert line *and* inflate latency variance through these resources.

Hot-path design.  The seed implementation recomputed the window load
with an O(window) linear ``sum()`` over the event deque on *every*
access crossing *every* resource.  The model's semantics are preserved
exactly — the event log is still an insertion-ordered deque, eviction
still drops only the expired *prefix* (so mildly out-of-order events
from batched bursts are retained, exactly as before), and the load is
still the traffic with ``cutoff <= t <= time`` among retained events —
but the load query is now answered in O(log n) from a time-sorted index
of the live events, with uniform integral weights (the only kind the
machine ever registers) counted instead of summed.  Non-uniform or
fractional weights fall back to the seed's literal linear scan, so the
result is bit-identical in every case.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque

from repro.errors import ConfigError


class Resource:
    """One contended resource with a sliding-window M/M/1 queuing model.

    The mean queuing delay grows as ``k * rho / (1 - rho)`` where the
    utilization ``rho`` is the traffic inside the window divided by the
    resource's saturation throughput — near-zero when lightly loaded,
    steeply superlinear as the resource saturates, the way real
    ring/memory-controller queues behave under co-located noise.

    Parameters
    ----------
    name:
        Resource label (e.g. ``"ring0"``, ``"qpi"``).
    window:
        Width in cycles of the occupancy window.
    saturation:
        Accesses per window at which the resource saturates.
    service_cycles:
        The ``k`` factor: delay scale in cycles.
    """

    #: Utilization is clamped here so delays stay finite past saturation.
    RHO_CAP = 0.96

    #: Compact the sorted-time index once this many evicted slots
    #: accumulate at its head (amortizes the O(n) front deletion).
    _COMPACT_THRESHOLD = 512

    __slots__ = (
        "name", "window", "saturation", "service_cycles", "total_traffic",
        "_events", "_times", "_tpos", "_weight", "_uniform",
    )

    def __init__(
        self,
        name: str,
        window: float = 2_000.0,
        saturation: float = 110.0,
        service_cycles: float = 2.0,
    ):
        if window <= 0 or saturation <= 0 or service_cycles < 0:
            raise ConfigError(f"invalid contention parameters for {name}")
        self.name = name
        self.window = window
        self.saturation = saturation
        self.service_cycles = service_cycles
        self._events: deque[tuple[float, float]] = deque()
        self.rewind()

    def rewind(self) -> None:
        """Return to the construction state: no traffic at all.

        Unlike :meth:`reset` (a phase boundary inside one run, which
        keeps ``total_traffic`` and the index mode), this also zeroes
        the running total and forgets the index mode, so a rewound
        resource is indistinguishable from a new one.
        """
        self._events.clear()
        self.total_traffic = 0.0
        # Fast-path index: the times of every event still in ``_events``,
        # kept sorted, with a lazily-compacted head offset.  Only valid
        # while every registered weight is the same integral value (so
        # ``count * weight`` is bit-identical to the seed's sequential
        # float summation); the first deviating weight drops the
        # resource onto the exact slow path for its remaining lifetime.
        self._times: list[float] | None = None
        self._tpos = 0
        self._weight: float | None = None
        self._uniform = True

    # -- window maintenance --------------------------------------------

    def _window_load(self, time: float) -> float:
        """Evict the expired prefix and return the load in the window.

        This defines the window predicate for :meth:`current_load` and
        :meth:`register` (whose common case repeats these steps inline):
        traffic registered at ``t`` counts iff the event is still
        retained (only the expired prefix of the insertion-ordered log
        is ever dropped) and ``time - window <= t <= time``.
        """
        cutoff = time - self.window
        events = self._events
        times = self._times
        if not self._uniform or times is None:
            # Exact slow path (non-uniform or fractional weights): the
            # seed's literal prefix-evict + linear scan.
            while events and events[0][0] < cutoff:
                events.popleft()
            return sum(w for t, w in events if cutoff <= t <= time)
        tpos = self._tpos
        while events and events[0][0] < cutoff:
            t, _w = events.popleft()
            # Drop t from the sorted index.  The evicted prefix usually
            # holds the globally oldest times, so this is almost always
            # the index head; out-of-order retirements bisect.
            if times[tpos] == t:
                tpos += 1
            else:
                del times[bisect_left(times, t, tpos)]
        if tpos >= self._COMPACT_THRESHOLD:
            del times[:tpos]
            tpos = 0
        self._tpos = tpos
        count = (
            bisect_right(times, time, tpos)
            - bisect_left(times, cutoff, tpos)
        )
        if count == 0:
            return 0.0
        return count * self._weight

    def _record(self, time: float, weight: float) -> None:
        """Append one event to the log (and the sorted index)."""
        self._events.append((time, weight))
        self.total_traffic += weight
        if not self._uniform:
            return
        if self._weight is None:
            if weight == int(weight):
                self._weight = weight
                self._times = [time]
                return
        elif weight == self._weight:
            times = self._times
            if not times or time >= times[-1]:
                times.append(time)
            else:
                insort(times, time, self._tpos)
            return
        # First non-uniform (or fractional) weight: abandon the index,
        # the slow path scans the deque exactly as the seed did.
        self._uniform = False
        self._times = None
        self._tpos = 0

    # -- public API -----------------------------------------------------

    def register(self, time: float, weight: float = 1.0) -> float:
        """Record *weight* units of traffic at *time*.

        Returns the *mean* queuing delay at the current utilization; the
        machine turns it into a bursty draw.  Events may arrive mildly
        out of time order (a batched burst registers accesses at future
        instants before other threads catch up), so the load is computed
        over events actually inside ``(time - window, time]``.

        Every miss crosses one to four resources, so the common case --
        the sorted index is live and *weight* matches it -- runs
        :meth:`_window_load` and :meth:`_record` inline in this one
        call, with the same eviction, count and insertion steps.  Every
        other case calls the two helpers.
        """
        times = self._times
        if times is not None and weight == self._weight:
            cutoff = time - self.window
            events = self._events
            tpos = self._tpos
            while events and events[0][0] < cutoff:
                t = events.popleft()[0]
                if times[tpos] == t:
                    tpos += 1
                else:
                    del times[bisect_left(times, t, tpos)]
            if tpos >= self._COMPACT_THRESHOLD:
                del times[:tpos]
                tpos = 0
            self._tpos = tpos
            count = (
                bisect_right(times, time, tpos)
                - bisect_left(times, cutoff, tpos)
            )
            load = count * weight if count else 0.0
            events.append((time, weight))
            self.total_traffic += weight
            if not times or time >= times[-1]:
                times.append(time)
            else:
                insort(times, time, tpos)
        else:
            load = self._window_load(time)
            self._record(time, weight)
        rho = load / self.saturation
        if rho > self.RHO_CAP:
            rho = self.RHO_CAP
        return self.service_cycles * rho / (1.0 - rho)

    def current_load(self, time: float) -> float:
        """Traffic units inside the window ending at *time*."""
        return self._window_load(time)

    def reset(self) -> None:
        """Forget all recorded traffic (used between measurement phases)."""
        self._events.clear()
        if self._uniform:
            self._times = [] if self._weight is not None else None
            self._tpos = 0


class Interconnect:
    """The set of contended resources in a machine.

    One on-chip ring per socket, one inter-socket link (QPI), and one
    memory controller per socket.
    """

    def __init__(
        self,
        n_sockets: int,
        window: float = 2_000.0,
        ring_capacity: float = 50.0,
        qpi_capacity: float = 35.0,
        mem_capacity: float = 38.0,
        delay_per_excess: float = 3.5,
    ):
        if n_sockets <= 0:
            raise ConfigError("n_sockets must be positive")
        self.rings = [
            Resource(f"ring{s}", window, ring_capacity, delay_per_excess)
            for s in range(n_sockets)
        ]
        self.qpi = Resource("qpi", window, qpi_capacity, delay_per_excess)
        self.mems = [
            Resource(f"mem{s}", window, mem_capacity, delay_per_excess * 1.5)
            for s in range(n_sockets)
        ]

    def ring_delay(self, socket_id: int, time: float, weight: float = 1.0) -> float:
        """Register traffic on a socket's ring; return queuing delay."""
        return self.rings[socket_id].register(time, weight)

    def qpi_delay(self, time: float, weight: float = 1.0) -> float:
        """Register traffic on the inter-socket link; return delay."""
        return self.qpi.register(time, weight)

    def mem_delay(self, socket_id: int, time: float, weight: float = 1.0) -> float:
        """Register traffic on a socket's memory controller."""
        return self.mems[socket_id].register(time, weight)

    def reset(self) -> None:
        """Clear every resource's traffic window.

        Needed when the measurement clock restarts (e.g. after a
        calibration pass that used its own local time base).
        """
        for resource in (*self.rings, self.qpi, *self.mems):
            resource.reset()

    def rewind(self) -> None:
        """Return every resource to its construction state."""
        for resource in (*self.rings, self.qpi, *self.mems):
            resource.rewind()
