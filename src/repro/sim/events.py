"""Primitive operations that thread programs yield to the engine.

A thread program is a Python generator.  Each ``yield`` hands one of the
op dataclasses below to the engine; the engine executes it against the
machine (through the thread's executor) and sends an :class:`OpResult`
back into the generator.  User code normally does not construct these
directly — it calls the helpers on :class:`repro.sim.thread.Cpu`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AccessPath(enum.Enum):
    """Which service path satisfied a memory access.

    These correspond one-to-one to the latency bands the paper exploits
    (Section V / Figure 2) plus the fast private-cache and DRAM paths.
    """

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"
    LOCAL_SHARED = "local_shared"      # served by local LLC (S-state band)
    LOCAL_EXCL = "local_excl"          # forwarded to a local owner core (E)
    REMOTE_SHARED = "remote_shared"    # served by a remote socket's LLC (S)
    REMOTE_EXCL = "remote_excl"        # forwarded to a remote owner core (E)
    DRAM = "dram"                      # no cached copy anywhere
    UNCACHED = "uncached"              # store/flush paths with no band


@dataclass(frozen=True, slots=True)
class Load:
    """Read one cache line at virtual address ``vaddr``.

    Immutable, so hot issuers (:class:`repro.sim.thread.Cpu`) memoize
    one instance per address instead of allocating per access.
    """

    vaddr: int


@dataclass(frozen=True, slots=True)
class Store:
    """Write ``value`` (a small int tag) to the line at ``vaddr``."""

    vaddr: int
    value: int = 0


@dataclass(frozen=True, slots=True)
class Flush:
    """clflush: evict the line at ``vaddr`` from every coherent cache."""

    vaddr: int


@dataclass(frozen=True, slots=True)
class Delay:
    """Spin for ``cycles`` cycles without touching memory."""

    cycles: float


@dataclass(frozen=True, slots=True)
class Rdtsc:
    """Read the thread's cycle clock (result carries the timestamp)."""


@dataclass(frozen=True, slots=True)
class Fence:
    """Serializing no-op; costs a fixed small latency."""


@dataclass(frozen=True, slots=True)
class Burst:
    """A batched sequence of ``count`` accesses for noise workloads.

    Executes ``count`` line accesses starting at ``vaddr`` with ``stride``
    bytes between them as a single engine event, advancing the thread
    clock by the summed latency divided by ``mlp`` (memory-level
    parallelism: how many requests the workload keeps outstanding, the
    way an out-of-order core with prefetchers streams a working set).
    ``write_ratio`` of them are stores.  Used so that background
    workloads do not dominate the event count.
    """

    vaddr: int
    count: int
    stride: int
    write_ratio: float = 0.0
    mlp: float = 1.0


@dataclass(slots=True)
class OpResult:
    """What the engine sends back into the generator after each op.

    One OpResult is allocated per executed op, so this is the hottest
    allocation in the simulator; it is a slotted, non-frozen dataclass
    because frozen construction costs an ``object.__setattr__`` per
    field.  Treat instances as immutable all the same.

    Attributes
    ----------
    latency:
        Cycles the op took (for ``Rdtsc`` this is 0).
    timestamp:
        The thread's clock *after* the op completed.
    value:
        Loaded value for ``Load`` (line tag), else 0.
    path:
        Service path for memory ops, ``None`` otherwise.
    """

    latency: float
    timestamp: float
    value: int = 0
    path: AccessPath | None = None


Op = Load | Store | Flush | Delay | Rdtsc | Fence | Burst
