"""Cache line records and coherence states.

Private (per-core) caches hold :class:`PrivateLine` records with a MESI
(optionally MESIF/MOESI) state.  The shared, inclusive LLC holds
:class:`LlcLine` records which double as the directory: they carry the
core-valid-bits vector and the "exclusive granted" flag that Section VI
of the paper describes driving the E-vs-S service-path difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

LINE_SIZE = 64
LINE_SHIFT = 6


def line_addr(addr: int) -> int:
    """Align *addr* down to its cache-line base address."""
    return addr & ~(LINE_SIZE - 1)


class CoherenceState(enum.Enum):
    """Private-cache coherence states (MESI plus the F/O extensions)."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"
    FORWARD = "F"   # MESIF: designated forwarder among sharers
    OWNED = "O"     # MOESI: dirty line shared with other caches

    def __init__(self, code: str) -> None:
        # Plain member attributes rather than properties: the miss path
        # reads them on every fill, invalidation and write-back.
        #: Whether a core holding this state may read without a request.
        self.readable = code != "I"
        #: Whether a core holding this state may write without a request.
        self.writable = code == "M"
        #: Whether the copy may differ from the LLC/DRAM copy.
        self.dirty = code in ("M", "O")
        #: Whether the protocol guarantees no other private copy exists.
        self.sole_copy = code in ("M", "E")


@dataclass(slots=True)
class PrivateLine:
    """One line in a private (L1/L2) cache.

    Slotted: fills and state transitions allocate/mutate these on every
    cache miss, and slot access skips the per-instance dict.  *addr* is
    a line base address; the coherence controller only ever constructs
    lines with an aligned base, so the constructor does not realign it.
    """

    addr: int
    state: CoherenceState
    value: int = 0


@dataclass(slots=True)
class LlcLine:
    """One line in the shared LLC, including its directory metadata.

    Attributes
    ----------
    addr:
        Line base address (already aligned by the caller, as for
        :class:`PrivateLine`).
    core_valid:
        Global core ids whose private hierarchy currently holds the line
        (the paper's core-valid-bits vector).
    owner:
        Core id that must service read misses for this line (a core
        holding it in E/M, or O under MOESI); ``None`` when the LLC can
        answer directly.  A non-None owner is what creates the E-state
        latency band of Section VI.
    forwarder:
        MESIF only: the sharer designated to forward the line.
    data_valid:
        Whether the LLC actually holds the data (always True for an
        inclusive LLC; False for tag-only directory entries in the
        non-inclusive variant).
    dirty:
        LLC copy differs from DRAM (must be written back on eviction).
    """

    addr: int
    value: int = 0
    core_valid: set[int] = field(default_factory=set)
    owner: int | None = None
    forwarder: int | None = None
    data_valid: bool = True
    dirty: bool = False

    @property
    def sharer_count(self) -> int:
        """Popcount of the core-valid-bits vector."""
        return len(self.core_valid)

    @property
    def exclusive_granted(self) -> bool:
        """True when a single core was granted E/M rights for the line."""
        return self.owner is not None and len(self.core_valid) <= 1
