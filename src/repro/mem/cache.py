"""Set-associative cache with true-LRU replacement.

A single generic container is used for every level: private L1/L2 hold
:class:`~repro.mem.cacheline.PrivateLine` records and the shared LLC
holds :class:`~repro.mem.cacheline.LlcLine` records.  The container only
implements geometry, lookup and LRU; all coherence-state manipulation
lives in :mod:`repro.mem.coherence`.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from typing import Generic, TypeVar

from repro.errors import ConfigError
from repro.mem.cacheline import LINE_SHIFT, line_addr

LineT = TypeVar("LineT")


class SetAssocCache(Generic[LineT]):
    """A set-associative, true-LRU cache of line records.

    Parameters
    ----------
    name:
        Label used in statistics and error messages.
    n_sets:
        Number of sets; must be a power of two.
    assoc:
        Ways per set.
    """

    __slots__ = ("name", "n_sets", "assoc", "_set_mask", "_sets")

    def __init__(self, name: str, n_sets: int, assoc: int):
        if n_sets <= 0 or (n_sets & (n_sets - 1)) != 0:
            raise ConfigError(f"{name}: n_sets must be a power of two, got {n_sets}")
        if assoc <= 0:
            raise ConfigError(f"{name}: assoc must be positive, got {assoc}")
        self.name = name
        self.n_sets = n_sets
        self.assoc = assoc
        self._set_mask = n_sets - 1
        # set index -> (line base addr -> line record), insertion order = LRU order
        self._sets: list[OrderedDict[int, LineT]] = [
            OrderedDict() for _ in range(n_sets)
        ]

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.n_sets * self.assoc

    def set_index(self, addr: int) -> int:
        """The set an address maps to."""
        return (line_addr(addr) >> LINE_SHIFT) & self._set_mask

    # The three per-access methods below inline line alignment
    # (``addr & ~63`` == line_addr for 64-byte lines) and set selection:
    # every simulated memory access crosses at least one of them, and the
    # two helper calls per access showed up in the event-loop profile.

    def lookup(self, addr: int, touch: bool = True) -> LineT | None:
        """Return the line holding *addr* or None; updates LRU on hit."""
        base = addr & ~63
        bucket = self._sets[(base >> 6) & self._set_mask]
        line = bucket.get(base)
        if line is not None and touch:
            bucket.move_to_end(base)
        return line

    def insert(self, addr: int, record: LineT) -> LineT | None:
        """Insert *record* for *addr*, returning the evicted victim if any.

        The victim is the LRU line of the set; the caller is responsible
        for handling write-back / back-invalidation before discarding it.
        """
        base = addr & ~63
        bucket = self._sets[(base >> 6) & self._set_mask]
        victim = None
        if base in bucket:
            # Re-inserting a resident key keeps its slot: move it to MRU.
            # A new key is appended at MRU already.
            bucket.move_to_end(base)
        elif len(bucket) >= self.assoc:
            _victim_addr, victim = bucket.popitem(last=False)
        bucket[base] = record
        return victim

    def remove(self, addr: int) -> LineT | None:
        """Remove and return the line holding *addr* (None if absent)."""
        base = addr & ~63
        bucket = self._sets[(base >> 6) & self._set_mask]
        return bucket.pop(base, None)

    def lines(self) -> Iterator[LineT]:
        """Iterate over every resident line (for invariant checks)."""
        for bucket in self._sets:
            yield from bucket.values()

    def occupancy(self) -> int:
        """Total number of resident lines."""
        return sum(len(bucket) for bucket in self._sets)

    def clear(self) -> None:
        """Drop every line without write-back (test helper)."""
        for bucket in self._sets:
            bucket.clear()

    def __contains__(self, addr: int) -> bool:
        return self.lookup(addr, touch=False) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssocCache({self.name!r}, sets={self.n_sets}, "
            f"assoc={self.assoc}, occupancy={self.occupancy()})"
        )
