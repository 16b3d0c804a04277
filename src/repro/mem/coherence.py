"""Directory-based coherence controller, one domain per socket.

Implements Section VI of the paper literally.  Each socket's LLC keeps a
directory entry per line with the core-valid-bits vector:

* popcount >= 2 (or a clean LLC copy with no exclusive owner): the LLC
  answers a read miss directly — the *shared* latency band;
* popcount == 1 with exclusive rights granted: the LLC forwards the miss
  to the owner, the owner replies, downgrades E/M -> S and writes back —
  the *exclusive* latency band;
* popcount == 0 and no LLC copy: the miss falls through to the next
  socket, and finally to DRAM.

The controller also maintains inclusion (back-invalidation on LLC
eviction) or, in the non-inclusive variant, a tag-only snoop-filter
entry, which is the configuration discussed in Section VIII-E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CoherenceError
from repro.mem.cache import SetAssocCache
from repro.mem.cacheline import CoherenceState, LlcLine, PrivateLine
from repro.mem.protocols import ProtocolPolicy


@dataclass
class Core:
    """One core's private cache hierarchy.

    L1 and L2 share :class:`PrivateLine` objects, so L2 is inclusive of
    L1 by construction and a state change is visible at both levels.
    """

    core_id: int
    socket_id: int
    l1: SetAssocCache[PrivateLine]
    l2: SetAssocCache[PrivateLine]


@dataclass
class ReadService:
    """Outcome of a directory read transaction inside one socket."""

    value: int
    #: "shared" when the LLC answered directly, "excl" when the request
    #: was forwarded to an owning core's private cache.
    band: str
    entry: LlcLine


@dataclass
class SocketDomain:
    """Coherence domain of one socket: cores + LLC data array + directory."""

    socket_id: int
    cores: list[Core]
    data_array: SetAssocCache[LlcLine]
    policy: ProtocolPolicy
    dram: dict[int, int]
    inclusive: bool = True
    directory: dict[int, LlcLine] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._cores_by_id = {core.core_id: core for core in self.cores}

    # ------------------------------------------------------------------
    # private-cache helpers
    # ------------------------------------------------------------------

    def core(self, core_id: int) -> Core:
        """The core object for a global core id (must be in this socket)."""
        return self._cores_by_id[core_id]

    def private_lookup(self, core: Core, addr: int) -> tuple[PrivateLine | None, str]:
        """L1-then-L2 lookup; promotes an L2 hit into L1.

        Returns (line, level) where level is "l1", "l2" or "miss".
        """
        base = addr & ~63  # line_addr inlined (64-byte lines)
        line = core.l1.lookup(base)
        if line is not None:
            return line, "l1"
        line = self.l2_lookup(core, base)
        if line is not None:
            return line, "l2"
        return None, "miss"

    def l2_lookup(self, core: Core, base: int) -> PrivateLine | None:
        """The L2 half of :meth:`private_lookup`, for a caller whose L1
        probe of the aligned *base* already missed.

        Touches LRU and promotes a hit into L1, exactly as
        :meth:`private_lookup` does after its L1 miss.
        """
        l2 = core.l2
        bucket = l2._sets[(base >> 6) & l2._set_mask]
        line = bucket.get(base)
        if line is not None:
            bucket.move_to_end(base)
            self._l1_add(core, base, line)
        return line

    def private_line(self, core: Core, addr: int) -> PrivateLine | None:
        """Peek at a private copy without touching LRU state."""
        base = addr & ~63  # line_addr inlined (64-byte lines)
        line = core.l1.lookup(base, touch=False)
        if line is None:
            line = core.l2.lookup(base, touch=False)
        return line

    def private_install(
        self, core: Core, base: int, state: CoherenceState, value: int
    ) -> None:
        """Install a new line at the aligned *base* in the core's L2+L1.

        The caller guarantees the core holds no copy: every miss path
        reaches here after its own L1 and L2 probes missed, and nothing
        between the probe and the fill adds this line to this core, so
        the install does not probe again.  (A request that finds the
        line already present upgrades that record in place instead.)
        """
        record = PrivateLine(base, state, value)
        # SetAssocCache.insert for a key known absent: evict the LRU way
        # of a full set, then append at MRU.
        l2 = core.l2
        bucket = l2._sets[(base >> 6) & l2._set_mask]
        victim = (
            bucket.popitem(last=False)[1] if len(bucket) >= l2.assoc else None
        )
        bucket[base] = record
        if victim is not None:
            self._handle_l2_victim(core, victim)
        self._l1_add(core, base, record)

    def _l1_add(self, core: Core, base: int, line: PrivateLine) -> None:
        """Put an L2-resident *line* the core's L1 lacks into its L1.

        SetAssocCache.insert inlined for a key known absent.  The L1
        victim object still lives in L2 (L2 is inclusive of L1), so its
        state and value stay visible and nothing else is needed; only if
        L2 lost it already does it get full-eviction handling.
        """
        l1 = core.l1
        bucket = l1._sets[(base >> 6) & l1._set_mask]
        if len(bucket) >= l1.assoc:
            victim = bucket.popitem(last=False)[1]
            bucket[base] = line
            l2 = core.l2
            if victim.addr not in l2._sets[(victim.addr >> 6) & l2._set_mask]:
                self._handle_l2_victim(core, victim)
        else:
            bucket[base] = line

    def private_invalidate(self, core: Core, addr: int) -> PrivateLine | None:
        """Drop a core's private copy, updating the directory entry.

        Returns the removed line (carrying the latest value) if present.
        """
        base = addr & ~63  # line_addr inlined (64-byte lines)
        line = core.l1.remove(base)
        line2 = core.l2.remove(base)
        line = line if line is not None else line2
        if line is None:
            return None
        entry = self.directory.get(base)
        if entry is not None:
            entry.core_valid.discard(core.core_id)
            if entry.owner == core.core_id:
                entry.owner = None
            if entry.forwarder == core.core_id:
                entry.forwarder = None
            if line.state.dirty:
                entry.value = line.value
                entry.dirty = True
        return line

    def _handle_l2_victim(self, core: Core, victim: PrivateLine) -> None:
        # Inclusion: L1 must not outlive L2.
        core.l1.remove(victim.addr)
        entry = self.directory.get(victim.addr)
        if entry is None:
            if victim.state.dirty:
                self.dram[victim.addr] = victim.value
            return
        entry.core_valid.discard(core.core_id)
        if entry.owner == core.core_id:
            entry.owner = None
        if entry.forwarder == core.core_id:
            entry.forwarder = None
        if victim.state.dirty:
            entry.value = victim.value
            entry.dirty = True
        self._maybe_collect_entry(victim.addr, entry)

    # ------------------------------------------------------------------
    # LLC / directory
    # ------------------------------------------------------------------

    def llc_fill(self, addr: int, value: int) -> LlcLine:
        """Create or refresh the directory entry + LLC data for *addr*."""
        base = addr & ~63  # line_addr inlined (64-byte lines)
        entry = self.directory.get(base)
        if entry is None:
            entry = LlcLine(addr=base, value=value)
            self.directory[base] = entry
        else:
            entry.value = value
        data_array = self.data_array
        if (
            not entry.data_valid
            or base not in data_array._sets[(base >> 6) & data_array._set_mask]
        ):
            entry.data_valid = True
            victim = data_array.insert(base, entry)
            if victim is not None and victim.addr != base:
                self._handle_llc_victim(victim)
        return entry

    def _handle_llc_victim(self, victim: LlcLine) -> None:
        if self.inclusive:
            # Back-invalidate every private copy in this socket.
            for core_id in list(victim.core_valid):
                core = self._cores_by_id.get(core_id)
                if core is None:
                    continue
                line = core.l1.remove(victim.addr)
                line2 = core.l2.remove(victim.addr)
                line = line if line is not None else line2
                if line is not None and line.state.dirty:
                    victim.value = line.value
                    victim.dirty = True
            victim.core_valid.clear()
            victim.owner = None
            victim.forwarder = None
            if victim.dirty:
                self.dram[victim.addr] = victim.value
            self.directory.pop(victim.addr, None)
        else:
            # Non-inclusive: keep a tag-only snoop-filter entry while
            # private copies remain.
            victim.data_valid = False
            self._maybe_collect_entry(victim.addr, victim)

    def _maybe_collect_entry(self, addr: int, entry: LlcLine) -> None:
        if not entry.core_valid and not entry.data_valid:
            if entry.dirty:
                self.dram[addr] = entry.value
            self.directory.pop(addr, None)

    def read(self, addr: int, requester_id: int | None) -> ReadService | None:
        """One directory read transaction (Section VI-A walk).

        *requester_id* is the id of a local requesting core, or ``None``
        when the request arrives from another socket over QPI.  Returns
        ``None`` when the socket cannot service the request.
        """
        base = addr & ~63  # line_addr inlined (64-byte lines)
        entry = self.directory.get(base)
        if entry is None:
            return None
        if requester_id is not None:
            # Self-heal: a requester that just missed privately cannot
            # still be a valid sharer.
            entry.core_valid.discard(requester_id)
            if entry.owner == requester_id:
                entry.owner = None
        if entry.owner is not None:
            owner = self._cores_by_id.get(entry.owner)
            if owner is None:
                raise CoherenceError(
                    f"directory of socket {self.socket_id} names owner core "
                    f"{entry.owner} which is not in this socket"
                )
            owner_line = self.private_line(owner, base)
            if owner_line is None or not owner_line.state.readable:
                raise CoherenceError(
                    f"line {base:#x}: owner core {entry.owner} holds no copy"
                )
            value = owner_line.value
            self.policy.on_owner_read_service(entry, owner_line)
            return ReadService(value=value, band="excl", entry=entry)
        if entry.data_valid:
            self.data_array.lookup(base)  # LRU touch
            return ReadService(value=entry.value, band="shared", entry=entry)
        if entry.core_valid:
            # Non-inclusive tag-only entry: forward from any sharer.
            sharer_id = (
                entry.forwarder
                if entry.forwarder in entry.core_valid
                else min(entry.core_valid)
            )
            sharer_line = self.private_line(self._cores_by_id[sharer_id], base)
            if sharer_line is None:
                raise CoherenceError(
                    f"line {base:#x}: sharer {sharer_id} in core-valid bits "
                    "holds no private copy"
                )
            return ReadService(value=sharer_line.value, band="excl", entry=entry)
        self._maybe_collect_entry(base, entry)
        return None

    def grant_to_local(self, entry: LlcLine, core: Core, value: int) -> CoherenceState:
        """Register a local core as a sharer and fill its private caches.

        The core must hold no copy of the line (its L1 and L2 probes
        just missed); see :meth:`private_install`.
        """
        entry.core_valid.add(core.core_id)
        previous_forwarder = entry.forwarder
        state = self.policy.fill_state_for_read(entry, core.core_id)
        if state is CoherenceState.EXCLUSIVE:
            entry.owner = core.core_id
        elif (
            state is CoherenceState.FORWARD
            and previous_forwarder is not None
            and previous_forwarder != core.core_id
        ):
            # MESIF: the forwarder role moved to the newest sharer; the
            # previous forwarder drops to plain S.
            old = self._cores_by_id.get(previous_forwarder)
            if old is not None:
                old_line = self.private_line(old, entry.addr)
                if old_line is not None and old_line.state is CoherenceState.FORWARD:
                    old_line.state = CoherenceState.SHARED
        self.private_install(core, entry.addr, state, value)
        return state

    def invalidate_line(self, addr: int) -> tuple[int | None, bool]:
        """Remove the line from this whole domain (clflush semantics).

        Returns (latest_value, was_dirty).
        """
        base = addr & ~63  # line_addr inlined (64-byte lines)
        entry = self.directory.pop(base, None)
        latest: int | None = None
        dirty = False
        if entry is None:
            return latest, dirty
        self.data_array.remove(base)
        if entry.data_valid:
            latest = entry.value
        if entry.dirty:
            dirty = True
        for core_id in list(entry.core_valid):
            core = self._cores_by_id.get(core_id)
            if core is None:
                continue
            line = core.l1.remove(base)
            line2 = core.l2.remove(base)
            line = line if line is not None else line2
            if line is not None:
                if latest is None or line.state.dirty:
                    latest = line.value
                if line.state.dirty:
                    dirty = True
        return latest, dirty
