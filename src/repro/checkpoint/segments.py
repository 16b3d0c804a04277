"""Segment-granular caching of long transmissions.

A segmented session pauses its engine every ``REPRO_SEGMENT_CYCLES``
simulated cycles and stores a :mod:`repro.checkpoint.core` snapshot in
the shared :class:`~repro.runner.cache.ResultCache` under a synthetic
cache point keyed by the *point identity* — a content hash of the
``execute_point`` keyword arguments, salted like every other cache
entry.  A later run of the same point (a crash-retried pool worker, a
re-invoked CLI) finds the newest segment through the identity's index
entry and resumes from it instead of replaying from cycle zero; the
resumed run is bit-identical to an uninterrupted one.

The same primitive warm-starts a grid from a common prefix: a point may
:meth:`~SegmentStore.adopt_prefix` another identity's *warmup*
checkpoint when everything up to the end of the warmup transmission
(seed, scenario, machine, noise, warmup payload) matches, and pay only
for its own main transmission.

Environment knobs:

* ``REPRO_SEGMENT_CYCLES`` — segment length in simulated cycles; unset
  or ``0`` disables segmentation entirely (the unsegmented behavior).
* ``REPRO_CHECKPOINT_EXPORT=path`` — additionally write the newest
  checkpoint blob to *path* (CI artifact; ``repro checkpoint inspect``
  reads it).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import math
import os
import signal
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError, ConfigError

#: The synthetic point ``fn`` segment entries are stored under.  It
#: resolves (to :func:`segment` below) so cache tooling that walks
#: entries never hits a dangling path, but it is a cache artifact, not
#: an executable grid point.
SEGMENT_FN = "repro.checkpoint.segments:segment"


def segment(**params) -> None:
    """Placeholder target of :data:`SEGMENT_FN`; never executed."""
    raise CheckpointError(
        "segment cache entries are checkpoint artifacts, not executable "
        f"grid points (params: {sorted(params)})"
    )


def _env_number(name: str, parse: type) -> Any:
    """*name* parsed by *parse*, or None when unset or empty.

    A value that does not parse raises :class:`ConfigError` rather than
    silently reading as "off".
    """
    raw = os.environ.get(name, "")
    if not raw:
        return None
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(
            f"{name}={raw!r} is not a valid {parse.__name__}"
        ) from None


def segment_cycles() -> float:
    """The configured segment length in cycles (0.0 = disabled)."""
    value = _env_number("REPRO_SEGMENT_CYCLES", float)
    return value if value is not None and value > 0 else 0.0


def segments_enabled() -> bool:
    """Whether segmented execution is active for new sessions."""
    return segment_cycles() > 0


# ----------------------------------------------------------------------
# point identity
# ----------------------------------------------------------------------

def _plain(value: Any) -> Any:
    """Canonicalize *value* into JSON-safe plain data for hashing.

    Dataclasses (ProtocolParams, MachineConfig, ScenarioSpec, fault
    plans) flatten to tagged dicts, enums to their values; anything
    exotic falls back to ``repr`` — the identity only has to be *stable*
    across processes, not invertible.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": _plain(value.value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict = {"__dataclass__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = _plain(getattr(value, f.name))
        return out
    return repr(value)


def point_identity(params: Mapping[str, Any]) -> str:
    """Content hash identifying one ``execute_point`` invocation.

    Two calls with equal (canonicalized) keyword arguments under the
    same package version share an identity — and therefore share
    segment checkpoints.  The version salt rides inside the hash so a
    version bump orphans old segments even before the cache GC runs.
    """
    from repro.runner.cache import version_salt
    from repro.runner.spec import canonical_json

    payload = canonical_json({
        "fn": "repro.channel.session:execute_point",
        "salt": version_salt(),
        "params": _plain(dict(params)),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# crash-injection hook
# ----------------------------------------------------------------------

#: Arming (:func:`arm_kill_after`): kill threshold and the count of
#: segments stored since arming.
_kill_after: int | None = None
_stored_since_arm = 0


def arm_kill_after(n: int) -> None:
    """Arm the crash hook: SIGKILL this process after *n* more segments.

    Used by the harness fault plane (``worker_kill`` with a positive
    magnitude) to kill a pool worker *mid-run*, after it has durably
    stored some segments, and by the crash-resume CI probe — the
    scenario both prove recoverable.
    """
    global _kill_after, _stored_since_arm
    _kill_after = max(1, int(n))
    _stored_since_arm = 0


def _count_store_and_maybe_kill() -> None:
    global _stored_since_arm
    _stored_since_arm += 1
    if _kill_after is not None and _stored_since_arm >= _kill_after:
        # A hard, unannounced death — the exact failure mode (OOM kill,
        # preempted spot instance) segmented runs exist to survive.
        os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class SegmentStore:
    """Checkpoint segments of one point identity in a result cache.

    Parameters
    ----------
    identity:
        The :func:`point_identity` hash the segments belong to.
    cache:
        The :class:`~repro.runner.cache.ResultCache` to store into; the
        default shares the normal results cache (and its salt), so the
        ``repro cache`` tooling sees segments as first-class entries.
    cycles:
        Segment length; defaults to :func:`segment_cycles`.
    """

    def __init__(self, identity: str, cache=None, cycles: float | None = None):
        if cache is None:
            from repro.runner.cache import ResultCache

            cache = ResultCache()
        self.identity = identity
        self.cache = cache
        self.cycles = float(cycles) if cycles else segment_cycles()
        if self.cycles <= 0:
            raise CheckpointError("SegmentStore needs a positive segment length")
        #: Segments this store wrote (manifest bookkeeping).
        self.segments_stored = 0
        #: Segment index this run resumed from, or None for a cold run.
        self.resumed_from: int | None = None

    @classmethod
    def for_point(cls, params: Mapping[str, Any]) -> "SegmentStore | None":
        """A store for one ``execute_point`` call, or None when disabled."""
        if not segments_enabled():
            return None
        return cls(point_identity(params))

    # -- cache addressing ----------------------------------------------

    def _segment_point(self, tag: int, segment_index: int):
        from repro.runner.spec import Point

        return Point(fn=SEGMENT_FN, params={
            "identity": self.identity,
            "tag": int(tag),
            "segment": int(segment_index),
        })

    def _index_point(self):
        from repro.runner.spec import Point

        return Point(fn=SEGMENT_FN, params={
            "identity": self.identity,
            "kind": "index",
        })

    # -- segmentation --------------------------------------------------

    def next_boundary(self, clock: float) -> float:
        """The first segment boundary strictly after *clock*."""
        return (math.floor(clock / self.cycles) + 1) * self.cycles

    def record_segment(self, session, ctx) -> int:
        """Capture *session* and store it as the newest segment.

        Returns the segment index (the boundary number the clock has
        reached).  Also refreshes the identity's index entry, honors the
        export hook, and fires the crash-injection hook last — so a
        killed process has always durably stored the segment it died on.
        """
        from repro.checkpoint.core import capture

        seg = int(session.sim.global_clock // self.cycles)
        ckpt = capture(session, ctx, info={
            "identity": self.identity,
            "segment": seg,
            "segment_cycles": self.cycles,
        })
        blob = ckpt.to_bytes()
        self.cache.store(self._segment_point(ctx.tag, seg), blob)
        self.cache.store(self._index_point(), {
            "tag": ctx.tag,
            "segment": seg,
            "label": ctx.label,
            "clock": session.sim.global_clock,
        })
        self.segments_stored += 1
        export = os.environ.get("REPRO_CHECKPOINT_EXPORT")
        if export:
            try:
                Path(export).write_bytes(blob)
            except OSError:
                pass
        _count_store_and_maybe_kill()
        return seg

    def latest(self) -> bytes | None:
        """The newest stored checkpoint blob for this identity, if any."""
        hit, index = self.cache.lookup(self._index_point())
        if not hit or not isinstance(index, dict):
            return None
        hit, blob = self.cache.lookup(
            self._segment_point(index.get("tag", 0), index.get("segment", 0))
        )
        if not hit or not isinstance(blob, (bytes, bytearray)):
            return None
        self.resumed_from = int(index.get("segment", 0))
        return bytes(blob)

    def adopt_prefix(self, donor_identity: str) -> bool:
        """Warm-start: copy another identity's warmup checkpoint here.

        Only a *warmup*-labelled checkpoint is adoptable — the shared
        prefix ends where the warmup transmission does, and the adopting
        point's own main transmission runs from there.  The caller is
        responsible for the donor actually being a prefix-equivalent
        point (same seed, scenario, machine, noise and warmup payload);
        adopted state is bit-exact, so a mismatched donor produces a
        *different* result, not a subtly wrong one.  Returns whether a
        checkpoint was adopted.
        """
        donor = SegmentStore(
            donor_identity, cache=self.cache, cycles=self.cycles
        )
        hit, index = self.cache.lookup(donor._index_point())
        if not hit or not isinstance(index, dict):
            return False
        if index.get("label") != "warmup":
            return False
        hit, blob = self.cache.lookup(
            donor._segment_point(index.get("tag", 0), index.get("segment", 0))
        )
        if not hit:
            return False
        self.cache.store(
            self._segment_point(index.get("tag", 0), index.get("segment", 0)),
            blob,
        )
        self.cache.store(self._index_point(), dict(index))
        return True
