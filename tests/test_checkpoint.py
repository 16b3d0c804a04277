"""Deterministic checkpoint/restore and segmented execution.

The contract under test: a segmented run — paused at every segment
boundary, captured, stored, and continued — is *bit-identical* to an
uninterrupted one, and a later process that resumes from the newest
stored segment finishes with the same result the original would have
produced.  Covered across the three coherence backends (snoop MESI,
MOESI, home-node directory), with noise workloads and a warmup prefix
riding along, plus the blob format's integrity checks and the
unsegmented path (``REPRO_SEGMENT_CYCLES`` unset or ``0``).
"""

import hashlib
import pickle
import struct

import pytest

from repro.channel.config import ProtocolParams
from repro.channel.session import (
    ChannelSession,
    SessionConfig,
    clear_warm_state,
    execute_point,
)
from repro.checkpoint.core import (
    BLOB_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    inspect_blob,
    restore,
)
from repro.checkpoint.segments import (
    SegmentStore,
    point_identity,
    segment,
    segment_cycles,
    segments_enabled,
)
from repro.checkpoint import segments as segments_mod
from repro.errors import CheckpointError, ConfigError
from repro.runner import ResultCache

PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]

#: One representative scenario per coherence backend: snoop-MESI,
#: MOESI (O-state channel), and the home-node directory protocol.
BACKENDS = ("mesi-es", "moesi-ostate", "dir-es")

#: Noise threads + a warmup prefix exercise the hard parts of a
#: snapshot: kernel-build workload threads, the KSM daemon, and the
#: warmup-labelled re-drive path.
POINT = dict(seed=11, calibration_samples=120, noise_threads=1,
             warmup_bits=4)


def digest(result) -> str:
    """Everything observable about one transmission, hashed."""
    h = hashlib.sha256()
    h.update(",".join(map(str, result.sent)).encode())
    h.update(b"|")
    h.update(",".join(map(str, result.received)).encode())
    h.update(b"|")
    for sample in result.samples:
        h.update(struct.pack("<dd", sample.timestamp, sample.latency))
    h.update(struct.pack("<d", result.cycles))
    return h.hexdigest()


@pytest.fixture
def seg_cache(monkeypatch, tmp_path):
    """A private segment cache and a clean checkpoint environment."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    for var in ("REPRO_SEGMENT_CYCLES", "REPRO_CHECKPOINT_EXPORT",
                "REPRO_TRACE"):
        monkeypatch.delenv(var, raising=False)
    clear_warm_state()
    yield root
    clear_warm_state()


# -- round trip across backends ----------------------------------------


@pytest.mark.parametrize("spec", BACKENDS)
def test_segmented_and_resumed_runs_are_bit_identical(
    spec, seg_cache, monkeypatch
):
    baseline = execute_point(spec=spec, payload=list(PAYLOAD), **POINT)

    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    clear_warm_state()
    segmented = execute_point(spec=spec, payload=list(PAYLOAD), **POINT)
    assert digest(segmented) == digest(baseline)
    assert segmented.manifest.segment_cycles == 25000.0
    assert segmented.manifest.segments_stored > 0
    assert segmented.manifest.resumed_from is None

    # A second invocation finds the newest stored segment and resumes
    # from it — as the crash-retry of a killed worker would — and still
    # lands on the identical result.
    clear_warm_state()
    resumed = execute_point(spec=spec, payload=list(PAYLOAD), **POINT)
    assert digest(resumed) == digest(baseline)
    assert resumed.manifest.resumed_from is not None


def test_kill_switch_restores_unsegmented_behavior(seg_cache, monkeypatch):
    kwargs = dict(spec="mesi-es", seed=7, calibration_samples=120)
    baseline = execute_point(payload=list(PAYLOAD), **kwargs)

    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    assert segments_enabled()
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "0")
    assert not segments_enabled()
    clear_warm_state()
    disabled = execute_point(payload=list(PAYLOAD), **kwargs)
    assert digest(disabled) == digest(baseline)
    assert disabled.manifest.segment_cycles == 0.0
    assert disabled.manifest.segments_stored == 0
    # a zero segment length keeps the cache untouched too
    assert not list(seg_cache.rglob("*.pkl"))


# -- the blob format ----------------------------------------------------


def test_export_hook_writes_inspectable_blob(seg_cache, monkeypatch,
                                             tmp_path):
    blob_path = tmp_path / "ckpt.bin"
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    monkeypatch.setenv("REPRO_CHECKPOINT_EXPORT", str(blob_path))
    execute_point(spec="mesi-es", payload=list(PAYLOAD), seed=7,
                  calibration_samples=120)
    blob = blob_path.read_bytes()

    manifest = inspect_blob(blob)
    assert manifest["version"] == CHECKPOINT_VERSION
    assert manifest["state_bytes"] > 0
    assert manifest["segment"] >= 0
    assert manifest["label"] in ("warmup", "main")
    assert manifest["identity"]
    ckpt = Checkpoint.from_bytes(blob)
    assert ckpt.digest == manifest["digest"]


def test_blob_integrity_checks():
    ckpt = Checkpoint(manifest={"seed": 3}, state=pickle.dumps({"k": 1}))
    blob = ckpt.to_bytes()
    assert Checkpoint.from_bytes(blob).digest == ckpt.digest

    tampered = pickle.loads(blob[len(BLOB_MAGIC):])
    tampered["state"] = pickle.dumps({"k": 2})
    with pytest.raises(CheckpointError, match="digest mismatch"):
        Checkpoint.from_bytes(BLOB_MAGIC + pickle.dumps(tampered))

    with pytest.raises(CheckpointError, match="magic"):
        Checkpoint.from_bytes(b"NOPE" + blob[len(BLOB_MAGIC):])

    futuristic = pickle.loads(blob[len(BLOB_MAGIC):])
    futuristic["version"] = 99
    with pytest.raises(CheckpointError, match="version"):
        Checkpoint.from_bytes(BLOB_MAGIC + pickle.dumps(futuristic))


# -- warm-start adoption ------------------------------------------------


def test_adopt_prefix_warm_start(seg_cache, monkeypatch):
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    cache = ResultCache(seg_cache)
    session = ChannelSession(SessionConfig(
        spec="mesi-es", seed=7, calibration_samples=120,
    ))
    session.segments = SegmentStore("donor", cache=cache, cycles=25000.0)
    warmup = session.transmit(list(PAYLOAD[:4]), _label="warmup")
    assert session.segments.segments_stored > 0

    adopter = SegmentStore("adopter", cache=cache, cycles=25000.0)
    assert adopter.adopt_prefix("donor")
    blob = adopter.latest()
    assert blob is not None

    # The adopted checkpoint restores and finishes the warmup
    # bit-identically to the donor's own uninterrupted warmup.
    restored, ctx = restore(blob)
    assert ctx.label == "warmup"
    replay = restored.transmit(ctx.payload, _resume=ctx, _label=ctx.label)
    assert digest(replay) == digest(warmup)

    # After the donor's main transmission its newest checkpoint is
    # main-labelled — no longer a shared prefix, so not adoptable.
    session.transmit(list(PAYLOAD))
    late = SegmentStore("late", cache=cache, cycles=25000.0)
    assert late.adopt_prefix("donor") is False
    assert late.adopt_prefix("never-existed") is False


# -- identities, knobs, guards ------------------------------------------


def test_point_identity_is_stable_and_sensitive():
    base = {"spec": "mesi-es", "seed": 3, "payload": [1, 0, 1],
            "params": ProtocolParams()}
    assert point_identity(base) == point_identity(dict(base))
    assert point_identity(base) != point_identity({**base, "seed": 4})
    assert point_identity(base) != point_identity(
        {**base, "payload": [1, 0, 0]}
    )


def test_segment_cycles_env_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_SEGMENT_CYCLES", raising=False)
    assert segment_cycles() == 0.0
    assert not segments_enabled()
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "2.5e5")
    assert segment_cycles() == 250000.0
    assert segments_enabled()
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "0")
    assert segment_cycles() == 0.0
    assert not segments_enabled()
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "-5")
    assert segment_cycles() == 0.0
    assert not segments_enabled()


@pytest.mark.parametrize("raw", ["25k", "banana", "1e5 cycles"])
def test_malformed_segment_cycles_raises(monkeypatch, raw):
    # A typo must not silently turn crash-resume off.
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", raw)
    with pytest.raises(ConfigError, match=f"REPRO_SEGMENT_CYCLES={raw!r}"):
        segment_cycles()
    with pytest.raises(ConfigError, match="REPRO_SEGMENT_CYCLES"):
        segments_enabled()


def test_kill_at_segment_env_parsing(monkeypatch):
    """The crash hook is armed only through ``arm_kill_after``."""
    monkeypatch.setattr(segments_mod, "_kill_after", None)
    monkeypatch.setattr(segments_mod, "_stored_since_arm", 0)
    # Unarmed, and armed with a threshold not yet reached, store
    # without killing.
    segments_mod._count_store_and_maybe_kill()
    segments_mod.arm_kill_after(1000)
    assert segments_mod._stored_since_arm == 0
    segments_mod._count_store_and_maybe_kill()
    assert segments_mod._stored_since_arm == 1
    # A non-positive count still arms at the first segment.
    segments_mod.arm_kill_after(0)
    assert segments_mod._kill_after == 1


def test_segment_store_guards(monkeypatch):
    monkeypatch.delenv("REPRO_SEGMENT_CYCLES", raising=False)
    with pytest.raises(CheckpointError, match="positive segment length"):
        SegmentStore("x", cache=object(), cycles=-1.0)
    with pytest.raises(CheckpointError, match="artifact"):
        segment(identity="x")


def test_next_boundary_is_strictly_ahead():
    store = SegmentStore("x", cache=object(), cycles=100.0)
    assert store.next_boundary(0.0) == 100.0
    assert store.next_boundary(99.9) == 100.0
    assert store.next_boundary(100.0) == 200.0
