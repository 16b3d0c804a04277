"""Golden digest for the traced event stream — and proof of inertness.

Two locks in one file:

* ``GOLDEN_TRACE`` pins the exact event stream (count, order, payloads)
  that one fixed-seed MESI transmission records.  A change here means the
  tracing subsystem observed something different — either the simulator's
  behavior moved (check ``test_golden_determinism`` first) or the tap
  changed what it records.  Regenerate with
  ``TraceRecorder.digest`` via :func:`run_traced` if the change is
  intended.
* ``test_tracing_is_inert`` proves the transmission digest (the
  bit-for-bit observable behavior) is identical with tracing on and off.
  Tracing must never perturb what it observes.

``calibration_memo`` is disabled so the calibration loads actually
execute (the memo would skip them, and with it most of the event
stream); that choice changes nothing about the simulated behavior.
"""

import pytest

from repro.channel.session import ChannelSession, SessionConfig
from repro.detection import StreamingDetector
from repro.mem.hierarchy import MachineConfig

from tests.test_golden_determinism import (
    CONFIGS,
    GOLDEN,
    PAYLOAD,
    transmission_digest,
)

GOLDEN_TRACE = (
    "f4916c5b557d3af2c5f327c976d99892f1f7f1030203e6cdede5d56e4a2b8df6"
)


def make_session(trace) -> ChannelSession:
    return ChannelSession(SessionConfig(
        spec="LExclc-LSharedb",
        seed=7,
        calibration_samples=150,
        calibration_memo=False,
        trace=trace,
    ))


@pytest.fixture(scope="module")
def traced_session():
    session = make_session(trace=True)
    result = session.transmit(list(PAYLOAD))
    return session, result


def test_golden_trace_digest(traced_session):
    session, _result = traced_session
    assert session.recorder.dropped == 0, (
        "the default ring must hold a full 16-bit transmission"
    )
    assert session.recorder.digest() == GOLDEN_TRACE, (
        "the recorded event stream changed; if the change is intended, "
        "regenerate GOLDEN_TRACE"
    )


def test_trace_covers_every_category(traced_session):
    session, _result = traced_session
    categories = {e.category for e in session.recorder.events()}
    assert categories == {"phase", "load", "flush", "hop", "coherence"}


def test_tracing_is_inert(traced_session):
    _session, traced = traced_session
    untraced = make_session(trace=False).transmit(list(PAYLOAD))
    assert transmission_digest(traced) == transmission_digest(untraced)


def test_streaming_sink_leaves_trace_digest_unchanged():
    """A subscribed live detector must not perturb the recorded stream."""
    session = make_session(trace=True)
    detector = StreamingDetector(scan_interval=100_000.0)
    session.recorder.subscribe(detector)
    session.transmit(list(PAYLOAD))
    assert detector.events > 0, "the sink must actually see the feed"
    assert session.recorder.digest() == GOLDEN_TRACE


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests_hold_with_streaming_tap(name):
    """The five pinned configs, traced + live-monitored: bit-identical.

    Observation (tap, recorder, subscribed streaming detector) must
    never move the transmission digests — the strongest inertness
    statement the golden locks can make.
    """
    config = CONFIGS[name]
    if isinstance(config, str):
        session_config = SessionConfig(
            spec=config, seed=7, calibration_samples=150, trace=True,
        )
    else:
        machine_kwargs, scenario = config
        session_config = SessionConfig(
            spec=scenario,
            seed=7,
            calibration_samples=150,
            machine=MachineConfig(**machine_kwargs),
            trace=True,
        )
    session = ChannelSession(session_config)
    detector = StreamingDetector(scan_interval=100_000.0)
    session.recorder.subscribe(detector)
    digest = transmission_digest(session.transmit(list(PAYLOAD)))
    assert detector.events > 0, "the sink must actually see the feed"
    assert digest == GOLDEN[name], (
        f"{name} transmission changed with the streaming tap attached; "
        "observation must be inert"
    )
