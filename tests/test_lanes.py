"""One engine, and the L1-hit shortcut that replaced the lane backend.

The lane backend was a second engine that replayed the channel programs
without generator dispatch, kept honest by bit-identity with the
reference engine and by standing aside on every path it could not
replay.  It is gone; its one general win — probing the requesting
core's L1 before the backend split — now sits at the top of
:meth:`Machine.load` and runs on *every* path.  These tests pin what
that leaves:

* shortcut-vs-full-path transmissions are bit-identical on every live
  cell of the scenario registry, and the five golden digests hold on
  the full path too (the reference here is ``Machine.load`` routing L1
  hits through ``private_lookup`` + ``_finish``, as it did before the
  shortcut);
* a Hypothesis property: random grids of traced and untraced points
  store the same cache keys and pickle to the same bytes either way;
* the paths the lane backend had to avoid — tracing, recorders, fault
  plans, segmented runs, obfuscation, interposed ``machine.load``
  wrappers — all run the one :class:`Simulator` with the shortcut on,
  and transmit exactly as the full path does;
* the runner dispatches by ``jobs`` alone (``serial`` / ``pool``), with
  no engine option and no engine events.

The calibration memo is process-local (see
``repro.channel.calibration``), so in-process shortcut-vs-full-path
comparisons clear it before *each* run — otherwise the second run
reuses the first run's calibration pass and the manifests (not the
transmissions) drift apart.
"""

import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.calibration import clear_calibration_memo
from repro.channel.scenarios import SCENARIOS
from repro.channel.session import (
    ChannelSession,
    SessionConfig,
    clear_warm_state,
    execute_point,
)
from repro.mem.hierarchy import AccessPath, Machine
from repro.obs.recorder import clear_runner_recorder, runner_recorder
from repro.runner import ExperimentSpec, Point, ResultCache, Runner
from repro.runner.executor import FailurePolicy
from repro.runner.spec import chunk_pending
from repro.sim.engine import Simulator

from tests.test_golden_determinism import GOLDEN, run_config, transmission_digest

TRANSMIT = "tests.runner_points:transmit_point"
TRANSMIT_OPTS = "tests.runner_points:transmit_opts"
TRANSMIT_OBFUSCATED = "tests.runner_points:transmit_obfuscated"
EXECUTE = "repro.channel.session:execute_point"
SQUARE = "tests.runner_points:square"
PAYLOAD = [1, 0, 1, 1, 0, 1]
L1_COUNTER = "machine.load.l1_hit"

_SHORTCUT_LOAD = Machine.load


def _full_path_load(self, core_id, paddr, now=0.0):
    """``Machine.load`` without the shortcut: L1 hits take the long way.

    An L1 hit goes through the socket's ``private_lookup`` (LRU touch)
    and ``_finish`` (jitter, obfuscation check) exactly as both backends
    served it before the shortcut; anything else misses the shortcut's
    probe, so the real ``load`` serves it unchanged.
    """
    base = paddr & ~63
    core = self.cores[core_id]
    if core.l1.lookup(base, touch=False) is None:
        return _SHORTCUT_LOAD(self, core_id, paddr, now)
    line, level = self._socket_by_core[core_id].private_lookup(core, base)
    assert level == "l1"
    base_lat, counter = self._path_info[AccessPath.L1_HIT]
    latency = self._finish(core_id, base_lat, AccessPath.L1_HIT)
    counter.value += 1
    return line.value, latency, AccessPath.L1_HIT


@pytest.fixture
def full_path(monkeypatch):
    """Serve L1 hits through the full private-hit path for this test."""
    monkeypatch.setattr(Machine, "load", _full_path_load)


def one_transmission(cell, *, seed=11):
    """One cold-calibration transmission; returns (session, result)."""
    clear_calibration_memo()
    session = ChannelSession(SessionConfig(
        spec=cell, seed=seed, calibration_samples=120,
    ))
    result = session.transmit(list(PAYLOAD))
    return session, result


def full_path_transmission(cell, *, seed=11):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "load", _full_path_load)
        return one_transmission(cell, seed=seed)


def l1_hits(result):
    return result.manifest.stats.get(L1_COUNTER, 0)


# -- shortcut-vs-full-path equivalence, every live registry cell ----------


@pytest.mark.parametrize("cell", sorted(SCENARIOS))
def test_lane_matches_reference_on_registry_cell(cell):
    """Every registry cell behaves identically with and without it.

    Dead cells (e.g. ``mesi-ostate``, whose O bands collapse) must fail
    with the *same* calibration error; live cells must transmit
    bit-identically, manifest counters included.
    """
    from repro.errors import CalibrationError

    try:
        _, reference = full_path_transmission(cell)
    except CalibrationError as exc:
        with pytest.raises(CalibrationError) as short_exc:
            one_transmission(cell)
        assert str(short_exc.value) == str(exc)
        return
    session, shortcut = one_transmission(cell)
    assert type(session.sim) is Simulator
    assert l1_hits(shortcut) > 0
    assert transmission_digest(shortcut) == transmission_digest(reference)
    assert pickle.dumps(shortcut) == pickle.dumps(reference)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests_unchanged_with_lanes_on(name, full_path):
    """The golden digests were pinned before the shortcut existed; the
    full path must still reproduce them (the shortcut side is locked by
    ``test_golden_determinism``)."""
    clear_calibration_memo()
    assert run_config(name) == GOLDEN[name], (
        f"{name} is not bit-identical on the full private-hit path"
    )


def test_lane_drivers_actually_engage(monkeypatch):
    """Equivalence must not pass vacuously: the two routes must differ.

    The shortcut serves L1 hits without ``private_lookup``; the full
    path serves the same hits through it.  Both count them alike.
    """
    from repro.mem.coherence import SocketDomain

    levels = []
    real_lookup = SocketDomain.private_lookup

    def counted(self, core, addr):
        line, level = real_lookup(self, core, addr)
        levels.append(level)
        return line, level

    monkeypatch.setattr(SocketDomain, "private_lookup", counted)
    _, shortcut = one_transmission("mesi-es")
    shortcut_l1 = levels.count("l1")
    levels.clear()
    _, reference = full_path_transmission("mesi-es")
    assert l1_hits(shortcut) == l1_hits(reference) > 0
    # The full path looks up every L1 hit; the shortcut none of the
    # loads (stores still go through private_lookup).
    assert levels.count("l1") >= shortcut_l1 + l1_hits(reference)


# -- one engine, no switch ------------------------------------------------


def test_lanes_off_by_default():
    """Every session runs the reference engine; no runner option picks
    another."""
    session = ChannelSession(SessionConfig(
        spec="mesi-es", seed=1, calibration_samples=120,
    ))
    assert type(session.sim) is Simulator
    with pytest.raises(TypeError):
        Runner(lanes=4)


def test_kill_switch_wins_everywhere(monkeypatch, tmp_path):
    """No environment knob turns the shortcut off or changes a result.

    Tracing and segmented execution each leave the transmission and its
    L1 hit count exactly as the default run has them.
    """
    kwargs = dict(spec="mesi-es", seed=7, calibration_samples=120)
    for var in list(os.environ):
        if var.startswith("REPRO_"):
            monkeypatch.delenv(var)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_warm_state()
    baseline = execute_point(payload=list(PAYLOAD), **kwargs)
    assert l1_hits(baseline) > 0
    for var, value in (
        ("REPRO_TRACE", "1"),
        ("REPRO_SEGMENT_CYCLES", "25000"),
    ):
        with monkeypatch.context() as mp:
            mp.setenv(var, value)
            clear_warm_state()
            result = execute_point(payload=list(PAYLOAD), **kwargs)
        assert transmission_digest(result) == transmission_digest(baseline), var
        assert l1_hits(result) == l1_hits(baseline), var


def test_env_width_enables_lanes():
    """The runner's width is ``jobs`` and its chunking ``chunk_size``;
    neither the environment nor an option selects an engine."""
    assert Runner(jobs=4).jobs == 4
    assert Runner(jobs=0).jobs == (os.cpu_count() or 1)
    assert Runner().chunk_size is None
    assert Runner(chunk_size=4).chunk_size == 4
    assert not hasattr(Runner(), "lanes")


# -- the paths the lane backend stood aside on ----------------------------


def test_traced_session_bypasses_lanes():
    """A traced session runs the one engine; its tap sees the shortcut's
    hits, and tracing changes nothing observable."""
    _, untraced = one_transmission("mesi-es", seed=1)
    clear_calibration_memo()
    session = ChannelSession(SessionConfig(
        spec="mesi-es", seed=1, calibration_samples=120, trace=True,
    ))
    assert type(session.sim) is Simulator
    traced = session.transmit(list(PAYLOAD))
    assert transmission_digest(traced) == transmission_digest(untraced)
    tapped = [e for e in session.recorder.select("load")
              if e.name == AccessPath.L1_HIT.value]
    assert tapped and l1_hits(traced) > 0


def _obfuscated_run(cell):
    from repro.mitigation.hardware import attach_obfuscator

    session, first = one_transmission(cell)
    attach_obfuscator(session.machine, suspicious_cores=range(16))
    before = session.machine.stats.counters().get(L1_COUNTER, 0)
    second = session.transmit([1, 0, 1])
    hits = session.machine.stats.counters()[L1_COUNTER] - before
    return first, second, hits


def test_obfuscation_stands_down_mid_session():
    """Obfuscation attached mid-session: the shortcut keeps serving L1
    hits (``_finish`` obfuscates only the coherence bands) and the
    obfuscated transmission matches the full path's bit for bit."""
    first, second, hits = _obfuscated_run("mesi-es")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "load", _full_path_load)
        ref_first, ref_second, ref_hits = _obfuscated_run("mesi-es")
    assert hits == ref_hits > 0
    assert pickle.dumps(first) == pickle.dumps(ref_first)
    assert pickle.dumps(second) == pickle.dumps(ref_second)


def test_interposition_stands_down_mid_session():
    """A wrapper bound into the machine's instance dict (as detection
    monitors do) sees every load, the shortcut's hits included."""
    session, _ = one_transmission("mesi-es")
    stats = session.machine.stats

    def load_total():
        return sum(v for k, v in stats.counters().items()
                   if k.startswith("machine.load."))

    seen = []
    inner = session.machine.load

    def wrapper(core_id, paddr, now=0.0):
        out = inner(core_id, paddr, now)
        seen.append(out[2])
        return out

    session.machine.load = wrapper
    before = load_total()
    result = session.transmit([1, 0])
    assert result.accuracy == 1.0
    assert len(seen) == load_total() - before
    assert AccessPath.L1_HIT in seen


def test_stand_down_is_idempotent():
    """The shortcut keeps no state of its own: back-to-back
    transmissions on one session stay correct and match the full path."""
    session, _ = one_transmission("mesi-es")
    results = [session.transmit([1, 0, 1, 1]) for _ in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "load", _full_path_load)
        ref_session, _ = one_transmission("mesi-es")
        reference = [ref_session.transmit([1, 0, 1, 1]) for _ in range(2)]
    for result, ref in zip(results, reference):
        assert result.accuracy == 1.0
        assert transmission_digest(result) == transmission_digest(ref)


def test_simulation_fault_plan_bypasses_lanes():
    """A fault-injected session runs the one engine with the shortcut on
    and transmits exactly as the full path does under the same plan."""
    from repro.faults import FaultPlan

    plan = FaultPlan.build_simulation(
        seed=3, rate_per_mcycle=10.0, window_cycles=500_000.0,
    )
    if not plan.simulation_events:  # pragma: no cover - seed-dependent
        pytest.skip("fault plan drew no simulation events")

    def faulted():
        clear_calibration_memo()
        session = ChannelSession(SessionConfig(
            spec="mesi-es", seed=1, calibration_samples=120,
            faults=plan.to_json(),
        ))
        return session, session.transmit(list(PAYLOAD))

    session, shortcut = faulted()
    assert type(session.sim) is Simulator
    assert shortcut.manifest.fault_plan == plan.to_json()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "load", _full_path_load)
        _, reference = faulted()
    assert l1_hits(shortcut) > 0
    assert pickle.dumps(shortcut) == pickle.dumps(reference)


# -- grouping: machine pool, cache keys, chunks ---------------------------


def test_fingerprint_groups_vectorizing_params_only():
    """The warm-machine pool groups points by structural parameters:
    seeds and payloads share one machine, another cell gets its own."""
    clear_warm_state()
    for seed, bits in ((1, [1, 0, 1]), (9, [0, 1, 1, 0])):
        execute_point(spec="mesi-es", seed=seed, payload=bits,
                      calibration_samples=120)
    assert clear_warm_state() == 1
    for spec in ("mesi-es", "dir-es"):
        execute_point(spec=spec, seed=1, payload=[1, 0, 1],
                      calibration_samples=120)
    assert clear_warm_state() == 2


def test_point_bypass_reason_flags_fault_params(tmp_path):
    """Declared fault parameters are part of a point's identity: a
    faulted point never reuses a clean point's cached result."""
    cache = ResultCache(tmp_path)
    clean = Point(fn=TRANSMIT, params={"cell": "mesi-es", "seed": 1,
                                       "bits": 4})
    faulted = Point(fn=TRANSMIT, params={"cell": "mesi-es", "seed": 1,
                                         "bits": 4, "fault_rate": 0.25})
    same = Point(fn=TRANSMIT, params={"cell": "mesi-es", "seed": 1,
                                      "bits": 4, "fault_rate": 0.25})
    assert cache.key_for(faulted) != cache.key_for(clean)
    assert cache.key_for(faulted) == cache.key_for(same)


class _WorkerKill:
    def to_json(self):
        return {"kind": "worker_kill"}


class _OneFault:
    """Duck-typed injector: plans a fault for index 2, attempt 0."""

    def event_for(self, index, attempt):
        if index == 2 and attempt == 0:
            return _WorkerKill()
        return None


def test_lane_batches_group_cut_and_bypass(monkeypatch):
    """Chunks group by seed and cut at the width; an injected fault
    retries only its own point, in place."""
    points = [
        Point(fn=TRANSMIT, params={"cell": "mesi-es", "seed": s, "bits": 4})
        for s in range(5)
    ] + [
        Point(fn=TRANSMIT, params={"cell": "dir-es", "seed": 0, "bits": 4}),
        Point(fn=TRANSMIT, params={"cell": "dir-es", "seed": 1, "bits": 4}),
    ]
    assert chunk_pending(points, list(range(7)), 3) == [
        [0, 5, 1], [6, 2, 3], [4],
    ]

    monkeypatch.setenv("REPRO_TRACE", "1")
    clear_runner_recorder()
    try:
        spec = ExperimentSpec(experiment="fault-cut", points=tuple(
            Point(fn=SQUARE, params={"x": x}) for x in range(7)
        ))
        report = Runner(
            jobs=1, injector=_OneFault(),
            policy=FailurePolicy(retries=1, backoff_base=0.0),
        ).run(spec)
        assert report.values == [x * x for x in range(7)]
        events = runner_recorder().select("runner")
        dispatched = [e.data["index"] for e in events if e.name == "dispatch"]
        assert dispatched == [0, 1, 2, 2, 3, 4, 5, 6]
    finally:
        clear_runner_recorder()


def test_lane_state_bookkeeping():
    """The per-point record (clock, event count) the runner reads from
    a result lives in its manifest and agrees with the live session."""
    session, result = one_transmission("mesi-es")
    counters = session.machine.stats.counters()
    stats = result.manifest.stats
    assert stats["engine.events"] == counters["engine.events"] > 0
    assert stats[L1_COUNTER] == counters[L1_COUNTER] > 0
    assert 0 < result.cycles <= session.sim.global_clock


# -- runner dispatch ------------------------------------------------------


def test_serial_lane_dispatch_emits_bypass_events(monkeypatch):
    """Serial dispatch is the only in-process mode and emits no engine
    events of any kind."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    clear_runner_recorder()
    try:
        spec = ExperimentSpec(
            experiment="serial-obs",
            points=tuple(Point(fn=SQUARE, params={"x": x}) for x in (1, 2, 3)),
        )
        report = Runner(jobs=1).run(spec)
        assert report.values == [1, 4, 9]
        events = runner_recorder().select("runner")
        modes = [e.data.get("mode") for e in events if e.name == "dispatch"]
        assert modes == ["serial", "serial", "serial"]
        assert not [e.name for e in events if "lane" in e.name]
    finally:
        clear_runner_recorder()


def test_pool_lane_dispatch_matches_reference(full_path):
    """Pool workers (shortcut on) match the in-process full path."""
    points = tuple(
        Point(fn=TRANSMIT, params={"cell": cell, "seed": seed, "bits": 3})
        for cell in ("mesi-es", "moesi-ostate")
        for seed in (0, 1)
    )
    spec = ExperimentSpec(experiment="pool-vs-full", points=points)
    pooled = Runner(jobs=2, cache=None).run(spec)
    clear_calibration_memo()
    reference = Runner(jobs=1, cache=None).run(spec)
    for ref, value in zip(reference.values, pooled.values):
        assert transmission_digest(value) == transmission_digest(ref)


# -- the interleaving property --------------------------------------------


@settings(
    max_examples=3, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    choices=st.lists(
        st.tuples(
            st.sampled_from(["mesi-es", "moesi-ostate", "dir-es"]),
            st.integers(min_value=0, max_value=2),
            st.booleans(),
        ),
        min_size=2, max_size=4,
    ),
)
def test_interleaved_lane_grid_is_byte_identical(choices, tmp_path_factory):
    """Random traced/untraced interleavings reproduce the full path.

    Every grid point must store the same cache key and pickle to the
    same bytes as a run of the same spec on the full private-hit path.
    """
    points = tuple(
        Point(fn=TRANSMIT_OPTS, params={
            "cell": cell, "seed": seed, "bits": 3, "trace": traced,
        })
        for cell, seed, traced in choices
    )
    spec = ExperimentSpec(experiment="grid-mix", points=points)

    root = tmp_path_factory.mktemp("grid-mix-cache")
    clear_calibration_memo()
    ref_cache = ResultCache(root / "ref")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "load", _full_path_load)
        reference = Runner(jobs=1, cache=ref_cache).run(spec)
    clear_calibration_memo()
    short_cache = ResultCache(root / "shortcut")
    shortcut = Runner(jobs=1, cache=short_cache).run(spec)

    for point, ref, value in zip(points, reference.values, shortcut.values):
        assert short_cache.key_for(point) == ref_cache.key_for(point)
        assert pickle.dumps(value) == pickle.dumps(ref)


# -- every path under a traced runner: one engine, shortcut on ------------


def _traced_run(monkeypatch, point, *, session_trace=True):
    """Run *point* under a traced serial runner.

    The runner binds its recorder at construction, so with
    ``session_trace=False`` the runner still observes while the session
    inside builds untraced.  Returns ``(value, dispatch modes, runner
    event names)``.
    """
    monkeypatch.setenv("REPRO_TRACE", "1")
    clear_runner_recorder()
    try:
        clear_warm_state()
        spec = ExperimentSpec(experiment="paths-obs", points=(point,))
        runner, recorder = Runner(jobs=1), runner_recorder()
        if not session_trace:
            monkeypatch.delenv("REPRO_TRACE")
        report = runner.run(spec)
        events = recorder.select("runner")
        modes = [e.data.get("mode") for e in events if e.name == "dispatch"]
        return report.values[0], modes, {e.name for e in events}
    finally:
        clear_runner_recorder()


def _assert_one_engine(value, modes, names):
    assert modes == ["serial"]
    assert not [name for name in names if "lane" in name]
    assert l1_hits(value) > 0


def test_bypass_event_static_fault_plan(monkeypatch):
    """A point carrying a simulation fault plan transmits on the one
    engine with the shortcut serving its L1 hits."""
    from repro.faults import FaultPlan

    plan = FaultPlan.build_simulation(
        seed=3, rate_per_mcycle=10.0, window_cycles=500_000.0,
    ).to_json()
    point = Point(fn=EXECUTE, params={
        "spec": "mesi-es", "seed": 5, "payload": [1, 0, 1],
        "calibration_samples": 120, "faults": plan,
    })
    value, modes, names = _traced_run(monkeypatch, point)
    assert value.manifest.fault_plan == plan
    _assert_one_engine(value, modes, names)


def test_bypass_event_static_tracing(monkeypatch):
    """Environment tracing traces the session; the shortcut stays on."""
    point = Point(fn=TRANSMIT, params={"cell": "mesi-es", "seed": 5,
                                       "bits": 3})
    value, modes, names = _traced_run(monkeypatch, point)
    assert value.accuracy == 1.0
    assert value.manifest.traced_events > 0
    _assert_one_engine(value, modes, names)


def test_bypass_event_static_segments(monkeypatch, tmp_path):
    """Segmented sessions store checkpoints with the shortcut on.

    The session must stay untraced (traced sessions never checkpoint);
    the runner recorder still observes.
    """
    monkeypatch.setenv("REPRO_SEGMENT_CYCLES", "25000")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "segcache"))
    point = Point(fn=EXECUTE, params={
        "spec": "mesi-es", "seed": 5, "payload": [1, 0, 1],
        "calibration_samples": 120,
    })
    value, modes, names = _traced_run(monkeypatch, point, session_trace=False)
    assert value.accuracy == 1.0
    assert value.manifest.segments_stored > 0
    _assert_one_engine(value, modes, names)


def test_bypass_event_static_recorder(monkeypatch):
    """An explicit recorder session records the shortcut's hits."""
    point = Point(fn=TRANSMIT_OPTS, params={"cell": "mesi-es", "seed": 5,
                                            "bits": 3, "trace": True})
    value, modes, names = _traced_run(monkeypatch, point)
    assert value.accuracy == 1.0
    assert value.manifest.traced_events > 0
    _assert_one_engine(value, modes, names)


def test_bypass_event_dynamic_stand_down(monkeypatch):
    """Obfuscation attached after session build leaves the shortcut on.

    The obfuscator is a defense: the transmission completes but the
    channel is degraded, so only the sent bits are asserted.
    """
    point = Point(fn=TRANSMIT_OBFUSCATED,
                  params={"cell": "mesi-es", "seed": 5, "bits": 3})
    value, modes, names = _traced_run(monkeypatch, point)
    assert value.sent == [1, 1, 1]
    _assert_one_engine(value, modes, names)
