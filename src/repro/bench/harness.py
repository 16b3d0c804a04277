"""The benchmark implementations behind ``python -m repro bench``.

Methodology
-----------
``repro bench`` keeps only the gates no other benchmark checks; the
repository benchmark (``perfbench/``, declared in ``BENCHMARK.json``)
measures throughput, latency and accuracy per workload.  Each benchmark
runs a fixed, deterministic workload (fixed seeds, fixed payloads), so
the executed event sequence is identical from run to run and between
code versions.

The three overhead A/Bs time each variant in CPU seconds
(``time.process_time``), interleave the variants within every repeat so
host drift hits them alike, and keep the least CPU time per variant.
CPU time leaves out time the host steals from the process, which wall
time would count as overhead.  ``grid_sweep`` times its modes in wall
seconds, because its pool modes spend their CPU time in worker
processes; it gates on a self-relative speedup, not on a raw time.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any

import repro

#: Deterministic payload pattern shared by every benchmark.
_PAYLOAD = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]

#: Report schema version (bump when the JSON layout changes).
#: v2 added the ``grid_sweep`` benchmark (points/s per execution mode,
#: bit-identity flag, transport byte counts).
#: v3 added ``trace_overhead`` (disabled/enabled tracing cost).
#: v4 added ``segment_overhead`` (armed-but-idle segmentation cost).
#: v5 added a lane-backend benchmark and a lane mode in ``grid_sweep``.
#: v6 added ``service_sweep`` (two overlapping grids through the
#: experiment service vs back-to-back local runs; dedupe ratio gated).
#: v7 added ``streaming_overhead`` (live streaming detection subscribed
#: to the trace feed vs traced-only and untraced runs; the path with
#: the feature absent is gated like disabled tracing).
#: v8 removed the v5 additions together with the lane backend.
#: v9 removed ``engine_micro``, ``fig8_point``, ``noise_point``,
#: ``service_sweep`` and the ``grid_sweep`` cache byte counts, and
#: times the overhead A/Bs in CPU seconds (``*_cpu_s``).
SCHEMA = 9

#: Allowed CPU-time overhead of *disabled* tracing vs the baseline.
#: Disabled tracing attaches nothing to the machine — the hot path is
#: byte-for-byte the untraced code — so this is an A/B of identical
#: work and the gate bounds measurement noise plus any accidental
#: reintroduction of per-event checks.
TRACE_OVERHEAD_LIMIT = 0.02

#: Allowed CPU-time overhead of the *disabled* streaming-detection
#: path vs the baseline.  With no sink subscribed the recorder's
#: notify loop is skipped behind one truthiness check, and with tracing
#: off the recorder does not exist at all — so, like disabled tracing,
#: this is an A/B of identical work and the gate bounds noise plus any
#: accidental per-event cost added to the unsubscribed path.
STREAMING_OVERHEAD_LIMIT = 0.02

#: Allowed CPU-time overhead of segmentation armed with a boundary the
#: run never reaches.  This isolates the per-event bookkeeping the
#: checkpoint plane adds (replay-log appends, mark truncation, the
#: pause-boundary comparison) from the cost of actually storing
#: segments, which is proportional to segment count and priced in
#: EXPERIMENTS.md instead.
SEGMENT_OVERHEAD_LIMIT = 0.05


def _payload(bits: int) -> list[int]:
    reps = (bits + len(_PAYLOAD) - 1) // len(_PAYLOAD)
    return (_PAYLOAD * reps)[:bits]


def _session(seed: int, trace: bool | None = None):
    """The default-config session every overhead A/B transmits on."""
    from repro.channel.session import ChannelSession, SessionConfig

    return ChannelSession(SessionConfig(
        spec="LExclc-LSharedb",
        seed=seed,
        calibration_samples=200,
        trace=trace,
    ))


def _timed_transmit(session: Any, payload: list[int]) -> float:
    """CPU seconds *session* spends transmitting *payload*."""
    t0 = time.process_time()
    session.transmit(payload)
    return time.process_time() - t0


def trace_overhead(
    seed: int = 0, bits: int = 24, repeats: int = 3
) -> dict[str, Any]:
    """Tracing cost: disabled-mode (gated) and enabled-mode (reported).

    Three session variants transmit the same fixed payload:

    * ``baseline`` — ``trace=False``, tracing forced off;
    * ``disabled`` — ``trace=None`` with ``REPRO_TRACE`` unset, the
      default production path (must resolve to the same untraced code);
    * ``enabled`` — ``trace=True``, full recording.

    The report carries ``disabled_overhead`` (gated at
    :data:`TRACE_OVERHEAD_LIMIT` by :func:`check_regression`) and
    ``enabled_overhead`` (informational — the price of turning the
    feature on).
    """
    payload = _payload(bits)
    # The "disabled" variant must see the real default, even when the
    # harness itself runs under a REPRO_TRACE=1 CI leg.
    saved = os.environ.pop("REPRO_TRACE", None)
    best = {"baseline": float("inf"), "disabled": float("inf"),
            "enabled": float("inf")}
    traced_events = 0
    try:
        for _ in range(max(1, repeats)):
            for name, flag in (("baseline", False), ("disabled", None),
                               ("enabled", True)):
                session = _session(seed, flag)
                best[name] = min(best[name],
                                 _timed_transmit(session, payload))
                if name == "enabled":
                    traced_events = session.recorder.emitted
    finally:
        if saved is not None:
            os.environ["REPRO_TRACE"] = saved
    return {
        "bits": bits,
        "baseline_cpu_s": best["baseline"],
        "disabled_cpu_s": best["disabled"],
        "enabled_cpu_s": best["enabled"],
        "disabled_overhead": best["disabled"] / best["baseline"] - 1.0,
        "enabled_overhead": best["enabled"] / best["baseline"] - 1.0,
        "traced_events": traced_events,
    }


def streaming_overhead(
    seed: int = 0, bits: int = 24, repeats: int = 3
) -> dict[str, Any]:
    """Streaming-detection cost: disabled (gated) and live (reported).

    Four session variants transmit the same fixed payload:

    * ``baseline`` — ``trace=False``: no recorder, no sink, the
      untraced hot path;
    * ``disabled`` — ``trace=None`` with ``REPRO_TRACE`` unset, the
      default production path with the streaming machinery present but
      dormant (must resolve to the same untraced code);
    * ``traced`` — ``trace=True`` with no subscriber: recorder cost
      alone;
    * ``streaming`` — ``trace=True`` with a
      :class:`~repro.detection.streaming.StreamingDetector` subscribed
      to the session recorder, interim scans included — the live
      monitoring configuration the arena driver runs.

    The report carries ``disabled_overhead`` (gated at
    :data:`STREAMING_OVERHEAD_LIMIT` by :func:`check_regression`),
    ``streaming_overhead`` (live monitoring vs baseline) and
    ``sink_overhead`` (the detector's marginal cost over tracing
    alone), both informational.
    """
    from repro.detection.streaming import StreamingDetector

    payload = _payload(bits)
    saved = os.environ.pop("REPRO_TRACE", None)
    best = {"baseline": float("inf"), "disabled": float("inf"),
            "traced": float("inf"), "streaming": float("inf")}
    events = 0
    flagged = False
    try:
        for _ in range(max(1, repeats)):
            for name, trace in (("baseline", False), ("disabled", None),
                                ("traced", True), ("streaming", True)):
                session = _session(seed, trace)
                detector = None
                if name == "streaming":
                    detector = StreamingDetector(scan_interval=100_000.0)
                    session.recorder.subscribe(detector)
                best[name] = min(best[name],
                                 _timed_transmit(session, payload))
                if detector is not None:
                    events, flagged = detector.events, bool(detector.scan())
    finally:
        if saved is not None:
            os.environ["REPRO_TRACE"] = saved
    return {
        "bits": bits,
        "baseline_cpu_s": best["baseline"],
        "disabled_cpu_s": best["disabled"],
        "traced_cpu_s": best["traced"],
        "streaming_cpu_s": best["streaming"],
        "disabled_overhead": best["disabled"] / best["baseline"] - 1.0,
        "streaming_overhead": best["streaming"] / best["baseline"] - 1.0,
        "sink_overhead": best["streaming"] / best["traced"] - 1.0,
        "streamed_events": events,
        "flagged": flagged,
    }


def segment_overhead(
    seed: int = 0, bits: int = 24, repeats: int = 3
) -> dict[str, Any]:
    """Cost of segmentation that is armed but never fires.

    Two session variants transmit the same fixed payload:

    * ``baseline`` — segmentation off (today's default path);
    * ``armed`` — ``REPRO_SEGMENT_CYCLES`` set to a boundary far beyond
      the run's end and a :class:`~repro.checkpoint.SegmentStore`
      attached, so every per-event checkpoint cost is paid (replay logs
      on all spec-bearing threads, cursor marks, the pause check) but no
      segment is ever captured or stored.

    ``overhead`` is gated at :data:`SEGMENT_OVERHEAD_LIMIT` by
    :func:`check_regression`: an unsegmented point must stay within 5%
    of itself with the machinery armed, or segmentation is too expensive
    to leave available by default.
    """
    import tempfile

    from repro.checkpoint.segments import SegmentStore
    from repro.runner.cache import ResultCache

    payload = _payload(bits)
    scratch = tempfile.mkdtemp(prefix="repro-bench-seg-")

    def one(armed: bool) -> float:
        saved = os.environ.pop("REPRO_SEGMENT_CYCLES", None)
        if armed:
            os.environ["REPRO_SEGMENT_CYCLES"] = "1e15"
        try:
            session = _session(seed)
            if armed:
                session.segments = SegmentStore(
                    "bench-segment-overhead",
                    cache=ResultCache(scratch),
                    cycles=1e15,
                )
            return _timed_transmit(session, payload)
        finally:
            if saved is None:
                os.environ.pop("REPRO_SEGMENT_CYCLES", None)
            else:
                os.environ["REPRO_SEGMENT_CYCLES"] = saved

    best = {"baseline": float("inf"), "armed": float("inf")}
    for _ in range(max(1, repeats)):
        best["baseline"] = min(best["baseline"], one(False))
        best["armed"] = min(best["armed"], one(True))
    return {
        "bits": bits,
        "baseline_cpu_s": best["baseline"],
        "armed_cpu_s": best["armed"],
        "overhead": best["armed"] / best["baseline"] - 1.0,
    }


def grid_point(
    *, scenario: str, rate: float, seed: int, bits: int
) -> Any:
    """One full-result grid point for the ``grid_sweep`` benchmark.

    Returns the whole :class:`TransmissionResult` (not just accuracy) so
    the benchmark exercises the compact sample transport on IPC and
    cache paths, and so bit-identity across execution modes can be
    checked over the complete latency trace.
    """
    from repro.channel.session import execute_point

    return execute_point(
        scenario=scenario, payload=_payload(bits), rate_kbps=rate, seed=seed
    )


def _grid_spec(points: int, bits: int, rate_offset: float = 0.0):
    """A fig8-shaped scenario × rate grid of *points* full-result points.

    *rate_offset* shifts every rate by a constant, producing a second
    grid that overlaps the first on all but the shifted-out rates — the
    workload shape of CI's ``service-smoke`` dedupe probe.
    """
    from repro.runner import ExperimentSpec, Point

    scenarios = ("LExclc-LSharedb", "RExclc-LSharedb")
    per = max(1, points // len(scenarios))
    rates = [100.0 + rate_offset + 25.0 * i for i in range(per)]
    grid = tuple(
        Point(
            fn="repro.bench.harness:grid_point",
            params={"scenario": name, "rate": rate, "seed": 0, "bits": bits},
            label=f"{name}@{rate:g}K",
        )
        for name in scenarios
        for rate in rates
    )
    return ExperimentSpec(experiment="bench-grid", points=grid)


def _values_digest(values: list[Any]) -> str:
    """SHA-256 over everything observable in a grid's results."""
    import hashlib
    import pickle

    digest = hashlib.sha256()
    for value in values:
        digest.update(pickle.dumps((
            value.sent,
            value.received,
            [(s.timestamp, s.latency, s.label, str(s.path))
             for s in value.samples],
            value.cycles,
        )))
    return digest.hexdigest()


def cold_values(spec: Any) -> list[Any]:
    """*spec*'s values with every point run in-process from cold.

    The warm machine pool and the calibration memo are cleared before
    each point, so every point pays a machine build and a cold
    calibration: the execution path the grid-throughput layers replaced.
    """
    from repro.channel.session import clear_warm_state

    values = []
    for point in spec.points:
        clear_warm_state()
        values.append(point.execute())
    return values


def _timed_grid(run: Any) -> tuple[list[Any], float]:
    """``(run(), wall_seconds)``, starting from cold warm state."""
    from repro.channel.session import clear_warm_state

    clear_warm_state()
    t0 = time.perf_counter()
    values = run()
    return values, time.perf_counter() - t0


def grid_sweep(
    jobs: int = 4, points: int = 64, bits: int = 24
) -> dict[str, Any]:
    """Grid throughput (points/second) across the execution modes.

    Runs the same fig8-shaped grid four ways and reports each mode's
    points/s plus its speedup over ``reference``:

    * ``reference`` — serial, every point from cold
      (:func:`cold_values`): a machine build and a cold calibration per
      point;
    * ``jobs`` — the process pool with one future per point
      (``chunk_size=1``), warm workers + memo active;
    * ``chunked`` — the pool with auto-sized seed-grouped chunks, the
      full optimized configuration;
    * ``serial`` — in-process with memo + warm pool active.

    The warm state is cleared before every mode, so each pays its own
    first-calibration cost.  ``bit_identical`` asserts that all four
    modes produced byte-equal results (sent/received bits, the full
    latency trace, cycle counts) — speed with different answers is a
    regression, and the gate treats it as one.  Speedups are
    self-relative (same host, same process), so they are comparable
    across machines in a way raw walls are not.
    """
    from repro.runner import Runner

    spec = _grid_spec(points, bits)
    runs = {
        "reference": _timed_grid(lambda: cold_values(spec)),
        "jobs": _timed_grid(lambda: Runner(
            cache=None, jobs=jobs, chunk_size=1).run(spec).values),
        "chunked": _timed_grid(
            lambda: Runner(cache=None, jobs=jobs).run(spec).values),
        "serial": _timed_grid(
            lambda: Runner(cache=None, jobs=1).run(spec).values),
    }
    reference = _values_digest(runs["reference"][0])
    ref_wall = runs["reference"][1]
    n = len(spec.points)
    modes: dict[str, dict[str, float]] = {}
    for name in ("reference", "serial", "jobs", "chunked"):
        wall = runs[name][1]
        modes[name] = {"wall_s": wall, "points_per_sec": n / wall}
        if name != "reference":
            modes[name]["speedup"] = ref_wall / wall
    return {
        "points": n,
        "bits": bits,
        "jobs": jobs,
        "bit_identical": all(
            _values_digest(values) == reference
            for values, _wall in runs.values()
        ),
        "modes": modes,
        "best_speedup": max(
            info["speedup"] for name, info in modes.items()
            if name != "reference"
        ),
    }


def run_all(repeats: int = 3, quick: bool = False) -> dict[str, Any]:
    """Run every benchmark and return the full report dict."""
    if quick:
        ab_bits, grid_points, grid_bits = 8, 16, 8
    else:
        ab_bits, grid_points, grid_bits = 24, 64, 24
    return {
        "schema": SCHEMA,
        "date": time.strftime("%Y-%m-%d"),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "repeats": repeats,
        "quick": quick,
        "benchmarks": {
            "grid_sweep": grid_sweep(points=grid_points, bits=grid_bits),
            "trace_overhead": trace_overhead(bits=ab_bits, repeats=repeats),
            "streaming_overhead": streaming_overhead(
                bits=ab_bits, repeats=repeats
            ),
            "segment_overhead": segment_overhead(
                bits=ab_bits, repeats=repeats
            ),
        },
    }


def default_report_name(date: str | None = None) -> str:
    """The canonical report filename, ``BENCH_<YYYY-MM-DD>.json``."""
    return f"BENCH_{date or time.strftime('%Y-%m-%d')}.json"


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    """Write *report* as indented JSON; returns the path written."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return out


def load_report(path: str | Path) -> dict[str, Any]:
    """Load a report previously written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


#: ``(benchmark, report key, limit, what the overhead prices)`` for the
#: absolute overhead gates of :func:`check_regression`.
_OVERHEAD_GATES = (
    ("trace_overhead", "disabled_overhead", TRACE_OVERHEAD_LIMIT,
     "disabled-mode tracing (must be free when off)"),
    ("streaming_overhead", "disabled_overhead", STREAMING_OVERHEAD_LIMIT,
     "the unsubscribed streaming path (must be free when no detector "
     "is attached)"),
    ("segment_overhead", "overhead", SEGMENT_OVERHEAD_LIMIT,
     "armed-but-idle segmentation on an unsegmented point"),
)


def check_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 0.20,
) -> list[str]:
    """Compare two reports; return a list of human-readable failures.

    These quantities gate:

    * grid throughput — ``grid_sweep`` must report ``bit_identical``
      (an optimized mode producing different results is a correctness
      regression, whatever its speed), and its best self-relative
      speedup must reach ``(1 - max_regression)`` of the baseline's.
      Speedups rather than raw walls gate because they are
      host-portable;
    * disabled-mode tracing — ``trace_overhead.disabled_overhead`` must
      stay under :data:`TRACE_OVERHEAD_LIMIT` (an absolute bound, not
      baseline-relative: disabled tracing is contractually free);
    * unsubscribed streaming detection —
      ``streaming_overhead.disabled_overhead`` must stay under
      :data:`STREAMING_OVERHEAD_LIMIT` (same contract: with no sink
      subscribed the feed hook must be free);
    * armed-but-idle segmentation — ``segment_overhead.overhead`` must
      stay under :data:`SEGMENT_OVERHEAD_LIMIT` (also absolute: the
      checkpoint plane's per-event bookkeeping must stay cheap enough
      to arm on any long run).
    """
    try:
        grid = current["benchmarks"]["grid_sweep"]
        base_speedup = baseline["benchmarks"]["grid_sweep"]["best_speedup"]
    except KeyError as exc:
        return [f"malformed report: missing {exc}"]
    problems: list[str] = []
    if not grid.get("bit_identical", False):
        problems.append(
            "grid_sweep: optimized modes are not bit-identical to "
            "the reference path"
        )
    speedup = grid.get("best_speedup", 0.0)
    speedup_floor = base_speedup * (1.0 - max_regression)
    if speedup < speedup_floor:
        problems.append(
            f"grid_sweep regressed: best speedup {speedup:.2f}x < "
            f"{speedup_floor:.2f}x (baseline {base_speedup:.2f}x "
            f"- {max_regression:.0%})"
        )
    for name, key, limit, what in _OVERHEAD_GATES:
        overhead = current["benchmarks"].get(name, {}).get(key, 0.0)
        if overhead >= limit:
            problems.append(
                f"{name}: {what} costs {overhead:.1%} >= {limit:.0%}"
            )
    return problems
