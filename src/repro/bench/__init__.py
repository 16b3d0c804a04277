"""The gates only ``python -m repro bench`` checks.

Throughput, latency and accuracy per workload are measured by the
repository benchmark (``perfbench/``, declared in ``BENCHMARK.json``).
``python -m repro bench`` keeps the four measurements nothing else
gates and emits a machine-readable ``BENCH_<date>.json`` report:

* ``grid_sweep`` — grid throughput (points/second) on a fig8-shaped
  64-point grid, comparing a cold reference path (a machine build and a
  cold calibration per point) against warm-worker serial, per-point
  pool and chunked pool dispatch, with a bit-identity check across all
  modes and a gate on the best self-relative speedup;
* ``trace_overhead`` — the CPU-time cost of structured tracing
  (:mod:`repro.obs`): disabled-mode overhead is gated (< 2%, since the
  disabled path is the unmodified hot code), enabled-mode cost is
  reported for information;
* ``streaming_overhead`` — the CPU-time cost of live streaming
  detection (:mod:`repro.detection.streaming` subscribed to the trace
  feed): the unsubscribed path is gated (< 2%, same contract as
  disabled tracing), the live-monitoring and marginal sink costs are
  reported for information;
* ``segment_overhead`` — the CPU-time cost of arming segmented
  checkpointing (:mod:`repro.checkpoint`) with a boundary the run never
  reaches, gated (< 5%) so the crash-resume machinery stays cheap
  enough to enable on any long run.

See PERFORMANCE.md for how to run and read the reports, and how CI
gates on them.
"""

from repro.bench.harness import (
    SEGMENT_OVERHEAD_LIMIT,
    STREAMING_OVERHEAD_LIMIT,
    TRACE_OVERHEAD_LIMIT,
    check_regression,
    cold_values,
    default_report_name,
    grid_sweep,
    load_report,
    run_all,
    segment_overhead,
    streaming_overhead,
    trace_overhead,
    write_report,
)

__all__ = [
    "SEGMENT_OVERHEAD_LIMIT",
    "STREAMING_OVERHEAD_LIMIT",
    "TRACE_OVERHEAD_LIMIT",
    "check_regression",
    "cold_values",
    "default_report_name",
    "grid_sweep",
    "load_report",
    "run_all",
    "segment_overhead",
    "streaming_overhead",
    "trace_overhead",
    "write_report",
]
