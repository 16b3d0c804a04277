"""Tests for the performance harness (``repro.bench``)."""

import pytest

from repro.bench import (
    check_regression,
    default_report_name,
    load_report,
    run_all,
    write_report,
)
from repro.bench.harness import SCHEMA


@pytest.fixture(scope="module")
def quick_report():
    return run_all(repeats=1, quick=True)


def test_run_all_shape(quick_report):
    assert quick_report["schema"] == SCHEMA
    assert quick_report["quick"] is True
    bench = quick_report["benchmarks"]
    assert set(bench) == {
        "grid_sweep", "trace_overhead", "streaming_overhead",
        "segment_overhead",
    }
    grid = bench["grid_sweep"]
    assert grid["bit_identical"] is True
    assert set(grid["modes"]) == {
        "reference", "serial", "jobs", "chunked",
    }
    for mode, info in grid["modes"].items():
        assert info["points_per_sec"] > 0
        if mode != "reference":
            assert info["speedup"] > 0
    assert grid["best_speedup"] == pytest.approx(
        max(info["speedup"] for mode, info in grid["modes"].items()
            if mode != "reference")
    )
    trace = bench["trace_overhead"]
    assert trace["baseline_cpu_s"] > 0
    assert trace["disabled_cpu_s"] > 0
    assert trace["enabled_cpu_s"] > 0
    assert trace["traced_events"] > 0
    assert trace["disabled_overhead"] == pytest.approx(
        trace["disabled_cpu_s"] / trace["baseline_cpu_s"] - 1.0
    )
    streaming = bench["streaming_overhead"]
    for key in ("baseline_cpu_s", "disabled_cpu_s", "traced_cpu_s",
                "streaming_cpu_s"):
        assert streaming[key] > 0
    assert streaming["streamed_events"] > 0
    assert streaming["flagged"] is True
    assert streaming["disabled_overhead"] == pytest.approx(
        streaming["disabled_cpu_s"] / streaming["baseline_cpu_s"] - 1.0
    )
    assert streaming["sink_overhead"] == pytest.approx(
        streaming["streaming_cpu_s"] / streaming["traced_cpu_s"] - 1.0
    )
    segment = bench["segment_overhead"]
    assert segment["baseline_cpu_s"] > 0
    assert segment["armed_cpu_s"] > 0
    assert segment["overhead"] == pytest.approx(
        segment["armed_cpu_s"] / segment["baseline_cpu_s"] - 1.0
    )


def test_report_roundtrip(quick_report, tmp_path):
    path = write_report(quick_report, tmp_path / default_report_name())
    assert path.name.startswith("BENCH_") and path.name.endswith(".json")
    assert load_report(path) == quick_report


def _report(best_speedup, bit_identical=True):
    return {
        "schema": SCHEMA,
        "benchmarks": {"grid_sweep": {
            "best_speedup": best_speedup, "bit_identical": bit_identical,
        }},
    }


def test_check_regression_passes_within_budget():
    assert check_regression(_report(3.6), _report(4.0)) == []
    # Exactly at the floor is allowed.
    assert check_regression(_report(3.2), _report(4.0)) == []


def test_check_regression_fails_below_floor():
    problems = check_regression(_report(3.0), _report(4.0))
    assert len(problems) == 1
    assert "grid_sweep regressed" in problems[0]


def test_check_regression_custom_threshold():
    assert check_regression(_report(3.8), _report(4.0), max_regression=0.02)


def test_check_regression_grid_bit_identity_gate():
    """Different bits fail the gate, whatever the speedup."""
    problems = check_regression(_report(5.0, bit_identical=False),
                                _report(4.0))
    assert len(problems) == 1 and "bit-identical" in problems[0]


def test_check_regression_trace_overhead_gate():
    current = _report(4.0)
    current["benchmarks"]["trace_overhead"] = {"disabled_overhead": 0.02}
    problems = check_regression(current, _report(4.0))
    assert len(problems) == 1
    assert "trace_overhead" in problems[0]
    current["benchmarks"]["trace_overhead"] = {"disabled_overhead": 0.005}
    assert check_regression(current, _report(4.0)) == []
    # Negative overhead (disabled faster than baseline: pure noise) passes.
    current["benchmarks"]["trace_overhead"] = {"disabled_overhead": -0.01}
    assert check_regression(current, _report(4.0)) == []


def test_check_regression_streaming_overhead_gate():
    current = _report(4.0)
    current["benchmarks"]["streaming_overhead"] = {"disabled_overhead": 0.02}
    problems = check_regression(current, _report(4.0))
    assert len(problems) == 1
    assert "streaming_overhead" in problems[0]
    # Under the cap — or negative (host noise) — passes.
    for overhead in (0.005, -0.01):
        current["benchmarks"]["streaming_overhead"] = {
            "disabled_overhead": overhead,
        }
        assert check_regression(current, _report(4.0)) == []


def test_check_regression_segment_overhead_gate():
    current = _report(4.0)
    current["benchmarks"]["segment_overhead"] = {"overhead": 0.05}
    problems = check_regression(current, _report(4.0))
    assert len(problems) == 1
    assert "segment_overhead" in problems[0]
    # Under the cap — or negative (armed faster: host noise) — passes.
    for overhead in (0.02, -0.01):
        current["benchmarks"]["segment_overhead"] = {"overhead": overhead}
        assert check_regression(current, _report(4.0)) == []


def test_check_regression_malformed_baseline():
    problems = check_regression(_report(4.0), {"benchmarks": {}})
    assert problems and "malformed report" in problems[0]


def test_cli_bench_quick(quick_report, monkeypatch, capsys):
    import repro.bench
    from repro.cli import main

    monkeypatch.setattr(repro.bench, "run_all",
                        lambda repeats, quick: quick_report)
    assert main(["bench", "--quick", "--repeats", "1", "--no-write"]) == 0
    out = capsys.readouterr().out
    for name in ("grid_sweep", "trace_overhead", "streaming_overhead",
                 "segment_overhead"):
        assert name in out
    assert "bit-identity ok" in out
    assert "wrote" not in out
