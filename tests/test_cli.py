"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "send" in out


def test_help_by_default(capsys):
    assert main([]) == 0
    assert "experiments" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_send_roundtrip(capsys):
    assert main(["send", "10110"]) == 0
    out = capsys.readouterr().out
    assert "sent     10110" in out
    assert "received 10110" in out


def test_send_rejects_empty_payload():
    with pytest.raises(SystemExit):
        main(["send", "xyz"])


def test_bands_command(capsys):
    assert main(["bands", "--samples", "120"]) == 0
    out = capsys.readouterr().out
    for label in ("LShared", "LExcl", "RShared", "RExcl", "dram"):
        assert label in out


def test_experiment_dispatch(capsys):
    assert main(["table1", "--bits", "8"]) == 0
    assert "Table I" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--retries", "-1"], "--retries: must be >= 0"),
    (["--chunk-size", "0"], "--chunk-size: must be >= 1"),
    (["--timeout", "0"], "--timeout: must be > 0"),
    (["--retries", "two"], "invalid int value"),
], ids=["negative-retries", "zero-chunk-size", "zero-timeout", "word-retries"])
def test_runner_options_reject_out_of_range(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table1", "--bits", "4", *argv])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_experiment_names_resolve():
    import importlib

    from repro.experiments import REGISTRY

    for info in REGISTRY.values():
        module = importlib.import_module(f"repro.experiments.{info.module}")
        assert callable(module.spec_from_args)
        assert info.load() is module


def test_trace_export_chrome(tmp_path, capsys):
    import json

    from repro.obs import validate_chrome_trace

    out = tmp_path / "trace.json"
    assert main(["trace", "export", "--format", "chrome",
                 "--output", str(out), "--bits", "4",
                 "--scenario", "LExclc-LSharedb"]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    trace = json.loads(out.read_text())
    validate_chrome_trace(trace)
    manifest = trace["otherData"]["manifest"]
    assert manifest["seed"] == 7
    assert manifest["scenario"] == "LExclc-LSharedb"
    assert manifest["traced_events"] > 0


def test_trace_export_text(capsys):
    assert main(["trace", "export", "--format", "text", "--bits", "2",
                 "--scenario", "LExclc-LSharedb"]) == 0
    captured = capsys.readouterr()
    assert "recorded" in captured.err
    lines = captured.out.splitlines()
    assert lines[0].lstrip().startswith("cycles")
    assert any("sample" in line for line in lines)
    assert any("coherence" in line for line in lines)


def test_trace_export_rejects_bad_rate(capsys):
    with pytest.raises(SystemExit):
        main(["trace", "export", "--rate", "0"])


def test_global_trace_flag_sets_environment(monkeypatch, capsys):
    import os

    # main() writes REPRO_TRACE straight into os.environ; claim the key
    # through monkeypatch first so teardown removes whatever main set
    # instead of leaking tracing into every later test's sessions.
    monkeypatch.setenv("REPRO_TRACE", "")
    monkeypatch.delenv("REPRO_TRACE")
    assert main(["--trace", "list"]) == 0
    assert os.environ["REPRO_TRACE"] == "1"
    assert "fig8" in capsys.readouterr().out


def test_parse_age_units_and_errors():
    import argparse

    from repro.cli import _parse_age

    assert _parse_age("90") == 90.0
    assert _parse_age("45m") == 2700.0
    assert _parse_age("12h") == 43200.0
    assert _parse_age("7d") == 604800.0
    with pytest.raises(argparse.ArgumentTypeError, match="invalid age"):
        _parse_age("soon")
    with pytest.raises(argparse.ArgumentTypeError, match=">= 0"):
        _parse_age("-5m")


def test_cache_gc_max_age_cli(tmp_path, capsys):
    import os
    import time

    from repro.runner import Point, ResultCache

    cache = ResultCache(tmp_path)
    stale = Point(fn="tests.runner_points:square", params={"x": 1})
    fresh = Point(fn="tests.runner_points:square", params={"x": 2})
    cache.store(stale, 1)
    cache.store(fresh, 4)
    past = time.time() - 7200
    os.utime(cache.path_for(stale), (past, past))

    assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                 "--max-age", "1h"]) == 0
    assert "pruned 1" in capsys.readouterr().out
    assert cache.lookup(stale) == (False, None)
    assert cache.lookup(fresh) == (True, 4)


def test_cache_stats_rejects_max_age(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["cache", "stats", "--cache-dir", str(tmp_path),
              "--max-age", "1h"])
    assert "only applies to gc" in capsys.readouterr().err


def test_checkpoint_inspect_prints_manifest(tmp_path, capsys):
    import pickle

    from repro.checkpoint import Checkpoint

    blob = Checkpoint(
        manifest={"seed": 3, "label": "main", "segment": 2},
        state=pickle.dumps({"x": 1}),
    ).to_bytes()
    path = tmp_path / "ckpt.bin"
    path.write_bytes(blob)
    assert main(["checkpoint", "inspect", str(path)]) == 0
    out = capsys.readouterr().out
    for key in ("seed", "label", "segment", "digest", "state_bytes",
                "version"):
        assert key in out


def test_checkpoint_inspect_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"definitely not a checkpoint blob")
    with pytest.raises(SystemExit):
        main(["checkpoint", "inspect", str(path)])
    assert "error" in capsys.readouterr().err
