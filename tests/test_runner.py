"""Tests for the parallel, cache-aware experiment runner.

Covers the ExperimentSpec/Point grid API, the content-addressed on-disk
result cache (hit / miss / invalidation), the serial-vs-parallel
determinism guarantee on a real fig8 grid, the experiment registry, and
the CLI validation fixes that shipped with the runner.
"""

import io
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.errors import PointExecutionError, SpecError
from repro.runner import (
    ExperimentSpec,
    Point,
    ResultCache,
    Runner,
    StderrProgress,
    canonical_json,
    default_cache_dir,
    execute,
    resolve_callable,
    version_salt,
)

SQUARE = "tests.runner_points:square"
RECORD = "tests.runner_points:record"
BOOM = "tests.runner_points:boom"


def small_spec(n=3):
    return ExperimentSpec(
        experiment="toy",
        points=tuple(
            Point(fn=SQUARE, params={"x": i}, label=f"x={i}")
            for i in range(n)
        ),
    )


# -- spec / point identity ------------------------------------------------


def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert canonical_json({"a": 2, "b": 1}) == canonical_json({"b": 1, "a": 2})


def test_canonical_json_rejects_non_json_values():
    with pytest.raises(SpecError):
        canonical_json({"x": {1, 2}})
    with pytest.raises(SpecError):
        canonical_json(float("nan"))


def test_point_rejects_unpicklable_params_at_build_time():
    with pytest.raises(SpecError):
        Point(fn=SQUARE, params={"x": object()})


def test_point_rejects_malformed_fn_path():
    with pytest.raises(SpecError):
        Point(fn="no.colon.here", params={})


def test_point_identity_ignores_label():
    a = Point(fn=SQUARE, params={"x": 1}, label="one")
    b = Point(fn=SQUARE, params={"x": 1}, label="uno")
    c = Point(fn=SQUARE, params={"x": 2})
    assert a == b and hash(a) == hash(b)
    assert a.key() == b.key()
    assert a != c and a.key() != c.key()


def test_point_key_depends_on_salt():
    p = Point(fn=SQUARE, params={"x": 1})
    assert p.key("repro-1.0.0") != p.key("repro-1.0.1")


def test_empty_spec_rejected():
    with pytest.raises(SpecError):
        ExperimentSpec(experiment="empty", points=())


def test_resolve_callable_errors():
    assert resolve_callable(SQUARE)(x=3) == 9
    with pytest.raises(SpecError):
        resolve_callable("tests.runner_points")
    with pytest.raises(SpecError):
        resolve_callable("tests.runner_points:missing")
    with pytest.raises(SpecError):
        resolve_callable("tests.no_such_module:fn")


# -- cache ----------------------------------------------------------------


def test_cache_roundtrip_and_layout(tmp_path):
    cache = ResultCache(tmp_path, salt="s")
    p = Point(fn=SQUARE, params={"x": 2})
    hit, _ = cache.lookup(p)
    assert not hit and cache.misses == 1
    cache.store(p, {"answer": 4})
    hit, value = cache.lookup(p)
    assert hit and value == {"answer": 4} and cache.hits == 1
    path = cache.path_for(p)
    assert path.exists()
    assert path.parent.name == cache.key_for(p)[:2]


def test_cache_salt_invalidates(tmp_path):
    p = Point(fn=SQUARE, params={"x": 2})
    ResultCache(tmp_path, salt="repro-1.0.0").store(p, 4)
    hit, _ = ResultCache(tmp_path, salt="repro-1.0.1").lookup(p)
    assert not hit


@pytest.mark.parametrize("junk", [
    b"not a pickle",          # no entry magic
    b"garbage\n",             # no entry magic
    b"",                      # no entry magic
    b"RPC2\x00not a pickle",  # entry magic, UnpicklingError
])
def test_cache_corrupt_entry_is_miss_and_deleted(tmp_path, junk):
    cache = ResultCache(tmp_path, salt="s")
    p = Point(fn=SQUARE, params={"x": 2})
    cache.store(p, 4)
    cache.path_for(p).write_bytes(junk)
    hit, _ = cache.lookup(p)
    assert not hit
    assert not cache.path_for(p).exists()


def test_cache_evict(tmp_path):
    cache = ResultCache(tmp_path, salt="s")
    p = Point(fn=SQUARE, params={"x": 2})
    assert not cache.evict(p)
    cache.store(p, 4)
    assert cache.evict(p)
    assert not cache.lookup(p)[0]


def test_cache_stores_cached_none(tmp_path):
    cache = ResultCache(tmp_path, salt="s")
    p = Point(fn=SQUARE, params={"x": 2})
    cache.store(p, None)
    hit, value = cache.lookup(p)
    assert hit and value is None


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    assert default_cache_dir() == tmp_path / "c"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro" / "results"


def test_version_salt_tracks_package_version():
    from repro import __version__

    assert __version__ in version_salt()


def test_package_version_has_one_source():
    # The cache salt reads repro.__version__; the distribution metadata
    # must take its version from there, not keep a second copy.
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__",
    }


# -- runner ---------------------------------------------------------------


def test_serial_run_returns_values_in_grid_order():
    report = Runner(jobs=1).run(small_spec(4))
    assert report.values == [0, 1, 4, 9]
    assert report.cache_hits == 0 and report.cache_misses == 4


def test_execute_default_is_serial_cacheless():
    assert execute(small_spec(3)) == [0, 1, 4]


def test_cache_hit_skips_recompute(tmp_path):
    log = tmp_path / "log.txt"
    spec = ExperimentSpec(
        experiment="toy",
        points=tuple(
            Point(fn=RECORD, params={"x": i, "log": str(log)})
            for i in range(3)
        ),
    )
    first = Runner(jobs=1, cache=ResultCache(tmp_path / "c", salt="s")).run(spec)
    assert first.cache_misses == 3
    assert log.read_text().splitlines() == ["0", "1", "2"]

    second = Runner(jobs=1, cache=ResultCache(tmp_path / "c", salt="s")).run(spec)
    assert second.cache_hits == 3 and second.cache_misses == 0
    assert second.values == first.values == [0, 10, 20]
    # Hits must not have re-executed the point function.
    assert log.read_text().splitlines() == ["0", "1", "2"]

    # A new salt (version bump) invalidates everything.
    third = Runner(jobs=1, cache=ResultCache(tmp_path / "c", salt="t")).run(spec)
    assert third.cache_misses == 3
    assert log.read_text().splitlines() == ["0", "1", "2", "0", "1", "2"]


def test_gc_max_age_reaps_stale_current_entries(tmp_path):
    cache = ResultCache(tmp_path, salt="s")
    stale = Point(fn=SQUARE, params={"x": 1})
    fresh = Point(fn=SQUARE, params={"x": 2})
    cache.store(stale, 1)
    cache.store(fresh, 4)
    past = time.time() - 7200
    os.utime(cache.path_for(stale), (past, past))

    removed, freed = cache.gc(max_age_seconds=3600)
    assert removed == 1 and freed > 0
    assert cache.lookup(stale) == (False, None)
    assert cache.lookup(fresh) == (True, 4)


def test_gc_without_max_age_keeps_current_generation(tmp_path):
    cache = ResultCache(tmp_path, salt="s")
    point = Point(fn=SQUARE, params={"x": 1})
    cache.store(point, 1)
    past = time.time() - 7200
    os.utime(cache.path_for(point), (past, past))
    assert cache.gc() == (0, 0)
    assert cache.lookup(point) == (True, 1)


def test_gc_rejects_negative_max_age(tmp_path):
    with pytest.raises(ValueError, match=">= 0"):
        ResultCache(tmp_path, salt="s").gc(max_age_seconds=-1)


def test_orphaned_tmp_files_swept_on_construction(tmp_path):
    """Regression: temps leaked by killed writers are reaped, in-flight
    temps inside the grace window are left alone."""
    cache = ResultCache(tmp_path, salt="s")
    point = Point(fn=SQUARE, params={"x": 1})
    cache.store(point, 1)
    shard = cache.path_for(point).parent
    orphan = shard / "dead.pkl.tmp"
    orphan.write_bytes(b"partial write from a killed worker")
    past = time.time() - 120  # beyond STALE_TMP_SECONDS
    os.utime(orphan, (past, past))
    young = shard / "live.pkl.tmp"
    young.write_bytes(b"concurrent writer, still in flight")

    swept = ResultCache(tmp_path, salt="s")
    assert swept.swept_tmp == 1
    assert not orphan.exists()
    assert young.exists()
    assert swept.lookup(point) == (True, 1)


def _racing_stat(monkeypatch, target, on_first_stat):
    """Patch ``Path.stat`` so *on_first_stat* runs right after the first
    stat of *target* — modelling a concurrent writer acting inside the
    stat→unlink window of ``gc()`` / the tmp sweep."""
    real_stat = Path.stat
    fired = []

    def racy(self, *args, **kwargs):
        st = real_stat(self, *args, **kwargs)
        if self == target and not fired:
            fired.append(True)
            on_first_stat()
        return st

    monkeypatch.setattr(Path, "stat", racy)


def test_gc_survives_concurrent_store_refresh(tmp_path, monkeypatch):
    """Regression: a store() that refreshes an entry between gc's age
    check and its unlink must win — the now-fresh blob survives."""
    cache = ResultCache(tmp_path, salt="s")
    point = Point(fn=SQUARE, params={"x": 1})
    cache.store(point, 1)
    target = cache.path_for(point)
    past = time.time() - 7200
    os.utime(target, (past, past))

    # The first stat sees the stale mtime; the "writer" then refreshes
    # the entry, so gc's re-check sees a different mtime_ns and skips.
    _racing_stat(monkeypatch, target, lambda: os.utime(target))
    assert cache.gc(max_age_seconds=3600) == (0, 0)
    monkeypatch.undo()
    assert cache.lookup(point) == (True, 1)


def test_gc_survives_entry_vanishing_mid_sweep(tmp_path, monkeypatch):
    """Regression: an entry deleted by a concurrent gc between stat and
    unlink is skipped without crashing or inflating the freed count."""
    old = ResultCache(tmp_path, salt="old")
    point = Point(fn=SQUARE, params={"x": 1})
    old.store(point, 1)
    target = old.path_for(point)

    cache = ResultCache(tmp_path, salt="new")
    _racing_stat(monkeypatch, target, target.unlink)
    assert cache.gc() == (0, 0)


def test_tmp_sweep_survives_concurrent_rename(tmp_path, monkeypatch):
    """Regression: a writer's os.replace landing between the sweep's
    stat and unlink must not crash the sweep or lose the renamed blob."""
    cache = ResultCache(tmp_path, salt="s")
    point = Point(fn=SQUARE, params={"x": 1})
    cache.store(point, 1)
    final = cache.path_for(point)
    payload = final.read_bytes()
    final.unlink()
    tmp = final.with_suffix(".pkl.tmp")
    tmp.write_bytes(payload)
    past = time.time() - 120  # looks orphaned: past the grace window
    os.utime(tmp, (past, past))

    _racing_stat(monkeypatch, tmp, lambda: os.replace(tmp, final))
    swept = ResultCache(tmp_path, salt="s")
    monkeypatch.undo()
    assert swept.swept_tmp == 0
    assert final.exists()
    assert swept.lookup(point) == (True, 1)


def test_parallel_run_matches_serial(tmp_path):
    spec = small_spec(6)
    serial = Runner(jobs=1).run(spec)
    parallel = Runner(jobs=4, cache=ResultCache(tmp_path, salt="s")).run(spec)
    assert parallel.values == serial.values
    # The parallel run populated the cache; a rerun is all hits.
    rerun = Runner(jobs=4, cache=ResultCache(tmp_path, salt="s")).run(spec)
    assert rerun.cache_hits == 6
    assert rerun.values == serial.values


def test_point_failure_wrapped_serial():
    spec = ExperimentSpec(
        experiment="toy",
        points=(Point(fn=BOOM, params={"x": 7}, label="seven"),),
    )
    with pytest.raises(PointExecutionError, match="seven"):
        Runner(jobs=1).run(spec)


def test_point_failure_wrapped_parallel():
    spec = ExperimentSpec(
        experiment="toy",
        points=(
            Point(fn=SQUARE, params={"x": 1}),
            Point(fn=BOOM, params={"x": 7}, label="seven"),
        ),
    )
    with pytest.raises(PointExecutionError, match="seven"):
        Runner(jobs=2).run(spec)


def test_progress_lines_and_summary(tmp_path):
    stream = io.StringIO()
    progress = StderrProgress("toy", stream=stream)
    cache = ResultCache(tmp_path, salt="s")
    report = Runner(jobs=1, cache=cache, progress=progress).run(small_spec(2))
    progress.summarize(report)
    out = stream.getvalue()
    assert "[1/2] toy x=0" in out and "[2/2] toy x=1" in out
    assert "2 points" in out

    stream = io.StringIO()
    progress = StderrProgress("toy", stream=stream)
    Runner(jobs=1, cache=ResultCache(tmp_path, salt="s"),
           progress=progress).run(small_spec(2))
    assert "cached" in stream.getvalue()


# -- determinism on a real experiment grid --------------------------------


def fig8_small_spec():
    from repro.experiments import fig8_bandwidth

    return fig8_bandwidth.build_spec(
        seed=3, bits=20, rates=(400.0, 1000.0),
        scenarios=["RExclc-LSharedb", "RExclc-LExclb"],
    )


def test_fig8_parallel_byte_identical_to_serial(tmp_path):
    spec = fig8_small_spec()
    serial = Runner(jobs=1).run(spec).values
    parallel = Runner(jobs=4, cache=ResultCache(tmp_path, salt="s")).run(spec)
    assert pickle.dumps(parallel.values) == pickle.dumps(serial)
    # And the cached rerun reproduces the same bytes again.
    cached = Runner(jobs=1, cache=ResultCache(tmp_path, salt="s")).run(spec)
    assert cached.cache_hits == len(spec.points)
    assert pickle.dumps(cached.values) == pickle.dumps(serial)


def test_fig8_spec_path_matches_legacy_run():
    """The spec is the only way in: the old keyword form is gone."""
    from repro.experiments import REGISTRY, fig8_bandwidth

    info = REGISTRY["fig8"]
    with pytest.raises(TypeError):
        info.run(seed=3, bits=20)
    assert not hasattr(fig8_bandwidth, "run")
    spec = fig8_small_spec()
    assert info.run(spec) == info.collect(spec, Runner(jobs=1).run(spec).values)


# -- registry -------------------------------------------------------------


def test_registry_covers_every_driver():
    from repro.experiments import REGISTRY

    assert set(REGISTRY) == {
        "fig2", "table1", "fig7", "fig8", "fig9", "fig10", "fig11",
        "sync", "mitigations", "ablations", "detect", "capacity",
        "faults", "leaderboard", "arena",
    }
    for name, info in REGISTRY.items():
        assert info.name == name
        assert info.summary


def test_registry_drivers_expose_unified_api():
    from repro.experiments import REGISTRY

    for info in REGISTRY.values():
        module = info.load()
        for attr in ("NAME", "SUMMARY", "POINT_FN", "point", "build_spec",
                     "spec_from_args", "collect", "render",
                     "add_arguments"):
            assert hasattr(module, attr), f"{info.module} lacks {attr}"
        # run/main are the registry's, once, for every driver
        for attr in ("run", "main"):
            assert not hasattr(module, attr), f"{info.module} keeps {attr}"
        assert module.NAME == info.name


def test_registry_build_spec_points_are_hashable():
    from repro.experiments import REGISTRY

    spec = REGISTRY["table1"].build_spec(seed=1, bits=8)
    assert isinstance(spec, ExperimentSpec)
    assert len(spec.points) > 0
    for point in spec.points:
        point.key(version_salt())  # must not raise


# -- CLI integration ------------------------------------------------------


def test_cli_send_rejects_zero_rate(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["send", "101", "--rate", "0"])
    assert "--rate must be a positive" in capsys.readouterr().err


def test_cli_send_rejects_negative_rate(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["send", "101", "--rate", "-5"])
    assert "--rate must be a positive" in capsys.readouterr().err


def test_cli_experiment_uses_cache_dir(tmp_path, capsys):
    from repro.cli import main

    argv = ["table1", "--bits", "8", "--cache-dir", str(tmp_path),
            "--no-progress"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "Table I" in first
    assert any(tmp_path.iterdir()), "cache dir was not populated"
    # Second run is served from cache and renders identically.
    assert main(argv) == 0
    assert capsys.readouterr().out == first
