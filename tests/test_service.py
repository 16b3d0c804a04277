"""The experiment service: sharded single-flight index, cache server
socket protocol, job scheduling, and the HTTP job API.

The load-bearing properties under test:

* **single-flight** — concurrent requests for one key coalesce onto a
  single execution, fleet-wide (HTTP jobs and socket runners share one
  index);
* **liveness** — a failed or vanished owner promotes its first waiter;
  dedupe is an optimization, never a deadlock;
* **bit-identity** — a blob published by the service decodes to exactly
  the value a local :class:`~repro.runner.Runner` computes.
"""

import asyncio
import json
import threading
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.runner import ExperimentSpec, FailurePolicy, Point, Runner
from repro.runner.cache import ResultCache, decode_entry, encode_entry
from repro.service import (
    ExperimentService,
    RemoteCache,
    ServiceClient,
    ShardedIndex,
)
from repro.service.shards import shard_of

SQUARE = "tests.runner_points:square"
RECORD = "tests.runner_points:record"
BOOM = "tests.runner_points:boom"

KEY_A = "ab" * 32
KEY_B = "cd" * 32


def grid(fn, xs, experiment="svc", **extra):
    return ExperimentSpec(
        experiment=experiment,
        points=tuple(
            Point(fn=fn, params={"x": x, **extra}) for x in xs
        ),
    )


# -- ShardedIndex: the single-flight state machine ----------------------


def test_shard_of_matches_disk_fanout():
    assert shard_of(KEY_A) == int("ab", 16)
    assert shard_of("") == 0
    assert shard_of("zz-not-hex") == 0


def test_index_single_flight_lifecycle(tmp_path):
    async def scenario():
        index = ShardedIndex(ResultCache(tmp_path, salt="s"))
        # First caller owns; a second concurrent caller must wait.
        assert index.reserve(KEY_A, "one") == ("own", None)
        assert index.reserve(KEY_A, "one") == ("own", None)  # idempotent
        assert index.reserve(KEY_A, "two") == ("wait", None)
        waiter = asyncio.ensure_future(index.wait(KEY_A, "two", timeout=5))
        await asyncio.sleep(0)  # park the waiter
        blob = encode_entry(42)
        index.publish(KEY_A, blob, "one")
        assert await waiter == ("hit", blob)
        # Published blobs hit from then on — for everyone.
        assert index.reserve(KEY_A, "three") == ("hit", blob)
        assert index.in_flight() == 0
        c = index.counters
        assert c["reserved"] == 1 and c["coalesced"] == 1
        assert c["published"] == 1 and c["hits"] == 1

    asyncio.run(scenario())


def test_index_release_promotes_first_waiter(tmp_path):
    async def scenario():
        index = ShardedIndex(ResultCache(tmp_path, salt="s"))
        assert index.reserve(KEY_A, "owner") == ("own", None)
        assert index.reserve(KEY_A, "heir") == ("wait", None)
        waiter = asyncio.ensure_future(index.wait(KEY_A, "heir", timeout=5))
        await asyncio.sleep(0)
        index.release(KEY_A, "owner")  # owner failed without publishing
        assert await waiter == ("own", None)
        assert index.counters["failed"] == 1
        assert index.counters["promoted"] == 1
        # The promoted waiter now owns the reservation.
        assert index.reserve(KEY_A, "heir") == ("own", None)

    asyncio.run(scenario())


def test_index_wait_timeout_keeps_reservation(tmp_path):
    async def scenario():
        index = ShardedIndex(ResultCache(tmp_path, salt="s"))
        index.reserve(KEY_A, "owner")
        index.reserve(KEY_A, "waiter")
        status, blob = await index.wait(KEY_A, "waiter", timeout=0.01)
        assert (status, blob) == ("pending", None)
        # The owner's claim survives a waiter's timeout.
        assert index.reserve(KEY_A, "third") == ("wait", None)

    asyncio.run(scenario())


def test_index_wait_self_promotes_when_owner_vanished(tmp_path):
    async def scenario():
        index = ShardedIndex(ResultCache(tmp_path, salt="s"))
        # No reservation, no blob: promote the caller rather than hang.
        assert await index.wait(KEY_A, "me", timeout=5) == ("own", None)
        assert index.counters["promoted"] == 1

    asyncio.run(scenario())


def test_index_release_owner_sweeps_disconnected_client(tmp_path):
    async def scenario():
        index = ShardedIndex(ResultCache(tmp_path, salt="s"))
        index.reserve(KEY_A, "conn-1")
        index.reserve(KEY_B, "conn-1")
        index.reserve(KEY_A, "conn-2")
        waiter = asyncio.ensure_future(
            index.wait(KEY_A, "conn-2", timeout=5)
        )
        await asyncio.sleep(0)
        assert index.release_owner("conn-1") == 2
        # The survivor inherits KEY_A; KEY_B's reservation disappears.
        assert await waiter == ("own", None)
        assert index.in_flight() == 1

    asyncio.run(scenario())


# -- the composed service ------------------------------------------------


@pytest.fixture
def service(tmp_path):
    svc = ExperimentService(
        cache=ResultCache(tmp_path / "cache", salt="svc"),
        workers=2,
        policy=FailurePolicy(keep_going=True),
    )
    handle = svc.run_in_thread()
    yield handle
    handle.stop()


def remote(handle, **kwargs):
    host, port = handle.cache_address
    kwargs.setdefault("salt", "svc")
    return RemoteCache(host, port, **kwargs)


# -- the socket protocol -------------------------------------------------


def test_remote_cache_round_trip(service):
    cache = remote(service)
    point = Point(fn=SQUARE, params={"x": 7})
    assert cache.lookup(point) == (False, None)
    cache.store(point, 49)
    assert cache.lookup(point) == (True, 49)
    # A second connection sees the same blob (shared on-disk store).
    other = remote(service)
    assert other.lookup(point) == (True, 49)
    stats = other.server_stats()
    assert stats["published"] == 1
    cache.close()
    other.close()


def test_remote_cache_single_flight_across_clients(service):
    first = remote(service)
    second = remote(service)
    point = Point(fn=SQUARE, params={"x": 3})
    assert first.reserve(point) == ("own", None)
    assert second.reserve(point) == ("wait", None)

    results = []
    parked = threading.Thread(
        target=lambda: results.append(second.wait_for(point, timeout=10))
    )
    parked.start()
    first.store(point, 9)  # publish wakes the parked waiter
    parked.join(timeout=10)
    assert results == [("hit", 9)]
    assert first.server_stats()["coalesced"] == 1
    first.close()
    second.close()


def test_disconnect_promotes_waiter(service):
    doomed = remote(service)
    survivor = remote(service)
    point = Point(fn=SQUARE, params={"x": 5})
    assert doomed.reserve(point) == ("own", None)
    assert survivor.reserve(point) == ("wait", None)
    doomed.close()  # dead client: server sweeps its reservations
    status, value = survivor.wait_for(point, timeout=10)
    assert (status, value) == ("own", None)
    survivor.close()


# -- Runner over RemoteCache --------------------------------------------


def test_serial_runner_over_remote_cache(service, tmp_path):
    log = tmp_path / "log"
    spec = grid(RECORD, range(4), log=str(log))
    cache = remote(service)
    first = Runner(jobs=1, cache=cache).run(spec)
    assert first.values == [0, 10, 20, 30]
    assert first.cache_misses == 4 and first.cache_hits == 0

    second = Runner(jobs=1, cache=remote(service)).run(spec)
    assert second.values == first.values
    assert second.cache_hits == 4 and second.cache_misses == 0
    # Hits never re-execute: one log line per unique point.
    assert len(log.read_text().splitlines()) == 4
    cache.close()


def test_concurrent_runners_pay_once_per_unique_point(service, tmp_path):
    """Two overlapping sweeps, two processesworth of runners, one
    execution per unique key — the tentpole guarantee."""
    log = tmp_path / "log"
    spec_a = grid(RECORD, range(0, 6), log=str(log))
    spec_b = grid(RECORD, range(3, 9), log=str(log))
    reports = {}

    def sweep(name, spec):
        runner = Runner(
            jobs=2, cache=remote(service), wait_timeout=60.0
        )
        reports[name] = runner.run(spec)

    threads = [
        threading.Thread(target=sweep, args=("a", spec_a)),
        threading.Thread(target=sweep, args=("b", spec_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert reports["a"].values == [x * 10 for x in range(0, 6)]
    assert reports["b"].values == [x * 10 for x in range(3, 9)]
    # 12 points submitted, 9 unique: exactly 9 executions fleet-wide.
    executed = sorted(int(line) for line in log.read_text().splitlines())
    assert executed == list(range(9))
    stats = service.stats()
    assert stats["published"] == 9
    assert stats["in_flight"] == 0  # all reservations settled
    # The 3 overlapping points came back cached (a deduped wait counts
    # as a cache hit too — deduped_hits is the subset that parked).
    overlap_savings = reports["a"].cache_hits + reports["b"].cache_hits
    assert overlap_savings == 3
    assert (
        reports["a"].deduped_hits + reports["b"].deduped_hits
        <= overlap_savings
    )


def test_wait_timeout_takeover_recomputes_locally(service, tmp_path):
    """An abandoned reservation cannot wedge a sweep: the waiter takes
    the point over after wait_timeout and publishes itself."""
    log = tmp_path / "log"
    point = Point(fn=RECORD, params={"x": 1, "log": str(log)})
    squatter = remote(service)
    assert squatter.reserve(point) == ("own", None)  # never publishes

    report = Runner(
        jobs=1, cache=remote(service), wait_timeout=0.2
    ).run(ExperimentSpec(experiment="svc", points=(point,)))
    assert report.values == [10]
    assert log.read_text().splitlines() == ["1"]
    squatter.close()


# -- the HTTP job API ----------------------------------------------------


def test_jobs_end_to_end_bit_identical_to_local(service, tmp_path):
    client = ServiceClient(service.base_url)
    spec_a = grid(SQUARE, range(0, 8))
    spec_b = grid(SQUARE, range(4, 12))
    job_a = client.submit_spec(spec_a)
    job_b = client.submit_spec(spec_b)
    manifest_a = client.wait(job_a, timeout=120)
    manifest_b = client.wait(job_b, timeout=120)
    assert manifest_a["status"] == "done"
    assert manifest_b["status"] == "done"
    assert manifest_a["completed"] == 8 and manifest_b["completed"] == 8
    # 16 points submitted, 12 unique: every unique point paid for once.
    assert manifest_a["executed"] + manifest_b["executed"] == 12
    savings = (
        manifest_a["cache_hits"] + manifest_a["deduped"]
        + manifest_b["cache_hits"] + manifest_b["deduped"]
    )
    assert savings == 4
    assert service.stats()["published"] == 12

    # Bit-identity: the service's blobs decode to the local values.
    local = Runner(
        jobs=1, cache=ResultCache(tmp_path / "local", salt="local")
    ).run(spec_a)
    assert client.values(job_a) == local.values == [
        x * x for x in range(8)
    ]

    listed = {job["id"]: job for job in client.jobs()}
    assert listed[job_a]["status"] == "done"
    assert listed[job_b]["total"] == 8


def test_events_stream_replays_full_lifecycle(service):
    client = ServiceClient(service.base_url)
    job_id = client.submit_spec(grid(SQUARE, range(3)))
    client.wait(job_id, timeout=120)
    events = list(client.events(job_id))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "job-queued"
    assert kinds[-1] == "job-end"
    assert "job-start" in kinds
    completes = [e for e in events if e["event"] == "point-complete"]
    assert len(completes) == 3
    # The wire schema is the progress module's JSON-lines record.
    for record in completes:
        assert set(record) >= {
            "experiment", "index", "total", "label", "cached",
            "deduped", "attempts", "seconds",
        }
    end = events[-1]
    assert end["status"] == "done" and end["executed"] == 3


def test_live_events_stream_closes_after_job_end(service):
    # Follow the FIRST job on a fresh service while it runs.  Worker
    # processes must never hold a duplicate of the stream's socket
    # (plain fork at dispatch time would), or the client blocks waiting
    # for EOF after ``job-end`` until its read timeout instead of the
    # stream ending; a short client timeout turns that hang into a
    # TimeoutError failure here.
    client = ServiceClient(service.base_url, timeout=10.0)
    job_id = client.submit_spec(grid(SQUARE, range(3)))
    events = list(client.events(job_id))
    assert events[-1]["event"] == "job-end"
    assert events[-1]["status"] == "done"


def test_job_failure_path_keeps_going(service):
    client = ServiceClient(service.base_url)
    spec = ExperimentSpec(experiment="svc", points=(
        Point(fn=BOOM, params={"x": 1}),
        Point(fn=SQUARE, params={"x": 4}),
    ))
    job_id = client.submit_spec(spec)
    manifest = client.wait(job_id, timeout=120)
    assert manifest["status"] == "failed"
    assert manifest["failed"] == 1 and manifest["completed"] == 2
    rows = manifest["points"]
    assert rows[0]["status"] == "failed"
    assert "boom" in rows[0]["message"]
    assert rows[1]["status"] == "ok"
    assert client.point_value(job_id, 1) == 16
    with pytest.raises(ServiceError, match="no published result"):
        client.point_value(job_id, 0)
    # A failed owner releases its reservation — nothing left in flight.
    assert service.stats()["in_flight"] == 0


def test_driver_submission_and_api_errors(service):
    client = ServiceClient(service.base_url)
    with pytest.raises(ServiceError, match="unknown driver"):
        client.submit_driver("not-a-driver")
    with pytest.raises(ServiceError, match="HTTP 404"):
        client.job("job-999")
    with pytest.raises(ServiceError, match="'spec' or 'driver'"):
        client.submit_job({})

    status, body = client._request("POST", "/jobs", payload=None)
    # An empty body is "{}": missing spec/driver, not a parse error.
    assert status == 400

    raw = urllib.request.Request(
        service.base_url + "/jobs",
        data=b"not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        urllib.request.urlopen(raw, timeout=10)
        raised = None
    except urllib.error.HTTPError as exc:
        raised = exc.code
        detail = json.loads(exc.read())
    assert raised == 400 and "malformed" in detail["error"]

    delete = urllib.request.Request(
        service.base_url + "/jobs", method="DELETE"
    )
    try:
        urllib.request.urlopen(delete, timeout=10)
        raised = None
    except urllib.error.HTTPError as exc:
        raised = exc.code
    assert raised == 405

    health = json.loads(
        urllib.request.urlopen(
            service.base_url + "/healthz", timeout=10
        ).read()
    )
    assert health == {"status": "ok"}


def test_submit_rejects_bad_failure_policy(service):
    """A malformed or negative retry budget is the client's error (400),
    not a server error and not a job that runs nothing."""
    client = ServiceClient(service.base_url)
    spec = grid(SQUARE, [1, 2]).to_json()
    for policy in ({"retries": "x"}, {"retries": -1}, {"timeout": 0},
                   {"timeout": "soon"}):
        status, body = client._request(
            "POST", "/jobs", payload={"spec": spec, **policy}
        )
        assert status == 400, policy
        assert "failure policy" in json.loads(body)["error"]
    assert client.jobs() == []


def test_decode_entry_round_trips_point_blob(service):
    """The /points/<i> blob is the cache's entry framing, verbatim."""
    client = ServiceClient(service.base_url)
    job_id = client.submit_spec(grid(SQUARE, [6]))
    client.wait(job_id, timeout=120)
    manifest = client.job(job_id)
    key = manifest["keys"][0]
    blob = urllib.request.urlopen(
        f"{service.base_url}/jobs/{job_id}/points/0", timeout=10
    ).read()
    assert decode_entry(blob) == 36
    # The on-disk entry is byte-identical to what the route served.
    on_disk = service.service.cache.lookup_blob(key)
    assert on_disk == blob
