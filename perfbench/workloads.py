"""The benchmark's three workloads, built from ``--seed`` alone.

Every input (scenario grid, rates, payload bits, simulator seeds) is
generated here; the program only ever receives JSON-plain point params
for ``repro.channel.session:execute_point``, driven through
``repro.runner.Runner`` in-process or ``repro.service`` over HTTP.

A workload runs in *passes*.  Every pass of ``fig8_sweep`` and
``noisy_matrix`` is the same list of points, so a point's result must
repeat bit for bit from pass to pass; ``served_overlap`` passes are
rounds with fresh points, checked across the two clients instead.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.pace import pace_sample, tree_cpu_s
from repro.channel.session import clear_warm_state
from repro.runner import (
    ExperimentSpec, FailurePolicy, Point, ResultCache, Runner,
)
from repro.service import ExperimentService, ServiceClient

FN = "repro.channel.session:execute_point"
DEFAULT_SEED = 0
#: A point that runs longer than this fails instead of stalling the run.
POINT_TIMEOUT_S = 30.0


def derive(seed: int, *parts) -> int:
    """A 31-bit seed for one named input stream of the workload seed."""
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def random_bits(seed: int, *parts, n: int) -> list[int]:
    """A shuffled payload with as many ones as zeros.

    Host time per bit depends on the bit's value, so a balanced payload
    keeps the work of a point the same from seed to seed.
    """
    bits = [i % 2 for i in range(n)]
    random.Random(derive(seed, *parts)).shuffle(bits)
    return bits


def point_digest(result) -> str:
    """Digest of what a transmission observed: bits, samples, cycles."""
    h = hashlib.sha256()
    h.update(repr((result.sent, result.received, result.cycles)).encode())
    for s in result.samples:
        path = getattr(s.path, "value", s.path)
        h.update(repr((s.timestamp, s.latency, s.label, path)).encode())
    return h.hexdigest()[:16]


@dataclass
class PointRecord:
    """One completed point as the benchmark saw it."""

    key: str
    digest: str
    seconds: float
    accuracy: float
    kbps: float
    samples: int
    stats: dict
    executed: bool = True


@dataclass
class PassResult:
    """Everything one pass produced."""

    points: list[PointRecord] = field(default_factory=list)
    job_seconds: list[float] = field(default_factory=list)
    wall: float = 0.0
    #: CPU seconds of each job in order, failed ones included
    #: (in-process workloads); on paced passes only (see
    #: ``perfbench/pace.py``), CPU seconds of the whole process tree
    #: over the round (``served_overlap``) and ``(cpu_s, wall_s)`` of
    #: every pace kernel run taken in the pass:
    #: before every job and after the last on the in-process workloads,
    #: before and after the round on ``served_overlap``.
    job_cpu: list[float] = field(default_factory=list)
    cpu: float = 0.0
    paces: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    service: dict = field(default_factory=lambda: {
        "executed": 0, "coalesced": 0, "hits": 0,
    })


def _record(key: str, result, seconds: float, executed: bool = True):
    return PointRecord(
        key=key,
        digest=point_digest(result),
        seconds=seconds,
        accuracy=result.accuracy,
        kbps=result.achieved_rate_kbps,
        samples=len(result.samples),
        stats=dict(result.manifest.stats),
        executed=executed,
    )


class LocalWorkload:
    """Grid jobs run serially in this process through ``Runner``.

    One client, closed loop: the next job is submitted when the previous
    one has returned and its values are checked.
    """

    name = ""
    #: Passes every run completes, whatever ``--seconds`` says, so the
    #: tail percentiles always have their ten points beyond.
    min_passes = 1
    #: Every pass repeats the same points, digest for digest.
    repeats = True
    #: Whether an untimed pass runs between set-up and measurement.
    warmup_pass = False
    #: The span that encloses one unit of work, for ``residual.share``.
    root_span = "point"

    def __init__(self, seed: int):
        self.seed = seed
        self.jobs = self.build_jobs()
        #: Points a pass computes (cache hits excluded).
        self.computed_per_pass = sum(len(job.points) for job in self.jobs)
        self.runner = Runner(
            jobs=1, cache=None,
            policy=FailurePolicy(timeout=POINT_TIMEOUT_S),
        )

    def build_jobs(self) -> list[ExperimentSpec]:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Hook run at the start of every pass."""

    def first_result(self) -> PointRecord:
        """Run the workload's first point alone (the set-up measurement)."""
        point = self.jobs[0].points[0]
        spec = ExperimentSpec(experiment=self.name, points=(point,))
        report = self.runner.run(spec)
        outcome = report.outcomes[0]
        return _record(point.describe(), outcome.value, outcome.seconds)

    def run_pass(self, paced: bool = False) -> PassResult:
        """Run every job once; *paced* times each job's CPU and runs the
        pace kernel before every job and after the last."""
        self.before_pass()
        out = PassResult()
        start = time.perf_counter()
        for spec in self.jobs:
            if paced:
                out.paces.append(pace_sample())
            job_start = time.perf_counter()
            job_cpu = time.process_time()
            out.attempted += len(spec.points)
            try:
                report = self.runner.run(spec)
            except Exception as exc:  # a failing point is a measured outcome
                print(f"# {self.name}: job failed: {type(exc).__name__}: {exc}")
                out.failed += len(spec.points)
                report = None
            out.job_cpu.append(time.process_time() - job_cpu)
            if report is None:
                continue
            for outcome in report.outcomes:
                out.points.append(_record(
                    outcome.point.describe(), outcome.value, outcome.seconds,
                ))
            out.job_seconds.append(time.perf_counter() - job_start)
        if paced:
            out.paces.append(pace_sample())
        out.wall = time.perf_counter() - start
        return out

    def close(self) -> None:
        pass


class Fig8Sweep(LocalWorkload):
    """Fig 8's rate sweep over the two widest-gap LSharedb scenarios."""

    name = "fig8_sweep"
    SCENARIOS = ("LExclc-LSharedb", "RExclc-LSharedb")
    RATES = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
    BITS = 48
    min_passes = 4

    def build_jobs(self) -> list[ExperimentSpec]:
        payload = random_bits(self.seed, self.name, "payload", n=self.BITS)
        sim_seed = derive(self.seed, self.name, "sim")
        # One job per point, so each point's CPU time is measured alone:
        # twenty short jobs per pass.
        return [
            ExperimentSpec(experiment=self.name, points=(
                Point(fn=FN, label=f"{scenario}@{rate}K", params={
                    "spec": scenario, "payload": payload,
                    "rate_kbps": float(rate), "seed": sim_seed,
                }),
            ))
            for rate in self.RATES
            for scenario in self.SCENARIOS
        ]


class NoisyMatrix(LocalWorkload):
    """Fig 9-shaped points with noise over the live ES and O-state cells."""

    name = "noisy_matrix"
    #: The live cells of ``repro.experiments.arena.live_cells()`` without
    #: the LRU family, fixed here so the workload does not change when
    #: the matrix grows.  LRU cells are left out: about 1 LRU point in
    #: 30 without noise or prefix (more with either) never sees the spy's
    #: quiet run and receives until max_reception_slots, 30,000 slots:
    #: ~17 s instead of ~0.7 s without noise, many minutes with it.
    CELLS = ("mesi-es", "mesif-es", "moesi-es", "moesi-ostate",
             "dir-es", "dir-ostate")
    NOISE_THREADS = 2
    BITS, WARMUP_BITS = 32, 8
    TRIALS = 3
    min_passes = 3

    def build_jobs(self) -> list[ExperimentSpec]:
        base = derive(self.seed, self.name, "sim")
        jobs = []
        for trial in range(self.TRIALS):
            for index, cell in enumerate(self.CELLS):
                params = {
                    "spec": cell,
                    "payload": random_bits(self.seed, self.name, cell, trial,
                                           n=self.BITS),
                    # fig9_noise's per-trial seed rule, one trial per
                    # point: every point calibrates cold.
                    "seed": base + 101 * (trial * len(self.CELLS) + index),
                    "noise_threads": self.NOISE_THREADS,
                    "warmup_bits": self.WARMUP_BITS,
                }
                jobs.append(ExperimentSpec(experiment=self.name, points=(
                    Point(fn=FN, params=params, label=f"{cell} t{trial}"),
                )))
        return jobs

    def before_pass(self) -> None:
        # Drop the pooled machines and calibration memo so every pass
        # repeats the first one: machines are rebuilt when the protocol
        # changes and every point calibrates cold.
        clear_warm_state()


class ServedOverlap:
    """Two clients submit overlapping fig8-shaped jobs to one service.

    Each round both clients submit a 12-point job at once and follow it
    to completion: 6 points are in both jobs (single-flight coalescing),
    4 are the client's own (misses: compute and cache writes) and 2
    repeat the previous round's shared points (cache reads).  Round 0
    runs untimed, after the set-up point, and warms the pool worker.
    One worker, so the service and its pool fit on the one CPU the
    benchmark runs on (see ``pin_one_cpu`` in ``run.py``).
    """

    name = "served_overlap"
    SCENARIOS = Fig8Sweep.SCENARIOS
    RATES = (400, 500, 600, 700, 800, 900, 1000)
    BITS = 16
    SHARED, PRIVATE, REPEAT = 6, 4, 2
    CLIENTS = 2
    workers = 1
    min_passes = 20
    repeats = False
    warmup_pass = True
    root_span = "service.job"
    computed_per_pass = SHARED + CLIENTS * PRIVATE

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sim_seed = derive(seed, self.name, "sim")
        self.cache_dir = workdir / f"cache-{seed}-{time.monotonic_ns()}"
        self.service = ExperimentService(
            cache=ResultCache(root=self.cache_dir), workers=self.workers,
        )
        self.handle = self.service.run_in_thread()
        self.client = ServiceClient(self.handle.base_url)
        self.round = 0
        #: label -> point, and the (scenario, rate, payload) of each.
        self.points: dict[str, Point] = {}
        self.identities: set = set()
        #: canonical point identity -> first digest seen for it.
        self.seen: dict[str, str] = {}
        #: Instance attributes, so the traced run can wrap them in spans.
        self.follow = self._follow
        self.job = self._job

    def _point(self, rnd: int, tag: str, slot: int) -> Point:
        """The point for (round, tag, slot), fresh unless already made.

        A drawn payload that would repeat an earlier point is redrawn,
        so every round's new points really miss the cache.
        """
        label = f"r{rnd}-{tag}{slot}"
        point = self.points.get(label)
        if point is not None:
            return point
        scenario = self.SCENARIOS[slot % len(self.SCENARIOS)]
        rate = float(self.RATES[(slot + rnd) % len(self.RATES)])
        for attempt in range(1000):
            payload = random_bits(self.seed, self.name, label, attempt,
                                  n=self.BITS)
            identity = (scenario, rate, tuple(payload))
            if identity not in self.identities:
                break
        self.identities.add(identity)
        point = Point(fn=FN, label=label, params={
            "spec": scenario, "payload": payload, "rate_kbps": rate,
            "seed": self.sim_seed,
        })
        self.points[label] = point
        return point

    def job_spec(self, rnd: int, client: int) -> ExperimentSpec:
        shared = [self._point(rnd, "s", j) for j in range(self.SHARED)]
        own = [self._point(rnd, f"c{client}-", j) for j in range(self.PRIVATE)]
        repeat = [self._point(rnd - 1, "s", j) for j in range(self.REPEAT)]
        return ExperimentSpec(
            experiment=self.name, points=tuple(shared + own + repeat)
        )

    def _follow(self, job_id: str) -> list[dict]:
        events = []
        for event in self.client.events(job_id):
            events.append(event)
            if event.get("event") == "job-end":
                break
        return events

    def _job(self, spec: ExperimentSpec, out: PassResult, lock) -> None:
        """Submit one job, follow it to the end, fetch and check values."""
        start = time.perf_counter()
        job_id = self.client.submit_spec(spec, timeout=POINT_TIMEOUT_S)
        events = self.follow(job_id)
        values = self.client.values(job_id)
        seconds = time.perf_counter() - start
        done = {e["index"]: e for e in events
                if e.get("event") == "point-complete"}
        end = events[-1]
        records, failed = [], 0
        for index, (point, value) in enumerate(zip(spec.points, values)):
            event = done.get(index)
            if event is None:
                failed += 1
                continue
            record = _record(point.label, value, event["seconds"],
                             executed=not event["cached"])
            identity = point.canonical()
            with lock:
                expected = self.seen.setdefault(identity, record.digest)
            if record.digest != expected:
                failed += 1
                continue
            records.append(record)
        with lock:
            out.points.extend(records)
            out.failed += failed
            out.attempted += len(spec.points)
            out.job_seconds.append(seconds)
            out.service["executed"] += end.get("executed", 0)
            out.service["coalesced"] += end.get("deduped", 0)
            out.service["hits"] += end.get("cache_hits", 0)

    def first_result(self) -> PointRecord:
        spec = ExperimentSpec(
            experiment=self.name, points=(self._point(0, "s", 0),)
        )
        out = PassResult()
        self.job(spec, out, threading.Lock())
        return out.points[0]

    def run_pass(self, paced: bool = False) -> PassResult:
        """One round: every client submits its job at the same moment.

        *paced* runs the pace kernel before and after the round, while
        the service is idle, and takes the process tree's CPU time.
        """
        rnd = self.round
        self.round += 1
        out = PassResult()
        if paced:
            out.paces.append(pace_sample())
            cpu_start = tree_cpu_s()
        lock = threading.Lock()
        errors: list[BaseException] = []
        specs = [self.job_spec(rnd, index) for index in range(self.CLIENTS)]

        def client(index: int) -> None:
            try:
                self.job(specs[index], out, lock)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}")
            for i in range(self.CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.wall = time.perf_counter() - start
        if paced:
            out.cpu = tree_cpu_s() - cpu_start
            out.paces.append(pace_sample())
        for exc in errors:
            print(f"# {self.name}: job failed: {type(exc).__name__}: {exc}")
            out.failed += self.SHARED + self.PRIVATE + self.REPEAT
            out.attempted += self.SHARED + self.PRIVATE + self.REPEAT
        # Clients finish in either order; digests are compared by label.
        out.points.sort(key=lambda p: p.key)
        return out

    def close(self) -> None:
        """Stop the service and wait for every process it started.

        The service shuts its pool down without waiting, so the workers,
        the pool's manager thread and the fork server are waited for
        here, before the process exits.
        """
        if self.handle is None:
            return
        pool = self.service.manager._pool
        waiters = []
        if pool is not None:
            waiters = [pool._executor_manager_thread,
                       *pool._processes.values()]
        self.handle.stop()
        for waiter in waiters:
            if waiter is not None:
                waiter.join(timeout=60)
        # Drop the pool so its queues release their semaphores before
        # the fork server's helper processes stop.
        del pool, waiters
        self.handle = self.service = None
        gc.collect()
        multiprocessing.forkserver._forkserver._stop()
        multiprocessing.resource_tracker._resource_tracker._stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {
    Fig8Sweep.name: Fig8Sweep,
    NoisyMatrix.name: NoisyMatrix,
    ServedOverlap.name: ServedOverlap,
}


def make(name: str, seed: int, workdir: Path):
    cls = WORKLOADS[name]
    if cls is ServedOverlap:
        return cls(seed, workdir)
    return cls(seed)
