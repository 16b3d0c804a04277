"""Repository benchmark: end-to-end and per-layer cost of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig8_sweep --seed 0 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):

* ``fig8_sweep``     - serial rate sweep in-process, warm machine pool;
* ``noisy_matrix``   - every live matrix cell with kernel-build noise,
                       cold calibration and machine rebuilds per pass;
* ``served_overlap`` - two client threads, overlapping jobs, one
                       in-process ``ExperimentService`` with one worker.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
The benchmark runs pinned to one CPU, and its timing metrics are CPU
time (wall time where only that is observable) scaled to a reference
host speed by a pace kernel timed next to the work: see
``perfbench/pace.py``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, every one a total per pass averaged over the traced
passes, with the spans written to ``perfbench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A point counts as failed when the program
raised or when its digest (bits, samples, cycles) differs from the
pinned digest (default seed), from the same point in an earlier pass, or
from the other client's copy of a shared point.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))
from perfbench import pace  # noqa: E402
OUT = BENCH / "out"
#: Set-up is measured this many times per run: this process plus fresh
#: child processes, each from interpreter start to the first result.
SETUP_SAMPLES = 5
#: Untraced and traced passes alternate in a traced run; at least this
#: many of each.
TRACE_MIN_PASSES = 2


def scrub_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable so no knob shapes the run.

    Temporary files (the service's fork-server socket) go under
    ``perfbench/out/tmp`` when that path is short enough for a Unix
    socket address (107 bytes, of which multiprocessing needs 32).
    """
    names = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    tmp = OUT / "tmp"
    if len(str(tmp)) <= 75:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    return names


def pin_one_cpu() -> int | None:
    """Run this process, and every process it starts, on one CPU.

    The pace kernel (``perfbench/pace.py``) then always shares the CPU
    the measured work ran on: the CPUs of a shared host are slowed by
    other tenants independently of each other.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_pct(min_samples: int) -> int:
    """Highest whole percentile with >= 10 of *min_samples* beyond it."""
    return int(100 * (1 - 10 / min_samples))


def git_commit() -> str:
    """HEAD of the repository this benchmark sits in, else "unknown"."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def peak_rss_mb() -> float:
    """Peak resident memory so far of this process and its descendants.

    Read after a fixed number of passes, so that it does not grow with
    the number of passes a faster host fits into the run.
    """
    total_kb = 0
    for pid in [os.getpid(), *pace.descendants(os.getpid())]:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (OSError, ValueError):
            pass
    return total_kb / 1024.0


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up of one fresh process, as ``setup_sample`` measures it."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    scaled, wall = done.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(wall)


class Checker:
    """Digest bookkeeping: pinned digests, pass-to-pass repeats."""

    def __init__(self, workload: str, seed: int, default_seed: int):
        pins = json.loads((BENCH / "pinned.json").read_text())
        entry = pins.get(workload, {})
        self.pinned = entry.get("points") if seed == default_seed else None
        self.first: dict[str, str] = {}
        self.first_pass: list = []

    def check_pass(self, result, repeats: bool) -> int:
        """Count points of *result* whose digests disagree; returns count."""
        bad = 0
        if not self.first_pass:
            self.first_pass = list(result.points)
            if self.pinned is not None:
                got = [p.digest for p in result.points]
                bad += sum(1 for a, b in zip(got, self.pinned) if a != b)
                bad += abs(len(got) - len(self.pinned))
        if repeats:
            for p in result.points:
                if self.first.setdefault(p.key, p.digest) != p.digest:
                    bad += 1
        return bad

    def workload_digest(self) -> str:
        joined = ",".join(p.digest for p in self.first_pass)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def check(workload, checker: Checker, result, state: dict) -> None:
    """Add one pass's attempted and failed points to *state*."""
    state["attempted"] += result.attempted
    state["failed"] += result.failed + checker.check_pass(
        result, repeats=workload.repeats
    )


def steal_s() -> float:
    """CPU time the hypervisor has given to other guests, all CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def setup_sample(wall: float) -> tuple[float, float]:
    """Set-up cost so far: ``(seconds at the reference speed, wall s)``.

    Taken at the first result: CPU time of this process (interpreter
    start included) and of every process it started, scaled by the
    median of five pace kernel runs taken right after.
    """
    cpu = pace.tree_cpu_s()
    paces = [pace.pace_sample()[0] for _ in range(5)]
    return pace.scale(cpu, statistics.median(paces)), wall


def paced_costs(workload, passes) -> tuple[list, list, list]:
    """Per pass: work cost, and every job's and point's time, each at the
    reference speed (see ``perfbench/pace.py``).

    In-process workloads run one point per job; a job's CPU time is
    scaled by the median of the four pace runs around it.  On
    ``served_overlap`` the round's process-tree CPU time is scaled by
    the median CPU pace, and job latencies and the pool's point times
    (wall) by the median wall pace, of the rounds before, at and after.
    """
    costs, jobs, points = [], [], []
    for r, result in enumerate(passes):
        if result.job_cpu:  # in-process: every job's CPU time was taken
            cpu_paces = [c for c, _ in result.paces]
            job_costs = [
                pace.scale(cpu, statistics.median(cpu_paces[max(0, i - 1):i + 3]))
                for i, cpu in enumerate(result.job_cpu)
            ]
            costs.append(sum(job_costs))
            jobs.extend(job_costs)
            points.extend(job_costs)
            continue
        near = [s for q in passes[max(0, r - 1):r + 2] for s in q.paces]
        cpu_pace = statistics.median(c for c, _ in near)
        wall_pace = statistics.median(w for _, w in near)
        costs.append(pace.scale(result.cpu, cpu_pace))
        jobs.extend(pace.scale(s, wall_pace) for s in result.job_seconds)
        points.extend(pace.scale(p.seconds, wall_pace)
                      for p in result.points if p.executed)
    return costs, jobs, points


def untraced(args, workload, setup: tuple[float, float], checker: Checker,
             state: dict) -> dict:
    passes = []
    steal = steal_s()
    start = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - start < args.seconds):
        passes.append(workload.run_pass(paced=True))
        check(workload, checker, passes[-1], state)
        if len(passes) == workload.min_passes:
            rss = peak_rss_mb()
    wall = time.perf_counter() - start
    steal = steal_s() - steal
    workload.close()
    setups = [setup] + [
        setup_probe(args.workload, args.seed)
        for _ in range(SETUP_SAMPLES - 1)
    ]

    points = [p for r in passes for p in r.points]
    computed = sum(1 for p in points if p.executed)
    costs, job_costs, point_costs = paced_costs(workload, passes)
    rates = [len(r.points) / cost for r, cost in zip(passes, costs)]
    first = checker.first_pass
    p_pct = tail_pct(workload.min_passes * workload.computed_per_pass)
    j_pct = tail_pct(workload.min_passes * len(passes[0].job_seconds))
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "points_per_cpu_s": (statistics.median(rates), "1/s"),
        "point_p50_s": (statistics.median(point_costs), "s"),
        "point_tail_s": (percentile(point_costs, p_pct), "s"),
        "job_p50_s": (statistics.median(job_costs), "s"),
        "job_tail_s": (percentile(job_costs, j_pct), "s"),
        "peak_rss_mb": (rss, "MB"),
        "accuracy": (statistics.fmean(p.accuracy for p in first), "ratio"),
        "achieved_kbps": (statistics.fmean(p.kbps for p in first), "Kbit/s"),
        "dedupe_ratio": (len(points) / computed, "ratio"),
    }
    wall_points = [p.seconds for p in points if p.executed]
    wall_jobs = [s for r in passes for s in r.job_seconds]
    paces = [c for r in passes for c, _ in r.paces]
    notes = {
        "setup_samples_s": [s for s, _ in setups],
        "setup_samples_wall_s": [w for _, w in setups],
        "point_tail_pct": p_pct,
        "point_samples": len(point_costs),
        "job_tail_pct": j_pct,
        "job_samples": len(job_costs),
        "passes": len(passes),
        "points_per_cpu_s_base": (
            f"median over {len(passes)} passes of points / CPU s at the "
            f"reference speed; total {len(points)} points / "
            f"{sum(costs):.4f} s"
        ),
        "pace_cpu_s": (f"median {statistics.median(paces):.6f} over "
                       f"{len(paces)} runs, nominal {pace.NOMINAL_S}"),
        "host_steal_s": f"{steal:.2f} over {wall:.2f} s wall, all CPUs",
        "wall_points_per_s": len(points) / wall,
        "wall_point_p50_s": statistics.median(wall_points),
        "wall_job_p50_s": statistics.median(wall_jobs),
        "dedupe_base": f"{len(points)} submitted / {computed} executed",
        "accuracy_base": f"mean over the {len(first)} points of the first pass",
    }
    return {"metrics": metrics, "notes": notes, **state}


def traced(args, workload, checker: Checker, state: dict) -> dict:
    from perfbench import layers
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder(layers.HOT_SPANS)
    walls = {False: [], True: []}
    traced_passes = []
    start = time.perf_counter()
    while (min(len(walls[False]), len(walls[True])) < TRACE_MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        tracing = len(walls[True]) < len(walls[False])
        if tracing:
            with layers.install(recorder, workload):
                result = workload.run_pass()
            traced_passes.append(result)
        else:
            result = workload.run_pass()
        walls[tracing].append(result.wall)
        check(workload, checker, result, state)
    workload.close()

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.dump(spans_path)
    metrics, bases = layers.per_layer(
        recorder, traced_passes, root=workload.root_span
    )
    untraced_wall = statistics.median(walls[False])
    traced_wall = statistics.median(walls[True])
    metrics["trace_overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    bases["trace_overhead"] = (
        f"median traced pass {traced_wall:.4f} s / "
        f"median untraced pass {untraced_wall:.4f} s - 1"
    )
    notes = {"bases": bases, "spans_file": str(spans_path.relative_to(ROOT)),
             "traced_passes": len(walls[True]),
             "untraced_passes": len(walls[False])}
    return {"metrics": metrics, "notes": notes, **state}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of one fresh process")
    parser.add_argument("--pin", action="store_true",
                        help="print the first pass's digests as pinned.json "
                             "entry and exit")
    args = parser.parse_args(argv)

    cleared = scrub_environment()
    cpu = pin_one_cpu()
    try:
        import repro
        from perfbench.workloads import DEFAULT_SEED, WORKLOADS, make
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's src/", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            done = subprocess.run([
                sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ], cwd=ROOT)
            status = status or done.returncode
        return status
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"all, {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = make(args.workload, args.seed, OUT)
    try:
        workload.first_result()
        setup = setup_sample(time.perf_counter() - _T0)
        if args.setup_only:
            print(*map(repr, setup))
            return 0
        if args.pin:
            result = workload.run_pass()
            print(json.dumps({args.workload: {
                "seed": args.seed,
                "points": [p.digest for p in result.points],
            }}, indent=1))
            return 0
        checker = Checker(args.workload, args.seed, DEFAULT_SEED)
        state = {"failed": 0, "attempted": 0}
        if workload.warmup_pass:
            check(workload, checker, workload.run_pass(), state)
        if args.trace:
            outcome = traced(args, workload, checker, state)
        else:
            outcome = untraced(args, workload, setup, checker, state)
    finally:
        workload.close()

    digest = checker.workload_digest()
    pinned = checker.pinned is not None
    env = {
        "repro_version": repro.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "cleared_env": cleared,
        "pinned_cpu": cpu,
    }
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "digest": digest,
              "digest_pinned": pinned, "env": env, **outcome}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str))

    failed, attempted = outcome["failed"], outcome["attempted"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    print(f"# digest {digest} ({'checked against pin' if pinned else 'unpinned seed'})")
    print(f"# failed_ratio {failed / attempted:.6f} ({failed} / {attempted} points)")
    for key, value in outcome["notes"].items():
        if key != "bases":
            print(f"# {key}: {value}")
    bases = outcome["notes"].get("bases", {})
    for metric, (value, unit) in outcome["metrics"].items():
        base = f"  [{bases[metric]}]" if metric in bases else ""
        print(f"{metric} {value!r} {unit}{base}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
