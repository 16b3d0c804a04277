"""Detection extension: can a defender spot the channel in telemetry?

The paper motivates defenses against coherence-protocol exploits; this
driver evaluates the :mod:`repro.detection` subsystem: it runs (a) covert
transmissions on every Table I scenario and (b) benign workloads
(kernel-build noise, a producer/consumer app), feeds both through the
coherence-event monitor, and reports detection and false-positive
outcomes.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I
from repro.channel.session import ChannelSession, SessionConfig
from repro.detection import ChannelDetector, EventMonitor, OnlineRoc
from repro.experiments.common import payload_bits
from repro.kernel.syscalls import Kernel
from repro.kernel.workloads import spawn_kernel_build
from repro.mem.cacheline import LINE_SIZE
from repro.mem.hierarchy import Machine, MachineConfig
from repro.runner import ExperimentSpec, Point
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

NAME = "detect"
SUMMARY = "extension: covert-channel detection"
POINT_FN = "repro.experiments.detection_roc:point"

BENIGN_WORKLOADS = ("kernel-build", "producer-consumer")


def point(*, workload: str, seed: int, bits: int = 40) -> dict:
    """Run one monitored workload; returns its detection verdict row."""
    kind, _, detail = workload.partition(":")
    if kind == "attack":
        return _attack_point(detail, seed, bits)
    if kind == "benign" and detail == "kernel-build":
        return _benign_kernel_build(seed)
    if kind == "benign" and detail == "producer-consumer":
        return _benign_producer_consumer(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _attack_point(scenario: str, seed: int, bits: int) -> dict:
    session = ChannelSession(SessionConfig(
        spec=scenario, seed=seed,
        calibration_samples=200,
    ))
    monitor = EventMonitor(session.machine)
    monitor.attach()
    session.transmit(payload_bits(bits))
    detector = ChannelDetector(monitor)
    detections = detector.scan(session.sim.global_clock)
    covert_line = (
        session.spy_proc.translate(session.spy_va) & ~(LINE_SIZE - 1)
    )
    hit = any(d.line == covert_line for d in detections)
    top = detections[0] if detections else None
    return {
        "workload": f"attack:{scenario}",
        "detected": hit,
        "score": top.score if top else 0.0,
        "reasons": list(top.reasons) if top else [],
    }


def _benign_kernel_build(seed: int) -> dict:
    rng = RngStreams(seed)
    machine = Machine(MachineConfig(), rng)
    sim = Simulator(machine.stats)
    kernel = Kernel(machine, sim, rng)
    monitor = EventMonitor(machine)
    monitor.attach()
    spawn_kernel_build(kernel, 6, avoid_cores={0})
    process = kernel.create_process("w")

    def waiter(cpu):
        yield from cpu.delay(800_000)

    kernel.spawn(process, "w", waiter, core_id=0)
    sim.run()
    detections = ChannelDetector(monitor).scan(sim.global_clock)
    return {
        "workload": "benign:kernel-build x6",
        "detected": bool(detections),
        "score": detections[0].score if detections else 0.0,
        "reasons": list(detections[0].reasons) if detections else [],
    }


def _benign_producer_consumer(seed: int) -> dict:
    rng = RngStreams(seed)
    machine = Machine(MachineConfig(), rng)
    sim = Simulator(machine.stats)
    kernel = Kernel(machine, sim, rng)
    monitor = EventMonitor(machine)
    monitor.attach()
    app = kernel.create_process("app")
    buf = app.mmap(1)

    def producer(cpu):
        for i in range(400):
            yield from cpu.store(buf, i)
            yield from cpu.delay(700)

    def consumer(cpu):
        for _ in range(400):
            yield from cpu.load(buf)
            yield from cpu.delay(700)

    kernel.spawn(app, "prod", producer, core_id=1)
    kernel.spawn(app, "cons", consumer, core_id=2)
    sim.run()
    detections = ChannelDetector(monitor).scan(sim.global_clock)
    return {
        "workload": "benign:producer/consumer",
        "detected": bool(detections),
        "score": detections[0].score if detections else 0.0,
        "reasons": list(detections[0].reasons) if detections else [],
    }


def build_spec(seed: int = 0, bits: int = 40) -> ExperimentSpec:
    """Attack points (one per scenario) plus the benign workloads."""
    points = [
        Point(
            fn=POINT_FN,
            params={"workload": f"attack:{s.name}", "seed": seed,
                    "bits": bits},
            label=f"attack:{s.name}",
        )
        for s in TABLE_I
    ]
    points.append(Point(
        fn=POINT_FN,
        params={"workload": "benign:kernel-build", "seed": seed},
        label="benign:kernel-build",
    ))
    points.append(Point(
        fn=POINT_FN,
        params={"workload": "benign:producer-consumer", "seed": seed + 1},
        label="benign:producer-consumer",
    ))
    return ExperimentSpec(
        experiment=NAME,
        points=tuple(points),
        meta={"attacks": len(TABLE_I), "benign": 2},
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    n_attacks = spec.meta["attacks"]
    attacks, benign = values[:n_attacks], values[n_attacks:]
    # The offline ROC over workload scores, via the same fixed-bin
    # histogram the streaming path accumulates online — the two are
    # identical by construction (asserted in
    # tests/test_streaming_detection.py).
    roc = OnlineRoc.from_samples(
        [(r["score"], True) for r in attacks]
        + [(r["score"], False) for r in benign]
    )
    return {
        "rows": attacks + benign,
        "true_positives": sum(1 for r in attacks if r["detected"]),
        "attacks": len(attacks),
        "false_positives": sum(1 for r in benign if r["detected"]),
        "benign": len(benign),
        "roc_points": [list(p) for p in roc.points()],
        "auc": roc.auc(),
    }


def render(result: dict) -> str:
    rows = [
        (r["workload"], "FLAGGED" if r["detected"] else "clear",
         f"{r['score']:.2f}", "; ".join(r["reasons"])[:60])
        for r in result["rows"]
    ]
    table = ascii_table(
        ("workload", "verdict", "score", "signatures"),
        rows,
        title="Coherence covert-channel detection (extension experiment)",
    )
    return (
        f"{table}\n\ndetected {result['true_positives']}/"
        f"{result['attacks']} attacks, {result['false_positives']}/"
        f"{result['benign']} false positives"
        f" (AUC {result['auc']:.2f})"
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=40)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(seed=args.seed, bits=args.bits)
