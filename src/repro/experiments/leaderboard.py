"""Scenario-matrix leaderboard: every (protocol x channel) cell scored.

Runs one transmission workload per registered cell of the scenario
matrix (:func:`repro.channel.scenarios.matrix_cell`) — the snoop
protocols MESI/MESIF/MOESI plus the home-node directory topology row,
against the E-S, O-state and LRU channel families — and reports, per
cell:

* raw decode **accuracy** and the achieved **rate**;
* **capacity**, the binary-symmetric-channel bound
  ``(1 - H2(ber)) * rate``;
* **noise robustness**, accuracy with co-located kernel-build threads.

Cells are expected to differ in kind, and the differences are the
result: MESI/MESIF x O-state is *deterministically dead* (no O state,
so calibration refuses the overlapping bands — reported as ``dead``),
and directory x LRU is undefined (the home directory has no
set-associative replacement state to probe — reported as ``n/a``).
"""

from __future__ import annotations

import argparse
import math

from repro.analysis.reporting import ascii_table
from repro.channel.scenarios import MATRIX_COLS, MATRIX_ROWS, matrix_cell
from repro.channel.session import execute_point
from repro.errors import CalibrationError, ChannelError, SyncTimeoutError
from repro.experiments.common import payload_bits
from repro.runner import ExperimentSpec, Point

NAME = "leaderboard"
SUMMARY = "scenario-matrix leaderboard (protocol x channel x topology)"
POINT_FN = "repro.experiments.leaderboard:point"

#: Noise level (co-located kernel-build threads) of the robustness leg.
NOISE_THREADS = 4

#: Warm-up prefix before the noisy measurement (steady-state regime).
NOISE_WARMUP_BITS = 16


def _h2(p: float) -> float:
    """Binary entropy, safe at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def capacity_kbps(accuracy: float, rate_kbps: float) -> float:
    """BSC capacity bound at the measured raw bit-error rate."""
    ber = min(max(1.0 - accuracy, 0.0), 0.5)
    return (1.0 - _h2(ber)) * rate_kbps


def point(*, cell: str, seed: int, bits: int, noise: bool = True) -> dict:
    """Score one matrix cell; never raises for expected dead cells."""
    payload = payload_bits(bits)
    try:
        clean = execute_point(spec=cell, payload=payload, seed=seed)
    except CalibrationError as exc:
        # The cell's two symbols occupy overlapping latency bands under
        # this protocol: the channel cannot exist.  This is a result
        # (e.g. the O channel needs MOESI), not a failure.
        return {"cell": cell, "status": "dead", "detail": str(exc)}
    except SyncTimeoutError as exc:
        return {"cell": cell, "status": "no-sync", "detail": str(exc)}
    except ChannelError as exc:
        return {"cell": cell, "status": "error", "detail": str(exc)}
    row = {
        "cell": cell,
        "status": "ok",
        "accuracy": clean.accuracy,
        "rate_kbps": clean.achieved_rate_kbps,
        "capacity_kbps": capacity_kbps(
            clean.accuracy, clean.achieved_rate_kbps
        ),
    }
    if noise:
        try:
            noisy = execute_point(
                spec=cell, payload=payload, seed=seed,
                noise_threads=NOISE_THREADS,
                warmup_bits=min(NOISE_WARMUP_BITS, bits),
            )
            row["noise_accuracy"] = noisy.accuracy
        except (SyncTimeoutError, ChannelError) as exc:
            row["noise_accuracy"] = 0.0
            row["noise_detail"] = str(exc)
    return row


def build_spec(seed: int = 0, bits: int = 40,
               noise: bool = True) -> ExperimentSpec:
    """One point per *defined* matrix cell (undefined cells get none)."""
    cells = []
    for row in MATRIX_ROWS:
        for channel in MATRIX_COLS:
            spec = matrix_cell(row, channel)
            if spec is not None:
                cells.append(spec.name)
    points = tuple(
        Point(
            fn=POINT_FN,
            params={"cell": name, "seed": seed, "bits": bits,
                    "noise": noise},
            label=name,
        )
        for name in cells
    )
    return ExperimentSpec(
        experiment=NAME,
        points=points,
        meta={"cells": cells, "bits": bits, "noise": noise},
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    rows = {row["cell"]: row for row in values}
    return {
        "cells": rows,
        "bits": spec.meta["bits"],
        "noise": spec.meta["noise"],
    }


def _cell_summary(row: dict | None) -> str:
    if row is None:
        return "n/a"
    if row["status"] == "dead":
        return "dead"
    if row["status"] != "ok":
        return row["status"]
    return f"{row['accuracy'] * 100:.0f}% {row['capacity_kbps']:.0f}K"


def render(result: dict) -> str:
    cells = result["cells"]
    headers = ["protocol \\ channel"] + list(MATRIX_COLS)
    grid_rows = []
    populated = 0
    for row in MATRIX_ROWS:
        line = [row]
        for channel in MATRIX_COLS:
            spec = matrix_cell(row, channel)
            cell_row = cells.get(spec.name) if spec is not None else None
            if cell_row is not None and cell_row["status"] == "ok":
                populated += 1
            line.append(_cell_summary(cell_row))
        grid_rows.append(line)
    parts = [ascii_table(
        headers, grid_rows,
        title=(f"Scenario-matrix leaderboard: accuracy + BSC capacity "
               f"({result['bits']}-bit payloads; {populated} live cells)"),
    )]
    detail = []
    for name, row in sorted(
        cells.items(),
        key=lambda kv: -kv[1].get("capacity_kbps", -1.0),
    ):
        if row["status"] != "ok":
            detail.append((name, row["status"], "-", "-", "-"))
            continue
        noise_acc = row.get("noise_accuracy")
        detail.append((
            name,
            f"{row['accuracy'] * 100:.1f}%",
            f"{row['rate_kbps']:.0f}",
            f"{row['capacity_kbps']:.0f}",
            "-" if noise_acc is None else f"{noise_acc * 100:.1f}%",
        ))
    parts.append("")
    parts.append(ascii_table(
        ("cell", "accuracy", "rate (Kbps)", "capacity (Kbps)",
         f"accuracy @ {NOISE_THREADS} noise threads"),
        detail,
        title="Per-cell detail (capacity-ranked)",
    ))
    parts.append("")
    parts.append(
        "dead = bands overlap under this protocol (expected for "
        "mesi/mesif x ostate); n/a = undefined cell (directory x lru)"
    )
    return "\n".join(parts)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=40)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI mode: 16-bit payloads, no noise-robustness leg",
    )


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    if args.smoke:
        return build_spec(seed=args.seed, bits=16, noise=False)
    return build_spec(seed=args.seed, bits=args.bits)
