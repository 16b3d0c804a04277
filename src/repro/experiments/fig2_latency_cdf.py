"""Figure 2 + Section V: load-latency CDFs per (location, state) pair.

Reproduces the measurement loop of Section V: 1,000 timed loads per
combination pair on the dual-socket machine, reported as CDF quantiles
and band summaries.  The paper's reference points: a local S-state block
reads in ~98 cycles and a local E-state block in ~124; remote variants
sit higher, and all four bands are distinct and narrow.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.cdf import band_separation
from repro.analysis.reporting import ascii_cdf, ascii_table
from repro.channel.calibration import calibrate
from repro.experiments.common import protocol_argument
from repro.mem.hierarchy import Machine, MachineConfig
from repro.runner import ExperimentSpec, Point
from repro.sim.rng import RngStreams

NAME = "fig2"
SUMMARY = "Figure 2 + Section V latency reference points"
POINT_FN = "repro.experiments.fig2_latency_cdf:point"


def point(*, samples: int, seed: int, protocol: str | None = None) -> dict:
    """The whole calibration sweep is one (heavy) grid point."""
    machine = Machine(
        MachineConfig(protocol=protocol or "mesi"), RngStreams(seed)
    )
    # MOESI exposes a fifth band — the dirty-owner service latency the
    # O-state channel communicates through.
    extra = ()
    if protocol == "moesi":
        from repro.channel.config import LOWNED

        extra = (LOWNED,)
    bands, raw = calibrate(machine, samples=samples, extra_pairs=extra)
    medians = {k: float(np.median(v)) for k, v in raw.items()}
    order = ["LShared", "LOwned", "LExcl", "RShared", "RExcl", "dram"]
    separations = {}
    for first, second in zip(order[:-1], order[1:]):
        if first in raw and second in raw:
            separations[f"{first}/{second}"] = band_separation(
                raw[first], raw[second]
            )
    return {
        "raw": raw,
        "medians": medians,
        "separations": separations,
        "bands": bands,
    }


def build_spec(samples: int = 1000, seed: int = 0,
               protocol: str | None = None) -> ExperimentSpec:
    """A single-point grid: one full band calibration."""
    extra = {"protocol": protocol} if protocol else {}
    return ExperimentSpec(
        experiment=NAME,
        points=(Point(
            fn=POINT_FN,
            params={"samples": samples, "seed": seed, **extra},
            label=f"calibrate x{samples}",
        ),),
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    return values[0]


def render(result: dict) -> str:
    parts = [ascii_cdf(result["raw"],
                       title="Figure 2: load-latency CDFs (cycles)"), ""]
    rows = [
        (name, f"{median:.1f}")
        for name, median in sorted(result["medians"].items(),
                                   key=lambda kv: kv[1])
    ]
    parts.append(ascii_table(
        ("combination", "median latency (cycles)"), rows,
        title="Section V reference points (paper: LShared~98, LExcl~124)",
    ))
    parts.append("")
    rows = [
        (pair, f"{sep:.2f}") for pair, sep in result["separations"].items()
    ]
    parts.append(ascii_table(
        ("adjacent bands", "separation (pooled sigma)"), rows,
        title="Band separations (all should be positive)",
    ))
    return "\n".join(parts)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    protocol_argument(parser)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(samples=args.samples, seed=args.seed,
                      protocol=args.protocol)
