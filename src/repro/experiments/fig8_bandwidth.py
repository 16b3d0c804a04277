"""Figure 8: raw-bit accuracy versus transmission rate.

Sweeps the nominal bit rate from 100 Kbps to 1 Mbps per scenario by
shrinking the sampling slot (the paper's knob: reducing Ts and the
consecutive-caching counts).  The shape to reproduce: accuracy stays
near 100% up to a knee, then rolls off; the two widest-band-gap
scenarios — RExclc-LExclb and RExclc-LSharedb — stay accurate the
longest (the paper cites 96% at 800 Kbps for RExclc-LSharedb).
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I
from repro.channel.session import execute_point
from repro.experiments.common import (
    FIG8_RATES,
    common_arguments,
    payload_bits,
    scenario_argument,
    selected_scenarios,
)
from repro.runner import ExperimentSpec, Point

NAME = "fig8"
SUMMARY = "Figure 8 accuracy-vs-rate sweep"
POINT_FN = "repro.experiments.fig8_bandwidth:point"


def point(*, scenario: str, rate: float, seed: int, bits: int,
          protocol: str | None = None) -> float:
    """One grid point: decode accuracy of *scenario* at *rate* Kbps."""
    result = execute_point(
        scenario=scenario,
        payload=payload_bits(bits),
        rate_kbps=rate,
        seed=seed,
        protocol=protocol,
    )
    return result.accuracy


def build_spec(
    seed: int = 0,
    bits: int = 100,
    rates=FIG8_RATES,
    scenarios=None,
    protocol: str | None = None,
) -> ExperimentSpec:
    """The scenario × rate grid of Figure 8."""
    names = [
        s if isinstance(s, str) else s.name
        for s in (scenarios if scenarios is not None else TABLE_I)
    ]
    extra = {"protocol": protocol} if protocol else {}
    points = tuple(
        Point(
            fn=POINT_FN,
            params={"scenario": name, "rate": float(rate),
                    "seed": seed, "bits": bits, **extra},
            label=f"{name}@{rate:g}K",
        )
        for name in names
        for rate in rates
    )
    return ExperimentSpec(
        experiment=NAME,
        points=points,
        meta={"rates": list(rates), "scenarios": names},
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    """Reassemble point accuracies into the per-scenario rate curves."""
    rates = spec.meta["rates"]
    it = iter(values)
    curves = {
        name: [(float(rate), next(it)) for rate in rates]
        for name in spec.meta["scenarios"]
    }
    return {"curves": curves, "rates": list(rates)}


def render(result: dict) -> str:
    """The Figure 8 accuracy table as text."""
    headers = ["scenario"] + [f"{r}K" for r in result["rates"]]
    rows = []
    for name, points in result["curves"].items():
        rows.append([name] + [f"{acc * 100:.0f}%" for _r, acc in points])
    return ascii_table(
        headers, rows,
        title="Figure 8: raw-bit accuracy vs transmission rate",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    common_arguments(parser)
    scenario_argument(parser)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(
        seed=args.seed,
        bits=args.bits,
        scenarios=selected_scenarios(args.scenario),
        protocol=args.protocol,
    )
