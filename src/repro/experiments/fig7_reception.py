"""Figures 6 and 7: the transmitted pattern and the spy's reception.

The trojan covertly transmits a fixed 100-bit pattern (Figure 6); the
spy's timed loads fall into the Tc/Tb bands whose run lengths encode the
bits (Figure 7).  The driver prints the pattern, the reception trace of
the first bits (the "magnified view"), and the per-scenario decode
accuracy — the paper reports 100% for all six scenarios at the base
rate.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table, bitstring
from repro.channel.config import TABLE_I
from repro.channel.session import execute_point
from repro.experiments.common import (
    common_arguments,
    payload_bits,
    scenario_argument,
    selected_scenarios,
)
from repro.runner import ExperimentSpec, Point

NAME = "fig7"
SUMMARY = "Figures 6-7 transmission + reception traces"
POINT_FN = "repro.experiments.fig7_reception:point"


def point(*, scenario: str, seed: int, bits: int,
          protocol: str | None = None):
    """Transmit the Figure 6 pattern on one scenario; keep the trace."""
    return execute_point(
        scenario=scenario, payload=payload_bits(bits), seed=seed,
        protocol=protocol,
    )


def build_spec(seed: int = 0, bits: int = 100, scenarios=None,
               protocol: str | None = None,
               trace_samples: int = 40) -> ExperimentSpec:
    """One point (full reception trace) per scenario.

    ``trace_samples`` sizes the rendered magnified view; it rides in
    ``meta``, so it never enters a point's cache key.
    """
    names = [
        s if isinstance(s, str) else s.name
        for s in (scenarios if scenarios is not None else TABLE_I)
    ]
    # Only non-default overrides enter point params, so cache keys for
    # historical (MESI) runs are unchanged.
    extra = {"protocol": protocol} if protocol else {}
    points = tuple(
        Point(
            fn=POINT_FN,
            params={"scenario": name, "seed": seed, "bits": bits, **extra},
            label=name,
        )
        for name in names
    )
    return ExperimentSpec(
        experiment=NAME, points=points,
        meta={"scenarios": names, "bits": bits,
              "trace_samples": trace_samples},
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    outcomes = dict(zip(spec.meta["scenarios"], values))
    return {
        "payload": payload_bits(spec.meta["bits"]),
        "results": outcomes,
        "trace_samples": spec.meta["trace_samples"],
    }


def render(result: dict) -> str:
    trace_samples = result["trace_samples"]
    parts = ["Figure 6: bit pattern covertly transmitted by the trojan",
             bitstring(result["payload"]), ""]
    rows = []
    for name, outcome in result["results"].items():
        rows.append((
            name,
            f"{outcome.accuracy * 100:.1f}%",
            f"{outcome.achieved_rate_kbps:.0f}",
            len(outcome.samples),
        ))
    parts.append(ascii_table(
        ("scenario", "decode accuracy", "rate (Kbps)", "spy samples"),
        rows,
        title="Figure 7: spy reception summary (paper: 100% for all six)",
    ))
    name, outcome = next(iter(result["results"].items()))
    parts.append("")
    parts.append(
        f"Magnified view ({name}): first {trace_samples} timed loads"
    )
    for sample in outcome.samples[:trace_samples]:
        marker = {"c": "*", "b": ".", "x": "?"}[sample.label]
        parts.append(
            f"  t={sample.timestamp:12.0f}  latency={sample.latency:7.1f}"
            f"  [{sample.label}] {marker * int(sample.latency / 12)}"
        )
    return "\n".join(parts)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    common_arguments(parser)
    scenario_argument(parser)
    parser.add_argument(
        "--trace-samples", type=int, default=40,
        help="reception samples shown in the magnified view",
    )


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(
        seed=args.seed,
        bits=args.bits,
        scenarios=selected_scenarios(args.scenario),
        protocol=args.protocol,
        trace_samples=args.trace_samples,
    )
