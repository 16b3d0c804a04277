"""Information-theoretic extension: measured channel capacity.

Goes beyond the paper's raw accuracy numbers: builds empirical confusion
matrices from transmitted vs received symbols, computes mutual
information, and runs Blahut-Arimoto for the capacity-achieving input
distribution — for the binary channel at several rates and for the 2-bit
symbol channel, clean and under noise.
"""

from __future__ import annotations

import argparse

from repro.analysis.capacity import (
    blahut_arimoto,
    confusion_matrix,
    mutual_information,
)
from repro.analysis.reporting import ascii_table
from repro.channel.config import ProtocolParams
from repro.channel.session import ChannelSession, SessionConfig
from repro.channel.symbols import MultiBitSession, SymbolParams
from repro.experiments.common import payload_bits
from repro.mem.latency import CLOCK_HZ
from repro.runner import ExperimentSpec, Point

NAME = "capacity"
SUMMARY = "extension: information-theoretic capacity"
POINT_FN = "repro.experiments.capacity_analysis:point"

#: The operating points of the capacity table: (kind, rate, noise).
OPERATING_POINTS = (
    ("binary", 400.0, 0),
    ("binary", 1000.0, 0),
    ("binary", 400.0, 4),
    ("multibit", 800.0, 0),
    ("multibit", 1100.0, 0),
)


def point(*, kind: str, rate: float, noise: int, seed: int,
          bits: int) -> dict:
    """Capacity measurement at one operating point."""
    if kind == "binary":
        return _binary_point(rate, noise, seed, bits)
    if kind == "multibit":
        return _multibit_point(rate, seed, bits)
    raise ValueError(f"unknown operating-point kind {kind!r}")


def _binary_point(rate: float, noise: int, seed: int, bits: int) -> dict:
    session = ChannelSession(SessionConfig(
        spec="RExclc-LSharedb",
        params=ProtocolParams().at_rate(rate),
        seed=seed,
        noise_threads=noise,
        calibration_samples=300,
    ))
    payload = payload_bits(bits)
    if noise:
        session.transmit(payload[:24])  # steady state
    result = session.transmit(payload)
    n = min(len(result.sent), len(result.received))
    channel = confusion_matrix(result.sent[:n], result.received[:n], 2)
    capacity, _dist = blahut_arimoto(channel)
    symbol_rate = result.achieved_rate_kbps * 1e3  # 1 bit per symbol
    return {
        "label": f"binary@{rate:.0f}K noise={noise}",
        "accuracy": result.accuracy,
        "mutual_information": mutual_information(channel),
        "capacity_bits": capacity,
        "capacity_kbps": capacity * symbol_rate / 1e3,
    }


def _multibit_point(rate: float, seed: int, bits: int) -> dict:
    session = MultiBitSession(
        symbol_params=SymbolParams().at_rate(rate), seed=seed,
        calibration_samples=300,
    )
    payload = payload_bits(bits if bits % 2 == 0 else bits + 1)
    result = session.transmit(payload)
    sent = result.sent_symbols
    received = result.received_symbols
    n = min(len(sent), len(received))
    channel = confusion_matrix(sent[:n], received[:n], 4)
    capacity, _dist = blahut_arimoto(channel)
    cycles_per_symbol = (
        session.symbol_params.slots_per_symbol
        * session.symbol_params.slot_cycles
    )
    symbol_rate = CLOCK_HZ / cycles_per_symbol
    return {
        "label": f"2-bit symbols@{rate:.0f}K",
        "accuracy": result.accuracy,
        "mutual_information": mutual_information(channel),
        "capacity_bits": capacity,
        "capacity_kbps": capacity * symbol_rate / 1e3,
    }


def build_spec(seed: int = 0, bits: int = 200) -> ExperimentSpec:
    """One point per capacity operating point."""
    points = tuple(
        Point(
            fn=POINT_FN,
            params={"kind": kind, "rate": rate, "noise": noise,
                    "seed": seed, "bits": bits},
            label=f"{kind}@{rate:g}K noise={noise}",
        )
        for kind, rate, noise in OPERATING_POINTS
    )
    return ExperimentSpec(experiment=NAME, points=points)


def collect(spec: ExperimentSpec, values: list) -> dict:
    return {"points": list(values)}


def render(result: dict) -> str:
    rows = [
        (p["label"], f"{p['accuracy'] * 100:.1f}%",
         f"{p['mutual_information']:.3f}",
         f"{p['capacity_bits']:.3f}",
         f"{p['capacity_kbps']:.0f}")
        for p in result["points"]
    ]
    return ascii_table(
        ("operating point", "accuracy", "I(X;Y) bits/sym",
         "capacity bits/sym", "capacity Kbit/s"),
        rows,
        title="Channel capacity (extension experiment)",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bits", type=int, default=200)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(seed=args.seed, bits=args.bits)
