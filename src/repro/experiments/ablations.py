"""Ablations of the design choices DESIGN.md calls out.

* **Protocol variant** (MESI / MESIF / MOESI): the paper argues the F
  and O states do not change the E/S timing split the channel uses —
  verified by running the channel on all three.
* **Non-inclusive LLC** (Section VIII-E discussion): S-state blocks may
  be served cache-to-cache instead of from the LLC, but distinct latency
  profiles remain, so the channel survives inclusion-property changes.
* **Band-gap robustness**: per-scenario accuracy at a high rate should
  correlate with the latency gap between its two bands, the mechanism
  behind Figure 8's exceptions.
* **Home-agent directories** (Section VIII-E): the extra hop to an
  address's home directory splits every miss-service band into
  home-local/home-remote sub-bands — more latency profiles to exploit.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import ascii_table
from repro.channel.config import TABLE_I, ProtocolParams
from repro.channel.scenarios import scenario_spec_by_name
from repro.channel.session import ChannelSession, SessionConfig, resolve_spec
from repro.errors import CalibrationError
from repro.experiments.common import payload_bits
from repro.mem.hierarchy import MachineConfig
from repro.mem.protocols import PROTOCOLS as _PROTOCOL_REGISTRY
from repro.runner import ExperimentSpec, Point

NAME = "ablations"
SUMMARY = "DESIGN.md design-choice ablations"
POINT_FN = "repro.experiments.ablations:point"

PROTOCOLS = tuple(sorted(_PROTOCOL_REGISTRY))
FLUSH_METHODS = ("clflush", "evict")


def point(*, group: str, seed: int, **kw):
    """One ablation measurement; ``group`` selects the design knob."""
    if group == "protocol":
        session = ChannelSession(SessionConfig(
            spec=resolve_spec(TABLE_I[0].name, protocol=kw["protocol"]),
            seed=seed,
        ))
        return session.transmit(payload_bits(kw["bits"])).accuracy

    if group == "inclusion":
        try:
            session = ChannelSession(SessionConfig(
                spec=TABLE_I[1].name,  # remote scenario: LLC role matters
                seed=seed,
                machine=MachineConfig(inclusive=kw["inclusive"]),
            ))
            return session.transmit(payload_bits(kw["bits"])).accuracy
        except CalibrationError:
            return 0.0

    if group == "flush":
        method = kw["method"]
        config = SessionConfig(spec=TABLE_I[0].name, seed=seed) \
            if method == "clflush" else SessionConfig(
                spec=TABLE_I[0].name, seed=seed,
                params=ProtocolParams.for_eviction_flush(),
                flush_method="evict",
            )
        result = ChannelSession(config).transmit(payload_bits(kw["bits"]))
        return {
            "accuracy": result.accuracy,
            "rate_kbps": result.achieved_rate_kbps,
        }

    if group == "home_agent":
        from repro.mem.latency import NoiseModel
        from repro.mem.hierarchy import Machine
        from repro.sim.rng import RngStreams

        machine = Machine(
            MachineConfig(home_agent=True, noise=NoiseModel(enabled=False)),
            RngStreams(seed),
        )
        out = {}
        for addr, label in ((0x100000, "home-local"),
                            (0x101000, "home-remote")):
            machine.flush(0, addr)
            machine.load(6, addr)           # remote E placement
            _v, latency, _p = machine.load(0, addr)
            out[label] = float(latency)
        out["split_cycles"] = out["home-remote"] - out["home-local"]
        return out

    if group == "band_gap":
        spec = scenario_spec_by_name(kw["scenario"])
        scenario = spec.scenario
        session = ChannelSession(SessionConfig(
            spec=spec,
            params=ProtocolParams().at_rate(kw["rate"]),
            seed=seed,
        ))
        tc = session.bands.band_for(scenario.csc)
        tb = session.bands.band_for(scenario.csb)
        gap = max(tb.lo - tc.hi, tc.lo - tb.hi)
        accuracy = session.transmit(payload_bits(kw["bits"])).accuracy
        return {
            "scenario": scenario.name,
            "gap_cycles": float(gap),
            "accuracy": accuracy,
        }

    raise ValueError(f"unknown ablation group {group!r}")


# -- per-group helpers (stable programmatic API) ------------------------


def run_protocols(seed: int = 0, bits: int = 60) -> dict:
    """Channel accuracy per coherence-protocol variant."""
    return {
        protocol: point(group="protocol", seed=seed, protocol=protocol,
                        bits=bits)
        for protocol in PROTOCOLS
    }


def run_inclusion(seed: int = 0, bits: int = 60) -> dict:
    """Channel accuracy on inclusive vs non-inclusive LLCs."""
    return {
        ("inclusive" if inclusive else "non-inclusive"): point(
            group="inclusion", seed=seed, inclusive=inclusive, bits=bits
        )
        for inclusive in (True, False)
    }


def run_flush_methods(seed: int = 0, bits: int = 40) -> dict:
    """Channel accuracy/rate with clflush vs LLC-set eviction flushing.

    Section VI-B lists eviction of all the ways in the set as the
    clflush alternative; the ablation shows it works but is far slower.
    """
    return {
        method: point(group="flush", seed=seed, method=method, bits=bits)
        for method in FLUSH_METHODS
    }


def run_home_agent(seed: int = 0) -> dict:
    """Sub-band split under home-agent directories (Section VIII-E)."""
    return point(group="home_agent", seed=seed)


def run_band_gap(seed: int = 0, bits: int = 100, rate: float = 1000.0) -> dict:
    """High-rate accuracy vs the scenario's calibrated band gap."""
    rows = [
        point(group="band_gap", seed=seed, scenario=scenario.name,
              bits=bits, rate=rate)
        for scenario in TABLE_I
    ]
    return {"rows": rows, "rate": rate}


# -- unified spec API ---------------------------------------------------


def build_spec(
    seed: int = 0,
    bits: int = 60,
    flush_bits: int = 40,
    gap_bits: int = 100,
    gap_rate: float = 1000.0,
) -> ExperimentSpec:
    """Every ablation measurement as one flat grid."""
    points = []
    for protocol in PROTOCOLS:
        points.append(Point(POINT_FN, {
            "group": "protocol", "seed": seed, "protocol": protocol,
            "bits": bits,
        }, label=f"protocol:{protocol}"))
    for inclusive in (True, False):
        points.append(Point(POINT_FN, {
            "group": "inclusion", "seed": seed, "inclusive": inclusive,
            "bits": bits,
        }, label=f"inclusion:{inclusive}"))
    for method in FLUSH_METHODS:
        points.append(Point(POINT_FN, {
            "group": "flush", "seed": seed, "method": method,
            "bits": flush_bits,
        }, label=f"flush:{method}"))
    points.append(Point(POINT_FN, {
        "group": "home_agent", "seed": seed,
    }, label="home-agent"))
    for scenario in TABLE_I:
        points.append(Point(POINT_FN, {
            "group": "band_gap", "seed": seed, "scenario": scenario.name,
            "bits": gap_bits, "rate": gap_rate,
        }, label=f"gap:{scenario.name}"))
    return ExperimentSpec(
        experiment=NAME,
        points=tuple(points),
        meta={"gap_rate": gap_rate, "scenarios": [s.name for s in TABLE_I]},
    )


def collect(spec: ExperimentSpec, values: list) -> dict:
    it = iter(values)
    protocols = {protocol: next(it) for protocol in PROTOCOLS}
    inclusion = {
        label: next(it) for label in ("inclusive", "non-inclusive")
    }
    flush = {method: next(it) for method in FLUSH_METHODS}
    home = next(it)
    rows = [next(it) for _ in spec.meta["scenarios"]]
    return {
        "protocols": protocols,
        "inclusion": inclusion,
        "flush_methods": flush,
        "home_agent": home,
        "band_gap": {"rows": rows, "rate": spec.meta["gap_rate"]},
    }


def render(result: dict) -> str:
    parts = [ascii_table(
        ("protocol", "accuracy"),
        [(k, f"{v * 100:.1f}%") for k, v in result["protocols"].items()],
        title="Ablation: coherence-protocol variant (paper Sec VIII-E)",
    ), ""]
    parts.append(ascii_table(
        ("LLC policy", "accuracy"),
        [(k, f"{v * 100:.1f}%") for k, v in result["inclusion"].items()],
        title="Ablation: LLC inclusion property",
    ))
    parts.append("")
    parts.append(ascii_table(
        ("flush primitive", "accuracy", "rate (Kbps)"),
        [(k, f"{v['accuracy'] * 100:.1f}%", f"{v['rate_kbps']:.0f}")
         for k, v in result["flush_methods"].items()],
        title="Ablation: clflush vs LLC-set eviction (paper Sec VI-B)",
    ))
    parts.append("")
    home = result["home_agent"]
    parts.append(ascii_table(
        ("remote-E address class", "latency (cycles)"),
        [("home-local", f"{home['home-local']:.0f}"),
         ("home-remote", f"{home['home-remote']:.0f}"),
         ("sub-band split", f"{home['split_cycles']:.0f}")],
        title="Ablation: home-agent directory hop (paper Sec VIII-E)",
    ))
    parts.append("")
    gap = result["band_gap"]
    parts.append(ascii_table(
        ("scenario", "band gap (cycles)", f"accuracy @ {gap['rate']:.0f}Kbps"),
        [
            (r["scenario"], f"{r['gap_cycles']:.0f}",
             f"{r['accuracy'] * 100:.0f}%")
            for r in sorted(gap["rows"], key=lambda r: r["gap_cycles"])
        ],
        title="Ablation: band gap vs high-rate robustness",
    ))
    return "\n".join(parts)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return build_spec(seed=args.seed)
