"""Experiment drivers: one module per paper figure/table.

Run any driver through the unified CLI, which adds the shared runner
options (``--jobs``, ``--no-cache``, ``--cache-dir``, ...)::

    python -m repro fig2
    python -m repro fig8 --scenario RExclc-LSharedb

or from Python, through its :data:`REGISTRY` entry::

    info = REGISTRY["fig8"]
    result = info.run(info.build_spec(bits=20))
    print(info.render(result))

The driver contract (see :mod:`repro.experiments.common` for the
pieces every driver shares): a driver module defines only what differs
between figures — ``point(**params)``, ``build_spec(**kwargs)``,
``collect(spec, values)``, ``render(result)``, ``add_arguments(parser)``
and ``spec_from_args(args)`` — plus ``NAME``/``SUMMARY``/``POINT_FN``.
The glue that is the same for every driver lives once, in
:class:`ExperimentInfo`: :meth:`~ExperimentInfo.run` executes a spec
in-process and collects it, :meth:`~ExperimentInfo.main` is the
``python -m repro <name>`` command.
"""

from __future__ import annotations

import argparse
import importlib
from dataclasses import dataclass
from types import ModuleType

# Drivers are imported lazily (``repro list`` should not pay for
# importing every driver).
__all__ = [
    "REGISTRY",
    "ExperimentInfo",
    "ablations",
    "arena",
    "capacity_analysis",
    "common",
    "detection_roc",
    "fault_sweep",
    "fig2_latency_cdf",
    "fig7_reception",
    "fig8_bandwidth",
    "fig9_noise",
    "fig10_ecc",
    "fig11_multibit",
    "leaderboard",
    "mitigations",
    "sync_handshake",
    "table1_scenarios",
]


@dataclass(frozen=True)
class ExperimentInfo:
    """One registry row: a driver described without importing it."""

    name: str
    module: str
    summary: str

    def load(self) -> ModuleType:
        """Import and return the driver module."""
        return importlib.import_module(f"repro.experiments.{self.module}")

    def build_spec(self, **kwargs):
        """The driver's grid from its ``build_spec`` keyword arguments."""
        return self.load().build_spec(**kwargs)

    def run(self, spec) -> dict:
        """Execute *spec* in-process (no cache) and collect the result."""
        from repro.runner import execute

        return self.collect(spec, execute(spec))

    def collect(self, spec, values: list) -> dict:
        return self.load().collect(spec, values)

    def render(self, result: dict) -> str:
        return self.load().render(result)

    def main(self, argv: list[str] | None = None) -> None:
        """``python -m repro <name>``: parse, run the grid, print the table."""
        from repro.experiments.common import (
            execute_from_args,
            runner_arguments,
        )

        module = self.load()
        parser = argparse.ArgumentParser(
            prog=f"repro {self.name}", description=module.__doc__
        )
        module.add_arguments(parser)
        runner_arguments(parser)
        args = parser.parse_args(argv)
        spec = module.spec_from_args(args)
        values = execute_from_args(spec, args)
        print(module.render(module.collect(spec, values)))


#: Short CLI name -> self-describing driver entry (paper order).
REGISTRY: dict[str, ExperimentInfo] = {
    info.name: info
    for info in (
        ExperimentInfo(
            "fig2", "fig2_latency_cdf",
            "Figure 2 + Section V latency reference points",
        ),
        ExperimentInfo(
            "table1", "table1_scenarios",
            "Table I scenario/thread-placement check",
        ),
        ExperimentInfo(
            "fig7", "fig7_reception",
            "Figures 6-7 transmission + reception traces",
        ),
        ExperimentInfo(
            "fig8", "fig8_bandwidth",
            "Figure 8 accuracy-vs-rate sweep",
        ),
        ExperimentInfo(
            "fig9", "fig9_noise",
            "Figure 9 kernel-build noise sweep",
        ),
        ExperimentInfo(
            "fig10", "fig10_ecc",
            "Figure 10 parity+NACK effective rates",
        ),
        ExperimentInfo(
            "fig11", "fig11_multibit",
            "Figure 11 2-bit symbol channel",
        ),
        ExperimentInfo(
            "sync", "sync_handshake",
            "Section VII-A synchronization timing",
        ),
        ExperimentInfo(
            "mitigations", "mitigations",
            "Section VIII-E defenses",
        ),
        ExperimentInfo(
            "ablations", "ablations",
            "DESIGN.md design-choice ablations",
        ),
        ExperimentInfo(
            "detect", "detection_roc",
            "extension: covert-channel detection",
        ),
        ExperimentInfo(
            "capacity", "capacity_analysis",
            "extension: information-theoretic capacity",
        ),
        ExperimentInfo(
            "faults", "fault_sweep",
            "robustness: accuracy vs injected fault rate",
        ),
        ExperimentInfo(
            "leaderboard", "leaderboard",
            "scenario-matrix leaderboard: every (protocol x channel) cell",
        ),
        ExperimentInfo(
            "arena", "arena",
            "extension: detection-vs-evasion arena on live traces",
        ),
    )
}
