"""Shared fixtures: machines, kernels and channel sessions."""

from __future__ import annotations

import pytest

from repro.channel.config import TABLE_I, ProtocolParams
from repro.channel.session import ChannelSession, SessionConfig
from repro.kernel.syscalls import Kernel
from repro.mem.hierarchy import Machine, MachineConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


@pytest.fixture
def rng() -> RngStreams:
    return RngStreams(seed=1234)


@pytest.fixture
def machine(rng) -> Machine:
    """A default two-socket machine with deterministic jitter."""
    return Machine(MachineConfig(), rng)


@pytest.fixture
def quiet_machine(rng) -> Machine:
    """A machine with jitter disabled (exact latency assertions)."""
    from repro.mem.latency import NoiseModel

    config = MachineConfig(noise=NoiseModel(enabled=False))
    return Machine(config, rng)


@pytest.fixture
def kernel_env(rng):
    """(machine, simulator, kernel) wired together."""
    machine = Machine(MachineConfig(), rng)
    sim = Simulator(machine.stats)
    kernel = Kernel(machine, sim, rng)
    return machine, sim, kernel


@pytest.fixture
def session_factory():
    """Build a ChannelSession quickly (small calibration)."""

    def build(scenario=TABLE_I[0], seed=7, **kwargs):
        params = kwargs.pop("params", ProtocolParams())
        spec = kwargs.pop("spec", scenario.name)
        config = SessionConfig(
            spec=spec,
            params=params,
            seed=seed,
            calibration_samples=kwargs.pop("calibration_samples", 200),
            **kwargs,
        )
        return ChannelSession(config)

    return build
