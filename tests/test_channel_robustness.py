"""Robustness scenarios beyond the happy path."""

import pytest

from repro.channel.config import (
    LEXCL,
    RSHARED,
    TABLE_I,
    ProtocolParams,
    Scenario,
    scenario_by_name,
)
from repro.channel.scenarios import ScenarioSpec
from repro.channel.session import ChannelSession, SessionConfig
from repro.channel.symbols import MultiBitSession, SymbolParams
from repro.experiments.common import payload_bits

PAYLOAD = payload_bits(40)


def test_multibit_under_noise_degrades_gracefully():
    clean = MultiBitSession(seed=9, calibration_samples=200)
    noisy = MultiBitSession(seed=9, calibration_samples=200, noise_threads=6)
    bits = payload_bits(60)
    clean_acc = clean.transmit(bits).accuracy
    noisy.transmit(bits[:20])  # steady-state warm-up
    noisy_acc = noisy.transmit(bits).accuracy
    assert clean_acc == 1.0
    assert 0.6 <= noisy_acc <= clean_acc


def test_every_unordered_scenario_pair_works():
    """Scenarios beyond Table I (e.g. swapped roles) also function."""
    scenario = Scenario(csc=RSHARED, csb=LEXCL)  # Table I row 5
    swapped = Scenario(csc=LEXCL, csb=RSHARED)   # its role-swapped twin
    for sc in (scenario, swapped):
        session = ChannelSession(SessionConfig(
            spec=ScenarioSpec(name=sc.name, scenario=sc), seed=3,
            calibration_samples=200,
        ))
        assert session.transmit(PAYLOAD[:16]).accuracy == 1.0


@pytest.mark.parametrize("c1,c0,cb", [(4, 2, 2), (6, 3, 3), (7, 2, 4)])
def test_alternate_symbol_structures(c1, c0, cb):
    params = ProtocolParams(c1=c1, c0=c0, cb=cb)
    session = ChannelSession(SessionConfig(
        spec=TABLE_I[0].name, seed=3, params=params,
        calibration_samples=200,
    ))
    assert session.transmit(PAYLOAD[:16]).accuracy == 1.0


def test_spy_sharing_core_with_heavy_thread():
    """Oversubscribing the spy's core injects outliers, not hangs."""
    session = ChannelSession(SessionConfig(
        spec=TABLE_I[0].name, seed=3, calibration_samples=200,
        params=ProtocolParams(max_reception_slots=3_000),
    ))
    squatter_proc = session.kernel.create_process("squatter")

    def squatter(cpu):
        while True:
            yield from cpu.delay(5_000)

    session.kernel.spawn(squatter_proc, "squatter", squatter,
                         core_id=session.config.spy_core, daemon=True)
    result = session.transmit(PAYLOAD)
    # fair-share slowdown halves the spy's pace; decode may degrade but
    # the transmission terminates with a sane outcome
    assert 0.0 <= result.accuracy <= 1.0
    assert len(result.samples) > 0


def test_shared_page_survives_many_transmissions():
    session = ChannelSession(SessionConfig(
        spec="RExclc-LExclb", seed=3,
        calibration_samples=200,
    ))
    for i in range(5):
        assert session.transmit(PAYLOAD[:10]).accuracy == 1.0
    # still the same merged frame
    assert (session.trojan_proc.translate(session.trojan_va)
            == session.spy_proc.translate(session.spy_va))


def test_multi_page_explicit_sharing(kernel_env):
    machine, sim, kernel = kernel_env
    a = kernel.create_process("a")
    b = kernel.create_process("b")
    bases = kernel.map_shared_readonly([a, b], n_pages=3)
    for page in range(3):
        assert (a.translate(bases[0] + page * 4096)
                == b.translate(bases[1] + page * 4096))


def test_symbol_channel_with_low_rate():
    session = MultiBitSession(
        symbol_params=SymbolParams().at_rate(300), seed=4,
        calibration_samples=200,
    )
    bits = payload_bits(40)
    result = session.transmit(bits)
    assert result.accuracy == 1.0
    assert result.achieved_rate_kbps == pytest.approx(300, rel=0.3)
