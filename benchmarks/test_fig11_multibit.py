"""Figure 11 bench: 2-bit symbols reach ~1.1 Mbps vs ~700 Kbps binary."""

from repro.channel.config import ProtocolParams
from repro.channel.session import ChannelSession, SessionConfig
from repro.experiments.common import payload_bits


def test_fig11_multibit_peak(run_driver):
    result = run_driver("fig11", seed=0, bits=120, rates=(900, 1100))
    points = {p["rate_kbps"]: p for p in result["points"]}
    # The paper's peak: ~1.1 Mbps at high accuracy with 2-bit symbols.
    assert points[1100.0]["accuracy"] >= 0.95
    assert points[1100.0]["achieved_kbps"] >= 1000
    # All four symbol values appear in the first nine symbols (Fig 11).
    assert set(result["trace"].sent_symbols[:9]) == {0, 1, 2, 3}


def test_fig11_speedup_over_binary(once):
    """Multi-bit at 1.1 Mbps is accurate where binary at 1.1 Mbps is not."""
    from repro.channel.symbols import MultiBitSession, SymbolParams

    def run():
        payload = payload_bits(100)
        binary = ChannelSession(SessionConfig(
            spec="RExclc-LSharedb",
            params=ProtocolParams().at_rate(1100),
            seed=0,
        )).transmit(payload)
        multibit = MultiBitSession(
            symbol_params=SymbolParams().at_rate(1100), seed=0,
        ).transmit(payload)
        return binary, multibit

    binary, multibit = once(run)
    assert multibit.accuracy > binary.accuracy
    assert multibit.accuracy >= 0.95
