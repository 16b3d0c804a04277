"""Figure 10 bench: effective rate with parity+NACK retransmission."""

from repro.channel.config import TABLE_I

#: Two representative scenarios keep the bench tractable; the driver
#: sweeps all six.
SCENARIOS = [TABLE_I[0], TABLE_I[3]]


def test_fig10_reliable_transfer(run_driver):
    result = run_driver(
        "fig10",
        seed=0,
        payload_bytes=16,
        packet_bytes=4,
        scenarios=SCENARIOS,
    )
    for name, per_noise in result["table"].items():
        base = per_noise["no-noise"]
        # 100% bit recovery is the scheme's guarantee (paper Sec VIII-C).
        assert base["intact"], name
        assert per_noise["medium"]["intact"], name
        assert per_noise["high"]["intact"], name
        # Retransmission costs rate monotonically with noise pressure.
        assert (per_noise["medium"]["effective_kbps"]
                <= base["effective_kbps"] + 1e-9), name
        # NACK accounting: one acknowledgement per packet transmission.
        assert base["nacks"] >= result["table"][name]["no-noise"]["transmissions"] - 1
