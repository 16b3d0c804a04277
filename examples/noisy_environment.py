"""Covert transfer in a noisy system, with and without error control.

Spawns kernel-build noise workers next to the trojan/spy pair (the
paper's Section VIII-C stress test), shows the raw-bit errors they
induce, then repeats the transfer through the reliable parity/CRC +
NACK retransmission channel, which delivers the payload intact at a
reduced effective rate.

Run:  python examples/noisy_environment.py
"""

import numpy as np

from repro import (
    ChannelSession,
    ProtocolParams,
    ReliableChannel,
    SessionConfig,
    scenario_by_name,
)
from repro.experiments.common import payload_bits

SCENARIO = scenario_by_name("RExclc-LSharedb")
RATE = 350


def raw_transfer(noise_threads: int) -> None:
    session = ChannelSession(SessionConfig(
        spec=SCENARIO.name,
        params=ProtocolParams().at_rate(RATE),
        seed=11,
        noise_threads=noise_threads,
    ))
    payload = payload_bits(200)
    session.transmit(payload[:24])  # let the noise reach steady state
    result = session.transmit(payload)
    a = result.alignment
    print(f"  {noise_threads} noise threads: accuracy "
          f"{result.accuracy * 100:5.1f}%  "
          f"(flips={a.flips}, lost={a.losses}, dups={a.duplicates})")


def reliable_transfer(noise_threads: int) -> None:
    rng = np.random.default_rng(2)
    payload = bytes(rng.integers(0, 256, 24, dtype=np.uint8))
    channel = ReliableChannel(
        SCENARIO.name,
        params=ProtocolParams().at_rate(RATE),
        seed=11,
        noise_threads=noise_threads,
        packet_bytes=8,
        max_attempts=60,
        checksum="crc16",
    )
    result = channel.send(payload)
    print(f"  {noise_threads} noise threads: delivered "
          f"{'INTACT' if result.intact else 'CORRUPT'} in "
          f"{result.transmissions} packet sends "
          f"(+{result.nacks} NACKs), effective "
          f"{result.effective_rate_kbps:.0f} Kbits/s")


def main() -> None:
    print("Raw channel under kernel-build noise (Section VIII-C):")
    for noise in (0, 2, 4):
        raw_transfer(noise)
    print("\nReliable channel: CRC-checked packets + NACK retransmission")
    print("(Figure 10's protocol; delivery is guaranteed, rate is paid):")
    for noise in (0, 2, 4):
        reliable_transfer(noise)


if __name__ == "__main__":
    main()
