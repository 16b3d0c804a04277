"""Error detection and retransmission (Section VIII-C / Figure 10).

The paper's scheme: each 64-byte packet carries 16 parity bits, one per
4-byte chunk.  The spy verifies parity after each packet; on failure it
sends a NACK bit back through the *reverse* channel (the roles of trojan
and spy are swapped just for the acknowledgement), and the trojan
retransmits until the packet is received intact.  The effective
information rate therefore pays for parity overhead, NACK round trips
and retransmissions — under high noise the paper measures a worst-case
24% rate reduction in exchange for guaranteed delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.config import ProtocolParams
from repro.channel.metrics import goodput_kbps
from repro.channel.scenarios import ScenarioSpec
from repro.channel.session import ChannelSession, SessionConfig
from repro.errors import ChannelError, ConfigError
from repro.mem.hierarchy import MachineConfig

#: Paper packet geometry: 64 data bytes, parity per 4-byte chunk.
PACKET_DATA_BYTES = 64
CHUNK_BYTES = 4

#: CRC-16/CCITT polynomial used by the strengthened checksum variant.
CRC16_POLY = 0x1021
CRC16_INIT = 0xFFFF


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE over *data*."""
    crc = CRC16_INIT
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ CRC16_POLY) if crc & 0x8000 else crc << 1
            crc &= 0xFFFF
    return crc


def bytes_to_bits(data: bytes) -> list[int]:
    """MSB-first bit expansion."""
    return [(byte >> (7 - i)) & 1 for byte in data for i in range(8)]


def bits_to_bytes(bits: list[int]) -> bytes:
    """Inverse of :func:`bytes_to_bits` (length must be a multiple of 8)."""
    if len(bits) % 8:
        raise ConfigError("bit count must be a multiple of 8")
    out = bytearray()
    for i in range(0, len(bits), 8):
        value = 0
        for bit in bits[i:i + 8]:
            value = (value << 1) | (bit & 1)
        out.append(value)
    return bytes(out)


def encode_packet(data: bytes, chunk_bytes: int = CHUNK_BYTES) -> list[int]:
    """Append one even-parity bit per *chunk_bytes* chunk to the data bits."""
    if len(data) % chunk_bytes:
        raise ConfigError(
            f"packet length {len(data)} is not a multiple of {chunk_bytes}"
        )
    bits = bytes_to_bits(data)
    parity: list[int] = []
    chunk_bits = chunk_bytes * 8
    for i in range(0, len(bits), chunk_bits):
        parity.append(sum(bits[i:i + chunk_bits]) & 1)
    return bits + parity


def encode_packet_crc16(data: bytes) -> list[int]:
    """Append a 16-bit CRC to the data bits.

    The paper's per-chunk parity misses even numbers of flips within a
    chunk; at the error rates our noisier substrate produces this
    happens often enough to deliver corrupt packets, so the reliable
    channel also supports a CRC-16 packet format that makes undetected
    corruption negligible.
    """
    value = crc16(data)
    return bytes_to_bits(data) + [(value >> (15 - i)) & 1 for i in range(16)]


def check_packet_crc16(
    bits: list[int], data_bytes: int
) -> tuple[bool, bytes | None]:
    """Verify a CRC-16 packet; returns (ok, data)."""
    expected = data_bytes * 8 + 16
    if len(bits) != expected:
        return False, None
    data = bits_to_bytes(bits[: data_bytes * 8])
    received = 0
    for bit in bits[data_bytes * 8:]:
        received = (received << 1) | (bit & 1)
    if crc16(data) != received:
        return False, None
    return True, data


def check_packet(
    bits: list[int], data_bytes: int, chunk_bytes: int = CHUNK_BYTES
) -> tuple[bool, bytes | None]:
    """Verify parity; returns (ok, data) with data None on failure."""
    n_chunks = data_bytes // chunk_bytes
    expected = data_bytes * 8 + n_chunks
    if len(bits) != expected:
        return False, None
    data_bits = bits[: data_bytes * 8]
    parity = bits[data_bytes * 8:]
    chunk_bits = chunk_bytes * 8
    for chunk_index in range(n_chunks):
        start = chunk_index * chunk_bits
        if (sum(data_bits[start:start + chunk_bits]) & 1) != parity[chunk_index]:
            return False, None
    return True, bits_to_bytes(data_bits)


@dataclass
class ReliableTransferResult:
    """Outcome of a parity+NACK protected transfer."""

    payload: bytes
    delivered: bytes
    packets: int
    transmissions: int          # packet sends including retransmissions
    nacks: int                  # reverse-channel acknowledgement bits sent
    forward_cycles: float
    reverse_cycles: float
    packet_attempts: list[int] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        """All cycles spent, forward plus acknowledgement traffic."""
        return self.forward_cycles + self.reverse_cycles

    @property
    def effective_rate_kbps(self) -> float:
        """Information bits delivered per second (Figure 10's y-axis)."""
        return goodput_kbps(len(self.payload) * 8, self.total_cycles)

    @property
    def intact(self) -> bool:
        """Whether the delivered payload matches exactly."""
        return self.delivered == self.payload


class ReliableChannel:
    """Packetized transfer with parity checking and NACK retransmission.

    Two sessions are held: the *forward* channel (trojan -> spy) carrying
    packets, and a mirrored *reverse* channel carrying the 1-bit
    NACK/ACK, modeling the role reversal of Section VIII-C.  Both live on
    identically configured machines so the acknowledgement pays a
    realistic cycle cost without entangling the two directions' cache
    state (the real parties also use disjoint block offsets per
    direction).
    """

    def __init__(
        self,
        spec: ScenarioSpec | str,
        params: ProtocolParams | None = None,
        seed: int = 0,
        noise_threads: int = 0,
        machine: MachineConfig | None = None,
        packet_bytes: int = PACKET_DATA_BYTES,
        max_attempts: int = 12,
        checksum: str = "parity",
        retry_backoff_cycles: float = 0.0,
    ):
        if packet_bytes % CHUNK_BYTES:
            raise ConfigError("packet_bytes must be a multiple of 4")
        if checksum not in ("parity", "crc16"):
            raise ConfigError(f"unknown checksum {checksum!r}")
        self.packet_bytes = packet_bytes
        self.max_attempts = max_attempts
        self.checksum = checksum
        #: Idle time inserted before a retransmission.  Under bursty
        #: noise, immediate retries tend to fail the same way (the noise
        #: pattern is phase-locked with the sampling grid); backing off
        #: re-randomizes the phase.  Counted against the effective rate.
        self.retry_backoff_cycles = retry_backoff_cycles
        params = params if params is not None else ProtocolParams()
        machine = machine if machine is not None else MachineConfig()
        self.forward = ChannelSession(SessionConfig(
            spec=spec, params=params, seed=seed,
            noise_threads=noise_threads, machine=machine,
        ))
        self.reverse = ChannelSession(SessionConfig(
            spec=spec, params=params, seed=seed + 7_919,
            noise_threads=noise_threads, machine=machine,
        ))

    def _send_nack(self, bit: int) -> float:
        """Send one acknowledgement bit on the reverse channel."""
        result = self.reverse.transmit([bit])
        return result.cycles

    def send(self, payload: bytes) -> ReliableTransferResult:
        """Deliver *payload* reliably; retransmit failed packets."""
        if len(payload) % self.packet_bytes:
            raise ConfigError(
                f"payload length must be a multiple of {self.packet_bytes}"
            )
        delivered = bytearray()
        transmissions = 0
        nacks = 0
        forward_cycles = 0.0
        reverse_cycles = 0.0
        attempts_log: list[int] = []
        n_packets = len(payload) // self.packet_bytes
        for p in range(n_packets):
            chunk = payload[p * self.packet_bytes:(p + 1) * self.packet_bytes]
            if self.checksum == "crc16":
                encoded = encode_packet_crc16(chunk)
            else:
                encoded = encode_packet(chunk)
            attempts = 0
            while True:
                attempts += 1
                transmissions += 1
                result = self.forward.transmit(encoded)
                forward_cycles += result.cycles
                if self.checksum == "crc16":
                    ok, data = check_packet_crc16(
                        result.received, self.packet_bytes
                    )
                else:
                    ok, data = check_packet(result.received, self.packet_bytes)
                # The spy acknowledges every packet: NACK=1 requests a
                # resend, NACK=0 confirms receipt (Section VIII-C).
                nacks += 1
                reverse_cycles += self._send_nack(0 if ok else 1)
                if ok:
                    delivered.extend(data)
                    break
                if attempts >= self.max_attempts:
                    raise ChannelError(
                        f"packet {p} failed {attempts} times; channel unusable"
                    )
                if self.retry_backoff_cycles > 0:
                    self.forward.idle(self.retry_backoff_cycles)
                    forward_cycles += self.retry_backoff_cycles
            attempts_log.append(attempts)
        return ReliableTransferResult(
            payload=bytes(payload),
            delivered=bytes(delivered),
            packets=n_packets,
            transmissions=transmissions,
            nacks=nacks,
            forward_cycles=forward_cycles,
            reverse_cycles=reverse_cycles,
            packet_attempts=attempts_log,
        )
