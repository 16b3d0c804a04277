"""Tests for parity encoding and the NACK retransmission protocol."""

import pytest

from repro.channel.config import TABLE_I
from repro.channel.ecc import (
    CHUNK_BYTES,
    PACKET_DATA_BYTES,
    ReliableChannel,
    bits_to_bytes,
    bytes_to_bits,
    check_packet,
    encode_packet,
)
from repro.errors import ConfigError


def test_bytes_bits_roundtrip():
    data = bytes(range(16))
    assert bits_to_bytes(bytes_to_bits(data)) == data


def test_bits_to_bytes_rejects_partial():
    with pytest.raises(ConfigError):
        bits_to_bytes([1, 0, 1])


def test_packet_geometry():
    data = bytes(64)
    bits = encode_packet(data)
    assert len(bits) == 64 * 8 + 16  # 16 parity bits per 64-byte packet


def test_encode_rejects_misaligned():
    with pytest.raises(ConfigError):
        encode_packet(bytes(3))


def test_check_accepts_clean_packet():
    data = bytes(range(16))
    ok, decoded = check_packet(encode_packet(data), data_bytes=16)
    assert ok and decoded == data


def test_check_detects_any_single_flip():
    data = bytes(range(8))
    bits = encode_packet(data)
    for i in range(len(bits)):
        corrupted = list(bits)
        corrupted[i] ^= 1
        ok, _decoded = check_packet(corrupted, data_bytes=8)
        assert not ok, f"flip at bit {i} went undetected"


def test_check_detects_length_mismatch():
    data = bytes(8)
    bits = encode_packet(data)
    assert check_packet(bits[:-1], data_bytes=8) == (False, None)
    assert check_packet(bits + [0], data_bytes=8) == (False, None)


def test_check_misses_even_flips_in_chunk():
    """Parity is 1-bit: double flips in one chunk escape (documented)."""
    data = bytes(8)
    bits = encode_packet(data)
    bits[0] ^= 1
    bits[1] ^= 1  # same 4-byte chunk
    ok, _decoded = check_packet(bits, data_bytes=8)
    assert ok


def test_default_packet_constants():
    assert PACKET_DATA_BYTES == 64
    assert CHUNK_BYTES == 4


def test_reliable_channel_delivers_intact():
    channel = ReliableChannel(TABLE_I[0].name, seed=3, packet_bytes=16)
    payload = bytes(range(32))
    result = channel.send(payload)
    assert result.intact
    assert result.delivered == payload
    assert result.packets == 2
    assert result.nacks >= result.packets


def test_reliable_channel_rejects_misaligned_payload():
    channel = ReliableChannel(TABLE_I[0].name, seed=3, packet_bytes=16)
    with pytest.raises(ConfigError):
        channel.send(bytes(17))


def test_reliable_channel_rejects_bad_packet_bytes():
    with pytest.raises(ConfigError):
        ReliableChannel(TABLE_I[0].name, packet_bytes=6)


def test_reliable_channel_counts_cycles():
    channel = ReliableChannel(TABLE_I[0].name, seed=3, packet_bytes=16)
    result = channel.send(bytes(16))
    assert result.forward_cycles > 0
    assert result.reverse_cycles > 0
    assert result.total_cycles == pytest.approx(
        result.forward_cycles + result.reverse_cycles
    )
    assert result.effective_rate_kbps > 0


def test_reliable_channel_under_noise_still_delivers():
    channel = ReliableChannel(
        TABLE_I[3].name, seed=3, packet_bytes=8, noise_threads=2,
        max_attempts=60, checksum="crc16",
    )
    payload = bytes(range(16))
    result = channel.send(payload)
    assert result.intact
    # retransmissions may or may not have occurred, but accounting holds
    assert result.transmissions >= result.packets
    assert result.packet_attempts and max(result.packet_attempts) >= 1


def test_crc16_roundtrip_and_detection():
    from repro.channel.ecc import (
        check_packet_crc16,
        crc16,
        encode_packet_crc16,
    )

    data = bytes(range(16))
    bits = encode_packet_crc16(data)
    assert len(bits) == 16 * 8 + 16
    ok, decoded = check_packet_crc16(bits, data_bytes=16)
    assert ok and decoded == data
    # double flips in one chunk escape parity but not CRC-16
    corrupted = list(bits)
    corrupted[0] ^= 1
    corrupted[1] ^= 1
    ok, _decoded = check_packet_crc16(corrupted, data_bytes=16)
    assert not ok
    assert crc16(b"123456789") == 0x29B1  # CRC-16/CCITT-FALSE check value


def test_reliable_channel_rejects_unknown_checksum():
    with pytest.raises(ConfigError):
        ReliableChannel(TABLE_I[0].name, checksum="md5")
