"""GTPv1-U codec: wire examples, round trips, classification, fuzzing."""

import random
import struct

import pytest
from hypothesis import example, given, strategies as st

from megw import gtp
from megw.gtp import (Direction, FiveTuple, GtpMessageType, GtpuPacket,
                      PacketClass, build_ipv4, build_tcpish, build_udp,
                      classify, decode_gtpu, encode_gtpu, inner_five_tuple)


def checksum_oracle(header: bytes) -> int:
    """Independent ones-complement sum, word by word."""
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) + header[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def make_inner(src="172.16.0.2", dst="10.100.1.1", proto=6,
               sport=5000, dport=80, payload=b"x" * 8):
    return build_ipv4(src, dst, proto, build_tcpish(proto, sport, dport, payload))


class TestEncode:
    def test_gpdu_header_bytes(self):
        # hand-assembled per the GTPv1-U bit layout: flags 0x30, type 0xFF,
        # 16-bit payload length, 32-bit TEID
        inner = bytes(range(8))
        pkt = GtpuPacket("192.168.1.1", "192.168.1.2", 0x11223344,
                         GtpMessageType.GPDU, inner)
        wire = encode_gtpu(pkt)
        gtp_header = wire[28:36]
        expected = struct.pack("!BBHI", 0x30, 0xFF, 8, 0x11223344)
        assert gtp_header == expected
        assert gtp_header.hex() == "30ff000811223344"
        assert wire[36:] == inner

    def test_end_marker_bytes(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 0xC8,
                         GtpMessageType.END_MARKER, b"")
        wire = encode_gtpu(pkt)
        assert wire[29] == 0xFE  # message type 254
        assert wire[30:32] == b"\x00\x00"  # zero payload length

    def test_outer_framing(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                         make_inner())
        wire = encode_gtpu(pkt)
        assert wire[0] == 0x45
        assert wire[9] == 17  # UDP
        assert wire[12:16] == bytes([10, 0, 0, 1])
        assert wire[16:20] == bytes([10, 0, 0, 2])
        # IPv4 checksum verifies against the independent oracle
        assert checksum_oracle(wire[:10] + b"\x00\x00" + wire[12:20]) \
            == struct.unpack("!H", wire[10:12])[0]
        # UDP: both ports 2152, checksum zero
        assert struct.unpack("!HH", wire[20:24]) == (2152, 2152)
        assert wire[26:28] == b"\x00\x00"

    def test_oversize_inner_rejected(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                         b"\x00" * (gtp.MAX_INNER_LEN + 1))
        with pytest.raises(gtp.EncodeError):
            encode_gtpu(pkt)

    def test_bad_address_rejected(self):
        pkt = GtpuPacket("10.0.0", "10.0.0.2", 1, GtpMessageType.GPDU, b"")
        with pytest.raises(gtp.EncodeError):
            encode_gtpu(pkt)

    def test_deterministic(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 77, GtpMessageType.GPDU,
                         make_inner())
        assert encode_gtpu(pkt) == encode_gtpu(pkt)


class TestDecode:
    def test_round_trip_example(self):
        pkt = GtpuPacket("192.168.1.1", "192.168.1.2", 0x11223344,
                         GtpMessageType.GPDU, make_inner())
        assert decode_gtpu(encode_gtpu(pkt)) == pkt

    def test_end_marker_type_254(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 5,
                         GtpMessageType.END_MARKER, b"")
        wire = encode_gtpu(pkt)
        assert wire[29] == 254
        decoded = decode_gtpu(wire)
        assert decoded.message_type is GtpMessageType.END_MARKER

    def test_wrong_gtp_version(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                         make_inner())
        wire = bytearray(encode_gtpu(pkt))
        wire[28] = 0x50  # version 2
        with pytest.raises(gtp.VersionError):
            decode_gtpu(bytes(wire))

    def test_unknown_message_type(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                         make_inner())
        wire = bytearray(encode_gtpu(pkt))
        wire[29] = 0x01  # echo request: not accepted here
        with pytest.raises(gtp.MessageTypeError):
            decode_gtpu(bytes(wire))

    def test_truncated(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                         make_inner())
        wire = encode_gtpu(pkt)
        with pytest.raises(gtp.DecodeError):
            decode_gtpu(wire[:30])

    def test_length_mismatch(self):
        pkt = GtpuPacket("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                         b"abcd")
        wire = bytearray(encode_gtpu(pkt))
        wire[30:32] = struct.pack("!H", 99)
        with pytest.raises(gtp.LengthError):
            decode_gtpu(bytes(wire))

    def test_random_round_trips(self):
        rng = random.Random(0x61F)
        for _ in range(500):
            teid = rng.getrandbits(32)
            mt = rng.choice([GtpMessageType.GPDU, GtpMessageType.END_MARKER])
            if mt is GtpMessageType.GPDU:
                inner = make_inner(
                    src=f"10.{rng.randrange(256)}.{rng.randrange(256)}.1",
                    dst=f"10.100.{rng.randrange(256)}.1",
                    proto=rng.choice([6, 17, 1]),
                    sport=rng.randrange(65536), dport=rng.randrange(65536),
                    payload=rng.randbytes(rng.randrange(64)))
            else:
                inner = rng.choice([b"", rng.randbytes(rng.randrange(16))])
            pkt = GtpuPacket(
                f"192.0.2.{rng.randrange(1, 255)}",
                f"198.51.100.{rng.randrange(1, 255)}",
                teid, mt, inner)
            assert decode_gtpu(encode_gtpu(pkt)) == pkt


class TestFiveTuple:
    def test_tcp_fields(self):
        inner = make_inner("172.16.0.2", "10.100.1.1", 6, 5000, 80)
        assert inner_five_tuple(inner) == FiveTuple(
            "172.16.0.2", "10.100.1.1", 6, 5000, 80)

    def test_udp_fields(self):
        inner = build_ipv4("172.16.0.3", "10.100.1.1", 17,
                           build_udp(9999, 53, b"q"))
        ft = inner_five_tuple(inner)
        assert (ft.proto, ft.src_port, ft.dst_port) == (17, 9999, 53)

    def test_icmp_ports_zero(self):
        inner = build_ipv4("172.16.0.2", "8.8.8.8", 1, b"\x08\x00\x00\x00")
        ft = inner_five_tuple(inner)
        assert (ft.src_port, ft.dst_port) == (0, 0)

    def test_short_input_errors(self):
        with pytest.raises(gtp.DecodeError):
            inner_five_tuple(b"\x45" + b"\x00" * 9)

    def test_truncated_transport_errors(self):
        inner = build_ipv4("1.2.3.4", "5.6.7.8", 6, b"\x01")
        with pytest.raises(gtp.DecodeError):
            inner_five_tuple(inner)


class TestClassify:
    def test_sctp_is_control_plane(self):
        frame = build_ipv4("10.1.0.1", "10.2.0.1", 132, b"\x00" * 16)
        for d in Direction:
            assert classify(frame, d) is PacketClass.CONTROL_PLANE

    def test_gtp_by_direction(self):
        wire = encode_gtpu(GtpuPacket("10.1.0.1", "10.2.0.1", 9,
                                      GtpMessageType.GPDU, make_inner()))
        assert classify(wire, Direction.FROM_RAN) is PacketClass.UPSTREAM_GTP
        assert classify(wire, Direction.FROM_CORE) is PacketClass.DOWNSTREAM_GTP
        assert classify(wire, Direction.FROM_CLUSTER) is PacketClass.PLAIN_IP

    def test_end_marker_from_core(self):
        wire = encode_gtpu(GtpuPacket("10.2.0.1", "10.1.0.1", 9,
                                      GtpMessageType.END_MARKER, b""))
        assert classify(wire, Direction.FROM_CORE) is PacketClass.END_MARKER

    def test_bare_tcp_is_plain(self):
        frame = build_ipv4("10.200.0.5", "172.16.0.2", 6,
                           build_tcpish(6, 80, 5000, b"resp"))
        assert classify(frame, Direction.FROM_CLUSTER) is PacketClass.PLAIN_IP

    def test_garbage_is_plain(self):
        assert classify(b"\x00\x01\x02", Direction.FROM_RAN) \
            is PacketClass.PLAIN_IP

    @given(flags=st.integers(0, 255),
           msg_type=st.one_of(st.sampled_from([0xFF, 0xFE]),
                              st.integers(0, 255)),
           udp_len=st.one_of(st.none(), st.integers(0, 0xFFFF)),
           gtp_len=st.one_of(st.none(), st.integers(0, 0xFFFF)))
    @example(flags=0x32, msg_type=0xFF, udp_len=None, gtp_len=None)
    def test_gtp_class_iff_decodes(self, flags, msg_type, udp_len, gtp_len):
        # None keeps the length field the encoder wrote
        wire = bytearray(encode_gtpu(GtpuPacket(
            "10.1.0.1", "10.2.0.1", 42, GtpMessageType.GPDU, make_inner())))
        wire[28], wire[29] = flags, msg_type
        if udp_len is not None:
            wire[24:26] = struct.pack("!H", udp_len)
        if gtp_len is not None:
            wire[30:32] = struct.pack("!H", gtp_len)
        frame = bytes(wire)
        try:
            decode_gtpu(frame)
            decodes = True
        except gtp.DecodeError:
            decodes = False
        tunneled = classify(frame, Direction.FROM_RAN) in (
            PacketClass.UPSTREAM_GTP, PacketClass.DOWNSTREAM_GTP,
            PacketClass.END_MARKER)
        assert tunneled == decodes

    def test_partition(self):
        # every input lands in exactly one class (classify returns one enum
        # member and never raises)
        rng = random.Random(7)
        for _ in range(200):
            blob = rng.randbytes(rng.randrange(0, 80))
            for d in Direction:
                assert classify(blob, d) in PacketClass


class TestFuzz:
    def test_decode_never_crashes(self):
        rng = random.Random(0xF022)
        for _ in range(2000):
            blob = rng.randbytes(rng.randrange(0, 120))
            try:
                decode_gtpu(blob)
            except gtp.DecodeError:
                pass

    def test_mutated_valid_packets(self):
        rng = random.Random(0xF023)
        wire = bytearray(encode_gtpu(GtpuPacket(
            "10.1.0.1", "10.2.0.1", 42, GtpMessageType.GPDU, make_inner())))
        for _ in range(2000):
            mutated = bytearray(wire)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                decode_gtpu(bytes(mutated))
            except gtp.DecodeError:
                pass
