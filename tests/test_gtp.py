"""GTPv1-U codec: wire examples, round trips, classification, fuzzing."""

import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from megw import gtp
from megw.gtp import (Direction, FiveTuple, GtpMessageType, GtpuPacket,
                      PacketClass, build_ipv4, build_tcpish, build_udp,
                      classify, decode_gtpu, encode_gtpu, inner_five_tuple,
                      ip_int)
from test_steering import frames


def checksum_oracle(header: bytes) -> int:
    """Independent ones-complement sum, word by word."""
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) + header[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def ipv4(src, dst, proto, payload):
    """An IPv4 packet between two dotted-quad addresses."""
    return build_ipv4(ip_int(src), ip_int(dst), proto, payload)


def tunnel(src, dst, teid, message_type, inner=b""):
    """A GtpuPacket between two dotted-quad addresses."""
    return GtpuPacket(ip_int(src), ip_int(dst), teid, message_type, inner)


def make_inner(src="172.16.0.2", dst="10.100.1.1", proto=6,
               sport=5000, dport=80, payload=b"x" * 8):
    return ipv4(src, dst, proto, build_tcpish(proto, sport, dport, payload))


class TestEncode:
    def test_gpdu_header_bytes(self):
        # hand-assembled per the GTPv1-U bit layout: flags 0x30, type 0xFF,
        # 16-bit payload length, 32-bit TEID
        inner = bytes(range(8))
        pkt = tunnel("192.168.1.1", "192.168.1.2", 0x11223344,
                     GtpMessageType.GPDU, inner)
        wire = encode_gtpu(*pkt)
        gtp_header = wire[28:36]
        expected = struct.pack("!BBHI", 0x30, 0xFF, 8, 0x11223344)
        assert gtp_header == expected
        assert gtp_header.hex() == "30ff000811223344"
        assert wire[36:] == inner

    def test_end_marker_bytes(self):
        pkt = tunnel("10.0.0.1", "10.0.0.2", 0xC8,
                     GtpMessageType.END_MARKER, b"")
        wire = encode_gtpu(*pkt)
        assert wire[29] == 0xFE  # message type 254
        assert wire[30:32] == b"\x00\x00"  # zero payload length

    def test_outer_framing(self):
        pkt = tunnel("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                     make_inner())
        wire = encode_gtpu(*pkt)
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
        pkt = tunnel("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                     b"\x00" * (gtp.MAX_INNER_LEN + 1))
        with pytest.raises(gtp.EncodeError):
            encode_gtpu(*pkt)

    def test_oversize_ipv4_payload_rejected(self):
        # 20 header bytes and 65,515 payload bytes fill the total length
        assert len(gtp.build_ipv4(1, 2, 17, bytes(65_515))) == 0xFFFF
        with pytest.raises(gtp.EncodeError, match=r"\(65516 bytes\)"):
            gtp.build_ipv4(1, 2, 17, bytes(65_516))

    def test_bad_address_rejected(self):
        # a malformed dotted address is refused where it becomes an integer
        with pytest.raises(gtp.EncodeError):
            encode_gtpu(*tunnel("10.0.0", "10.0.0.2", 1, GtpMessageType.GPDU))

    @pytest.mark.parametrize("src, dst, teid", [
        (1 << 32, 1, 1), (1, -1, 1), (1, 2, 1 << 32), (1, 2, -1)])
    def test_field_out_of_range_rejected(self, src, dst, teid):
        # an outer address or TEID wider than its slot is an EncodeError
        with pytest.raises(gtp.EncodeError):
            encode_gtpu(src, dst, teid, GtpMessageType.GPDU, b"x")

    def test_deterministic(self):
        pkt = tunnel("10.0.0.1", "10.0.0.2", 77, GtpMessageType.GPDU,
                     make_inner())
        assert encode_gtpu(*pkt) == encode_gtpu(*pkt)

    @given(src=st.integers(0, 0xFFFFFFFF), dst=st.integers(0, 0xFFFFFFFF),
           teid=st.integers(0, 0xFFFFFFFF),
           message_type=st.sampled_from(GtpMessageType),
           inner=st.binary(max_size=300))
    @example(src=0, dst=0, teid=0, message_type=GtpMessageType.GPDU,
             inner=bytes(gtp.MAX_INNER_LEN))
    def test_one_pack_equals_layered(self, src, dst, teid, message_type,
                                     inner):
        # the 36 header bytes packed at once equal the IPv4, UDP and GTP-U
        # layers built one inside the other
        layered = build_ipv4(src, dst, 17, build_udp(2152, 2152, struct.pack(
            "!BBHI", 0x30, message_type.value, len(inner), teid) + inner))
        wire = encode_gtpu(src, dst, teid, message_type, inner)
        assert wire == layered
        assert checksum_oracle(wire[:20]) == 0


class TestDecode:
    def test_round_trip_example(self):
        pkt = tunnel("192.168.1.1", "192.168.1.2", 0x11223344,
                     GtpMessageType.GPDU, make_inner())
        assert decode_gtpu(encode_gtpu(*pkt)) == pkt

    def test_end_marker_type_254(self):
        pkt = tunnel("10.0.0.1", "10.0.0.2", 5,
                     GtpMessageType.END_MARKER, b"")
        wire = encode_gtpu(*pkt)
        assert wire[29] == 254
        decoded = decode_gtpu(wire)
        assert decoded.message_type is GtpMessageType.END_MARKER

    def test_wrong_gtp_version(self):
        pkt = tunnel("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                     make_inner())
        wire = bytearray(encode_gtpu(*pkt))
        wire[28] = 0x50  # version 2
        with pytest.raises(gtp.VersionError):
            decode_gtpu(bytes(wire))

    def test_unknown_message_type(self):
        pkt = tunnel("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                     make_inner())
        wire = bytearray(encode_gtpu(*pkt))
        wire[29] = 0x01  # echo request: not accepted here
        with pytest.raises(gtp.MessageTypeError):
            decode_gtpu(bytes(wire))

    def test_truncated(self):
        pkt = tunnel("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                     make_inner())
        wire = encode_gtpu(*pkt)
        with pytest.raises(gtp.DecodeError):
            decode_gtpu(wire[:30])

    def test_length_mismatch(self):
        pkt = tunnel("10.0.0.1", "10.0.0.2", 1, GtpMessageType.GPDU,
                     b"abcd")
        wire = bytearray(encode_gtpu(*pkt))
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
            pkt = tunnel(
            f"192.0.2.{rng.randrange(1, 255)}",
            f"198.51.100.{rng.randrange(1, 255)}",
            teid, mt, inner)
            assert decode_gtpu(encode_gtpu(*pkt)) == pkt


def tunnel_check_oracle(data: bytes):
    """(name, DecodeError subclass) of the first failed check, in the order
    the view-based decoder made them: the IPv4 header
    (`parse_error_oracle`), then protocol, UDP header length, port, UDP
    length, GTP-U header length, version, flags, message type and GTP-U
    length. None for a frame it accepts."""
    error = parse_error_oracle(data)
    if error is not None:
        return "ipv4", error
    ihl = (data[0] & 0x0F) * 4
    udp = data[ihl:int.from_bytes(data[2:4], "big")]
    if data[9] != 17:
        return "not udp", gtp.MessageTypeError
    if len(udp) < 8:
        return "udp header", gtp.TruncatedError
    port, length = struct.unpack_from("!HH", udp, 2)
    if port != 2152:
        return "udp port", gtp.MessageTypeError
    if length != len(udp):
        return "udp length", gtp.LengthError
    if len(udp) < 16:
        return "gtp header", gtp.TruncatedError
    flags, msg_type, gtp_len, _ = struct.unpack_from("!BBHI", udp, 8)
    if flags >> 5 != 1:
        return "gtp version", gtp.VersionError
    if flags != 0x30 or msg_type not in (0xFF, 0xFE):
        return "gtp flags or type", gtp.MessageTypeError
    if gtp_len != len(udp) - 16:
        return "gtp length", gtp.LengthError
    return None


def tunnel_error_oracle(data: bytes):
    """The DecodeError subclass of the first failed check, or None for a
    frame that decodes."""
    failed = tunnel_check_oracle(data)
    return None if failed is None else failed[1]


class TestDecodeChecks:
    @given(proto=st.sampled_from((17, 17, 6)),
           ihl=st.integers(5, 15), inner=st.binary(max_size=24),
           cut=st.none() | st.integers(0, 40),
           port=st.sampled_from((2152, 2152, 2153)),
           udp_delta=st.sampled_from((0, 0, -1, 1)),
           flags=st.sampled_from((0x30, 0x30, 0x32)) | st.integers(0, 255),
           msg_type=st.sampled_from((0xFF, 0xFE)) | st.integers(0, 255),
           gtp_delta=st.sampled_from((0, 0, -1, 1)),
           trailer=st.sampled_from((b"", b"\x00")))
    @example(proto=17, ihl=5, inner=b"", cut=12, port=2153, udp_delta=0,
             flags=0x30, msg_type=0xFF, gtp_delta=0, trailer=b"")
    @example(proto=17, ihl=6, inner=b"", cut=10, port=2152, udp_delta=0,
             flags=0x30, msg_type=0xFF, gtp_delta=0, trailer=b"\x00")
    @example(proto=17, ihl=5, inner=b"abc", cut=None, port=2152, udp_delta=0,
             flags=0x32, msg_type=0xFF, gtp_delta=0, trailer=b"")
    def test_errors_keep_their_class(self, proto, ihl, inner, cut, port,
                                     udp_delta, flags, msg_type, gtp_delta,
                                     trailer):
        # datagrams cut short of a GTP-U header still fail the port and
        # UDP length checks first, as the view-based decoder did
        udp = bytearray(struct.pack("!HHHHBBHI", 2152, port, 0, 0, flags,
                                    msg_type, len(inner) + gtp_delta & 0xFFFF,
                                    7) + inner)[:cut]
        if len(udp) >= 6:
            udp[4:6] = struct.pack("!H", len(udp) + udp_delta & 0xFFFF)
        head = struct.pack("!BBHHHBBHII", 0x40 | ihl, 0, ihl * 4 + len(udp),
                           0, 0, 64, proto, 0, 1, 2) + bytes(ihl * 4 - 20)
        frame = head + bytes(udp) + trailer
        expected = tunnel_error_oracle(frame)
        if expected is None:
            assert decode_gtpu(frame).inner == bytes(udp[16:])
        else:
            with pytest.raises(gtp.DecodeError) as info:
                decode_gtpu(frame)
            assert type(info.value) is expected


class TestFiveTuple:
    def test_tcp_fields(self):
        inner = make_inner("172.16.0.2", "10.100.1.1", 6, 5000, 80)
        assert inner_five_tuple(inner) == FiveTuple.parse(
            "172.16.0.2", "10.100.1.1", 6, 5000, 80)

    def test_udp_fields(self):
        inner = ipv4("172.16.0.3", "10.100.1.1", 17,
                     build_udp(9999, 53, b"q"))
        ft = inner_five_tuple(inner)
        assert (ft.proto, ft.src_port, ft.dst_port) == (17, 9999, 53)

    def test_icmp_ports_zero(self):
        inner = ipv4("172.16.0.2", "8.8.8.8", 1, b"\x08\x00\x00\x00")
        ft = inner_five_tuple(inner)
        assert (ft.src_port, ft.dst_port) == (0, 0)

    def test_short_input_errors(self):
        with pytest.raises(gtp.DecodeError):
            inner_five_tuple(b"\x45" + b"\x00" * 9)

    def test_truncated_transport_errors(self):
        inner = ipv4("1.2.3.4", "5.6.7.8", 6, b"\x01")
        with pytest.raises(gtp.DecodeError):
            inner_five_tuple(inner)


class TestClassify:
    def test_sctp_is_control_plane(self):
        frame = ipv4("10.1.0.1", "10.2.0.1", 132, b"\x00" * 16)
        for d in Direction:
            assert classify(frame, d) is PacketClass.CONTROL_PLANE

    def test_gtp_by_direction(self):
        wire = encode_gtpu(*tunnel("10.1.0.1", "10.2.0.1", 9,
                                  GtpMessageType.GPDU, make_inner()))
        assert classify(wire, Direction.FROM_RAN) is PacketClass.UPSTREAM_GTP
        assert classify(wire, Direction.FROM_CORE) is PacketClass.DOWNSTREAM_GTP
        assert classify(wire, Direction.FROM_CLUSTER) is PacketClass.PLAIN_IP

    def test_end_marker_from_core(self):
        wire = encode_gtpu(*tunnel("10.2.0.1", "10.1.0.1", 9,
                                  GtpMessageType.END_MARKER, b""))
        assert classify(wire, Direction.FROM_CORE) is PacketClass.END_MARKER

    def test_bare_tcp_is_plain(self):
        frame = ipv4("10.200.0.5", "172.16.0.2", 6,
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
        wire = bytearray(encode_gtpu(*tunnel(
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


addresses = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda o: "%d.%d.%d.%d" % o)


class TestChecksum:
    @given(st.binary(max_size=80))
    @example(b"")
    @example(b"\x00" * 20)
    @example(b"\x00" * 21)
    @example(b"\xff" * 20)
    @example(b"\xff" * 21)
    def test_matches_oracle(self, data):
        # RFC 1071 pads an odd-length input with one zero byte on the right
        assert gtp.ipv4_checksum(data) == checksum_oracle(
            data + b"\x00" * (len(data) % 2))

    @given(ihl=st.integers(5, 15), fields=st.binary(min_size=8, max_size=8),
           addrs=st.binary(min_size=8, max_size=8),
           options=st.binary(min_size=40, max_size=40),
           payload=st.binary(max_size=32),
           src=st.none() | addresses, dst=st.none() | addresses)
    def test_rewrite_touches_only_addresses_and_checksum(
            self, ihl, fields, addrs, options, payload, src, dst):
        # bytes 4-11 (id, fragment, TTL, protocol, checksum) are arbitrary,
        # so the incoming checksum is almost always wrong
        hl = ihl * 4
        total = hl + len(payload)
        packet = (bytes([0x40 | ihl, 0]) + struct.pack("!H", total) + fields
                  + addrs + options[:hl - 20] + payload)
        out = gtp.rewrite_ipv4(packet,
                               src=None if src is None else ip_int(src),
                               dst=None if dst is None else ip_int(dst))
        assert len(out) == len(packet)
        changed = {10, 11}
        if src is not None:
            changed |= {12, 13, 14, 15}
            assert out[12:16] == gtp.pack_ip(src)
        if dst is not None:
            changed |= {16, 17, 18, 19}
            assert out[16:20] == gtp.pack_ip(dst)
        assert all(out[i] == packet[i]
                   for i in range(len(packet)) if i not in changed)
        assert checksum_oracle(out[:hl]) == 0  # the header verifies

    @given(st.integers(0, 0xFFFF))
    def test_corrupt_checksum_repaired(self, corrupt):
        frame = bytearray(make_inner())
        good = bytes(frame[10:12])
        frame[10:12] = struct.pack("!H", corrupt)
        out = gtp.rewrite_ipv4(bytes(frame), dst=ip_int("10.200.0.5"))
        assert checksum_oracle(out[:20]) == 0
        # the rewrite to the original destination restores the original
        back = gtp.rewrite_ipv4(out, dst=ip_int("10.100.1.1"))
        assert back[10:12] == good


octets = st.integers(0, 255)
ports = st.integers(0, 0xFFFF)
malformed_addresses = st.one_of(
    # three or five parts
    st.lists(octets, min_size=3, max_size=3).map(
        lambda o: ".".join(map(str, o))),
    st.lists(octets, min_size=5, max_size=5).map(
        lambda o: ".".join(map(str, o))),
    # one octet out of range
    st.tuples(st.integers(0, 3), st.integers(256, 10_000) | st.integers(
        -10_000, -1), st.lists(octets, min_size=4, max_size=4)).map(
        lambda t: ".".join(str(t[1]) if i == t[0] else str(o)
                           for i, o in enumerate(t[2]))),
    # one part that is not a number
    st.tuples(st.integers(0, 3), st.sampled_from(["", "x", "1.5e3", "0x1"]),
              st.lists(octets, min_size=4, max_size=4)).map(
        lambda t: ".".join(t[1] if i == t[0] else str(o)
                           for i, o in enumerate(t[2]))))


def parse_error_oracle(data: bytes):
    """The DecodeError subclass parse_ipv4 raised before addresses became
    integers, from the documented check order: length, version, IHL, total
    length. None for a header it accepts."""
    if len(data) < 20:
        return gtp.TruncatedError
    if data[0] >> 4 != 4:
        return gtp.VersionError
    ihl = (data[0] & 0x0F) * 4
    total = int.from_bytes(data[2:4], "big")
    if ihl < 20 or total < ihl or total > len(data):
        return gtp.LengthError
    return None


class TestAddresses:
    @given(src=addresses, dst=addresses, proto=octets, sport=ports,
           dport=ports)
    def test_key_bytes_are_the_dotted_bytes(self, src, dst, proto, sport,
                                            dport):
        flow = FiveTuple.parse(src, dst, proto, sport, dport)
        assert flow.key_bytes() == (gtp.pack_ip(src) + gtp.pack_ip(dst)
                                    + struct.pack("!BHH", proto, sport, dport))

    @given(addresses)
    @example("0.0.0.0")
    @example("255.255.255.255")
    def test_dotted_int_dotted_round_trip(self, addr):
        n = ip_int(addr)
        assert 0 <= n <= 0xFFFFFFFF
        assert n.to_bytes(4, "big") == gtp.pack_ip(addr)
        assert gtp.ip_str(n) == addr

    def test_dotted_memo_is_bounded(self):
        assert gtp.ip_str.cache_info().maxsize is not None

    @pytest.mark.parametrize("n, addr", [(0, "0.0.0.0"),
                                         (0xFFFFFFFF, "255.255.255.255"),
                                         (0x0A000001, "10.0.0.1")])
    def test_known_dotted_forms(self, n, addr):
        assert gtp.ip_str(n) == addr
        assert gtp.ip_str(n) == addr        # a memo hit

    @given(st.integers(0, 0xFFFFFFFF))
    def test_int_dotted_int_round_trip(self, n):
        assert ip_int(gtp.ip_str(n)) == n

    @pytest.mark.parametrize("alias", ["010.1.0.1", " 10.1.0.1", "+10.1.0.1",
                                       "1_0.0.0.1", "\u0661\u0660.1.0.1",
                                       "10.1.0.1 ", "-0.1.0.1"])
    def test_only_the_written_spelling_parses(self, alias):
        # int() reads each of these as a valid octet; an address has one
        # spelling, the one ip_str writes, so equal addresses compare equal
        with pytest.raises(gtp.EncodeError):
            ip_int(alias)

    @pytest.mark.parametrize("addr", [5, 0x0A010001, None, b"10.1.0.1",
                                      bytearray(b"10.1.0.1"), 10.1,
                                      ["10", "1", "0", "1"]])
    def test_non_str_address_raises_encode_error(self, addr):
        # a config or topology catches ValueError, EncodeError's base
        with pytest.raises(gtp.EncodeError):
            gtp.pack_ip(addr)
        with pytest.raises(gtp.EncodeError):
            ip_int(addr)

    @given(malformed_addresses)
    def test_malformed_dotted_raises_at_the_edge(self, addr):
        with pytest.raises(gtp.EncodeError):
            ip_int(addr)
        with pytest.raises(gtp.EncodeError):
            FiveTuple.parse(addr, "10.100.1.1", 6, 1, 2)

    @given(st.one_of(
        st.binary(max_size=19),
        st.tuples(st.integers(0, 15), st.integers(0, 15),
                  st.integers(0, 0xFFFF), st.binary(min_size=16,
                                                    max_size=80)).map(
            lambda t: bytes([t[0] << 4 | t[1], 0])
            + t[2].to_bytes(2, "big") + t[3]),
        st.tuples(st.integers(5, 15), st.integers(0, 0xFFFF),
                  st.binary(min_size=16, max_size=80)).map(
            lambda t: bytes([0x40 | t[0], 0]) + t[1].to_bytes(2, "big")
            + t[2])))
    @example(b"\x45" + b"\x00" * 18)                   # truncated
    @example(b"\x65\x00\x00\x14" + b"\x00" * 16)        # version 6
    @example(b"\x44\x00\x00\x14" + b"\x00" * 16)        # IHL 16
    @example(b"\x45\x00\x00\x13" + b"\x00" * 16)        # total < IHL
    @example(b"\x45\x00\x00\x15" + b"\x00" * 16)        # total > length
    def test_parse_errors_keep_their_class(self, data):
        expected = parse_error_oracle(data)
        if expected is None:
            view = gtp.parse_ipv4(data)
            assert (view.src, view.dst) == (
                int.from_bytes(data[12:16], "big"),
                int.from_bytes(data[16:20], "big"))
            return
        with pytest.raises(gtp.DecodeError) as info:
            gtp.parse_ipv4(data)
        assert type(info.value) is expected


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
        wire = bytearray(encode_gtpu(*tunnel(
        "10.1.0.1", "10.2.0.1", 42, GtpMessageType.GPDU, make_inner())))
        for _ in range(2000):
            mutated = bytearray(wire)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                decode_gtpu(bytes(mutated))
            except gtp.DecodeError:
                pass


# The view-based decoders the codec had before it read frames in place
# (`Frame`, `parse_frame`), kept as references for the reader-based ones.
REF_MESSAGE_TYPES = {t.value: t for t in GtpMessageType}


def ref_decode_tunnel(data, ip):
    total = ip.header_len + len(ip.payload)
    tunnel = gtp.read_tunnel(data, ip.proto, ip.header_len, total)
    if tunnel is None:  # no GTP-U datagram: not UDP, or not to port 2152
        return gtp.MessageTypeError("not a GTP-U datagram")
    if isinstance(tunnel, gtp.DecodeError):
        return tunnel
    msg_type, teid, at = tunnel
    return GtpuPacket(ip.src, ip.dst, teid, REF_MESSAGE_TYPES[msg_type],
                      data[at:total])


def ref_decode_gtpu(data):
    tunnel = ref_decode_tunnel(data, gtp.parse_ipv4(data))
    if isinstance(tunnel, gtp.DecodeError):
        raise tunnel
    return tunnel


def ref_inner_five_tuple(inner):
    view = gtp.parse_ipv4(inner)
    return FiveTuple(view.src, view.dst, view.proto, *gtp.read_ports(
        view.payload, 0, len(view.payload), view.proto))


def ref_classify(data, direction):
    try:
        ip = gtp.parse_ipv4(data)
    except gtp.DecodeError:
        return PacketClass.PLAIN_IP
    tunnel = ref_decode_tunnel(data, ip)
    if ip.proto == gtp.PROTO_SCTP:
        return PacketClass.CONTROL_PLANE
    if isinstance(tunnel, gtp.DecodeError):
        return PacketClass.PLAIN_IP
    if tunnel.message_type is GtpMessageType.END_MARKER:
        return PacketClass.END_MARKER
    if direction is Direction.FROM_RAN:
        return PacketClass.UPSTREAM_GTP
    if direction is Direction.FROM_CORE:
        return PacketClass.DOWNSTREAM_GTP
    return PacketClass.PLAIN_IP


def outcome(fn, *args):
    """What `fn` returns, or the class of the DecodeError it raises."""
    try:
        return fn(*args)
    except gtp.DecodeError as exc:
        return type(exc)


def oracle_class(data: bytes, direction: Direction) -> PacketClass:
    """The class of a frame, from the check oracle alone."""
    failed = tunnel_check_oracle(data)
    if failed is not None and failed[0] == "ipv4":
        return PacketClass.PLAIN_IP
    if data[9] == 132:
        return PacketClass.CONTROL_PLANE
    if failed is not None:
        return PacketClass.PLAIN_IP
    if data[(data[0] & 0x0F) * 4 + 9] == 0xFE:
        return PacketClass.END_MARKER
    return {Direction.FROM_RAN: PacketClass.UPSTREAM_GTP,
            Direction.FROM_CORE: PacketClass.DOWNSTREAM_GTP}.get(
                direction, PacketClass.PLAIN_IP)


class TestReadTunnel:
    @settings(max_examples=300, deadline=None)
    @given(frame=frames())
    @example(frame=ipv4("10.200.0.5", "172.16.0.2", 6,
                        build_tcpish(6, 80, 5000, b"resp")))
    @example(frame=ipv4("172.16.0.2", "10.100.1.1", 17,
                        build_udp(5000, 53, b"q")))
    @example(frame=ipv4("1.2.3.4", "5.6.7.8", 17,
                        build_udp(2152, 2152, b"\x30")))
    @example(frame=ipv4("1.2.3.4", "5.6.7.8", 17, b"\x08\x68\x08"))
    def test_three_outcomes(self, frame):
        # None exactly for a frame that is no GTP-U datagram, the oracle's
        # error for any other failure, a tunnel for a frame it accepts; and
        # decode_gtpu and classify answer as the oracle says, with the
        # messages a frame that is no GTP-U datagram always had
        for direction in Direction:
            assert classify(frame, direction) is oracle_class(frame,
                                                              direction)
        failed = tunnel_check_oracle(frame)
        if failed is None:
            assert type(decode_gtpu(frame)) is GtpuPacket
        else:
            with pytest.raises(failed[1]) as info:
                decode_gtpu(frame)
            assert type(info.value) is failed[1]
        if failed is not None and failed[0] == "ipv4":
            return
        ihl, total, proto, _, _ = gtp.read_ipv4(frame)
        tunnel = gtp.read_tunnel(frame, proto, ihl, total)
        if failed is None:
            assert type(tunnel) is tuple and tunnel[2] == ihl + 16
        elif failed[0] == "not udp":
            assert tunnel is None
            assert str(info.value) == f"outer protocol {proto}, expected UDP"
        elif failed[0] == "udp port":
            assert tunnel is None
            port = int.from_bytes(frame[ihl + 2:ihl + 4], "big")
            assert str(info.value) == f"UDP port {port}, expected 2152"
        else:
            assert type(tunnel) is failed[1]


class TestReadersDifferential:
    @settings(max_examples=400, deadline=None)
    @given(frame=frames())
    def test_equals_view_based_decoders(self, frame):
        for direction in Direction:
            assert classify(frame, direction) is ref_classify(frame,
                                                              direction)
        pkt = outcome(decode_gtpu, frame)
        assert pkt == outcome(ref_decode_gtpu, frame)
        assert type(pkt) is type(outcome(ref_decode_gtpu, frame))
        for data in (frame,) + ((pkt.inner,) if type(pkt) is GtpuPacket
                                else ()):
            flow = outcome(inner_five_tuple, data)
            assert flow == outcome(ref_inner_five_tuple, data)
            assert type(flow) is type(outcome(ref_inner_five_tuple, data))
