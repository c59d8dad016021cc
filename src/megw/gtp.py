"""GTPv1-U codec for the S1 user plane.

Encodes and decodes the outer IPv4 / UDP / GTPv1-U framing used between
eNB and SGW, extracts inner-packet 5-tuples, and classifies raw frames
into the handful of traffic classes the gateway pipeline cares about.

A frame of the common shape is read with one `struct` unpack, and every
other frame by the readers. `read_gpdu` reads an uplink G-PDU with no
IPv4 options that carries TCP or UDP, and `read_plain` a TCP or UDP
packet with no options that is not UDP to port 2152. Each answers None
for any other frame, and for a frame it takes, the fields the readers
give. The readers hold each header's checks once and unpack it in
place, at an offset, into integers: `read_ipv4`, `read_tunnel` (UDP and
GTP-U) and `read_ports`. The packet path and the harness nodes call
them directly, and `decode_gtpu`, `classify` and `inner_five_tuple` are
built straight from them. `read_tunnel` returns and never raises: None
for a frame that is no GTP-U datagram at all (not UDP, or UDP to another
port than 2152), so that a plain frame costs the packet path no error
object; the error of the first failed check for a UDP datagram cut short
of its header or a malformed one to port 2152; else the tunnel. Only
`decode_gtpu` turns None into the `MessageTypeError` it raises.
`parse_ipv4` is `read_ipv4`, kept under the name the per-layer benchmark
wraps. Only the 8-byte header with flags 0x30 is accepted: optional
sequence, N-PDU or extension fields fail the tunnel checks, so the frame
is plain-routed (ROADMAP, "Wire conformance"). `encode_gtpu` can rewrite
the inner packet's source as it encapsulates it (`inner_src`), so that
return traffic gets its VIP back in the same pass. Addresses are
integers; `ip_int` and `ip_str` convert.

All functions here are pure and operate on immutable byte strings; they
are safe to call from any number of concurrent contexts.
"""

from __future__ import annotations

import enum
import functools
import struct
from typing import NamedTuple

GTP_UDP_PORT = 2152
GTP_HEADER_LEN = 8
# version 1, protocol-type GTP, no extension/sequence/N-PDU option bits
GTP_FLAGS = 0x30
MSG_TYPE_GPDU = 0xFF
MSG_TYPE_END_MARKER = 0xFE

IPV4_MIN_HEADER = 20
UDP_HEADER_LEN = 8
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_SCTP = 132
TTL = 64            # every packet this codec builds starts with it

# 65535 (max IPv4 total length) - 20 (outer IPv4) - 8 (UDP) - 8 (GTP)
MAX_INNER_LEN = 65535 - IPV4_MIN_HEADER - UDP_HEADER_LEN - GTP_HEADER_LEN
_INNER_AT = UDP_HEADER_LEN + GTP_HEADER_LEN  # inner packet in a G-PDU's UDP
# version/IHL, total length, protocol, source, destination
_IPV4_FIELDS = struct.Struct("!BxH5xB2xII")
_IPV4_HEADER = struct.Struct("!BBHHHBBHII")
# UDP destination port and length; GTP-U flags, type, length and TEID
_TUNNEL = struct.Struct("!2xHH2xBBHI")
# the outer IPv4, UDP and GTP-U headers of an encoded frame
_OUTER = struct.Struct("!BBHHHBBHIIHHHHBBHI")
_PORTS = struct.Struct("!HH")
# an uplink G-PDU of the common shape, up to the inner ports: outer
# version/IHL, total length, protocol, destination; UDP destination port
# and length; GTP-U flags, type, length, TEID; inner version/IHL, total
# length, protocol, source, destination; source and destination port
_GPDU = struct.Struct("!BxH5xB6xI2xHH2xBBHIBxH5xB2xIIHH")
GPDU_INNER_AT = IPV4_MIN_HEADER + _INNER_AT  # where its inner packet starts
# an IPv4 header with no options and the ports behind it
_PLAIN = struct.Struct("!BxH5xB2xIIHH")
_pack_word16 = struct.Struct("!H").pack_into
_pack_word32 = struct.Struct("!I").pack_into
_FLOW_KEY = struct.Struct("!IIBHH")


class GtpMessageType(enum.Enum):
    GPDU = MSG_TYPE_GPDU
    END_MARKER = MSG_TYPE_END_MARKER


class Direction(enum.Enum):
    """Which side of the gateway a frame arrived on."""

    FROM_RAN = "ran"
    FROM_CORE = "core"
    FROM_CLUSTER = "cluster"


class PacketClass(enum.Enum):
    CONTROL_PLANE = "control-plane"
    UPSTREAM_GTP = "upstream-gtp"
    DOWNSTREAM_GTP = "downstream-gtp"
    END_MARKER = "end-marker"
    PLAIN_IP = "plain-ip"


class EncodeError(ValueError):
    """Input violates the wire format's preconditions."""


class DecodeError(ValueError):
    """Input bytes do not form a well-formed packet."""


class TruncatedError(DecodeError):
    """Fewer bytes than the headers require."""


class VersionError(DecodeError):
    """GTP version field is not 1 or IP version is not 4."""


class MessageTypeError(DecodeError):
    """GTP message type is neither G-PDU (255) nor end marker (254)."""


class LengthError(DecodeError):
    """A length field disagrees with the actual byte count."""


def pack_ip(addr: str) -> bytes:
    """Dotted-quad string to 4 network-order bytes. Only a str spelled as
    `ip_str` writes it is accepted (no sign, space, underscore, leading
    zero or non-ASCII digit), so that equal addresses are equal strings."""
    try:
        octets = bytes(int(p) for p in addr.split("."))
    except (AttributeError, TypeError, ValueError):  # not a str of octets
        octets = b""
    if len(octets) != 4 or "%d.%d.%d.%d" % tuple(octets) != addr:
        raise EncodeError(f"bad IPv4 address {addr!r}")
    return octets


def ip_int(addr: str) -> int:
    """Dotted-quad string to the integer the packet path uses."""
    return int.from_bytes(pack_ip(addr), "big")


@functools.lru_cache(maxsize=4096)
def ip_str(addr: int) -> str:
    """An integer IPv4 address as a dotted-quad string. Memoized: every
    forwarded frame names its destination dotted, and a gateway's traffic
    goes to a handful of DIPs, peers, eNBs and SGWs."""
    return "%d.%d.%d.%d" % (addr >> 24, addr >> 16 & 0xFF, addr >> 8 & 0xFF,
                            addr & 0xFF)


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 ones-complement header checksum, odd lengths zero-padded.

    The ones-complement sum of 16-bit words is the header, read as one
    big-endian integer, modulo 0xFFFF (2**16 is 1 mod 0xFFFF), except that
    a nonzero multiple of 0xFFFF sums to 0xFFFF, not 0 (RFC 1071).
    """
    n = int.from_bytes(header, "big")
    if len(header) % 2:
        n <<= 8
    r = n % 0xFFFF
    if r == 0 and n:
        r = 0xFFFF
    return ~r & 0xFFFF


class FiveTuple(NamedTuple):
    """Inner-packet connection identity. Ports are 0 for portless protocols."""

    src_ip: int
    dst_ip: int
    proto: int
    src_port: int
    dst_port: int

    @classmethod
    def parse(cls, src_ip: str, dst_ip: str, proto: int, src_port: int,
              dst_port: int) -> "FiveTuple":
        """The 5-tuple of two dotted-quad addresses."""
        return cls(ip_int(src_ip), ip_int(dst_ip), proto, src_port, dst_port)

    def key_bytes(self) -> bytes:
        """Canonical byte form, used as a hash key by the load balancers."""
        return _FLOW_KEY.pack(*self)


class GtpuPacket(NamedTuple):
    """One decoded GTPv1-U frame: outer addresses, TEID, type, inner bytes."""

    outer_src: int
    outer_dst: int
    teid: int
    message_type: GtpMessageType
    inner: bytes = b""


def build_ipv4(src: int, dst: int, proto: int, payload: bytes) -> bytes:
    """Assemble a minimal (no-options) IPv4 packet with a valid checksum."""
    total = IPV4_MIN_HEADER + len(payload)
    if total > 0xFFFF:
        raise EncodeError(f"IPv4 payload too large ({len(payload)} bytes)")
    head = _IPV4_HEADER.pack(0x45, 0, total, 0, 0, TTL, proto, 0, src, dst)
    csum = ipv4_checksum(head)
    return head[:10] + csum.to_bytes(2, "big") + head[12:] + payload


def build_udp(src_port: int, dst_port: int, payload: bytes) -> bytes:
    # checksum 0 is legal for UDP over IPv4 and keeps encoding deterministic
    return struct.pack("!HHHH", src_port, dst_port,
                       UDP_HEADER_LEN + len(payload), 0) + payload


def build_tcpish(proto: int, src_port: int, dst_port: int,
                 payload: bytes) -> bytes:
    """Test traffic's transport: a 4-byte port stub for TCP and UDP, none
    for any other protocol, then the opaque payload, which
    `tcpish_payload_at` finds again."""
    if proto not in (PROTO_TCP, PROTO_UDP):
        return payload
    return _PORTS.pack(src_port, dst_port) + payload


def tcpish_payload_at(proto: int, ihl: int) -> int:
    """Where the payload starts: past the header and any TCP/UDP stub."""
    return ihl + _PORTS.size if proto in (PROTO_TCP, PROTO_UDP) else ihl


def encode_gtpu(outer_src: int, outer_dst: int, teid: int,
                message_type: GtpMessageType, inner: bytes = b"",
                inner_src: int | None = None) -> bytes:
    """Encode to outer IPv4 + UDP (port 2152) + 8-byte GTPv1-U + inner:
    one `struct` pack of the 36 header bytes, the IPv4 checksum included.
    `encode_gtpu(*pkt)` is the inverse of `decode_gtpu`.

    The checksum is summed from the header's fields, as `ipv4_checksum`
    does from its bytes: 2**16 is 1 mod 0xFFFF, so each 32-bit address
    adds its value, and the header is never all zeros, so a sum that is
    a multiple of 0xFFFF reads 0xFFFF.

    With `inner_src`, the inner packet's IPv4 source is rewritten in the
    same pass and its header checksum recomputed over the IHL its first
    byte gives: the bytes of `encode_gtpu(..., rewrite_ipv4(inner,
    src=inner_src))`."""
    n = len(inner)
    if n > MAX_INNER_LEN:
        raise EncodeError(f"inner packet too large ({n} bytes)")
    total = _OUTER.size + n
    r = (0x4500 + total + (TTL << 8 | PROTO_UDP) + outer_src
         + outer_dst) % 0xFFFF or 0xFFFF
    # `_value_` is the member's value; `.value` reads it through a property
    try:
        head = _OUTER.pack(0x45, 0, total, 0, 0, TTL, PROTO_UDP, ~r & 0xFFFF,
                           outer_src, outer_dst, GTP_UDP_PORT, GTP_UDP_PORT,
                           _INNER_AT + n, 0, GTP_FLAGS, message_type._value_,
                           n, teid)
    except struct.error as exc:
        # an address or TEID outside 32 bits
        raise EncodeError(f"header field out of range: {exc}") from None
    if inner_src is None:
        return head + inner
    ihl = (inner[0] & 0x0F) * 4
    inner_head = bytearray(inner[:ihl])
    _pack_word32(inner_head, 12, inner_src)
    inner_head[10] = inner_head[11] = 0
    _pack_word16(inner_head, 10, ipv4_checksum(inner_head))
    return b"".join((head, inner_head, inner[ihl:]))


def read_ipv4(data: bytes, at: int = 0, end: int | None = None) -> tuple:
    """(IHL, total length, protocol, source, destination) of the IPv4
    header at `at` of a packet that may run to `end` (default: the end of
    `data`). Checks length, version, IHL, total; raises a DecodeError."""
    size = (len(data) if end is None else end) - at
    if size < IPV4_MIN_HEADER:
        raise TruncatedError(f"IPv4 header needs 20 bytes, got {size}")
    ver_ihl, total, proto, src, dst = _IPV4_FIELDS.unpack_from(data, at)
    if ver_ihl >> 4 != 4:
        raise VersionError(f"IP version {ver_ihl >> 4}, expected 4")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < IPV4_MIN_HEADER:
        raise LengthError(f"IPv4 IHL {ihl} below minimum")
    if total < ihl or total > size:
        raise LengthError(f"IPv4 total length {total} vs {size} bytes")
    return ihl, total, proto, src, dst


def read_ports(data: bytes, at: int, size: int, proto: int) -> tuple:
    """(source, destination) port of the `size` transport bytes at `at`:
    the first two words of TCP and UDP, (0, 0) for any other protocol."""
    if proto != PROTO_TCP and proto != PROTO_UDP:
        return 0, 0
    if size < 4:
        raise TruncatedError("transport header truncated")
    return _PORTS.unpack_from(data, at)


def read_tunnel(data: bytes, proto: int, ihl: int,
                total: int) -> tuple[int, int, int] | DecodeError | None:
    """(message type, TEID, inner offset) of the UDP and GTP-U headers
    behind an IPv4 header of `ihl` bytes, `total` long, carrying `proto`.
    None for a frame that is no GTP-U datagram: not UDP, or a whole UDP
    header to a port other than 2152. Otherwise, a UDP header cut short
    or a malformed datagram to port 2152, the error of the first failed
    check. Both are returned, not raised, and None builds no error at
    all, so that reading a plain frame costs nothing."""
    if proto != PROTO_UDP:
        return None
    size = total - ihl
    if size < UDP_HEADER_LEN:
        return TruncatedError("UDP header truncated")
    buf, at = data, ihl
    if size < _INNER_AT:
        # zero-pad a datagram too short for a GTP-U header, so that one
        # unpack reads it and the port and length checks still come first
        buf, at = data[ihl:total] + bytes(_INNER_AT - size), 0
    port, udp_len, flags, mtype, length, teid = _TUNNEL.unpack_from(buf, at)
    if port != GTP_UDP_PORT:
        return None
    if udp_len != size:
        return LengthError(f"UDP length {udp_len} vs {size} bytes")
    if size < _INNER_AT:
        return TruncatedError("GTP header truncated")
    if flags >> 5 != 1:
        return VersionError(f"GTP version {flags >> 5}, expected 1")
    if flags != GTP_FLAGS:
        return MessageTypeError(f"unsupported GTP flags {flags:#04x}")
    if mtype != MSG_TYPE_GPDU and mtype != MSG_TYPE_END_MARKER:
        return MessageTypeError(f"unsupported GTP message type {mtype}")
    if length != size - _INNER_AT:
        return LengthError(f"GTP length {length} vs {size - _INNER_AT} bytes")
    return mtype, teid, ihl + _INNER_AT


def read_gpdu(data: bytes) -> tuple | None:
    """(outer total length, outer destination, TEID, inner 5-tuple as a
    plain tuple) of an uplink G-PDU of the common shape, with one unpack:
    no IPv4 options, flags 0x30, a G-PDU, TCP or UDP inside; its inner
    packet starts at `GPDU_INNER_AT`. None for any other frame. Its checks
    are those of `read_ipv4`, `read_tunnel`, the inner `read_ipv4` and
    `read_ports` on this shape, so it answers what they answer."""
    size = len(data)
    if size < _GPDU.size:
        return None
    (ver_ihl, total, proto, dst, port, udp_len, flags, mtype, length, teid,
     inner_ver_ihl, inner_total, inner_proto, src, inner_dst, sport,
     dport) = _GPDU.unpack_from(data)
    if (ver_ihl != 0x45 or proto != PROTO_UDP or port != GTP_UDP_PORT
            or total > size or udp_len != total - IPV4_MIN_HEADER
            or flags != GTP_FLAGS or mtype != MSG_TYPE_GPDU
            or length != total - GPDU_INNER_AT or inner_ver_ihl != 0x45
            or (inner_proto != PROTO_TCP and inner_proto != PROTO_UDP)
            or not _PLAIN.size <= inner_total <= total - GPDU_INNER_AT):
        return None
    return total, dst, teid, (src, inner_dst, inner_proto, sport, dport)


def read_plain(data: bytes) -> tuple | None:
    """The 5-tuple, as a plain tuple, of a TCP or UDP packet with no IPv4
    options, with one unpack. None for any other frame, and for UDP to
    port 2152, which may be GTP-U (an end marker from the cluster side
    passes through as one). It answers what `read_ipv4` and `read_ports`
    answer."""
    if len(data) < _PLAIN.size:
        return None
    ver_ihl, total, proto, src, dst, sport, dport = _PLAIN.unpack_from(data)
    if (ver_ihl != 0x45 or not _PLAIN.size <= total <= len(data)
            or (proto != PROTO_TCP
                and (proto != PROTO_UDP or dport == GTP_UDP_PORT))):
        return None
    return src, dst, proto, sport, dport


# No module calls parse_ipv4: benchmarks/layers.py wraps the name, and its
# gtp.parse_ipv4.calls_per_pkt has read 0 since frames are read in place.
# ROADMAP item 1 deletes the name together with the wrapper.
parse_ipv4 = read_ipv4


def decode_gtpu(data: bytes) -> GtpuPacket:
    """Inverse of encode_gtpu. Raises a DecodeError subclass on bad input."""
    ihl, total, proto, src, dst = read_ipv4(data)
    tunnel = read_tunnel(data, proto, ihl, total)
    if tunnel is None:
        if proto != PROTO_UDP:
            raise MessageTypeError(f"outer protocol {proto}, expected UDP")
        port = _PORTS.unpack_from(data, ihl)[1]
        raise MessageTypeError(f"UDP port {port}, expected {GTP_UDP_PORT}")
    if type(tunnel) is not tuple:
        raise tunnel
    msg_type, teid, at = tunnel
    return GtpuPacket(src, dst, teid, GtpMessageType(msg_type),
                      data[at:total])


def inner_five_tuple(inner: bytes) -> FiveTuple:
    """Extract the 5-tuple from an inner IPv4 packet."""
    ihl, total, proto, src, dst = read_ipv4(inner)
    return FiveTuple(src, dst, proto,
                     *read_ports(inner, ihl, total - ihl, proto))


def classify(data: bytes, direction: Direction) -> PacketClass:
    """Map a raw frame to exactly one traffic class.

    Total: anything unparseable falls through to PLAIN_IP.
    """
    try:
        ihl, total, proto, _, _ = read_ipv4(data)
    except DecodeError:
        return PacketClass.PLAIN_IP
    if proto == PROTO_SCTP:
        return PacketClass.CONTROL_PLANE
    tunnel = read_tunnel(data, proto, ihl, total)
    if type(tunnel) is not tuple:
        return PacketClass.PLAIN_IP
    if tunnel[0] == MSG_TYPE_END_MARKER:
        return PacketClass.END_MARKER
    if direction is Direction.FROM_RAN:
        return PacketClass.UPSTREAM_GTP
    if direction is Direction.FROM_CORE:
        return PacketClass.DOWNSTREAM_GTP
    return PacketClass.PLAIN_IP


def rewrite_ipv4(data: bytes, src: int | None = None, dst: int | None = None,
                 at: int = 0, end: int | None = None) -> bytes:
    """The IPv4 packet at `at` of `data` up to `end` (default: the end of
    `data`, past the total length), with src and/or dst rewritten and the
    checksum fixed; `read_ipv4` must accept its header.

    The header checksum is a full recompute, so a corrupt incoming
    checksum is repaired, not carried through as an RFC 1624 incremental
    update would carry it. Transport checksums are left alone: the
    pipeline's UDP checksums are zero and its echo servers do not verify
    them.
    """
    out = bytearray(data[at:end])
    if src is not None:
        _pack_word32(out, 12, src)
    if dst is not None:
        _pack_word32(out, 16, dst)
    out[10] = out[11] = 0
    _pack_word16(out, 10, ipv4_checksum(out[:(out[0] & 0x0F) * 4]))
    return bytes(out)
