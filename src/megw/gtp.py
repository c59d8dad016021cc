"""GTPv1-U codec for the S1 user plane.

Encodes and decodes the outer IPv4 / UDP / GTPv1-U framing used between
eNB and SGW, extracts inner-packet 5-tuples, and classifies raw frames
into the handful of traffic classes the gateway pipeline cares about.

One parse serves classification and decoding: `parse_frame` makes every
outer IPv4 / UDP / GTP-U check once, `classify` reads the `Frame` it
returns and `decode_gtpu` runs the same checks, so they agree by
construction. Only the 8-byte header with flags 0x30 is accepted: a
frame carrying the optional sequence, N-PDU or extension fields fails
the tunnel checks, so the gateway plain-routes it (ROADMAP, "Wire
conformance"). Views hold addresses as integers, read with one `struct`
unpack per header; `ip_int` and `ip_str` convert dotted quads at the edges.

All functions here are pure and operate on immutable byte strings; they
are safe to call from any number of concurrent contexts.
"""

from __future__ import annotations

import enum
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

# 65535 (max IPv4 total length) - 20 (outer IPv4) - 8 (UDP) - 8 (GTP)
MAX_INNER_LEN = 65535 - IPV4_MIN_HEADER - UDP_HEADER_LEN - GTP_HEADER_LEN
_INNER_AT = UDP_HEADER_LEN + GTP_HEADER_LEN  # inner packet in a G-PDU's UDP
# version/IHL, total length, protocol, source, destination
_IPV4_FIELDS = struct.Struct("!BxH5xB2xII")
_IPV4_HEADER = struct.Struct("!BBHHHBBHII")
_GTP = struct.Struct("!BBHI")
_PORTS = struct.Struct("!HH")
_FLOW_KEY = struct.Struct("!IIBHH")


class GtpMessageType(enum.Enum):
    GPDU = MSG_TYPE_GPDU
    END_MARKER = MSG_TYPE_END_MARKER


_MESSAGE_TYPES = {t.value: t for t in GtpMessageType}


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
    """Dotted-quad string to 4 network-order bytes."""
    parts = addr.split(".")
    if len(parts) != 4:
        raise EncodeError(f"bad IPv4 address {addr!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError:
        raise EncodeError(f"bad IPv4 address {addr!r}") from None
    if any(o < 0 or o > 255 for o in octets):
        raise EncodeError(f"bad IPv4 address {addr!r}")
    return bytes(octets)


def ip_int(addr: str) -> int:
    """Dotted-quad string to the integer the packet path uses."""
    return int.from_bytes(pack_ip(addr), "big")


def ip_str(addr: int) -> str:
    """An integer IPv4 address as a dotted-quad string."""
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

    def reversed(self) -> "FiveTuple":
        return FiveTuple(self.dst_ip, self.src_ip, self.proto,
                         self.dst_port, self.src_port)

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


def build_ipv4(src: int, dst: int, proto: int, payload: bytes,
               ttl: int = 64) -> bytes:
    """Assemble a minimal (no-options) IPv4 packet with a valid checksum."""
    total = IPV4_MIN_HEADER + len(payload)
    if total > 0xFFFF:
        raise EncodeError(f"IPv4 payload too large ({len(payload)} bytes)")
    head = _IPV4_HEADER.pack(0x45, 0, total, 0, 0, ttl, proto, 0, src, dst)
    csum = ipv4_checksum(head)
    return head[:10] + csum.to_bytes(2, "big") + head[12:] + payload


def build_udp(src_port: int, dst_port: int, payload: bytes) -> bytes:
    # checksum 0 is legal for UDP over IPv4 and keeps encoding deterministic
    return struct.pack("!HHHH", src_port, dst_port,
                       UDP_HEADER_LEN + len(payload), 0) + payload


def build_tcpish(proto: int, src_port: int, dst_port: int,
                 payload: bytes) -> bytes:
    """Minimal 4-byte port stub for TCP-like transports in test traffic.

    Only the port words are meaningful to the pipeline; everything after
    them is opaque payload.
    """
    return _PORTS.pack(src_port, dst_port) + payload


def encode_gtpu(pkt: GtpuPacket) -> bytes:
    """Encode to outer IPv4 + UDP (port 2152) + 8-byte GTPv1-U + inner."""
    if len(pkt.inner) > MAX_INNER_LEN:
        raise EncodeError(f"inner packet too large ({len(pkt.inner)} bytes)")
    if not 0 <= pkt.teid <= 0xFFFFFFFF:
        raise EncodeError(f"TEID out of range: {pkt.teid:#x}")
    gtp = _GTP.pack(GTP_FLAGS, pkt.message_type.value, len(pkt.inner),
                    pkt.teid) + pkt.inner
    udp = build_udp(GTP_UDP_PORT, GTP_UDP_PORT, gtp)
    return build_ipv4(pkt.outer_src, pkt.outer_dst, PROTO_UDP, udp)


class Ipv4View(NamedTuple):
    """Parsed IPv4 header fields, the transport payload and the packet."""

    src: int
    dst: int
    proto: int
    header_len: int
    payload: bytes
    packet: bytes

    def five_tuple(self) -> FiveTuple:
        """TCP/UDP ports come from the first transport words; other
        protocols report ports (0, 0)."""
        if self.proto == PROTO_TCP or self.proto == PROTO_UDP:
            if len(self.payload) < 4:
                raise TruncatedError("transport header truncated")
            return FiveTuple(self.src, self.dst, self.proto,
                             *_PORTS.unpack_from(self.payload))
        return FiveTuple(self.src, self.dst, self.proto, 0, 0)


def parse_ipv4(data: bytes) -> Ipv4View:
    if len(data) < IPV4_MIN_HEADER:
        raise TruncatedError(f"IPv4 header needs 20 bytes, got {len(data)}")
    ver_ihl, total, proto, src, dst = _IPV4_FIELDS.unpack_from(data)
    if ver_ihl >> 4 != 4:
        raise VersionError(f"IP version {ver_ihl >> 4}, expected 4")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < IPV4_MIN_HEADER:
        raise LengthError(f"IPv4 IHL {ihl} below minimum")
    if total < ihl or total > len(data):
        raise LengthError(f"IPv4 total length {total} vs {len(data)} bytes")
    return Ipv4View(src, dst, proto, ihl, data[ihl:total], data)


class Frame(NamedTuple):
    """One parse of a raw frame: the outer IPv4 view and, for a well-formed
    GTP-U frame, the decoded tunnel packet (None for any other frame)."""

    ip: Ipv4View
    tunnel: GtpuPacket | None

    def packet_class(self, direction: Direction) -> PacketClass:
        if self.ip.proto == PROTO_SCTP:
            return PacketClass.CONTROL_PLANE
        if self.tunnel is None:
            return PacketClass.PLAIN_IP
        if self.tunnel.message_type is GtpMessageType.END_MARKER:
            return PacketClass.END_MARKER
        if direction is Direction.FROM_RAN:
            return PacketClass.UPSTREAM_GTP
        if direction is Direction.FROM_CORE:
            return PacketClass.DOWNSTREAM_GTP
        return PacketClass.PLAIN_IP


def parse_frame(data: bytes) -> Frame:
    """Parse the outer IPv4 header, then UDP and GTP-U when present.

    Raises a DecodeError subclass only when the outer IPv4 header itself
    is malformed; a frame that is not well-formed GTP-U comes back with
    `tunnel` None.
    """
    ip = parse_ipv4(data)
    tunnel = _decode_tunnel(ip)
    return Frame(ip, None if isinstance(tunnel, DecodeError) else tunnel)


def _decode_tunnel(ip: Ipv4View) -> GtpuPacket | DecodeError:
    """The GTP-U packet, or the error of the first check it fails: returned,
    not raised, so that parsing a plain frame costs no exception."""
    if ip.proto != PROTO_UDP:
        return MessageTypeError(f"outer protocol {ip.proto}, expected UDP")
    udp = ip.payload
    if len(udp) < UDP_HEADER_LEN:
        return TruncatedError("UDP header truncated")
    dst_port, udp_len = _PORTS.unpack_from(udp, 2)
    if dst_port != GTP_UDP_PORT:
        return MessageTypeError(f"UDP port {dst_port}, expected {GTP_UDP_PORT}")
    if udp_len != len(udp):
        return LengthError(f"UDP length {udp_len} vs {len(udp)} bytes")
    if len(udp) < _INNER_AT:
        return TruncatedError("GTP header truncated")
    flags, msg_type, length, teid = _GTP.unpack_from(udp, UDP_HEADER_LEN)
    if flags >> 5 != 1:
        return VersionError(f"GTP version {flags >> 5}, expected 1")
    if flags != GTP_FLAGS:
        return MessageTypeError(f"unsupported GTP flags {flags:#04x}")
    mt = _MESSAGE_TYPES.get(msg_type)
    if mt is None:
        return MessageTypeError(f"unsupported GTP message type {msg_type}")
    if length != len(udp) - _INNER_AT:
        return LengthError(
            f"GTP length {length} vs {len(udp) - _INNER_AT} payload bytes")
    return GtpuPacket(ip.src, ip.dst, teid, mt, udp[_INNER_AT:])


def decode_gtpu(data: bytes) -> GtpuPacket:
    """Inverse of encode_gtpu. Raises a DecodeError subclass on bad input."""
    tunnel = _decode_tunnel(parse_ipv4(data))
    if isinstance(tunnel, DecodeError):
        raise tunnel
    return tunnel


def inner_five_tuple(inner: bytes) -> FiveTuple:
    """Extract the 5-tuple from an inner IPv4 packet."""
    return parse_ipv4(inner).five_tuple()


def classify(data: bytes, direction: Direction) -> PacketClass:
    """Map a raw frame to exactly one traffic class.

    Total: anything unparseable falls through to PLAIN_IP.
    """
    try:
        frame = parse_frame(data)
    except DecodeError:
        return PacketClass.PLAIN_IP
    return frame.packet_class(direction)


def rewrite_ipv4(ip: Ipv4View, src: int | None = None,
                 dst: int | None = None) -> bytes:
    """Return a copy with src and/or dst rewritten and the checksum fixed.

    The header checksum is a full recompute, so a corrupt incoming
    checksum is repaired, not carried through as an RFC 1624 incremental
    update would carry it. Transport checksums are left alone: the
    pipeline's UDP checksums are zero and its echo servers do not verify
    them.
    """
    head = bytearray(ip.packet[:ip.header_len])
    if src is not None:
        head[12:16] = src.to_bytes(4, "big")
    if dst is not None:
        head[16:20] = dst.to_bytes(4, "big")
    head[10:12] = b"\x00\x00"
    head[10:12] = ipv4_checksum(head).to_bytes(2, "big")
    return bytes(head) + ip.packet[ip.header_len:]
