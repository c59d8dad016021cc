"""Frame builders and decoders written from the wire formats alone.

The benchmark builds its inputs and checks the gateway's outputs with this
module rather than with `megw.gtp` / `megw.s1ap`, so a codec defect cannot
hide itself by agreeing with its own encoder, and building inputs records
no span in a traced run.

Formats: IPv4 without options (RFC 791), UDP with checksum 0, GTPv1-U with
flags 0x30 on port 2152 (3GPP TS 29.281), and the S1AP-lite TLV described
in `megw/s1ap.py`, carried directly in IPv4 protocol 132.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

GTP_PORT = 2152
GPDU = 0xFF
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_SCTP = 132

_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_GTP = struct.Struct("!BBHI")
_S1AP_FIXED = struct.Struct("!BII4s4s4sB")
_S1AP_BEARER = struct.Struct("!BII4s")


def ip4(addr: str) -> bytes:
    return bytes(int(part) for part in addr.split("."))


def dotted(raw: bytes) -> str:
    return "%d.%d.%d.%d" % (raw[0], raw[1], raw[2], raw[3])


def _checksum(header: bytes) -> int:
    total = sum(struct.unpack("!%dH" % (len(header) // 2), header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ipv4(src: str, dst: str, proto: int, payload: bytes) -> bytes:
    head = _IPV4.pack(0x45, 0, 20 + len(payload), 0, 0, 64, proto, 0,
                      ip4(src), ip4(dst))
    csum = _checksum(head)
    return head[:10] + struct.pack("!H", csum) + head[12:] + payload


def transport(sport: int, dport: int, body: bytes) -> bytes:
    """The 4-byte port words the pipeline reads, then opaque payload."""
    return struct.pack("!HH", sport, dport) + body


def gtpu(outer_src: str, outer_dst: str, teid: int, inner: bytes) -> bytes:
    """A G-PDU carrying `inner` from outer_src to outer_dst."""
    gtp = _GTP.pack(0x30, GPDU, len(inner), teid) + inner
    udp = struct.pack("!HHHH", GTP_PORT, GTP_PORT, 8 + len(gtp), 0) + gtp
    return ipv4(outer_src, outer_dst, PROTO_UDP, udp)


def s1ap_frame(src: str, dst: str, kind: int, ue_num: int, ue_ip: str,
               enb_addr: str, sgw_addr: str,
               bearers: list[tuple[int, int, int, str]]) -> bytes:
    """IPv4/SCTP frame holding one S1AP-lite message.

    bearers: (bearer_id, upstream_teid, downstream_teid, transport_addr).
    """
    body = _S1AP_FIXED.pack(kind, ue_num, ue_num, ip4(ue_ip), ip4(enb_addr),
                            ip4(sgw_addr), len(bearers))
    for bid, up, down, addr in bearers:
        body += _S1AP_BEARER.pack(bid, up, down, ip4(addr))
    return ipv4(src, dst, PROTO_SCTP, struct.pack("!H", len(body)) + body)


@dataclass(frozen=True)
class Inner:
    """Fields of an IPv4 packet with 4 port bytes, as the oracle sees them."""

    src: str
    dst: str
    proto: int
    sport: int
    dport: int
    body: bytes


class WireError(ValueError):
    pass


def parse_inner(data: bytes) -> Inner:
    if len(data) < 24 or data[0] != 0x45:
        raise WireError("not an option-less IPv4 packet with ports")
    total = struct.unpack_from("!H", data, 2)[0]
    if total != len(data):
        raise WireError(f"IPv4 total length {total} vs {len(data)} bytes")
    if _checksum(data[:20]) != 0:
        raise WireError("bad IPv4 header checksum")
    sport, dport = struct.unpack_from("!HH", data, 20)
    return Inner(dotted(data[12:16]), dotted(data[16:20]), data[9], sport,
                 dport, data[24:])


@dataclass(frozen=True)
class Tunneled:
    outer_src: str
    outer_dst: str
    teid: int
    msg_type: int
    inner: bytes


def parse_gtpu(frame: bytes) -> Tunneled:
    if len(frame) < 36 or frame[0] != 0x45 or frame[9] != PROTO_UDP:
        raise WireError("not IPv4/UDP")
    if struct.unpack_from("!H", frame, 2)[0] != len(frame):
        raise WireError("outer IPv4 length mismatch")
    if _checksum(frame[:20]) != 0:
        raise WireError("bad outer IPv4 header checksum")
    dport, udp_len = struct.unpack_from("!HH", frame, 22)
    if dport != GTP_PORT or udp_len != len(frame) - 20:
        raise WireError("not GTP-U on port 2152")
    flags, msg_type, length, teid = _GTP.unpack_from(frame, 28)
    if flags != 0x30 or length != len(frame) - 36:
        raise WireError("bad GTP-U header")
    return Tunneled(dotted(frame[12:16]), dotted(frame[16:20]), teid,
                    msg_type, frame[36:])
