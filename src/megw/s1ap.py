"""Compact wire format for the four control messages the gateway consumes.

Real LTE signalling is ASN.1-PER inside SCTP; this module replaces it with
a small deterministic TLV so the control-plane processor and the test
fabric can exchange the same information without an ASN.1 stack.

Layout (all integers big-endian):

    u16  body length (everything after these two bytes)
    u8   kind
    u32  mme_ue_id
    u32  enb_ue_id
    4B   ue_ip
    4B   enb_addr
    4B   sgw_addr
    u8   bearer count (>= 1)
    per bearer (13 bytes):
        u8   bearer_id
        u32  upstream_teid    (0 when the message does not carry it)
        u32  downstream_teid  (0 when the message does not carry it)
        4B   transport_addr

Setup/path-switch requests populate upstream TEIDs, the setup response
populates downstream TEIDs, and the path-switch acknowledgement carries
the full pair so a gateway that saw none of the earlier signalling can
still reconstruct complete tunnel state from the one message it observes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

_FIXED = struct.Struct("!IIIIIB")
_BEARER = struct.Struct("!BIII")
HEADER_LEN = 2 + 1 + _FIXED.size


class MessageKind(enum.Enum):
    INITIAL_CONTEXT_SETUP_REQUEST = 1
    INITIAL_CONTEXT_SETUP_RESPONSE = 2
    PATH_SWITCH_REQUEST = 3
    PATH_SWITCH_ACKNOWLEDGE = 4


class S1apEncodeError(ValueError):
    pass


class S1apDecodeError(ValueError):
    pass


class UnknownKindError(S1apDecodeError):
    pass


class TruncatedMessageError(S1apDecodeError):
    pass


class BearerListError(S1apDecodeError):
    """Zero bearers or a duplicated bearer id."""


@dataclass(frozen=True)
class BearerItem:
    bearer_id: int
    upstream_teid: int = 0
    downstream_teid: int = 0
    transport_addr: int = 0


@dataclass(frozen=True)
class S1apLiteMessage:
    kind: MessageKind
    mme_ue_id: int
    enb_ue_id: int
    ue_ip: int
    enb_addr: int
    sgw_addr: int
    bearers: tuple[BearerItem, ...]


def encode_message(msg: S1apLiteMessage) -> bytes:
    if not msg.bearers:
        raise S1apEncodeError("message must carry at least one bearer")
    ids = [b.bearer_id for b in msg.bearers]
    if len(set(ids)) != len(ids):
        raise S1apEncodeError(f"duplicate bearer ids: {ids}")
    if len(msg.bearers) > 255:
        raise S1apEncodeError("too many bearers")
    body = bytes([msg.kind.value])
    try:
        body += _FIXED.pack(msg.mme_ue_id, msg.enb_ue_id, msg.ue_ip,
                            msg.enb_addr, msg.sgw_addr, len(msg.bearers))
        for b in msg.bearers:
            body += _BEARER.pack(b.bearer_id, b.upstream_teid,
                                 b.downstream_teid, b.transport_addr)
    except struct.error as exc:
        # an id, address or TEID wider than its slot
        raise S1apEncodeError(f"field out of range: {exc}") from None
    return struct.pack("!H", len(body)) + body


def decode_message(data: bytes) -> S1apLiteMessage:
    if len(data) < HEADER_LEN:
        raise TruncatedMessageError(f"{len(data)} bytes is below header size")
    (body_len,) = struct.unpack("!H", data[:2])
    if body_len != len(data) - 2:
        raise TruncatedMessageError(
            f"length prefix {body_len} vs {len(data) - 2} body bytes")
    kind_byte = data[2]
    try:
        kind = MessageKind(kind_byte)
    except ValueError:
        raise UnknownKindError(f"unknown message kind {kind_byte:#04x}") from None
    mme_id, enb_id, ue_ip, enb_addr, sgw_addr, count = _FIXED.unpack_from(data, 3)
    if count == 0:
        raise BearerListError("zero bearers")
    offset = HEADER_LEN
    expected = offset + count * _BEARER.size
    if len(data) != expected:
        raise TruncatedMessageError(
            f"{count} bearers need {expected} bytes, got {len(data)}")
    bearers = []
    for _ in range(count):
        bid, up, down, addr = _BEARER.unpack_from(data, offset)
        bearers.append(BearerItem(bid, up, down, addr))
        offset += _BEARER.size
    ids = [b.bearer_id for b in bearers]
    if len(set(ids)) != len(ids):
        raise BearerListError(f"duplicate bearer ids: {ids}")
    return S1apLiteMessage(kind=kind, mme_ue_id=mme_id, enb_ue_id=enb_id,
                           ue_ip=ue_ip, enb_addr=enb_addr, sgw_addr=sgw_addr,
                           bearers=tuple(bearers))
