"""Control-message wire format: round trips, invariants, fuzz."""

import random
from dataclasses import replace

import pytest

from megw import s1ap
from megw.gtp import ip_int
from megw.s1ap import (BearerItem, MessageKind, S1apLiteMessage,
                       decode_message, encode_message)


def sample_message(kind=MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
                   bearers=None):
    if bearers is None:
        bearers = (BearerItem(5, upstream_teid=100,
                              transport_addr=ip_int("10.2.0.1")),)
    return S1apLiteMessage(kind=kind, mme_ue_id=17, enb_ue_id=3,
                           ue_ip=ip_int("172.16.0.2"),
                           enb_addr=ip_int("10.1.0.1"),
                           sgw_addr=ip_int("10.2.0.1"), bearers=tuple(bearers))


def random_message(rng):
    kind = rng.choice(list(MessageKind))
    n = rng.randrange(1, 5)
    bearers = tuple(
        BearerItem(bearer_id=bid,
                   upstream_teid=rng.getrandbits(32),
                   downstream_teid=rng.getrandbits(32),
                   transport_addr=ip_int(
                       f"10.{rng.randrange(256)}.0.{rng.randrange(256)}"))
        for bid in rng.sample(range(256), n))
    return S1apLiteMessage(kind=kind, mme_ue_id=rng.getrandbits(32),
                           enb_ue_id=rng.getrandbits(32),
                           ue_ip=ip_int(f"172.16.{rng.randrange(256)}."
                                        f"{rng.randrange(1, 255)}"),
                           enb_addr=ip_int(f"10.1.0.{rng.randrange(1, 255)}"),
                           sgw_addr=ip_int(f"10.2.0.{rng.randrange(1, 255)}"),
                           bearers=bearers)


def test_round_trip_single_bearer():
    msg = sample_message()
    assert decode_message(encode_message(msg)) == msg


def test_bearer_count_byte():
    msg = sample_message(kind=MessageKind.PATH_SWITCH_REQUEST,
                         bearers=(BearerItem(5, upstream_teid=1),
                                  BearerItem(6, upstream_teid=2)))
    wire = encode_message(msg)
    # count sits after the 2-byte length, kind, two u32 ids and three addrs
    assert wire[s1ap.HEADER_LEN - 1] == 2


def test_zero_bearers_rejected():
    msg = sample_message(bearers=())
    with pytest.raises(s1ap.S1apEncodeError):
        encode_message(msg)
    # on the wire: the fixed header alone, its count byte 0
    wire = bytearray(encode_message(sample_message())[:s1ap.HEADER_LEN])
    wire[:2] = (s1ap.HEADER_LEN - 2).to_bytes(2, "big")
    wire[-1] = 0
    with pytest.raises(s1ap.BearerListError, match="^zero bearers$"):
        decode_message(bytes(wire))


def test_duplicate_bearer_ids_rejected():
    msg = sample_message(bearers=(BearerItem(5), BearerItem(5)))
    with pytest.raises(s1ap.S1apEncodeError):
        encode_message(msg)
    # on the wire: the second bearer's id (13 bytes a bearer) made the first's
    wire = bytearray(encode_message(replace(msg, bearers=(
        BearerItem(5), BearerItem(6)))))
    wire[s1ap.HEADER_LEN + 13] = 5
    with pytest.raises(s1ap.BearerListError,
                       match=r"^duplicate bearer ids: \[5, 5\]$"):
        decode_message(bytes(wire))


def test_too_many_bearers_rejected():
    # 256 distinct ids, one more than the count byte holds
    msg = sample_message(bearers=[BearerItem(bid) for bid in range(256)])
    with pytest.raises(s1ap.S1apEncodeError, match="^too many bearers$"):
        encode_message(msg)


@pytest.mark.parametrize("field, value", [
    ("mme_ue_id", 1 << 32), ("enb_ue_id", -1), ("ue_ip", 1 << 32),
    ("sgw_addr", -1), ("bearer_id", 256), ("bearer_id", -1),
    ("upstream_teid", 1 << 32), ("downstream_teid", -1),
    ("transport_addr", 1 << 32)])
def test_field_out_of_range_rejected(field, value):
    # a value wider than its slot is an S1apEncodeError, not struct's error
    msg = sample_message()
    if hasattr(msg, field):
        msg = replace(msg, **{field: value})
    else:
        bearer = replace(msg.bearers[0], **{field: value})
        msg = replace(msg, bearers=(bearer,))
    with pytest.raises(s1ap.S1apEncodeError):
        encode_message(msg)


def test_unknown_kind_byte():
    wire = bytearray(encode_message(sample_message()))
    wire[2] = 0x09
    with pytest.raises(s1ap.UnknownKindError):
        decode_message(bytes(wire))


def test_truncation_detected():
    wire = encode_message(sample_message())
    for cut in (0, 1, 5, len(wire) - 1):
        with pytest.raises(s1ap.S1apDecodeError):
            decode_message(wire[:cut])


def test_trailing_bytes_detected():
    wire = encode_message(sample_message())
    with pytest.raises(s1ap.S1apDecodeError):
        decode_message(wire + b"\x00")


def test_random_round_trips():
    rng = random.Random(0x51A9)
    for _ in range(500):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg


def test_encoding_injective_on_sample():
    rng = random.Random(0x51AA)
    msgs = [random_message(rng) for _ in range(300)]
    wires = {}
    for m in msgs:
        w = encode_message(m)
        if w in wires:
            assert wires[w] == m
        wires[w] = m
    assert len(wires) == len({encode_message(m) for m in msgs})


def test_fuzz_never_crashes():
    rng = random.Random(0x51AB)
    for _ in range(2000):
        blob = rng.randbytes(rng.randrange(0, 80))
        try:
            decode_message(blob)
        except s1ap.S1apDecodeError:
            pass


def test_fuzz_mutated_valid():
    rng = random.Random(0x51AC)
    wire = bytearray(encode_message(sample_message()))
    for _ in range(2000):
        mutated = bytearray(wire)
        mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            decoded = decode_message(bytes(mutated))
            # decodable mutants must still satisfy the invariants
            assert decoded.bearers
        except s1ap.S1apDecodeError:
            pass
