"""Weighted rendezvous (highest-random-weight) hashing: the one kernel.

Both gateway stages and the simulator pick through it: stage I a
subscriber's gateway (keyed by `stage1_key` of its address), stage II an
edge connection's service instance, and `sim.stage1_table` each user's
MEC in each region. Its one state is a bounded cache of hashed ids.
"""

import functools
import hashlib
import math
import struct
from typing import Sequence


class SelectError(ValueError):
    """No candidates to select from."""


def rendezvous_pick(keys: Sequence[bytes],
                    candidates: Sequence[tuple[str, float]]) -> list[int]:
    """Index of the highest-scoring candidate for each key, in key order.

    Weighted HRW: a candidate's score is -weight / ln(u), u drawn from the
    blake2b hash of its length-prefixed id and the key, mapped into the
    open interval (0, 1). So every score is a positive finite float and a
    candidate wins with probability proportional to its weight. The first
    candidate wins a tie. Each key extends a copy of the id's hash state.
    """
    digest_format = f">{len(keys)}Q"   # struct caches the compiled format
    log = math.log
    rows = []
    for weight, fresh in _prefixes(tuple(candidates)):  # a tuple: no copy
        digests = []
        for key in keys:
            h = fresh()
            h.update(key)
            digests.append(h.digest())
        rows.append([-weight / log((x + 0.5) / 2.0 ** 64)
                     for x in struct.unpack(digest_format,
                                            b"".join(digests))])
    return [scores.index(max(scores)) for scores in zip(*rows)]


@functools.lru_cache(maxsize=256)
def _prefixes(candidates: tuple[tuple[str, float], ...]) -> tuple:
    """(weight, copy of the hashed length-prefixed id) per candidate;
    validates on every call, since a raised SelectError is not cached."""
    if not candidates:
        raise SelectError("empty candidate list")
    out = []
    for cand_id, weight in candidates:
        if not 0 < weight < math.inf:
            raise SelectError(f"weight for {cand_id!r} must be in (0, inf)")
        ident = cand_id.encode()
        out.append((weight, hashlib.blake2b(
            struct.pack("!I", len(ident)) + ident, digest_size=8).copy))
    return tuple(out)


def rendezvous_select(key: bytes,
                      candidates: Sequence[tuple[str, float]]) -> str:
    """Pick the highest-scoring candidate for this key.

    Deterministic in (key, candidate ids, weights); removing a losing
    candidate never changes the winner for a key.
    """
    return candidates[rendezvous_pick((key,), candidates)[0]][0]


def stage1_key(ue_ip: int) -> bytes:
    """Stage I's hash key for a subscriber: its address in network order."""
    return ue_ip.to_bytes(4, "big")
