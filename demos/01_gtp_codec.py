"""Walk through the tunnel codec: build, inspect, classify.

Run: python demos/01_gtp_codec.py
"""

from megw import control
from megw.gtp import (Direction, GtpMessageType, GtpuPacket, build_ipv4,
                      build_tcpish, classify, decode_gtpu, encode_gtpu,
                      inner_five_tuple, ip_int)

# A subscriber at 172.16.0.2 talks to the edge service VIP 10.100.1.1.
# The codec takes addresses as integers; ip_int converts dotted quads.
UE, VIP = ip_int("172.16.0.2"), ip_int("10.100.1.1")
ENB, SGW = ip_int("10.1.0.1"), ip_int("10.2.0.1")

# The base station wraps the inner packet in the S1 tunnel format:
# outer IPv4 + UDP (port 2152) + an 8-byte tunnel header + inner bytes.
inner = build_ipv4(UE, VIP, 6, build_tcpish(6, 5000, 80, b"GET /"))
pkt = GtpuPacket(outer_src=ENB, outer_dst=SGW,
                 teid=0x11223344, message_type=GtpMessageType.GPDU,
                 inner=inner)
wire = encode_gtpu(*pkt)

print("wire bytes:", wire.hex())
print("tunnel header:", wire[28:36].hex(),
      "(flags 30, type ff, length, teid)")

decoded = decode_gtpu(wire)
assert decoded == pkt
print("round trip ok, teid =", hex(decoded.teid))

flow = inner_five_tuple(decoded.inner)
print("inner flow:", control.dotted(flow))

# The pipeline classifies frames by protocol and arrival side.
print("from RAN :", classify(wire, Direction.FROM_RAN).value)
print("from core:", classify(wire, Direction.FROM_CORE).value)

# End markers close a tunnel during handover: message type 254, no payload.
marker = encode_gtpu(SGW, ENB, 0xC8, GtpMessageType.END_MARKER)
print("end-marker type byte:", marker[29], "classified:",
      classify(marker, Direction.FROM_CORE).value)

# Control-plane frames ride SCTP and are recognized by protocol number.
control = build_ipv4(SGW, ENB, 132, b"\x00" * 8)
print("SCTP frame:", classify(control, Direction.FROM_CORE).value)
