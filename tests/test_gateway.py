"""`Gateway.handle` against the loop it replaced in the fabric:
`process_packet`, each clone to the processor, each effect to the tables.
That loop is kept here, as the oracle, with what a frame caused as a list
of pairs; the gateway's `send` and `record` calls are turned into the
same pairs to compare."""

from hypothesis import given, settings, strategies as st

from megw import gtp, s1ap, steering
from megw.control import (InstallRule, MigrationNotice, ReactivateUe,
                          ReleaseUeRules, S1apProcessor, SilenceUe)
from megw.gateway import (CLONED, DROPPED, MIGRATION_NOTIFIED, REACTIVATED,
                          RULE_INSTALLED, SILENCED, Gateway)
from megw.gtp import Direction, GtpMessageType, ip_int
from megw.harness import build_topology, default_topology_config
from megw.s1ap import BearerItem, MessageKind, S1apLiteMessage
from megw.steering import (DipAffinityTable, Drop, Emit, EndMarkerSeen,
                           Multiple, RuleStore, S1apClone)

TOPOLOGY = build_topology(default_topology_config())
CFG = TOPOLOGY.steering_configs["mgw-a"]
ADDR = {node: spec.ip for node, spec in TOPOLOGY.nodes.items()}
SGW = ADDR["sgw"]
# two base stations of mgw-a, one of its region peer, one of the other
# region, and one outside the view
ENBS = tuple(ADDR[f"enb{i}"] for i in range(1, 5)) + (ip_int("10.1.0.9"),)
UES = (ip_int("172.16.0.2"), ip_int("172.16.0.3"))
VIPS = tuple(map(ip_int, TOPOLOGY.vips))
DIPS = (ADDR["dip-a1"], ADDR["dip-a2"])
TEIDS = (0x1000, 0x1001, 0x2000)
PORTS = (40000, 40001)
FORWARD = "Forward"     # the pairs' tag for a `send` call


class Oracle:
    """A gateway's tables and the fabric's loop over them as it was: each
    event it recorded, in order, with a forward as `_send`'s arguments."""

    def __init__(self):
        self.rules, self.affinity = RuleStore(), DipAffinityTable()
        self.processor = S1apProcessor(CFG.megw_id, TOPOLOGY.view)

    def handle(self, frame, ingress):
        out = []
        action = steering.process_packet(frame, ingress, CFG, self.rules,
                                         self.affinity)
        for act in (action.actions if isinstance(action, Multiple)
                    else (action,)):
            if isinstance(act, Emit):
                out.append((FORWARD, (ip_int(act.dst), act.data, act.note)))
            elif isinstance(act, Drop):
                out.append((DROPPED, {"reason": act.reason}))
            else:
                self._handle_clone(out, act.event)
        return out

    def _handle_clone(self, out, event):
        if isinstance(event, S1apClone):
            try:
                msg = s1ap.decode_message(event.payload)
            except s1ap.S1apDecodeError as exc:
                out.append((CLONED, {"kind": "s1ap", "error": str(exc)}))
                return
            out.append((CLONED, {"kind": "s1ap", "message": msg.kind.name,
                                 "ue_ip": msg.ue_ip}))
            effects = self.processor.on_control_message(msg)
        elif isinstance(event, EndMarkerSeen):
            out.append((CLONED, {"kind": "end-marker", "teid": event.teid}))
            effects = self.processor.on_end_marker(event.enb_addr,
                                                   event.teid)
        else:
            out.append((CLONED, {
                "kind": "flow-miss", "ue_ip": event.five_tuple.src_ip,
                "upstream_teid": event.upstream_teid}))
            effects = self.processor.on_flow_miss(event.five_tuple,
                                                  event.upstream_teid)
        self._apply_effects(out, effects)

    def _apply_effects(self, out, effects):
        for eff in effects:
            if isinstance(eff, InstallRule):
                self.rules.install(eff.rule)
                out.append((RULE_INSTALLED, {
                    "ue_ip": eff.rule.key.src_ip, "flow": eff.rule.key,
                    "downstream_teid": eff.rule.downstream_teid}))
            elif isinstance(eff, SilenceUe):
                n = self.rules.set_ue_silent(eff.ue_ip)
                out.append((SILENCED, {"ue_ip": eff.ue_ip, "rules": n}))
            elif isinstance(eff, ReactivateUe):
                n = self.rules.reactivate_ue(eff.ue_ip, dict(eff.teid_remap),
                                             eff.new_enb_addr)
                out.append((REACTIVATED, {"ue_ip": eff.ue_ip, "rules": n,
                                          "new_enb": eff.new_enb_addr}))
            elif isinstance(eff, MigrationNotice):
                out.append((MIGRATION_NOTIFIED, {
                    "ue_ip": eff.ue_ip, "old_mec": eff.old_mec,
                    "new_mec": eff.new_mec}))
            elif isinstance(eff, ReleaseUeRules):
                self.rules.release_ue(eff.ue_ip)


def signal(kind, ue, enb, bearers):
    """S1AP-lite `kind` about `ue` at `enb`, between `enb` and the EPC."""
    msg = S1apLiteMessage(kind=kind, mme_ue_id=1, enb_ue_id=1, ue_ip=ue,
                          enb_addr=enb, sgw_addr=SGW, bearers=tuple(bearers))
    return gtp.build_ipv4(enb, SGW, gtp.PROTO_SCTP, s1ap.encode_message(msg))


@st.composite
def bearers(draw, enb):
    ids = draw(st.lists(st.sampled_from((5, 6)), min_size=1, max_size=2,
                        unique=True))
    return [BearerItem(i, draw(st.sampled_from(TEIDS)),
                       draw(st.sampled_from((0,) + TEIDS)),
                       draw(st.sampled_from((0, SGW, enb)))) for i in ids]


@st.composite
def attaches(draw):
    """An initial context setup at one of mgw-a's base stations: the
    request from the core, then the response from the RAN."""
    ue, enb = draw(st.sampled_from(UES)), draw(st.sampled_from(ENBS[:2]))
    ids = draw(st.lists(st.sampled_from((5, 6)), min_size=1, max_size=2,
                        unique=True))
    up = [BearerItem(i, draw(st.sampled_from(TEIDS)), 0, SGW) for i in ids]
    down = [BearerItem(i, 0, draw(st.sampled_from(TEIDS)), enb) for i in ids]
    return [(signal(MessageKind.INITIAL_CONTEXT_SETUP_REQUEST, ue, enb, up),
             Direction.FROM_CORE),
            (signal(MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE, ue, enb,
                    down), Direction.FROM_RAN)]


def end_marker(enb, teid):
    return gtp.encode_gtpu(SGW, enb, teid, GtpMessageType.END_MARKER)


@st.composite
def handovers(draw):
    """A path switch request to any base station, then end markers at one
    of mgw-a's, each of these from the side it comes from."""
    ue, new_enb = draw(st.sampled_from(UES)), draw(st.sampled_from(ENBS))
    return [(signal(MessageKind.PATH_SWITCH_REQUEST, ue, new_enb,
                    draw(bearers(new_enb))), Direction.FROM_RAN)] + [
        (end_marker(draw(st.sampled_from(ENBS[:2])), teid),
         Direction.FROM_CORE)
        for teid in draw(st.lists(st.sampled_from(TEIDS), min_size=1,
                                  max_size=2))]


@st.composite
def frames(draw):
    """Uplink G-PDUs, return traffic, signalling, end markers or junk,
    mostly from the side each comes from."""
    kind = draw(st.sampled_from(("uplink", "uplink", "return", "return",
                                 "signal", "end-marker", "junk")))
    ue, enb = draw(st.sampled_from(UES)), draw(st.sampled_from(ENBS))
    port = draw(st.sampled_from(PORTS))
    if kind == "uplink":
        inner = gtp.build_ipv4(ue, draw(st.sampled_from(VIPS + DIPS)), 6,
                               gtp.build_tcpish(6, port, 80, b"up"))
        frame = gtp.encode_gtpu(enb, SGW, draw(st.sampled_from(TEIDS)),
                                GtpMessageType.GPDU, inner)
        side = Direction.FROM_RAN
    elif kind == "return":
        frame = gtp.build_ipv4(draw(st.sampled_from(DIPS + VIPS)), ue, 6,
                               gtp.build_tcpish(6, 80, port, b"down"))
        side = Direction.FROM_CLUSTER
    elif kind == "signal":
        frame = signal(draw(st.sampled_from(MessageKind)), ue, enb,
                       draw(bearers(enb)))
        side = Direction.FROM_RAN
    elif kind == "end-marker":
        frame = end_marker(enb, draw(st.sampled_from(TEIDS)))
        side = Direction.FROM_CORE
    else:
        frame = draw(st.binary(max_size=40) | st.binary(max_size=12).map(
            lambda junk: gtp.build_ipv4(ENBS[0], SGW, gtp.PROTO_SCTP, junk)))
        side = Direction.FROM_RAN
    return [(frame, draw(st.sampled_from((side, side) + tuple(Direction))))]


def outcome(gateway, frame, ingress):
    """What the frame caused, as the oracle's pairs, or its error; each of
    the gateway's calls must name it."""
    out = []

    def send(node, dst, data, note):
        assert node == CFG.megw_id
        out.append((FORWARD, (dst, data, note)))

    def record(node, action, detail):
        assert node == CFG.megw_id
        out.append((action, detail))

    try:
        if isinstance(gateway, Oracle):
            return gateway.handle(frame, ingress)
        assert gateway.handle(frame, ingress, send, record) is None
    except AssertionError:
        raise
    except Exception as exc:  # an error must be the oracle's too
        return type(exc), str(exc)
    return out


def tables(gateway):
    return ({ue: (dict(flows), flows.silent)
             for ue, flows in gateway.rules._by_ue.items()},
            dict(gateway.affinity._table), gateway.processor.dump_jsonl())


@settings(max_examples=300, deadline=None)
@given(setup=st.lists(attaches(), max_size=3),
       sent=st.lists(frames() | handovers(), max_size=16))
def test_handle_equals_the_fabric_loop(setup, sent):
    gateway, oracle = Gateway(CFG, TOPOLOGY.view), Oracle()
    for frame, ingress in [f for group in setup + sent for f in group]:
        got = outcome(gateway, frame, ingress)
        assert got == outcome(oracle, frame, ingress)
        if type(got) is list:
            assert all(type(detail[0]) is int
                       for action, detail in got if action == FORWARD)
    assert tables(gateway) == tables(oracle)
