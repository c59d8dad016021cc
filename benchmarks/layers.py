"""Per-layer metrics of the traced run: where the wrappers go and what is
computed from the spans they record.

Layers are the modules of `megw`. Root requests are named
`<phase>.<operation>` with phase `setup` or `run`; packet-path metrics
(steering, gtp) use `run` requests only, so the setup traffic that
attaches subscribers and opens flows does not dilute them. Control,
S1AP and harness metrics use both phases, since their work is mostly in
setup on one workload and in the timed phase on another.
"""

from __future__ import annotations

import statistics

from spans import NO_TAG, RAISED, Tracer, has_ancestor, self_times

GTP_FNS = ("classify", "decode_gtpu", "inner_five_tuple", "rewrite_ipv4",
           "encode_gtpu")
OUTCOMES = ("dip-rewrite", "stage1-handoff", "gtp-encap", "ip-route",
            "clone", "drop")
RULE_OPS = ("set_ue_silent", "reactivate_ue", "release_ue")
CONTROL_KINDS = ("INITIAL_CONTEXT_SETUP_REQUEST",
                 "INITIAL_CONTEXT_SETUP_RESPONSE", "PATH_SWITCH_REQUEST",
                 "PATH_SWITCH_ACKNOWLEDGE")
HARNESS_OPS = ("run_attach", "run_edge_request", "run_x2_handover",
               "inject_downstream")


def _names() -> list[tuple[str, str]]:
    out = [("gtp.parse_ipv4.calls_per_pkt", "calls/pkt")]
    out += [(f"gtp.{fn}.us", "us") for fn in GTP_FNS]
    out += [("gtp.share", "ratio"),
            ("steering.process_packet.self_us", "us")]
    out += [(f"steering.process_packet.self_us.{o}", "us") for o in OUTCOMES]
    out += [(f"steering.note_share.{o}", "ratio") for o in OUTCOMES]
    out += [("steering.rendezvous_select.calls_per_pkt", "calls/pkt"),
            ("steering.stage1_select.us", "us"),
            ("steering.affinity.hit_ratio", "ratio"),
            ("steering.rules.lookup_hit_ratio", "ratio"),
            ("steering.rules.install.us", "us")]
    for op in RULE_OPS:
        out += [(f"steering.rules.{op}.us", "us"),
                (f"steering.rules.{op}.touched_per_scanned", "ratio")]
    out += [("steering.rules.size", "count"),
            ("steering.affinity.size", "count")]
    out += [(f"control.on_control_message.us.{k}", "us")
            for k in CONTROL_KINDS]
    out += [("control.on_end_marker.us", "us"),
            ("control.on_flow_miss.us", "us"),
            ("control.contexts.size", "count"),
            ("control.log.entries", "count"),
            ("s1ap.decode_message.us", "us"),
            ("s1ap.encode_message.us", "us")]
    out += [(f"harness.{op}.self_us", "us") for op in HARNESS_OPS]
    out += [("harness.frames_per_handover", "frames"),
            ("harness.trace.events", "count"),
            ("sim.build_world.cold_s", "s"),
            ("sim.build_world.warm_us", "us"),
            ("sim.rendezvous_select.calls", "count"),
            ("sim.draw_moves.us", "us"),
            ("sim.apply_moves.us", "us"),
            ("sim.run_experiment.s", "s"),
            ("cli.self_s", "s"),
            ("trace.overhead", "ratio")]
    return out


# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER: list[tuple[str, str]] = _names()


# -- wrappers -----------------------------------------------------------------

def _outcome(args, action, _):
    from megw.steering import CloneToController, Emit, Multiple
    acts = action.actions if isinstance(action, Multiple) else (action,)
    if any(isinstance(a, CloneToController) for a in acts):
        return "clone"
    for a in acts:
        if isinstance(a, Emit):
            return a.note
    return "drop"


def _size(args):
    return len(args[0])


def _touched(args, touched, scanned):
    return (touched, scanned)


def _found(args, result, _):
    return "hit" if result is not None else "miss"


def _pinned(args, result, size_before):
    return "hit" if len(args[0]) == size_before else "miss"


def _kind(args, result, _):
    return args[1].kind.name


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up.

    `steering` imports the codec functions by name, so those wrappers go
    on `megw.steering`; the harness, the S1AP glue and the codec's own
    internal calls reach `megw.gtp` and `megw.s1ap` through the module.
    """
    from megw import control, gtp, harness, s1ap, sim, steering

    for fn in GTP_FNS:
        tracer.wrap(steering, fn, f"gtp.{fn}")
    for fn in ("parse_ipv4", "decode_gtpu", "inner_five_tuple",
               "encode_gtpu"):
        tracer.wrap(gtp, fn, f"gtp.{fn}")
    tracer.wrap(steering, "process_packet", "steering.process_packet",
                tag=_outcome)
    tracer.wrap(steering, "stage1_select", "steering.stage1_select")
    tracer.wrap(steering, "rendezvous_select", "steering.rendezvous_select")
    rules = steering.RuleStore
    tracer.wrap(rules, "lookup", "steering.rules.lookup", tag=_found)
    tracer.wrap(rules, "install", "steering.rules.install")
    for op in RULE_OPS:
        tracer.wrap(rules, op, f"steering.rules.{op}", tag=_touched,
                    pre=_size)
    aff = steering.DipAffinityTable
    tracer.wrap(aff, "get", "steering.affinity.get", tag=_found)
    tracer.wrap(aff, "get_or_assign", "steering.affinity.get_or_assign",
                tag=_pinned, pre=_size)

    proc = control.S1apProcessor
    tracer.wrap(proc, "on_control_message", "control.on_control_message",
                tag=_kind)
    tracer.wrap(proc, "on_end_marker", "control.on_end_marker")
    tracer.wrap(proc, "on_flow_miss", "control.on_flow_miss")
    tracer.wrap(s1ap, "decode_message", "s1ap.decode_message")
    tracer.wrap(s1ap, "encode_message", "s1ap.encode_message")

    for op in HARNESS_OPS:
        tracer.wrap(harness.Harness, op, f"harness.{op}")

    for fn in ("build_world", "draw_moves", "apply_moves", "run_experiment"):
        tracer.wrap(sim, fn, f"sim.{fn}")
    tracer.count(sim, "rendezvous_select", "sim.rendezvous_select")


# -- metrics ------------------------------------------------------------------

class _Spans:
    """Index of a finished trace by name and phase."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        n = len(tracer)
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        self.self = self_times(tracer.start, tracer.end, tracer.parent)
        names = tracer.names
        run_roots = {i for i in range(n) if tracer.parent[i] < 0
                     and names[tracer.name[i]].startswith("run.")}
        self.run = [tracer.rid[i] in run_roots for i in range(n)]
        self.by_name: dict[str, list[int]] = {}
        for i in range(n):
            self.by_name.setdefault(names[tracer.name[i]], []).append(i)

    def ids(self, name: str, run_only: bool = False) -> list[int]:
        got = self.by_name.get(name, [])
        return [i for i in got if self.run[i]] if run_only else got

    def tag(self, i: int):
        t = self.t.tag[i]
        return None if t == NO_TAG else self.t.tags[t]

    def under(self, ancestor: str) -> list[bool]:
        nid = self.t.name_id(ancestor)
        if nid is None:
            return [False] * len(self.t)
        return has_ancestor(self.t.parent, self.t.name, {nid})


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(tracer: Tracer, state: dict, overhead: float) -> dict[str, float]:
    """Every metric of PER_LAYER; 0 where the layer did not run.

    `state` holds end-of-run table sizes read by the workload:
    rules, affinity, contexts, log, trace_events.
    """
    s = _Spans(tracer)
    us = 1e6
    m: dict[str, float] = {}

    pp = s.ids("steering.process_packet", run_only=True)
    pp_time = sum(s.dur[i] for i in pp)
    under_pp = s.under("steering.process_packet")
    pp_id = tracer.name_id("steering.process_packet")

    parse = [i for i in s.ids("gtp.parse_ipv4", True) if under_pp[i]]
    m["gtp.parse_ipv4.calls_per_pkt"] = _ratio(len(parse), len(pp))
    gtp_ids = []
    for fn in GTP_FNS:
        ids = s.ids(f"gtp.{fn}", True)
        m[f"gtp.{fn}.us"] = _mean(s.dur[i] * us for i in ids)
    for name, ids in s.by_name.items():
        if name.startswith("gtp."):
            gtp_ids += [i for i in ids if s.run[i]
                        and tracer.name[tracer.parent[i]] == pp_id]
    m["gtp.share"] = _ratio(sum(s.dur[i] for i in gtp_ids), pp_time)

    m["steering.process_packet.self_us"] = _mean(s.self[i] * us for i in pp)
    for o in OUTCOMES:
        ids = [i for i in pp if s.tag(i) == o]
        m[f"steering.process_packet.self_us.{o}"] = _mean(
            s.self[i] * us for i in ids)
    for o in OUTCOMES:
        m[f"steering.note_share.{o}"] = _ratio(
            sum(1 for i in pp if s.tag(i) == o), len(pp))
    rs = [i for i in s.ids("steering.rendezvous_select", True) if under_pp[i]]
    m["steering.rendezvous_select.calls_per_pkt"] = _ratio(len(rs), len(pp))
    m["steering.stage1_select.us"] = _mean(
        s.dur[i] * us for i in s.ids("steering.stage1_select", True))
    aff = (s.ids("steering.affinity.get", True)
           + s.ids("steering.affinity.get_or_assign", True))
    m["steering.affinity.hit_ratio"] = _ratio(
        sum(1 for i in aff if s.tag(i) == "hit"), len(aff))
    look = s.ids("steering.rules.lookup", True)
    m["steering.rules.lookup_hit_ratio"] = _ratio(
        sum(1 for i in look if s.tag(i) == "hit"), len(look))
    m["steering.rules.install.us"] = _mean(
        s.dur[i] * us for i in s.ids("steering.rules.install", True))
    for op in RULE_OPS:
        ids = s.ids(f"steering.rules.{op}", True)
        m[f"steering.rules.{op}.us"] = _mean(s.dur[i] * us for i in ids)
        pairs = [s.tag(i) for i in ids if s.tag(i) != RAISED]
        m[f"steering.rules.{op}.touched_per_scanned"] = _ratio(
            sum(p[0] for p in pairs), sum(p[1] for p in pairs))
    m["steering.rules.size"] = state.get("rules", 0)
    m["steering.affinity.size"] = state.get("affinity", 0)

    ctl = s.ids("control.on_control_message")
    for k in CONTROL_KINDS:
        m[f"control.on_control_message.us.{k}"] = _mean(
            s.dur[i] * us for i in ctl if s.tag(i) == k)
    for fn in ("on_end_marker", "on_flow_miss"):
        m[f"control.{fn}.us"] = _mean(
            s.dur[i] * us for i in s.ids(f"control.{fn}"))
    m["control.contexts.size"] = state.get("contexts", 0)
    m["control.log.entries"] = state.get("log", 0)
    for fn in ("decode_message", "encode_message"):
        m[f"s1ap.{fn}.us"] = _mean(s.dur[i] * us for i in s.ids(f"s1ap.{fn}"))

    for op in HARNESS_OPS:
        m[f"harness.{op}.self_us"] = _mean(
            s.self[i] * us for i in s.ids(f"harness.{op}"))
    under_ho = s.under("harness.run_x2_handover")
    ho_frames = [i for i in s.ids("steering.process_packet") if under_ho[i]]
    m["harness.frames_per_handover"] = _ratio(
        len(ho_frames), len(s.ids("harness.run_x2_handover")))
    m["harness.trace.events"] = state.get("trace_events", 0)

    worlds = s.ids("sim.build_world")
    m["sim.build_world.cold_s"] = s.dur[worlds[0]] if worlds else 0.0
    m["sim.build_world.warm_us"] = _mean(s.dur[i] * us for i in worlds[1:])
    m["sim.rendezvous_select.calls"] = tracer.counts.get(
        "sim.rendezvous_select", 0)
    for fn in ("draw_moves", "apply_moves"):
        m[f"sim.{fn}.us"] = _mean(s.dur[i] * us for i in s.ids(f"sim.{fn}"))
    experiments = sum(s.dur[i] for i in s.ids("sim.run_experiment"))
    m["sim.run_experiment.s"] = experiments
    sweeps = s.ids("run.sweep")
    m["cli.self_s"] = (sum(s.dur[i] for i in sweeps) - experiments
                       if sweeps else 0.0)
    m["trace.overhead"] = overhead
    return m
