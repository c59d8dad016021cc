"""CLI surface: subcommands, exit codes, output stability."""

import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from megw import cli, gtp, harness, sim
from megw.cli import main
from megw.gtp import GtpMessageType, encode_gtpu, ip_int


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


END_MARKER_HEX = encode_gtpu(
    ip_int("10.2.0.1"), ip_int("10.1.0.1"), 0xC8, GtpMessageType.END_MARKER,
    b"").hex()


class TestCodec:
    def test_decode_end_marker(self, capsys):
        code, out, err = run(capsys, "codec", "decode", END_MARKER_HEX)
        assert code == 0
        assert "message_type=EndMarker" in out
        assert "teid=0x000000c8" in out

    def test_module_entry_point(self, capsys, monkeypatch):
        # `python -m megw.cli` exits with main's status and prints what
        # main prints; then the same entry point in this process, where a
        # line tracer (tools/line_report.py) sees `sys.exit(main())` run
        code, out, _ = run(capsys, "codec", "decode", END_MARKER_HEX)
        assert code == 0
        src_dir = os.path.dirname(os.path.dirname(gtp.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "megw.cli", "codec", "decode",
             END_MARKER_HEX], env=dict(os.environ, PYTHONPATH=src_dir),
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, out)
        monkeypatch.delitem(sys.modules, "megw.cli")
        monkeypatch.setattr(sys, "argv",
                            ["megw", "codec", "decode", END_MARKER_HEX])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("megw.cli", run_name="__main__")
        assert info.value.code == code
        assert capsys.readouterr().out == out

    def test_decode_gpdu_flow(self, capsys):
        inner = gtp.build_ipv4(ip_int("172.16.0.2"), ip_int("10.100.1.1"), 6,
                               gtp.build_tcpish(6, 5000, 80, b"x"))
        wire = encode_gtpu(ip_int("10.1.0.1"), ip_int("10.2.0.1"),
                           7, GtpMessageType.GPDU, inner).hex()
        code, out, _ = run(capsys, "codec", "decode", wire)
        assert code == 0
        assert "inner_flow=172.16.0.2:5000 -> 10.100.1.1:80 proto=6" in out

    def test_encode_round_trip(self, capsys):
        doc = json.dumps({"outer_src": "10.1.0.1", "outer_dst": "10.2.0.1",
                          "teid": "0x11223344", "message_type": "gpdu",
                          "inner_hex": gtp.build_ipv4(
                              ip_int("172.16.0.2"), ip_int("10.100.1.1"), 1,
                              b"ping").hex()})
        code, out, _ = run(capsys, "codec", "encode", doc)
        assert code == 0
        decoded = gtp.decode_gtpu(bytes.fromhex(out.strip()))
        assert decoded.teid == 0x11223344

    def test_encode_reads_a_file(self, capsys, tmp_path):
        # `@path` names a file that holds the packet document
        doc = json.dumps({"outer_src": "10.1.0.1", "outer_dst": "10.2.0.1",
                          "teid": 7, "message_type": "end-marker"})
        (tmp_path / "packet.json").write_text(doc)
        inline = run(capsys, "codec", "encode", doc)
        assert run(capsys, "codec", "encode",
                   f"@{tmp_path / 'packet.json'}") == inline
        assert inline[0] == 0 and inline[1] == encode_gtpu(
            ip_int("10.1.0.1"), ip_int("10.2.0.1"), 7,
            GtpMessageType.END_MARKER).hex() + "\n"

    def test_decode_gpdu_whose_inner_is_not_ipv4(self, capsys):
        # the tunnel decodes; the inner bytes give no flow line
        wire = encode_gtpu(ip_int("10.1.0.1"), ip_int("10.2.0.1"), 7,
                           GtpMessageType.GPDU, b"\x60not-ipv4")
        assert run(capsys, "codec", "decode", wire.hex()) == (0, (
            "message_type=GPdu\nteid=0x00000007\nouter_src=10.1.0.1\n"
            "outer_dst=10.2.0.1\ninner_len=9\n"), "")

    @pytest.mark.parametrize("doc, named", [
        ([1], "JSON object"), ("gpdu", "JSON object"),
        ({"outer_src": "10.1.0.1", "outer_dst": "10.2.0.1", "teid": 7},
         "lacks message_type"),
        ({"message_type": "gpdu", "teid": 7}, "outer_src, outer_dst"),
        ({"message_type": "echo", "outer_src": "10.1.0.1",
          "outer_dst": "10.2.0.1", "teid": 7}, "one of gpdu, end-marker"),
        ({"message_type": ["gpdu"], "outer_src": "10.1.0.1",
          "outer_dst": "10.2.0.1", "teid": 7}, "message_type"),
        ({"message_type": "gpdu", "outer_src": 167837697,
          "outer_dst": "10.2.0.1", "teid": 7}, "outer_src"),
        ({"message_type": "gpdu", "outer_src": "10.1.0.1",
          "outer_dst": "10.2.0.1", "teid": [7]}, "teid"),
    ])
    def test_encode_malformed_packet(self, capsys, doc, named):
        # one error line naming what is wrong or missing, exit 2
        code, out, err = run(capsys, "codec", "encode", json.dumps(doc))
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("proto, transport, message", [
        (6, gtp.build_tcpish(6, 80, 5000, b"resp"),
         "outer protocol 6, expected UDP"),
        (17, gtp.build_udp(5000, 53, b"q"), "UDP port 53, expected 2152")])
    def test_decode_frame_that_is_no_tunnel(self, capsys, proto, transport,
                                            message):
        frame = gtp.build_ipv4(ip_int("172.16.0.2"), ip_int("10.100.1.1"),
                               proto, transport)
        code, out, err = run(capsys, "codec", "decode", frame.hex())
        assert code == 2 and not out
        assert err == f"error: {message}\n"

    def test_bad_hex_is_runtime_error(self, capsys):
        code, _, err = run(capsys, "codec", "decode", "zz")
        assert code == 2
        assert err.strip()


class TestHarnessCommand:
    def test_cross_region_trace_has_one_notice(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        code, out, err = run(capsys, "harness", "--scenario",
                             "x2-cross-region", "--trace", str(trace_path))
        assert code == 0
        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines()]
        notified = [e for e in events if e["action"] == "MigrationNotified"]
        assert len(notified) == 1

    def test_stdout_trace(self, capsys):
        code, out, _ = run(capsys, "harness", "--scenario", "attach")
        assert code == 0
        assert all(json.loads(line) for line in out.strip().splitlines())

    def test_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "harness", "--scenario", "nope")
        assert code == 2
        assert "nope" in err

    def test_help_names_the_harness_scenarios(self):
        # the parser lists the scenarios without importing the harness
        assert cli._SCENARIOS == harness.SCENARIOS

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "harness")
        assert code == 1


@pytest.mark.parametrize("argv", [[], ["codec"], ["bogus"]])
def test_missing_or_unknown_command_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("usage error: ")


class TestSimCommands:
    @pytest.mark.parametrize("name", ["sim-small", "sim-small-without"])
    def test_sim_matches_golden(self, capsys, tmp_path, name):
        # the committed output of `megw sim` on the paper's map, with and
        # without regions
        golden = Path(__file__).parent / "golden"
        out_path = tmp_path / f"{name}.csv"
        code, _, _ = run(capsys, "sim", "--config",
                         str(golden / f"{name}.json"), "--out",
                         str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (golden / f"{name}.csv").read_bytes()
        assert (tmp_path / f"{name}.meta.json").read_bytes() \
            == (golden / f"{name}.meta.json").read_bytes()

    def test_sweep_matches_golden(self, capsys, tmp_path):
        # the committed output of `megw sim-sweep` on the paper's map: two
        # rates, two replications, with-regions crossings at both rates
        golden = Path(__file__).parent / "golden"
        out_path = tmp_path / "sweep-small.csv"
        code, out, _ = run(capsys, "sim-sweep", "--config",
                           str(golden / "sweep-small.json"), "--out",
                           str(out_path))
        assert code == 0
        assert out_path.read_bytes() \
            == (golden / "sweep-small.csv").read_bytes()
        assert (tmp_path / "sweep-small.meta.json").read_bytes() \
            == (golden / "sweep-small.meta.json").read_bytes()
        assert out == (golden / "sweep-small.stdout").read_text()

    def test_sweep_at_benchmark_scale(self, capsys, tmp_path):
        # the benchmark's sweep (45,000 users, five rates, four
        # replications, 60 steps), pinned by digest at a scale the small
        # goldens never reach
        cfg_path, out_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        cfg_path.write_text(json.dumps({
            "regions_count": 3, "mecs_per_region": 4,
            "capacities": [1, 1, 2, 2], "users_per_capacity": 2500,
            "steps": 60, "migration_rate": 0, "policy": "with_regions",
            "seed": 1}))
        code, out, _ = run(capsys, "sim-sweep", "--config", str(cfg_path),
                           "--out", str(out_path), "--rates", "0.01", "0.02",
                           "0.05", "0.1", "0.2", "--replications", "4",
                           "--steps", "60", "--seed", "1")
        assert code == 0
        digests = [hashlib.sha256(data).hexdigest() for data in (
            out_path.read_bytes(),
            (tmp_path / "sweep.meta.json").read_bytes(), out.encode())]
        assert digests == [
            "f60fad00065f2c95494989e9f985b6e65cc86d03fe94e6f9989a7889131d6de2",
            "a4c2970c7d3872a8cdec26ded4bee8642831b082daf526a20c19a5365d80e39c",
            "d2eb540a5b05251bebfce267944ae53b5c897973f1b9972782dff7891da97e91"]

    def test_sim_single(self, capsys, tmp_path):
        cfg = {"regions_count": 1, "mecs_per_region": 2,
               "capacities": [1, 1], "users_per_capacity": 20,
               "steps": 3, "migration_rate": 4, "policy": "with_regions",
               "seed": 5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "run.csv"
        code, _, err = run(capsys, "sim", "--config", str(cfg_path),
                           "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ("policy,rate,replication,step,migrations,"
                            "cumulative_migrations,min_max_ratio")
        assert len(lines) == 1 + 4  # header + steps 0..3
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["seed"] == 5

    def test_sweep_identical_invocations_identical_bytes(self, capsys,
                                                         tmp_path):
        cfg = {"regions_count": 1, "mecs_per_region": 2,
               "capacities": [1, 1], "users_per_capacity": 20, "seed": 9}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            code, _, _ = run(capsys, "sim-sweep", "--config", str(cfg_path),
                             "--out", str(out_path), "--rates", "0.1",
                             "--replications", "2", "--steps", "3")
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    def sweep(self, capsys, tmp_path, cfg, *flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"regions_count": 1, "mecs_per_region": 2, "capacities": [1, 1],
             "users_per_capacity": 20, "seed": 9, **cfg}))
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sim-sweep", "--config", str(cfg_path),
                         "--out", str(out_path), *flags)
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        return rows, json.loads((tmp_path / "sweep.meta.json").read_text())

    def test_sweep_flags_override_config_keys(self, capsys, tmp_path):
        rows, meta = self.sweep(
            capsys, tmp_path, {"rates": [0.5], "replications": 5, "steps": 7},
            "--rates", "0.1", "--replications", "2", "--steps", "3")
        assert (meta["rates"], meta["replications"], meta["steps"]) == (
            [0.1], 2, 3)
        assert len(rows) == 2 * 2 * (3 + 1)  # policies x reps x steps 0..3

    def test_sweep_config_keys_without_flags(self, capsys, tmp_path):
        rows, meta = self.sweep(
            capsys, tmp_path, {"rates": [0.5], "replications": 3, "steps": 2})
        assert (meta["rates"], meta["replications"], meta["steps"]) == (
            [0.5], 3, 2)
        assert len(rows) == 2 * 3 * (2 + 1)

    def test_sweep_zero_steps_flag_is_honoured(self, capsys, tmp_path):
        rows, meta = self.sweep(capsys, tmp_path, {"steps": 5}, "--rates",
                                "0.1", "--replications", "2", "--steps", "0")
        assert meta["steps"] == 0
        assert len(rows) == 2 * 2
        assert {row.split(",")[3] for row in rows} == {"0"}

    def test_sweep_zero_replications_runtime_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"replications": 3}))
        code, _, err = run(capsys, "sim-sweep", "--config", str(cfg_path),
                           "--out", str(tmp_path / "o.csv"),
                           "--replications", "0")
        assert code == 2
        assert "replications" in err

    def test_missing_config_runtime_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sim", "--config",
                           str(tmp_path / "absent.json"), "--out",
                           str(tmp_path / "o.csv"))
        assert code == 2

    @pytest.mark.parametrize("command", ["sim", "sim-sweep"])
    @pytest.mark.parametrize("doc", [{"step": 5}, [1, 2], "sim"])
    def test_bad_config_runtime_error(self, capsys, tmp_path, command, doc):
        # an unknown key or a document that is not an object is one error
        # line and exit 2, with or without a seed override
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        for seed in ((), ("--seed", "3")):
            code, out, err = run(capsys, command, "--config", str(cfg_path),
                                 "--out", str(tmp_path / "o.csv"), *seed)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out and not (tmp_path / "o.csv").exists()

    SMALL = {"regions_count": 1, "mecs_per_region": 2, "capacities": [1, 1],
             "users_per_capacity": 20, "steps": 3, "seed": 9}

    # a field of the wrong type in either command, a sweep key of the wrong
    # type, migration_rate, which only `sim` reads (a sweep sets its own),
    # and a capacity that is not a whole number
    @pytest.mark.parametrize("command, doc", [
        (command, doc) for command in ("sim", "sim-sweep") for doc in (
            {"regions_count": "1"}, {"mecs_per_region": 2.0},
            {"users_per_capacity": None}, {"steps": "5"}, {"seed": "9"},
            {"seed": False}, {"capacities": "11"}, {"capacities": 2},
            {"capacities": [1, "1"]}, {"capacities": [1, True]})
    ] + [("sim-sweep", doc) for doc in (
        {"rates": "0.1"}, {"rates": [0.1, "0.2"]}, {"rates": [True]},
        {"rates": []}, {"rates": None},
        {"replications": "2"}, {"replications": 1.5}, {"steps": 2.5})
    ] + [("sim", {"migration_rate": True})] + [
        (command, {"capacities": [1, 1.5]}) for command in ("sim", "sim-sweep")
    ] + [
        # the RNG takes no negative seed; a sweep packs seeds as int64
        (command, {"seed": seed}) for command in ("sim", "sim-sweep")
        for seed in (-1, 2**63)
    ])
    def test_config_field_types(self, capsys, tmp_path, command, doc):
        # one error line naming the field, exit 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.SMALL, **doc}))
        code, out, err = run(capsys, command, "--config", str(cfg_path),
                             "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(doc)) in err
        assert not out and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["sim", "sim-sweep"])
    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_seed_flag_out_of_range(self, capsys, tmp_path, command, seed):
        # a seed outside 0 <= seed < 2**63 is one error line naming seed,
        # exit 2: the RNG refuses a negative seed and a sweep packs its
        # seeds as signed 64-bit ints
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.SMALL))
        code, out, err = run(capsys, command, "--config", str(cfg_path),
                             "--out", str(tmp_path / "o.csv"), "--seed", seed)
        assert code == 2 and not out
        assert err == f"error: seed must be from 0 to 2**63 - 1, not {seed}\n"
        assert not (tmp_path / "o.csv").exists()

    # a repeated rate too: the summary has one line per rate
    @pytest.mark.parametrize("rate", ["inf", "1e400", "nan", "-0.1", "1.5",
                                      "0.1 0.1"])
    def test_sweep_rate_must_be_a_fraction(self, capsys, tmp_path, rate):
        # one error line naming rates, not the migration_rate a sweep derives
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.SMALL))
        code, out, err = run(capsys, "sim-sweep", "--config", str(cfg_path),
                             "--out", str(tmp_path / "o.csv"), "--rates",
                             *rate.split())
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rates" in err and "migration_rate" not in err

    @pytest.mark.parametrize("command", ["sim", "sim-sweep"])
    def test_population_out_of_memory(self, capsys, tmp_path, monkeypatch,
                                      command):
        # a population too large to allocate is a runtime error; the world
        # build fails here without allocating anything
        def out_of_memory(cfg):
            raise MemoryError("cannot allocate the world")
        monkeypatch.setattr(sim, "build_world", out_of_memory)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.SMALL,
                                        "users_per_capacity": 100}))
        code, out, err = run(capsys, command, "--config", str(cfg_path),
                             "--out", str(tmp_path / "o.csv"))
        assert code == 2 and not out
        assert err == "error: cannot allocate the world\n"

    @pytest.mark.parametrize("command", ["sim", "sim-sweep"])
    def test_capacities_must_be_finite(self, capsys, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**self.SMALL,
                                        "capacities": [1, math.inf]}))
        code, out, err = run(capsys, command, "--config", str(cfg_path),
                             "--out", str(tmp_path / "o.csv"))
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "capacities" in err

    def test_sweep_migration_ratio_below_threshold(self, capsys, tmp_path):
        # the full-size map through the CLI: region steering keeps
        # migrations under 30% of the baseline at each swept rate
        import csv as csv_mod
        from collections import defaultdict

        cfg_path = tmp_path / "paper.json"
        cfg_path.write_text(json.dumps({
            "regions_count": 3, "mecs_per_region": 4,
            "capacities": [1, 1, 2, 2], "users_per_capacity": 500,
            "seed": 3}))
        out_path = tmp_path / "results.csv"
        code, out, _ = run(capsys, "sim-sweep", "--config", str(cfg_path),
                           "--out", str(out_path), "--rates", "0.05", "0.2",
                           "--replications", "5", "--steps", "40")
        assert code == 0
        finals = defaultdict(list)
        with open(out_path) as f:
            for row in csv_mod.DictReader(f):
                if int(row["step"]) == 40:
                    finals[(row["policy"], row["rate"])].append(
                        int(row["cumulative_migrations"]))
        for rate in ("0.05", "0.2"):
            with_mean = sum(finals[("with_regions", rate)]) / 5
            without_mean = sum(finals[("without_regions", rate)]) / 5
            assert with_mean / without_mean < 0.30


class TestCustomTopology:
    @pytest.mark.parametrize("edit", [
        lambda cfg: [],
        lambda cfg: cfg.update(nodes=[]),
        lambda cfg: cfg["nodes"]["enb1"].pop("addr"),
        lambda cfg: cfg.update(links={"a": "enb1", "b": "mgw-a"}),
        lambda cfg: cfg.update(enb_to_megw=[]),
    ], ids=["list", "node-list", "no-addr", "links-object", "map-list"])
    def test_malformed_topology_runtime_error(self, capsys, tmp_path, edit):
        from megw.harness import default_topology_config

        cfg = default_topology_config()
        doc = edit(cfg)     # a replacement document, or None after an edit
        cfg = cfg if doc is None else doc
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "harness", "--scenario", "attach",
                             "--topology", str(topo_path))
        assert code == 2 and not out
        assert err.startswith("error: topology: ") and err.count("\n") == 1

    @pytest.mark.parametrize("weight", [math.nan, math.inf, 10 ** 400],
                             ids=["nan", "inf", "huge-int"])
    def test_weight_must_be_finite(self, capsys, tmp_path, weight):
        from megw.harness import default_topology_config

        cfg = default_topology_config()
        cfg["nodes"]["dip-a1"]["weight"] = weight
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "harness", "--scenario", "attach",
                             "--topology", str(topo_path))
        assert code == 2 and not out
        assert err.startswith("error: topology: ") and err.count("\n") == 1
        assert "weight" in err

    def test_harness_accepts_topology_file(self, capsys, tmp_path):
        from megw.harness import default_topology_config

        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps(default_topology_config()))
        code, out, _ = run(capsys, "harness", "--scenario", "attach",
                           "--topology", str(topo_path))
        assert code == 0
        kinds = [json.loads(line)["action"]
                 for line in out.strip().splitlines()]
        assert kinds.count("Cloned") == 2
