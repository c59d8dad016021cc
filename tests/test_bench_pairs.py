"""tools/bench_pairs.py: the summary of alternating benchmark pairs and
the record it reads from each run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "op_p90_ms", "better": "lower", "bound": 0.05}]


def record(ops, p90, failed=0, attempted=10):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": ops, "op_p90_ms": p90}}


def test_medians_base_iqr_and_wins():
    pairs = [(record(2.0, 500), record(3.0, 400)),
             (record(2.4, 420), record(2.4, 430)),    # a tie is no win
             (record(2.2, 480), record(2.0, 470)),
             (record(2.6, 440), record(3.2, 500, failed=2))]
    s = bench_pairs.summarize(pairs, END_TO_END)
    assert s["pairs"] == 4
    ops, p90 = s["metrics"]["ops_per_s"], s["metrics"]["op_p90_ms"]
    assert ops["base_median"] == pytest.approx(2.3)
    assert ops["change_median"] == pytest.approx(2.7)
    # quartiles of the base side only: 2.15 and 2.45
    assert ops["base_iqr"] == pytest.approx(0.3)
    assert ops["change_won"] == 2
    # lower is better: 400 < 500 and 470 < 480 win, 430 and 500 lose
    assert p90["change_won"] == 2
    assert p90["base_median"] == 460 and p90["change_median"] == 450
    assert s["base"] == {"failed": 0, "attempted": 40}
    assert s["change"] == {"failed": 2, "attempted": 40}


def test_one_pair_has_no_spread():
    s = bench_pairs.summarize([(record(1.0, 9), record(1.5, 8))], END_TO_END)
    assert s["metrics"]["ops_per_s"] == {
        "base_median": 1.0, "change_median": 1.5, "base_iqr": 0.0,
        "change_won": 1, "change_worse": -0.5, "beyond_bound": False,
        "unresolved": False}
    text = bench_pairs.report("sim-sweep", s)
    assert text.splitlines()[0] == "== sim-sweep: 1 pairs"
    assert text.splitlines()[-1] == \
        "failed operations: base 0 of 10, change 0 of 10"


def test_worse_relative_to_the_base_and_beyond_the_bound():
    # ops_per_s 10% worse, inside its 25% bound; op_p90_ms 6% worse, beyond
    # its 5%
    pairs = [(record(100.0, 10.0), record(90.0, 10.6)),
             (record(100.0, 10.0), record(90.0, 10.6))]
    s = bench_pairs.summarize(pairs, END_TO_END)
    ops, p90 = s["metrics"]["ops_per_s"], s["metrics"]["op_p90_ms"]
    assert ops["change_worse"] == pytest.approx(0.10)
    assert not ops["beyond_bound"]
    assert p90["change_worse"] == pytest.approx(0.06)
    assert p90["beyond_bound"]
    ops_line, p90_line = bench_pairs.report("dataplane", s).splitlines()[2:4]
    assert ops_line.endswith("+10.0%")
    assert p90_line.endswith("+6.0%  beyond bound")


SIM_SWEEP_P90 = [{"name": "op_p90_ms", "better": "lower", "bound": 0.25}]


def p90_pairs(base, change):
    return [(record(1.0, b), record(1.0, c)) for b, c in zip(base, change)]


def test_spread_within_the_bound_resolves():
    # base quartiles 310 and 377.2 around a median of 320: an IQR of 21%
    # of the median, inside the 0.25 bound, so the pairs can tell
    s = bench_pairs.summarize(
        p90_pairs([300, 310, 320, 377.2, 420], [310, 330, 320, 390, 410]),
        SIM_SWEEP_P90)
    p90 = s["metrics"]["op_p90_ms"]
    assert p90["base_iqr"] / p90["base_median"] == pytest.approx(0.21)
    assert not p90["unresolved"]
    assert "unresolved" not in bench_pairs.report("sim-sweep", s)


def test_spread_beyond_the_bound_is_unresolved():
    # an IQR of 30% of the base median, and the sides overlap
    base = [300, 300, 320, 396, 420]
    s = bench_pairs.summarize(p90_pairs(base, [310, 290, 330, 380, 400]),
                              SIM_SWEEP_P90)
    p90 = s["metrics"]["op_p90_ms"]
    assert p90["base_iqr"] / p90["base_median"] == pytest.approx(0.30)
    assert p90["unresolved"] and not p90["beyond_bound"]
    assert bench_pairs.report("sim-sweep", s).splitlines()[2].endswith(
        "  unresolved")
    # unless every run of the change beats every base run: lower is
    # better here, so all below 300; a tie with the best base run is no win
    for change, unresolved in (([250, 260, 270, 280, 299], False),
                               ([250, 260, 270, 280, 300], True)):
        s = bench_pairs.summarize(p90_pairs(base, change), SIM_SWEEP_P90)
        assert s["metrics"]["op_p90_ms"]["unresolved"] is unresolved


def test_separation_follows_better():
    # higher is better for ops_per_s: every change run above every base run
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.05}]
    base = [1.0, 2.0, 3.0]
    for change, unresolved in (([3.1, 3.2, 3.3], False),
                               ([0.5, 0.6, 0.7], True)):
        pairs = [(record(b, 1.0), record(c, 1.0))
                 for b, c in zip(base, change)]
        s = bench_pairs.summarize(pairs, end_to_end)
        assert s["metrics"]["ops_per_s"]["unresolved"] is unresolved


def test_parse_run_keeps_env_and_reduces_metrics():
    # `benchmarks/run.py`'s stdout: the env line, one line per metric, the
    # summary as the last line
    env = {"commit": "0123abc", "nproc": 2, "loadavg_after": [0.5, 0.4, 0.3]}
    stdout = "\n".join([
        "env " + json.dumps(env, sort_keys=True),
        "sim-sweep ops_per_s = 2.5 1/s",
        "sim-sweep fail_ratio = 0 (0 of 40 operations)",
        json.dumps({"correct": True, "attempted": 40, "failed": 0,
                    "metrics": {"ops_per_s": {"value": 2.5, "unit": "1/s"},
                                "op_p90_ms": {"value": 410.0,
                                              "unit": "ms"}}})]) + "\n"
    assert bench_pairs.parse_run(stdout) == {
        "correct": True, "attempted": 40, "failed": 0, "env": env,
        "metrics": {"ops_per_s": 2.5, "op_p90_ms": 410.0}}


BENCH = {"run_seconds": 20,
         "workloads": [{"name": w} for w in ("dataplane", "mobility")]}


def test_parse_defaults_and_seed():
    args = bench_pairs.parse_args(["3"], BENCH)
    assert (args.n, args.workload, args.seconds, args.base, args.seed,
            args.record) == (3, None, 20, "HEAD", 1, None)
    args = bench_pairs.parse_args(
        ["10", "--workload", "mobility", "--seconds", "10", "--seed", "2",
         "--record", "44"], BENCH)
    assert (args.n, args.workload, args.seconds, args.seed,
            args.record) == (10, ["mobility"], 10, 2, 44)


@pytest.mark.parametrize("argv", [["0"], ["2", "--seconds", "0"],
                                  ["2", "--seed", "x"],
                                  ["2", "--workload", "sim-sweep"]])
def test_parse_refuses(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(argv, BENCH)
    assert exc.value.code == 2
