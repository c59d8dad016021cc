"""tools/bench_pairs.py's summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_p90_ms": "lower"}


def record(ops, p90, failed=0, attempted=10):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": ops, "op_p90_ms": p90}}


def test_medians_base_iqr_and_wins():
    pairs = [(record(2.0, 500), record(3.0, 400)),
             (record(2.4, 420), record(2.4, 430)),    # a tie is no win
             (record(2.2, 480), record(2.0, 470)),
             (record(2.6, 440), record(3.2, 500, failed=2))]
    s = bench_pairs.summarize(pairs, BETTER)
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
    s = bench_pairs.summarize([(record(1.0, 9), record(1.5, 8))], BETTER)
    assert s["metrics"]["ops_per_s"] == {
        "base_median": 1.0, "change_median": 1.5, "base_iqr": 0.0,
        "change_won": 1}
    text = bench_pairs.report("sim-sweep", s)
    assert text.splitlines()[0] == "== sim-sweep: 1 pairs"
    assert text.splitlines()[-1] == \
        "failed operations: base 0 of 10, change 0 of 10"
