"""tools/gc_report.py: the collector's work in the mobility workload, at
small sizes."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "gc_report.py"
_SPEC = importlib.util.spec_from_file_location("gc_report", _PATH)
gc_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gc_report)


def test_report_at_small_sizes(tmp_path, monkeypatch, capsys):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert gc_report.main(["--cycles", "8", "--subscribers", "20"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == ("GC in the mobility workload: seed 1, 20 subscribers,"
                        " setup then 8 cycles in chunks of 4")
    assert [line.split()[0] for line in lines[1:4]] == [
        "setup", "window", "window:"]
    assert "0 failed" in lines[3]
    assert lines[4].startswith("tracked after setup: ")
    assert summary.read_text() == "```\n" + text + "```\n"


@pytest.mark.parametrize("argv", [["--cycles", "0"], ["--subscribers", "0"],
                                  ["--cycles", "-1"]])
def test_refuses_cycles_and_subscribers_below_one(argv, capsys):
    # refused before any subscriber is set up, as argparse refuses a bad
    # option, where an empty report used to exit 0
    with pytest.raises(SystemExit) as exc:
        gc_report.main(argv)
    assert exc.value.code == 2
    assert ("--cycles and --subscribers must be positive"
            in capsys.readouterr().err)


def test_measure_counts_each_phase_apart():
    sizes = gc_report.mobility.Sizes(subscribers=20)
    stats = gc_report.measure(seed=2, cycles=4, sizes=sizes)
    for phase in gc_report.PHASES:
        counts, ms = stats[phase]["collections"], stats[phase]["ms"]
        assert len(counts) == len(ms) == 3
        assert all(n >= 0 for n in counts)
        assert all(t >= 0 for t in ms)
        # a generation that never ran took no time
        assert all(t == 0 for n, t in zip(counts, ms) if n == 0)
    # a cycle is a handover, its resumed request and 3 to 5 more
    assert 4 * 5 <= stats["window"]["attempted"] <= 4 * 7
    assert stats["window"]["failed"] == 0
    tracked = stats["tracked"]
    assert tracked["TraceEvent"] > 0
    assert list(tracked.values()) == sorted(tracked.values(), reverse=True)
