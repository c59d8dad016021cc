"""tools/uplink_scaling.py: a known flow's uplink frame by table size, at
small sizes."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "uplink_scaling.py"
_SPEC = importlib.util.spec_from_file_location("uplink_scaling", _PATH)
uplink_scaling = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(uplink_scaling)


def test_measure_times_known_flows_only():
    # every timed frame is a known flow's, steered here or handed off:
    # none is a flow miss
    out = uplink_scaling.measure(40, samples=300)
    assert out["subscribers"] == 40 and out["samples"] == 300
    assert out["p50_ns"] > 0
    assert set(out["notes"]) == {"dip-rewrite", "stage1-handoff"}
    assert sum(out["notes"].values()) == 300
    # three quarters of the region's weight is another gateway's
    assert out["notes"]["stage1-handoff"] > out["notes"]["dip-rewrite"]


def test_report_runs_each_size(tmp_path, monkeypatch, capsys):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert uplink_scaling.main(["--sizes", "20", "40",
                                "--samples", "100"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0].startswith("Known-flow uplink frame through "
                               "process_packet, median of 100 uniform draws")
    assert [line.split()[:2] for line in lines[1:]] == [
        ["20", "subscribers:"], ["40", "subscribers:"]]
    assert lines[1].endswith("ns, x1.00 of 20")
    assert summary.read_text() == "```\n" + text + "```\n"


@pytest.mark.parametrize("argv", [["--sizes", "0"],
                                  ["--sizes", "10", "--samples", "0"]])
def test_refuses_sizes_and_samples_below_one(argv, capsys):
    # refused before any child runs, as argparse refuses a bad option
    with pytest.raises(SystemExit) as exc:
        uplink_scaling.main(argv)
    assert exc.value.code == 2
    assert "--sizes and --samples must be positive" in capsys.readouterr().err
