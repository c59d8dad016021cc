"""tools/memory_report.py: per-subscriber memory, at a small size."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "memory_report.py"
_SPEC = importlib.util.spec_from_file_location("memory_report", _PATH)
memory_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(memory_report)


def test_measure_at_a_small_size():
    # measure itself raises unless every flow went through the gateway
    whole, in_control, in_steering = memory_report.measure(50, 2)
    assert 0 < in_control < whole
    assert 0 < in_steering < whole
