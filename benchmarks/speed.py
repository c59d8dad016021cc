"""Host speed reference: times are scaled to a fixed reference speed.

The virtual machines this benchmark runs on share their hosts, and the
speed of a whole VM drifts: a cache-resident pure-Python loop runs about
1.5x faster or slower in phases of a second, and in regimes up to 2x
apart that last minutes. The program's operations follow the same
phases. So the benchmark times a fixed reference slice of pure Python
next to the work, as often as the phases require, and gives every time
in seconds of a machine on which that slice takes exactly
`REF_SLICE_S`:

    scaled = measured * REF_SLICE_S / slice_time_nearby

The slice is the benchmark's own code, so a change to the program moves
the scaled times exactly as it moves the measured ones when the host
speed holds still. See README.md, "Host speed".
"""

from __future__ import annotations

import threading
import time

# the slice takes about this long on the 2-core Xeon the benchmark was
# sized on, so scaled times read close to its wall-clock times
REF_SLICE_S = 0.001
SLICE_ROUNDS = 6000
SAMPLE_PERIOD_S = 0.05


def slice_s() -> float:
    """Run the reference slice once; its wall time in seconds."""
    t0 = time.monotonic()
    table: dict = {}
    acc = 0
    for i in range(SLICE_ROUNDS):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0) ^ i
    return time.monotonic() - t0


def factor(slices) -> float:
    """Scale from measured to reference seconds, from nearby slice times.

    The mean of the speeds (REF_SLICE_S / slice): slices taken at even
    intervals weigh each interval alike, and a slice cut by an interrupt
    reads slow and so weighs little.
    """
    return sum(REF_SLICE_S / d for d in slices) / len(slices)


class Sampler:
    """Times a reference slice every SAMPLE_PERIOD_S on a thread.

    For work that cannot be cut into chunks from outside: interpreter
    start, imports, a workload's set-up, one whole `megw sim-sweep`. The
    slices hold the interpreter lock, so the work waits while one runs;
    `scaled` takes their time out of the interval before scaling it.
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []   # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = time.monotonic()
            self.slices.append((t0, slice_s()))

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] of `time.monotonic()`, in reference seconds.

        Scales by the slices that started inside it, or by the nearest
        one when it is shorter than the sampling period.
        """
        inside = [d for start, d in self.slices if t0 <= start < t1]
        near = inside or [min(self.slices or [(t1, slice_s())],
                              key=lambda s: abs(s[0] - t1))[1]]
        return (t1 - t0 - sum(inside)) * factor(near)
