"""The HRW kernel: exact key movement on join and leave, and the import
boundary that keeps it, and the simulator, free of the data plane."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from megw import hrw
from megw.hrw import rendezvous_pick

IDS = st.text(max_size=6)
WEIGHTS = st.floats(min_value=1e-3, max_value=1e3)


@given(start=st.dictionaries(IDS, WEIGHTS, min_size=1, max_size=6),
       keys=st.lists(st.binary(max_size=8), min_size=1, max_size=32),
       data=st.data())
def test_join_and_leave_move_only_the_changed_candidates_keys(
        start, keys, data):
    # HRW's minimal disruption, exactly: a leave moves the keys of the
    # candidate that left and no other, and a join moves keys only to the
    # candidate that joined, whatever the weights and the list positions
    cands = list(start.items())
    for _ in range(data.draw(st.integers(1, 8), label="events")):
        before = [cands[i][0] for i in rendezvous_pick(keys, cands)]
        if len(cands) > 1 and data.draw(st.booleans(), label="leave"):
            gone, _ = cands.pop(data.draw(st.integers(0, len(cands) - 1)))
            after = [cands[i][0] for i in rendezvous_pick(keys, cands)]
            assert [a != b for b, a in zip(before, after)] == [
                b == gone for b in before]
        else:
            new = data.draw(IDS.filter(lambda i: i not in dict(cands)))
            cands.insert(data.draw(st.integers(0, len(cands))),
                         (new, data.draw(WEIGHTS)))
            after = [cands[i][0] for i in rendezvous_pick(keys, cands)]
            assert all(a in (b, new) for b, a in zip(before, after))


# what each import may not load: the kernel no numpy and no lock, the
# gateway no numpy, and neither the simulator nor the command line (whose
# codec and harness commands import the data plane when run) any of it,
# nor a process pool: a sweep forks its replay workers with `os.fork`
DATA_PLANE = {"megw.steering", "megw.control", "megw.harness", "megw.s1ap",
              "megw.gtp"}
POOLS = {"multiprocessing", "concurrent"}
ABSENT = {"megw.hrw": {"numpy", "threading"},
          "megw.steering": {"numpy"},
          "megw.sim": DATA_PLANE | POOLS,
          "megw.cli": DATA_PLANE | POOLS}


@pytest.mark.parametrize("module", ABSENT)
def test_import_boundary(module):
    # the modules loaded by the import alone, in an interpreter without
    # `site`, which loads threading at startup; numpy's directory goes on
    # the path in its place
    script = ("import sys; before = set(sys.modules); "
              f"import {module}; print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(os.path.dirname(os.path.dirname(m.__file__))
                           for m in (hrw, np))
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60,
                         check=True)
    loaded = set(out.stdout.split())
    assert module in loaded
    assert not loaded & ABSENT[module]
