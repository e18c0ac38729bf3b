"""Machine-speed probe that puts measured times on one scale.

On a shared machine the same work can take twice as long when another
tenant's process lands on the sibling core, for stretches of many seconds,
and a thread handing a socket message to another thread can wait on the
scheduler for longer still. The benchmark therefore times work in process
CPU seconds, which leave out the waiting, and runs this fixed probe
(interpreter work plus small numpy calls, like the sessions) before and after
each timed step. The step's CPU time is scaled by
NOMINAL_S / (mean of the two probe times): the time the step would have taken
with the core running at the probe's nominal speed. The raw wall and CPU
figures go to the result file next to the scaled ones.
"""
from __future__ import annotations

import time

import numpy as np

# probe time on an otherwise idle 2-core Intel Xeon VM with Python 3.11 and numpy 2.4
NOMINAL_S = 0.030


def probe_s() -> float:
    """CPU seconds of this process spent on the fixed probe."""
    start = time.process_time()
    table: dict = {}
    for i in range(30_000):
        key = i % 977
        table[key] = table.get(key, 0) + i * i
    vec = np.arange(8.0)
    for _ in range(1_500):
        np.kron(vec, vec)
    return time.process_time() - start


def scale(before_s: float, after_s: float) -> float:
    """Factor from CPU seconds to reference seconds for a step that ran
    between two probes."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
