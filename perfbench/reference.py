"""Reference work that turns wall time into reference seconds.

A time in reference seconds is a wall time scaled by a nominal time over
how long a fixed piece of reference work took right before and right after
it.  On a shared 2-core sandbox the same Python loop ran 0.33 to 0.48 s
from one second to the next; the program and the reference work beside it
slow down together, so the ratio keeps the program's cost and drops most
of the machine's.  The nominal times are about the reference work's median
time on that sandbox, so reference seconds read close to seconds there.

Two references are used: a loop of interpreter work and tiny numpy calls
for op latencies, and a fresh interpreter that imports numpy for set-up.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

REF_LOOP_S = 1.3e-3
REF_START_S = 0.25
_REF_MATRIX = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


def reference_loop() -> float:
    """The library's kind of per-point work on fixed data: interpreter
    work, tiny numpy calls, a Cholesky factor and solve, and a small JSON
    dump.  The result is returned so that none of it is skipped."""
    acc = 0.0
    for i in range(30):
        x = np.array([i * 0.1, 1.0, 2.0])
        z = np.linalg.solve(np.linalg.cholesky(_REF_MATRIX), _REF_MATRIX @ x)
        w = np.concatenate([x, z])
        acc += float(w.sum()) + math.sqrt(i % 7)
        acc += len(json.dumps({"w": [float(v) for v in w]}))
    return acc


def reference_time() -> float:
    """Median time of three reference loops."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def start_time() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - t0


def to_reference(seconds: float, ref_before: float, ref_after: float, nominal: float = REF_LOOP_S) -> float:
    """``seconds`` of wall time in reference seconds."""
    return seconds * nominal / (0.5 * (ref_before + ref_after))
