"""Host-speed probes: fixed work, independent of monomap, timed in CPU
seconds next to the work the benchmark measures.

On a shared host the same work can take 1.4 times the CPU time when another
tenant loads the same physical core, and that state changes within seconds
and drifts over minutes.  A probe timed before and after a stretch of
operations says how fast the host ran during it, and the benchmark scales
the stretch's CPU time by ``reference / probe``.  The reference constants
are the probes' median CPU time on the 2-core machine the README's figures
come from, so a scaled time reads as CPU seconds on that machine.

This module imports nothing heavy at load time: ``fresh_start.py`` runs
``unmarshal_probe`` before numpy is imported.
"""

import gc
import marshal
import time

UNMARSHAL_REF_S = 0.015
MIXED_REF_S = 0.018


def unmarshal_probe() -> float:
    """CPU seconds to build, marshal and unmarshal a fixed list: the kind
    of work an import does.  The garbage collector is off meanwhile, so the
    size of the heap does not change the figure."""
    gc.disable()
    try:
        c0 = time.process_time()
        data = marshal.dumps([(i, str(i), float(i)) for i in range(15_000)])
        for _ in range(3):
            marshal.loads(data)
        return time.process_time() - c0
    finally:
        gc.enable()


class MixedProbe:
    """CPU seconds of a fixed mix like monomap's own: a Python loop, many
    small numpy calls and a few 400,000-point array expressions."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 3.0, 400_000)

    def __call__(self) -> float:
        np, x = self.np, self.x
        c0 = time.process_time()
        s = 0
        for i in range(50_000):
            s += i * i % 7
        for k in range(1_000):
            s += float(np.clip(np.asarray([k * 1e-3, 0.5]), 0.0, 1.0).sum())
        for _ in range(3):
            s += float(((1.0 + 2.0 * x) / (1.0 + x + x[::-1])).sum())
        return time.process_time() - c0
