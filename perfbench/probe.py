"""CPU-speed probe for normalizing wall times on a shared machine.

Other tenants of a shared box switch each CPU between speeds up to 1.6x
apart, in phases of seconds to minutes, so that raw wall times of two
identical runs can differ by 50%.  The probe times a small fixed piece
of work made of the same kind of operations as the program (small numpy
reductions and scalar special functions); the benchmark takes one
between consecutive timed calls.  ``normalized`` rescales a wall time by
``REFERENCE_S / probe``: the result is the time at the speed at which
the probe takes ``REFERENCE_S``.  That constant only fixes the scale: it
is about the probe's duration on the reference box (a 2-vCPU Intel Xeon
microVM) when nothing else slows it, so normalized seconds read close to
unloaded seconds there.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 5.5e-4
_X = np.linspace(1.0, 2.0, 20)


def probe() -> float:
    """Wall time of a fixed piece of work, in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float(np.sum(np.log1p(_X * (1.0 + i * 1e-6)))) + math.lgamma(1.5 + i * 1e-3)
    return time.perf_counter() - start


def normalized(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_S / probe_s
