"""Host-speed probe, so timings can be stated at one reference speed.

The benchmark shares its host with other tenants, and the host's speed for
this process drifts: on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4,
OpenBLAS 0.3.31) raw CLI timings moved by up to 1.6x within minutes, far
more than the regressions the benchmark must catch. The probe is a fixed
kernel of the same kind of work the package does, tiny Hermitian
eigendecompositions and stacked 4x4 SVDs driven from Python loops, that
calls no erasurekit code, so no change to the package can speed it up or
slow it down. It runs right after every timed invocation, for a tenth of
that invocation's time; dividing a timing by the slowdown the probe saw in
the same pass removed most of the drift (timing over probe time held
within about 5% while raw timings moved by 30%).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The probe unit's time at the reference speed. Timings divided by the
# slowdown read as seconds on a host where one unit takes this long.
REFERENCE_UNIT_S = 1e-3
PROBE_SHARE = 0.1


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(24, 3, 3)) + 1j * rng.normal(size=(24, 3, 3))
        self.hermitian = g + g.conj().transpose(0, 2, 1)
        self.stack = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))

    def _unit(self) -> float:
        acc = 0.0
        for h in self.hermitian:
            w, v = np.linalg.eigh(h)
            acc += float(np.abs((v * w) @ v.conj().T).sum())
        for _ in range(4):
            acc += float(np.linalg.svd(self.stack, compute_uv=False).sum())
        return acc

    def sample(self, timed_s: float) -> tuple[int, float]:
        """Run whole units for PROBE_SHARE of ``timed_s`` (at least one); return (units, seconds)."""
        start = perf_counter()
        units = 0
        while True:
            self._unit()
            units += 1
            elapsed = perf_counter() - start
            if elapsed >= PROBE_SHARE * timed_s:
                return units, elapsed


def slowdown(units: int, seconds: float) -> float:
    """Probe time per unit over the reference: 2.0 means the host ran at half speed."""
    return seconds / units / REFERENCE_UNIT_S
