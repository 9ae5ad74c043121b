"""A host-speed probe: a fixed slice of work that shares no code with qfid.

On a shared two-core host the same pass ran 30-40% slower for minutes at a
time while other tenants were busy, and the guest saw no steal time for it.
``Probe()`` times a fixed slice of the two kinds of work that make up the
sweep workload, interpreter steps and products of complex matrices the size
of a 7-qubit density matrix, so that a run can state its pass time at a
reference host speed.  The probe's inputs are fixed
and never depend on the program under test, so a slower program still reads
slower.
"""

from __future__ import annotations

import time

# A probe reading of this host when it was not loaded by other tenants.  It
# only sets the scale of normalised times; any constant would do.
REFERENCE_S = 0.016
INTERPRETER_STEPS = 200_000  # about half of a reading
SMALL_PRODUCTS = 20


class Probe:
    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.random((128, 128)) + 1j * rng.random((128, 128))

    def __call__(self) -> float:
        """Seconds for one slice of fixed work."""
        start = time.perf_counter()
        total = 0
        for i in range(INTERPRETER_STEPS):
            total += i & 7
        for _ in range(SMALL_PRODUCTS):
            self.small @ self.small
        return time.perf_counter() - start
