"""The machine's speed, measured next to the jobs by a fixed reference task.

On a shared host the same job mix runs up to a third faster or slower from
one stretch of seconds to tens of seconds to the next, and CPU time tracks
wall time, so the drift is the host's speed, not preemption. A run cannot
average it away. The benchmark therefore times a fixed reference task around
each job (outside the job clock, for about ``SHARE`` of the job time, half
before and half after) and reports job times scaled to the speed at which the
reference takes ``NOMINAL_S``.

The reference is the benchmark's own statevector of a fixed small circuit
(``oracle.statevector``: Python loops over small numpy calls, the same mix as
the simulator's small-state work). It does not use the program, so no change
to the program moves it.
"""
from __future__ import annotations

import time

import gen
import oracle

# The reference's median time on a two-core 2.1 GHz Xeon VM (Python 3.11,
# numpy 2.4, one BLAS thread). Reported times are at that speed.
NOMINAL_S = 1.5e-3
SHARE = 0.05  # reference time as a share of job time

_CIRCUIT = gen.qasm_file(99, 6, 40)


def reference_once() -> float:
    t0 = time.perf_counter()
    oracle.statevector(_CIRCUIT.gates, _CIRCUIT.num_qubits)
    return time.perf_counter() - t0


class Speed:
    """Reference samples taken over a stretch of the run."""

    def __init__(self):
        self.seconds = 0.0
        self.reps = 0

    def sample(self, budget: float):
        """Run the reference at least once, and until ``budget`` seconds are spent."""
        spent = 0.0
        while True:
            spent += reference_once()
            self.reps += 1
            if spent >= budget:
                break
        self.seconds += spent

    @property
    def scale(self) -> float:
        """Factor that turns a measured time into one at the nominal speed."""
        return NOMINAL_S * self.reps / self.seconds if self.reps else 1.0
