"""Host-speed scaling of measured times.

The shared host runs the same code at speeds up to about 1.7x apart, in
phases that can outlast a whole benchmark run, so times as measured move by
10-30% from run to run.  While a timed piece of work runs, a fixed reference
task that uses no polarmuon code is timed every ``SAMPLE_S``.  The work's
time, without the samples' own time, is scaled by ``REF_MS`` / (the samples'
mean).  ``REF_MS`` is the reference's time at the host's fast speed, so a
scaled time is the work's time on the host at that speed.

This module imports only numpy, so a fresh interpreter can sample its own
import of polarmuon.
"""

import signal
import statistics
import time

import numpy as np

REF_MS = 0.25
REF_REPS = 10
# Untimed runs before each sample: right after the work's own large matrices
# the task would otherwise time a cold cache, which is the work's doing, not
# the host's.
REF_WARM = 10
SAMPLE_S = 0.02
_REF_MATRIX = np.random.default_rng(0).standard_normal((16, 8))


def _ref_task(reps: int) -> None:
    for _ in range(reps):
        q, _r = np.linalg.qr(_REF_MATRIX)
        float(np.sum(q * q)) ** 0.75


def host_ref_ms() -> float:
    """Milliseconds of the reference task: thin QR of a 16x8 matrix plus a
    norm, ``REF_REPS`` times, after ``REF_WARM`` untimed runs."""
    _ref_task(REF_WARM)
    t0 = time.perf_counter()
    _ref_task(REF_REPS)
    return (time.perf_counter() - t0) * 1e3


class HostSampler:
    """Times the reference task every ``SAMPLE_S`` while installed.

    A SIGALRM handler runs the task.  Python runs signal handlers in the
    main thread between bytecodes, so the task never overlaps the work being
    timed: each sample sees how fast the host runs at that moment.
    """

    def __init__(self):
        self.samples = []
        self.spent_ms = 0.0  # the handler's whole time, warm-up included

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.samples.append(host_ref_ms())
        self.spent_ms += (time.perf_counter() - t0) * 1e3

    def __enter__(self):
        self.samples = []
        self.spent_ms = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_ms(self, wall_ms: float) -> tuple:
        """(``wall_ms`` of the work sampled last, without the samples' own
        time; mean sample ms, or ``REF_MS`` when the work was too short to
        be sampled)."""
        ref = statistics.fmean(self.samples) if self.samples else REF_MS
        return wall_ms - self.spent_ms, ref
