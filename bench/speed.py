"""Host-speed correction of untraced timings.

The shared machines this benchmark runs on change speed by up to a factor
of two, for stretches from a fraction of a second to minutes: a
16-element evaluation takes 0.47 ms in one stretch and 0.9 ms in the
next, and every kind of work slows together.  A run catches a different
share of slow stretches every time, and a stretch can outlast the run.

The correction times a fixed reference computation (reference.py) while
the workload runs.  A sampler wraps the calls a pass repeats
(``EnergyWorkspace.loss_and_grad``, ``EnergyWorkspace.loss`` and
``post.write_vtk``); after a call, if SAMPLE_EVERY_S has passed since the
last reference sample, it times one more.  The samples so follow the
workload through its fast and slow stretches.  A pass's corrected time
is its wall time minus the samples' own time, times the reference time
over the mean of the samples taken in it: the time the pass would take
on a host that runs the reference in its reference time.  If the wrapped
names are gone, samples taken before and after the pass stand in.
"""

from __future__ import annotations

import time

from spans import SITES, Tracer

KINDS = ("energy.loss_and_grad", "energy.loss", "post.write_vtk")
SAMPLE_EVERY_S = 0.25


class Sampler:
    """Reference samples as (start, duration), taken after the workload's
    repeated calls while ``tracer()`` is installed, and on request."""

    def __init__(self, ref):
        self.ref = ref
        self.samples = []
        self._next = 0.0

    def take(self) -> float:
        start = time.perf_counter()
        duration = self.ref.time_one()
        self.samples.append((start, duration))
        self._next = start + duration + SAMPLE_EVERY_S
        return duration

    def _after_call(self, counts, args, result):
        if time.perf_counter() >= self._next:
            self.take()

    def tracer(self) -> Tracer:
        """Wrappers on the repeated calls that sample after them."""
        return Tracer({name: (SITES[name][0], self._after_call)
                       for name in KINDS})

    def within(self, start, end) -> list:
        """Durations of the samples taken between ``start`` and ``end``."""
        return [d for s, d in self.samples if start <= s < end]

    def factor(self, durations) -> float:
        """Mean sample time over the reference time: how much slower than
        the reference host the machine ran while they were taken."""
        return sum(durations) / len(durations) / self.ref.reference_s
