"""Host speed probe: a fixed piece of pure-Python work, timed.

The benchmark shares its host with other machines' work, which slows the
same code by tens of percent in bursts that come and go within seconds.  A
run therefore times this probe at regular intervals while it measures and
reports its timings scaled by ``REF_S / mean(probe times)``: seconds of a
host on which one probe takes ``REF_S``.  The mean over probes spread evenly
in time tracks the share of the window spent in bursts; probes taken only
between commands do not.

The probe touches nothing of ``dgbs``, but it runs in the main thread of
the measuring process.  Work the program runs meanwhile in other threads or
processes (the ``DGBS_WORKERS`` pool, a thread added later) competes with
it for the cores and slows it, which shrinks the scale and flatters the
scaled time.  A change that adds such work must be judged on raw wall
times, which the end-to-end table prints as ``wall_workload_s``.  The
end-to-end runs pin one worker and one BLAS/OpenMP thread.

Only ``signal`` and ``time`` are imported here, so the set-up probe counts
every other module the CLI loads.
"""

import signal
import time

REF_S = 0.001        # one probe on the reference host
INTERVAL_S = 0.05    # sampling period; the probes cost about 2% of a run
ITERATIONS = 8_000


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(ITERATIONS):
        acc += (i * 31 % 97) * 0.5
        table[i & 255] = acc
    return time.perf_counter() - t0


def scale(samples: list) -> float:
    """Factor that turns wall seconds into reference-host seconds."""
    return REF_S * len(samples) / sum(samples)


class Sampler:
    """Runs ``probe`` every ``INTERVAL_S`` from a SIGALRM handler in this
    process's main thread, recording (start time, probe seconds)."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale_between(self, t0: float, t1: float, fallback=None) -> float:
        """Scale from the probes taken in [t0, t1].  A window with fewer
        than three probes gets ``fallback``, or the scale of all probes."""
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        if len(inside) >= 3:
            return scale(inside)
        if fallback is not None:
            return fallback
        return scale([dt for _, dt in self.samples] or [probe()])
