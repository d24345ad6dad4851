"""Processor-speed sampling, so that times are comparable across runs.

On a shared machine the speed of the processor a benchmark runs on changes
by up to 2x within seconds, as other tenants come and go.  `Sampler` runs a
fixed calibration kernel from a SIGALRM handler every `INTERVAL_S` of wall
time, so its samples are spread evenly through the timed calls.  Each sample
gives the local speed `REFERENCE_KERNEL_S / kernel time`.  A measured span
is converted to reference seconds by removing the time spent in handlers
during it and multiplying by the mean local speed around it: one reference
second is the time in which the kernel runs once per `REFERENCE_KERNEL_S`.

The kernel does the kind of work sigmaforge does (Python loops and calls,
rotations of big-int bitmaps, short string joins), so it slows by the same
factor when the processor is contended.  Changing the kernel or the
constants changes every reported time: measure the baseline again then.

The kernel can only stand for the machine's speed while the measured
program runs on one CPU.  If the program runs a second thread or child
process, those compete with the kernel, and rescaling would divide the
program's own parallel load (or its oversubscription of the cores) out as
"machine speed".  So each sample also records how many threads the process
has, and `worker.py` falls back to plain seconds when a sample saw more than
one thread or child processes used CPU during the timed calls.
"""

import bisect
import os
import signal
import statistics
import threading
import time

INTERVAL_S = 0.02
REFERENCE_KERNEL_S = 0.00025
PAD_S = 0.03  # calls shorter than the interval borrow the samples around them


def _rotate(mask, s, n, full):
    return ((mask << s) | (mask >> (n - s))) & full


def kernel():
    """Fixed calibration work, about 0.3 ms on an uncontended 2020s core."""
    acc = 0
    for n in (16, 64, 256, 1024):
        full = (1 << n) - 1
        for start in range(1, 12):
            s = 1
            for k in range(1, 9):
                s |= _rotate(s, (start * k * 7919) % n or 1, n, full)
            acc += s.bit_count() + len(";".join(str(k) for k in range(8)))
    return acc


def thread_count():
    """Operating-system threads of this process (Python threads off Linux)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class Sampler:
    def __init__(self):
        self.times = []  # handler start times (time.monotonic), ascending
        self.kernel_s = []  # kernel duration of each sample
        self.max_threads = 1  # most threads any sample saw
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a signal handled inside the handler
            return
        self._busy = True
        self.max_threads = max(self.max_threads, thread_count())
        t0 = time.monotonic()
        kernel()
        self.kernel_s.append(time.monotonic() - t0)
        self.times.append(t0)
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample_now(self):
        """One sample outside the timer, e.g. right after set-up."""
        self._sample()

    def _between(self, t0, t1):
        return bisect.bisect_left(self.times, t0), bisect.bisect_left(self.times, t1)

    def handler_s(self, t0, t1):
        """Seconds spent in handlers that started within [t0, t1)."""
        i, j = self._between(t0, t1)
        return sum(self.kernel_s[i:j])

    def speed(self, t0, t1):
        """Mean local speed over [t0 - PAD_S, t1 + PAD_S), or over all samples."""
        i, j = self._between(t0 - PAD_S, t1 + PAD_S)
        window = self.kernel_s[i:j] or self.kernel_s
        return statistics.fmean(REFERENCE_KERNEL_S / k for k in window)

    def reference_s(self, t0, t1):
        """The span [t0, t1) in reference seconds."""
        return (t1 - t0 - self.handler_s(t0, t1)) * self.speed(t0, t1)
