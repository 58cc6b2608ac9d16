"""Interpreter-speed calibration, measured in the thread being timed.

On the shared 2-vCPU virtual machines this benchmark was built on, each vCPU
switches between a fast and a slow state (the same Python code takes about
1.7 times as long in the slow one) for spans of half a second to tens of
seconds, and the two vCPUs switch independently.  More work per run does not
average that away, and a speed sampled on the other vCPU does not follow it.
So every measured process samples its own speed: a `Sampler` runs a fixed
kernel from a SIGPROF handler every SAMPLE_INTERVAL_S of CPU time, in the
thread it measures, and a time measured from `a` to `b` is reported at
reference speed as

    (measured - handler time meanwhile) * REFERENCE_KERNEL_S
        / (mean kernel time of the samples from a - WINDOW_S to b + WINDOW_S)

The mean, not the median: the samples are evenly spaced in CPU time, so
their mean weighs the fast and slow spans of a long operation by their share
of it (over five runs of cyclic-5, 16-20 s each as measured, the median put
one run's time 43 % above another's, the mean 9 %).

The kernel is a sparse polynomial product on plain dicts (the same kind of
work as Polynomial.__mul__, but none of the library's code), so a change to
ufdlab moves the measured time and not the kernel.

Run as a script, this file runs a module as `python -m` would, under a
sampler, and at exit writes the handler's total time and the speed factor
to REPORT:

    python3 perfbench/speed.py REPORT -m ufdlab.cli claim list

Importing it loads no module beyond `bisect`, `signal`, `sys` and `time`, so
it adds next to nothing to the start-up it measures.
"""

from __future__ import annotations

import bisect
import signal
import sys
import time

# About the kernel's time in the fast state of the machine the first numbers
# were recorded on (Intel Xeon, 2 vCPUs, Python 3.11.7); it only sets the unit.
REFERENCE_KERNEL_S = 0.001
SAMPLE_INTERVAL_S = 0.01  # of CPU time; the kernel takes 1-2 ms of it
WINDOW_S = 0.1
MIN_SAMPLES = 5

_P = 32003


def _operand(state: int, terms: int) -> dict:
    """A fixed operand from a linear congruential generator (not `random`,
    whose import would count in the start-up times measured here)."""
    out = {}
    while len(out) < terms:
        exps = []
        for _ in range(4):
            state = (state * 1103515245 + 12345) % 2**31
            exps.append(state % 5)
        state = (state * 1103515245 + 12345) % 2**31
        out[tuple(exps)] = 1 + state % (_P - 1)
    return out


_A = _operand(1, 60)
_B = _operand(2, 60)


def kernel() -> int:
    out: dict = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[e] = (out.get(e, 0) + c1 * c2) % _P
    return len(out)


class Sampler:
    """Kernel samples taken in this process's main thread while it works.

    `at` holds the perf_counter time each handler call started, `kernel_s`
    the kernel's time in it and `spent` the whole call's time, which a timed
    interval subtracts."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.spent: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.kernel_s.append(time.perf_counter() - start)
        self.at.append(start)
        self.spent.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def stolen(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """Seconds the handler took between two perf_counter times.  A
        handler call runs between two bytecodes, so it lies wholly inside or
        wholly outside an interval timed by reading perf_counter twice."""
        first = bisect.bisect_left(self.at, since)
        return sum(self.spent[first:bisect.bisect_left(self.at, until)])

    def factor(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """Multiply a time measured from `since` to `until` (perf_counter
        times) by this.  It uses the samples from WINDOW_S before to WINDOW_S
        after, widened to the nearest MIN_SAMPLES when there are fewer."""
        if not self.kernel_s:
            raise ValueError("no speed samples were taken")
        first = bisect.bisect_left(self.at, since - WINDOW_S)
        last = bisect.bisect_right(self.at, until + WINDOW_S)
        while last - first < MIN_SAMPLES and (first > 0 or last < len(self.at)):
            first, last = max(0, first - 1), min(len(self.at), last + 1)
        window = self.kernel_s[first:last]
        return REFERENCE_KERNEL_S * len(window) / sum(window)


def main(argv: list[str]) -> None:
    if len(argv) < 3 or argv[1] != "-m":
        raise SystemExit("usage: speed.py REPORT -m MODULE [ARG ...]")
    import runpy

    report, _, module, *args = argv
    sys.argv = [module, *args]
    sampler = Sampler()
    sampler.start()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        with open(report, "w") as fh:
            fh.write(f"{sampler.stolen()!r} {sampler.factor()!r}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
