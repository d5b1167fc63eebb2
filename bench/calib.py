"""Machine-speed calibration for the timing metrics.

The host this benchmark was tuned on runs the same instructions up to 1.6x
slower in spells that last from seconds to minutes, on both vCPUs, with no
steal time reported: process CPU time slows down exactly as wall time does.
So every timed op is bracketed by a calibration, a fixed pure-Python loop
that does not depend on the program, and the timing metrics report

    calibrated time = measured time x CALIB_REF_S / calibration time

with the calibration time taken as the mean of the one before and the one
after the op.  That is the op's time on this machine at the speed it has when
one calibration takes CALIB_REF_S.  A faster or slower program changes the
measured time and not the calibration, so it shows in full.

The calibration runs in a child process of its own (``Calibrator``) that
imports nothing of the program, so the program's heap, caches and imports
cannot change it.  Run directly, this file is that child: each line on stdin
asks for one calibration, answered by one line with its time in seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time

# The reference speed: one calibration (the mean time of a spin) takes this
# long.  On the 2-vCPU Intel Xeon VM the benchmark was tuned on, calibrations
# read about 0.85 ms in the fast mode and 1.4 ms in the slow one.
CALIB_REF_S = 0.001
SPINS = 5


def spin() -> int:
    """Fixed work: dict updates, integer arithmetic, allocation and a sort."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(5000):
        key = (i * 7919) % 251
        counts[key] = counts.get(key, 0) + i
        acc += (i * i) % 13
    pairs = sorted((v % 1009, k) for k, v in counts.items())
    return acc + pairs[0][0] + len(str(acc))


def calibrate() -> float:
    """Mean time of one spin over SPINS spins: the machine's speed flips
    between a fast and a slow mode within milliseconds, so a calibration
    averages over several spins as an op averages over its run time."""
    t0 = time.perf_counter()
    for _ in range(SPINS):
        spin()
    return (time.perf_counter() - t0) / SPINS


class Calibrator:
    """A calibration child; ``measure()`` returns one calibration time.

    Use it as a context manager: the child is stopped and waited for on
    every way out.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.close()  # end of input ends the child's loop
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def calibrated(seconds: float, before: float, after: float) -> float:
    return seconds * CALIB_REF_S * 2 / (before + after)


if __name__ == "__main__":
    calibrate()  # warm up before the first answer
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)
