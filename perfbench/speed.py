"""Host-speed calibration for the end-to-end times.

The speed of a shared virtual machine drifts: on a 2-vCPU VM the same
job took from 0.8 s to 1.3 s within five minutes, in slow and fast
spells of a few to thirty seconds, so raw times of runs made minutes
apart spread by more than the benchmark's bounds.  The drift is the
CPU's throughput, not time taken away from the process: a child's CPU
time grows with its wall time.

So the parent pins itself, and with it every child, to one CPU, and
while a child runs it wakes every PROBE_INTERVAL_S to run a short slice
of a fixed pure-Python kernel that does not use kmoments, timing the
slice by its own CPU time.  A child's time is multiplied by
REFERENCE_S over the mean slice time during that child.  The result
reads as seconds on a host where a slice takes REFERENCE_S; a change to
kmoments moves it in full, a slow spell of the CPU mostly not.  Slices
timed between the children instead (before and after each) did not
help: on that VM they made the spread of a 6 s job larger, not smaller,
while slices during it cut it by a factor of four.
"""

from __future__ import annotations

import os
from statistics import fmean
from time import thread_time

# CPU time of one slice that a normalised second is expressed against;
# about a slice's typical time on a 2-vCPU Intel Xeon VM, Python 3.11
REFERENCE_S = 0.003

# how often a slice runs while a child runs; each costs the child's CPU
# about 3 ms, so normalised times include about 3% of slices
PROBE_INTERVAL_S = 0.1

SLICE_ROUNDS = 12


def kernel(rounds: int = SLICE_ROUNDS) -> int:
    """A fixed mix of the operations kmoments spends its time on.

    List comprehensions over zip, map over __getitem__ of a permutation,
    and a loop of table look-ups and small-int arithmetic.
    """
    q = 1 << 10
    table = [(g * 0x9E37) & (q - 1) for g in range(q)]
    row = list(range(q))
    acc = 0
    for beta in range(1, rounds + 1):
        perm = [g ^ beta for g in range(q)]
        shifted = list(map(row.__getitem__, perm))
        row = [(c + s) & 0xFFFF for c, s in zip(row, shifted)]
        for a in range(0, q, 4):
            x = table[a ^ beta]
            if x & 1:
                acc += x
            else:
                acc -= table[x]
    return acc + row[0]


def probe() -> float:
    """CPU time of one kernel slice."""
    t0 = thread_time()
    kernel()
    return thread_time() - t0


def factor(probes: tuple[float, ...]) -> float:
    """What a child's time is multiplied by, given the slices during it."""
    return REFERENCE_S / fmean(probes)


def pin_to_one_cpu() -> int:
    """Run this process, and every child it starts, on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
