"""Machine-speed probes.

On a shared host the same code runs up to twice as fast at one moment as at
another, and the slow and fast spells last from under a second to minutes,
so raw wall times of two runs, or two commits, do not compare.  After each
timed operation the benchmark therefore times a probe: fixed code, frozen in
the benchmark, whose instruction mix resembles the operation's.  The ratio
of the probe's time to its NOMINAL_S says how slow the machine was just
then, and the operation's wall time is divided by it: every reported time
is in seconds of a machine that runs the probe in NOMINAL_S.

Probes must never change once a baseline has been measured against them.
"""

import math
from time import perf_counter

import reference


def numpy_probe():
    """Sixteen batches of the oracle's training loop: conv and pool,
    ascending-k matmuls, softmax and Adam, as the program does them."""
    reference.train_epoch(seed=7, n_images=16 * reference.BATCH)


def python_probe():
    """Interpreter-bound work shaped like the cycle model: small dicts,
    tuples and integer arithmetic."""
    total = 0
    for i in range(2000):
        counts = {}
        for off in range(8):
            bank = (i + off) % 4
            counts[bank] = counts.get(bank, 0) + 1
        total += math.ceil(i / 4) * max(counts.values()) + math.prod((i % 7 + 1, 3, 2))
    return total


# Median probe times on the 2-vCPU Intel Xeon virtual machine of the
# baseline in README.md.
NOMINAL_S = {numpy_probe: 0.080, python_probe: 0.0040}


def slowdown(probe):
    """How many times slower than nominal the machine runs the probe now."""
    t0 = perf_counter()
    probe()
    return (perf_counter() - t0) / NOMINAL_S[probe]
