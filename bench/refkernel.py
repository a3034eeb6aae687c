"""The reference kernel every job is timed against.

A fixed mix of interpreted work on a working set of about a hundred kilobytes
(building, sorting and probing tuples, strings and a dict), a few small
numpy operations and one big-integer product.  No ridgekit code runs in
it.  The benchmark times it next to each job and reports job time /
kernel time, scaled by NOMINAL_MS, so that the machine's speed, which on a
shared box drifts from one second to the next, divides out.  Of the mixes
tried, this one kept job / kernel steadiest for all four workloads, both
on an idle machine and next to a compute-bound or a memory-bound process
on the other core.
"""

import numpy as np

# The kernel's median time on the machine the benchmark was written on
# (2-core x86-64, Python 3.11); normalised times are in these units.
NOMINAL_MS = 1.2

_BIG_A = 3 ** 6000
_BIG_B = 7 ** 5000
_VEC = np.linspace(0.0, 10.0, 512)


def reference_kernel():
    items = [(i * 7919 % 10007, str(i), (i, i + 1)) for i in range(1000)]
    items.sort()
    table = {}
    for key, name, pair in items:
        table[name] = pair
    total = 0
    for k in range(0, 1000, 3):
        total += table[str(k)][0]
    v = _VEC
    for _ in range(8):
        v = np.sin(v) * 0.5 + v[::-1] * 0.25
    big = _BIG_A * _BIG_B
    return total + big % 97 + int(float(v.sum())) % 5
