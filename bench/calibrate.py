"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared machine the speed of one core drifts by 20% and more over
minutes, while the program under test stays the same.  The benchmark times
this kernel after every round (and in every set-up probe) and scales each
pass's round times by REFERENCE_S / the pass's median kernel time, so the
reported times are "seconds on a machine running the kernel in
REFERENCE_S".  The kernel does what the solver's inner loop does:
permutations, sorted tuple keys and dict lookups.  Nothing in it depends on
rainbowhc, so no change to the program can move it.
"""

import itertools
import time

# about the median kernel time on the 2-vCPU VM (Python 3.11.7) where the
# bounds were set; it fixes the unit, not the comparison between runs
REFERENCE_S = 0.006

_TABLE = {c: i for i, c in enumerate(itertools.combinations(range(10), 3))}


def _kernel() -> int:
    hits = 0
    for _ in range(2):
        for perm in itertools.permutations(range(10), 4):
            key = tuple(sorted(perm[:3]))
            hits += _TABLE.get(key, 0) & 1
            if perm[3] in key:
                hits -= 1
    return hits


def seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
