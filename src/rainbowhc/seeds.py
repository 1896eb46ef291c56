"""Deterministic 64-bit seed derivation.

Every randomized component derives its per-task seed through the same fixed
avalanche mix, so trials can run on any number of workers in any order and
still reproduce bit-for-bit from one master seed.

The mix is the SplitMix64 finalizer (Steele-Lea-Flood constants), chained as

    h0      = mix64(master + PHI)
    h_{j+1} = mix64(h_j XOR mix64(index_j + PHI))

All arithmetic is modulo 2**64, identical on every platform: pure Python
ints in mix64 and derive_seed, numpy uint64 arrays (which wrap modulo 2**64)
in their vectorised twins mix64_array and derive_seed_rows.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15  # floor(2^64 / golden ratio), odd
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche on 64-bit integers."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """mix64 applied elementwise to a uint64 array."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def derive_seed(master: int, *indices: int) -> int:
    """Fold integer indices into a master seed, one avalanche round each."""
    h = mix64((master + _PHI64) & _MASK64)
    for idx in indices:
        h = mix64(h ^ mix64((idx + _PHI64) & _MASK64))
    return h


def derive_seed_rows(master: int, indices: np.ndarray) -> np.ndarray:
    """derive_seed(master, *row) for every row of a 2-d array of
    non-negative integer indices, as a uint64 array."""
    top = int(indices.max(initial=0))
    # mix64(index + PHI) for every index up to the largest
    terms = mix64_array(np.arange(top + 1, dtype=np.uint64) + np.uint64(_PHI64))
    h = np.full(len(indices), derive_seed(master), dtype=np.uint64)
    for column in indices.T:
        h = mix64_array(h ^ terms[column])
    return h


def unit_interval(h: int) -> float:
    """Map a 64-bit hash to a float in [0, 1) using its top 53 bits."""
    return (h >> 11) * (2.0 ** -53)
