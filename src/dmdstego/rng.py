"""SplitMix64 generator: scalar stream, vectorized stream, bounded draws, shuffles.

All randomness in this package that must be reproducible across platforms
(permutation ciphers, random pattern selection, diffuser phases) flows
through this module rather than numpy's own generators.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def check_seed(seed: int) -> int:
    """Return `seed` unchanged if it fits in 64 bits; raise ValueError otherwise."""
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    return seed


class SplitMix64:
    """Sequential SplitMix64 stream over Python integers."""

    def __init__(self, seed: int):
        self._state = check_seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Draw from 0..bound-1 via the high 64 bits of a 128-bit product (no rejection step)."""
        if bound < 1:
            raise ValueError("bound must be positive")
        return (self.next_u64() * bound) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, descending index, j = below(i + 1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def stream_u64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64(seed) as a uint64 array.

    Output n of the scalar generator is mix(seed + (n + 1) * gamma), which
    makes the whole stream computable without the sequential dependency.
    """
    check_seed(seed)
    n = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + n * np.uint64(_GAMMA)     # wraps mod 2**64
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return z


def mul_high(x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """High 64 bits of the elementwise 128-bit product x * bound."""
    x = np.asarray(x, dtype=np.uint64)
    bound = np.asarray(bound, dtype=np.uint64)
    mask = np.uint64(0xFFFFFFFF)
    s = np.uint64(32)
    xh, xl = x >> s, x & mask
    bh, bl = bound >> s, bound & mask
    low = xl * bl
    cross1 = xl * bh
    cross2 = xh * bl
    carry = (low >> s) + (cross1 & mask) + (cross2 & mask)
    return xh * bh + (cross1 >> s) + (cross2 >> s) + (carry >> s)


def permutation(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) driven by SplitMix64(seed).

    Identical to SplitMix64(seed).shuffle(list(range(n))); the bounded draws
    are precomputed in bulk because the swap loop itself is cheap.
    """
    perm = list(range(n))
    if n >= 2:
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        draws = mul_high(stream_u64(seed, n - 1), bounds).tolist()
        i = n - 1
        for j in draws:
            perm[i], perm[j] = perm[j], perm[i]
            i -= 1
    return np.asarray(perm, dtype=np.int64)
