"""SplitMix64 generator: scalar stream, vectorized stream, bounded draws, shuffles.

All randomness in this package that must be reproducible across platforms
(permutation ciphers, random pattern selection, diffuser phases) flows
through this module rather than numpy's own generators.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
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


def _mix_steps(seed: int, z: np.ndarray) -> np.ndarray:
    """mix(seed + z * gamma) for each step count in the uint64 array z, in place.

    Every scalar is an np.uint64, so numpy 1.x's value-based casting keeps
    each operation in uint64; the work runs in z and one shift buffer.
    """
    z *= np.uint64(_GAMMA)                          # wraps mod 2**64
    z += np.uint64(seed)
    shifted = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(mix)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def stream_u64(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of SplitMix64(seed) as a uint64 array.

    Output n of the scalar generator is mix(seed + (n + 1) * gamma), which
    makes the whole stream computable without the sequential dependency.
    """
    check_seed(seed)
    return _mix_steps(seed, np.arange(1, count + 1, dtype=np.uint64))


def _stream_at(seed: int, positions: np.ndarray) -> np.ndarray:
    """Outputs of SplitMix64(seed) at the non-negative integer `positions`:
    stream_u64(seed, n)[positions] for any n past the largest, without
    computing the outputs in between."""
    check_seed(seed)
    z = np.asarray(positions).astype(np.uint64)
    z += np.uint64(1)
    return _mix_steps(seed, z)


def mul_high(x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """High 64 bits of the elementwise 128-bit product x * bound, for bound < 2**32.

    With x = xh * 2**32 + xl the product's high word is
    (xh * bound + (xl * bound >> 32)) >> 32, and no partial sum overflows 64
    bits while bound fits in 32.  That covers `_draws_below`, its one caller in
    the package: group sizes are at most 256, and permutation lengths are
    bounded by the 32-bit length header.
    """
    x = np.asarray(x, dtype=np.uint64)
    bound = np.asarray(bound, dtype=np.uint64)
    if bound.size and bound.max() > _MASK32:
        raise ValueError("bound must be below 2**32")
    # Two output-sized buffers, worked in place; x and bound are only read.
    s = np.uint64(32)
    shape = np.broadcast_shapes(x.shape, bound.shape)
    high = np.right_shift(x, s, out=np.empty(shape, dtype=np.uint64))
    low = np.bitwise_and(x, np.uint64(_MASK32), out=np.empty(shape, dtype=np.uint64))
    high *= bound
    low *= bound
    low >>= s
    high += low
    high >>= s
    return high


# Each round of `permutation` reserves among a window of the highest pending
# steps: 1/WINDOW_DIVISOR of them, and never fewer than WINDOW_FLOOR.
WINDOW_FLOOR = 1024
WINDOW_DIVISOR = 32
# `_draws_below` mixes and bounds this many draws at a time, so the
# temporaries of one block (128 KiB each) stay in L2.
_DRAW_BLOCK = 16_384


def _draws_below(seed: int, bounds: np.ndarray) -> np.ndarray:
    """SplitMix64(seed).below(b) for each b of the 1-D `bounds`, as int64.

    Draw k is mul_high of stream output k and bounds[k], computed a block of
    _DRAW_BLOCK draws at a time into slices of the output, so no
    stream-sized temporary is made.
    """
    check_seed(seed)
    bounds = np.asarray(bounds)
    out = np.empty(bounds.size, dtype=np.int64)
    for lo in range(0, bounds.size, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, bounds.size)
        out[lo:hi] = mul_high(_mix_steps(seed, np.arange(lo + 1, hi + 1, dtype=np.uint64)),
                              bounds[lo:hi])
    return out


def permutation(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) driven by SplitMix64(seed).

    Identical to SplitMix64(seed).shuffle(list(range(n))), computed in rounds
    of independent swaps: the prefix variant of deterministic reservations
    (Blelloch, Fineman, Gibbons & Shun, PPoPP 2012; Shun et al., SODA 2015).
    Step i swaps slots i and j[i] <= i, and the sequential order runs from
    i = n-1 down, so step i must wait only for higher steps that touch slot
    i or slot j[i].

    Each round takes a window of the highest pending steps: the previous
    round's losers, then the next slice of the untouched descending tail,
    max(WINDOW_FLOOR, pending // WINDOW_DIVISOR) steps in all, or just the
    losers if they are more.  The tail is read through a cursor and never
    copied.  Every window step reserves both of its slots with priority i,
    and a step holding the top reservation on both swaps this round.  The
    window is a prefix of the pending steps, so every higher pending step is
    in it and a winner conflicts with none of them; steps below the window
    come later in the sequential order anyway.  The highest pending step
    always wins, so every round makes progress.  Reserving among all pending
    steps at once would commit only a third of them in the first round and
    gather the rest again in every later one; a window of 1/32 of them loses
    few steps per round.  At n = 379,541 this takes 133-144 rounds (median
    137) over 200 seeds.
    """
    perm = np.arange(n, dtype=np.int64)
    if n < 2:
        return perm
    tail_i = np.arange(n - 1, 0, -1, dtype=np.int64)
    tail_j = _draws_below(seed, tail_i + 1)
    reserved = np.empty(n, dtype=np.int64)
    i = j = tail_i[:0]
    cursor = 0
    while i.size or cursor < tail_i.size:
        pending = i.size + tail_i.size - cursor
        window = max(WINDOW_FLOOR, pending // WINDOW_DIVISOR)
        take = min(max(window - i.size, 0), tail_i.size - cursor)
        i = np.concatenate([i, tail_i[cursor:cursor + take]])
        j = np.concatenate([j, tail_j[cursor:cursor + take]])
        cursor += take
        # Overwrite both slots of every window step, so no entry left by an
        # earlier round can block a slot.
        reserved[j] = -1
        reserved[i] = i
        np.maximum.at(reserved, j, i)
        won = (reserved[i] == i) & (reserved[j] == i)
        wi, wj = i[won], j[won]
        perm[wi], perm[wj] = perm[wj], perm[wi]
        lost = ~won
        i, j = i[lost], j[lost]
    return perm
