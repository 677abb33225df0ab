"""SplitMix64 in numpy: one blocked stream, bounded draws, keyed shuffles.

Output n (n = 0, 1, ...) of SplitMix64(seed) is mix(seed + (n + 1) * gamma)
modulo 2**64, with mix the generator's xor-shift-multiply finalizer; it is
read in order, a block at a time, from `_stream_blocks` alone.  All
randomness in this package that must be reproducible across platforms
(permutation ciphers, random pattern selection, diffuser phases) flows
through this module rather than numpy's own generators.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_seed(seed) -> int:
    """`seed` as a Python int (numpy integers by value); ValueError for a
    non-integer, a float included, or a value outside 0..2**64-1."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError("seed must be an integer") from None
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 bits")
    return seed


def _finalize(z: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """SplitMix64's xor-shift-multiply finalizer on each uint64 state of z, in place.

    `shifted` is a scratch buffer of z's shape and dtype.
    """
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(mix)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _check_bounds(bounds: np.ndarray) -> None:
    """Refuse bounds past 2**32 - 1, and negative ones, which a uint64 cast would wrap past it."""
    if bounds.size and (bounds.max() > _MASK32 or bounds.min() < 0):
        raise ValueError("bound must be below 2**32")


def _mul_high_into(x, bound, high, low, out):
    """High 64 bits of the elementwise 128-bit product x * bound, for bound < 2**32, into `out`.

    With x = xh * 2**32 + xl the product's high word is
    (xh * bound + (xl * bound >> 32)) >> 32, and no partial sum overflows 64
    bits while bound fits in 32: xh * bound and xl * bound are each below
    2**64 - 2**32, and (xl * bound >> 32) is below 2**32.  That covers
    `_draws_below`: group sizes are at most 256, and permutation lengths
    are bounded by the 32-bit length header.

    x and bound are uint64 arrays; `out` is any integer array of the result's
    shape.  high and low are uint64 scratch buffers of that shape; low may be
    x itself, which is then overwritten.  The bounds are not checked here.
    """
    s = np.uint64(32)
    np.right_shift(x, s, out=high)
    np.bitwise_and(x, np.uint64(_MASK32), out=low)
    high *= bound
    low *= bound
    low >>= s
    high += low
    return np.right_shift(high, s, out=out, casting="unsafe")


# Each round of `permutation` reserves among a window of the highest pending
# steps: 1/WINDOW_DIVISOR of them, and never fewer than WINDOW_FLOOR.
WINDOW_FLOOR = 1024
WINDOW_DIVISOR = 32
# `_stream_blocks` mixes this many outputs at a time, so the temporaries
# of one block (128 KiB each) stay in L2.
_DRAW_BLOCK = 16_384


def _stream_blocks(seed: int, n: int):
    """Yield (lo, z) for outputs 0..n-1 of SplitMix64(seed): z holds outputs
    lo..lo+z.size-1 in one uint64 buffer of at most _DRAW_BLOCK, reused.

    Output lo + k is mix(seed + lo * gamma + (k + 1) * gamma): one arange
    holds the (k + 1) * gamma steps, and each block adds its own offset.
    """
    seed = check_seed(seed)
    steps = np.arange(1, min(n, _DRAW_BLOCK) + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)                      # wraps mod 2**64
    z, shifted = np.empty_like(steps), np.empty_like(steps)
    for lo in range(0, n, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, n - lo)
        np.add(steps[:m], np.uint64((seed + lo * _GAMMA) & _MASK64), out=z[:m])
        yield lo, _finalize(z[:m], shifted[:m])


def _draws_below(seed: int, bounds: np.ndarray) -> np.ndarray:
    """One bounded draw from 0..b-1 for each b of the 1-D `bounds`, as int64.

    Draw k is the high 64 bits of stream output k times bounds[k] (see
    _mul_high_into), with no rejection step.  The bounds are checked once,
    and each block of `_stream_blocks` is bounded in two block-sized buffers
    made once per call, so no stream-sized temporary is made.  The high
    words are shifted straight into the int64 output.
    """
    bounds = np.asarray(bounds)
    _check_bounds(bounds)
    out = np.empty(bounds.size, dtype=np.int64)
    high = np.empty(min(bounds.size, _DRAW_BLOCK), dtype=np.uint64)
    bound = np.empty_like(high)
    for lo, z in _stream_blocks(seed, bounds.size):
        m = z.size
        bound[:m] = bounds[lo:lo + m]
        _mul_high_into(z, bound[:m], high[:m], z, out[lo:lo + m])
    return out


def _step_draws(n: int, seed: int) -> np.ndarray:
    """The draws of the sequential shuffle of n items, as int64.

    Step i (i from n-1 down to 1) takes draw n-1-i, a bounded draw from
    0..i, so step i's draw is `_step_draws(n, seed)[n - 1 - i]`.
    """
    return _draws_below(seed, np.arange(n, 1, -1, dtype=np.int64))


def _swap_rounds(draws: np.ndarray):
    """Yield each reservation round as its window of steps, their draws and which won.

    `draws` is `_step_draws(n, seed)`.  For each yielded (i, j, won), the
    winning steps i[won] and their draws j[won] are one round of disjoint
    swaps of items i[won] and j[won]; applied in order, the rounds make the
    sequential shuffle.  See `permutation`.
    """
    n = draws.size + 1
    reserved = np.empty(n, dtype=np.int64)
    i = j = draws[:0]
    cursor = 0
    while i.size or cursor < draws.size:
        pending = i.size + draws.size - cursor
        window = max(WINDOW_FLOOR, pending // WINDOW_DIVISOR)
        take = min(max(window - i.size, 0), draws.size - cursor)
        # The untouched tail is steps n-1-cursor, n-2-cursor, ...
        top = n - 1 - cursor
        i = np.concatenate([i, np.arange(top, top - take, -1, dtype=np.int64)])
        j = np.concatenate([j, draws[cursor:cursor + take]])
        cursor += take
        # Overwrite both slots of every window step, so no entry left by an
        # earlier round can block a slot.
        reserved[j] = -1
        reserved[i] = i
        np.maximum.at(reserved, j, i)
        won = (reserved[i] == i) & (reserved[j] == i)
        yield i, j, won
        lost = ~won
        i, j = i[lost], j[lost]


def permutation(x, seed: int) -> np.ndarray:
    """Shuffled copy of the 1-D array `x`, in its own dtype, by the
    Fisher-Yates shuffle keyed with SplitMix64(seed).

    The sequential shuffle of n items runs i from n-1 down to 1 and swaps
    items i and j[i], the next bounded draw from 0..i: step i takes draw
    n-1-i of `_draws_below` (`_step_draws`).

    That shuffle is computed here in rounds of independent swaps
    (`_swap_rounds`): the prefix variant of deterministic reservations
    (Blelloch, Fineman, Gibbons & Shun, PPoPP 2012; Shun et al., SODA 2015).
    Step i swaps slots i and j[i] <= i, and the sequential order runs from
    i = n-1 down, so step i must wait only for higher steps that touch slot
    i or slot j[i].  The winning swaps of a round move the items themselves,
    so a uint8 array is shuffled as bytes, with no int64 index permutation
    made for it.  The swaps of one round are disjoint, so each round is its
    own inverse, and replaying the rounds in reverse order undoes the
    shuffle (`_unpermute`).

    Each round takes a window of the highest pending steps: the previous
    round's losers, then the next slice of the untouched descending tail,
    max(WINDOW_FLOOR, pending // WINDOW_DIVISOR) steps in all, or just the
    losers if they are more.  The tail is read through a cursor into the
    draws and never copied.  Every window step reserves both of its slots
    with priority i, and a step holding the top reservation on both swaps
    this round.  The window is a prefix of the pending steps, so every
    higher pending step is in it and a winner conflicts with none of them;
    steps below the window come later in the sequential order anyway.  The
    highest pending step always wins, so every round makes progress.
    Reserving among all pending steps at once would commit only a third of
    them in the first round and gather the rest again in every later one; a
    window of 1/32 of them loses few steps per round.  At n = 379,509, the
    full-frame payload, this takes 133-144 rounds (median 137) over 200 seeds.
    """
    items = np.array(x)
    for i, j, won in _swap_rounds(_step_draws(len(items), seed)):
        wi, wj = i[won], j[won]
        items[wi], items[wj] = items[wj], items[wi]
    return items


def _unpermute(x, seed: int) -> np.ndarray:
    """Copy of the 1-D array `x` with `permutation`'s shuffle undone:
    permutation(_unpermute(x, seed), seed) equals x.

    Each round of the shuffle is a set of disjoint swaps, so its own
    inverse, and swapping the items through the rounds in reverse order
    undoes it.  Only each round's winning steps are kept, n - 1 in all, and
    their draws are read again at replay: step i's is draws[n - 1 - i].  No
    position array is made.
    """
    items = np.array(x)
    n = len(items)
    draws = _step_draws(n, seed)
    rounds = [i[won] for i, _, won in _swap_rounds(draws)]
    while rounds:
        wi = rounds.pop()
        wj = draws[n - 1 - wi]
        items[wi], items[wj] = items[wj], items[wi]
    return items
