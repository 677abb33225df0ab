"""Generator tests against an independent step-by-step reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdstego import rng
from dmdstego.rng import _DRAW_BLOCK, WINDOW_FLOOR, permutation, stream_u64

from scalar_reference import SplitMix64

MASK = (1 << 64) - 1


def reference_next(state):
    """Textbook implementation, kept deliberately naive."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, (z ^ (z >> 31)) & MASK


def _shuffled(n, seed):
    items = list(range(n))
    SplitMix64(seed).shuffle(items)
    return items


def test_known_first_output():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_known_sequence_seed_zero():
    g = SplitMix64(0)
    got = [g.next_u64() for _ in range(4)]
    state, expected = 0, []
    for _ in range(4):
        state, out = reference_next(state)
        expected.append(out)
    assert got == expected


@given(st.integers(min_value=0, max_value=MASK))
def test_matches_reference_any_seed(seed):
    g = SplitMix64(seed)
    state = seed
    for _ in range(5):
        state, expected = reference_next(state)
        assert g.next_u64() == expected


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)


def test_stream_matches_generator():
    for seed in (0, 1, 0xDEADBEEF, MASK):
        g = SplitMix64(seed)
        seq = [g.next_u64() for _ in range(100)]
        assert stream_u64(seed, 100).tolist() == seq


def test_stream_empty():
    out = stream_u64(5, 0)
    assert out.dtype == np.uint64 and out.size == 0


@pytest.mark.parametrize("seed", [0, 42, MASK])
def test_stream_at_positions_matches_stream(seed):
    n = 5000
    stream = stream_u64(seed, n)
    scattered = np.random.default_rng(seed % 1000).integers(0, n, 300)  # unsorted, repeats
    for positions in ([], [0], [n - 1], [0, n - 1], np.flatnonzero(stream % np.uint64(3) == 0),
                      scattered):
        positions = np.asarray(positions, dtype=np.intp)
        kept = positions.copy()
        got = rng._stream_at(seed, positions)
        assert got.dtype == np.uint64 and got.shape == positions.shape
        assert np.array_equal(got, stream[positions])
        assert np.array_equal(positions, kept)
    with pytest.raises(ValueError):
        rng._stream_at(MASK + 1, np.arange(3))


def test_below_is_high_multiply():
    g = SplitMix64(42)
    raw = stream_u64(42, 50)
    for i, bound in enumerate(range(1, 51)):
        assert g.below(bound) == (int(raw[i]) * bound) >> 64


@given(st.integers(min_value=0, max_value=MASK), st.integers(min_value=1, max_value=1 << 63))
def test_below_in_range(seed, bound):
    assert 0 <= SplitMix64(seed).below(bound) < bound


# Sizes at the edges of the draw blocks: none, a partial first block, one
# full block, and a partial block after one or two full ones.
BLOCK_EDGE_SIZES = [0, 1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 3]


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
@pytest.mark.parametrize("bound", [1, (1 << 32) - 1])
@pytest.mark.parametrize("seed", [0, MASK])
def test_draws_below_matches_the_scalar_generator(size, bound, seed):
    bounds = np.full(size, bound, dtype=np.int64)
    g = SplitMix64(seed)
    got = rng._draws_below(seed, bounds)
    assert got.dtype == np.int64 and got.shape == (size,)
    assert got.tolist() == [g.below(bound) for _ in range(size)]


def test_draws_below_mixed_bounds_and_validation():
    # Bounds that change inside and across blocks, read in order.
    size = 2 * _DRAW_BLOCK + 3
    bounds = np.arange(size, dtype=np.int64) % 300 + 1
    bounds[_DRAW_BLOCK - 2:_DRAW_BLOCK + 2] = (1 << 32) - 1
    kept = bounds.copy()
    g = SplitMix64(0x5EED)
    assert rng._draws_below(0x5EED, bounds).tolist() == [g.below(int(b)) for b in bounds.tolist()]
    assert np.array_equal(bounds, kept)
    with pytest.raises(ValueError):
        rng._draws_below(MASK + 1, bounds)


def test_mul_high_rejects_wide_bounds():
    # _mul_high_into is exact only for bounds below 2**32; _draws_below
    # checks them before any draw, as the old mul_high wrapper did.
    for wide in (np.array([1, 1 << 32], dtype=np.int64), np.array([MASK], dtype=np.uint64),
                 np.array([1, -1], dtype=np.int64)):
        with pytest.raises(ValueError):
            rng._draws_below(0, wide)
    assert rng._draws_below(0, np.array([], dtype=np.uint64)).size == 0


def test_mul_high_matches_python_ints():
    edges_x = [MASK, MASK - 1, 1 << 63, (1 << 63) - 1, (1 << 32) - 1, 1 << 32, 0]
    edges_b = [1, 2, 255, 256, (1 << 31) + 1, (1 << 32) - 2, (1 << 32) - 1]
    cases = [
        (stream_u64(9, 200), np.arange(1, 201, dtype=np.uint64)),
        (np.array(edges_x * len(edges_b), dtype=np.uint64),
         np.repeat(np.array(edges_b, dtype=np.uint64), len(edges_x))),
        (stream_u64(11, 1000), (stream_u64(12, 1000) >> np.uint64(32)) | np.uint64(1)),
    ]
    for xs, bounds in cases:
        # As _draws_below calls it: x is also the low scratch buffer, and the
        # high words land in an int64 array.
        low = xs.copy()
        got = rng._mul_high_into(low, bounds, np.empty_like(low), low, np.empty(xs.shape, dtype=np.int64))
        for x, b, g in zip(xs.tolist(), bounds.tolist(), got.tolist()):
            assert g == (x * b) >> 64


def test_permutation_is_bijection():
    p = permutation(100, 7)
    assert sorted(p.tolist()) == list(range(100))


def test_permutation_matches_shuffle_method():
    for n, seed in [(1, 0), (2, 3), (17, 99), (256, 0xABCDEF)]:
        assert permutation(n, seed).tolist() == _shuffled(n, seed)


# Sizes straddling the window floor: one round holds every step, or the
# tail needs a second or third slice; then n - 1 draws that end just short
# of, at, or just past the first draw block.
WINDOW_AND_BLOCK_SIZES = [1000, WINDOW_FLOOR - 1, WINDOW_FLOOR, WINDOW_FLOOR + 1,
                          2 * WINDOW_FLOOR + 1, 4097, _DRAW_BLOCK, _DRAW_BLOCK + 1,
                          _DRAW_BLOCK + 2, 50_000, 200_000]
ITEM_DTYPES = [np.uint8, np.uint32, np.int64]
SEEDS = [0, MASK, 0x5EED_1234_ABCD_0042]


def _items(n, dtype):
    """n items of `dtype` spread over its whole range, repeats included."""
    info = np.iinfo(dtype)
    return np.random.default_rng(n).integers(info.min, info.max, n, dtype=dtype, endpoint=True)


def _check_array_shuffle(x, seed):
    kept = x.copy()
    got = permutation(x, seed)
    assert got.dtype == x.dtype and got.shape == x.shape
    # _unpermute replays the rounds in reverse: every item goes back, and
    # neither call touches its input.
    back = rng._unpermute(got, seed)
    assert back.dtype == x.dtype and np.array_equal(back, x)
    assert np.array_equal(got, x[permutation(x.size, seed)])
    assert np.array_equal(x, kept)


@pytest.mark.parametrize("n", WINDOW_AND_BLOCK_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_matches_shuffle_large(n, seed):
    got = permutation(n, seed)
    assert got.dtype == np.int64
    assert got.tolist() == _shuffled(n, seed)


@pytest.mark.parametrize("n", [0, 1] + WINDOW_AND_BLOCK_SIZES)
@pytest.mark.parametrize("dtype", ITEM_DTYPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_of_an_array_moves_its_items(n, dtype, seed):
    # The swaps move the items themselves: the result is x gathered through
    # the index permutation, in x's dtype, and x is left as it was.
    _check_array_shuffle(_items(n, dtype), seed)


def test_permutation_of_an_array_is_a_copy():
    x = np.arange(5, dtype=np.uint8)
    for n in (0, 1, 5):
        assert not np.shares_memory(permutation(x[:n], 3), x)
    items = [7, 9, 11, 13]
    assert permutation(items, 5).tolist() == [items[k] for k in _shuffled(4, 5)]


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=MASK))
def test_permutation_matches_shuffle_any_seed(n, seed):
    assert permutation(n, seed).tolist() == _shuffled(n, seed)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=MASK),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=8))
def test_permutation_tiny_windows(n, seed, floor, divisor):
    # Windows of a few steps run many rounds even at small n, so losers are
    # carried into window after window and the tail is refilled each round.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "WINDOW_FLOOR", floor)
        mp.setattr(rng, "WINDOW_DIVISOR", divisor)
        got = permutation(n, seed)
        for dtype in ITEM_DTYPES:
            _check_array_shuffle(_items(n, dtype), seed)
    assert got.dtype == np.int64
    assert got.tolist() == _shuffled(n, seed)


def test_permutation_peak_memory():
    # The output, the descending steps, their draws and the reservation
    # table are four n-element int64 arrays; the draws are made a block at
    # a time, so no stream-sized temporary adds to them.
    n = 379_541
    tracemalloc.start()
    try:
        permutation(n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * n


def test_permutation_smallest_sizes():
    assert permutation(0, 1).tolist() == []
    assert permutation(1, 1).tolist() == [0]


def test_different_seeds_differ():
    assert permutation(64, 1).tolist() != permutation(64, 2).tolist()
    assert stream_u64(1, 8).tolist() != stream_u64(2, 8).tolist()
