"""Codebook structure and quantizer tests.

The quantizer oracle used here is the plainest possible rule: compute
|values - t| for all 6561 entries and take the first argmin.  Every
vectorized path must agree with it exactly.
"""

import functools
import hashlib
import io
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Voronoi, cKDTree

from dmdstego import codebook as codebook_module
from dmdstego.codebook import (
    GRID_CELLS,
    GRID_HALF_CELLS,
    GRID_STEP,
    GRID_TOLERANCE,
    QUERY_CHUNK,
    _grid_cells,
    _shipped_grid,
    build_codebook,
)
from dmdstego.modulator import normalize_field
from dmdstego.optics import PropagationParams, generate_hologram
from dmdstego.superpixel import (
    BLOCK,
    MAX_MODULUS,
    PATTERN_COUNT,
    VALUE_COUNT,
    PhaseAssignment,
)

from scalar_reference import (
    canonical_index,
    codebook_tables,
    coeffs_from_index,
    coeffs_to_value,
    grid_table,
    group_patterns,
    pattern_to_coeffs,
    pattern_to_value,
    scan_nearest,
)


# Most candidates any cell of the default codebook's grid may list; every
# target then costs at most this many distances.  The shipped table lists 7.
MAX_CANDIDATES = 7

# The quantizer's refusal of a target off the grid names the bound and the cure.
HALF = GRID_HALF_CELLS * GRID_STEP
REFUSAL = re.escape(f"[-{HALF:g}, {HALF:g})") + ".*normalize_field"


def scan_nearest_all(values, targets):
    return np.concatenate([
        np.argmin(np.abs(values[None, :] - chunk[:, None]), axis=1)
        for chunk in np.array_split(targets, targets.size // 256 + 1)
    ])


def nearest_by_tree(values, targets, k=16, chunk=1 << 15):
    """scan_nearest_all's answer, ranked over each target's k nearest values only.

    cKDTree gives the k nearest; sorted by index and ranked with the scan's
    own np.abs(values - t), their first minimum is the scan's whenever the
    k-th lies farther than that minimum by more than any rounding, which is
    asserted.
    """
    tree = cKDTree(np.column_stack([values.real, values.imag]))
    out = np.empty(targets.size, dtype=np.int64)
    for lo in range(0, targets.size, chunk):
        t = targets[lo:lo + chunk]
        farthest, index = tree.query(np.column_stack([t.real, t.imag]), k=k, workers=-1)
        index.sort(axis=1)
        d = np.abs(values[index] - t[:, None])
        best = np.argmin(d, axis=1)
        rows = np.arange(t.size)
        assert np.all(farthest[:, -1] > d[rows, best] + 1e-9)
        out[lo:lo + chunk] = index[rows, best]
    return out


def grid_cells():
    """Centre of every grid cell and the modulus of its point nearest the origin, in table order."""
    lo = (np.arange(GRID_CELLS) - GRID_HALF_CELLS) * GRID_STEP
    centre = lo + GRID_STEP / 2
    gap = np.maximum(0.0, np.maximum(lo, -(lo + GRID_STEP)))
    centres = (centre[:, None] + 1j * centre[None, :]).ravel()
    return centres, np.hypot(gap[:, None], gap[None, :]).ravel()


def same_cell_pairs(cell):
    """Every ordered pair (i, j), i != j, of entries that share a cell; `cell` is sorted."""
    i, j = [], []
    for k in range(1, np.bincount(cell).max()):
        e = np.flatnonzero(cell[k:] == cell[:-k])
        i += [e, e + k]
        j += [e + k, e]
    return np.concatenate(i), np.concatenate(j)


def beaten_in_cell(values, centre, index, nearest):
    """Whether values[nearest] beats values[index] at every point of the cell around centre.

    |p - v|^2 - |p - u|^2 is affine in p, so its least value over the
    square cell is at one of the four corners; u beats v when that least
    value exceeds GRID_TOLERANCE.
    """
    v, u = values[index], values[nearest]
    beaten = True
    for corner in (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j):
        p = centre + corner * GRID_STEP / 2
        beaten = beaten & (np.abs(p - v) ** 2 - np.abs(p - u) ** 2 > GRID_TOLERANCE)
    return beaten


def test_census(codebook):
    assert codebook.values.shape == (VALUE_COUNT,)
    sizes = codebook.group_sizes
    assert sizes.sum() == PATTERN_COUNT
    zeros = np.array([8 - np.count_nonzero(coeffs_from_index(i)) for i in range(VALUE_COUNT)], dtype=np.int64)
    assert np.array_equal(sizes, 1 << zeros)
    assert np.array_equal(codebook.capacities, zeros)


def test_values_pairwise_distinct(codebook):
    pts = np.column_stack([codebook.values.real, codebook.values.imag])
    d, _ = cKDTree(pts).query(pts, k=2, workers=-1)
    assert d[:, 1].min() > 1e-9


def test_values_indexed_by_canonical_index(codebook):
    rng = np.random.default_rng(3)
    for idx in rng.integers(0, VALUE_COUNT, 50):
        coeffs = coeffs_from_index(int(idx))
        assert canonical_index(coeffs) == idx
        assert codebook.values[idx] == pytest.approx(coeffs_to_value(coeffs), abs=1e-12)


def test_values_table_digest(codebook):
    # SHA-256 of the table as `coeff_table @ PAIR_PHASORS` built it through
    # numpy 2.4's bundled OpenBLAS, before an explicit sum in that order replaced it.
    digest = hashlib.sha256(codebook.values.astype("<c16").tobytes()).hexdigest()
    assert digest == "37cd4ff513cf2d5aa3e8f1a8b87742b3dab5275836a16a3d97285fafe1ecc785"


def test_groups_partition_patterns(codebook):
    assert codebook.patterns_sorted.shape == (PATTERN_COUNT,)
    assert np.unique(codebook.patterns_sorted).size == PATTERN_COUNT
    starts = codebook.group_starts
    assert starts[0] == 0 and starts[-1] == PATTERN_COUNT
    assert np.all(np.diff(starts) >= 1)


def test_group_membership_consistent(codebook):
    rng = np.random.default_rng(4)
    for code in rng.integers(0, PATTERN_COUNT, 200):
        g = int(codebook.group_of_pattern[code])
        val = pattern_to_value(int(code))
        assert val == pytest.approx(codebook.values[g], abs=1e-9)
        pos = int(codebook.position_of_pattern[code])
        lo = codebook.group_starts[g]
        assert codebook.patterns_sorted[lo + pos] == code


def test_patterns_ascending_within_group(codebook):
    for idx in (0, 3280, 6560, 1234):
        pats = group_patterns(codebook, idx)
        assert np.all(np.diff(pats.astype(np.int64)) > 0)


def test_capacity_of_pattern_is_its_groups_capacity(codebook):
    table = codebook.capacity_of_pattern
    assert table.dtype == np.uint8 and table.shape == (PATTERN_COUNT,)
    assert np.array_equal(table, codebook.capacities[codebook.group_of_pattern])


@pytest.mark.parametrize("text", [None, "3,9,1,16,5,12,7,2,14,10,4,8,11,6,15,13"])
def test_one_mirror_flip_moves_capacity_by_exactly_one(text):
    # A pattern's capacity counts its balanced pairs, phases k and k+8 both
    # ON or both OFF.  One flipped mirror unbalances or balances exactly one
    # pair, so a damaged pattern always changes its capacity, and with it
    # every later bit offset of the stream.
    cb = build_codebook(PhaseAssignment.from_string(text) if text else None)
    capacity = cb.capacity_of_pattern.astype(np.int64)
    codes = np.arange(PATTERN_COUNT)
    flipped = codes[:, None] ^ (1 << np.arange(BLOCK * BLOCK))
    change = capacity[flipped] - capacity[:, None]
    assert np.count_nonzero(change == 1) == np.count_nonzero(change == -1) == PATTERN_COUNT * 8
    assert np.all(np.abs(change) == 1)


def test_zero_group(codebook):
    idx = scan_nearest(codebook, 0j)
    assert idx == 3280
    assert group_patterns(codebook, idx).size == 256
    assert codebook.capacities[idx] == 8
    assert abs(codebook.values[idx]) < 1e-12


def test_famous_32_pattern_group(codebook):
    target = (1 + np.sqrt(2)) * np.exp(1j * np.pi / 4)
    idx = scan_nearest(codebook, target)
    patterns = group_patterns(codebook, idx)
    assert codebook.values[idx] == pytest.approx(target, abs=1e-9)
    assert patterns.size == 32
    assert codebook.capacities[idx] == 5
    for phases in ({2, 4, 16}, {2, 4, 6, 14, 16}):
        code = sum(1 << (k - 1) for k in phases)
        assert code in patterns
    pops = [bin(int(p)).count("1") for p in patterns]
    assert min(pops) == 3 and max(pops) == 13


def test_min_max_popcount_law(codebook):
    starts = codebook.group_starts
    pats = codebook.patterns_sorted
    z = codebook.capacities
    mins = pats[starts[:-1]]
    maxs = pats[starts[1:] - 1]
    popcount = np.unpackbits(mins.view(np.uint8).reshape(-1, 2), axis=1).sum(axis=1)
    assert np.array_equal(popcount, 8 - z)
    popcount = np.unpackbits(maxs.view(np.uint8).reshape(-1, 2), axis=1).sum(axis=1)
    assert np.array_equal(popcount, 8 + z)


def test_max_modulus_value_present(codebook):
    assert np.abs(codebook.values).max() == pytest.approx(MAX_MODULUS, abs=1e-12)


def test_nearest_value_idempotent_on_exact_values(codebook):
    rng = np.random.default_rng(5)
    idxs = rng.integers(0, VALUE_COUNT, 300)
    for idx in idxs:
        assert codebook.nearest_values(codebook.values[idx]) == idx
    assert np.array_equal(codebook.nearest_values(codebook.values[idxs]), idxs)


def test_nearest_values_matches_scan_oracle(codebook):
    # Targets on the grid take the scalar scan's answer; a batch holding one
    # off it (|re| or |im| >= 5.15, a few of these) is refused.
    rng = np.random.default_rng(6)
    pts = rng.normal(scale=2.5, size=400) + 1j * rng.normal(scale=2.5, size=400)
    on_grid = reference_grid_cells(pts)[0]
    assert 0 < np.count_nonzero(~on_grid) < 40
    with pytest.raises(ValueError, match=REFUSAL):
        codebook.nearest_values(pts)
    for t in pts[~on_grid]:
        with pytest.raises(ValueError, match=REFUSAL):
            codebook.nearest_values(t)
    pts = pts[on_grid]
    expected = np.array([scan_nearest(codebook, t) for t in pts])
    assert np.array_equal(codebook.nearest_values(pts), expected)
    for t, e in zip(pts[:50], expected[:50]):
        assert codebook.nearest_values(t) == e


def test_nearest_value_ties_take_smallest_index(codebook):
    # Midpoints of nearest-neighbour value pairs are 2-way ties and
    # Voronoi vertices 3-way or wider ones (some values are cocircular);
    # both kinds inside the working disk must follow the first-argmin rule.
    pts = np.column_stack([codebook.values.real, codebook.values.imag])
    _, nn = cKDTree(pts).query(pts, k=2, workers=-1)
    mids = (codebook.values + codebook.values[nn[:, 1]]) / 2
    vertices = Voronoi(pts).vertices
    targets = np.concatenate([mids, vertices[:, 0] + 1j * vertices[:, 1]])
    targets = targets[np.abs(targets) <= 0.8 * MAX_MODULUS]
    expected = np.concatenate([
        np.argmin(np.abs(codebook.values[None, :] - chunk[:, None]), axis=1)
        for chunk in np.array_split(targets, targets.size // 256 + 1)
    ])
    assert np.array_equal(codebook.nearest_values(targets), expected)
    for t, e in zip(targets[::97], expected[::97]):
        assert codebook.nearest_values(t) == e


def test_shipped_grid_matches_the_generator(codebook):
    # The package's table files are the brute-force generator's output, byte
    # for byte (regenerate: PYTHONPATH=src python tests/scalar_reference.py).
    here = os.path.dirname(codebook_module.__file__)
    for name, array in zip(codebook_module._GRID_FILES, grid_table(codebook.values)):
        saved = io.BytesIO()
        np.save(saved, array)
        with open(os.path.join(here, name), "rb") as f:
            assert f.read() == saved.getvalue(), name


def test_grid_resolves_the_whole_disk(codebook):
    # Every cell of the grid, and so every cell a normalized field can reach
    # (alpha <= 1), has its candidate list, so CLI input never falls back to
    # the linear scan, and no cell lists more than MAX_CANDIDATES values.
    candidates, starts = _shipped_grid()
    counts = np.diff(starts)
    assert counts.size == GRID_CELLS ** 2
    assert counts.min() >= 1 and counts.max() <= MAX_CANDIDATES
    assert candidates.min() >= 0 and candidates.max() < VALUE_COUNT


def test_grid_reach_constants_by_brute_force(codebook):
    # From each cell centre c, every value that can be nearest to a point of
    # the cell lies within U + 2r (U: distance to the nearest value, r: half
    # diagonal).  Each cell lists, ascending, exactly the values within that
    # bound that no other value within it beats at every point of the cell.
    centres, _ = grid_cells()
    tree = cKDTree(np.column_stack([codebook.values.real, codebook.values.imag]))
    c = np.column_stack([centres.real, centres.imag])
    u, _ = tree.query(c, workers=-1)
    within = tree.query_ball_point(c, u + GRID_STEP * np.sqrt(2) + GRID_TOLERANCE, workers=-1)
    cell = np.repeat(np.arange(centres.size), [len(w) for w in within])
    index = np.concatenate(within).astype(np.int64)
    i, j = same_cell_pairs(cell)
    beaten = beaten_in_cell(codebook.values, centres[cell[i]], index[i], index[j])
    kept = np.bincount(i[beaten], minlength=cell.size) == 0
    candidates, starts = _shipped_grid()
    listed = np.repeat(np.arange(centres.size), np.diff(starts)) * VALUE_COUNT + candidates
    assert np.array_equal(listed, np.unique((cell * VALUE_COUNT + index)[kept]))
    assert 0.15 < 1 - np.mean(kept) < 0.3     # share of the within-bound values dropped


def test_grid_lists_are_minimal(codebook):
    # No listed value is beaten at all four corners of its cell by another
    # value its cell lists, so every candidate can win somewhere in the
    # cell, up to GRID_TOLERANCE.  Lists pruned against the centre's nearest
    # value alone keep values that a third one beats.
    candidates, starts = _shipped_grid()
    centres, _ = grid_cells()
    cell = np.repeat(np.arange(centres.size), np.diff(starts))
    i, j = same_cell_pairs(cell)
    assert i.size > 0.2 * cell.size
    assert not np.any(beaten_in_cell(codebook.values, centres[cell[i]], candidates[i], candidates[j]))


def test_grid_starts_delimit_ascending_runs():
    # Cell i lists candidates[starts[i]:starts[i + 1]], ascending, so a query
    # ranks a cell's candidates by stepping one entry on.  The table is shared
    # by every codebook, so it is read-only, and it stays small.
    candidates, starts = _shipped_grid()
    assert not candidates.flags.writeable and not starts.flags.writeable
    assert candidates.dtype == np.int16 and candidates.ndim == 1
    assert starts.dtype == np.int32 and starts.shape == (GRID_CELLS ** 2 + 1,)
    assert starts[0] == 0 and starts[-1] == candidates.size
    assert np.all(np.diff(starts) > 0)
    cell = np.repeat(np.arange(GRID_CELLS ** 2), np.diff(starts))
    step = np.diff(candidates.astype(np.int64))
    assert np.all(step[cell[1:] == cell[:-1]] > 0)
    assert candidates.nbytes + starts.nbytes < 1.2e6


def test_ragged_ranking_in_one_chunk(codebook):
    # One chunk mixes targets in cells that list a single candidate, targets
    # in the cells that list the most (some of them nearest to the last
    # candidate, which only the deepest rank reaches) and exact ties, where
    # only a strict comparison keeps the first minimum.  Shuffled, so the
    # count ordering inside the chunk has work to do.
    centres, _ = grid_cells()
    candidates, starts = _shipped_grid()
    counts = np.diff(starts)
    rng = np.random.default_rng(31)

    def inside(cells, per_cell):
        jitter = rng.uniform(-1, 1, (cells.size, per_cell)) + 1j * rng.uniform(-1, 1, (cells.size, per_cell))
        return (centres[cells, None] + jitter * (GRID_STEP / 2 * (1 - 1e-12))).ravel()

    widest_cells = np.flatnonzero(counts == counts.max())
    widest = inside(widest_cells, 200)
    single = inside(rng.choice(np.flatnonzero(counts == 1), 1500), 1)
    diagonal = np.linspace(-MAX_MODULUS, MAX_MODULUS, 6001) * (1 + 1j) / np.sqrt(2)
    tied = np.concatenate([
        np.count_nonzero(d == d.min(axis=1, keepdims=True), axis=1) >= 2
        for d in (np.abs(codebook.values[None, :] - chunk[:, None])
                  for chunk in np.array_split(diagonal, 24))])
    assert np.count_nonzero(tied) > 300
    pool = np.concatenate([widest, single, diagonal[tied]])
    assert pool.size <= QUERY_CHUNK
    expected = scan_nearest_all(codebook.values, pool)
    order = rng.permutation(pool.size)
    assert np.array_equal(codebook.nearest_values(pool[order]), expected[order])
    last = candidates[np.repeat(starts[widest_cells + 1] - 1, 200)]
    assert np.any(expected[:widest.size] == last)


def test_nearest_values_ties_on_the_whole_disk(codebook):
    # Nearest-pair midpoints (2-way ties), Voronoi vertices (3-way or wider)
    # and a sample of the corners and edge midpoints of the grid cells, over
    # the whole alpha = 1 disk where the rim cells are.
    pts = np.column_stack([codebook.values.real, codebook.values.imag])
    _, nn = cKDTree(pts).query(pts, k=2, workers=-1)
    mids = (codebook.values + codebook.values[nn[:, 1]]) / 2
    vertices = Voronoi(pts).vertices
    edges = (np.arange(2 * GRID_CELLS + 1) / 2 - GRID_HALF_CELLS) * GRID_STEP
    lattice = np.random.default_rng(9).choice((edges[:, None] + 1j * edges[None, :]).ravel(), 4000)
    targets = np.concatenate([mids, vertices[:, 0] + 1j * vertices[:, 1], lattice])
    targets = targets[np.abs(targets) <= MAX_MODULUS]
    assert targets.size > 2 * QUERY_CHUNK
    assert np.array_equal(codebook.nearest_values(targets), scan_nearest_all(codebook.values, targets))


@functools.lru_cache(maxsize=1)
def benchmark_fields():
    """Normalized holograms of the benchmark's two frames, as its workloads make them.

    desk_cli: 128x128 superpixels at 5 cm from an 8-bit object image;
    full_frame: 270x480 superpixels at 20 cm from the float object.  The
    object has vertical bars, a bright disk and a gradient patch.
    """
    fields = []
    for (h, w), distance, eight_bit in (((128, 128), 0.05, True), ((270, 480), 0.2, False)):
        ho, wo = 2 * h, 2 * w
        y, x = np.mgrid[0:ho, 0:wo]
        obj = np.where((x // max(wo // 16, 1)) % 2 == 0, 0.35, 0.0)
        obj[(x - 0.3 * wo) ** 2 + (y - 0.35 * ho) ** 2 < (0.18 * min(ho, wo)) ** 2] = 1.0
        r0, r1, c0, c1 = int(0.55 * ho), int(0.9 * ho), int(0.55 * wo), int(0.9 * wo)
        obj[r0:r1, c0:c1] = np.linspace(0.2, 0.9, c1 - c0)
        if eight_bit:
            obj = np.clip(np.rint(obj * (255.0 / obj.max())), 0, 255).astype(np.uint8)
        params = PropagationParams(520e-9, distance, BLOCK * 7.56e-6)
        fields.append(normalize_field(generate_hologram(obj, params, (h, w), diffuser_seed=0))[0])
    return fields


def test_touched_cells_agree_with_the_scan_at_corners_edges_and_inside(codebook):
    # Every cell the benchmark's fields touch, at its four corners and four
    # edge midpoints (a hair inside, so the cell's own row answers, and
    # exactly on them, where a neighbouring row may) and at a random point.
    # The oracle ranks each target's 16 nearest values, and it is held to the
    # full scan on every 64th target.
    cells = np.unique(np.concatenate([
        np.floor(f.real / GRID_STEP + GRID_HALF_CELLS).astype(np.int64) * GRID_CELLS
        + np.floor(f.imag / GRID_STEP + GRID_HALF_CELLS).astype(np.int64)
        for f in map(np.ravel, benchmark_fields())]))
    assert 14000 < cells.size < 19000
    i, j = np.divmod(cells, GRID_CELLS)
    centres = ((i - GRID_HALF_CELLS + 0.5) + 1j * (j - GRID_HALF_CELLS + 0.5)) * GRID_STEP
    rim = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 1, -1, 1j, -1j])
    # Rim points in half steps from the grid's corner; neighbouring cells share them.
    lattice = np.unique((2 * i + 1 + rim.real[:, None]) * (4 * GRID_CELLS) + (2 * j + 1 + rim.imag[:, None]))
    on_rim = ((lattice // (4 * GRID_CELLS) / 2 - GRID_HALF_CELLS)
              + 1j * (lattice % (4 * GRID_CELLS) / 2 - GRID_HALF_CELLS)) * GRID_STEP
    rng = np.random.default_rng(14)
    inside = rng.uniform(-1, 1, cells.size) + 1j * rng.uniform(-1, 1, cells.size)
    targets = np.concatenate([
        (centres[:, None] + rim * (GRID_STEP / 2 * (1 - 1e-12))).ravel(),
        on_rim,
        centres + inside * GRID_STEP / 2])
    expected = nearest_by_tree(codebook.values, targets)
    assert np.array_equal(expected[::64], scan_nearest_all(codebook.values, targets[::64]))
    assert np.array_equal(codebook.nearest_values(targets), expected)


def test_nearest_values_peak_memory():
    # A warm query of the full-frame field holds its int64 result (8 bytes a
    # target) and, per chunk, one rank's candidates and distances: the peak
    # measured 1.60x the result.  Ranking whole padded rows at once peaked at
    # 4.08x.
    field = benchmark_fields()[1]
    book = build_codebook()
    book.nearest_values(field)
    tracemalloc.start()
    try:
        book.nearest_values(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * 8 * field.size


def test_nearest_values_outside_the_grid(codebook):
    # Targets off the grid are refused, alone and mixed with grid targets in
    # one batch, in any query chunk.  Of the grid's border its lower edges
    # (scaled x or y = 0 exactly) are on the grid and answered; its upper
    # edges (scaled x or y = GRID_CELLS) are off it.
    rng = np.random.default_rng(8)
    far = np.sqrt(2) * HALF * rng.uniform(1, 8, 2000) * np.exp(2j * np.pi * rng.uniform(size=2000))
    side = np.linspace(-HALF, HALF, 101)
    edge = np.concatenate([HALF + 1j * side, side + 1j * HALF, -HALF + 1j * side, side - 1j * HALF])
    outside = np.concatenate([far, edge])
    on_grid = reference_grid_cells(outside)[0]
    lower = outside[on_grid]
    assert np.array_equal(lower, np.concatenate([-HALF + 1j * side[:-1], side[:-1] - 1j * HALF]))
    assert np.array_equal(codebook.nearest_values(lower), scan_nearest_all(codebook.values, lower))
    for t in outside[~on_grid]:
        with pytest.raises(ValueError, match=REFUSAL):
            codebook.nearest_values(t)
    inside = 4 * (rng.uniform(-1, 1, QUERY_CHUNK) + 1j * rng.uniform(-1, 1, QUERY_CHUNK))
    mixed = rng.permutation(np.concatenate([outside, inside])).reshape(-1, 2)
    with pytest.raises(ValueError, match=REFUSAL):
        codebook.nearest_values(mixed)
    for late in (far[0], HALF + 0j, 1j * HALF):
        with pytest.raises(ValueError, match=REFUSAL):
            codebook.nearest_values(np.append(inside, late))


def test_huge_targets_are_refused_without_a_warning(codebook):
    # Scaling a part beyond about 9e306 by 1 / GRID_STEP overflows; such a
    # target is off the grid and must be refused silently.
    huge = np.array([1e308 + 1e308j, -1.7e308 + 0j, 3e307 - 2e307j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (huge, *huge):
            with pytest.raises(ValueError, match=REFUSAL):
                codebook.nearest_values(t)


def reference_grid_cells(t):
    """_grid_cells by its first formula: two np.where of the scaled coordinates, truncated."""
    x = t.real / GRID_STEP + GRID_HALF_CELLS
    y = t.imag / GRID_STEP + GRID_HALF_CELLS
    inside = (x >= 0) & (x < GRID_CELLS) & (y >= 0) & (y < GRID_CELLS)
    cell = np.where(inside, x, 0).astype(np.int64) * GRID_CELLS + np.where(inside, y, 0).astype(np.int64)
    return inside, cell


def test_grid_cells_at_the_grid_edges():
    # Each coordinate runs 64 floats either side of both grid edges, so its
    # scaled value x takes 0 exactly, floats just below 0, GRID_CELLS
    # exactly and the largest float below it; signed zeros and huge values
    # (whose scaled value overflows to inf) go with them.
    parts = [0.0, -0.0, 1e300, -1e300, 1e308, -1e308]
    for edge in (-GRID_HALF_CELLS * GRID_STEP, (GRID_CELLS - GRID_HALF_CELLS) * GRID_STEP):
        below = above = edge
        parts.append(edge)
        for _ in range(64):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            parts += [below, above]
    parts = np.array(parts)
    with np.errstate(over="ignore"):
        x = parts / GRID_STEP + GRID_HALF_CELLS
    assert np.any(x == 0) and np.any((x < 0) & (x > -1e-12))
    assert np.any(x == GRID_CELLS) and np.any(x == np.nextafter(float(GRID_CELLS), 0))
    t = (parts[:, None] + 1j * parts[None, :]).ravel()
    t = np.concatenate([t, np.vectorize(complex)(-0.0, parts), np.vectorize(complex)(parts, -0.0)])
    # The huge values overflow the reference's scaling; _grid_cells gives no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside, cell = _grid_cells(t)
    with np.errstate(over="ignore"):
        want_inside, want_cell = reference_grid_cells(t)
    assert inside.dtype == want_inside.dtype and cell.dtype == want_cell.dtype
    assert np.array_equal(inside, want_inside)
    assert np.array_equal(cell, want_cell)
    assert inside.any() and not inside.all()


def test_nearest_values_rejects_non_finite_targets(codebook):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (complex(np.nan, 0), complex(0, np.inf), np.array([0j, complex(-np.inf, 1)])):
            with pytest.raises(ValueError, match="finite.*" + REFUSAL):
                codebook.nearest_values(bad)


@functools.lru_cache(maxsize=1)
def _shared_codebook():
    return build_codebook()


@settings(max_examples=50, deadline=None)
@given(st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False))
def test_nearest_agrees_with_scan_anywhere(t):
    # On the grid the answer is the scan's; off it (a part beyond 5.15) the target is refused.
    cb = _shared_codebook()
    if reference_grid_cells(np.array([t]))[0][0]:
        assert cb.nearest_values(t) == scan_nearest(cb, t)
        assert cb.nearest_values(np.array([t]))[0] == scan_nearest(cb, t)
    else:
        for query in (t, np.array([t])):
            with pytest.raises(ValueError, match=REFUSAL):
                cb.nearest_values(query)


@pytest.mark.parametrize("text", [None, "16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1",
                                  "3,9,1,16,5,12,7,2,14,10,4,8,11,6,15,13"])
def test_tables_match_the_bit_matrix_oracle(text):
    assignment = PhaseAssignment.from_string(text) if text else None
    cb = build_codebook(assignment)
    for name, expected in codebook_tables(assignment).items():
        got = getattr(cb, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


def test_build_respects_assignment():
    a = PhaseAssignment.from_string("16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1")
    cb = build_codebook(a)
    code = 1  # mirror (0,0): phase 16 under this assignment
    g = int(cb.group_of_pattern[code])
    assert cb.values[g] == pytest.approx(np.exp(1j * 2 * np.pi), abs=1e-12)
    assert canonical_index(pattern_to_coeffs(code, a)) == g


def test_build_time(codebook):
    import time

    t0 = time.time()
    build_codebook()
    assert time.time() - t0 < 1.0
