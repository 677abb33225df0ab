"""Exhaustive pattern codebook: 65536 block patterns grouped by complex value.

Each of the 6561 coefficient vectors owns a group of 2**z patterns, where z
is its number of zero coefficients (each zero pair may be both-OFF or
both-ON).  Group sizes are therefore exact powers of two and every group
hides floor(log2(size)) = z bits of choice.  Patterns inside a group are
kept in ascending 16-bit code order, which puts the fewest-mirrors-ON
pattern first and the most-ON pattern last.
"""

from __future__ import annotations

import numpy as np

from .rng import mul_high, stream_u64
from .superpixel import (
    DEFAULT_ASSIGNMENT,
    MAX_MODULUS,
    PAIR_PHASORS,
    PAIRS,
    PATTERN_COUNT,
    PhaseAssignment,
    VALUE_COUNT,
)

STRATEGIES = ("random", "min", "max")

# Bucket grid of the nearest-value search: the cell method of Bentley, Weide
# & Yao, "Optimal expected-time algorithms for closest-point problems", ACM
# TOMS 1980.  Square cells of side GRID_STEP tile |re|, |im| <=
# GRID_HALF_CELLS * GRID_STEP, which holds the disk |t| <= MAX_MODULUS that
# normalized fields fill.
GRID_STEP = 0.05
GRID_HALF_CELLS = int(np.ceil(MAX_MODULUS / GRID_STEP))
GRID_CELLS = 2 * GRID_HALF_CELLS
# Pass 1 pairs every value with the cells whose centre lies within NEAR_REACH
# of it; pass 2 pairs the values near the rim with the cells pass 1 left
# open, within RIM_REACH.  Both are pinned for the default codebook by a
# brute-force test.
NEAR_REACH = 0.3
RIM_REACH = 0.6
# Margin over float rounding in every distance of the build and the query.
GRID_TOLERANCE = 1e-9
QUERY_CHUNK = 8192          # targets per grid query; temporaries stay at a few MB
SCAN_ELEMENTS = 1 << 18     # targets x values per chunk of the linear scan


class Codebook:
    """Lookup tables over the full pattern space for one phase assignment."""

    def __init__(self, values, capacities, patterns_sorted, group_starts,
                 group_of_pattern, position_of_pattern):
        self.values = values                        # (6561,) complex128
        self.capacities = capacities                # (6561,) int64
        self.patterns_sorted = patterns_sorted      # (65536,) uint16, grouped
        self.group_starts = group_starts            # (6562,) int64 prefix offsets
        self.group_of_pattern = group_of_pattern    # (65536,) int64
        self.position_of_pattern = position_of_pattern  # (65536,) int64
        self.group_sizes = np.diff(group_starts)
        self._grid = None                           # (cells, K) candidate table, built on first use

    def nearest_values(self, targets: np.ndarray) -> np.ndarray:
        """Index of the nearest value to each target of an arbitrary-shape complex array.

        Exact: the result, ties included, is _scan_nearest's for every
        target, the first argmin of np.abs(values - t), so ties resolve to
        the smallest canonical index.  A bucket grid, built on the first
        call (_candidate_grid), lists for each square cell every value that
        can be nearest to a point of the cell.  With c the cell centre, r its half diagonal and
        U the distance from c to its nearest value u, the nearest value v to
        a target t in the cell has |v - t| <= |u - t| <= U + r, so
        |v - c| <= U + 2r.  The cell lists every value within U + 2r + 1e-9
        of c; any other value is more than 1e-9 farther from t than u, which
        no rounding can close.  The candidates, sorted by index, are ranked
        with _scan_nearest's own arithmetic, np.abs(values - t), and the
        first minimum wins, so the smallest-canonical-index tie rule holds.
        Every target costs the same K distances (22 for the default
        codebook), near-ties included.

        A target outside the grid, or in a cell the build left unresolved,
        is ranked against every value by _scan_nearest:
        len(values) distances each, about 60 times a grid query (for the
        default codebook about 30 us against 0.5 us per target on a 2-core
        x86 host).  For the default codebook every cell meeting
        |t| <= MAX_MODULUS is resolved, so normalized fields never take it.
        """
        t = np.asarray(targets, dtype=np.complex128)
        if not np.all(np.isfinite(t)):
            raise ValueError("quantization targets must be finite")
        if self._grid is None:
            self._grid = _candidate_grid(self.values)
        flat = t.ravel()
        out = np.empty(flat.size, dtype=np.int64)
        for lo in range(0, flat.size, QUERY_CHUNK):
            out[lo:lo + QUERY_CHUNK] = self._nearest_in_grid(flat[lo:lo + QUERY_CHUNK])
        return out.reshape(t.shape)

    def _nearest_in_grid(self, t: np.ndarray) -> np.ndarray:
        x = t.real / GRID_STEP + GRID_HALF_CELLS
        y = t.imag / GRID_STEP + GRID_HALF_CELLS
        inside = (x >= 0) & (x < GRID_CELLS) & (y >= 0) & (y < GRID_CELLS)
        cell = np.where(inside, x, 0).astype(np.int64) * GRID_CELLS + np.where(inside, y, 0).astype(np.int64)
        cand = self._grid[cell].astype(np.intp)  # an intp index gathers about 3x faster
        ok = inside & (cand[:, 0] >= 0)
        if not ok.all():
            out = np.empty(t.size, dtype=np.int64)
            out[~ok] = _scan_nearest(self.values, t[~ok])
            out[ok] = self._nearest_in_grid(t[ok])
            return out
        first = np.argmin(np.abs(self.values[cand] - t[:, None]), axis=1)
        return cand[np.arange(t.size), first]


def _scan_nearest(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """First argmin of np.abs(values - t) for each target: the exact linear scan."""
    rows = max(1, SCAN_ELEMENTS // values.size)
    out = np.empty(targets.size, dtype=np.int64)
    for lo in range(0, targets.size, rows):
        chunk = targets[lo:lo + rows]
        out[lo:lo + rows] = np.argmin(np.abs(values[None, :] - chunk[:, None]), axis=1)
    return out


def _cell_pairs(v: np.ndarray, reach: float):
    """(cell, position in v, squared distance) of every cell centre within reach of a value.

    Yields one batch per row offset of the (2w+1)^2 window around each
    value's own cell, so the temporaries stay at len(v) x (2w+1).
    """
    w = int(np.ceil(reach / GRID_STEP))
    offsets = np.arange(-w, w + 1)
    x = v.real / GRID_STEP + GRID_HALF_CELLS
    y = v.imag / GRID_STEP + GRID_HALF_CELLS
    ii = np.floor(x).astype(np.int64)[:, None] + offsets
    jj = np.floor(y).astype(np.int64)[:, None] + offsets
    dx2 = ((ii + 0.5 - x[:, None]) * GRID_STEP) ** 2
    dy2 = ((jj + 0.5 - y[:, None]) * GRID_STEP) ** 2
    dx2[(ii < 0) | (ii >= GRID_CELLS)] = np.inf
    dy2[(jj < 0) | (jj >= GRID_CELLS)] = np.inf
    jflat = jj.ravel()
    for a in range(offsets.size):
        d2 = (dx2[:, a, None] + dy2).ravel()
        hit = np.flatnonzero(d2 <= reach * reach)
        pos = hit // offsets.size
        yield ii[pos, a] * GRID_CELLS + jflat[hit], pos, d2[hit]


def _resolve(v: np.ndarray, reach: float, open_cells: np.ndarray):
    """Cells of open_cells whose candidates all lie within reach, and those (cell, position) pairs.

    U is the distance from the cell centre to its nearest value in v.  Every
    value that can be nearest to a point of the cell lies within U + 2r of
    the centre (r: the half diagonal), so a cell is resolved when that bound
    plus GRID_TOLERANCE stays within reach and every value of v it covers
    has been seen.
    """
    nearest2 = np.full(GRID_CELLS * GRID_CELLS, np.inf)
    for cell, _, d2 in _cell_pairs(v, reach):
        np.minimum.at(nearest2, cell, d2)
    bound = np.sqrt(nearest2) + GRID_STEP * np.sqrt(2) + GRID_TOLERANCE
    resolved = open_cells & (bound <= reach)
    limit2 = np.where(resolved, bound * bound, -1.0)
    cells, positions = [], []
    for cell, pos, d2 in _cell_pairs(v, reach):
        keep = d2 <= limit2[cell]
        cells.append(cell[keep])
        positions.append(pos[keep])
    return resolved, np.concatenate(cells), np.concatenate(positions)


def _candidate_grid(values: np.ndarray) -> np.ndarray:
    """(GRID_CELLS**2, K) table: each cell's candidate value indices, ascending.

    Rows are padded with their last (largest) index, which leaves the first
    argmin unchanged; a row of -1 marks a cell neither pass resolved.  Pass 2
    takes only the values with |v| >= min |c| - RIM_REACH over the open
    cells c, so any other value is farther than RIM_REACH from each of them.
    """
    n = GRID_CELLS * GRID_CELLS
    resolved, cells, index = _resolve(values, NEAR_REACH, np.ones(n, dtype=bool))
    if not resolved.all():
        centre = (np.arange(GRID_CELLS) - GRID_HALF_CELLS + 0.5) * GRID_STEP
        modulus = np.hypot(centre[:, None], centre[None, :]).ravel()
        rim = np.flatnonzero(np.abs(values) >= modulus[~resolved].min() - RIM_REACH)
        rim_resolved, rim_cells, rim_pos = _resolve(values[rim], RIM_REACH, ~resolved)
        resolved |= rim_resolved
        cells = np.concatenate([cells, rim_cells])
        index = np.concatenate([index, rim[rim_pos]])
    key = np.sort(cells * values.size + index)
    cells, index = key // values.size, key % values.size
    counts = np.bincount(cells, minlength=n)
    starts = np.cumsum(counts) - counts
    table = np.full((n, max(1, counts.max())), -1, dtype=np.min_scalar_type(-values.size))
    table[resolved] = index[(starts + counts - 1)[resolved], None]
    table[cells, np.arange(cells.size) - starts[cells]] = index
    return table


def pick_in_groups(sizes: np.ndarray, strategy: str, seed: int | None = None) -> np.ndarray:
    """Position of the chosen pattern inside each group of a 1-D array of sizes.

    "min" takes position 0 (fewest mirrors ON), "max" the last position
    (most ON), and "random" one bounded SplitMix64(seed) draw per group in
    array order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    sizes = np.asarray(sizes, dtype=np.int64)
    if strategy == "min":
        return np.zeros(sizes.shape, dtype=np.int64)
    if strategy == "max":
        return sizes - 1
    if seed is None:
        raise ValueError("random selection needs a key seed")
    return mul_high(stream_u64(seed, sizes.size), sizes).astype(np.int64)


def build_codebook(assignment: PhaseAssignment | None = None) -> Codebook:
    """Enumerate all 65536 patterns into their 6561 value groups.

    Fully vectorized; runs in well under a second so no cache is kept
    between runs.
    """
    assignment = assignment or DEFAULT_ASSIGNMENT

    codes = np.arange(PATTERN_COUNT, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(16, dtype=np.uint32)) & 1).astype(np.int8)
    # Column j of on_by_pair is the ON state of phase j+1; +8 columns follow.
    order = assignment.bit_by_index[1:]          # bit position of each phase 1..16
    on_by_phase = bits[:, order]
    trits = on_by_phase[:, :PAIRS] - on_by_phase[:, PAIRS:]
    powers = 3 ** np.arange(PAIRS, dtype=np.int64)
    group_idx = ((trits.astype(np.int64) + 1) * powers).sum(axis=1)

    # Stable sort keeps ascending code order inside each group.
    order_by_group = np.argsort(group_idx, kind="stable")
    patterns_sorted = codes[order_by_group].astype(np.uint16)
    counts = np.bincount(group_idx, minlength=VALUE_COUNT)
    group_starts = np.zeros(VALUE_COUNT + 1, dtype=np.int64)
    np.cumsum(counts, out=group_starts[1:])

    position = np.empty(PATTERN_COUNT, dtype=np.int64)
    position[order_by_group] = np.arange(PATTERN_COUNT) - np.repeat(group_starts[:-1], counts)

    digits = np.arange(VALUE_COUNT, dtype=np.int64)
    coeff_table = np.empty((VALUE_COUNT, PAIRS), dtype=np.int8)
    for j in range(PAIRS):
        coeff_table[:, j] = digits % 3 - 1
        digits //= 3
    values = coeff_table.astype(np.float64) @ PAIR_PHASORS

    capacities = np.count_nonzero(coeff_table == 0, axis=1).astype(np.int64)

    return Codebook(
        values=values,
        capacities=capacities,
        patterns_sorted=patterns_sorted,
        group_starts=group_starts,
        group_of_pattern=group_idx,
        position_of_pattern=position,
    )
