"""Exhaustive pattern codebook: 65536 block patterns grouped by complex value.

Each of the 6561 coefficient vectors owns a group of 2**z patterns, where z
is its number of zero coefficients (each zero pair may be both-OFF or
both-ON).  Group sizes are therefore exact powers of two and every group
hides floor(log2(size)) = z bits of choice.  Patterns inside a group are
kept in ascending 16-bit code order, which puts the fewest-mirrors-ON
pattern first and the most-ON pattern last.
"""

from __future__ import annotations

import functools

import numpy as np

from .rng import _draws_below
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
# A cell is resolved at the first reach R within which every value that can
# be nearest to a point of the cell lies: FIRST_REACH settles most cells of
# the working disk, NEAR_REACH all of it, RIM_REACH the whole alpha = 1 disk.
# Each reach pairs only the values within R of the cells still open.  All
# three are pinned for the default codebook by a brute-force test.
FIRST_REACH = 0.15
NEAR_REACH = 0.3
RIM_REACH = 0.6
# Row 0 of a grid column: UNBUILT until a query first touches the cell, -1
# (the whole column) if no reach resolves it, else its first candidate.
UNBUILT = -2
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
        # (K, cells) candidate table, one column per cell, built when a query first
        # touches the cell; beside it the number of candidates each built cell lists.
        self._grid = np.full((1, GRID_CELLS * GRID_CELLS), UNBUILT, dtype=np.min_scalar_type(-values.size))
        self._counts = np.zeros(GRID_CELLS * GRID_CELLS, dtype=np.uint8)

    @functools.cached_property
    def capacity_of_pattern(self) -> np.ndarray:
        """(65536,) uint8 capacity of each pattern's group, capacities[group_of_pattern].

        Built on first use, so only `stego.extract` pays for it.
        """
        return self.capacities.astype(np.uint8)[self.group_of_pattern]

    def pattern_codes(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Code of the pattern at each in-group position of each group.

        The one reader of the grouped table: group g's patterns sit in
        patterns_sorted from group_starts[g] on, in ascending code order.
        """
        return self.patterns_sorted[self.group_starts[groups] + positions]

    def nearest_values(self, targets: np.ndarray) -> np.ndarray:
        """Index of the nearest value to each target of an arbitrary-shape complex array.

        Exact: the result, ties included, is _scan_nearest's for every
        target, the first argmin of np.abs(values - t), so ties resolve to
        the smallest canonical index.  A bucket grid lists for each square
        cell every value that can be nearest to a point of the cell.  With c
        the cell centre, h its half side and u the value nearest c, at
        distance U, the nearest value v to a target t in the cell has
        |v - t| <= |u - t| <= U + h*sqrt(2), so |v - c| <= U + 2h*sqrt(2).
        Of the values within that bound the cell lists those that u does not
        beat everywhere in the cell (see _resolve); any value left out is
        farther than u from every point of the cell by more than 1e-9 / 1.5,
        which no rounding can close, so every value that ties the minimum is
        listed.  The candidates, sorted by index, are ranked with
        _scan_nearest's own arithmetic, np.abs(values - t), and the first
        minimum wins, so the smallest-canonical-index tie rule holds.  Each
        target ranks its own cell's candidates and no padding, near-ties
        included: at most 14 for the default codebook, 6.36 on average over
        the full-frame benchmark hologram.  The table holds one column per
        cell, so each query chunk, ordered by candidate count, ranks
        candidate k over the contiguous prefix of targets whose cell lists
        more than k values.

        A cell's column is built the first time a query lands in it, so a
        field pays only for the cells it touches: a 128x128 desk hologram
        touches about 2,700 of the 42,436 cells.  A chunk of targets that
        gathers an UNBUILT column builds, in one _build_cells call, every
        unbuilt cell the rest of the query touches; a query that finds its
        columns built does no extra work.  Once built, a column never changes.

        A target outside the grid, or in a cell no reach resolves, is ranked
        against every value by _scan_nearest: len(values) distances each,
        about 200 times a warm grid query (for the default codebook about
        23 us against 0.1 us per target on a 2-core x86 host).  For the default
        codebook every cell meeting |t| <= MAX_MODULUS is resolved, so
        normalized fields never take it.
        """
        t = np.asarray(targets, dtype=np.complex128)
        if not np.all(np.isfinite(t)):
            raise ValueError("quantization targets must be finite")
        flat = t.ravel()
        out = np.empty(flat.size, dtype=np.int64)
        for lo in range(0, flat.size, QUERY_CHUNK):
            chunk = flat[lo:lo + QUERY_CHUNK]
            found = self._nearest_in_grid(chunk)
            if found is None:
                self._build_touched(flat[lo:])
                found = self._nearest_in_grid(chunk)
            out[lo:lo + QUERY_CHUNK] = found
        return out.reshape(t.shape)

    def _nearest_in_grid(self, t: np.ndarray) -> np.ndarray | None:
        """Nearest value index of each target, or None if one lands in an unbuilt cell."""
        inside, cell = _grid_cells(t)
        head = self._grid[0].take(cell)
        ok = inside & (head >= 0)
        if not ok.all():
            if np.any(inside & (head == UNBUILT)):
                return None
            out = np.empty(t.size, dtype=np.int64)
            out[~ok] = _scan_nearest(self.values, t[~ok])
            out[ok] = self._nearest_in_grid(t[ok])
            return out
        # Targets ordered by their cell's candidate count, largest first, so the
        # targets that rank candidate k are a prefix: those whose cell lists more
        # than k values.  The padding past a cell's count never wins, so it is skipped.
        count = self._counts[cell]
        order = np.argsort(~count, kind="stable")
        cell, t = cell[order], t[order]
        ranked = np.cumsum(np.bincount(count, minlength=self._grid.shape[0] + 1)[::-1])[::-1]
        best = head[order]
        dist = np.abs(self.values.take(best) - t)
        for k in range(1, self._grid.shape[0]):
            m = ranked[k + 1]
            if m == 0:
                break
            candidate = self._grid[k].take(cell[:m])
            d = np.abs(self.values.take(candidate) - t[:m])
            # Strictly closer only: the first minimum in candidate order wins, as in np.argmin.
            np.putmask(best[:m], d < dist[:m], candidate)
            np.minimum(dist[:m], d, out=dist[:m])
        out = np.empty(t.size, dtype=np.int64)
        out[order] = best
        return out

    def _build_touched(self, t: np.ndarray) -> None:
        """Build, in one _build_cells call, the column of every unbuilt cell a target of t lands in."""
        touched = np.zeros(GRID_CELLS * GRID_CELLS, dtype=bool)
        for lo in range(0, t.size, QUERY_CHUNK):
            inside, cell = _grid_cells(t[lo:lo + QUERY_CHUNK])
            touched[cell[inside]] = True
        self._grid, self._counts = _build_cells(self._grid, self._counts, self.values,
                                                touched & (self._grid[0] == UNBUILT))


def _grid_cells(t: np.ndarray):
    """Whether each target lies on the grid, and its cell (cell 0 stands in for one off the grid).

    On the grid x and y are non-negative, so their floors are the cell's
    row and column, and floor(x) * GRID_CELLS + floor(y) is an exact small
    integer.  Off it the one where() drops what that sum reads: a part
    beyond about 9e306 scales to +-inf, and inf - inf gives NaN, neither of
    which is a fault, so neither warns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = t.real / GRID_STEP
        x += GRID_HALF_CELLS
        y = t.imag / GRID_STEP
        y += GRID_HALF_CELLS
        inside = (x >= 0) & (x < GRID_CELLS) & (y >= 0) & (y < GRID_CELLS)
        np.floor(x, out=x)
        x *= GRID_CELLS
        x += np.floor(y, out=y)
    return inside, np.where(inside, x, 0).astype(np.int64)


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
    corner = ii[:, 0] * GRID_CELLS + jj[:, 0]    # cell at window offset (-w, -w); off-grid cells never hit
    for a in range(offsets.size):
        d2 = (dx2[:, a, None] + dy2).ravel()
        hit = np.flatnonzero(d2 <= reach * reach)
        pos, b = np.divmod(hit, offsets.size)
        yield corner[pos] + (a * GRID_CELLS + b), pos, d2[hit]


def _resolve(v: np.ndarray, reach: float, open_cells: np.ndarray):
    """Cells of open_cells whose candidates all lie within reach, and those (cell, position) pairs.

    v must hold every value within reach of each open cell's centre c.  U is
    the distance from c to its nearest value in v.  Every value that can be
    nearest to a point of the cell lies within U + 2r of c (r: the half
    diagonal), so a cell is resolved when that bound plus GRID_TOLERANCE
    stays within reach.  The (cell, value) pairs are made once and scanned
    twice: once for U, once for the values within the bound.

    Of those, a value x is dropped when the value u nearest c (the first of
    v among exact ties) beats it at every point p of the cell.  With
    a = x - c, b = u - c and h = GRID_STEP / 2, |p - x|^2 - |p - u|^2 is
    affine in p, so its least value over the square is the closed form
    |a|^2 - |b|^2 - 2h(|a.re - b.re| + |a.im - b.im|), and x is dropped when
    that exceeds GRID_TOLERANCE.  Distances within the reach are below 0.75,
    so a dropped x is farther than u from every point of the cell by more
    than GRID_TOLERANCE / 1.5.  u is found among the same squared distances
    whichever values v holds beyond the reach, so the columns are the same
    whichever cells are built together.
    """
    pairs = list(_cell_pairs(v, reach))
    nearest2 = np.full(GRID_CELLS * GRID_CELLS, np.inf)
    for cell, _, d2 in pairs:
        np.minimum.at(nearest2, cell, d2)
    bound = np.sqrt(nearest2) + GRID_STEP * np.sqrt(2) + GRID_TOLERANCE
    resolved = open_cells & (bound <= reach)
    limit2 = np.where(resolved, bound * bound, -1.0)
    cells, positions, dists = [], [], []
    for cell, pos, d2 in pairs:
        keep = np.flatnonzero(d2 <= limit2[cell])
        cells.append(cell[keep])
        positions.append(pos[keep])
        dists.append(d2[keep])
    cell, pos = np.concatenate(cells), np.concatenate(positions)
    gap = np.concatenate(dists) - nearest2[cell]
    nearest = np.full(nearest2.size, v.size)
    at_u = gap == 0
    np.minimum.at(nearest, cell[at_u], pos[at_u])
    step = v[pos] - v[nearest[cell]]
    keep = gap - GRID_STEP * (np.abs(step.real) + np.abs(step.imag)) <= GRID_TOLERANCE
    return resolved, cell[keep], pos[keep]


def _values_near(values: np.ndarray, open_cells: np.ndarray, reach: float) -> np.ndarray:
    """Indices of the values whose _cell_pairs window at `reach` meets an open cell.

    The window is the (2w+1)^2 cells around the value's own cell; a 2-D
    prefix sum of open_cells counts the open ones in it.
    """
    w = int(np.ceil(reach / GRID_STEP))
    count = np.zeros((GRID_CELLS + 1, GRID_CELLS + 1), dtype=np.int32)
    np.cumsum(np.cumsum(open_cells.reshape(GRID_CELLS, GRID_CELLS), axis=0, dtype=np.int32),
              axis=1, out=count[1:, 1:])
    i = np.floor(values.real / GRID_STEP + GRID_HALF_CELLS).astype(np.int64)
    j = np.floor(values.imag / GRID_STEP + GRID_HALF_CELLS).astype(np.int64)
    i0, i1 = np.clip(i - w, 0, GRID_CELLS), np.clip(i + w + 1, 0, GRID_CELLS)
    j0, j1 = np.clip(j - w, 0, GRID_CELLS), np.clip(j + w + 1, 0, GRID_CELLS)
    return np.flatnonzero(count[i1, j1] - count[i0, j1] - count[i1, j0] + count[i0, j0])


def _build_cells(table: np.ndarray, counts: np.ndarray, values: np.ndarray, wanted: np.ndarray):
    """Build the columns of the cells marked in the boolean mask `wanted`; returns the table and counts.

    A column lists its cell's candidate value indices (see _resolve: the
    values within the cell's bound that its centre's nearest value does not
    beat everywhere in it), ascending, padded with the last (largest); their
    number goes into `counts`.  A column of -1 marks a cell no reach
    resolves.  The table gains rows, each column padded the same way, when
    a cell needs more candidates, and `counts` a wider type when a count
    outgrows it (never for the default codebook).  Each reach pairs only
    the values within it of the cells still open, and a cell resolved at
    any reach gets the same column, so columns do not depend on which cells
    are built together.
    """
    open_cells = wanted.copy()
    found_cells, found_index = [], []
    for reach in (FIRST_REACH, NEAR_REACH, RIM_REACH):
        near = _values_near(values, open_cells, reach)
        resolved, pair_cells, pos = _resolve(values[near], reach, open_cells)
        found_cells.append(pair_cells)
        found_index.append(near[pos])
        open_cells &= ~resolved
        if not open_cells.any():
            break
    table[:, open_cells] = -1
    key = np.sort(np.concatenate(found_cells) * values.size + np.concatenate(found_index))
    cells, index = key // values.size, key % values.size
    found = np.bincount(cells, minlength=counts.size)
    if found.max() > table.shape[0]:
        deeper = np.empty((found.max(), counts.size), dtype=table.dtype)
        deeper[:table.shape[0]] = table
        deeper[table.shape[0]:] = table[-1]
        table = deeper
    if found.max() > np.iinfo(counts.dtype).max:
        counts = counts.astype(np.min_scalar_type(found.max()))
    starts = np.cumsum(found) - found
    built = np.flatnonzero(found)
    table[:, built] = index[starts[built] + found[built] - 1]
    table[np.arange(cells.size) - starts[cells], cells] = index
    counts[built] = found[built]
    return table, counts


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
    return _draws_below(seed, sizes)


def build_codebook(assignment: PhaseAssignment | None = None) -> Codebook:
    """Enumerate all 65536 patterns into their 6561 value groups.

    A pattern's group index, sum_j (on[j] - on[j+8] + 1) * 3**j over the
    phases j = 1..8, is linear in its 16 bits: phase k adds 3**(k-1) when
    k <= 8 and takes 3**(k-9) away otherwise.  So the index of every code
    is the sum of two 256-entry tables, one per byte, and a stable sort of
    the indices as uint16 keys (a radix sort in numpy) orders the patterns
    by group, in ascending code order inside each.  A few milliseconds, so
    no cache is kept between runs.
    """
    assignment = assignment or DEFAULT_ASSIGNMENT

    phase = assignment.index_by_bit
    weight = np.where(phase <= PAIRS, 1, -1) * 3 ** ((phase - 1) % PAIRS)
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    low = byte_bits @ weight[:8] + (VALUE_COUNT - 1) // 2   # all-OFF is the all-zero group
    high = byte_bits @ weight[8:]
    group_idx = (high[:, None] + low).ravel()               # code = 256 * high byte + low byte

    order_by_group = np.argsort(group_idx.astype(np.uint16), kind="stable")
    patterns_sorted = order_by_group.astype(np.uint16)
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
    # coeff_table @ PAIR_PHASORS, summed in the order numpy's bundled OpenBLAS sums it
    # on x86-64: the same bits, without the cost of a process's first BLAS call.
    t = coeff_table.astype(np.float64) * PAIR_PHASORS
    values = (t[:, 0] + t[:, 2] + t[:, 4] + t[:, 6]) + (t[:, 1] + t[:, 3] + t[:, 5] + t[:, 7])

    capacities = np.count_nonzero(coeff_table == 0, axis=1).astype(np.int64)

    return Codebook(
        values=values,
        capacities=capacities,
        patterns_sorted=patterns_sorted,
        group_starts=group_starts,
        group_of_pattern=group_idx,
        position_of_pattern=position,
    )
