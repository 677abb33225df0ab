"""Exhaustive pattern codebook: 65536 block patterns grouped by complex value.

Each of the 6561 coefficient vectors owns a group of 2**z patterns, where z
is its number of zero coefficients (each zero pair may be both-OFF or
both-ON).  Group sizes are therefore exact powers of two and every group
hides floor(log2(size)) = z bits of choice.  Patterns inside a group are
kept in ascending 16-bit code order, which puts the fewest-mirrors-ON
pattern first and the most-ON pattern last.  A Codebook is made from its
phase assignment alone, which decides only which patterns form each group.

The nearest-value quantizer ranks, for each target, the candidate list of
its cell in a bucket grid.  The values, and so the lists, are the same for
every phase assignment, so the list table ships with the package
(grid_candidates.npy and grid_starts.npy, made by the brute-force generator
in tests/scalar_reference.py) and is read on a process's first quantization.
The grid holds the disk of reachable values, and so every normalized field;
a target off it, which no block could show, is refused.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .superpixel import (
    DEFAULT_ASSIGNMENT,
    MAX_MODULUS,
    PAIR_PHASORS,
    PAIRS,
    PATTERN_COUNT,
    PhaseAssignment,
    VALUE_COUNT,
)

# Bucket grid of the nearest-value search: the cell method of Bentley, Weide
# & Yao, "Optimal expected-time algorithms for closest-point problems", ACM
# TOMS 1980.  Square cells of side GRID_STEP tile the real and imaginary
# parts in [-GRID_HALF_CELLS * GRID_STEP, GRID_HALF_CELLS * GRID_STEP), which
# holds the disk |t| <= MAX_MODULUS that normalized fields fill.
GRID_STEP = 0.025
GRID_HALF_CELLS = int(np.ceil(MAX_MODULUS / GRID_STEP))
GRID_CELLS = 2 * GRID_HALF_CELLS
# Margin over float rounding in the candidate lists and the query's distances.
GRID_TOLERANCE = 1e-9
QUERY_CHUNK = 8192          # targets per grid query; temporaries stay at a few MB
# The candidate table of the codebook's values, shipped with the package: every
# cell's candidates, cell by cell, as one int16 array, and the (cells + 1,) int32
# offsets of the cells' runs in it.
_GRID_FILES = ("grid_candidates.npy", "grid_starts.npy")


class Codebook:
    """Lookup tables over the full pattern space for one phase assignment."""

    def __init__(self, assignment: PhaseAssignment | None = None):
        """Enumerate all 65536 patterns into their 6561 value groups.

        A pattern's group index, sum_j (on[j] - on[j+8] + 1) * 3**j over the
        phases j = 1..8, is linear in its 16 bits: phase k adds 3**(k-1) when
        k <= 8 and takes 3**(k-9) away otherwise.  So the index of every code
        is the sum of two 256-entry tables, one per byte, and a stable sort of
        the indices as uint16 keys (a radix sort in numpy) orders the patterns
        by group, in ascending code order inside each.  A few milliseconds, so
        no cache is kept between runs.  The values and capacities come from
        the block algebra alone; the assignment only relabels which pattern
        is which.
        """
        phase = (assignment or DEFAULT_ASSIGNMENT).index_by_bit
        weight = np.where(phase <= PAIRS, 1, -1) * 3 ** ((phase - 1) % PAIRS)
        byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        low = byte_bits @ weight[:8] + (VALUE_COUNT - 1) // 2   # all-OFF is the all-zero group
        high = byte_bits @ weight[8:]
        group_idx = (high[:, None] + low).ravel()               # code = 256 * high byte + low byte

        order_by_group = np.argsort(group_idx.astype(np.uint16), kind="stable")
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

        self.values = values                                # (6561,) complex128
        self.capacities = capacities                        # (6561,) int64
        self.patterns_sorted = order_by_group.astype(np.uint16)  # (65536,) uint16, grouped
        self.group_starts = group_starts                    # (6562,) int64 prefix offsets
        self.group_sizes = counts                           # (6561,) int64
        self.group_of_pattern = group_idx                   # (65536,) int64
        self.position_of_pattern = position                 # (65536,) int64
        # (65536,) uint8 capacity of each pattern's group, read by stego.extract.
        self.capacity_of_pattern = capacities.astype(np.uint8)[group_idx]

    def pattern_codes(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Code of the pattern at each in-group position of each group.

        The one reader of the grouped table: group g's patterns sit in
        patterns_sorted from group_starts[g] on, in ascending code order.
        """
        return self.patterns_sorted[self.group_starts[groups] + positions]

    def nearest_values(self, targets: np.ndarray) -> np.ndarray:
        """Index of the nearest value to each target of an arbitrary-shape complex array.

        Exact: the result, ties included, is the linear scan's for every
        target (tests/scalar_reference.scan_nearest), the first argmin of
        np.abs(values - t), so ties resolve to the smallest canonical index.
        A bucket grid lists for each square cell every value that can be
        nearest to a point of the cell.  With c the cell centre, h its half
        side and u the value nearest c, at distance U, the nearest value v
        to a target t in the cell has |v - t| <= |u - t| <= U + h*sqrt(2),
        so |v - c| <= U + 2h*sqrt(2).  Of the values within that bound the
        cell lists those that no other value beats at every point of the
        cell by more than GRID_TOLERANCE in squared distance.  Beating adds
        up along a chain, so any value left out is beaten in that way by a
        listed one, a margin no rounding can close, and every value that
        ties the minimum is listed.  The candidates, sorted by index, are
        ranked with the scan's own arithmetic, np.abs(values - t), and the
        first minimum wins, so the smallest-canonical-index tie rule holds.
        Each target ranks its own cell's candidates and no padding,
        near-ties included: at most 7 for the default codebook, 2.51 on
        average over the full-frame benchmark hologram.  The lists run cell
        by cell in one flat array, and a query chunk, ordered by candidate
        count, ranks candidate k over the contiguous prefix of targets whose
        cell lists more than k values, each reading the entry after its last.

        The values do not depend on the phase assignment, so one table, made
        offline by a brute-force scan over every cell and shipped with the
        package, serves every codebook.  It is loaded on the first query in a
        process.  A target off the grid, with a part outside
        [-GRID_HALF_CELLS * GRID_STEP, GRID_HALF_CELLS * GRID_STEP) =
        [-5.15, 5.15) and so |t| >= 5.15 > MAX_MODULUS, raises ValueError, as
        does NaN or infinity; every normalized field lies on the grid.
        """
        t = np.asarray(targets, dtype=np.complex128)
        flat = t.ravel()
        candidates, starts = _shipped_grid()
        out = np.empty(flat.size, dtype=np.int64)
        for lo in range(0, flat.size, QUERY_CHUNK):
            out[lo:lo + QUERY_CHUNK] = self._nearest_in_grid(flat[lo:lo + QUERY_CHUNK], candidates, starts)
        return out.reshape(t.shape)

    def _nearest_in_grid(self, t: np.ndarray, candidates: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Nearest value index of each target, by its cell's run of `candidates`."""
        inside, cell = _grid_cells(t)
        if not inside.all():
            bound = GRID_HALF_CELLS * GRID_STEP
            raise ValueError(f"quantization targets must be finite with real and imaginary parts in "
                             f"[-{bound:g}, {bound:g}); scale the field with normalize_field first")
        # Targets ordered by their cell's candidate count, largest first, so the
        # targets that rank candidate k are a prefix: those whose cell lists more
        # than k values.  A uint8 key lets numpy radix-sort it.
        pos = starts[cell]
        count = (starts[cell + 1] - pos).astype(np.uint8)
        order = np.argsort(~count, kind="stable")
        pos, t = pos[order], t[order]
        ranked = np.cumsum(np.bincount(count)[::-1])[::-1]
        best = candidates.take(pos)
        dist = np.abs(self.values.take(best) - t)
        for k in range(1, ranked.size - 1):
            m = ranked[k + 1]
            pos[:m] += 1
            candidate = candidates.take(pos[:m])
            d = np.abs(self.values.take(candidate) - t[:m])
            # Strictly closer only: the first minimum in candidate order wins, as in np.argmin.
            np.putmask(best[:m], d < dist[:m], candidate)
            np.minimum(dist[:m], d, out=dist[:m])
        out = np.empty(t.size, dtype=np.int64)
        out[order] = best
        return out


@functools.cache
def _shipped_grid():
    """The package's flat candidate lists and cell offsets, read-only, loaded once per process."""
    here = os.path.dirname(__file__)
    arrays = tuple(np.load(os.path.join(here, name)) for name in _GRID_FILES)
    for a in arrays:
        a.flags.writeable = False
    return arrays


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


def build_codebook(assignment: PhaseAssignment | None = None) -> Codebook:
    """The codebook of a phase assignment (the default one when None)."""
    return Codebook(assignment)
