"""Scalar oracles for the 4x4 block algebra, the nearest-value search and
the SplitMix64 generator.

The library builds its codebook tables, its random streams and its shuffles
with whole-array or blocked numpy code; these are the plain per-pattern,
per-target and per-draw definitions the tests check them against, and the
whole-array stream formula that the library reads a block at a time.
"""

import numpy as np

from dmdstego.superpixel import (
    BLOCK,
    DEFAULT_ASSIGNMENT,
    PAIR_PHASORS,
    PAIRS,
    PATTERN_COUNT,
    PHASES,
    VALUE_COUNT,
)


def phase_index(assignment, row, col):
    """Phase index k (1..16) of the mirror in row `row`, column `col`."""
    return assignment.indices[BLOCK * row + col]


def to_string(assignment):
    """The comma-separated form that PhaseAssignment.from_string parses."""
    return ",".join(str(k) for k in assignment.indices)


def pattern_to_coeffs(code, assignment=None):
    """Reduce a 16-bit block pattern to its 8 pair coefficients.

    Coefficient j is on(k=j) - on(k=j+8): +1 if only the phase-j mirror is
    ON, -1 if only its opposite is, 0 if neither or both are.
    """
    assignment = assignment or DEFAULT_ASSIGNMENT
    on = [0] * (PHASES + 1)
    for bit in range(PHASES):
        if (code >> bit) & 1:
            on[assignment.indices[bit]] = 1
    return tuple(on[j] - on[j + PAIRS] for j in range(1, PAIRS + 1))


def coeffs_to_value(coeffs):
    """Complex value of a coefficient vector: sum of c_j * exp(i*j*pi/8)."""
    return complex(np.dot(np.asarray(coeffs, dtype=np.float64), PAIR_PHASORS))


def pattern_to_value(code, assignment=None):
    """Complex value of a block pattern via the direct 16-term phasor sum."""
    assignment = assignment or DEFAULT_ASSIGNMENT
    total = 0j
    for bit in range(PHASES):
        if (code >> bit) & 1:
            total += np.exp(1j * assignment.indices[bit] * np.pi / 8.0)
    return complex(total)


def canonical_index(coeffs):
    """Index of a coefficient vector in 0..6560 (base-3 digits c_j + 1)."""
    return sum((c + 1) * 3 ** j for j, c in enumerate(coeffs))


def coeffs_from_index(index):
    """Inverse of :func:`canonical_index`."""
    out = []
    for _ in range(PAIRS):
        out.append(index % 3 - 1)
        index //= 3
    return tuple(out)


def group_patterns(codebook, index):
    """Codes of the patterns in value group `index`, in the codebook's order."""
    return codebook.patterns_sorted[codebook.group_starts[index]:codebook.group_starts[index + 1]]


def scan_nearest(codebook, t):
    """Index of the codebook value nearest to `t`: the first argmin of a full scan."""
    return int(np.argmin(np.abs(codebook.values - t)))


def grid_table(values):
    """The bucket grid's flat int16 candidate lists and int32 cell offsets, by brute force.

    From a cell centre c, every value that can be nearest to a point of the
    cell lies within U + 2r of c (U: the least distance from c to a value,
    r: the half diagonal).  Of those the cell lists, ascending, each x that
    no other y among them beats at every point of the cell by more than
    GRID_TOLERANCE in squared distance: with a = x - c, b = y - c, that
    least margin is |a|^2 - |b|^2 - GRID_STEP * (|a.re - b.re| + |a.im - b.im|).
    The lists run cell by cell: cell i lists candidates[starts[i]:starts[i + 1]].

    One row of cells (fixed real part re) at a time, first over the values
    with |x.re - re| <= w = 0.125 only, then, for the cells whose bound that
    band does not settle, over bands four times as wide.  A value outside
    the band has (x.re - re)^2 > w^2, so its squared distance rounds to no
    less than w * w; once bound * bound < w * w, neither the least distance
    nor the values within the bound can differ from a scan of every value.
    """
    from dmdstego.codebook import GRID_CELLS, GRID_HALF_CELLS, GRID_STEP, GRID_TOLERANCE

    axis = (np.arange(GRID_CELLS) - GRID_HALF_CELLS + 0.5) * GRID_STEP
    cells, listed = [], []
    for row, re in enumerate(axis):
        unsettled, w = np.arange(GRID_CELLS), 0.125
        while unsettled.size:
            band = np.flatnonzero(np.abs(values.real - re) <= w)
            im = values.imag[band] - axis[unsettled, None]
            d2 = (values.real[band] - re) ** 2 + im * im
            bound = np.sqrt(d2.min(axis=1, initial=np.inf)) + GRID_STEP * np.sqrt(2) + GRID_TOLERANCE
            settled = bound * bound < w * w
            d2, bound = d2[settled], bound[settled]
            cell, x = np.nonzero(d2 <= (bound * bound)[:, None])
            # Every ordered pair (i, j) of entries of one cell: entry i repeats
            # once per entry of its cell, and j runs over that cell's entries.
            per_cell = np.bincount(cell)
            n = per_cell[cell]
            i = np.repeat(np.arange(cell.size), n)
            j = (np.cumsum(per_cell) - per_cell)[cell[i]] + np.arange(i.size) - np.repeat(np.cumsum(n) - n, n)
            step = values[band[x[i]]] - values[band[x[j]]]
            d2 = d2[cell, x]
            margin = d2[i] - d2[j] - GRID_STEP * (np.abs(step.real) + np.abs(step.imag))
            keep = np.bincount(i[margin > GRID_TOLERANCE], minlength=cell.size) == 0
            cells.append(row * GRID_CELLS + unsettled[settled][cell[keep]])
            listed.append(band[x[keep]])
            unsettled, w = unsettled[~settled], 4 * w
    cell, listed = np.concatenate(cells), np.concatenate(listed)
    starts = np.zeros(GRID_CELLS ** 2 + 1, dtype=np.int32)
    np.cumsum(np.bincount(cell, minlength=GRID_CELLS ** 2), out=starts[1:])
    return listed[np.lexsort((listed, cell))].astype(np.int16), starts


def codebook_tables(assignment=None):
    """The six codebook tables by name, from the 65536 x 16 bit matrix of every pattern.

    Each pattern's on/off state per phase is read off its bits, the eight
    pair coefficients give its group index, and a stable argsort of the
    int64 indices orders the patterns by group.
    """
    assignment = assignment or DEFAULT_ASSIGNMENT
    codes = np.arange(PATTERN_COUNT, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(16, dtype=np.uint32)) & 1).astype(np.int8)
    # Column j of on_by_phase is the ON state of phase j+1; +8 columns follow.
    bit_of_phase = np.empty(PHASES, dtype=np.int64)
    bit_of_phase[assignment.index_by_bit - 1] = np.arange(PHASES)
    on_by_phase = bits[:, bit_of_phase]
    trits = on_by_phase[:, :PAIRS] - on_by_phase[:, PAIRS:]
    powers = 3 ** np.arange(PAIRS, dtype=np.int64)
    group_idx = ((trits.astype(np.int64) + 1) * powers).sum(axis=1)

    order_by_group = np.argsort(group_idx, kind="stable")
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
    return {
        "values": coeff_table.astype(np.float64) @ PAIR_PHASORS,
        "capacities": np.count_nonzero(coeff_table == 0, axis=1).astype(np.int64),
        "patterns_sorted": codes[order_by_group].astype(np.uint16),
        "group_starts": group_starts,
        "group_of_pattern": group_idx,
        "position_of_pattern": position,
    }


MASK64 = (1 << 64) - 1


def _mix(z):
    """SplitMix64's finalizer on a 64-bit state."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def whole_array_stream(seed, n):
    """Outputs 0..n-1 of SplitMix64(seed) as uint64, by the whole-array
    formula: output k is mix(seed + (k + 1) * gamma) modulo 2**64, made
    without the ones before it."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)              # wraps mod 2**64
    z += np.uint64(seed)
    for shift, mix in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mix)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """Sequential SplitMix64 stream over Python integers."""

    def __init__(self, seed):
        if not 0 <= seed <= MASK64:
            raise ValueError("seed must fit in 64 bits")
        self._state = seed

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        return _mix(self._state)

    def below(self, bound):
        """Draw from 0..bound-1 via the high 64 bits of a 128-bit product (no rejection step)."""
        if bound < 1:
            raise ValueError("bound must be positive")
        return (self.next_u64() * bound) >> 64

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle, descending index, j = below(i + 1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def unshuffle(self, items):
        """Undo `shuffle` in place: step i swaps i with the draw step i took
        there, for i from 1 up to len(items) - 1."""
        draws = {i: self.below(i + 1) for i in range(len(items) - 1, 0, -1)}
        for i in range(1, len(items)):
            j = draws[i]
            items[i], items[j] = items[j], items[i]


if __name__ == "__main__":
    # Regenerate the package's candidate table: PYTHONPATH=src python tests/scalar_reference.py
    import os

    from dmdstego import codebook

    for name, array in zip(codebook._GRID_FILES, grid_table(codebook.build_codebook().values)):
        np.save(os.path.join(os.path.dirname(codebook.__file__), name), array)
