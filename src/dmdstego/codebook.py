"""Exhaustive pattern codebook: 65536 block patterns grouped by complex value.

Each of the 6561 coefficient vectors owns a group of 2**z patterns, where z
is its number of zero coefficients (each zero pair may be both-OFF or
both-ON).  Group sizes are therefore exact powers of two and every group
hides floor(log2(size)) = z bits of choice.  Patterns inside a group are
kept in ascending 16-bit code order, which puts the fewest-mirrors-ON
pattern first and the most-ON pattern last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import mul_high, stream_u64
from .superpixel import (
    DEFAULT_ASSIGNMENT,
    PAIR_PHASORS,
    PAIRS,
    PATTERN_COUNT,
    PhaseAssignment,
    VALUE_COUNT,
)

STRATEGIES = ("random", "min", "max")


@dataclass(frozen=True)
class ValueGroup:
    """All block patterns sharing one complex value."""

    index: int                 # canonical coefficient-vector index, 0..6560
    coeffs: tuple[int, ...]
    value: complex
    patterns: np.ndarray       # uint16 codes, ascending
    capacity_bits: int


class Codebook:
    """Lookup tables over the full pattern space for one phase assignment."""

    def __init__(self, assignment, values, capacities, patterns_sorted,
                 group_starts, group_of_pattern, position_of_pattern, coeff_table):
        self.assignment = assignment
        self.values = values                        # (6561,) complex128
        self.capacities = capacities                # (6561,) int64
        self.patterns_sorted = patterns_sorted      # (65536,) uint16, grouped
        self.group_starts = group_starts            # (6562,) int64 prefix offsets
        self.group_of_pattern = group_of_pattern    # (65536,) int64
        self.position_of_pattern = position_of_pattern  # (65536,) int64
        self._coeff_table = coeff_table             # (6561, 8) int8
        self.group_sizes = np.diff(group_starts)
        self._tree = None

    def group(self, index: int) -> ValueGroup:
        if not 0 <= index < VALUE_COUNT:
            raise ValueError(f"group index {index} outside 0..6560")
        lo, hi = self.group_starts[index], self.group_starts[index + 1]
        return ValueGroup(
            index=index,
            coeffs=tuple(int(c) for c in self._coeff_table[index]),
            value=complex(self.values[index]),
            patterns=self.patterns_sorted[lo:hi],
            capacity_bits=int(self.capacities[index]),
        )

    def nearest_value(self, target: complex) -> int:
        """Index of the group value closest to `target` (exact linear scan).

        Ties resolve to the smallest canonical index; argmin returns the
        first minimum, which is exactly that.
        """
        if not np.isfinite(target):
            raise ValueError("quantization target must be finite")
        return int(np.argmin(np.abs(self.values - target)))

    def nearest_values(self, targets: np.ndarray) -> np.ndarray:
        """Vectorized nearest_value over an arbitrary-shape complex array.

        A kd-tree finds the two nearest values.  Where they lie within 1e-9
        of each other (a target essentially on a Voronoi boundary; distinct
        values are >= 0.019 apart), the query widens to 4, 8, ... candidates
        until the last one is more than 1e-9 farther than the first, so it
        holds every tied value.  The candidates are then ranked in index
        order with nearest_value's arithmetic, which keeps its
        smallest-canonical-index tie rule.
        """
        t = np.asarray(targets, dtype=np.complex128)
        if not np.all(np.isfinite(t)):
            raise ValueError("quantization targets must be finite")
        flat = t.ravel()
        if self._tree is None:
            # imported here, so only the commands that quantize pay for loading scipy
            from scipy.spatial import cKDTree

            self._tree = cKDTree(np.column_stack([self.values.real, self.values.imag]))
        points = np.column_stack([flat.real, flat.imag])
        dist, idx = self._tree.query(points, k=2, workers=-1)
        out = idx[:, 0].astype(np.int64)
        rows = np.nonzero(dist[:, 1] - dist[:, 0] <= 1e-9)[0]
        k = 2
        while rows.size:
            k = min(2 * k, self.values.size)
            dist, cand = self._tree.query(points[rows], k=k, workers=-1)
            held = (dist[:, -1] - dist[:, 0] > 1e-9) | (k == self.values.size)
            cand = np.sort(cand[held], axis=1)
            first = np.argmin(np.abs(self.values[cand] - flat[rows[held], None]), axis=1)
            out[rows[held]] = cand[np.arange(cand.shape[0]), first]
            rows = rows[~held]
        return out.reshape(t.shape)


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
        assignment=assignment,
        values=values,
        capacities=capacities,
        patterns_sorted=patterns_sorted,
        group_starts=group_starts,
        group_of_pattern=group_idx,
        position_of_pattern=position,
        coeff_table=coeff_table,
    )
