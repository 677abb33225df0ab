"""4x4 mirror-block algebra: binary patterns, phase assignment, complex values.

A superpixel is a 4x4 block of binary DMD mirrors.  Each mirror position
carries a fixed phase k*pi/8 with k in 1..16; an ON mirror contributes the
unit phasor exp(i*k*pi/8) to the block's complex value.  Phases k and k+8
differ by pi, so the two mirrors of such a pair cancel when both are ON.
Every block therefore reduces to 8 ternary coefficients (one per pair), and
the 3**8 = 6561 coefficient vectors enumerate every reachable complex value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BLOCK = 4                  # mirrors per superpixel edge
PHASES = 16                # phase slots per superpixel
PAIRS = 8                  # opposite-phase pairs
PATTERN_COUNT = 1 << 16    # distinct binary block patterns
VALUE_COUNT = 3 ** 8       # distinct coefficient vectors

# Unit phasors of the pair representatives exp(i*j*pi/8), j = 1..8.
PAIR_PHASORS = np.exp(1j * (np.pi / 8.0) * np.arange(1, PAIRS + 1))

# Largest modulus over all block values: all 8 pairs aligned head to tail,
# |sum_{j=0..7} exp(i*j*pi/8)| = 1/sin(pi/16).  Verified by brute force in
# the test suite.
MAX_MODULUS = 1.0 / np.sin(np.pi / 16.0)


@dataclass(frozen=True)
class PhaseAssignment:
    """Bijection from mirror position to phase index.

    ``indices[4*r + c]`` is the phase index k (1..16) carried by the mirror
    in row r, column c of the block.  The default layout is k = 4*r + c + 1,
    i.e. phases increase left to right, then top to bottom.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != PHASES or sorted(self.indices) != list(range(1, PHASES + 1)):
            raise ValueError("assignment must be a permutation of the phase indices 1..16")

    @classmethod
    def default(cls) -> "PhaseAssignment":
        return cls(tuple(range(1, PHASES + 1)))

    @classmethod
    def from_string(cls, text: str) -> "PhaseAssignment":
        """Parse a comma-separated list of 16 phase indices (row-major)."""
        try:
            indices = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"unparseable assignment {text!r}") from exc
        return cls(indices)

    def to_string(self) -> str:
        return ",".join(str(k) for k in self.indices)

    def phase_index(self, row: int, col: int) -> int:
        if not (0 <= row < BLOCK and 0 <= col < BLOCK):
            raise ValueError(f"mirror position ({row}, {col}) outside the 4x4 block")
        return self.indices[BLOCK * row + col]

    def phase_of(self, row: int, col: int) -> float:
        """Phase in radians carried by the mirror at (row, col)."""
        return self.phase_index(row, col) * np.pi / 8.0

    @cached_property
    def index_by_bit(self) -> np.ndarray:
        """Phase index per pattern bit; bit b addresses mirror (b // 4, b % 4)."""
        return np.asarray(self.indices, dtype=np.int64)

    @cached_property
    def bit_by_index(self) -> np.ndarray:
        """Inverse map: ``bit_by_index[k]`` is the bit position of phase k (1..16)."""
        out = np.zeros(PHASES + 1, dtype=np.int64)
        out[self.index_by_bit] = np.arange(PHASES)
        return out

    @cached_property
    def block_phases(self) -> np.ndarray:
        """4x4 array of mirror phases in radians."""
        return self.index_by_bit.reshape(BLOCK, BLOCK) * np.pi / 8.0


DEFAULT_ASSIGNMENT = PhaseAssignment.default()


def _check_pattern_code(code: int) -> None:
    if not 0 <= code < PATTERN_COUNT:
        raise ValueError(f"pattern code {code} outside 0..65535")


def _check_coeffs(coeffs) -> None:
    if len(coeffs) != PAIRS or any(c not in (-1, 0, 1) for c in coeffs):
        raise ValueError("coefficients must be 8 values from {-1, 0, +1}")


def pattern_to_coeffs(code: int, assignment: PhaseAssignment | None = None) -> tuple[int, ...]:
    """Reduce a 16-bit block pattern to its 8 pair coefficients.

    Coefficient j is on(k=j) - on(k=j+8): +1 if only the phase-j mirror is
    ON, -1 if only its opposite is, 0 if neither or both are.
    """
    assignment = assignment or DEFAULT_ASSIGNMENT
    _check_pattern_code(code)
    on = [0] * (PHASES + 1)
    for bit in range(PHASES):
        if (code >> bit) & 1:
            on[assignment.indices[bit]] = 1
    return tuple(on[j] - on[j + PAIRS] for j in range(1, PAIRS + 1))


def coeffs_to_value(coeffs) -> complex:
    """Complex value of a coefficient vector: sum of c_j * exp(i*j*pi/8)."""
    _check_coeffs(coeffs)
    return complex(np.dot(np.asarray(coeffs, dtype=np.float64), PAIR_PHASORS))


def pattern_to_value(code: int, assignment: PhaseAssignment | None = None) -> complex:
    """Complex value of a block pattern via the direct 16-term phasor sum."""
    assignment = assignment or DEFAULT_ASSIGNMENT
    _check_pattern_code(code)
    total = 0j
    for bit in range(PHASES):
        if (code >> bit) & 1:
            total += np.exp(1j * assignment.indices[bit] * np.pi / 8.0)
    return complex(total)


def canonical_index(coeffs) -> int:
    """Index of a coefficient vector in 0..6560 (base-3 digits c_j + 1)."""
    _check_coeffs(coeffs)
    return sum((c + 1) * 3 ** j for j, c in enumerate(coeffs))


def coeffs_from_index(index: int) -> tuple[int, ...]:
    """Inverse of :func:`canonical_index`."""
    if not 0 <= index < VALUE_COUNT:
        raise ValueError(f"canonical index {index} outside 0..6560")
    out = []
    for _ in range(PAIRS):
        out.append(index % 3 - 1)
        index //= 3
    return tuple(out)


def codes_to_mirrors(codes: np.ndarray) -> np.ndarray:
    """Expand an (H, W) array of block codes into a (4H, 4W) mirror array.

    Bit b = 4*r + c of a code drives the mirror in row r, column c of its
    block.  Output values are 0/1 uint8.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError("block code array must be 2-D")
    h, w = codes.shape
    # Nibble r of a code is row r of its block; two blocks side by side
    # share one byte of a mirror row, the left one in the low nibble.
    nibbles = np.zeros((h, BLOCK, w + w % 2), dtype=np.uint8)
    shifts = np.arange(0, PHASES, BLOCK, dtype=np.uint32)[:, None]
    nibbles[:, :, :w] = (codes.astype(np.uint32)[:, None, :] >> shifts) & 0xF
    packed = nibbles[:, :, 0::2] | (nibbles[:, :, 1::2] << 4)
    return np.unpackbits(packed.reshape(BLOCK * h, (w + 1) // 2), axis=1, count=BLOCK * w, bitorder="little")


def mirrors_to_codes(mirrors: np.ndarray) -> np.ndarray:
    """Collapse a (4H, 4W) mirror array into its (H, W) block codes."""
    m = np.asarray(mirrors)
    if m.ndim != 2:
        raise ValueError("mirror array must be 2-D")
    if m.shape[0] % BLOCK or m.shape[1] % BLOCK:
        raise ValueError(f"mirror array shape {m.shape} is not a multiple of 4")
    h, w = m.shape[0] // BLOCK, m.shape[1] // BLOCK
    packed = np.packbits(m != 0, axis=1, bitorder="little")
    nibbles = np.stack([packed & 0xF, packed >> 4], axis=-1).reshape(h, BLOCK, w + w % 2)[:, :, :w]
    rows = nibbles.astype(np.uint16)
    return rows[:, 0] | (rows[:, 1] << 4) | (rows[:, 2] << 8) | (rows[:, 3] << 12)
