"""4x4 mirror-block algebra: phase assignment, block constants, mirror/code layout.

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
    def from_string(cls, text: str) -> "PhaseAssignment":
        """Parse a comma-separated list of 16 phase indices (row-major)."""
        try:
            indices = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"unparseable assignment {text!r}") from exc
        return cls(indices)

    @cached_property
    def index_by_bit(self) -> np.ndarray:
        """Phase index per pattern bit; bit b addresses mirror (b // 4, b % 4)."""
        return np.asarray(self.indices, dtype=np.int64)

    @cached_property
    def block_phases(self) -> np.ndarray:
        """4x4 array of mirror phases in radians."""
        return self.index_by_bit.reshape(BLOCK, BLOCK) * np.pi / 8.0


DEFAULT_ASSIGNMENT = PhaseAssignment(tuple(range(1, PHASES + 1)))


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
