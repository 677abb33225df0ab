"""Complex field -> binary mirror pattern encoding and decoding.

Encoding normalizes a field so its largest modulus sits at a configurable
fraction of the codebook's reach, quantizes every sample to the nearest
group value, and picks one representative pattern per superpixel.  Decoding
reads the patterns back into group indices and canonical complex values;
the pattern choice inside each group is invisible to this path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, pick_in_groups
from .stego import StegoKey
from .superpixel import MAX_MODULUS, codes_to_mirrors, mirrors_to_codes

# Largest distance from any point of the working disk (radius 0.8 * MAX_MODULUS)
# to its nearest codebook value, measured once by brute force over a refined
# grid; quantization error can never exceed it.
COVERING_RADIUS = 0.1958


@dataclass(frozen=True)
class NormalizationParams:
    """Peak scaling policy: map max |field| onto peak_fraction * MAX_MODULUS."""

    peak_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.peak_fraction <= 1.0:
            raise ValueError("peak_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class EncodeResult:
    mirrors: np.ndarray   # (4H, 4W) uint8
    plan: np.ndarray      # (H, W) int64 group indices
    scale: float


def normalize_field(field: np.ndarray, params: NormalizationParams = NormalizationParams()):
    """Scale a field to peak amplitude peak_fraction * MAX_MODULUS.

    Returns (scaled_field, scale).  An all-zero field keeps scale 1.  Fields
    smaller than the target peak are scaled up (scale > 1 is legitimate).
    """
    f = np.asarray(field, dtype=np.complex128)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("field must be a non-empty 2-D array")
    if not np.all(np.isfinite(f)):
        raise ValueError("field must be finite")
    peak = np.abs(f).max()
    if peak == 0.0:
        return f.copy(), 1.0
    scale = params.peak_fraction * MAX_MODULUS / peak
    return f * scale, float(scale)


def quantize_field(field: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Map every sample to the index of its nearest codebook value."""
    f = np.asarray(field, dtype=np.complex128)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("field must be a non-empty 2-D array")
    return codebook.nearest_values(f)


def select_patterns(plan: np.ndarray, codebook: Codebook, strategy: str,
                    key: StegoKey | None = None) -> np.ndarray:
    """Pick a pattern code for every plan entry under one strategy.

    Random selection draws one bounded SplitMix64 sample per superpixel in
    row-major order, seeded by the key, so repeated runs agree bit for bit.
    """
    plan = np.asarray(plan)
    groups = plan.ravel().astype(np.int64)
    pick = pick_in_groups(codebook.group_sizes[groups], strategy, None if key is None else key.seed)
    return codebook.patterns_sorted[codebook.group_starts[groups] + pick].reshape(plan.shape)


def encode_field(field: np.ndarray, codebook: Codebook, strategy: str = "min",
                 key: StegoKey | None = None,
                 params: NormalizationParams = NormalizationParams()) -> EncodeResult:
    """normalize -> quantize -> select -> assemble, one call."""
    scaled, scale = normalize_field(field, params)
    plan = quantize_field(scaled, codebook)
    codes = select_patterns(plan, codebook, strategy, key)
    return EncodeResult(mirrors=codes_to_mirrors(codes), plan=plan, scale=scale)


def decode_field(mirrors: np.ndarray, codebook: Codebook):
    """Read a mirror array back to (plan, field of canonical group values)."""
    codes = mirrors_to_codes(mirrors)
    plan = codebook.group_of_pattern[codes.astype(np.int64)]
    return plan, codebook.values[plan]
