"""Complex field -> binary mirror pattern encoding and decoding, one step at a time.

`normalize_field` scales a field so its largest modulus sits at a
configurable fraction of the codebook's reach, `quantize_field` maps every
sample to the index of its nearest group value, and `select_patterns`
picks one representative pattern per superpixel under a strategy.  There
is no one-call encoder: the CLI's encode, embed and capacity share the
first two steps, and `stego.embed` picks its fill patterns through
`select_patterns`.
`decode_field` reads the patterns back into group indices and canonical
complex values; the pattern choice inside each group is invisible to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .rng import _draws_below
from .superpixel import MAX_MODULUS, mirrors_to_codes

STRATEGIES = ("random", "min", "max")

# Largest distance from any point of the working disk (radius 0.8 * MAX_MODULUS)
# to its nearest codebook value, measured once by brute force over a refined
# grid: the bound on quantization error for peak_fraction <= 0.8 only.  The
# values thin out towards the rim, so past 0.8 the error grows beyond it: the
# same search gave 0.337 on the 0.9 disk and 0.509 on the 1.0 disk.
COVERING_RADIUS = 0.1958


@dataclass(frozen=True)
class NormalizationParams:
    """Peak scaling policy: map max |field| onto peak_fraction * MAX_MODULUS."""

    peak_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.peak_fraction <= 1.0:
            raise ValueError("peak_fraction must lie in (0, 1]")


def normalize_field(field: np.ndarray, params: NormalizationParams = NormalizationParams()):
    """Scale a field to peak amplitude peak_fraction * MAX_MODULUS.

    Returns (scaled_field, scale).  An all-zero field keeps scale 1.  Fields
    smaller than the target peak are scaled up (scale > 1 is legitimate).
    A field whose peak modulus overflows float64, or is so small that the
    scale does, is refused with ValueError.
    """
    f = np.asarray(field, dtype=np.complex128)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("field must be a non-empty 2-D array")
    if not np.all(np.isfinite(f)):
        raise ValueError("field must be finite")
    peak = np.abs(f).max()
    if not np.isfinite(peak):
        raise ValueError("field peak modulus overflows float64")
    if peak == 0.0:
        return f.copy(), 1.0
    with np.errstate(over="ignore"):
        scale = params.peak_fraction * MAX_MODULUS / peak
    if not np.isfinite(scale):
        raise ValueError(f"field peak modulus {peak:.3g} is too small to scale")
    return f * scale, float(scale)


def quantize_field(field: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Map every sample to the index of its nearest codebook value.

    The field must lie on the codebook's grid, real and imaginary parts in
    [-5.15, 5.15), as every normalize_field output does; a sample off it,
    past every value, or a non-finite one raises ValueError.
    """
    f = np.asarray(field, dtype=np.complex128)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("field must be a non-empty 2-D array")
    return codebook.nearest_values(f)


def select_patterns(plan: np.ndarray, codebook: Codebook, strategy: str,
                    seed: int | None = None) -> np.ndarray:
    """Pick a pattern code for every plan entry under one strategy.

    "min" takes each group's first pattern (fewest mirrors ON), "max" its
    last (most ON), and "random" one bounded SplitMix64(seed) draw per
    superpixel in row-major order, so repeated runs agree bit for bit.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    plan = np.asarray(plan)
    groups = plan.ravel().astype(np.int64)
    sizes = codebook.group_sizes[groups]
    if strategy == "min":
        pick = np.zeros(sizes.shape, dtype=np.int64)
    elif strategy == "max":
        pick = sizes - 1
    elif seed is None:
        raise ValueError("random selection needs a key seed")
    else:
        pick = _draws_below(seed, sizes)
    return codebook.pattern_codes(groups, pick).reshape(plan.shape)


def decode_field(mirrors: np.ndarray, codebook: Codebook):
    """Read a mirror array back to (plan, field of canonical group values)."""
    codes = mirrors_to_codes(mirrors)
    plan = codebook.group_of_pattern[codes.astype(np.int64)]
    return plan, codebook.values[plan]
