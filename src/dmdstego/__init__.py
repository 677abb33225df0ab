"""Superpixel DMD modulation with redundancy-based data hiding."""

from .codebook import Codebook, STRATEGIES, build_codebook
from .superpixel import (
    DEFAULT_ASSIGNMENT,
    MAX_MODULUS,
    PhaseAssignment,
    codes_to_mirrors,
    mirrors_to_codes,
)

__all__ = [
    "Codebook",
    "DEFAULT_ASSIGNMENT",
    "MAX_MODULUS",
    "PhaseAssignment",
    "STRATEGIES",
    "build_codebook",
    "codes_to_mirrors",
    "mirrors_to_codes",
]
