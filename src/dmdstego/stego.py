"""Keyed data hiding in the pattern choices of a superpixel mirror array.

Every superpixel whose value group holds 2**d patterns can carry d bits by
the choice of which pattern represents the value, without touching the
modulated field at all.  The embedded stream is a 32-bit big-endian length
header followed by the payload bits shuffled by a keyed Fisher-Yates
permutation; superpixels are visited row-major and each consumes its d
stream bits MSB-first as an index into the group's pattern list.  Once the
stream runs out, the remaining superpixels fall back to a fill strategy.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .codebook import STRATEGIES, Codebook, pick_in_groups
from .rng import check_seed, permutation
from .superpixel import codes_to_mirrors, mirrors_to_codes

HEADER_BITS = 32
FILL_SEED_XOR = 0xA5A5A5A5A5A5A5A5


class PayloadTooLargeError(ValueError):
    def __init__(self, requested_bits: int, capacity_bits: int):
        self.requested_bits = requested_bits
        self.capacity_bits = capacity_bits
        super().__init__(
            f"payload of {requested_bits} bits does not fit: plan capacity is "
            f"{capacity_bits} bits and {HEADER_BITS} are reserved for the header"
        )


class BadHeaderError(ValueError):
    pass


@dataclass(frozen=True)
class StegoKey:
    """64-bit key seeding the payload permutation."""

    seed: int

    def __post_init__(self):
        check_seed(self.seed)

    @classmethod
    def from_hex(cls, text: str) -> "StegoKey":
        # int(text, 16) would tolerate "0x" prefixes and signs; be strict
        if not re.fullmatch(r"[0-9a-fA-F]{16}", text):
            raise ValueError("key must be exactly 16 hex digits")
        return cls(int(text, 16))


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Unpack bytes to a 0/1 uint8 array, MSB of each byte first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 array back to bytes; a ragged tail is zero-padded."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def permute_bits(bits: np.ndarray, key: StegoKey) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    return bits[permutation(bits.size, key.seed)]


def inverse_permute_bits(bits: np.ndarray, key: StegoKey) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    out = np.empty_like(bits)
    out[permutation(bits.size, key.seed)] = bits
    return out


def capacity_of_plan(plan: np.ndarray, codebook: Codebook) -> int:
    """Total hidden-bit capacity of a plan (header bits not deducted)."""
    return int(codebook.capacities[np.asarray(plan)].sum())


def _header(length: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(struct.pack(">I", length), dtype=np.uint8))


def embed(plan: np.ndarray, payload_bits: np.ndarray, key: StegoKey,
          codebook: Codebook, fill: str = "min") -> np.ndarray:
    """Choose one pattern per superpixel so the mirror array carries the payload.

    Returns the (4H, 4W) mirror array.  The represented value of every
    superpixel is untouched: only the pattern choice inside each group
    encodes data, so decoding the modulation is unaffected.
    """
    if fill not in STRATEGIES:
        raise ValueError(f"fill must be one of {STRATEGIES}")
    plan = np.asarray(plan)
    payload_bits = np.asarray(payload_bits, dtype=np.uint8)
    caps = codebook.capacities[plan].ravel()
    total = int(caps.sum())
    if HEADER_BITS + payload_bits.size > total:
        raise PayloadTooLargeError(payload_bits.size, total)

    stream = np.concatenate([_header(payload_bits.size), permute_bits(payload_bits, key)])
    # Offsets never decrease, so the superpixels carrying stream bits are a
    # row-major prefix.  Each reads the 8-bit window at its offset and keeps
    # its top `caps` bits; one straddling the end of the stream takes what is
    # left, zero-padded on the low side of its index.  A window spans the
    # packed byte holding its offset and the next one; every offset is inside
    # the stream, so one zero byte past its end is all the padding needed.
    offs = np.cumsum(caps) - caps
    active = int(np.searchsorted(offs, stream.size))
    o = offs[:active]
    packed = np.concatenate([np.packbits(stream), np.zeros(1, dtype=np.uint8)]).astype(np.uint16)
    at = o >> 3
    windows = ((packed[at] << 8 | packed[at + 1]) >> (8 - (o & 7)).astype(np.uint16)) & 0xFF

    groups = plan.ravel().astype(np.int64)
    pick = np.concatenate([
        windows >> (8 - caps[:active]),
        pick_in_groups(codebook.group_sizes[groups[active:]], fill, key.seed ^ FILL_SEED_XOR),
    ])
    codes = codebook.patterns_sorted[codebook.group_starts[groups] + pick].reshape(plan.shape)
    return codes_to_mirrors(codes)


def _stream_prefix(codes: np.ndarray, caps: np.ndarray, ends: np.ndarray,
                   codebook: Codebook, count: int) -> np.ndarray:
    """First `count` stream bits, read from only the superpixels that hold them."""
    # Stream bit k is bit `shift` of the in-group position of the superpixel
    # that owns it, counted MSB-first within that superpixel's window.
    used = int(np.searchsorted(ends, count)) + 1
    owner = np.repeat(np.arange(used), caps[:used])[:count]
    shift = ends[owner] - 1 - np.arange(count)
    pos = codebook.position_of_pattern[codes[:used]]
    return ((pos[owner] >> shift) & 1).astype(np.uint8)


def extract(mirrors: np.ndarray, key: StegoKey, codebook: Codebook) -> np.ndarray:
    """Recover the payload bits hidden in a mirror array."""
    codes = mirrors_to_codes(mirrors).ravel().astype(np.int64)
    caps = codebook.capacities[codebook.group_of_pattern[codes]]
    ends = np.cumsum(caps)
    total = int(caps.sum())
    if total < HEADER_BITS:
        raise BadHeaderError(f"stream holds {total} bits, shorter than the {HEADER_BITS}-bit header")
    header = _stream_prefix(codes, caps, ends, codebook, HEADER_BITS)
    length = struct.unpack(">I", bits_to_bytes(header))[0]
    if length > total - HEADER_BITS:
        raise BadHeaderError(
            f"header declares {length} payload bits but only {total - HEADER_BITS} were embedded"
        )
    bits = _stream_prefix(codes, caps, ends, codebook, HEADER_BITS + length)
    return inverse_permute_bits(bits[HEADER_BITS:], key)
