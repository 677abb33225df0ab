"""Keyed data hiding in the pattern choices of a superpixel mirror array.

Every superpixel whose value group holds 2**d patterns can carry d bits by
the choice of which pattern represents the value, without touching the
modulated field at all.  The embedded stream is a 32-bit big-endian length
header followed by the payload bits in a keyed Fisher-Yates order: `embed`
swaps the bits themselves through the shuffle's rounds, and `extract` swaps
them back through the same rounds in reverse order.  Superpixels are
visited row-major and each consumes its d stream bits MSB-first as an index
into the group's pattern list.  Once the stream runs out, the remaining
superpixels take their fill strategy's patterns from
`modulator.select_patterns`.  Both directions work on the packed stream
bytes: `embed` reads each superpixel's d bits from the two bytes at its bit
offset, and `extract` adds each superpixel's index back into those two
bytes.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .modulator import STRATEGIES, select_patterns
from .rng import _unpermute, check_seed, permutation
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
        # A numpy integer is kept as the Python int of its value.
        object.__setattr__(self, "seed", check_seed(self.seed))

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
    return permutation(np.asarray(bits, dtype=np.uint8), key.seed)


def inverse_permute_bits(bits: np.ndarray, key: StegoKey) -> np.ndarray:
    return _unpermute(np.asarray(bits, dtype=np.uint8), key.seed)


def capacity_of_plan(plan: np.ndarray, codebook: Codebook) -> int:
    """Total hidden-bit capacity of a plan (header bits not deducted)."""
    return int(codebook.capacities[np.asarray(plan)].sum())


def embed(plan: np.ndarray, payload_bits: np.ndarray, key: StegoKey,
          codebook: Codebook, fill: str = "min") -> np.ndarray:
    """Choose one pattern per superpixel so the mirror array carries the payload.

    Returns the (4H, 4W) mirror array.  The represented value of every
    superpixel is untouched: only the pattern choice inside each group
    encodes data, so decoding the modulation is unaffected.  `payload_bits`
    must be 1-D and hold only 0s and 1s; anything else raises ValueError.
    """
    if fill not in STRATEGIES:
        raise ValueError(f"fill must be one of {STRATEGIES}")
    plan = np.asarray(plan)
    payload_bits = np.asarray(payload_bits)
    # Checked before the uint8 cast: packing reads any non-zero byte as a
    # 1, and the cast wraps 256 to 0.
    if payload_bits.ndim != 1:
        raise ValueError(f"payload bits must be a 1-D array, not {payload_bits.ndim}-D")
    if not np.all((payload_bits == 0) | (payload_bits == 1)):
        raise ValueError("payload bits must be 0 or 1")
    payload_bits = payload_bits.astype(np.uint8, copy=False)
    caps = codebook.capacities[plan].ravel()
    total = int(caps.sum())
    if HEADER_BITS + payload_bits.size > total:
        raise PayloadTooLargeError(payload_bits.size, total)

    # The packed stream is the 4-byte big-endian length, then the shuffled
    # payload bits, MSB-first and zero-padded to a whole byte.  Offsets never
    # decrease, so the superpixels carrying stream bits are a row-major
    # prefix.  Each reads the 8-bit window at its offset and keeps its top
    # `caps` bits; one straddling the end of the stream takes what is left,
    # zero-padded on the low side of its index.  A window spans the packed
    # byte holding its offset and the next one; every offset is inside the
    # stream, so one zero byte past its end is all the padding needed.
    stream = struct.pack(">I", payload_bits.size) + np.packbits(permute_bits(payload_bits, key)).tobytes()
    packed = np.frombuffer(stream + bytes(1), dtype=np.uint8).astype(np.uint16)
    offs = np.cumsum(caps) - caps
    active = int(np.searchsorted(offs, HEADER_BITS + payload_bits.size))
    o = offs[:active]
    at = o >> 3
    windows = ((packed[at] << 8 | packed[at + 1]) >> (8 - (o & 7)).astype(np.uint16)) & 0xFF

    groups = plan.ravel().astype(np.int64)
    codes = np.concatenate([
        codebook.pattern_codes(groups[:active], windows >> (8 - caps[:active])),
        select_patterns(groups[active:], codebook, fill, key.seed ^ FILL_SEED_XOR),
    ])
    return codes_to_mirrors(codes.reshape(plan.shape))


def _stream_bytes(codes: np.ndarray, caps: np.ndarray, ends: np.ndarray,
                  codebook: Codebook, count: int) -> np.ndarray:
    """Packed bytes of the first `count` stream bits, from only the superpixels that hold them.

    This inverts `embed`'s windows.  The superpixel at bit offset o with
    capacity c holds its in-group position p as the c stream bits from o on,
    MSB-first, so p << (16 - c - o % 8) is its field inside the 16-bit word
    of the bytes o // 8 and o // 8 + 1.  Fields never overlap, so the words
    of the fields starting in one byte add up without a carry, below 2**16,
    which one bincount sums exactly in float64; each byte is then the high
    byte of its own sum plus the low byte of the sum before it, below 256.
    The last byte may hold bits past `count`.
    """
    used = int(np.searchsorted(ends, count)) + 1
    caps = caps[:used]
    offsets = ends[:used] - caps
    shift = np.bitwise_and(offsets, 7)
    shift += caps
    np.subtract(16, shift, out=shift)
    words = codebook.position_of_pattern.take(codes[:used])
    words <<= shift
    offsets >>= 3
    sums = np.bincount(offsets, weights=words, minlength=(count + 7) // 8).astype(np.uint16)
    packed = (sums >> 8).astype(np.uint8)
    packed[1:] += (sums[:-1] & 0xFF).astype(np.uint8)
    return packed


def extract(mirrors: np.ndarray, key: StegoKey, codebook: Codebook) -> np.ndarray:
    """Recover the payload bits hidden in a mirror array.

    The capacity of each superpixel is one gather from the pattern code, and
    their running sum gives every superpixel's bit offset.  The 32-bit
    header is read from the packed bytes of the superpixels that hold it,
    then the stream from those of the superpixels that hold header and
    payload (see _stream_bytes); one unpackbits gives the payload bits, and
    the inverse shuffle puts them back in order.
    """
    codes = mirrors_to_codes(mirrors).ravel()
    caps = codebook.capacity_of_pattern.take(codes)
    ends = np.cumsum(caps, dtype=np.int64)
    total = int(ends[-1]) if ends.size else 0
    if total < HEADER_BITS:
        raise BadHeaderError(f"stream holds {total} bits, shorter than the {HEADER_BITS}-bit header")
    length = struct.unpack(">I", _stream_bytes(codes, caps, ends, codebook, HEADER_BITS).tobytes())[0]
    if length > total - HEADER_BITS:
        raise BadHeaderError(
            f"header declares {length} payload bits but only {total - HEADER_BITS} were embedded"
        )
    packed = _stream_bytes(codes, caps, ends, codebook, HEADER_BITS + length)
    return inverse_permute_bits(np.unpackbits(packed[HEADER_BITS // 8:], count=length), key)
