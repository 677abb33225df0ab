"""Bit-exact file codecs: 8-bit PGM images, PBM mirror patterns, CFLD
complex fields, and deterministic JSON reports.

Pattern files use binary PBM (P4) with bit 1 = black = mirror ON and rows
padded to whole bytes.  Netpbm headers accept whitespace and "#" comments.
Complex fields use a little-endian container: magic "CFLD", version byte,
width and height u32, four reserved zero bytes, then the row-major "<c16"
(complex128) raster, read and written bit for bit; 17 + 16*w*h bytes in all.
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path

import numpy as np

FIELD_MAGIC = b"CFLD"
FIELD_VERSION = 1
_FIELD_HEADER = struct.Struct("<4sBII4x")


class FormatError(ValueError):
    pass


# The whitespace and "#" comments (each up to its newline) before a token, then the token.
_TOKEN = re.compile(rb"\s*(?:#[^\n]*\s*)*(\S*)")
# A netpbm header, the whitespace after its last value included, must fit in
# this many bytes.  `_TOKEN` steps once per comment, so an unbounded run of
# short comments would cost time in proportion to the file; 2 MiB still holds
# a 1 MiB comment or 1 MiB of whitespace.
HEADER_LIMIT = 2 << 20


def _read_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    match = _TOKEN.match(data, pos, HEADER_LIMIT)
    if match.end(1) == HEADER_LIMIT:
        # Refused, never truncated: the token may go on past the limit.
        raise FormatError(f"{what} at byte {match.start(1)} reaches the "
                          f"{HEADER_LIMIT}-byte header limit")
    token = match[1]
    if not token.isdigit():
        raise FormatError(f"expected {what} at byte {match.start(1)}, found {token[:16]!r}")
    # No dimension can exceed the 8 pixels a byte holds times the file
    # length, nor a maxval 255, so a number longer than both is refused
    # before int() parses it.
    digits = token.lstrip(b"0")
    if len(digits) > len(str(max(8 * len(data), 255))):
        raise FormatError(f"{what} at byte {match.start(1)} has {len(digits)} digits, "
                          f"too many for a {len(data)}-byte file")
    return int(digits or b"0"), match.end(1)


def _read_netpbm_header(data: bytes, magic: bytes, with_maxval: bool):
    if data[:2] != magic:
        raise FormatError(f"bad magic {data[:2]!r} at byte 0, expected {magic!r}")
    width, pos = _read_token(data, 2, "width")
    height, pos = _read_token(data, pos, "height")
    if width == 0 or height == 0:
        raise FormatError("zero image dimension in header")
    if with_maxval:
        maxval, pos = _read_token(data, pos, "maxval")
        if maxval != 255:
            raise FormatError(f"unsupported maxval {maxval}, only 255 is handled")
    if not data[pos:pos + 1].isspace():
        raise FormatError(f"expected single whitespace before raster at byte {pos}")
    return width, height, pos + 1


def read_image(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5, maxval 255)."""
    data = Path(path).read_bytes()
    width, height, pos = _read_netpbm_header(data, b"P5", with_maxval=True)
    expected = pos + width * height
    if len(data) != expected:
        raise FormatError(f"raster truncated or oversized: expected {expected} bytes, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos).reshape(height, width).copy()


def write_image(path, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.ndim != 2 or img.size == 0 or img.dtype != np.uint8:
        raise ValueError("image must be a non-empty 2-D uint8 array")
    height, width = img.shape
    Path(path).write_bytes(f"P5\n{width} {height}\n255\n".encode() + img.tobytes())


def read_pattern(path) -> np.ndarray:
    """Read a binary PBM (P4) mirror pattern; dimensions must be multiples of 4."""
    data = Path(path).read_bytes()
    width, height, pos = _read_netpbm_header(data, b"P4", with_maxval=False)
    row_bytes = (width + 7) // 8
    expected = pos + row_bytes * height
    if len(data) != expected:
        raise FormatError(f"raster truncated or oversized: expected {expected} bytes, got {len(data)}")
    if width % 4 or height % 4:
        raise FormatError(f"pattern dimensions {width}x{height} are not multiples of 4")
    rows = np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, row_bytes)
    return np.unpackbits(rows, axis=1, count=width)


def write_pattern(path, mirrors: np.ndarray) -> None:
    m = np.asarray(mirrors)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("pattern must be a non-empty 2-D array")
    height, width = m.shape
    packed = np.packbits(m != 0, axis=1)
    Path(path).write_bytes(f"P4\n{width} {height}\n".encode() + packed.tobytes())


def read_field(path) -> np.ndarray:
    """Read a CFLD complex field file."""
    data = Path(path).read_bytes()
    if len(data) < _FIELD_HEADER.size:
        raise FormatError(f"file of {len(data)} bytes is shorter than the {_FIELD_HEADER.size}-byte header")
    magic, version, width, height = _FIELD_HEADER.unpack_from(data)
    if magic != FIELD_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {FIELD_MAGIC!r}")
    if version != FIELD_VERSION:
        raise FormatError(f"unsupported version {version}, expected {FIELD_VERSION}")
    if width == 0 or height == 0:
        raise FormatError("zero field dimension in header")
    expected = _FIELD_HEADER.size + 16 * width * height
    if len(data) != expected:
        raise FormatError(f"expected {expected} bytes for {width}x{height}, got {len(data)}")
    return np.frombuffer(data, "<c16", offset=_FIELD_HEADER.size).reshape(height, width).astype(np.complex128)


def write_field(path, field: np.ndarray) -> None:
    f = np.asarray(field, dtype="<c16")
    if f.ndim != 2 or f.size == 0:
        raise ValueError("field must be a non-empty 2-D array")
    height, width = f.shape
    Path(path).write_bytes(_FIELD_HEADER.pack(FIELD_MAGIC, FIELD_VERSION, width, height) + f.tobytes())


def write_report(metrics: dict) -> str:
    """Serialize a metrics dict with deterministic key order.

    Floats go through Python's shortest round-trip repr, so reading the
    report back yields bit-identical values.
    """
    return json.dumps(metrics, sort_keys=True)
