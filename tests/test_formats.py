import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdstego.formats import (
    HEADER_LIMIT,
    FormatError,
    read_field,
    read_image,
    read_pattern,
    write_field,
    write_image,
    write_pattern,
    write_report,
)


def test_image_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (13, 17), dtype=np.uint8)
    p = tmp_path / "a.pgm"
    write_image(p, img)
    assert np.array_equal(read_image(p), img)


def test_image_write_is_byte_stable(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    p1, p2 = tmp_path / "x.pgm", tmp_path / "y.pgm"
    write_image(p1, img)
    write_image(p2, img)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"P5\n4 3\n255\n")


def test_image_comments_tolerated(tmp_path):
    p = tmp_path / "c.pgm"
    raster = bytes(range(6))
    p.write_bytes(b"P5\n# generated\n 3 # inline\n2\n255\n" + raster)
    img = read_image(p)
    assert img.shape == (2, 3)
    assert img.tobytes() == raster


RASTER_8X4 = bytes([0b10000001, 0, 0xFF, 0b01010101])


@pytest.mark.parametrize("header", [
    b"P4\n#" + b"x" * 2**20 + b"\n8 4\n",          # one 1 MB comment
    b"P4" + b"\n# c" * 100_000 + b"\n8 4\n",        # 100k one-line comments
    b"P4" + b" \t\r\n\v\f" * (2**20 // 6) + b"8 4\n",  # 1 MB of whitespace
    b"P4# glued to the magic\n8\n#\n#\n4\r",          # a comment glued to the magic, empty ones
    b"P4\n8 " + b"0" * 5000 + b"4\n",                # leading zeros past int()'s digit limit
], ids=["long-comment", "many-comments", "long-whitespace", "short-comments", "zero-padded"])
def test_header_whitespace_and_comments(tmp_path, header):
    p = tmp_path / "h.pbm"
    p.write_bytes(header + RASTER_8X4)
    m = read_pattern(p)
    assert m.shape == (4, 8)
    assert np.packbits(m, axis=1).tobytes() == RASTER_8X4


@pytest.mark.parametrize("data, message", [
    (b"P4\n8 4# c\n" + RASTER_8X4, "expected height at byte 5, found b'4#'"),
    (b"P4\n8 # comment to the end", "expected height at byte 25, found b''"),
    (b"P4\n#" + b"x" * 2**20, f"expected width at byte {4 + 2**20}, found b''"),
    (b"P4\n8 4 # c\n" + RASTER_8X4, "expected 11 bytes, got 15"),
    (b"P4\n8 4#", "expected height at byte 5, found b'4#'"),
])
def test_header_errors_keep_their_byte_offsets(tmp_path, data, message):
    p = tmp_path / "bad.pbm"
    p.write_bytes(data)
    with pytest.raises(FormatError, match=re.escape(message)):
        read_pattern(p)


def test_header_limit_edges(tmp_path):
    p = tmp_path / "h.pbm"
    # The whitespace after the last value is the limit's last byte: read.
    header = b"P4" + b"\n" * (HEADER_LIMIT - 6) + b"8 4\n"
    assert len(header) == HEADER_LIMIT
    p.write_bytes(header + RASTER_8X4)
    assert np.packbits(read_pattern(p), axis=1).tobytes() == RASTER_8X4
    # One byte more, and the height reaches the limit.  A number running on
    # past the limit, or comments up to it, are refused, never cut short.
    for data, message in [
        (b"P4\n" + header[2:] + RASTER_8X4, f"height at byte {HEADER_LIMIT - 1} reaches"),
        (b"P4" + b" " * (HEADER_LIMIT - 5) + b"8 " + b"4" * 100 + b"\n", f"height at byte {HEADER_LIMIT - 1} reaches"),
        (b"P4" + b"\n#" * HEADER_LIMIT + b"\n8 4\n" + RASTER_8X4, f"width at byte {HEADER_LIMIT} reaches"),
    ]:
        p.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(f"{message} the {HEADER_LIMIT}-byte header limit")):
            read_pattern(p)


@pytest.mark.parametrize("read, magic, maxval", [(read_image, b"P5", b"255\n"), (read_pattern, b"P4", b"")],
                         ids=["pgm", "pbm"])
def test_header_tokens_too_long_for_the_file_are_refused(tmp_path, read, magic, maxval):
    # 5,000 nines is past the digit limit of Python's int(); leading zeros do
    # not count, and six digits exceed any dimension a file this size holds.
    for header, message in [(b"\n" + b"9" * 5000 + b" 4\n", "width at byte 3 has 5000 digits"),
                            (b"\n8 #\n" + b"0" * 5000 + b"123456\n", "height at byte 7 has 6 digits")]:
        data = magic + header + maxval + bytes(32)
        p = tmp_path / "big"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(f"{message}, too many for a {len(data)}-byte file")):
            read(p)


def test_image_errors_name_byte_offsets(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\nxx 3\n255\n")
    with pytest.raises(FormatError, match="byte 3"):
        read_image(p)
    p.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 4)
    with pytest.raises(FormatError, match="magic"):
        read_image(p)
    p.write_bytes(b"P5\n2 2\n255\n" + b"\0" * 3)
    with pytest.raises(FormatError, match="expected 15 bytes, got 14"):
        read_image(p)
    p.write_bytes(b"P5\n2 2\n65535\n" + b"\0" * 8)
    with pytest.raises(FormatError, match="maxval"):
        read_image(p)


def test_image_rejects_bad_arrays(tmp_path):
    with pytest.raises(ValueError):
        write_image(tmp_path / "z.pgm", np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(ValueError):
        write_image(tmp_path / "z.pgm", np.zeros(4, dtype=np.uint8))


def test_pattern_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.integers(0, 2, (12, 20), dtype=np.uint8)
    p = tmp_path / "m.pbm"
    write_pattern(p, m)
    back = read_pattern(p)
    assert back.dtype == np.uint8
    assert np.array_equal(back, m)


def test_pattern_rows_padded_to_bytes(tmp_path):
    m = np.ones((4, 20), dtype=np.uint8)
    p = tmp_path / "p.pbm"
    write_pattern(p, m)
    data = p.read_bytes()
    header = b"P4\n20 4\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 3 * 4  # ceil(20/8) = 3 bytes per row


def test_pattern_bit_one_means_on(tmp_path):
    m = np.zeros((4, 8), dtype=np.uint8)
    m[0, 0] = 1
    p = tmp_path / "bit.pbm"
    write_pattern(p, m)
    raster = p.read_bytes()[len(b"P4\n8 4\n"):]
    assert raster[0] == 0b10000000


def test_pattern_requires_multiple_of_four(tmp_path):
    p = tmp_path / "odd.pbm"
    write_pattern(p, np.ones((3, 8), dtype=np.uint8))
    with pytest.raises(FormatError, match="multiples of 4"):
        read_pattern(p)


def test_pattern_truncation_detected(tmp_path):
    p = tmp_path / "t.pbm"
    write_pattern(p, np.ones((4, 8), dtype=np.uint8))
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(FormatError, match="expected"):
        read_pattern(p)


def test_field_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    f = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    p = tmp_path / "f.bin"
    write_field(p, f)
    back = read_field(p)
    assert back.dtype == np.complex128
    assert np.array_equal(back, f)


def test_field_layout(tmp_path):
    p = tmp_path / "l.bin"
    write_field(p, np.array([[1.5 - 2.5j]]))
    data = p.read_bytes()
    assert len(data) == 33
    assert data[:4] == b"CFLD"
    assert data[4] == 1
    assert int.from_bytes(data[5:9], "little") == 1  # width
    assert int.from_bytes(data[9:13], "little") == 1  # height
    assert data[13:17] == b"\0\0\0\0"
    assert np.frombuffer(data, dtype="<f8", offset=17).tolist() == [1.5, -2.5]


def test_field_raster_is_read_and_written_bit_for_bit(tmp_path):
    # Every (re, im) pairing of signed zeros, infinities, NaNs with sign and payload, and finite values.
    special = np.array([0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                        0x7FF8000000000000, 0xFFF800000000ABCD, 0x3FF8000000000000, 0x8000000000000001],
                       dtype="<u8")
    pairs = np.stack(np.meshgrid(special, special, indexing="ij"), axis=-1)
    data = b"CFLD\x01" + struct.pack("<II", 8, 8) + bytes(4) + pairs.tobytes()
    p, q = tmp_path / "in.bin", tmp_path / "out.bin"
    p.write_bytes(data)
    f = read_field(p)
    assert f.dtype == np.complex128
    assert np.array_equal(f.view("<u8").reshape(8, 8, 2), pairs)
    write_field(q, f)
    assert q.read_bytes() == data


def test_field_size_formula(tmp_path):
    p = tmp_path / "s.bin"
    write_field(p, np.zeros((3, 9), dtype=complex))
    assert p.stat().st_size == 17 + 16 * 3 * 9


def test_field_errors(tmp_path):
    p = tmp_path / "e.bin"
    p.write_bytes(b"NOPE" + b"\0" * 13)
    with pytest.raises(FormatError, match="magic"):
        read_field(p)
    p.write_bytes(b"CFLD\x02" + b"\0" * 12)
    with pytest.raises(FormatError, match="version"):
        read_field(p)
    p.write_bytes(b"CF")
    with pytest.raises(FormatError, match="header"):
        read_field(p)
    write_field(p, np.ones((2, 2), dtype=complex))
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="expected 81 bytes for 2x2, got 82"):
        read_field(p)


def test_write_is_read_only_on_inputs(tmp_path):
    # writers must not mutate their arguments
    f = np.ones((2, 2), dtype=np.complex128)
    write_field(tmp_path / "w.bin", f)
    assert np.all(f == 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_field_round_trip_property(h, w, seed):
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(seed)
    f = rng.normal(size=(h, w)) * 10.0 ** rng.integers(-8, 8) + 1j * rng.normal(size=(h, w))
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "f.bin"
        write_field(p, f)
        assert np.array_equal(read_field(p), f)


def test_report_sorted_and_round_trips():
    import json

    rep = write_report({"zeta": 0.1 + 0.2, "alpha": 3, "mid": "x"})
    assert rep.index("alpha") < rep.index("mid") < rep.index("zeta")
    parsed = json.loads(rep)
    assert parsed["zeta"] == 0.1 + 0.2  # exact round trip through repr
    assert write_report({}) == "{}"


def test_report_deterministic():
    a = write_report({"b": 2, "a": 1})
    b = write_report({"a": 1, "b": 2})
    assert a == b
