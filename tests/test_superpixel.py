import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmdstego.superpixel import (
    BLOCK,
    DEFAULT_ASSIGNMENT,
    MAX_MODULUS,
    PAIR_PHASORS,
    PATTERN_COUNT,
    VALUE_COUNT,
    PhaseAssignment,
    codes_to_mirrors,
    mirrors_to_codes,
)

from scalar_reference import (
    canonical_index,
    coeffs_from_index,
    coeffs_to_value,
    pattern_to_coeffs,
    pattern_to_value,
    phase_index,
    to_string,
)


def test_constants():
    assert BLOCK == 4
    assert PATTERN_COUNT == 65536
    assert VALUE_COUNT == 6561
    assert MAX_MODULUS == pytest.approx(1.0 / np.sin(np.pi / 16), abs=1e-15)


def test_default_assignment_is_row_major():
    a = DEFAULT_ASSIGNMENT
    for r in range(4):
        for c in range(4):
            assert phase_index(a, r, c) == 4 * r + c + 1


def test_assignment_string_round_trip():
    a = PhaseAssignment.from_string("16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1")
    assert PhaseAssignment.from_string(to_string(a)) == a
    assert phase_index(a, 0, 0) == 16


def test_assignment_rejects_non_permutations():
    with pytest.raises(ValueError):
        PhaseAssignment(indices=tuple([1] * 16))
    with pytest.raises(ValueError):
        PhaseAssignment.from_string("1,2,3")
    with pytest.raises(ValueError):
        PhaseAssignment.from_string("0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15")


def test_phase_of_matches_index():
    a = DEFAULT_ASSIGNMENT
    for r in range(4):
        for c in range(4):
            assert a.block_phases[r, c] == pytest.approx(phase_index(a, r, c) * np.pi / 8)


def test_block_phases_grid():
    grid = DEFAULT_ASSIGNMENT.block_phases
    assert grid.shape == (4, 4)
    assert grid[0, 0] == pytest.approx(np.pi / 8)
    assert grid[3, 3] == pytest.approx(2 * np.pi)


def test_single_mirror_value():
    # one mirror on at phase index k contributes exactly e^{ik pi/8}
    for k in range(1, 17):
        code = 1 << (k - 1)  # default assignment: bit k-1 is phase k
        val = pattern_to_value(code)
        assert val == pytest.approx(np.exp(1j * k * np.pi / 8), abs=1e-12)


def test_opposite_pair_cancels():
    # phases k and k+8 differ by pi, so both mirrors on gives zero
    for k in range(1, 9):
        code = (1 << (k - 1)) | (1 << (k + 7))
        assert abs(pattern_to_value(code)) < 1e-12


def test_coeff_route_agrees_with_direct_sum():
    rng = np.random.default_rng(0)
    for code in rng.integers(0, PATTERN_COUNT, 500):
        coeffs = pattern_to_coeffs(int(code))
        assert coeffs_to_value(coeffs) == pytest.approx(pattern_to_value(int(code)), abs=1e-12)


def test_coeffs_are_trits():
    coeffs = pattern_to_coeffs(0xFFFF)
    assert coeffs == (0,) * 8  # everything on cancels pairwise


@given(st.integers(min_value=0, max_value=VALUE_COUNT - 1))
def test_canonical_index_round_trip(idx):
    assert canonical_index(coeffs_from_index(idx)) == idx


@given(st.integers(min_value=0, max_value=PATTERN_COUNT - 1))
def test_pattern_coeffs_value_consistency(code):
    coeffs = pattern_to_coeffs(code)
    assert all(c in (-1, 0, 1) for c in coeffs)
    assert coeffs_to_value(coeffs) == pytest.approx(pattern_to_value(code), abs=1e-12)


def test_zero_index_center():
    # all-zero trits sit at canonical index (3^8-1)/2 = 3280
    assert canonical_index((0,) * 8) == 3280
    assert coeffs_from_index(3280) == (0,) * 8


def test_max_modulus_achieved():
    # eight adjacent phases on: geometric sum of e^{ik pi/8}, k=1..8
    code = 0x00FF
    assert abs(pattern_to_value(code)) == pytest.approx(MAX_MODULUS, abs=1e-12)


def test_pair_phasors_table():
    assert PAIR_PHASORS.shape == (8,)
    for j in range(8):
        assert PAIR_PHASORS[j] == pytest.approx(np.exp(1j * (j + 1) * np.pi / 8))


def test_codes_to_mirrors_layout():
    # single code, single on-bit b=4r+c lights mirror (r, c)
    for r in range(4):
        for c in range(4):
            codes = np.array([[1 << (4 * r + c)]], dtype=np.uint16)
            m = codes_to_mirrors(codes)
            assert m.shape == (4, 4)
            assert m[r, c] == 1 and m.sum() == 1


def test_mirror_code_round_trip():
    rng = np.random.default_rng(1)
    codes = rng.integers(0, PATTERN_COUNT, (6, 9)).astype(np.uint16)
    m = codes_to_mirrors(codes)
    assert m.shape == (24, 36)
    assert m.dtype == np.uint8
    back = mirrors_to_codes(m)
    assert np.array_equal(back, codes)


def reference_codes_to_mirrors(codes):
    """Bit by bit: bit 4r + c of each code to mirror (r, c) of its block."""
    codes = np.asarray(codes)
    h, w = codes.shape
    bits = (codes.astype(np.uint32)[..., None] >> np.arange(16, dtype=np.uint32)) & 1
    return bits.reshape(h, w, 4, 4).transpose(0, 2, 1, 3).reshape(4 * h, 4 * w).astype(np.uint8)


def reference_mirrors_to_codes(mirrors):
    """Weighted sum of each block's nonzero mirrors, weight 2**(4r + c)."""
    m = np.asarray(mirrors)
    h, w = m.shape[0] // 4, m.shape[1] // 4
    blocks = (m.reshape(h, 4, w, 4).transpose(0, 2, 1, 3) != 0).astype(np.uint32)
    weights = (np.uint32(1) << np.arange(16, dtype=np.uint32)).reshape(4, 4)
    return (blocks * weights).sum(axis=(2, 3)).astype(np.uint16)


@pytest.mark.parametrize("width", [1, 2, 3, 8, 9])
def test_packed_codes_match_reference(width):
    # Two blocks share one packed byte per mirror row, so odd widths leave a
    # padding nibble; every mirror dtype counts a nonzero entry as ON.
    rng = np.random.default_rng(width)
    for height in (1, 2, 5):
        on = rng.integers(0, 2, (4 * height, 4 * width))
        inputs = [on.astype(np.uint8), on.astype(bool), on * rng.integers(1, 256, on.shape).astype(np.uint8),
                  on * rng.normal(size=on.shape), (on * 255).astype(np.int64)[:, ::-1]]
        for mirrors in inputs:
            got, want = mirrors_to_codes(mirrors), reference_mirrors_to_codes(mirrors)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for dtype in (np.uint16, np.uint8, np.int32, np.int64):
            info = np.iinfo(dtype)
            codes = rng.integers(max(info.min, -2 ** 31), min(info.max, 2 ** 31 - 1), (height, width),
                                 endpoint=True).astype(dtype)
            for c in (codes, codes[::-1]):
                got, want = codes_to_mirrors(c), reference_codes_to_mirrors(c)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_mirrors_to_codes_validates_shape():
    with pytest.raises(ValueError):
        mirrors_to_codes(np.zeros((5, 8), dtype=np.uint8))


def test_custom_assignment_changes_value():
    swapped = list(range(1, 17))
    swapped[0], swapped[15] = swapped[15], swapped[0]
    a = PhaseAssignment(indices=tuple(swapped))
    code = 1  # mirror (0,0) only
    assert pattern_to_value(code, a) == pytest.approx(np.exp(1j * 16 * np.pi / 8), abs=1e-12)
    assert pattern_to_value(code) == pytest.approx(np.exp(1j * np.pi / 8), abs=1e-12)
