import subprocess
import sys
import warnings

import numpy as np
import pytest

from dmdstego.codebook import GRID_HALF_CELLS, GRID_STEP
from dmdstego.modulator import (
    COVERING_RADIUS,
    STRATEGIES,
    NormalizationParams,
    decode_field,
    normalize_field,
    quantize_field,
    select_patterns,
)
from dmdstego.rng import _DRAW_BLOCK
from dmdstego.superpixel import MAX_MODULUS, codes_to_mirrors
from scalar_reference import SplitMix64


def random_field(rng, shape, scale=3.0):
    return rng.normal(scale=scale, size=shape) + 1j * rng.normal(scale=scale, size=shape)


def test_params_validation():
    NormalizationParams(peak_fraction=1.0)
    NormalizationParams(peak_fraction=0.1)
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(ValueError):
            NormalizationParams(peak_fraction=bad)


def test_normalize_scales_peak():
    rng = np.random.default_rng(0)
    field = random_field(rng, (20, 30))
    for pf in (0.8, 0.3, 1.0):
        scaled, scale = normalize_field(field, NormalizationParams(peak_fraction=pf))
        assert np.abs(scaled).max() == pytest.approx(pf * MAX_MODULUS, rel=1e-12)
        assert np.allclose(scaled, field * scale)


def test_normalize_zero_field():
    scaled, scale = normalize_field(np.zeros((4, 4), dtype=complex))
    assert scale == 1.0
    assert np.all(scaled == 0)


def test_normalize_upscales_small_fields():
    field = np.full((2, 2), 1e-3 + 0j)
    _, scale = normalize_field(field)
    assert scale > 1


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_field(np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        normalize_field(np.array([[np.nan + 0j]]))
    with pytest.raises(ValueError):
        normalize_field(np.array([[np.inf + 0j]]))


@pytest.mark.parametrize("peak", [1.5e308 + 1.5e308j, 1.7e308 + 1e308j, 1e-320, 5e-324j, 1e-310 - 1e-311j])
def test_normalize_refuses_a_peak_or_scale_past_float64(peak):
    # A finite sample whose modulus overflows would give scale 0, and a peak
    # so small that the scale overflows would give inf * 0 = NaN samples.
    field = np.zeros((4, 4), dtype=complex)
    field[1, 2] = peak
    field[3, 0] = peak / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="peak modulus"):
            normalize_field(field)


@pytest.mark.parametrize("peak", [1.2e308, 1e308 + 1e307j, 1e-300, 3e-308j])
def test_normalize_scales_fields_near_the_float64_limits(peak):
    # The largest and smallest peaks whose modulus and scale stay finite
    # normalize as any other field does.
    field = np.zeros((4, 4), dtype=complex)
    field[1, 2] = peak
    field[3, 0] = peak / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled, scale = normalize_field(field)
    assert scale == 0.8 * MAX_MODULUS / np.abs(field).max()
    assert np.array_equal(scaled, field * scale)
    assert np.abs(scaled).max() == pytest.approx(0.8 * MAX_MODULUS, rel=1e-12)


def test_quantize_matches_scan(codebook):
    # Samples on the quantizer's grid take the scan's answer; a field holding
    # one off it (a part beyond 5.15, so past every value) is refused.
    rng = np.random.default_rng(1)
    field = random_field(rng, (9, 7))
    half = GRID_HALF_CELLS * GRID_STEP
    on_grid = (np.abs(field.real) < half) & (np.abs(field.imag) < half)
    assert 0 < np.count_nonzero(~on_grid) < 10
    with pytest.raises(ValueError, match="normalize_field"):
        quantize_field(field, codebook)
    for i, j in zip(*np.nonzero(~on_grid)):
        with pytest.raises(ValueError, match="normalize_field"):
            quantize_field(field[i:i + 1, j:j + 1], codebook)
    plan = quantize_field(field[on_grid][None, :], codebook)[0]
    for p, t in zip(plan, field[on_grid]):
        assert p == np.argmin(np.abs(codebook.values - t))


def test_quantize_idempotent_on_codebook_values(codebook):
    rng = np.random.default_rng(2)
    plan = rng.integers(0, 6561, (15, 15), dtype=np.int64)
    assert np.array_equal(quantize_field(codebook.values[plan], codebook), plan)


def test_quantization_error_bounded_after_normalize(codebook):
    rng = np.random.default_rng(3)
    field = random_field(rng, (32, 32))
    scaled, _ = normalize_field(field)  # peak at 0.8 * MAX_MODULUS
    plan = quantize_field(scaled, codebook)
    err = np.abs(codebook.values[plan] - scaled)
    assert err.max() <= COVERING_RADIUS + 1e-12


def test_covering_radius_holds_to_alpha_0_8_only(codebook):
    # The bound covers the 0.8 disk; the 1.0 rim lies past it (about 0.5055).
    rim = np.exp(2j * np.pi * np.arange(200_001) / 200_001)
    error = {}
    for alpha in (0.8, 1.0):
        t = alpha * MAX_MODULUS * rim
        error[alpha] = np.abs(codebook.values[quantize_field(t[None, :], codebook)[0]] - t).max()
    assert error[0.8] <= COVERING_RADIUS
    assert error[1.0] > COVERING_RADIUS
    assert error[1.0] == pytest.approx(0.5055, abs=1e-3)


@pytest.mark.parametrize("alpha", [0.8, 1.0])
def test_normalized_fields_stay_on_the_quantizer_grid(codebook, alpha):
    # The refusal of targets off the grid relies on the grid holding the
    # whole disk, with room to spare on its refused upper edges.  A field
    # peaking on each axis and each diagonal quantizes after normalization.
    assert MAX_MODULUS < GRID_HALF_CELLS * GRID_STEP
    params = NormalizationParams(peak_fraction=alpha)
    for k in range(8):
        field = np.full((3, 4), 0.25 + 0.1j)
        field[1, 2] = 7.0 * np.exp(1j * np.pi / 4 * k)
        scaled, _ = normalize_field(field, params)
        assert quantize_field(scaled, codebook).shape == scaled.shape


def test_covering_radius_spot_check(codebook):
    rng = np.random.default_rng(4)
    r = np.sqrt(rng.uniform(0, 1, 3000)) * 0.8 * MAX_MODULUS
    t = rng.uniform(0, 2 * np.pi, 3000)
    pts = r * np.exp(1j * t)
    idx = codebook.nearest_values(pts)
    assert np.abs(codebook.values[idx] - pts).max() <= COVERING_RADIUS + 1e-12


def test_select_patterns_strategies(codebook):
    rng = np.random.default_rng(5)
    plan = rng.integers(0, 6561, (6, 8), dtype=np.int64)
    mins = select_patterns(plan, codebook, "min")
    maxs = select_patterns(plan, codebook, "max")
    starts = codebook.group_starts
    assert np.array_equal(mins, codebook.patterns_sorted[starts[plan]])
    assert np.array_equal(maxs, codebook.patterns_sorted[starts[plan + 1] - 1])


def test_select_patterns_random_needs_key(codebook):
    plan = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        select_patterns(plan, codebook, "random")
    with pytest.raises(ValueError):
        select_patterns(plan, codebook, "bogus", seed=0)


def test_select_patterns_random_deterministic(codebook):
    rng = np.random.default_rng(6)
    plan = rng.integers(0, 6561, (10, 10), dtype=np.int64)
    a = select_patterns(plan, codebook, "random", seed=9)
    b = select_patterns(plan, codebook, "random", seed=9)
    c = select_patterns(plan, codebook, "random", seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(codebook.group_of_pattern[a], plan)


def test_strategy_names():
    assert STRATEGIES == ("random", "min", "max")


def test_select_patterns_picks_in_groups(codebook):
    groups = np.array([3280, 0, 3280, 17, 3280])
    sizes = codebook.group_sizes[groups]
    rng = SplitMix64(11)
    for strategy, seed, want in [("min", None, [0] * 5), ("max", None, (sizes - 1).tolist()),
                                 ("random", 11, [rng.below(int(s)) for s in sizes])]:
        codes = select_patterns(groups, codebook, strategy, seed)
        assert np.array_equal(codebook.group_of_pattern[codes], groups), strategy
        assert codebook.position_of_pattern[codes].tolist() == want, strategy
    # Group 3280 (the zero value) holds 256 patterns.
    picks = set(codebook.position_of_pattern[select_patterns(np.full(200, 3280), codebook, "random", 11)].tolist())
    assert picks <= set(range(256))
    assert len(picks) > 50


def test_select_patterns_random_across_draw_blocks(codebook):
    # Three draw blocks and a partial fourth, over every group size the codebook has.
    groups = np.random.default_rng(12).integers(0, 6561, 3 * _DRAW_BLOCK + 100)
    rng = SplitMix64(0xA5A5)
    codes = select_patterns(groups, codebook, "random", 0xA5A5)
    assert np.array_equal(codebook.group_of_pattern[codes], groups)
    assert codebook.position_of_pattern[codes].tolist() == [rng.below(int(s)) for s in codebook.group_sizes[groups]]


def test_importing_the_modulator_loads_no_stego():
    code = "import sys, dmdstego.modulator; print(sorted(m for m in sys.modules if m.startswith('dmdstego')))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "dmdstego.stego" not in r.stdout


def _encode(field, codebook, strategy="min", seed=None):
    """normalize -> quantize -> select -> assemble, as the encode command runs them."""
    scaled, scale = normalize_field(field)
    plan = quantize_field(scaled, codebook)
    return codes_to_mirrors(select_patterns(plan, codebook, strategy, seed)), plan, scale


def test_encode_shapes_and_scale(codebook):
    rng = np.random.default_rng(7)
    field = random_field(rng, (12, 18))
    mirrors, plan, scale = _encode(field, codebook)
    assert plan.shape == (12, 18)
    assert mirrors.shape == (48, 72)
    assert mirrors.dtype == np.uint8
    assert scale == pytest.approx(0.8 * MAX_MODULUS / np.abs(field).max())


def test_encode_decode_round_trip_all_strategies(codebook):
    rng = np.random.default_rng(8)
    field = random_field(rng, (10, 14))
    for strategy, seed in [("min", None), ("max", None), ("random", 77)]:
        mirrors, expected_plan, _ = _encode(field, codebook, strategy, seed)
        plan, values = decode_field(mirrors, codebook)
        assert np.array_equal(plan, expected_plan), strategy
        assert np.array_equal(values, codebook.values[expected_plan]), strategy


def test_decode_reports_exact_codebook_values(codebook):
    rng = np.random.default_rng(9)
    plan = rng.integers(0, 6561, (5, 5), dtype=np.int64)
    mirrors = select_patterns(plan, codebook, "min")
    got_plan, got_values = decode_field(codes_to_mirrors(mirrors), codebook)
    assert np.array_equal(got_plan, plan)
    assert np.array_equal(got_values, codebook.values[plan])


def test_decoded_values_close_to_input(codebook):
    rng = np.random.default_rng(10)
    field = random_field(rng, (16, 16))
    mirrors, _, scale = _encode(field, codebook)
    _, values = decode_field(mirrors, codebook)
    assert np.abs(values - field * scale).max() <= COVERING_RADIUS + 1e-12
