"""Wave-propagation, filtering, and image-quality tests.

Independent oracles: plane waves give the transfer function in closed
form, the 4f readout is cross-checked against its spatial-domain
definition and bit for bit against a block-at-a-time fold, the bilinear
resampling against scipy.ndimage.map_coordinates, and the SSIM score
against a naive per-window double loop and against
scipy.ndimage.gaussian_filter window means.
"""

import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter, map_coordinates

from dmdstego import optics
from dmdstego.codebook import build_codebook
from dmdstego.optics import (
    AliasingGuardWarning,
    ApertureSpec,
    GeometryError,
    PropagationParams,
    field_correlation,
    fresnel_propagate,
    generate_hologram,
    reconstruct,
    resample_bilinear,
    simulate_4f,
    ssim,
)
from dmdstego.rng import _stream_at
from dmdstego.superpixel import BLOCK, DEFAULT_ASSIGNMENT, PhaseAssignment, codes_to_mirrors

PARAMS = PropagationParams(wavelength=520e-9, distance=0.05, pitch=30.24e-6)
# short hop that stays alias-free even on 8x8 grids
SHORT = PropagationParams(wavelength=520e-9, distance=0.01, pitch=30.24e-6)


def random_field(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_params_validation():
    with pytest.raises(ValueError):
        PropagationParams(wavelength=0, distance=1, pitch=1e-6)
    with pytest.raises(ValueError):
        PropagationParams(wavelength=500e-9, distance=1, pitch=0)
    PropagationParams(wavelength=500e-9, distance=-2, pitch=1e-6)  # backwards is fine
    nan, inf = float("nan"), float("inf")
    for bad in (dict(wavelength=nan), dict(wavelength=inf), dict(pitch=nan), dict(pitch=-inf),
                dict(distance=nan), dict(distance=inf), dict(distance=-inf)):
        with pytest.raises(ValueError):
            PropagationParams(**{"wavelength": 500e-9, "distance": 1, "pitch": 1e-6, **bad})


def test_alias_free_distance_formula():
    p = PropagationParams(wavelength=520e-9, distance=0.1, pitch=30.24e-6)
    assert p.alias_free_distance(256) == pytest.approx(256 * 30.24e-6**2 / 520e-9)


def test_alias_free_distance_is_infinite_past_the_float_range():
    # pitch**2 overflows for the first, the division by the wavelength for the second.
    for pitch in (4e160, 4e150):
        assert PropagationParams(wavelength=520e-9, distance=0.05, pitch=pitch).alias_free_distance(8) == np.inf


# Pitches too large for the alias-free range, then too small for the
# transfer phase: the last three would give a field of NaN.
OVERFLOWING_GEOMETRIES = [
    PropagationParams(wavelength=520e-9, distance=0.05, pitch=4e160),
    PropagationParams(wavelength=520e-9, distance=0.05, pitch=4e150),
    PropagationParams(wavelength=520e-9, distance=0.05, pitch=4e-160),
    PropagationParams(wavelength=520e-9, distance=1e300, pitch=4e-100),
    PropagationParams(wavelength=520e-9, distance=0.05, pitch=1e-320),
]


@pytest.mark.parametrize("params", OVERFLOWING_GEOMETRIES)
@pytest.mark.parametrize("shape", [(1, 8), (8, 8), (7, 12)])
def test_fresnel_refuses_a_geometry_that_overflows(params, shape):
    # The library entries that propagate refuse through fresnel_propagate,
    # with a ValueError, so callers that catch ValueError still do.
    assert issubclass(GeometryError, ValueError)
    for propagate in (fresnel_propagate, reconstruct, lambda obj, p: generate_hologram(obj, p, obj.shape)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="overflows"):
                propagate(np.ones(shape), params)
            with pytest.raises(GeometryError, match="overflows"):
                propagate(np.ones(shape), replace(params, distance=-params.distance))


def test_fresnel_refuses_a_field_it_cannot_propagate_finitely():
    # One non-finite sample, or finite samples whose transform overflows.
    fields = [np.ones((8, 8), dtype=complex) for _ in range(2)]
    fields[0][3, 5], fields[1][3, 5] = np.nan, complex(1, np.inf)
    fields.append(np.full((8, 8), 1e308, dtype=complex))
    for field in fields:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                fresnel_propagate(field, SHORT)


def test_geometry_check_agrees_with_the_whole_transfer_phase():
    # fresnel_propagate refuses a geometry exactly when an alias-free range
    # overflows or some phase -i pi lambda z (fx^2 + fy^2) of the whole
    # frequency quadrant is not finite.
    pitches = [1e-320, 1e-200, 1e-160, 1e-155, 1e-154, 1e-100, 1e-6, 1.0, 1e100, 1e150, 1e154]
    for shape in ((1, 1), (2, 3), (8, 8), (9, 16)):
        for pitch in pitches:
            for distance in (0.0, 0.05, -1e3, 1e300, 1.7e308):
                params = PropagationParams(wavelength=520e-9, distance=distance, pitch=pitch)
                ny, nx = shape
                with np.errstate(all="ignore"):
                    fx = np.fft.fftfreq(nx, d=pitch)[:nx // 2 + 1]
                    fy = np.fft.fftfreq(ny, d=pitch)[:ny // 2 + 1]
                    phase = -1j * np.pi * 520e-9 * distance * (fx[None, :] ** 2 + fy[:, None] ** 2)
                finite_range = all(np.isfinite(params.alias_free_distance(n)) for n in shape)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", AliasingGuardWarning)
                    try:
                        fresnel_propagate(np.ones(shape), params)
                        refused = False
                    except GeometryError:
                        refused = True
                assert refused == (not (np.isfinite(phase).all() and finite_range)), (shape, pitch, distance)


def test_zero_distance_identity():
    field = random_field(0, (64, 64))
    p = PropagationParams(wavelength=520e-9, distance=0.0, pitch=30.24e-6)
    out = fresnel_propagate(field, p)
    assert np.abs(out - field).max() < 1e-12


def test_plane_wave_closed_form():
    # eigenfunctions of the propagation: a sampled plane wave picks up
    # exactly exp(-i pi lambda z (fx^2 + fy^2))
    n = 64
    y, x = np.mgrid[0:n, 0:n]
    for k, l in [(0, 0), (1, 0), (5, 9), (-7, 3), (n // 2 - 1, -n // 2 + 2)]:
        wave = np.exp(2j * np.pi * (k * x + l * y) / n)
        fx = k / (n * PARAMS.pitch)
        fy = l / (n * PARAMS.pitch)
        phase = np.exp(-1j * np.pi * PARAMS.wavelength * PARAMS.distance * (fx**2 + fy**2))
        out = fresnel_propagate(wave, PARAMS)
        assert np.abs(out - wave * phase).max() < 1e-9, (k, l)


def test_round_trip():
    field = random_field(1, (96, 96))
    back = fresnel_propagate(fresnel_propagate(field, PARAMS),
                             PropagationParams(520e-9, -0.05, 30.24e-6))
    assert np.abs(back - field).max() / np.abs(field).max() < 1e-10


def test_energy_conserved():
    field = random_field(2, (128, 128))
    out = fresnel_propagate(field, PARAMS)
    e0 = np.sum(np.abs(field) ** 2)
    e1 = np.sum(np.abs(out) ** 2)
    assert abs(e1 - e0) / e0 < 1e-12


def test_distance_additivity():
    field = random_field(3, (64, 64))
    p1 = PropagationParams(520e-9, 0.02, 30.24e-6)
    p2 = PropagationParams(520e-9, 0.03, 30.24e-6)
    p12 = PropagationParams(520e-9, 0.05, 30.24e-6)
    a = fresnel_propagate(fresnel_propagate(field, p1), p2)
    b = fresnel_propagate(field, p12)
    assert np.abs(a - b).max() / np.abs(b).max() < 1e-10


def test_aliasing_guard_warns():
    field = random_field(4, (32, 32))
    limit = PARAMS.alias_free_distance(32)
    with pytest.warns(AliasingGuardWarning):
        fresnel_propagate(field, PropagationParams(520e-9, limit * 1.01, 30.24e-6))
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasingGuardWarning)
        fresnel_propagate(field, PropagationParams(520e-9, limit * 0.99, 30.24e-6))


def test_aliasing_guard_per_axis():
    field = random_field(5, (16, 256))
    lim_small = PARAMS.alias_free_distance(16)
    lim_big = PARAMS.alias_free_distance(256)
    with pytest.warns(AliasingGuardWarning):
        fresnel_propagate(field, PropagationParams(520e-9, (lim_small + lim_big) / 2, 30.24e-6))


def test_resample_identity():
    field = random_field(6, (20, 30))
    out = resample_bilinear(field, (20, 30))
    assert np.abs(out - field).max() < 1e-12


def test_resample_constant_letterbox():
    img = np.ones((10, 20))
    out = resample_bilinear(img, (40, 40))
    # aspect preserved: 20x40 lit rows centered vertically
    assert out.shape == (40, 40)
    lit = np.abs(out) > 0.5
    rows = np.flatnonzero(lit.any(axis=1))
    assert rows[0] > 0 and rows[-1] < 39
    assert np.allclose(out[lit], 1.0, atol=1e-12)


def test_resample_linear_ramp_exact_interior():
    # bilinear interpolation reproduces affine images away from borders
    y, x = np.mgrid[0:16, 0:16].astype(float)
    img = 2.0 * x + 3.0 * y
    out = resample_bilinear(img, (32, 32))
    yy, xx = np.mgrid[0:32, 0:32]
    src_x = (xx + 0.5) * 16 / 32 - 0.5
    src_y = (yy + 0.5) * 16 / 32 - 0.5
    interior = (src_x >= 0) & (src_x <= 15) & (src_y >= 0) & (src_y <= 15)
    expected = 2.0 * src_x + 3.0 * src_y
    assert np.abs(out[interior] - expected[interior]).max() < 1e-10


def reference_resample(array, shape):
    """resample_bilinear's letterbox geometry, interpolated by scipy.ndimage."""
    a = np.asarray(array)
    h_out, w_out = shape
    h_in, w_in = a.shape
    scale = min(h_out / h_in, w_out / w_in)
    h_fit = max(1, round(h_in * scale))
    w_fit = max(1, round(w_in * scale))
    y0 = (h_out - h_fit) // 2
    x0 = (w_out - w_fit) // 2
    yy = (np.arange(h_fit) + 0.5) * (h_in / h_fit) - 0.5
    xx = (np.arange(w_fit) + 0.5) * (w_in / w_fit) - 0.5
    coords = np.meshgrid(yy, xx, indexing="ij")

    def interp(component):
        return map_coordinates(component, coords, order=1, mode="constant", cval=0.0)

    if np.iscomplexobj(a):
        fitted = interp(a.real) + 1j * interp(a.imag)
    else:
        fitted = interp(a.astype(np.float64))
    out = np.zeros(shape, dtype=fitted.dtype)
    out[y0:y0 + h_fit, x0:x0 + w_fit] = fitted
    return out


def test_resample_matches_map_coordinates():
    rng = np.random.default_rng(17)
    cases = [((1, 1), (1, 1)), ((1, 1), (9, 6)), ((1, 12), (5, 40)), ((12, 1), (40, 5)),
             ((1, 30), (1, 7)), ((30, 1), (7, 1)), ((7, 7), (7, 7)), ((540, 960), (270, 480))]
    cases += [(tuple(rng.integers(1, 60, 2)), tuple(rng.integers(1, 150, 2))) for _ in range(150)]
    for in_shape, out_shape in cases:
        real = rng.normal(size=in_shape)
        for a in (real, real + 1j * rng.normal(size=in_shape)):
            expected = reference_resample(a, out_shape)
            got = resample_bilinear(a, out_shape)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), (in_shape, out_shape, a.dtype)


def test_hologram_deterministic():
    obj = np.zeros((24, 24)); obj[8:16, 6:20] = 1.0
    a = generate_hologram(obj, PARAMS, (32, 32), diffuser_seed=0)
    b = generate_hologram(obj, PARAMS, (32, 32), diffuser_seed=0)
    c = generate_hologram(obj, PARAMS, (32, 32), diffuser_seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hologram_diffuser_phases():
    obj = np.ones((16, 16))
    plain = generate_hologram(obj, SHORT, (16, 16), diffuser_seed=None)
    dif = generate_hologram(obj, SHORT, (16, 16), diffuser_seed=3)
    assert not np.array_equal(plain, dif)
    # both carry the same energy: the diffuser is pure phase
    assert np.sum(np.abs(plain) ** 2) == pytest.approx(np.sum(np.abs(dif) ** 2), rel=1e-10)


def test_hologram_diffuser_matches_stream():
    obj = np.ones((8, 8))
    seed = 42
    field = generate_hologram(obj, SHORT, (8, 8), diffuser_seed=seed)
    u = _stream_at(seed, np.arange(64)).astype(np.float64).reshape(8, 8) / 2.0**64
    expected = fresnel_propagate(np.exp(2j * np.pi * u), SHORT)
    assert np.abs(field - expected).max() < 1e-12


def test_black_object_zero_field():
    field = generate_hologram(np.zeros((12, 12)), SHORT, (16, 16))
    assert np.all(field == 0)


def test_hologram_rejects_bad_objects():
    with pytest.raises(ValueError):
        generate_hologram(np.full((8, 8), -1.0), PARAMS, (8, 8))
    with pytest.raises(ValueError):
        generate_hologram(np.full((8, 8), np.nan), PARAMS, (8, 8))


def test_reconstruct_peak_and_dtype():
    obj = np.zeros((24, 24)); obj[6:18, 6:18] = 1.0
    field = generate_hologram(obj, PARAMS, (32, 32), diffuser_seed=None)
    img = reconstruct(field, PARAMS)
    assert img.dtype == np.uint8
    assert img.shape == (32, 32)
    assert img.max() == 255


def test_reconstruct_zero_field():
    img = reconstruct(np.zeros((16, 16), dtype=complex), SHORT)
    assert np.all(img == 0)


def test_reconstruct_rejects_non_finite_fields():
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        field = np.ones((16, 16), dtype=complex)
        field[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            reconstruct(field, SHORT)


def test_reconstruct_inverts_hologram(synthetic_object):
    field = generate_hologram(synthetic_object, PARAMS, (128, 128), diffuser_seed=None)
    img = reconstruct(field, PARAMS)
    target = np.abs(resample_bilinear(synthetic_object.astype(float), (128, 128)))
    target = np.rint(target * 255.0 / target.max()).astype(np.uint8)
    assert ssim(img, target) > 0.95


def test_aperture_defaults():
    spec = ApertureSpec()
    assert spec.center == (1 / 16, 1 / 4)
    assert spec.radius == pytest.approx(0.45)
    for bad in (dict(radius=0.0), dict(radius=float("nan")), dict(radius=float("inf")),
                dict(center=(float("nan"), 0.25)), dict(center=(0.0, float("inf")))):
        with pytest.raises(ValueError):
            ApertureSpec(**bad)


def test_sim4f_shape_and_validation():
    with pytest.raises(ValueError):
        simulate_4f(np.zeros((10, 12), dtype=np.uint8))
    out = simulate_4f(np.zeros((16, 24), dtype=np.uint8))
    assert out.shape == (4, 6)


@pytest.mark.parametrize("shape", [(0, 0), (0, 8), (8, 0)])
def test_sim4f_refuses_an_empty_mirror_array(shape):
    # Zero is a multiple of 4, so an empty array needs its own check before np.fft.
    with pytest.raises(ValueError, match="must not be empty"):
        simulate_4f(np.zeros(shape, dtype=np.uint8))


def test_sim4f_all_off_gives_zero():
    out = simulate_4f(np.zeros((32, 32), dtype=np.uint8))
    assert np.abs(out).max() < 1e-12


def test_sim4f_recovers_codebook_values():
    cb = build_codebook()
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 65536, (48, 48)).astype(np.uint16)
    out = simulate_4f(codes_to_mirrors(codes))
    plan = cb.group_of_pattern[codes]
    corr = field_correlation(out, cb.values[plan])
    assert corr >= 0.95


def test_sim4f_narrow_aperture_degrades():
    cb = build_codebook()
    rng = np.random.default_rng(12)
    codes = rng.integers(0, 65536, (32, 32)).astype(np.uint16)
    mirrors = codes_to_mirrors(codes)
    ref = cb.values[cb.group_of_pattern[codes]]
    wide = field_correlation(simulate_4f(mirrors), ref)
    narrow = field_correlation(simulate_4f(mirrors, ApertureSpec(radius=1 / 16)), ref)
    assert narrow < wide


def reference_4f(mirrors, aperture, assignment):
    """The readout as defined in space: full-size filter, tiled mask, block mean."""
    b = (np.asarray(mirrors) != 0).astype(np.float64)
    ny, nx = b.shape
    dx = (np.fft.fftfreq(nx) - aperture.center[0] + 0.5) % 1.0 - 0.5
    dy = (np.fft.fftfreq(ny) - aperture.center[1] + 0.5) % 1.0 - 0.5
    passband = dx[None, :] ** 2 + dy[:, None] ** 2 <= aperture.radius ** 2
    filtered = np.fft.ifft2(np.fft.fft2(b) * passband)
    tiles = np.tile(np.exp(1j * assignment.block_phases), (ny // BLOCK, nx // BLOCK))
    demod = np.conj(filtered) * tiles
    return demod.reshape(ny // BLOCK, BLOCK, nx // BLOCK, BLOCK).mean(axis=(1, 3))


REVERSED = PhaseAssignment.from_string("16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1")
APERTURES = [
    ApertureSpec(),
    ApertureSpec(radius=1 / 16),
    ApertureSpec(center=(0.3, -0.2), radius=0.7),  # wraps the frequency torus
    ApertureSpec(radius=0.75),                     # passes every frequency
]


@pytest.mark.parametrize("shape", [(4, 4), (8, 12), (12, 20), (36, 20), (64, 96)])
@pytest.mark.parametrize("aperture", APERTURES)
@pytest.mark.parametrize("assignment", [DEFAULT_ASSIGNMENT, REVERSED])
def test_sim4f_matches_spatial_reference(shape, aperture, assignment):
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, shape)
    arrays = [bits.astype(bool), bits.astype(np.uint8), (255 * bits).astype(np.uint8),
              np.zeros(shape, dtype=np.uint8), np.ones(shape, dtype=bool)]
    for mirrors in arrays:
        expected = reference_4f(mirrors, aperture, assignment)
        out = simulate_4f(mirrors, aperture, assignment)
        assert out.shape == expected.shape
        assert np.abs(out - expected).max() <= 1e-12


def bits_of(a):
    # numpy 1.x returns fft2 results as transposed views
    return np.ascontiguousarray(a).view(np.uint64)


# 1x1, 1xN and Nx1; sizes that are no multiple of the strip size; sizes
# past it, with a remainder strip on each axis.
STRIP_SHAPES = [(1, 1), (1, 7), (1, 100), (5, 1), (100, 1), (17, 33), (45, 97),
                (optics._STRIP, optics._STRIP),
                (3 * optics._STRIP + 1, 2 * optics._STRIP - 1), (270, 480), (300, 301)]


@pytest.mark.parametrize("shape", STRIP_SHAPES)
def test_strip_transforms_match_whole_array_fft(shape):
    z = random_field(23, shape)
    assert np.array_equal(bits_of(optics._fft2(z, np.fft.fft, np.fft.fft)),
                          bits_of(np.fft.fft2(z)))
    assert np.array_equal(bits_of(optics._fft2(z, np.fft.ifft, np.fft.ifft)),
                          bits_of(np.fft.ifft2(z)))
    bits = np.random.default_rng(29).integers(0, 2, shape)
    for mirrors in (bits.astype(bool), bits.astype(np.uint8), (255 * bits).astype(np.uint8)):
        expected = np.fft.rfft2((mirrors != 0).astype(np.float64))
        out = optics._fft2(mirrors, optics._mirror_rfft, np.fft.fft)
        assert np.array_equal(bits_of(out), bits_of(expected))


def block_fold_4f(mirrors, aperture, assignment):
    """simulate_4f's frequency-domain readout with whole-array transforms,
    folding one (H, W) alias block at a time into fresh temporaries."""
    m = np.asarray(mirrors)
    n1, n2 = m.shape
    h, w = n1 // BLOCK, n2 // BLOCK
    half = np.fft.rfft2((m != 0).astype(np.float64))
    cx, cy = aperture.center
    dx2 = ((np.fft.fftfreq(n2) - cx + 0.5) % 1.0 - 0.5) ** 2
    dy2 = ((np.fft.fftfreq(n1) - cy + 0.5) % 1.0 - 0.5) ** 2
    k1, k2 = np.arange(n1), np.arange(n2)
    step = np.arange(BLOCK)
    ey_mask = np.exp(2j * np.pi * np.outer(k1, step) / n1) @ np.exp(-1j * assignment.block_phases)
    ex = np.exp(2j * np.pi * np.outer(k2, step) / n2)
    folded = np.zeros((h, w), dtype=np.complex128)
    for p in range(BLOCK):
        rows = slice(p * h, (p + 1) * h)
        for q in range(BLOCK):
            cols = slice(q * w, (q + 1) * w)
            if 2 * q < BLOCK:
                block = half[rows, cols]
            else:
                block = np.conj(half[-k1[rows] % n1, n2 - q * w:n2 - (q + 1) * w:-1])
            weight = ey_mask[rows] @ ex[cols].T
            weight *= dx2[cols] + dy2[rows, None] <= aperture.radius ** 2
            weight *= block
            folded += weight
    return np.conj(np.fft.ifft2(folded)) / BLOCK ** 4


# superpixel heights: one row, below the fold strip, equal to it, one past
# it (an uneven split must leave no one-row strip) and no multiple of it
FOLD_HEIGHTS = [1, optics._STRIP - 1, optics._STRIP, optics._STRIP + 1,
                2 * optics._STRIP + 7]


def assert_fold_matches_block_oracle(shape, aperture, assignment, seed):
    bits = np.random.default_rng(seed).integers(0, 2, shape)
    for mirrors in (bits.astype(bool), bits.astype(np.uint8), (255 * bits).astype(np.uint8)):
        out = simulate_4f(mirrors, aperture, assignment)
        expected = block_fold_4f(mirrors, aperture, assignment)
        assert np.array_equal(bits_of(out), bits_of(expected))


@pytest.mark.parametrize("height", FOLD_HEIGHTS)
@pytest.mark.parametrize("aperture", APERTURES)
@pytest.mark.parametrize("assignment", [DEFAULT_ASSIGNMENT, REVERSED])
def test_sim4f_strip_fold_matches_block_fold(height, aperture, assignment):
    assert_fold_matches_block_oracle((BLOCK * height, BLOCK * 5), aperture, assignment, height)


def test_sim4f_strip_fold_matches_block_fold_full_frame():
    assert_fold_matches_block_oracle((1080, 1920), ApertureSpec(), DEFAULT_ASSIGNMENT, 41)


# Circles through grid frequencies: with the default centre (1/16, 1/4) and
# radius 1/4, frequency (5/16, 1/4) is on the circle on sizes that are
# multiples of 16; with centre (0, 0), (1/4, 0) is.  Radius 1e-3 passes,
# on a grid coarser than twice the radius, the centre frequency alone where
# it is on the grid and nothing elsewhere.
EDGE_APERTURES = [
    ApertureSpec(radius=1 / 4),
    ApertureSpec(center=(0.0, 0.0), radius=1 / 4),
    ApertureSpec(radius=1e-3),
]


def squared_distances(shape, aperture):
    """(dy2, dx2): simulate_4f's squared wrapped distances from the aperture
    centre, of each spectrum row and column."""
    n1, n2 = shape
    cx, cy = aperture.center
    dx2 = ((np.fft.fftfreq(n2) - cx + 0.5) % 1.0 - 0.5) ** 2
    dy2 = ((np.fft.fftfreq(n1) - cy + 0.5) % 1.0 - 0.5) ** 2
    return dy2, dx2


@pytest.mark.parametrize("shape", [(16, 16), (64, 128), (256, 64), (1080, 1920), (20, 36)])
@pytest.mark.parametrize("aperture", EDGE_APERTURES)
def test_sim4f_edge_apertures_match_block_fold(shape, aperture):
    dy2, dx2 = squared_distances(shape, aperture)
    sums = dy2[:, None] + dx2
    if aperture.radius == 1e-3:
        if max(shape) <= 256:
            assert np.count_nonzero(sums <= aperture.radius ** 2) == (shape[1] % 16 == 0)
    elif shape[0] % 16 == 0 and shape[1] % 16 == 0:
        assert np.any(sums == aperture.radius ** 2)  # the passband edge is on the grid
    assert_fold_matches_block_oracle(shape, aperture, DEFAULT_ASSIGNMENT, shape[0] + shape[1])


THRESHOLD_APERTURES = [ApertureSpec(), *EDGE_APERTURES, APERTURES[2], APERTURES[3]]


@pytest.mark.parametrize("shape", [(4, 4), (16, 16), (20, 36), (256, 64), (1080, 1920)])
@pytest.mark.parametrize("aperture", THRESHOLD_APERTURES)
def test_passband_thresholds_match_every_sum(shape, aperture):
    dy2, dx2 = squared_distances(shape, aperture)
    radius2 = aperture.radius ** 2
    threshold = optics._passband_thresholds(dy2, dx2, radius2)
    assert np.array_equal(dx2 <= threshold[:, None], dy2[:, None] + dx2 <= radius2)
    # each threshold is an entry of dx2, or -inf where a row passes none
    assert np.all(np.isin(threshold, dx2) | (threshold == -np.inf))


def test_passband_thresholds_correct_the_guess_both_ways():
    # Entries of dx2 within a few ulps of radius2 - dy2[r]: the rounded sum
    # puts some of those the searchsorted guess counts outside and some it
    # leaves out inside, and the thresholds must still give the sum's mask.
    rng = np.random.default_rng(43)
    radius2 = 0.35 ** 2
    dy2 = rng.uniform(0, radius2, 200)
    edge = radius2 - dy2
    dx2 = np.concatenate([edge + k * np.spacing(edge) for k in range(-4, 5)] + [[0.0, 1.0]])
    guess = np.searchsorted(np.sort(dx2), edge, side="right")
    inside = dy2[:, None] + dx2 <= radius2
    assert np.any(guess > inside.sum(1)) and np.any(guess < inside.sum(1))
    threshold = optics._passband_thresholds(dy2, dx2, radius2)
    assert np.array_equal(dx2 <= threshold[:, None], inside)
    nothing = optics._passband_thresholds(np.array([0.3, 0.0]), np.array([0.2, 0.1]), 0.05)
    assert np.array_equal(nothing, [-np.inf, -np.inf])


def test_sim4f_radius_past_every_frequency():
    # Every squared distance is at most 1/2, so any radius from 1 up passes
    # all of them; a radius whose square overflows a float still works.
    mirrors = np.random.default_rng(47).integers(0, 2, (32, 48), dtype=np.uint8)
    expected = simulate_4f(mirrors, ApertureSpec(radius=0.75))
    for radius in (1.0, 1e200, np.finfo(float).max):
        assert np.array_equal(bits_of(simulate_4f(mirrors, ApertureSpec(radius=radius))),
                              bits_of(expected))


def whole_array_fresnel(field, params):
    """fresnel_propagate by whole-array np.fft, np.exp taken over every frequency."""
    ny, nx = field.shape
    fx = np.fft.fftfreq(nx, d=params.pitch)
    fy = np.fft.fftfreq(ny, d=params.pitch)
    transfer = np.exp(-1j * np.pi * params.wavelength * params.distance
                      * (fx[None, :] ** 2 + fy[:, None] ** 2))
    return np.fft.ifft2(np.fft.fft2(field) * transfer)


# Even and odd lengths: an even axis has a Nyquist frequency with no
# partner, an odd one pairs every frequency but 0.
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (17, 33), (270, 480), (300, 301),
                                   (2, 2), (4, 3), (270, 481)])
def test_fresnel_matches_whole_array_fft(shape):
    f = random_field(31, shape)
    # forward, and backward as reconstruct propagates
    for params in (SHORT, replace(SHORT, distance=-SHORT.distance)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingGuardWarning)
            out = fresnel_propagate(f, params)
        assert np.array_equal(bits_of(out), bits_of(whole_array_fresnel(f, params)))


def whole_array_hologram(obj, params, shape, phasor):
    """generate_hologram's formula over every pixel: `phasor`, the diffuser
    np.exp(2j*pi*u) of every pixel (None for no diffuser), multiplies the
    amplitude, zeros included; then whole-array transforms."""
    a = np.asarray(obj, dtype=np.float64)
    peak = a.max()
    amp = a / peak if peak > 0 else a
    field = amp.astype(np.complex128) if phasor is None else amp * phasor
    return whole_array_fresnel(resample_bilinear(field, shape), params)


def diffuser_phasor(seed, shape):
    """np.exp(2j*pi*u) over every pixel of an object of `shape`, drawn afresh."""
    u = _stream_at(seed, np.arange(shape[0] * shape[1])).reshape(shape).astype(np.float64) / 2.0 ** 64
    return np.exp(2j * np.pi * u)


def hologram_object(kind, shape):
    h, w = shape
    y, x = np.ogrid[0:h, 0:w]
    bars = np.repeat(np.where((x // max(w // 16, 1)) % 2 == 0, 0.35, 0.0), h, axis=0)
    bars[(x - 0.3 * w) ** 2 + (y - 0.35 * h) ** 2 < (0.18 * min(h, w)) ** 2] = 1.0
    if kind == "bars":
        return bars
    if kind == "dense":
        return np.random.default_rng(h * w).random(shape) + 0.1
    if kind == "single":
        obj = np.zeros(shape)
        obj[h // 3, w // 2] = 0.7
        return obj
    if kind == "black":
        return np.zeros(shape)
    return np.where(bars == 0, -0.0, bars)  # "negative zeros"


# upsampled, downsampled by 4, and by a non-integer factor
@pytest.mark.parametrize("in_shape, out_shape", [((100, 77), (270, 480)),
                                                 ((1080, 1920), (270, 480)),
                                                 ((90, 125), (64, 50))])
@pytest.mark.parametrize("seed", [0, 7, (1 << 64) - 1, None])
def test_hologram_matches_whole_array_diffuser(seed, in_shape, out_shape):
    # generate_hologram multiplies the amplitude by its kept diffuser plate,
    # zeros included; a zero amplitude there gives +-0 parts, and the bits
    # must still be those of the phasor taken afresh, for the all-black and
    # negative-zero objects too.
    phasor = None if seed is None else diffuser_phasor(seed, in_shape)
    for kind in ("bars", "dense", "single", "black", "negative zeros"):
        obj = hologram_object(kind, in_shape)
        out = generate_hologram(obj, SHORT, out_shape, diffuser_seed=seed)
        expected = whole_array_hologram(obj, SHORT, out_shape, phasor)
        assert np.array_equal(bits_of(out), bits_of(expected)), kind


def test_kept_diffuser_follows_shape_and_seed():
    # The plate kept between holograms must be the one of this call's object
    # shape and seed, whichever came before.
    a, b = hologram_object("bars", (90, 125)), hologram_object("bars", (125, 90))
    for obj, seed in ((a, 0), (b, 0), (a, 7), (a, 0)):
        out = generate_hologram(obj, SHORT, (64, 50), diffuser_seed=seed)
        expected = whole_array_hologram(obj, SHORT, (64, 50), diffuser_phasor(seed, obj.shape))
        assert np.array_equal(bits_of(out), bits_of(expected)), (obj.shape, seed)


def test_diffuser_is_drawn_once_per_shape_and_seed(monkeypatch):
    draws = []
    monkeypatch.setattr(optics, "_stream_at",
                        lambda seed, positions: draws.append(seed) or _stream_at(seed, positions))
    obj = hologram_object("bars", (40, 30))
    generate_hologram(np.ones((3, 3)), SHORT, (16, 16), diffuser_seed=5)
    del draws[:]
    first = generate_hologram(obj, SHORT, (16, 16), diffuser_seed=5)
    again = generate_hologram(obj, SHORT, (16, 16), diffuser_seed=5)
    assert draws == [5] and np.array_equal(bits_of(first), bits_of(again))
    generate_hologram(obj, SHORT, (16, 16), diffuser_seed=6)
    assert draws == [5, 6]


def test_callers_cannot_change_the_kept_diffuser():
    obj = hologram_object("dense", (48, 40))
    expected = whole_array_hologram(obj, SHORT, (32, 32), diffuser_phasor(3, obj.shape))
    mutated = obj.copy()
    out = generate_hologram(mutated, SHORT, (32, 32), diffuser_seed=3)
    out[...] = 1.0
    mutated[...] = 2.0
    out = generate_hologram(obj, SHORT, (32, 32), diffuser_seed=3)
    assert np.array_equal(bits_of(out), bits_of(expected))


def test_one_diffuser_plate_is_kept():
    # After holograms at two object shapes, only the second one's plate
    # stays allocated: memory is one object-sized complex field.
    plate_bytes = 512 * 512 * 16
    tracemalloc.start()
    try:
        generate_hologram(np.ones((512, 512)), SHORT, (16, 16), diffuser_seed=11)
        generate_hologram(np.ones((512, 511)), SHORT, (16, 16), diffuser_seed=11)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 1.5 * plate_bytes


def test_sim4f_peak_memory_stays_near_the_half_spectrum():
    # Whole-array np.fft.rfft2 holds the float mirror plane, the row spectrum
    # and the result at once, 3.0x the half spectrum at 1080x1920 mirrors;
    # folding whole (H, W) alias blocks with the half spectrum still alive
    # through the inverse took 1.64x.  Strip-wise, the peak is 1.19x.
    mirrors = np.random.default_rng(37).integers(0, 2, (1080, 1920), dtype=np.uint8)
    half_bytes = 1080 * (1920 // 2 + 1) * 16
    tracemalloc.start()
    try:
        simulate_4f(mirrors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * half_bytes


def test_field_correlation_properties():
    a = random_field(13, (20, 20))
    assert field_correlation(a, a) == pytest.approx(1.0, abs=1e-12)
    assert field_correlation(a, 3.7j * a) == pytest.approx(1.0, abs=1e-12)
    assert field_correlation(a, np.zeros_like(a)) == 0.0
    with pytest.raises(ValueError):
        field_correlation(a, a[:10])
    with pytest.raises(ValueError, match=r"\(20, 20\) and \(40, 10\)"):
        field_correlation(a, a.reshape(40, 10))  # same size, other shape
    for bad in (np.nan, np.inf, complex(-np.inf, 0)):
        b = a.copy()
        b[7, 2] = bad
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="non-finite"):
                field_correlation(*pair)


@pytest.mark.parametrize("factor", [1e200, -1e200, 1e300, -1e300, 1e-300, -1e-300j])
def test_field_correlation_of_scaled_copies(factor):
    # A copy scaled near either end of the float64 range correlates as the
    # copy itself does: no norm or inner product overflows or underflows.
    a = random_field(13, (20, 20))
    b = a + 0.5 * random_field(14, (20, 20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert field_correlation(a, factor * a) == pytest.approx(field_correlation(a, a), abs=1e-12)
        assert field_correlation(factor * a, b) == pytest.approx(field_correlation(a, b), abs=1e-12)
        assert field_correlation(b, factor * a) == pytest.approx(field_correlation(b, a), abs=1e-12)
        assert field_correlation(factor * a, factor * b) == pytest.approx(field_correlation(a, b), abs=1e-12)


def naive_ssim(a, b):
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    g = np.exp(-((np.arange(11) - 5) ** 2) / (2 * 1.5**2))
    w = np.outer(g, g)
    w /= w.sum()
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    h, wd = a.shape
    scores = []
    for i in range(h - 10):
        for j in range(wd - 10):
            wa = a[i:i + 11, j:j + 11]
            wb = b[i:i + 11, j:j + 11]
            mua = (w * wa).sum()
            mub = (w * wb).sum()
            va = (w * wa * wa).sum() - mua**2
            vb = (w * wb * wb).sum() - mub**2
            cov = (w * wa * wb).sum() - mua * mub
            scores.append(((2 * mua * mub + c1) * (2 * cov + c2))
                          / ((mua**2 + mub**2 + c1) * (va + vb + c2)))
    return float(np.mean(scores))


def test_ssim_matches_naive_oracle():
    rng = np.random.default_rng(14)
    a = rng.integers(0, 256, (24, 31), dtype=np.uint8)
    b = np.clip(a.astype(int) + rng.integers(-30, 31, a.shape), 0, 255).astype(np.uint8)
    assert ssim(a, b) == pytest.approx(naive_ssim(a, b), abs=1e-9)
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)


def reference_ssim(a, b):
    """ssim with its window means from scipy.ndimage.gaussian_filter."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    mu_x, mu_y, xx, yy, xy = (gaussian_filter(v, 1.5, truncate=5 / 1.5)[5:-5, 5:-5]
                              for v in (x, y, x * x, y * y, x * y))
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov = xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


# The last three put one row either side of a _WINDOW_ROWS block plus the
# 10 rows the window needs.
@pytest.mark.parametrize("shape", [(11, 11), (11, 40), (37, 11), (64, 64), (129, 75), (270, 480),
                                   (optics._WINDOW_ROWS + 9, 64), (optics._WINDOW_ROWS + 10, 64),
                                   (optics._WINDOW_ROWS + 11, 64)])
def test_ssim_matches_gaussian_filter(shape):
    # Bit for bit: the window means are gaussian_filter's, and ssim combines
    # them as reference_ssim does, on 8-bit images and on signed floats.
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    a = rng.integers(0, 256, shape, dtype=np.uint8)
    b = np.clip(a.astype(int) + rng.integers(-40, 41, shape), 0, 255).astype(np.uint8)
    f = rng.normal(-20.0, 90.0, shape)
    g = f + rng.normal(0.0, 15.0, shape)
    for x, y in ((a, b), (a, 255 - a), (a, a), (f, g), (g, a)):
        assert ssim(x, y) == reference_ssim(x, y)
    for v in (a.astype(np.float64), f, f * g):
        assert np.array_equal(optics._window_mean(v[None])[0], gaussian_filter(v, 1.5, truncate=5 / 1.5)[5:-5, 5:-5])


def test_ssim_peak_memory():
    # The five images live in one stack, x and y written into it directly,
    # and the means are combined in place: about 11x one float64 image.
    rng = np.random.default_rng(53)
    a = rng.integers(0, 256, (270, 480), dtype=np.uint8)
    b = rng.integers(0, 256, (270, 480), dtype=np.uint8)
    tracemalloc.start()
    try:
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5 * 8 * a.size


def test_ssim_symmetric():
    rng = np.random.default_rng(15)
    a = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    b = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    assert ssim(a, b) == ssim(b, a)


def test_ssim_inverted_image_scores_low():
    rng = np.random.default_rng(16)
    a = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    assert ssim(a, 255 - a) < 0.2


def test_ssim_validation():
    a = np.zeros((10, 20), dtype=np.uint8)
    with pytest.raises(ValueError):
        ssim(a, a)  # too small
    with pytest.raises(ValueError):
        ssim(np.zeros((20, 20), dtype=np.uint8), np.zeros((20, 21), dtype=np.uint8))


def test_cli_import_needs_no_second_fft_library():
    # np.fft is the package's only FFT and the package loads no scipy at
    # all: scipy.signal alone costs about half a second of every CLI start,
    # scipy.spatial and scipy.ndimage about 450 ms together.
    code = "import sys, dmdstego.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
