"""Scalar wave optics for the simulation: Fresnel transport, hologram
generation and reconstruction, 4f spatial-filter readout, and SSIM scoring.

Propagation uses the paraxial transfer function exp(-i*pi*lambda*z*(fx^2+fy^2))
between identical grids; the constant exp(i*k*z) phase is dropped throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .rng import _stream_at
from .superpixel import BLOCK, DEFAULT_ASSIGNMENT, PhaseAssignment


class AliasingGuardWarning(UserWarning):
    """Propagation distance exceeds the alias-free range of the grid."""


class GeometryError(ValueError):
    """The grid cannot carry the propagation geometry in float64."""


def _check_positive(name: str, value: float) -> None:
    # Written so that NaN fails too.
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class PropagationParams:
    """Free-space transport configuration.

    Parameters
    ----------
    wavelength : float
        Illumination wavelength in meters.
    distance : float
        Signed propagation distance in meters; negative values propagate
        backwards.
    pitch : float
        Sample pitch of the propagated grid in meters.  When the field
        drives a superpixel array this is the superpixel pitch, i.e. four
        mirror pitches.
    """

    wavelength: float
    distance: float
    pitch: float

    def __post_init__(self):
        _check_positive("wavelength", self.wavelength)
        _check_positive("pitch", self.pitch)
        if not math.isfinite(self.distance):
            raise ValueError("distance must be finite")

    def alias_free_distance(self, samples: int) -> float:
        """samples * pitch**2 / wavelength, or inf where that overflows."""
        try:
            return samples * self.pitch ** 2 / self.wavelength
        except OverflowError:
            return math.inf


# Rows or columns per strip of _fft2, and superpixel rows per strip of
# simulate_4f's alias fold.
_STRIP = 32


def _fft2(a: np.ndarray, row_transform, column_transform) -> np.ndarray:
    """2-D transform of `a`, a strip of rows or columns at a time.

    row_transform(rows) transforms a block of rows of `a` along the last
    axis; column_transform(columns, axis=0) a complex block of columns along
    axis 0.  Rows go first, then columns: the 1-D calls np.fft.rfft2, fft2
    and ifft2 make, in their order, so the result is theirs bit for bit.
    Only the output is full size; the temporaries are a strip each.
    """
    first = row_transform(a[:_STRIP])
    out = np.empty((a.shape[0], first.shape[1]), dtype=np.complex128)
    out[:_STRIP] = first
    for r0 in range(_STRIP, a.shape[0], _STRIP):
        out[r0:r0 + _STRIP] = row_transform(a[r0:r0 + _STRIP])
    for c0 in range(0, out.shape[1], _STRIP):
        columns = out[:, c0:c0 + _STRIP]
        columns[...] = column_transform(columns, axis=0)
    return out


def _mirror_rfft(rows: np.ndarray) -> np.ndarray:
    """rfft along the last axis of mirror rows, taken as 0.0 (off) and 1.0 (on)."""
    return np.fft.rfft((rows != 0).astype(np.float64))


def fresnel_propagate(field: np.ndarray, params: PropagationParams) -> np.ndarray:
    """Propagate a sampled complex field by the transfer-function method.

    Both 2-D transforms run in strips of rows, then of columns (_fft2), and
    the result is np.fft.ifft2(np.fft.fft2(field) * transfer) bit for bit.
    The transfer function's exponent depends on the frequencies only through
    fx**2 + fy**2, and np.fft.fftfreq gives entries k and n - k as exact
    negatives.  So np.exp runs only on the |f| quadrant, entries 0..n//2 of
    each axis (about a quarter of the grid), and the transfer function is
    gathered from it with index min(k, n - k): the values np.exp gives over
    the whole grid.  The working set is the field plus field-sized
    temporaries: the transfer function and the two spectra.

    A geometry the grid cannot carry raises GeometryError: one whose
    alias-free range overflows (a pitch too large for the wavelength), or
    whose transfer phase overflows somewhere on the quadrant (a pitch too
    small for the wavelength and distance), which would make the field NaN.
    A field whose propagation is not finite, such as a non-finite field or
    one near the float64 limit, raises ValueError: the result is always finite.
    """
    f = np.asarray(field, dtype=np.complex128)
    if f.ndim != 2 or f.size == 0:
        raise ValueError("field must be a non-empty 2-D array")
    ny, nx = f.shape
    ranges = [params.alias_free_distance(n) for n in (ny, nx)]
    if not all(map(math.isfinite, ranges)):
        raise GeometryError(f"the alias-free range of a {nx}x{ny} grid overflows: "
                            "the pitch is too large for the wavelength")
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.fft.fftfreq(nx, d=params.pitch)[:nx // 2 + 1]
        fy = np.fft.fftfreq(ny, d=params.pitch)[:ny // 2 + 1]
        phase = -1j * np.pi * params.wavelength * params.distance * (fx[None, :] ** 2 + fy[:, None] ** 2)
    if not np.isfinite(phase).all():
        raise GeometryError(f"the transfer phase of a {nx}x{ny} grid overflows: "
                            "the pitch is too small for the wavelength and distance")
    for n, limit in zip((ny, nx), ranges):
        if abs(params.distance) > limit:
            warnings.warn(
                f"|z| = {abs(params.distance):g} m exceeds the alias-free range "
                f"{limit:g} m of a {n}-sample axis",
                AliasingGuardWarning,
                stacklevel=2,
            )
    quadrant = np.exp(phase, out=phase)
    ky, kx = np.arange(ny), np.arange(nx)
    transfer = quadrant[np.minimum(ky, ny - ky)][:, np.minimum(kx, nx - kx)]
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = _fft2(f, np.fft.fft, np.fft.fft)
        spectrum *= transfer
        out = _fft2(spectrum, np.fft.ifft, np.fft.ifft)
    if not np.isfinite(out).all():
        raise ValueError("the propagated field is not finite")
    return out


def _bilinear(a: np.ndarray, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Bilinear samples of the real array `a` on the grid of rows yy and columns xx.

    Bit for bit what scipy.ndimage.map_coordinates(order=1, mode="constant",
    cval=0) returns: a sample with a coordinate outside [0, n-1] is 0, a
    neighbour outside the array counts as 0, and the corner terms
    (d * wy) * wx are added from 0.0 in the order (0,0), (0,1), (1,0), (1,1).
    scipy weights the upper neighbour by 1 - (1 - t), not t; the two agree on
    the grids resample_bilinear builds, whose fractional parts t are
    multiples of 2**-53.
    """
    h, w = a.shape
    padded = np.zeros((h + 1, w + 1))
    padded[:h, :w] = a

    def axis(c, n):
        inside = (c >= 0) & (c <= n - 1)
        lo = np.floor(c)
        t = c - lo
        return np.where(inside, lo, 0).astype(np.intp), (1.0 - t, t), inside

    iy, wy, in_y = axis(yy, h)
    ix, wx, in_x = axis(xx, w)
    total = 0.0
    for dy in (0, 1):
        rows = padded[iy + dy]
        for dx in (0, 1):
            total = total + rows[:, ix + dx] * wy[dy][:, None] * wx[dx]
    return np.where(in_y[:, None] & in_x, total, 0.0)


def resample_bilinear(array: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Resize onto `shape` preserving aspect ratio; uncovered rows/columns
    stay zero (letterboxing).  Complex input is interpolated per component."""
    a = np.asarray(array)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("array must be a non-empty 2-D array")
    h_out, w_out = shape
    h_in, w_in = a.shape
    scale = min(h_out / h_in, w_out / w_in)
    h_fit = max(1, round(h_in * scale))
    w_fit = max(1, round(w_in * scale))
    y0 = (h_out - h_fit) // 2
    x0 = (w_out - w_fit) // 2

    yy = (np.arange(h_fit) + 0.5) * (h_in / h_fit) - 0.5
    xx = (np.arange(w_fit) + 0.5) * (w_in / w_fit) - 0.5
    window = (slice(y0, y0 + h_fit), slice(x0, x0 + w_fit))
    if np.iscomplexobj(a):
        out = np.zeros(shape, dtype=np.complex128)
        out[window].real = _bilinear(a.real, yy, xx)
        out[window].imag = _bilinear(a.imag, yy, xx)
    else:
        out = np.zeros(shape, dtype=np.float64)
        out[window] = _bilinear(a, yy, xx)
    return out


def generate_hologram(obj: np.ndarray, params: PropagationParams,
                      shape: tuple[int, int], diffuser_seed: int | None = 0) -> np.ndarray:
    """Fresnel hologram of an amplitude image on a superpixel grid.

    The object is scaled to unit peak amplitude, optionally roughened by a
    keyed uniform random phase (diffuser_seed None disables it), letterboxed
    onto `shape`, and propagated by params.distance.

    Object pixel n, in row-major order, takes the phase 2*pi*u with
    u = output n of SplitMix64(diffuser_seed) / 2**64.  The diffuser is a
    fixed phase plate, np.exp(2j*pi*u) at every pixel: the process keeps the
    plate of the last object shape and seed, so only the first hologram of a
    shape and seed pays for the exponential, over every pixel, lit or not.
    The field is amp * plate.  A zero amplitude gives parts of +-0 there,
    but resample_bilinear adds its terms from 0.0, no partial sum begun at
    +0 can be -0, and adding a signed zero to it changes no bit.
    """
    a = np.asarray(obj, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("object must be a non-empty 2-D array")
    if not np.all(np.isfinite(a)) or a.min() < 0:
        raise ValueError("object amplitudes must be finite and non-negative")
    peak = a.max()
    amp = a / peak if peak > 0 else a
    field = amp.astype(np.complex128) if diffuser_seed is None else amp * _diffuser_plate(a.shape, diffuser_seed)
    del amp  # the scaled copy, before the resampling allocates
    return fresnel_propagate(resample_bilinear(field, shape), params)


# (object shape, seed, plate) of the last diffuser made, or None.
_plate_entry = None


def _diffuser_plate(shape: tuple[int, int], seed: int) -> np.ndarray:
    """The read-only plate np.exp(2j*pi*u) over an object of `shape` (see
    generate_hologram), kept until another shape or seed comes; the old
    plate is dropped before the new one is made, so one plate is held."""
    global _plate_entry
    entry = _plate_entry
    if entry is not None and entry[0] == shape and entry[1] == seed:
        return entry[2]
    _plate_entry = entry = None
    u = _stream_at(seed, np.arange(shape[0] * shape[1])).astype(np.float64)
    u /= 2.0 ** 64
    plate = 2j * np.pi * u
    del u
    plate = np.exp(plate, out=plate).reshape(shape)
    plate.flags.writeable = False
    _plate_entry = (shape, seed, plate)
    return plate


def reconstruct(field: np.ndarray, params: PropagationParams) -> np.ndarray:
    """Back-propagate a finite hologram field and return the 8-bit modulus image."""
    if not np.all(np.isfinite(field)):
        raise ValueError("field must be finite")
    back = fresnel_propagate(field, replace(params, distance=-params.distance))
    amp = np.abs(back)
    peak = amp.max()
    if peak == 0.0:
        return np.zeros(amp.shape, dtype=np.uint8)
    return np.clip(np.rint(amp * (255.0 / peak)), 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class ApertureSpec:
    """Circular passband of the 4f filter in cycles per mirror.

    The default center sits on the phase gradient of the default assignment.
    The block phase mask is not a pure carrier, so its energy spreads over
    every quarter-cycle harmonic; the default radius is wide enough to pass
    them all.  The readout's correlation with the ideal block values is then
    0.993 on random 64x64 patterns, but 0.94-0.95 on hologram plans.  It
    also passes structure inside the blocks, so patterns of one group, with
    the same block values, read out differently.  Narrow radii such as 1/16
    isolate a single harmonic and lose most of the block information to
    ringing.
    """

    center: tuple[float, float] = (1.0 / 16.0, 1.0 / 4.0)
    radius: float = 0.45

    def __post_init__(self):
        _check_positive("aperture radius", self.radius)
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("aperture center must be finite")


def _passband_thresholds(dy2: np.ndarray, dx2: np.ndarray, radius2: float) -> np.ndarray:
    """Each spectrum row's passband edge: the largest entry v of dx2 with
    dy2[r] + v <= radius2 as numpy rounds that sum, or -inf if there is none.

    A rounded sum never decreases as one addend grows, so the entries of
    dx2 inside row r are exactly those at or below its threshold.  A
    searchsorted of radius2 - dy2[r] on the sorted entries guesses how many
    are inside; the guess is off only by the rounding, and evaluating the
    sum itself at the edge moves it to the exact count.
    """
    levels = np.sort(dx2)
    count = np.searchsorted(levels, radius2 - dy2, side="right")
    while True:  # counted, but the sum is outside
        over = (count > 0) & (dy2 + levels[count - 1] > radius2)
        if not over.any():
            break
        count[over] -= 1
    while True:  # inside, but not counted
        under = count < levels.size
        under[under] = dy2[under] + levels[count[under]] <= radius2
        if not under.any():
            break
        count[under] += 1
    return np.where(count > 0, levels[count - 1], -np.inf)


def simulate_4f(mirrors: np.ndarray, aperture: ApertureSpec | None = None,
                assignment: PhaseAssignment | None = None) -> np.ndarray:
    """Band-filtered readout of a mirror array, one complex value per superpixel.

    The binary mirrors are Fourier filtered through the circular aperture,
    demodulated against the conjugate of the periodic block phase mask, and
    averaged over each 4x4 block.  Up to a global complex constant the
    result tracks the codebook values of the blocks; the aperture bandwidth
    sets how much neighbouring blocks ring into each other.  The default
    aperture passes every quarter-cycle harmonic of the block mask, not a
    single diffraction order (see ApertureSpec).

    The demodulation and the block mean are applied in the frequency domain:
    with N1 = 4H and N2 = 4W mirrors, the block mean h of g * conj(mask)
    (g the filtered field, mask tiled over the blocks) is

        h = ifft2_HxW(fold(G * P * Wt)) / 256,
        Wt[k1, k2] = sum_ab conj(mask[a, b]) exp(2 pi i (k1 a / N1 + k2 b / N2)),

    where G is the mirror spectrum, P the passband and fold sums the 4x4
    aliases of each (H, W) frequency.  The readout is conj(h), so one
    (H, W) inverse transform replaces the full-size one.

    Both transforms run in strips of rows, then of columns (_fft2), and
    give whole-array np.fft's result bit for bit; the fold runs in strips
    of at most _STRIP superpixel rows and gives the block-at-a-time
    fold's result bit for bit.  The passband P is never built: each
    spectrum row r has one threshold T[r] (_passband_thresholds), and
    frequency (r, c) is inside exactly when dx2[c] <= T[r], which is when
    dy2[r] + dx2[c] <= radius**2 as numpy rounds it.  A block-strip whose
    thresholds all fall below its columns' least dx2 is skipped, one whose
    thresholds all reach its columns' greatest dx2 is added whole, and only
    the rest compare dx2 with T for a mask.  The working set is the half
    spectrum, (N1, N2/2 + 1) complex, one (H, W) accumulator and
    (_STRIP, W) strip buffers; no full-size float plane of the mirrors
    is built, and the half spectrum is freed before the inverse transform.
    """
    assignment = assignment or DEFAULT_ASSIGNMENT
    aperture = aperture or ApertureSpec()
    m = np.asarray(mirrors)
    if m.ndim != 2 or m.shape[0] % BLOCK or m.shape[1] % BLOCK:
        raise ValueError("mirror array must be 2-D with multiples-of-4 dimensions")
    if m.size == 0:
        raise ValueError("mirror array must not be empty")
    n1, n2 = m.shape
    h, w = n1 // BLOCK, n2 // BLOCK

    # Spectrum of the real mirror array over columns 0..n2/2; the other
    # columns follow from G[k1, k2] = conj(G[-k1, -k2]).
    half = _fft2(m, _mirror_rfft, np.fft.fft)

    cx, cy = aperture.center
    # shortest wrapped distance on the frequency torus
    dx2 = ((np.fft.fftfreq(n2) - cx + 0.5) % 1.0 - 0.5) ** 2
    dy2 = ((np.fft.fftfreq(n1) - cy + 0.5) % 1.0 - 0.5) ** 2
    # Both squared distances are at most 1/4, so every radius from 1 up
    # passes every frequency, as radius 1 does; its square cannot overflow.
    threshold = _passband_thresholds(dy2, dx2, min(aperture.radius, 1.0) ** 2)
    k1, k2 = np.arange(n1), np.arange(n2)
    step = np.arange(BLOCK)
    # Wt = Ey @ conj(mask) @ Ex.T has rank <= 4
    ey_mask = np.exp(2j * np.pi * np.outer(k1, step) / n1) @ np.exp(-1j * assignment.block_phases)
    ex = np.exp(2j * np.pi * np.outer(k2, step) / n2)

    # Fold the 4x4 alias blocks a strip of output rows at a time, into
    # buffers made once, so no full-size or (H, W)-sized temporary is built.
    # Each output element adds its blocks in the order p, then q.  A term
    # outside the passband is exactly +-0, and `folded` starts at +0 and so
    # never holds -0; skipping such terms (add's where=, and blocks with no
    # frequency inside) changes no bit.  The strips split H evenly, at most
    # _STRIP rows each, so none has one row while H has more: np.matmul
    # takes its vector-matrix path for a single row, and that can round the
    # rank-4 weight differently.
    folded = np.zeros((h, w), dtype=np.complex128)
    strips = -(-h // _STRIP)
    edges = [h * i // strips for i in range(strips + 1)]
    size = -(-h // strips)
    weight = np.empty((size, w), dtype=np.complex128)
    block = np.empty((size, w), dtype=np.complex128)
    inside = np.empty((size, w), dtype=bool)
    col_min = [dx2[q * w:(q + 1) * w].min() for q in range(BLOCK)]
    col_max = [dx2[q * w:(q + 1) * w].max() for q in range(BLOCK)]
    for r0, r1 in zip(edges, edges[1:]):
        n = r1 - r0
        wt, blk, ins = weight[:n], block[:n], inside[:n]
        out = folded[r0:r1]
        for p in range(BLOCK):
            rows = slice(p * h + r0, p * h + r1)
            row_threshold = threshold[rows]
            lowest, highest = row_threshold.min(), row_threshold.max()
            for q in range(BLOCK):
                if highest < col_min[q]:
                    continue  # no frequency of the block-strip is inside
                cols = slice(q * w, (q + 1) * w)
                np.matmul(ey_mask[rows], ex[cols].T, out=wt)
                if 2 * q < BLOCK:
                    spectrum = half[rows, cols]
                else:  # columns n2/2 and up, by the Hermitian symmetry
                    spectrum = np.conjugate(half[-k1[rows] % n1, n2 - q * w:n2 - (q + 1) * w:-1],
                                            out=blk)
                np.multiply(wt, spectrum, out=wt)
                if lowest >= col_max[q]:  # every frequency is inside
                    np.add(out, wt, out=out)
                else:
                    np.less_equal(dx2[cols], row_threshold[:, None], out=ins)
                    np.add(out, wt, out=out, where=ins)
    del half  # before the inverse transform allocates
    # The filtered sideband of a real pattern carries conjugated block
    # phases; conjugating h recovers them.
    readout = _fft2(folded, np.fft.ifft, np.fft.ifft)
    np.conjugate(readout, out=readout)
    readout /= BLOCK ** 4
    return readout


def field_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """|<a, b>| / (||a|| ||b||) over two finite complex arrays of one shape; 0 if either is null.

    Each array is first scaled by the power of two that brings its largest
    |re| or |im| into [0.5, 1), so the norms and the inner product neither
    overflow nor underflow at any magnitude.  A power of two scales exactly,
    so the result is what the unscaled arithmetic gives wherever that is finite.
    """
    x = np.asarray(a, dtype=np.complex128)
    y = np.asarray(b, dtype=np.complex128)
    if x.shape != y.shape:
        raise ValueError(f"cannot correlate arrays of shapes {x.shape} and {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("cannot correlate non-finite fields")
    x, y = _unit_scaled(x.ravel()), _unit_scaled(y.ravel())
    na = np.linalg.norm(x)
    nb = np.linalg.norm(y)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(abs(np.vdot(x, y)) / (na * nb))


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """Contiguous 1-D complex x times the power of two that puts its largest |re| or |im| in [0.5, 1)."""
    parts = x.view(np.float64)
    _, exponent = np.frexp(np.abs(parts).max(initial=0.0))
    return np.ldexp(parts, -exponent).view(np.complex128)


# 11-tap Gaussian window (sigma 1.5, radius 5), normalized to unit sum
_WINDOW = np.exp(-0.5 / 1.5 ** 2 * np.arange(-5, 6) ** 2)
_WINDOW /= _WINDOW.sum()
_WINDOW_ROWS = 16  # output rows per block, so the temporaries stay in cache


def _correlate_valid(v: np.ndarray, axis: int, out: np.ndarray, tmp: np.ndarray) -> None:
    """11-tap _WINDOW correlation of `v` along `axis` at fully interior positions.

    Each symmetric pair of taps is summed and weighted, outermost pair first,
    in the order scipy.ndimage.correlate1d adds them.
    """
    n = out.shape[axis]
    lead = (slice(None),) * axis

    def tap(k):
        return v[lead + (slice(k, k + n),)]

    np.multiply(tap(5), _WINDOW[5], out=out)
    for j in range(5, 0, -1):
        np.add(tap(5 - j), tap(5 + j), out=tmp)
        tmp *= _WINDOW[5 + j]
        out += tmp


def _window_mean(stack: np.ndarray) -> np.ndarray:
    """Gaussian window mean of each image of `stack` wherever the 11x11 window fits inside it.

    `stack` is a (k, H, W) stack of images.  Bit for bit
    scipy.ndimage.gaussian_filter(image, 1.5, truncate=5 / 1.5)[5:-5, 5:-5]
    of each image: the separable filter runs along axis 0 first, then along
    axis 1, over the valid region only, one block of _WINDOW_ROWS output
    rows of every image at a time.  The axis-1 taps run over the block as
    one contiguous run of k * rows * W values, and the outputs whose window
    straddles the end of a row are dropped; each kept output adds the same
    values, in the same order, as the taps along its own row.
    """
    k, h, w = stack.shape
    out = np.empty((k, h - 10, w - 10))
    rows = min(_WINDOW_ROWS, h - 10)
    mid, run, tmp = (np.empty(k * rows * w) for _ in range(3))
    for r0 in range(0, h - 10, rows):
        r = min(rows, h - 10 - r0)
        size = k * r * w
        _correlate_valid(stack[:, r0:r0 + r + 10], 1, mid[:size].reshape(k, r, w),
                         tmp[:size].reshape(k, r, w))
        _correlate_valid(mid[:size], 0, run[:size - 10], tmp[:size - 10])
        out[:, r0:r0 + r] = run[:size].reshape(k, r, w)[:, :, :w - 10]
    return out


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows.

    Gaussian window sigma 1.5, stabilizers K1 = 0.01 and K2 = 0.03 on a
    dynamic range of 255.  Only fully interior window positions contribute;
    no padding is invented at the borders.

    The images x and y, as float64, and x*x, y*y and x*y are written into
    one (5, H, W) stack, whose window means _window_mean takes in one pass.
    The stack is freed before the means are combined in place, each element
    by the operations, in the order, of

        (2 mu_x mu_y + c1)(2 cov + c2) / ((mu_x^2 + mu_y^2 + c1)(var_x + var_y + c2))

    with var_x = xx - mu_x mu_x and cov = xy - mu_x mu_y, into one
    C-contiguous (H-10, W-10) map that np.mean reduces.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("images must have matching shapes")
    if a.ndim != 2 or min(a.shape) < 11:
        raise ValueError("images must be 2-D and at least 11x11")
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    stack = np.empty((5,) + a.shape)
    stack[0] = a
    stack[1] = b
    np.multiply(stack[0], stack[0], out=stack[2])
    np.multiply(stack[1], stack[1], out=stack[3])
    np.multiply(stack[0], stack[1], out=stack[4])
    means = _window_mean(stack)
    del stack
    mu_x, mu_y, var_x, var_y, cov = means  # xx, yy and xy until made over below
    num = np.multiply(mu_x, mu_x)
    var_x -= num
    np.multiply(mu_y, mu_y, out=num)
    var_y -= num
    np.multiply(mu_x, mu_y, out=num)
    cov -= num

    np.multiply(2.0, mu_x, out=num)
    num *= mu_y
    num += c1
    cov *= 2.0
    cov += c2
    num *= cov
    den = cov
    np.square(mu_x, out=den)
    np.square(mu_y, out=mu_y)
    den += mu_y
    den += c1
    var_x += var_y
    var_x += c2
    den *= var_x
    num /= den
    return float(np.mean(num))
