"""Acceptance suite: ten end-to-end checks with hard tolerances.

Each check prints a single `acceptance NN <name>: PASS|FAIL` line (run
pytest with -s to see them) and fails loudly otherwise.  Budgets are wall
clock on a single core.
"""

import functools
import time

import numpy as np

from dmdstego.codebook import build_codebook
from dmdstego.formats import (
    read_field,
    read_image,
    read_pattern,
    write_field,
    write_image,
    write_pattern,
)
from dmdstego.modulator import decode_field, encode_field, normalize_field, quantize_field
from dmdstego.optics import (
    PropagationParams,
    field_correlation,
    fresnel_propagate,
    generate_hologram,
    reconstruct,
    resample_bilinear,
    simulate_4f,
    ssim,
)
from dmdstego.rng import SplitMix64
from dmdstego.stego import StegoKey, capacity_of_plan, embed, extract
from dmdstego.superpixel import codes_to_mirrors, mirrors_to_codes

from scalar_reference import group_patterns


class criterion:
    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.num:02d} {self.name}: {verdict}")
        return False


@functools.lru_cache(maxsize=1)
def cb():
    return build_codebook()


@functools.lru_cache(maxsize=1)
def stego_trials():
    """100 random 64x64 plans embedded at full usable capacity."""
    codebook = cb()
    rng = np.random.default_rng(2024)
    trials = []
    for _ in range(100):
        plan = rng.integers(0, 6561, (64, 64), dtype=np.int64)
        cap = capacity_of_plan(plan, codebook)
        bits = rng.integers(0, 2, cap - 32, dtype=np.uint8)
        key = StegoKey(seed=int(rng.integers(0, 1 << 64, dtype=np.uint64)))
        mirrors = embed(plan, bits, key, codebook, fill="min")
        trials.append((plan, bits, key, mirrors))
    return trials


def popcounts(codes):
    return np.unpackbits(np.asarray(codes, dtype=np.uint16).view(np.uint8).reshape(-1, 2),
                         axis=1).sum(axis=1)


def test_01_codebook_census():
    with criterion(1, "codebook census"):
        t0 = time.perf_counter()
        codebook = build_codebook()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"build took {elapsed:.2f}s"
        assert codebook.values.size == 6561
        sizes = codebook.group_sizes
        assert int(sizes.sum()) == 65536
        assert np.array_equal(sizes, 1 << codebook.capacities)
        from scipy.spatial import cKDTree

        pts = np.column_stack([codebook.values.real, codebook.values.imag])
        d, _ = cKDTree(pts).query(pts, k=2, workers=-1)
        assert d[:, 1].min() > 1e-9


def test_02_32_pattern_group():
    with criterion(2, "group of (1+sqrt2)e^{i pi/4}"):
        codebook = cb()
        target = (1 + np.sqrt(2)) * np.exp(1j * np.pi / 4)
        idx = int(codebook.nearest_values(target))
        patterns = group_patterns(codebook, idx)
        assert abs(codebook.values[idx] - target) < 1e-9
        assert patterns.size == 32
        assert codebook.capacities[idx] == 5
        for phases in ({2, 4, 16}, {2, 4, 6, 14, 16}):
            code = sum(1 << (k - 1) for k in phases)
            assert code in patterns, f"phase set {sorted(phases)} missing"


def test_03_stego_round_trip():
    with criterion(3, "keyed embed/extract round trip x100"):
        codebook = cb()
        t0 = time.perf_counter()
        trials = stego_trials()
        for plan, bits, key, mirrors in trials:
            out = extract(mirrors, key, codebook)
            assert np.array_equal(out, bits)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_04_embedding_preserves_modulation():
    with criterion(4, "embedding leaves the modulated field untouched"):
        codebook = cb()
        starts = codebook.group_starts
        for plan, bits, key, mirrors in stego_trials():
            embedded_plan = codebook.group_of_pattern[mirrors_to_codes(mirrors)]
            min_codes = codebook.patterns_sorted[starts[plan]]
            min_plan = codebook.group_of_pattern[min_codes]
            assert np.array_equal(embedded_plan, min_plan)
            assert np.array_equal(embedded_plan, plan)


def test_05_popcount_extremes():
    with criterion(5, "min/max pattern popcounts are 8 -/+ capacity"):
        codebook = cb()
        starts = codebook.group_starts
        z = codebook.capacities
        assert np.array_equal(popcounts(codebook.patterns_sorted[starts[:-1]]), 8 - z)
        assert np.array_equal(popcounts(codebook.patterns_sorted[starts[1:] - 1]), 8 + z)


def test_06_capacity_formula():
    with criterion(6, "capacity equals sum of log2(group size)"):
        codebook = cb()
        zero_plan = np.full((270, 480), codebook.nearest_values(0j), dtype=np.int64)
        assert capacity_of_plan(zero_plan, codebook) == 1036800
        rng = np.random.default_rng(99)
        for _ in range(5):
            plan = rng.integers(0, 6561, (40, 30), dtype=np.int64)
            brute = sum(int(np.log2(codebook.group_sizes[g])) for g in plan.ravel())
            assert capacity_of_plan(plan, codebook) == brute


def test_07_fresnel_invariants():
    with criterion(7, "propagation identities"):
        rng = np.random.default_rng(7)
        field = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        p0 = PropagationParams(wavelength=520e-9, distance=0.0, pitch=30.24e-6)
        assert np.abs(fresnel_propagate(field, p0) - field).max() <= 1e-12

        fwd = PropagationParams(wavelength=520e-9, distance=0.2, pitch=30.24e-6)
        bwd = PropagationParams(wavelength=520e-9, distance=-0.2, pitch=30.24e-6)
        out = fresnel_propagate(field, fwd)
        back = fresnel_propagate(out, bwd)
        assert np.abs(back - field).max() / np.abs(field).max() <= 1e-10

        e0 = float(np.sum(np.abs(field) ** 2))
        e1 = float(np.sum(np.abs(out) ** 2))
        assert abs(e1 - e0) / e0 <= 1e-12

        pa = PropagationParams(wavelength=520e-9, distance=0.08, pitch=30.24e-6)
        pb = PropagationParams(wavelength=520e-9, distance=0.12, pitch=30.24e-6)
        two_step = fresnel_propagate(fresnel_propagate(field, pa), pb)
        assert np.abs(two_step - out).max() / np.abs(out).max() <= 1e-10


def _pipeline_ssims(obj, grid, params, key, payload_fraction=0.9):
    codebook = cb()
    holo = generate_hologram(obj, params, grid, diffuser_seed=0)
    scaled, _ = normalize_field(holo)
    plan = quantize_field(scaled, codebook)
    target = np.abs(resample_bilinear(obj.astype(np.float64), grid))
    target = np.clip(np.rint(target * (255.0 / target.max())), 0, 255).astype(np.uint8)

    scores = {}
    for strategy in ("random", "min", "max"):
        result = encode_field(holo, codebook, strategy=strategy,
                              key=key if strategy == "random" else None)
        _, values = decode_field(result.mirrors, codebook)
        scores[strategy] = ssim(reconstruct(values, params), target)

    cap = capacity_of_plan(plan, codebook)
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, int((cap - 32) * payload_fraction), dtype=np.uint8)
    mirrors = embed(plan, bits, key, codebook, fill="random")
    assert np.array_equal(extract(mirrors, key, codebook), bits)
    _, values = decode_field(mirrors, codebook)
    scores["embedded"] = ssim(reconstruct(values, params), target)
    return scores


def test_08_pipeline_ssim_deltas():
    with criterion(8, "strategy choice leaves reconstruction quality unchanged"):
        rng = np.random.default_rng(8)
        obj = np.zeros((128, 128))
        obj[20:100, 30:110] = rng.uniform(0.3, 1.0, (80, 80))
        obj[50:70, 50:70] = 0.0
        key = StegoKey(seed=0xC0FFEE)

        t0 = time.perf_counter()
        desk = PropagationParams(wavelength=520e-9, distance=0.05, pitch=4 * 7.56e-6)
        scores = _pipeline_ssims(obj, (128, 128), desk, key)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"desk pipeline took {elapsed:.1f}s"
        names = list(scores)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert abs(scores[a] - scores[b]) <= 0.02, (a, b, scores)
        assert abs(scores["embedded"] - scores["random"]) <= 0.02

        t0 = time.perf_counter()
        big = PropagationParams(wavelength=520e-9, distance=0.2, pitch=4 * 7.56e-6)
        big_obj = resample_bilinear(obj, (750, 750)).real
        big_obj[big_obj < 0] = 0.0
        _pipeline_ssims(big_obj, (270, 480), big, key, payload_fraction=0.5)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"full geometry took {elapsed:.1f}s"


def test_09_filter_equivalence():
    with criterion(9, "4f output matches the commanded values"):
        codebook = cb()
        rng = np.random.default_rng(9)
        for trial in range(10):
            codes = rng.integers(0, 65536, (64, 64)).astype(np.uint16)
            out = simulate_4f(codes_to_mirrors(codes))
            ref = codebook.values[codebook.group_of_pattern[codes]]
            corr = field_correlation(out, ref)
            assert corr >= 0.95, f"trial {trial}: correlation {corr:.4f}"


def test_10_determinism(tmp_path):
    with criterion(10, "fixed generator outputs and bit-stable files"):
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

        rng = np.random.default_rng(10)
        img = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        p = tmp_path / "img.pgm"
        write_image(p, img)
        first = p.read_bytes()
        write_image(p, read_image(p))
        assert p.read_bytes() == first

        mirrors = rng.integers(0, 2, (32, 32), dtype=np.uint8)
        q = tmp_path / "pat.pbm"
        write_pattern(q, mirrors)
        first = q.read_bytes()
        write_pattern(q, read_pattern(q))
        assert q.read_bytes() == first

        field = rng.normal(size=(9, 5)) + 1j * rng.normal(size=(9, 5))
        r = tmp_path / "field.bin"
        write_field(r, field)
        first = r.read_bytes()
        write_field(r, read_field(r))
        assert r.read_bytes() == first

        import contextlib
        import io

        from dmdstego.cli import main

        obj = tmp_path / "obj.pgm"
        write_image(obj, img)
        outs = []
        for name in ("h1.bin", "h2.bin"):
            out = tmp_path / name
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["hologram", "--input", str(obj), "--output", str(out),
                           "--wavelength", "520e-9", "--distance", "0.01",
                           "--pitch", "7.56e-6", "--superpixels", "32x32"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
