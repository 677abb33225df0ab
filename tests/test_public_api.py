import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import dmdstego
from dmdstego import optics
from dmdstego.modulator import quantize_field
from dmdstego.optics import PropagationParams, fresnel_propagate, generate_hologram, resample_bilinear
from dmdstego.stego import StegoKey, embed
from dmdstego.superpixel import DEFAULT_ASSIGNMENT, codes_to_mirrors, mirrors_to_codes

GEOMETRY = PropagationParams(wavelength=520e-9, distance=0.01, pitch=30.24e-6)
EMPTY, FLAT = np.zeros((0, 4)), np.zeros(16)


def test_all_names():
    assert dmdstego.__all__ == [
        "Codebook",
        "DEFAULT_ASSIGNMENT",
        "MAX_MODULUS",
        "PhaseAssignment",
        "STRATEGIES",
        "build_codebook",
        "codes_to_mirrors",
        "mirrors_to_codes",
    ]
    for name in dmdstego.__all__:
        assert hasattr(dmdstego, name)


@pytest.mark.parametrize("module, names", [
    ("dmdstego.superpixel", ["pattern_to_value", "pattern_to_coeffs", "coeffs_to_value",
                             "canonical_index", "coeffs_from_index", "_check_pattern_code",
                             "_check_coeffs"]),
    ("dmdstego.codebook", ["ValueGroup"]),
    ("dmdstego", ["ValueGroup", "pattern_to_value", "pattern_to_coeffs", "coeffs_to_value",
                  "canonical_index", "coeffs_from_index"]),
    ("dmdstego.rng", ["SplitMix64", "_mix"]),
    # Second code paths: encode quantizes through the step embed and capacity
    # share, and _draws_below takes its high words from _mul_high_into alone.
    ("dmdstego.modulator", ["encode_field", "EncodeResult"]),
    ("dmdstego.rng", ["mul_high"]),
    # The lazy grid builder: the candidate table ships as package data, made
    # by the brute-force grid_table in tests/scalar_reference.py.
    ("dmdstego.codebook", ["_build_cells", "_resolve", "_cell_pairs", "_values_near", "UNBUILT",
                           "FIRST_REACH", "NEAR_REACH", "RIM_REACH"]),
    # The sequential stream is _stream_blocks, pinned against the scalar
    # SplitMix64, and _stream_blocks does its own step mixing.
    ("dmdstego.rng", ["stream_u64", "_mix_steps"]),
    # modulator.select_patterns is the one pattern picker, and embed packs
    # the 4 length bytes extract reads without unpacking them to bits.
    ("dmdstego.codebook", ["pick_in_groups", "STRATEGIES"]),
    ("dmdstego.stego", ["_header"]),
    # The quantizer ranks the shipped grid only and refuses targets off it.
    ("dmdstego.codebook", ["_scan_nearest", "SCAN_ELEMENTS"]),
    # fresnel_propagate decides the geometry on the quadrant phase it
    # exponentiates; the CLI maps its GeometryError to exit 2.
    ("dmdstego.optics", ["_check_geometry", "_transfer_phase"]),
    # The diffuser plate and the bounded draws read one block stream; the
    # whole-array formula, random access and all, is the tests' oracle.
    ("dmdstego.rng", ["_stream_at"]),
    # The kept diffuser plate and transfer quadrants are functools caches.
    ("dmdstego.optics", ["_plate_entry", "_transfer_entries", "_TRANSFERS"]),
])
def test_scalar_helpers_left_the_library(module, names):
    # The scalar definitions live in tests/scalar_reference.py as oracles.
    mod = importlib.import_module(module)
    for name in names:
        assert not hasattr(mod, name), f"{module}.{name}"


def test_process_state_is_held_in_functools_caches():
    # One idiom for process state: functools caches, no module global rebound.
    assert optics._transfer_quadrant.cache_parameters() == {"maxsize": 2, "typed": True}
    assert optics._diffuser_plate.cache_parameters() == {"maxsize": 1, "typed": False}
    package = Path(dmdstego.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name


@pytest.mark.parametrize("call, message", [
    (lambda cb: quantize_field(EMPTY, cb), "field must be a non-empty 2-D array"),
    (lambda cb: quantize_field(FLAT, cb), "field must be a non-empty 2-D array"),
    (lambda cb: fresnel_propagate(EMPTY, GEOMETRY), "field must be a non-empty 2-D array"),
    (lambda cb: fresnel_propagate(FLAT, GEOMETRY), "field must be a non-empty 2-D array"),
    (lambda cb: resample_bilinear(EMPTY, (4, 4)), "array must be a non-empty 2-D array"),
    (lambda cb: resample_bilinear(FLAT, (4, 4)), "array must be a non-empty 2-D array"),
    (lambda cb: generate_hologram(EMPTY, GEOMETRY, (4, 4)), "object must be a non-empty 2-D array"),
    (lambda cb: generate_hologram(FLAT, GEOMETRY, (4, 4)), "object must be a non-empty 2-D array"),
    (lambda cb: codes_to_mirrors(FLAT.astype(np.uint16)), "block code array must be 2-D"),
    (lambda cb: mirrors_to_codes(FLAT), "mirror array must be 2-D"),
    (lambda cb: embed(np.zeros((2, 2), dtype=np.int64), np.zeros(0), StegoKey(0), cb, fill="bogus"),
     "fill must be one of"),
], ids=["quantize-empty", "quantize-1d", "fresnel-empty", "fresnel-1d", "resample-empty", "resample-1d",
        "hologram-empty", "hologram-1d", "codes-1d", "mirrors-1d", "embed-fill"])
def test_library_refuses_bad_arrays(codebook, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(codebook)


def test_removed_methods_and_attributes(codebook):
    for name in ("phase_index", "phase_of", "to_string", "bit_by_index", "default"):
        assert not hasattr(DEFAULT_ASSIGNMENT, name)
    for name in ("group", "nearest_value", "assignment", "_coeff_table", "_build_touched", "_gridded"):
        assert not hasattr(codebook, name)
    # A Codebook is made from its phase assignment alone, not from hand-made tables.
    with pytest.raises(TypeError):
        dmdstego.Codebook(codebook.values, codebook.capacities, codebook.patterns_sorted,
                          codebook.group_starts, codebook.group_of_pattern, codebook.position_of_pattern)
    assert not hasattr(StegoKey(0), "to_hex")


def test_readme_python_quick_start_runs():
    # The block asserts its own claims, so a README that drifts from the code fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
