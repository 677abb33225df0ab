import importlib
import re
from pathlib import Path

import pytest

import dmdstego
from dmdstego.stego import StegoKey
from dmdstego.superpixel import DEFAULT_ASSIGNMENT


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
])
def test_scalar_helpers_left_the_library(module, names):
    # The scalar definitions live in tests/scalar_reference.py as oracles.
    mod = importlib.import_module(module)
    for name in names:
        assert not hasattr(mod, name), f"{module}.{name}"


def test_removed_methods_and_attributes(codebook):
    for name in ("phase_index", "phase_of", "to_string", "bit_by_index"):
        assert not hasattr(DEFAULT_ASSIGNMENT, name)
    for name in ("group", "nearest_value", "assignment", "_coeff_table", "_build_touched"):
        assert not hasattr(codebook, name)
    assert not hasattr(StegoKey(0), "to_hex")


def test_readme_python_quick_start_runs():
    # The block asserts its own claims, so a README that drifts from the code fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
