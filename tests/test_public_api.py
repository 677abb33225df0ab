import importlib

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
])
def test_scalar_helpers_left_the_library(module, names):
    # Their scalar definitions live in tests/scalar_reference.py as oracles.
    mod = importlib.import_module(module)
    for name in names:
        assert not hasattr(mod, name), f"{module}.{name}"


def test_removed_methods_and_attributes(codebook):
    for name in ("phase_index", "phase_of", "to_string"):
        assert not hasattr(DEFAULT_ASSIGNMENT, name)
    for name in ("group", "nearest_value", "assignment", "_coeff_table"):
        assert not hasattr(codebook, name)
    assert not hasattr(StegoKey(0), "to_hex")
