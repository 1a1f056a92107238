"""Binary Steinhaus triangles: weights, symmetry orbits, extremal families,
and exhaustive verification of their closed-form descriptions.

Each public name lives in one submodule, which is imported on the first use
of any of its names, so a program loads only the submodules it touches.
"""

import importlib

_EXPORTS = {
    "bitseq": ("MAX_LEN", "BitSeq", "row_entry"),
    "triangle": ("Triangle", "build", "triangle_weight", "subtriangle_generator",
                 "s3", "render"),
    "symmetry": ("Orbit", "rot_r", "rot_l", "invert_i", "orbit", "canonical"),
    "families": ("FamilyName", "FamilyRangeError", "NoClosedFormError",
                 "UncoveredLevelError", "LevelPrediction", "family_seq",
                 "predicted_triangle_weight", "predicted_level", "all_families"),
    "spectrum": ("WeightSpectrum", "LevelSet", "LevelSweep", "WeightSlice",
                 "CeilingExceeded", "enumeration_ceiling", "full_spectrum",
                 "symmetry_reduced_spectrum", "level_sets", "level_sets_low",
                 "level_sets_high", "find_weight", "members_at_weights",
                 "three_row_max"),
    "ends": ("LadderEnds", "ladder_ends", "ladder_ends_batch"),
    "verify": ("CheckRecord", "VerificationReport", "Witness", "verify_level",
               "verify_small_n", "verify_ek", "verify_s3", "verify_family_weights",
               "check_conjecture", "verify_all"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
