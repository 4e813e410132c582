"""Numerical conjugation operators, Fourier integrability diagnostics
and radial transforms for bounded-variation analysis.

The package is a lazy namespace (PEP 562): ``from bvfourier import X``
and ``bvfourier.<submodule>`` work as usual, but each submodule is
imported on first use, so a process loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "fourier": (
        "CoefficientSet", "H1Report", "TransformResult", "conjugate_coefficient_check",
        "derivative_ft_identity", "fourier_coefficients", "fourier_transform", "h1_report", "hardy_check",
        "l1_norm_ft", "nyquist_cutoff", "transform_values",
    ),
    "grids": (
        "DecayClass", "Family", "FamilySpec", "Grid", "SampledFunction", "derivative", "family_derivative",
        "family_value", "integrate", "make_uniform_grid", "read_samples_csv", "sample", "total_variation",
    ),
    "hilbert": (
        "MULTIPLIER_SIGN", "hilbert_multiplier", "hilbert_pv", "kernel_difference", "modified_hilbert",
        "periodic_conjugate",
    ),
    "radial": (
        "FractionalIntegral", "RadialProfile", "fractional_integral", "leray_condition", "radial_ft_ibp",
        "radial_ft_leray", "radial_ft_oracle", "read_radial_csv",
    ),
    "reports": ("PROFILES", "SUITE_NAMES", "Profile", "VerificationReport", "format_report_line"),
    "suites": ("run_suite",),
    "verification": (
        "GrowthFit", "classify_l1_growth", "conjugate_derivative_defect", "hardy_littlewood_verdict",
        "ibp_consistency",
    ),
}
_SUBMODULES = ("cli", *_EXPORTS)
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
