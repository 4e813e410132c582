"""Numerical conjugation operators, Fourier integrability diagnostics
and radial transforms for bounded-variation analysis.
"""

from .fourier import (
    CoefficientSet,
    H1Report,
    TransformResult,
    conjugate_coefficient_check,
    derivative_ft_identity,
    fourier_coefficients,
    fourier_transform,
    h1_report,
    hardy_check,
    l1_norm_ft,
    nyquist_cutoff,
    transform_values,
)
from .grids import (
    DecayClass,
    Family,
    FamilySpec,
    Grid,
    SampledFunction,
    derivative,
    family_derivative,
    family_value,
    integrate,
    make_uniform_grid,
    read_samples_csv,
    sample,
    total_variation,
)
from .hilbert import (
    MULTIPLIER_SIGN,
    hilbert_multiplier,
    hilbert_pv,
    kernel_difference,
    modified_hilbert,
    periodic_conjugate,
)
from .radial import (
    FractionalIntegral,
    RadialProfile,
    fractional_integral,
    leray_condition,
    radial_ft_ibp,
    radial_ft_leray,
    radial_ft_oracle,
    read_radial_csv,
)
from .reports import VerificationReport, format_report_line
from .suites import PROFILES, SUITE_NAMES, Profile, run_suite
from .verification import (
    GrowthFit,
    classify_l1_growth,
    conjugate_derivative_defect,
    hardy_littlewood_verdict,
    ibp_consistency,
)

__version__ = "0.1.0"
