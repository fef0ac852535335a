"""Exact computation of higher multiplier ideals, microlocal filtration
spectra, jumping numbers, minimal exponents and resolution combinatorics of
hypersurface singularities with closed-form filtration data."""

__version__ = "0.1.0"  # the version in pyproject.toml

from .errors import CutoffExceededError, DimensionError, HypothesisError
from .monomial import (
    INFINITE,
    MonIdeal,
    max_ideal_power,
    mi_normalize,
    principal_ideal,
    unit_ideal,
    zero_ideal,
)
from .rat import fmt_rat, parse_rat
from .vspectrum import HMIdeal, VSpectrum, spectrum_from_step
from .constructors import (
    nc_ideal,
    power_scale_check,
    qdivisor_ideal,
    spectrum_diagonal,
    spectrum_one_var,
    spectrum_ordinary_fermat,
    spectrum_thom_sebastiani,
)
from .graded import (
    HilbertPoly,
    StrataData,
    containment_threshold,
    gdim_ordinary,
    hodge_cyclic_eigenspace,
    hodge_prim_hypersurface,
    independent_conditions_degree,
    milnor_hilbert,
    min_exponent_upper,
    nontriviality_data,
    symbolic_power_exponent,
)
from .resolution import (
    Component,
    ResolutionData,
    builtin_family,
    integral_components,
    lct,
    max_weight_level,
    min_exponent_bounds,
    min_exponent_stratified,
    minimal_lc_center,
    weighted_nc_local,
)

__all__ = [
    "CutoffExceededError",
    "DimensionError",
    "HypothesisError",
    "INFINITE",
    "MonIdeal",
    "max_ideal_power",
    "mi_normalize",
    "principal_ideal",
    "unit_ideal",
    "zero_ideal",
    "fmt_rat",
    "parse_rat",
    "HMIdeal",
    "VSpectrum",
    "spectrum_from_step",
    "nc_ideal",
    "power_scale_check",
    "qdivisor_ideal",
    "spectrum_diagonal",
    "spectrum_one_var",
    "spectrum_ordinary_fermat",
    "spectrum_thom_sebastiani",
    "HilbertPoly",
    "StrataData",
    "containment_threshold",
    "gdim_ordinary",
    "hodge_cyclic_eigenspace",
    "hodge_prim_hypersurface",
    "independent_conditions_degree",
    "milnor_hilbert",
    "min_exponent_upper",
    "nontriviality_data",
    "symbolic_power_exponent",
    "Component",
    "ResolutionData",
    "builtin_family",
    "integral_components",
    "lct",
    "max_weight_level",
    "min_exponent_bounds",
    "min_exponent_stratified",
    "minimal_lc_center",
    "weighted_nc_local",
]
