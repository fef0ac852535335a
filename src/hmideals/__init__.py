"""Exact computation of higher multiplier ideals, microlocal filtration
spectra, jumping numbers, minimal exponents and resolution combinatorics of
hypersurface singularities with closed-form filtration data."""

__version__ = "0.1.0"  # the version in pyproject.toml

import sys

# Every submodule and the names the package exports from it.  A name or
# submodule is imported on first access (PEP 562), so `import hmideals`
# loads no submodule and a CLI command loads only the modules it uses.
_EXPORTS = {
    "errors": ("CutoffExceededError", "DimensionError", "HypothesisError"),
    "frozen": (),
    "monomial": ("INFINITE", "MonIdeal", "max_ideal_power", "unit_ideal"),
    "rat": ("fmt_rat", "parse_rat"),
    "vspectrum": ("HMIdeal", "VSpectrum", "spectrum_from_step"),
    "constructors": ("nc_ideal", "power_scale_check", "qdivisor_ideal", "spectrum_diagonal",
                     "spectrum_one_var", "spectrum_ordinary_fermat",
                     "spectrum_thom_sebastiani"),
    "graded": ("StrataData", "containment_threshold", "gdim_ordinary",
               "hodge_cyclic_eigenspace", "hodge_prim_hypersurface",
               "independent_conditions_degree", "milnor_hilbert", "min_exponent_upper",
               "nontriviality_data", "symbolic_power_exponent"),
    "resolution": ("Component", "ResolutionData", "builtin_family", "integral_components", "lct",
                   "max_weight_level", "min_exponent_bounds", "min_exponent_stratified",
                   "minimal_lc_center", "weighted_nc_local"),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _submodule(name):
    # __import__ rather than importlib.import_module: only the former's
    # imports appear in `python -X importtime`, which tests/test_imports.py reads
    __import__(f"{__name__}.{name}")  # binds the submodule here
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value  # later reads do not come back here
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
