"""Exact computations in one-dimensional Wasserstein spaces.

Measures on the line or the unit interval are carried as piecewise
linear quantile functions, distances are closed-form integrals of
|Q_mu - Q_nu|^p, and the package ships the isometry catalogue, the
unit-interval extremal geometry, the W_1 midpoint laboratory and a CLI
with seeded verification suites.

Submodules load on first use (PEP 562): ``import wasserline`` loads
only ``errors``, and the first lookup of a public name imports the
submodule that defines it and binds all of that submodule's public
names here, so every later lookup is a plain attribute.  The names
and the objects are those the submodules define; only the time of
their import moves.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines; ``sampling`` has none, but
# ``wasserline.sampling`` resolves as the other submodules do
_EXPORTS = {
    "errors": (
        "WasserlineError", "InvalidInput", "NonPositiveWeight", "WeightSumOutOfTolerance",
        "LevelOutOfRange", "DomainMismatch", "InvalidP", "ScopeMismatch", "InvalidIntervalIsometry",
        "QOutOfRange", "NotMonotone", "StepOutOfRange", "UnsortedPositions", "PositionOutOfRange",
        "WeightError", "TooManyAtoms", "NotBisectable", "EqualEndpoints", "AlphaOutOfRange",
    ),
    "plf": ("PLF", "abs_pow_cells", "abs_pow_gap", "concat_plfs", "const_plf", "plf_combine", "plf_splice"),
    "measures": (
        "DiscreteMeasure", "Domain", "Measure", "TwoPointParam", "barycenter", "cdf_eval",
        "cdf_from_dirac_distances", "dist_to_dirac", "flip", "from_atoms", "from_quantile",
        "from_segments", "measure_from_json", "measure_to_json", "param_from_two_point",
        "pushforward_affine", "quantile_eval", "two_point_from_param",
    ),
    "metric": (
        "MonotoneRange", "check_order", "geodesic_point", "monotone_range", "transport_lp_oracle",
        "wasserstein_distance",
    ),
    "isometries": (
        "BarycentricReflection", "Composition", "Exotic", "Flip", "SplitEmbedding", "Translation",
        "Trivial", "apply", "exotic_apply_discrete", "exotic_apply_grid", "h_q_eval", "h_q_inverse",
        "isometry_from_json", "verify_isometry",
    ),
    "interval": (
        "convex_hull_combination", "ladder_bound", "mn_element", "nearest_in_mn", "qn_elements",
        "slice_extremal_pair", "slice_of", "t_star",
    ),
    "midpoints": (
        "AdjacencyWitness", "MidpointGeometry", "ProbeResult", "bisecting_pair", "dirac_certificate",
        "is_adjacent", "is_midpoint", "midpoint_diameter_probe", "midpoint_geometry",
    ),
    "sampling": (),
    "reports": ("ReportRow", "VerificationReport", "rows_to_csv"),
    "suites": ("SUITES", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def _bind(module: str):
    """Import ``module`` and bind its public names in the package."""
    mod = _import_module(f"{__name__}.{module}")
    g = globals()
    for name in _EXPORTS[module]:
        g[name] = getattr(mod, name)
    return mod


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        _bind(module)
        return globals()[name]
    if name in _EXPORTS:  # a submodule not imported yet
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})


_bind("errors")  # every submodule imports it
