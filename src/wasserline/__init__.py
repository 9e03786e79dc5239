"""Exact computations in one-dimensional Wasserstein spaces.

Measures on the line or the unit interval are carried as piecewise
linear quantile functions, distances are closed-form integrals of
|Q_mu - Q_nu|^p, and the package ships the isometry catalogue, the
unit-interval extremal geometry, the W_1 midpoint laboratory and a CLI
with seeded verification suites.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AlphaOutOfRange,
    DomainMismatch,
    EqualEndpoints,
    InvalidIntervalIsometry,
    InvalidP,
    LevelOutOfRange,
    NonPositiveWeight,
    NotBisectable,
    NotMonotone,
    PositionOutOfRange,
    QOutOfRange,
    ScopeMismatch,
    StepOutOfRange,
    TooManyAtoms,
    UnsortedPositions,
    WasserlineError,
    WeightError,
    WeightSumOutOfTolerance,
)
from .plf import PLF, abs_pow_cells, abs_pow_gap, concat_plfs, const_plf, plf_combine, plf_splice
from .measures import (
    DiscreteMeasure,
    Domain,
    Measure,
    TwoPointParam,
    barycenter,
    cdf_eval,
    cdf_from_dirac_distances,
    dist_to_dirac,
    flip,
    from_atoms,
    from_quantile,
    from_segments,
    measure_from_json,
    measure_to_json,
    param_from_two_point,
    pushforward_affine,
    quantile_eval,
    two_point_from_param,
)
from .metric import (
    MonotoneRange,
    check_order,
    geodesic_point,
    monotone_range,
    transport_lp_oracle,
    wasserstein_distance,
)
from .isometries import (
    BarycentricReflection,
    Composition,
    Exotic,
    Flip,
    SplitEmbedding,
    Translation,
    Trivial,
    apply,
    exotic_apply_discrete,
    exotic_apply_grid,
    h_q_eval,
    h_q_inverse,
    isometry_from_json,
    verify_isometry,
)
from .interval import (
    convex_hull_combination,
    ladder_bound,
    mn_element,
    nearest_in_mn,
    qn_elements,
    slice_extremal_pair,
    slice_of,
    t_star,
)
from .midpoints import (
    AdjacencyWitness,
    MidpointGeometry,
    ProbeResult,
    bisecting_pair,
    dirac_certificate,
    is_adjacent,
    is_midpoint,
    midpoint_diameter_probe,
    midpoint_geometry,
)
from .reports import ReportRow, VerificationReport, rows_to_csv
from .suites import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
