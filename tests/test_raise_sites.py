"""Public raise sites that no other test reaches, each pinned to the
exception class it raises today.

One row per site: a call that reaches it, the exact class (a subclass
does not pass) and a fragment of its message, which tells the site
apart from an earlier check.  A change that gives a site another class
edits its row here.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from wasserline import (
    PLF,
    Composition,
    DiscreteMeasure,
    Domain,
    DomainMismatch,
    EqualEndpoints,
    InvalidP,
    PositionOutOfRange,
    ScopeMismatch,
    Translation,
    TwoPointParam,
    cdf_from_dirac_distances,
    concat_plfs,
    dirac_certificate,
    exotic_apply_grid,
    from_atoms,
    from_segments,
    is_adjacent,
    is_midpoint,
    isometry_from_json,
    measure_from_json,
    midpoint_geometry,
    mn_element,
    nearest_in_mn,
    plf_combine,
    plf_splice,
    pushforward_affine,
    qn_elements,
    slice_of,
)
from conftest import dirac, uniform01

_UNIT = Domain.UNIT_INTERVAL
_F = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0]))
_WIDE = PLF(np.array([0.0, 2.0]), np.array([0.0]), np.array([1.0]))

SITES = [
    # interval
    ("slice_of-real", lambda: slice_of(dirac(0.5)), DomainMismatch, "unit-interval measures"),
    ("qn_elements-13", lambda: qn_elements(13), ValueError, "more than 4096"),
    ("mn_element-empty", lambda: mn_element([]), ValueError, "at least one position"),
    ("nearest_in_mn-p1", lambda: nearest_in_mn(uniform01(), 1, 1.0), InvalidP, "needs p > 1"),
    # isometries
    ("translation-unit", lambda: Translation(dirac(0.5, _UNIT)), ScopeMismatch, "real line"),
    ("composition-empty", lambda: Composition(()), ValueError, "empty composition"),
    ("isometry_from_json-list", lambda: isometry_from_json([]), ValueError, "malformed isometry"),
    ("exotic_apply_grid-unit", lambda: exotic_apply_grid(uniform01(), 0.5, 8), ScopeMismatch, "real-line"),
    # measures
    ("discrete-mismatched", lambda: DiscreteMeasure([0.0, 1.0], [1.0]), ValueError, "matching nonempty"),
    ("from_segments-count", lambda: from_segments(Domain.REAL_LINE, [0.0, 1.0], [[0.0, 1.0], [1.0, 1.0]]),
     ValueError, "one (value, slope) pair"),
    ("pushforward-orientation", lambda: pushforward_affine(dirac(0.0), 2, 0.0), ValueError, "+1 or -1"),
    ("two-point-nan", lambda: TwoPointParam(float("nan"), 1.0, 0.0), ValueError, "finite"),
    ("two-point-sigma", lambda: TwoPointParam(0.0, -1.0, 0.0), ValueError, "nonnegative"),
    ("two-point-fiber", lambda: TwoPointParam(0.0, 0.0, 1.0), ValueError, "fixes p = 0"),
    ("cdf_from_dirac-real", lambda: cdf_from_dirac_distances(dirac(0.5), 0.5, 0.1), DomainMismatch,
     "unit-interval tool"),
    ("cdf_from_dirac-t1", lambda: cdf_from_dirac_distances(uniform01(), 1.0, 0.1), PositionOutOfRange,
     "base point"),
    ("measure_from_json-type", lambda: measure_from_json({"domain": "real", "type": "mystery"}), ValueError,
     "unknown measure type"),
    # midpoints
    # the distance 0.5 * 5e-324 rounds to 0 between two measures that differ
    ("midpoint_geometry-d0", lambda: midpoint_geometry(dirac(0.0), from_atoms([(0.0, 0.5), (5e-324, 0.5)])),
     EqualEndpoints, "coincide"),
    ("is_midpoint-domains", lambda: is_midpoint(uniform01(), dirac(0.0), dirac(1.0)), DomainMismatch,
     "share a domain"),
    ("is_adjacent-domains", lambda: is_adjacent(uniform01(), dirac(0.0)), DomainMismatch, "common domain"),
    ("dirac_certificate-0", lambda: dirac_certificate(dirac(0.0), 0.0), ValueError, "must be positive"),
    # plf
    ("plf-2d", lambda: PLF(np.zeros((2, 2)), np.zeros(1), np.zeros(1)), ValueError, "one-dimensional"),
    ("plf-mismatched", lambda: PLF([0.0, 1.0, 2.0], [0.0], [1.0]), ValueError, "break count"),
    ("plf-no-segment", lambda: PLF([0.0], [], []), ValueError, "at least one segment"),
    ("restrict-outside", lambda: _F.restrict(0.5, 2.0), ValueError, "inside the domain"),
    ("map_values-negative", lambda: _F.map_values(-1.0, 0.0), ValueError, "negative scale"),
    ("integral-outside", lambda: _F.integral(0.5, 2.0), ValueError, "integration window"),
    ("concat_plfs-empty", lambda: concat_plfs([]), ValueError, "nothing to concatenate"),
    ("concat_plfs-gap", lambda: concat_plfs([_F, _F]), ValueError, "do not tile"),
    ("common_grid-domains", lambda: plf_combine([_F, _WIDE], [0.5, 0.5]), ValueError, "different domains"),
    ("plf_combine-count", lambda: plf_combine([_F], [0.5, 0.5]), ValueError, "one coefficient per function"),
    ("plf_splice-domains", lambda: plf_splice(_F, _WIDE, 0.5), ValueError, "different domains"),
]


@pytest.mark.parametrize("call, exc, fragment", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_raise_site_keeps_its_exception_class(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc
