"""Public raise sites that no other test reaches, each pinned to the
exception class it raises today.

One row per site: a call that reaches it, the exact class (a subclass
does not pass) and a fragment of its message, which tells the site
apart from an earlier check.  A change that gives a site another class
edits its row here.  Below them, the contract for every site: the
library raises no builtin exception class, and the JSON readers turn
malformed data into InvalidInput.
"""

from __future__ import annotations

import ast
import builtins
import re
from pathlib import Path

import numpy as np
import pytest

import wasserline
from wasserline import (
    PLF,
    Composition,
    DiscreteMeasure,
    Domain,
    DomainMismatch,
    EqualEndpoints,
    InvalidInput,
    InvalidP,
    NonPositiveWeight,
    PositionOutOfRange,
    QOutOfRange,
    ScopeMismatch,
    Translation,
    TwoPointParam,
    WasserlineError,
    cdf_eval,
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
    quantile_eval,
    slice_of,
)
from conftest import dirac, uniform01

_UNIT = Domain.UNIT_INTERVAL
_F = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0]))
_WIDE = PLF(np.array([0.0, 2.0]), np.array([0.0]), np.array([1.0]))

SITES = [
    # interval
    ("slice_of-real", lambda: slice_of(dirac(0.5)), DomainMismatch, "unit-interval measures"),
    ("qn_elements-13", lambda: qn_elements(13), InvalidInput, "more than 4096"),
    ("mn_element-empty", lambda: mn_element([]), InvalidInput, "at least one position"),
    ("mn_element-text", lambda: mn_element(["a"]), InvalidInput, "positions must be numbers"),
    ("nearest_in_mn-p1", lambda: nearest_in_mn(uniform01(), 1, 1.0), InvalidP, "needs p > 1"),
    # isometries
    ("translation-unit", lambda: Translation(dirac(0.5, _UNIT)), ScopeMismatch, "real line"),
    ("composition-empty", lambda: Composition(()), InvalidInput, "empty composition"),
    ("isometry_from_json-list", lambda: isometry_from_json([]), InvalidInput, "malformed isometry"),
    ("exotic_apply_grid-unit", lambda: exotic_apply_grid(uniform01(), 0.5, 8), ScopeMismatch, "real-line"),
    # measures
    ("discrete-mismatched", lambda: DiscreteMeasure([0.0, 1.0], [1.0]), InvalidInput, "matching nonempty"),
    ("discrete-text", lambda: DiscreteMeasure(["a"], [1.0]), InvalidInput, "atom positions must be numbers"),
    ("from_atoms-triple", lambda: from_atoms([(1.0, 0.5, 3.0)]), InvalidInput, "(position, weight) pairs"),
    ("from_atoms-text", lambda: from_atoms([("a", 1.0)]), InvalidInput, "atom positions must be numbers"),
    ("from_atoms-int", lambda: from_atoms(5), InvalidInput, "(position, weight) pairs"),
    ("cdf_eval-text", lambda: cdf_eval(uniform01(), "x"), InvalidInput, "evaluation points must be numbers"),
    ("quantile_eval-text", lambda: quantile_eval(uniform01(), "x"), InvalidInput, "quantile levels must be numbers"),
    ("from_segments-count", lambda: from_segments(Domain.REAL_LINE, [0.0, 1.0], [[0.0, 1.0], [1.0, 1.0]]),
     InvalidInput, "one (value, slope) pair"),
    ("pushforward-orientation", lambda: pushforward_affine(dirac(0.0), 2, 0.0), InvalidInput, "+1 or -1"),
    ("two-point-nan", lambda: TwoPointParam(float("nan"), 1.0, 0.0), InvalidInput, "finite"),
    ("two-point-sigma", lambda: TwoPointParam(0.0, -1.0, 0.0), InvalidInput, "nonnegative"),
    ("two-point-fiber", lambda: TwoPointParam(0.0, 0.0, 1.0), InvalidInput, "fixes p = 0"),
    ("cdf_from_dirac-real", lambda: cdf_from_dirac_distances(dirac(0.5), 0.5, 0.1), DomainMismatch,
     "unit-interval measures"),
    ("cdf_from_dirac-t1", lambda: cdf_from_dirac_distances(uniform01(), 1.0, 0.1), PositionOutOfRange,
     "base point"),
    ("measure_from_json-type", lambda: measure_from_json({"domain": "real", "type": "mystery"}), InvalidInput,
     "unknown measure type"),
    # midpoints
    # the distance 0.5 * 5e-324 rounds to 0 between two measures that differ
    ("midpoint_geometry-d0", lambda: midpoint_geometry(dirac(0.0), from_atoms([(0.0, 0.5), (5e-324, 0.5)])),
     EqualEndpoints, "coincide"),
    ("is_midpoint-domains", lambda: is_midpoint(uniform01(), dirac(0.0), dirac(1.0)), DomainMismatch,
     "different domains"),
    ("is_adjacent-domains", lambda: is_adjacent(uniform01(), dirac(0.0)), DomainMismatch, "different domains"),
    ("dirac_certificate-0", lambda: dirac_certificate(dirac(0.0), 0.0), InvalidInput, "must be positive"),
    ("dirac_certificate-unit", lambda: dirac_certificate(dirac(0.5, _UNIT), 0.2), ScopeMismatch, "real line"),
    # plf
    ("plf-2d", lambda: PLF(np.zeros((2, 2)), np.zeros(1), np.zeros(1)), InvalidInput, "one-dimensional"),
    ("plf-mismatched", lambda: PLF([0.0, 1.0, 2.0], [0.0], [1.0]), InvalidInput, "break count"),
    ("plf-text", lambda: PLF(["a", "b"], [0.0], [1.0]), InvalidInput, "PLF arrays must be numbers"),
    ("plf-no-segment", lambda: PLF([0.0], [], []), InvalidInput, "at least one segment"),
    ("restrict-outside", lambda: _F.restrict(0.5, 2.0), InvalidInput, "inside the domain"),
    ("map_values-negative", lambda: _F.map_values(-1.0, 0.0), InvalidInput, "negative scale"),
    ("integral-outside", lambda: _F.integral(0.5, 2.0), InvalidInput, "integration window"),
    ("concat_plfs-empty", lambda: concat_plfs([]), InvalidInput, "nothing to concatenate"),
    ("concat_plfs-gap", lambda: concat_plfs([_F, _F]), InvalidInput, "do not tile"),
    ("common_grid-domains", lambda: plf_combine([_F, _WIDE], [0.5, 0.5]), InvalidInput, "different domains"),
    ("plf_combine-count", lambda: plf_combine([_F], [0.5, 0.5]), InvalidInput, "one coefficient per function"),
    ("plf_splice-domains", lambda: plf_splice(_F, _WIDE, 0.5), InvalidInput, "different domains"),
]


@pytest.mark.parametrize("call, exc, fragment", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_raise_site_keeps_its_exception_class(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc


# ----------------------------------------------------------------------
# one family, one boundary


def test_invalid_input_is_a_library_error_and_a_value_error():
    assert issubclass(InvalidInput, WasserlineError) and issubclass(InvalidInput, ValueError)


def _builtin_raises(source: str) -> list[str]:
    """The builtin exception classes that ``raise`` statements name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, getattr(exc, "id", ""), None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                names.append(cls.__name__)
    return names


def test_the_library_raises_no_builtin_exception():
    # PEP 562 needs __getattr__'s AttributeError; PLF.inverse's tiling
    # check is internal and no input reaches it
    found = {
        path.name: names
        for path in sorted(Path(wasserline.__file__).parent.glob("*.py"))
        if (names := _builtin_raises(path.read_text(encoding="utf-8")))
    }
    assert found == {"__init__.py": ["AttributeError"], "plf.py": ["AssertionError"]}


# a reader names the malformed object, once, however deep it sits; a
# library error raised while reading passes through with its own class and
# message (test_cli.py runs the malformed files of the CLI)
READER_FAULTS = [
    ("measure-not-a-dict", lambda: measure_from_json([]), InvalidInput, "malformed measure object"),
    ("measure-atom-pair", lambda: measure_from_json({"domain": "real", "type": "discrete", "atoms": [[0.0]]}),
     InvalidInput, "malformed measure object"),
    ("measure-weight", lambda: measure_from_json({"domain": "real", "type": "discrete", "atoms": [[0.0, -1.0]]}),
     NonPositiveWeight, "atom weights must be positive"),
    ("isometry-kind-list", lambda: isometry_from_json({"kind": []}), InvalidInput, "malformed isometry object"),
    ("isometry-orientation", lambda: isometry_from_json({"kind": "trivial", "orientation": 2, "offset": 0}),
     InvalidInput, "orientation must be +1 or -1"),
    ("isometry-nested", lambda: isometry_from_json({"kind": "compose", "items": [{"kind": "flip"}, {}]}),
     InvalidInput, "malformed isometry object: 'kind'"),
    ("isometry-nested-measure", lambda: isometry_from_json({"kind": "translation", "nu": {"domain": "real"}}),
     InvalidInput, "malformed measure object: 'type'"),
    ("isometry-q-range", lambda: isometry_from_json({"kind": "exotic", "q": 31.0}), QOutOfRange, "|q| <= 30"),
]


@pytest.mark.parametrize("call, exc, message", [s[1:] for s in READER_FAULTS], ids=[s[0] for s in READER_FAULTS])
def test_readers_name_malformed_data_and_pass_library_errors(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value).startswith(message)
    assert str(info.value).count("malformed") <= 1
