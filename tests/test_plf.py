"""Piecewise-linear calculus: construction gates, evaluation conventions,
inversion, envelopes, and the exact |affine|^p cell integrals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wasserline import (
    InvalidInput,
    NotMonotone,
    PLF,
    abs_pow_cells,
    abs_pow_gap,
    concat_plfs,
    const_plf,
    plf_combine,
    plf_splice,
    sampling,
)


def rising_then_flat() -> PLF:
    # x -> 2x on [0, 1/2), jumps to 2 at 1/2, constant 2 afterwards
    return PLF(np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 2.0]))


# ----------------------------------------------------------------------
# construction gates


def test_rejects_decreasing_segment():
    with pytest.raises(NotMonotone):
        PLF(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0]))


def test_rejects_decreasing_junction():
    with pytest.raises(NotMonotone):
        PLF(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.2]), np.array([0.3, 0.9]))


def test_rejects_nonincreasing_breaks():
    with pytest.raises(NotMonotone):
        PLF(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5]), np.array([0.5, 1.0]))


def _gate_fault(breaks, yl, yr):
    """The construction gates written out one by one, finiteness first."""
    for a in (breaks, yl, yr):
        if not np.isfinite(a).all():
            return InvalidInput, "non-finite entry in a PLF array"
    if not (breaks[1:] > breaks[:-1]).all():
        return NotMonotone, "breakpoints must be strictly increasing"
    if (yr < yl).any() or (yl[1:] < yr[:-1]).any():
        return NotMonotone, "segment values must be nondecreasing"
    return None


@st.composite
def gate_inputs(draw):
    # mostly finite entries; sorting puts an infinity at an end, where
    # the monotone checks pass it, and NaN anywhere
    entry = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0] * 6 + [-math.inf, math.inf, math.nan])
    n = draw(st.integers(1, 4))
    breaks = draw(st.lists(entry, min_size=n + 1, max_size=n + 1, unique=True))
    nodes = draw(st.lists(entry, min_size=2 * n, max_size=2 * n))
    if draw(st.booleans()):
        breaks = sorted(breaks)
    if draw(st.booleans()):
        nodes = sorted(nodes)
    return np.array(breaks), np.array(nodes[0::2]), np.array(nodes[1::2])


@settings(max_examples=300, deadline=None)
@given(gate_inputs())
def test_construction_names_the_first_fault_of_the_gates(arrays):
    breaks, yl, yr = arrays
    want = _gate_fault(breaks, yl, yr)
    if want is None:
        PLF(breaks, yl, yr)
    else:
        with pytest.raises(want[0]) as err:
            PLF(breaks, yl, yr)
        assert type(err.value) is want[0] and str(err.value) == want[1]


def test_upward_jumps_are_allowed():
    f = rising_then_flat()
    assert f.num_segments == 2


# ----------------------------------------------------------------------
# evaluation conventions


def test_right_continuity_at_jump():
    f = rising_then_flat()
    assert f.eval(0.5) == 2.0
    assert f.left_limit(0.5) == 1.0
    assert f.eval(0.25) == 0.5


def test_top_break_carries_final_value():
    f = rising_then_flat()
    assert f.eval(1.0) == 2.0
    assert f.left_limit(1.0) == 2.0


def test_eval_outside_domain_raises():
    f = rising_then_flat()
    with pytest.raises(ValueError):
        f.eval(-0.1)
    with pytest.raises(ValueError):
        f.eval(1.1)


@pytest.mark.parametrize("query", [PLF.eval, PLF.left_limit, PLF.prefix_integrals])
@pytest.mark.parametrize("y", [float("nan"), np.array([0.25, float("nan"), 1.0])])
def test_nan_points_fail_the_domain_check(query, y):
    with pytest.raises(ValueError, match="outside the domain"):
        query(rising_then_flat(), y)


def test_vectorized_eval_matches_scalar():
    f = rising_then_flat()
    ys = np.linspace(0.0, 1.0, 17)
    vec = f.eval(ys)
    assert all(float(v) == f.eval(float(y)) for v, y in zip(vec, ys))


# ----------------------------------------------------------------------
# canonical form and equality


def test_canonical_merges_collinear_segments():
    f = PLF(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5]), np.array([0.5, 1.0]))
    g = f.canonical()
    assert g.num_segments == 1
    assert g.equals(PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0])))
    assert g.canonical().equals(g)  # idempotent


@pytest.mark.parametrize("flat_first", [True, False])
def test_canonical_keeps_a_flat_apart_from_a_rise_whose_products_underflow(flat_first):
    # 1e-170 * 1e-300 rounds to zero, as does the flat's 0 * width
    if flat_first:
        f = PLF(np.array([0.0, 1e-300, 2e-300]), np.array([0.0, 0.0]), np.array([0.0, 1e-170]))
    else:
        f = PLF(np.array([0.0, 1e-300, 2e-300]), np.array([0.0, 1e-170]), np.array([1e-170, 1e-170]))
    assert f.canonical().equals(f)


def test_equals_is_exact():
    f = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0]))
    g = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0 + 1e-16]))
    h = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0 + 1e-15]))
    assert f.equals(g) == (1.0 == 1.0 + 1e-16)  # same double -> equal
    assert not f.equals(h)


# ----------------------------------------------------------------------
# inversion


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 2**20 - 1), min_size=1, max_size=6, unique=True))
def test_inverse_is_an_involution_for_strictly_increasing(grid_ints):
    # strictly increasing dyadic nodes: the inverse swaps break/value arrays
    # exactly, so inverting twice must reproduce the function bitwise
    vals = np.array(sorted(grid_ints), dtype=float) / 2**20
    breaks = np.linspace(0.0, 1.0, len(vals) + 1)
    f = PLF(breaks, np.concatenate([[0.0], vals[:-1]]), vals)
    assert f.inverse().inverse().equals(f)


def test_inverse_exchanges_flats_and_jumps():
    f = rising_then_flat()
    g = f.inverse()  # lives on [0, 2]
    assert g.eval(0.0) == 0.0
    assert g.eval(0.5) == 0.25  # inverse of y = 2x
    assert g.eval(1.5) == 0.5  # the jump of f becomes a flat of g
    # a flat touching the top maps to its left edge: at the full level the
    # inverse reports where the original first reached its maximum
    assert g.eval(2.0) == 0.5


def test_inverse_of_constant_rejected():
    with pytest.raises(ValueError):
        const_plf(0.0, 1.0, 2.0).inverse()


# ----------------------------------------------------------------------
# integrals


def test_integral_matches_adaptive_quadrature():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        f = sampling.random_real_measure(rng).quantile
        val, _ = quad(lambda y: float(f.eval(y)), 0.0, 1.0,
                      points=[float(t) for t in f.breaks if 0.0 < t < 1.0], limit=200)
        scale = 1.0 + abs(val)
        assert abs(f.integral() - val) <= 1e-12 * scale


def test_prefix_integrals_accumulate():
    f = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([2.0]))  # f(y) = 2y
    pre = f.prefix_integrals(np.array([0.25, 0.5, 1.0]))
    assert pre == pytest.approx([0.0625, 0.25, 1.0], abs=1e-15)
    assert f.prefix_integrals(np.array([1.0]))[0] == pytest.approx(f.integral(), abs=1e-15)


def test_restrict_is_additive_in_the_integral():
    rng = np.random.default_rng(7)
    f = sampling.random_unit_measure(rng).quantile
    t = 0.375
    left = f.restrict(0.0, t).integral()
    right = f.restrict(t, 1.0).integral()
    assert left + right == pytest.approx(f.integral(), abs=1e-13)


# ----------------------------------------------------------------------
# envelopes, grids, gluing


def test_min_max_envelopes_match_pointwise():
    rng = np.random.default_rng(11)
    f = sampling.random_unit_measure(rng).quantile
    g = sampling.random_unit_measure(rng).quantile
    lo = f.minimum(g)
    hi = f.maximum(g)
    for y in np.linspace(0.001, 0.999, 101):
        fv, gv = f.eval(float(y)), g.eval(float(y))
        assert lo.eval(float(y)) == pytest.approx(min(fv, gv), abs=1e-12)
        assert hi.eval(float(y)) == pytest.approx(max(fv, gv), abs=1e-12)


def test_trusted_construction_is_validated_in_the_tests():
    # conftest routes PLF._trusted through the validating constructor
    with pytest.raises(NotMonotone):
        PLF._trusted(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0]))


def test_maps_keep_the_construction_gates():
    f = PLF(np.array([0.0, 1e-17, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        f.map_values(1e308, 0.0)  # 2e308 overflows to inf


# the checks left where a result is nondecreasing by construction: an
# overflow or a non-finite factor, and a signed blend's decrease


@pytest.mark.parametrize(
    "scale, shift",
    [(1e308, 0.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)],
)
def test_value_maps_reject_non_finite_results_unchecked(scale, shift, unchecked_constructors):
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        rising_then_flat().map_values(scale, shift)


def test_blends_reject_an_overflow_and_a_decrease_unchecked(unchecked_constructors):
    big = PLF(np.array([0.0, 0.5, 1.0]), np.array([1e308, 1.5e308]), np.array([1.2e308, 1.6e308]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        plf_combine([big, big], [1.0, 1.0])
    ramp = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0]))
    steep = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([3.0]))
    with pytest.raises(NotMonotone):
        plf_combine([ramp, steep], [2.0, -1.0])  # x -> -x


@pytest.mark.parametrize("lo, hi", [(-math.inf, 5.0), (-1.0, math.inf), (math.nan, 5.0)])
def test_padded_inverse_needs_a_finite_window_unchecked(lo, hi, unchecked_constructors):
    with pytest.raises(ValueError):
        rising_then_flat().padded_inverse(lo, hi)


def test_scalar_envelope_clips():
    f = PLF(np.array([0.0, 1.0]), np.array([-1.0]), np.array([1.0]))
    clipped = f.minimum(0.0)
    assert clipped.eval(0.25) == -0.5
    assert clipped.eval(0.75) == 0.0
    assert f.maximum(0.0).eval(0.25) == 0.0


def test_a_crossing_rounded_past_the_top_stays_in_the_domain():
    # the crossing of this ramp with 0 rounds to 4.4e-16, above the top break
    f = PLF(np.array([-2.72936590562509, 2.7708884662623167e-16]), np.array([-1.0]), np.array([4.1932550412258494e-17]))
    for g, top in ((f.minimum(0.0), 0.0), (f.maximum(0.0), f.yr[-1])):
        assert g.support == f.support and g.eval(f.support[1]) == top


def test_refinement_preserves_the_function():
    rng = np.random.default_rng(3)
    f = sampling.random_unit_measure(rng).quantile
    extra = np.linspace(0.0, 1.0, 9)
    g = f.refine(extra)
    assert set(extra.tolist()) <= set(g.breaks.tolist())
    assert set(f.breaks.tolist()) <= set(g.breaks.tolist())
    for y in np.linspace(0.0, 1.0, 37):
        assert g.eval(float(y)) == pytest.approx(f.eval(float(y)), abs=1e-14)
    assert g.integral() == pytest.approx(f.integral(), abs=1e-13)
    with pytest.raises(ValueError):
        f.refine(np.array([1.5]))  # refinement points must sit inside the domain
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="refinement point"):
            f.refine(np.array([0.5, bad]))


def test_concat_requires_monotone_seams():
    a = const_plf(0.0, 0.5, 0.0)
    b = const_plf(0.5, 1.0, 1.0)
    glued = concat_plfs([a, b])
    assert glued.eval(0.25) == 0.0 and glued.eval(0.75) == 1.0
    with pytest.raises(NotMonotone):
        concat_plfs([const_plf(0.0, 0.5, 1.0), const_plf(0.5, 1.0, 0.0)])


def test_concat_checks_its_seams_itself():
    # raised before any PLF is built, so not by the validating constructor
    ramp = PLF(np.array([0.5, 1.0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(NotMonotone, match="seam"):
        concat_plfs([const_plf(0.0, 0.5, 0.5), ramp])
    assert concat_plfs([const_plf(0.0, 0.5, 0.0), ramp]).eval(0.75) == 0.5


def test_splice_takes_low_then_high():
    low = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0]))
    high = PLF(np.array([0.0, 1.0]), np.array([5.0]), np.array([6.0]))
    sp = plf_splice(low, high, 0.5)
    assert sp.eval(0.25) == 0.25
    assert sp.eval(0.75) == 5.75
    with pytest.raises(NotMonotone):
        plf_splice(high, low, 0.5)


def test_combine_is_pointwise_affine():
    rng = np.random.default_rng(5)
    f = sampling.random_unit_measure(rng).quantile
    g = sampling.random_unit_measure(rng).quantile
    h = plf_combine([f, g], [0.25, 0.75])
    for y in np.linspace(0.01, 0.99, 23):
        want = 0.25 * f.eval(float(y)) + 0.75 * g.eval(float(y))
        assert h.eval(float(y)) == pytest.approx(want, abs=1e-13)


# ----------------------------------------------------------------------
# exact |affine|^p cells


@pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 3.0])
def test_cell_integrals_match_quadrature(p):
    rng = np.random.default_rng(int(p * 10))
    w = rng.uniform(0.01, 2.0, 20)
    a = rng.normal(0.0, 3.0, 20)
    b = rng.normal(0.0, 3.0, 20)
    cells = abs_pow_cells(w, a, b, p)
    for k in range(20):
        kinks = []
        if a[k] * b[k] < 0.0:  # tell the quadrature where |.| has its kink
            kinks.append(float(a[k] / (a[k] - b[k])))
        want, err = quad(
            lambda s, k=k: abs(a[k] + (b[k] - a[k]) * s) ** p * w[k],
            0.0, 1.0, points=kinks, limit=200,
        )
        # for non-integer p the kink of |.|^p has unbounded curvature, so the
        # quadrature itself drifts; trust it only up to its own error estimate
        tol = max(1e-13 * (1.0 + abs(want)), 2.0 * err)
        assert cells[k] == pytest.approx(want, abs=tol)


def test_p1_same_sign_cell_is_the_exact_trapezoid():
    w = np.array([0.7])
    a = np.array([0.3])
    b = np.array([1.1])
    got = abs_pow_cells(w, a, b, 1.0)[0]
    assert got == (abs(0.3) + abs(1.1)) * 0.5 * 0.7


def test_gap_integral_frozen_values():
    # int_0^1 |y - 1/2|^2 dy = 1/12
    ramp = PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0]))
    half = const_plf(0.0, 1.0, 0.5)
    assert abs_pow_gap(ramp, half, 2.0) == pytest.approx(1.0 / 12.0, abs=1e-16)
    assert abs_pow_gap(ramp, ramp, 2.0) == 0.0


def test_gap_is_symmetric():
    rng = np.random.default_rng(9)
    f = sampling.random_unit_measure(rng).quantile
    g = sampling.random_unit_measure(rng).quantile
    assert abs_pow_gap(f, g, 1.5) == abs_pow_gap(g, f, 1.5)
