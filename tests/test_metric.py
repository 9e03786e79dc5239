"""Metric layer: closed-form distances against independent oracles,
metric axioms, geodesics, and the monotone parameter range."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasserline import (
    PLF,
    DiscreteMeasure,
    Domain,
    DomainMismatch,
    InvalidP,
    NotMonotone,
    cdf_from_dirac_distances,
    check_order,
    dist_to_dirac,
    from_atoms,
    geodesic_point,
    monotone_range,
    sampling,
    transport_lp_oracle,
    wasserstein_distance,
)
from wasserline import interval, measures, metric, plf
from conftest import dirac, linprog_transport, quad_quantile_gap, uniform01


# ----------------------------------------------------------------------
# the call chain


def test_a_merged_grid_distance_runs_the_whole_chain():
    # the benchmark's per-layer table names each of these callables
    mu = from_atoms([(0.0, 0.25), (1.0, 0.75)])
    nu = from_atoms([(0.5, 0.5), (2.0, 0.5)])
    with (
        mock.patch.object(metric, "abs_pow_gap", wraps=plf.abs_pow_gap) as gap,
        mock.patch.object(plf, "on_common_grid", wraps=plf.on_common_grid) as on_common,
        mock.patch.object(plf, "common_grid", wraps=plf.common_grid) as common,
        mock.patch.object(PLF, "on_grid", autospec=True, side_effect=PLF.on_grid) as on_grid,
        mock.patch.object(plf, "abs_pow_cells", wraps=plf.abs_pow_cells) as cells,
    ):
        assert wasserstein_distance(mu, nu, 2.0) > 0.0
    assert (gap.call_count, on_common.call_count, common.call_count, cells.call_count) == (1, 1, 1, 1)
    assert [c.args[0] for c in on_grid.call_args_list] == [mu.quantile, nu.quantile]


def test_a_geodesic_point_merges_its_grid_once():
    # the range check and the blend share one common grid
    mu = from_atoms([(0.0, 0.25), (1.0, 0.75)])
    nu = from_atoms([(0.5, 0.5), (2.0, 0.5)])
    with mock.patch.object(plf, "common_grid", wraps=plf.common_grid) as common:
        mid = geodesic_point(mu, nu, 0.5)
    assert common.call_count == 1
    assert mid == from_atoms([(0.25, 0.25), (0.75, 0.25), (1.5, 0.5)])


def test_a_geodesic_point_inside_the_segment_skips_the_range_scan():
    # [0, 1] lies in every monotone range, so only s outside it (or NaN)
    # scans the steps; the points are those of the scanned path
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    nu = from_atoms([(0.0, 0.5), (3.0, 0.5)])
    with mock.patch.object(metric, "_monotone_range", wraps=metric._monotone_range) as scan:
        points = [geodesic_point(mu, nu, s) for s in (0.0, 0.5, 1.0)]
        assert scan.call_count == 0
        assert geodesic_point(mu, nu, -0.5) == dirac(0.0)
        for bad in (-0.6, float("nan")):
            with pytest.raises(NotMonotone):
                geodesic_point(mu, nu, bad)
        assert scan.call_count == 3
    assert points == [mu, from_atoms([(0.0, 0.5), (2.0, 0.5)]), nu]


def test_distances_and_the_projection_share_one_power_kernel():
    # one home for the cells of |affine|^r: a fix made there reaches the
    # distances, the Dirac distances and the projection alike
    mu = sampling.random_unit_measure(np.random.default_rng(5))
    nu = from_atoms([(0.25, 0.5), (0.75, 0.5)], domain=Domain.UNIT_INTERVAL)
    kernel = mock.Mock(wraps=plf._power_cells)
    cells = mock.Mock(wraps=plf.abs_pow_cells)
    gap = mock.Mock(wraps=plf.abs_pow_gap)
    with (
        mock.patch.object(plf, "_power_cells", kernel),
        mock.patch.object(interval, "_power_cells", kernel),
        mock.patch.object(plf, "abs_pow_cells", cells),
        mock.patch.object(measures, "abs_pow_gap", gap),
    ):
        assert wasserstein_distance(mu, nu, 2.0) > 0.0
        assert (cells.call_count, [c.args[3:] for c in kernel.call_args_list]) == (1, [(2.0, False)])
        cells.reset_mock()
        kernel.reset_mock()
        # one gap per Dirac distance: one for d(t), two for the recovered CDF
        assert dist_to_dirac(mu, 0.5) > 0.0
        assert (gap.call_count, cells.call_count) == (1, 1)
        cdf_from_dirac_distances(mu, 0.5, 2.0**-10)
        assert (gap.call_count, cells.call_count) == (3, 3)
        assert all(c.args[2] == 1.0 for c in gap.call_args_list) and not kernel.called
        cells.reset_mock()
        interval.nearest_in_mn(mu, 1, 1.5)
    orders = [c.args[3:] for c in kernel.call_args_list]
    # the Newton steps of the projection (slope, then curvature), then its
    # one distance
    steps = (len(orders) - 1) // 2
    assert steps > 0 and orders == [(0.5, True), (-0.5, False)] * steps + [(1.5, False)]
    assert cells.call_count == 1


# ----------------------------------------------------------------------
# frozen values


def test_mix_versus_uniform_frozen_distance():
    # quantile gap: int_0^{1/4} u^2 du + int_{1/4}^1 (1-u)^2 du = 7/48
    mix = from_atoms([(0.0, 0.25), (1.0, 0.75)], domain=Domain.UNIT_INTERVAL)
    got = wasserstein_distance(mix, uniform01(), 2.0)
    assert got == pytest.approx(math.sqrt(7.0 / 48.0), abs=2e-16)


def test_dirac_pair_distances_are_the_gap():
    for p in (1.0, 1.5, 2.0, 3.0):
        assert wasserstein_distance(dirac(-2.0), dirac(3.0), p) == pytest.approx(5.0, abs=1e-14)


# ----------------------------------------------------------------------
# independent oracles


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_closed_form_agrees_with_the_full_transport_lp(p):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        mu = sampling.random_discrete_measure(rng, max_atoms=6)
        nu = sampling.random_discrete_measure(rng, max_atoms=6)
        want = linprog_transport(
            DiscreteMeasure.from_measure(mu), DiscreteMeasure.from_measure(nu), p
        )
        got = wasserstein_distance(mu, nu, p)
        assert got == pytest.approx(want, abs=1e-9 * (1.0 + want))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_closed_form_agrees_with_the_monotone_coupling_oracle(seed, p):
    rng = np.random.default_rng(seed)
    mu = sampling.random_discrete_measure(rng)
    nu = sampling.random_discrete_measure(rng)
    want = transport_lp_oracle(DiscreteMeasure.from_measure(mu), DiscreteMeasure.from_measure(nu), p)
    got = wasserstein_distance(mu, nu, p)
    assert got == pytest.approx(want, abs=1e-10 * (1.0 + want))


def test_closed_form_agrees_with_quadrature_on_continuous_pairs():
    rng = np.random.default_rng(17)
    for p in (1.0, 2.0, 3.0):
        mu = sampling.random_unit_measure(rng)
        nu = sampling.random_unit_measure(rng)
        assert wasserstein_distance(mu, nu, p) == pytest.approx(
            quad_quantile_gap(mu, nu, p), abs=1e-9
        )


def test_w1_equals_the_area_between_cdfs():
    from scipy.integrate import quad
    from wasserline import cdf_eval

    rng = np.random.default_rng(19)
    mu = sampling.random_discrete_measure(rng, max_atoms=5)
    nu = sampling.random_discrete_measure(rng, max_atoms=5)
    lo = min(mu.quantile.value_range[0], nu.quantile.value_range[0]) - 1.0
    hi = max(mu.quantile.value_range[1], nu.quantile.value_range[1]) + 1.0
    pts = sorted(set(x for x, _ in mu.atoms()) | set(x for x, _ in nu.atoms()))
    area, _ = quad(lambda x: abs(cdf_eval(mu, x) - cdf_eval(nu, x)), lo, hi, points=pts, limit=400)
    assert wasserstein_distance(mu, nu, 1.0) == pytest.approx(area, abs=1e-9)


# ----------------------------------------------------------------------
# metric axioms


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0, 3.0]))
def test_metric_axioms(seed, p):
    rng = np.random.default_rng(seed)
    mu = sampling.random_real_measure(rng)
    nu = sampling.random_discrete_measure(rng, max_atoms=6)
    rho = sampling.random_real_measure(rng)
    dmn = wasserstein_distance(mu, nu, p)
    assert dmn == wasserstein_distance(nu, mu, p)  # symmetric bitwise
    assert wasserstein_distance(mu, mu, p) == 0.0
    scale = 1.0 + dmn + wasserstein_distance(nu, rho, p)
    assert wasserstein_distance(mu, rho, p) <= dmn + wasserstein_distance(nu, rho, p) + 1e-12 * scale


def test_translation_invariance():
    from wasserline import pushforward_affine

    rng = np.random.default_rng(23)
    mu = sampling.random_real_measure(rng)
    nu = sampling.random_discrete_measure(rng)
    for p in (1.0, 2.0):
        d = wasserstein_distance(mu, nu, p)
        shifted = wasserstein_distance(
            pushforward_affine(mu, 1, 7.5), pushforward_affine(nu, 1, 7.5), p
        )
        assert shifted == pytest.approx(d, abs=1e-12 * (1.0 + d))


def test_order_monotonicity_of_distances():
    # Jensen: the L^p norm of the quantile gap is nondecreasing in p
    rng = np.random.default_rng(29)
    for _ in range(10):
        mu = sampling.random_unit_measure(rng)
        nu = sampling.random_unit_measure(rng)
        d1 = wasserstein_distance(mu, nu, 1.0)
        d2 = wasserstein_distance(mu, nu, 2.0)
        d3 = wasserstein_distance(mu, nu, 3.0)
        assert d1 <= d2 + 1e-12 and d2 <= d3 + 1e-12


# ----------------------------------------------------------------------
# gates


def test_order_gates():
    mu, nu = dirac(0.0), dirac(1.0)
    for bad in (0.5, 0.99, float("nan"), float("inf")):
        with pytest.raises(InvalidP):
            wasserstein_distance(mu, nu, bad)
    assert check_order(2) == 2.0


def test_domain_mismatch_gate():
    mu, nu = dirac(0.5, Domain.REAL_LINE), dirac(0.5, Domain.UNIT_INTERVAL)
    with pytest.raises(DomainMismatch):
        wasserstein_distance(mu, nu, 2.0)
    for geodesic in (monotone_range, lambda a, b: geodesic_point(a, b, 0.5)):
        with pytest.raises(DomainMismatch, match="the measures live on different domains"):
            geodesic(mu, nu)


# ----------------------------------------------------------------------
# geodesics


def test_geodesic_has_constant_speed():
    rng = np.random.default_rng(37)
    mu = sampling.random_real_measure(rng)
    nu = sampling.random_discrete_measure(rng, max_atoms=6)
    d = wasserstein_distance(mu, nu, 2.0)
    pts = [0.0, 0.25, 0.5, 0.75, 1.0]
    for s in pts:
        for t in pts:
            got = wasserstein_distance(geodesic_point(mu, nu, s), geodesic_point(mu, nu, t), 2.0)
            assert got == pytest.approx(abs(s - t) * d, abs=1e-12 * (1.0 + d))
    assert wasserstein_distance(geodesic_point(mu, nu, 0.0), mu, 2.0) <= 1e-14
    assert wasserstein_distance(geodesic_point(mu, nu, 1.0), nu, 2.0) <= 1e-14


def test_monotone_range_frozen_example():
    # mu = (d0 + d1)/2, nu = (d0 + d3)/2: the quantile direction adds 2s to
    # the upper atom, so monotonicity survives exactly for s >= -1/2
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    nu = from_atoms([(0.0, 0.5), (3.0, 0.5)])
    r = monotone_range(mu, nu)
    assert r.lo == -0.5 and r.hi is None
    assert r.contains(-0.5) and r.contains(100.0)
    assert not r.contains(-0.51) and not r.contains(float("nan"))
    assert geodesic_point(mu, nu, -0.5) == dirac(0.0)
    for bad in (-0.6, float("nan")):
        with pytest.raises(NotMonotone):
            geodesic_point(mu, nu, bad)


def test_geodesic_extends_beyond_the_segment_inside_the_range():
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    nu = from_atoms([(0.0, 0.5), (3.0, 0.5)])
    d = wasserstein_distance(mu, nu, 1.0)
    far = geodesic_point(mu, nu, 2.0)
    assert wasserstein_distance(mu, far, 1.0) == pytest.approx(2.0 * d, abs=1e-13)


def test_dirac_geodesics_are_unbounded_rays():
    r = monotone_range(dirac(0.0), dirac(1.0))
    assert r.lo is None and r.hi is None
    assert r.contains(-1e6) and r.contains(1e6)
    assert not r.contains(float("nan"))
    with pytest.raises(NotMonotone):
        geodesic_point(dirac(0.0), dirac(1.0), float("nan"))
