"""Midpoint geometry in W1 over the real line: quadrant areas, bisecting
measures, adjacency detection, the diameter probe, and Dirac certificates."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from wasserline import (
    Domain,
    DomainMismatch,
    EqualEndpoints,
    NotBisectable,
    NotMonotone,
    bisecting_pair,
    dirac_certificate,
    from_atoms,
    geodesic_point,
    is_adjacent,
    is_midpoint,
    midpoint_diameter_probe,
    midpoint_geometry,
    run_suite,
    sampling,
    wasserstein_distance,
)
from wasserline import midpoints
from conftest import dirac


def staircase_pair():
    # supports interleave: (d0 + d2)/2 against (d1 + d3)/2; the area between
    # the CDFs splits into two unit-area blocks touching only at (1, 1/2)
    mu = from_atoms([(0.0, 0.5), (2.0, 0.5)])
    nu = from_atoms([(1.0, 0.5), (3.0, 0.5)])
    return mu, nu


# ----------------------------------------------------------------------
# quadrant geometry


def test_geometry_gates():
    mu = dirac(0.0)
    with pytest.raises(EqualEndpoints):
        midpoint_geometry(mu, dirac(0.0))
    with pytest.raises(DomainMismatch):
        midpoint_geometry(mu, dirac(0.5, Domain.UNIT_INTERVAL))


def test_dirac_pair_geometry_is_fully_symmetric():
    geo = midpoint_geometry(dirac(0.0), dirac(1.0))
    assert geo.D == 1.0
    assert geo.v == 0.5 and geo.h == 0.5
    assert geo.alphas == (0.25, 0.25, 0.25, 0.25)


def test_staircase_geometry_frozen_values():
    mu, nu = staircase_pair()
    geo = midpoint_geometry(mu, nu)
    assert geo.D == 1.0
    assert geo.v == 1.0 and geo.h == 0.5
    assert geo.alphas == (0.5, 0.0, 0.5, 0.0)


def test_quadrant_identities_on_random_pairs():
    rng = np.random.default_rng(83)
    for _ in range(12):
        mu = sampling.random_real_measure(rng)
        nu = sampling.random_discrete_measure(rng, max_atoms=8)
        geo = midpoint_geometry(mu, nu)
        a1, a2, a3, a4 = geo.alphas
        scale = 1.0 + geo.D
        assert a1 == pytest.approx(a3, abs=1e-10 * scale)
        assert a2 == pytest.approx(a4, abs=1e-10 * scale)
        assert a1 + a2 == pytest.approx(0.5 * geo.D, abs=1e-10 * scale)
        assert geo.D == pytest.approx(wasserstein_distance(mu, nu, 1.0), abs=1e-12 * scale)


# ----------------------------------------------------------------------
# bisecting measures


def test_dirac_pair_bisecting_measures():
    # vertical split gives the halfway Dirac; horizontal gives the balanced mix
    xi_v, xi_h = bisecting_pair(midpoint_geometry(dirac(0.0), dirac(1.0)))
    assert xi_v.atoms() == [(0.5, 1.0)]
    assert xi_h.atoms() == [(0.0, 0.5), (1.0, 0.5)]
    assert wasserstein_distance(xi_v, xi_h, 1.0) == 0.5  # exactly D/2


def test_bisecting_measures_are_midpoints_with_bracketed_gap():
    rng = np.random.default_rng(89)
    seen = 0
    for _ in range(20):
        mu = sampling.random_discrete_measure(rng, max_atoms=6)
        nu = sampling.random_real_measure(rng)
        try:
            xi_v, xi_h = bisecting_pair(midpoint_geometry(mu, nu))
        except NotBisectable:
            continue
        seen += 1
        d = wasserstein_distance(mu, nu, 1.0)
        assert is_midpoint(xi_v, mu, nu, tol=1e-10)
        assert is_midpoint(xi_h, mu, nu, tol=1e-10)
        gap = wasserstein_distance(xi_v, xi_h, 1.0)
        assert 0.5 * d - 1e-10 <= gap <= d + 1e-10
    assert seen >= 10  # the generic case must dominate the corpus


def test_staircase_pair_is_not_bisectable():
    mu, nu = staircase_pair()
    with pytest.raises(NotBisectable):
        bisecting_pair(midpoint_geometry(mu, nu))


def test_staircase_glue_midpoints_realize_the_full_diameter():
    # with both off-diagonal quadrants empty the extremal midpoints are the
    # two glue measures, and they sit at distance D from each other
    mu, nu = staircase_pair()
    glue_outer = from_atoms([(0.0, 0.5), (3.0, 0.5)])
    glue_inner = from_atoms([(1.0, 0.5), (2.0, 0.5)])
    assert is_midpoint(glue_outer, mu, nu)
    assert is_midpoint(glue_inner, mu, nu)
    assert wasserstein_distance(glue_outer, glue_inner, 1.0) == 1.0
    probe = midpoint_diameter_probe(midpoint_geometry(mu, nu), trials=40, seed=1)
    assert probe.lower_bound_found == pytest.approx(1.0, abs=1e-9)
    assert probe.theoretical == (0.5, 1.0)  # the (D/2, D) bracket


# ----------------------------------------------------------------------
# midpoint membership


def test_geodesic_midpoint_is_a_midpoint():
    rng = np.random.default_rng(97)
    mu = sampling.random_real_measure(rng)
    nu = sampling.random_discrete_measure(rng, max_atoms=6)
    mid = geodesic_point(mu, nu, 0.5)
    assert is_midpoint(mid, mu, nu)
    assert not is_midpoint(mu, mu, nu)  # an endpoint is not equidistant


def test_midpoint_tolerance_is_respected():
    mu, nu = dirac(0.0), dirac(1.0)
    near = dirac(0.5 + 5e-7)
    assert not is_midpoint(near, mu, nu, tol=1e-9)
    assert is_midpoint(near, mu, nu, tol=1e-5)


# ----------------------------------------------------------------------
# adjacency


def test_adjacent_diracs_have_an_exact_witness():
    w = is_adjacent(dirac(0.0), dirac(1.0))
    assert w is not None and (w.a, w.b) == (0.0, 1.0)


def test_staircase_pair_is_not_adjacent():
    mu, nu = staircase_pair()
    assert is_adjacent(mu, nu) is None  # the CDFs differ on two separated bands


def test_equal_measures_are_not_adjacent():
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    assert is_adjacent(mu, mu) is None


def test_sampled_adjacent_pairs_are_detected_and_balanced():
    rng = np.random.default_rng(101)
    for _ in range(10):
        mu, nu = sampling.random_adjacent_pair(rng)
        w = is_adjacent(mu, nu)
        assert w is not None and w.a < w.b
        geo = midpoint_geometry(mu, nu)
        # adjacency forces all four quadrants to a quarter of the area each
        for a in geo.alphas:
            assert a == pytest.approx(0.25 * geo.D, abs=1e-10 * (1.0 + geo.D))


def test_adjacent_pair_probe_plateaus_at_half_distance():
    rng = np.random.default_rng(103)
    mu, nu = sampling.random_adjacent_pair(rng)
    geo = midpoint_geometry(mu, nu)
    xi_v, xi_h = bisecting_pair(geo)
    probe = midpoint_diameter_probe(geo, trials=60, seed=5)
    assert probe.lower_bound_found == pytest.approx(0.5 * geo.D, abs=1e-9 * (1.0 + geo.D))
    best_a, best_b = probe.best_pair
    direct = max(
        wasserstein_distance(best_a, xi_v, 1.0), wasserstein_distance(best_b, xi_h, 1.0)
    )
    crossed = max(
        wasserstein_distance(best_a, xi_h, 1.0), wasserstein_distance(best_b, xi_v, 1.0)
    )
    assert min(direct, crossed) <= 1e-9 * (1.0 + geo.D)


def test_probe_is_deterministic():
    mu, nu = sampling.random_adjacent_pair(np.random.default_rng(107))
    one = midpoint_diameter_probe(midpoint_geometry(mu, nu), trials=30, seed=9)
    two = midpoint_diameter_probe(midpoint_geometry(mu, nu), trials=30, seed=9)
    assert one.lower_bound_found == two.lower_bound_found
    assert one.best_pair[0] == two.best_pair[0] and one.best_pair[1] == two.best_pair[1]


def test_probe_skips_only_a_decreasing_glue():
    geo = midpoint_geometry(*sampling.random_adjacent_pair(np.random.default_rng(107)))
    with mock.patch("wasserline.midpoints._glue_horizontal", side_effect=NotMonotone("seam")):
        assert midpoint_diameter_probe(geo, trials=4).trials == 4
    with mock.patch("wasserline.midpoints._glue_horizontal", side_effect=ValueError("not a seam")):
        with pytest.raises(ValueError, match="not a seam"):
            midpoint_diameter_probe(geo, trials=4)


@pytest.mark.parametrize("suite_id", ["midpoint-geometry", "dirac-characterization"])
def test_suites_analyse_each_pair_once(suite_id):
    # the bisecting pair and the probe read the suite's one geometry
    with mock.patch("wasserline.midpoints.midpoint_geometry", wraps=midpoints.midpoint_geometry) as analyse:
        run_suite(suite_id, 5, 0)
    pairs = [c.args for c in analyse.call_args_list]
    assert pairs and len(pairs) == len({(id(mu), id(nu)) for mu, nu in pairs})


# ----------------------------------------------------------------------
# Dirac certificates


def test_dirac_certificate_at_every_scale():
    eta = dirac(2.0)
    for n in (1.0, 5.0, 1000.0):
        cert = dirac_certificate(eta, n)
        assert cert is not None
        lo, hi = cert
        assert lo.atoms() == [(2.0 - n / 2, 1.0)]
        assert hi.atoms() == [(2.0 + n / 2, 1.0)]
        assert is_adjacent(lo, hi) is not None
        assert wasserstein_distance(lo, hi, 1.0) == pytest.approx(n, abs=1e-9 * n)
        assert is_midpoint(eta, lo, hi, tol=1e-9)


def test_two_atom_certificate_exists_up_to_capacity():
    # 1/2 at 0, 1/2 at 1: every admissible move tops out at distance 1
    eta = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    cert = dirac_certificate(eta, 1.0)
    assert cert is not None
    lo, hi = cert
    assert is_adjacent(lo, hi) is not None
    assert wasserstein_distance(lo, hi, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert is_midpoint(eta, lo, hi, tol=1e-9)
    assert dirac_certificate(eta, 1.5) is None


def test_wide_gap_certificate_capacity():
    eta = from_atoms([(0.0, 0.5), (10.0, 0.5)])
    cert = dirac_certificate(eta, 8.0)
    assert cert is not None
    lo, hi = cert
    assert wasserstein_distance(lo, hi, 1.0) == pytest.approx(8.0, abs=1e-11)
    assert is_midpoint(eta, lo, hi, tol=1e-9)
    assert dirac_certificate(eta, 10.0) is not None  # boundary move still fits
    assert dirac_certificate(eta, 10.5) is None  # beyond every gap capacity


def test_vertical_certificate_pins_the_shift_to_the_neighbouring_atom():
    # n = 2 W gap for the middle atom: value + fl(yl[k+1] - value) rounded
    # past the right neighbour and the patched quantile decreased
    eta = from_atoms([(-6.975092323916503, 0.19502916324278835), (-3.7377328417591955, 0.7236425341636187),
                      (-0.6563749917976371, 0.08132830259359297)])
    n = 4.459603206422284
    lo, hi = dirac_certificate(eta, n)
    assert hi.atoms()[-1][0] == -0.6563749917976371  # the moved atom met its neighbour
    assert is_adjacent(lo, hi) is not None
    assert wasserstein_distance(lo, hi, 1.0) == pytest.approx(n, abs=1e-12)
    assert is_midpoint(eta, lo, hi, tol=1e-9)


def test_vertical_certificate_at_full_gap_capacity():
    # at the capacity itself the normalized weight may round the move away
    # (None); a certificate that is returned must be valid
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(2000):
        pos = np.sort(rng.normal(0.0, 3.0, 3))
        w = rng.dirichlet(np.ones(3))
        n = 2.0 * w[1] * min(pos[1] - pos[0], pos[2] - pos[1])
        cert = dirac_certificate(from_atoms(zip(pos, w)), n)
        if cert is not None:
            found += 1
            assert wasserstein_distance(*cert, 1.0) == pytest.approx(n, rel=1e-12)
    assert found > 1000


def test_certificate_pairs_put_eta_in_the_midpoint_set():
    rng = np.random.default_rng(109)
    for _ in range(6):
        atoms = sorted(rng.normal(0.0, 5.0, 3).tolist())
        eta = from_atoms([(x, 1.0 / 3.0) for x in atoms])
        cert = dirac_certificate(eta, 1e-3)  # tiny distances always fit
        assert cert is not None
        lo, hi = cert
        assert is_adjacent(lo, hi) is not None
        assert is_midpoint(eta, lo, hi, tol=1e-9)
