"""Unit-interval geometry: slices, the equi-weighted grid ladder,
best one-parameter approximations, and quantile convex combinations."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from wasserline import (
    AlphaOutOfRange,
    Domain,
    DomainMismatch,
    InvalidP,
    PositionOutOfRange,
    UnsortedPositions,
    WeightError,
    abs_pow_gap,
    const_plf,
    convex_hull_combination,
    from_atoms,
    ladder_bound,
    mn_element,
    nearest_in_mn,
    qn_elements,
    sampling,
    slice_extremal_pair,
    slice_of,
    t_star,
    wasserstein_distance,
)
from conftest import dirac


# ----------------------------------------------------------------------
# slices


def test_slice_of_is_the_mean():
    assert slice_of(dirac(0.3, Domain.UNIT_INTERVAL)) == pytest.approx(0.3, abs=1e-15)
    mix = from_atoms([(0.0, 0.5), (1.0, 0.5)], domain=Domain.UNIT_INTERVAL)
    assert slice_of(mix) == pytest.approx(0.5, abs=1e-15)


def test_slice_extremal_pair_frozen_case():
    a, b = slice_extremal_pair(0.25)
    assert slice_of(a) == pytest.approx(0.25, abs=1e-14)
    assert slice_of(b) == pytest.approx(0.25, abs=1e-14)
    # the slice at level t has diameter 2t(1-t)
    assert wasserstein_distance(a, b, 1.0) == pytest.approx(0.375, abs=1e-14)


def test_slice_extremal_pair_covers_all_levels():
    for t in (0.1, 0.5, 0.9):
        a, b = slice_extremal_pair(t)
        assert wasserstein_distance(a, b, 1.0) == pytest.approx(2 * t * (1 - t), abs=1e-13)
    with pytest.raises(PositionOutOfRange):
        slice_extremal_pair(-0.2)


def test_random_slice_members_never_beat_the_extremal_pair():
    rng = np.random.default_rng(67)
    t = 0.3
    cap = 2 * t * (1 - t)
    for _ in range(25):
        mu = sampling.random_measure_in_slice(rng, t)
        nu = sampling.random_measure_in_slice(rng, t)
        assert slice_of(mu) == pytest.approx(t, abs=1e-12)
        assert wasserstein_distance(mu, nu, 1.0) <= cap + 1e-12


# ----------------------------------------------------------------------
# the grid ladder


def test_ladder_bound_frozen_values():
    assert ladder_bound(0, 3.0) == pytest.approx(0.5, abs=1e-16)
    assert ladder_bound(2, 2.0) == pytest.approx(0.25, abs=1e-16)
    assert ladder_bound(3, 1.5) == pytest.approx(0.125, abs=1e-16)


@pytest.mark.parametrize("bad", [-1, 2.5, 21, float("inf"), float("nan")])
def test_ladder_index_gates(bad):
    with pytest.raises(ValueError):
        ladder_bound(bad, 2.0)
    with pytest.raises(ValueError):
        qn_elements(bad)


def test_qn_elements_are_the_extremal_two_point_family():
    # level n: two-point measures at {0, 1} with weights (2j+1)/2^{n+1}
    got = [m.atoms() for m in qn_elements(1)]
    assert got == [[(0.0, 0.25), (1.0, 0.75)], [(0.0, 0.75), (1.0, 0.25)]]
    weights_at_zero = [m.atoms()[0][1] for m in qn_elements(2)]
    assert weights_at_zero == pytest.approx([1 / 8, 3 / 8, 5 / 8, 7 / 8], abs=1e-16)


def test_qn_elements_attain_the_ladder_bound():
    for n in (0, 1, 2):
        for p in (1.5, 2.0, 3.0):
            for q in qn_elements(n):
                _, d = nearest_in_mn(q, n, p)
                assert d == pytest.approx(ladder_bound(n, p), abs=1e-9)


def test_mn_element_gates():
    assert mn_element([0.25, 0.75]).atoms() == [(0.25, 0.5), (0.75, 0.5)]
    with pytest.raises(UnsortedPositions):
        mn_element([0.75, 0.25])
    with pytest.raises(PositionOutOfRange):
        mn_element([0.25, 1.75])


def _blockwise_projection_oracle(mu, n: int, p: float) -> float:
    """Independent best-approximation value: each dyadic level block is a
    separate scalar convex minimization, and monotonicity of the quantile
    makes the blockwise free minimizers nondecreasing, so their total is
    the true squared...^p distance to the equi-weighted grid family."""
    k = 2**n
    total = 0.0
    for j in range(k):
        lo, hi = j / k, (j + 1) / k
        seg = mu.quantile.restrict(lo, hi)
        a, b = seg.value_range
        if a == b:
            continue
        res = minimize_scalar(
            lambda c: abs_pow_gap(seg, const_plf(lo, hi, c), p),
            bounds=(a, b),
            method="bounded",
            options={"xatol": 1e-13},
        )
        total += float(res.fun)
    return total ** (1.0 / p)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_nearest_in_mn_matches_the_blockwise_oracle(n, p):
    rng = np.random.default_rng(100 * n + int(10 * p))
    for _ in range(4):
        mu = sampling.random_unit_measure(rng)
        best, d = nearest_in_mn(mu, n, p)
        assert d == pytest.approx(_blockwise_projection_oracle(mu, n, p), abs=1e-8)
        # the reported element realizes the reported distance
        assert wasserstein_distance(mu, best, p) == pytest.approx(d, abs=1e-12)
        positions = [x for x, _ in best.atoms()]
        assert positions == sorted(positions)


def test_nearest_never_beats_the_ladder_bound():
    rng = np.random.default_rng(71)
    for _ in range(15):
        mu = sampling.random_unit_measure(rng)
        for n in (0, 1, 2, 3):
            for p in (1.5, 2.0, 3.0):
                _, d = nearest_in_mn(mu, n, p)
                assert d <= ladder_bound(n, p) + 1e-9


# ----------------------------------------------------------------------
# the one-atom split point


def test_t_star_frozen_value():
    # alpha = 0.8, p = 3: r = 1/2 and t* = sqrt(.8)/(sqrt(.8)+sqrt(.2)) = 2/3
    assert t_star(0.8, 3.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_t_star_symmetry():
    for alpha in (0.1, 0.37, 0.62):
        for p in (1.5, 2.0, 4.0):
            assert t_star(alpha, p) + t_star(1.0 - alpha, p) == pytest.approx(1.0, abs=1e-13)


def test_t_star_minimizes_the_split_energy():
    rng = np.random.default_rng(73)
    for _ in range(20):
        alpha = float(rng.uniform(0.05, 0.95))
        p = float(rng.uniform(1.2, 4.0))
        res = minimize_scalar(
            lambda t: (1.0 - alpha) * t**p + alpha * (1.0 - t) ** p,
            bounds=(0.0, 1.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert t_star(alpha, p) == pytest.approx(float(res.x), abs=1e-8)


def test_t_star_gates():
    with pytest.raises(AlphaOutOfRange):
        t_star(0.0, 2.0)
    with pytest.raises(AlphaOutOfRange):
        t_star(1.0, 2.0)
    with pytest.raises(InvalidP):
        t_star(0.5, 1.0)


# ----------------------------------------------------------------------
# quantile convex combinations


def test_combination_identity():
    mu = from_atoms([(0.25, 0.5), (0.75, 0.5)], domain=Domain.UNIT_INTERVAL)
    assert convex_hull_combination([(mu, 1.0)]) == mu


def test_combination_slice_is_linear():
    rng = np.random.default_rng(79)
    mu = sampling.random_unit_measure(rng)
    nu = sampling.random_unit_measure(rng)
    combo = convex_hull_combination([(mu, 0.25), (nu, 0.75)])
    want = 0.25 * slice_of(mu) + 0.75 * slice_of(nu)
    assert slice_of(combo) == pytest.approx(want, abs=1e-13)


def test_combination_gates():
    mu = dirac(0.5, Domain.UNIT_INTERVAL)
    with pytest.raises(WeightError):
        convex_hull_combination([])
    with pytest.raises(WeightError):
        convex_hull_combination([(mu, -0.5), (mu, 1.5)])
    with pytest.raises(WeightError):
        convex_hull_combination([(mu, 0.4), (mu, 0.4)])
    with pytest.raises(WeightError):
        convex_hull_combination([(mu, 0.5), (mu, float("nan")), (mu, 0.5)])
    with pytest.raises(DomainMismatch):
        convex_hull_combination([(mu, 0.5), (dirac(0.5, Domain.REAL_LINE), 0.5)])
