"""Measure layer: canonical atoms, quantile/CDF conventions, the flip map,
the two-point chart, Dirac distances, and JSON round trips."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wasserline import (
    DiscreteMeasure,
    Domain,
    DomainMismatch,
    LevelOutOfRange,
    Measure,
    NonPositiveWeight,
    PLF,
    PositionOutOfRange,
    StepOutOfRange,
    TooManyAtoms,
    TwoPointParam,
    Translation,
    WeightSumOutOfTolerance,
    apply,
    barycenter,
    cdf_eval,
    cdf_from_dirac_distances,
    convex_hull_combination,
    dist_to_dirac,
    flip,
    from_atoms,
    from_quantile,
    geodesic_point,
    measure_from_json,
    measure_to_json,
    param_from_two_point,
    pushforward_affine,
    quantile_eval,
    sampling,
    slice_of,
    transport_lp_oracle,
    two_point_from_param,
    wasserstein_distance,
)
from conftest import _same_bits, dirac, uniform01


# ----------------------------------------------------------------------
# construction and canonical form


def test_atoms_are_sorted_and_merged():
    mu = from_atoms([(1.0, 0.25), (0.0, 0.25), (1.0, 0.5)])
    assert mu.atoms() == [(0.0, 0.25), (1.0, 0.75)]
    assert mu.is_discrete


def test_weight_gates():
    with pytest.raises(NonPositiveWeight):
        from_atoms([(0.0, 0.0)])
    with pytest.raises(WeightSumOutOfTolerance):
        from_atoms([(0.0, 0.5), (1.0, 0.6)])


def test_tiny_weight_slack_is_renormalized():
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5 + 1e-12)])
    assert sum(w for _, w in mu.atoms()) == pytest.approx(1.0, abs=1e-15)


def test_unit_interval_position_gate():
    with pytest.raises(PositionOutOfRange):
        from_atoms([(1.5, 1.0)], domain=Domain.UNIT_INTERVAL)
    from_atoms([(1.0, 1.0)], domain=Domain.UNIT_INTERVAL)  # the endpoint is fine


def test_equality_requires_matching_domain():
    a = from_atoms([(0.5, 1.0)], domain=Domain.UNIT_INTERVAL)
    b = from_atoms([(0.5, 1.0)], domain=Domain.REAL_LINE)
    assert a != b
    assert a == from_atoms([(0.5, 1.0)], domain=Domain.UNIT_INTERVAL)


def test_trailing_weights_below_one_ulp_of_the_total_are_dropped():
    # the running total reaches one before the last two atoms: they are
    # zero-width cells and fall away
    atoms = [(0.0, 0.27142857142857146), (1.0, 0.7285714285714286), (2.0, 1.2e-16), (3.0, 1e-300)]
    mu = from_atoms(atoms)
    d = DiscreteMeasure([p for p, _ in atoms], [w for _, w in atoms])
    assert mu.quantile.breaks.tolist() == [0.0, d.weights[0], 1.0]
    assert [x for x, _ in mu.atoms()] == [0.0, 1.0]
    assert wasserstein_distance(mu, d.to_measure(), 1.0) <= 1e-15


def test_to_measure_gives_a_weight_far_below_one_ulp_no_mass():
    # dividing the normalized weights by their sum again left the running
    # total an ulp short of one, so the atom at 1e10 got an ulp of mass
    positions = [0.0, 1.0, 2.0, 1e10]
    weights = [0.27142857142857146, 0.7285714285714286, 1.2e-16, 1e-300]
    d = DiscreteMeasure(positions, weights)
    mu = d.to_measure()
    assert mu == from_atoms(zip(positions, weights))
    want = transport_lp_oracle(d, DiscreteMeasure([0.0], [1.0]), 1.0)
    assert wasserstein_distance(mu, dirac(0.0), 1.0) == pytest.approx(want, rel=1e-14)


def sorted_and_merged(positions, weights):
    """The documented atom rule, written out: a stable sort by position,
    then each run of tied positions merged into its first position in
    input order, with the weights of the run added in input order, and
    every weight divided by the total of the input weights."""
    order = sorted(range(len(positions)), key=lambda i: positions[i])  # stable
    xs, ws = [], []
    for i in order:
        if xs and positions[i] == xs[-1]:
            ws[-1] += weights[i]
        else:
            xs.append(positions[i])
            ws.append(weights[i])
    total = float(np.sum(weights))
    return np.array(xs), np.array([x / total for x in ws])


@st.composite
def atom_lists(draw):
    n = draw(st.integers(1, 12))
    tied = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
    positions = draw(st.lists(tied | st.floats(-1e3, 1e3), min_size=n, max_size=n))
    if draw(st.booleans()):
        positions.sort()
    if draw(st.booleans()):
        return positions, [1.0 / n] * n
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    return positions, [r / sum(raw) for r in raw]


@settings(max_examples=200, deadline=None)
@given(atom_lists())
@example(([0.0, 1.0, 2.5], [0.2, 0.3, 0.5]))  # sorted, distinct
@example(([2.0, -1.0, 0.5, 3.0], [0.25] * 4))  # unsorted, equal weights
@example(([1.0, 0.0, -0.0, -1.0], [0.25] * 4))  # equal weights, a signed-zero tie
@example(([0.0, 1.0, 1.0, 2.0], [0.1, 0.2, 0.3, 0.4]))  # sorted, a tie
@example(([2.0, -1.0, 0.5], [0.2, 0.3, 0.5]))  # unsorted, unequal weights
@example(([3.0], [1.0]))  # one atom
def test_atoms_follow_the_stable_sort_and_merge_rule(case):
    positions, weights = case
    d = DiscreteMeasure(positions, weights)
    xs, ws = sorted_and_merged(positions, weights)
    _same_bits(d.positions, xs)
    _same_bits(d.weights, ws)


@pytest.mark.parametrize(
    "positions, weights",
    [
        ([0.0, 1.0, 2.0], [0.25, 0.25, 0.5]),  # sorted
        ([2.0, 0.0, 3.0, 1.0], [0.25] * 4),  # equal weights
        ([2.0, 0.0, 1.0], [0.25, 0.25, 0.5]),  # neither
    ],
)
def test_measures_never_alias_their_input(positions, weights):
    p, w = np.array(positions), np.array(weights)
    d = DiscreteMeasure(p, w)
    mu = from_atoms(zip(p, w))
    stored = [d.positions, d.weights, mu.quantile.breaks, mu.quantile.yl, mu.quantile.yr]
    want = [a.copy() for a in stored]
    p[:] = -5.0
    w[:] = 9.0
    for a, b in zip(stored, want):
        _same_bits(a, b)


def test_from_atoms_validates_once(unchecked_constructors):
    # DiscreteMeasure checks the atoms; the quantile it yields is valid and
    # canonical by construction and is neither checked nor canonicalized
    positions = np.random.default_rng(3).normal(size=10)
    with (
        mock.patch.object(
            DiscreteMeasure, "__post_init__", autospec=True, side_effect=DiscreteMeasure.__post_init__
        ) as atom_checks,
        mock.patch.object(PLF, "__post_init__", autospec=True, side_effect=PLF.__post_init__) as plf_checks,
        mock.patch.object(PLF, "canonical", autospec=True, side_effect=PLF.canonical) as canonical,
    ):
        for domain, scale in ((Domain.REAL_LINE, 1.0), (Domain.UNIT_INTERVAL, 0.1)):
            for m in (atom_checks, plf_checks, canonical):
                m.reset_mock()
            mu = from_atoms([(abs(x) * scale, 0.1) for x in positions.tolist()], domain=domain)
            assert len(mu.atoms()) == 10
            assert (atom_checks.call_count, plf_checks.call_count, canonical.call_count) == (1, 0, 0)


def _library_builds() -> dict:
    """One call per library builder whose result is valid by construction,
    on inputs made beforehand."""
    rng = np.random.default_rng(6)
    mu, nu = sampling.random_real_measure(rng), sampling.random_real_measure(rng)
    return {
        "translation": lambda: apply(Translation(nu), mu),
        "hull": lambda: convex_hull_combination([(mu, 0.25), (nu, 0.75)]),
        "geodesic": lambda: [geodesic_point(mu, nu, s) for s in (0.0, 0.3, 1.0)],
        "map_values": lambda: mu.quantile.map_values(2.5, -1.0),
        "reflection": lambda: pushforward_affine(mu, -1, 2.0),
        "slice": lambda: sampling.random_measure_in_slice(np.random.default_rng(7), 0.3),
    }


@pytest.mark.parametrize("name", sorted(_library_builds()))
def test_library_results_are_not_validated_again(name, unchecked_constructors):
    # each result is nondecreasing by construction and checked only where
    # construction cannot vouch for it (finite end nodes)
    build = _library_builds()[name]
    with mock.patch.object(PLF, "__post_init__", autospec=True, side_effect=PLF.__post_init__) as plf_checks:
        build()
    assert plf_checks.call_count == 0


def test_a_signed_geodesic_extrapolation_validates_once(unchecked_constructors):
    # a blend with a negative coefficient may decrease: it is repaired and validated
    mu, nu = from_atoms([(0.0, 0.5), (4.0, 0.5)]), dirac(1.0)
    with mock.patch.object(PLF, "__post_init__", autospec=True, side_effect=PLF.__post_init__) as plf_checks:
        out = geodesic_point(mu, nu, -0.5)
    assert out.atoms() == [(-0.5, 0.5), (5.5, 0.5)]
    assert plf_checks.call_count == 1


def test_trusted_measures_are_validated_in_the_tests():
    # conftest routes Measure._trusted through the validating constructor
    q = PLF(np.array([0.0, 1.0]), np.array([2.0]), np.array([2.0]))
    with pytest.raises(PositionOutOfRange):
        Measure._trusted(Domain.UNIT_INTERVAL, q)
    with pytest.raises(LevelOutOfRange):
        Measure._trusted(Domain.REAL_LINE, PLF(np.array([0.0, 0.5]), np.array([2.0]), np.array([2.0])))


@pytest.mark.parametrize(
    "positions, weights, domain, error",
    [
        ([], [], Domain.REAL_LINE, NonPositiveWeight),
        ([0.0, float("nan")], [0.5, 0.5], Domain.REAL_LINE, PositionOutOfRange),
        ([0.0, float("inf")], [0.5, 0.5], Domain.REAL_LINE, PositionOutOfRange),
        ([0.0, 1.0], [1.0, 0.0], Domain.REAL_LINE, NonPositiveWeight),
        ([0.0, 1.0], [1.5, -0.5], Domain.REAL_LINE, NonPositiveWeight),
        ([0.0, 1.0], [0.5, float("inf")], Domain.REAL_LINE, NonPositiveWeight),
        ([0.0, 1.0], [0.5, float("nan")], Domain.REAL_LINE, NonPositiveWeight),
        ([0.0, 1.0], [0.5, 0.6], Domain.REAL_LINE, WeightSumOutOfTolerance),
        ([-1e-300, 1.0], [0.5, 0.5], Domain.UNIT_INTERVAL, PositionOutOfRange),
        ([0.0, 1.0 + 2e-16], [0.5, 0.5], Domain.UNIT_INTERVAL, PositionOutOfRange),
    ],
)
def test_from_atoms_rejects_invalid_atoms_unchecked(positions, weights, domain, error, unchecked_constructors):
    # the one validation left on this path raises the same typed errors
    with pytest.raises(error):
        from_atoms(zip(positions, weights), domain=domain)


def test_clipped_flats_merge_into_one_atom():
    # two flats a rounding error below 0 clip to the same atom at 0
    q = PLF(np.array([0.0, 0.25, 0.5, 1.0]), np.array([-1e-13, -5e-14, 0.5]), np.array([-1e-13, -5e-14, 0.5]))
    mu = Measure(Domain.UNIT_INTERVAL, q)
    assert mu.atoms() == [(0.0, 0.5), (0.5, 0.5)]
    d = DiscreteMeasure.from_measure(mu)
    assert d.positions.tolist() == [0.0, 0.5] and d.weights.tolist() == [0.5, 0.5]


def test_continuous_measure_reports_not_discrete():
    assert not uniform01().is_discrete
    with pytest.raises(ValueError):
        uniform01().atoms()
    with pytest.raises(ValueError):
        DiscreteMeasure.from_measure(uniform01())


# ----------------------------------------------------------------------
# quantile / CDF conventions


def test_quantile_is_right_continuous_at_a_jump():
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    assert quantile_eval(mu, 0.5) == 1.0  # upper value at the jump level
    assert quantile_eval(mu, 0.5 - 1e-12) == 0.0


def test_cdf_is_right_continuous_with_full_range():
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    assert cdf_eval(mu, 0.0) == 0.5
    assert cdf_eval(mu, -1e-9) == 0.0
    assert cdf_eval(mu, 1.0) == 1.0
    assert cdf_eval(mu, 0.999999) == 0.5


@pytest.mark.parametrize("x", [float("nan"), np.array([0.5, float("nan")])])
def test_cdf_rejects_nan(x):
    # NaN compares false with both ends of the support and used to read 0.0
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ValueError, match="NaN"):
        cdf_eval(mu, x)


def test_quantile_level_gates():
    mu = from_atoms([(0.0, 1.0)])
    for bad in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(LevelOutOfRange):
            quantile_eval(mu, bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(28)
@example(1892)
@example(9238)
def test_quantile_cdf_galois_correspondence(seed):
    rng = np.random.default_rng(seed)
    mu = sampling.random_discrete_measure(rng) if seed % 2 else sampling.random_real_measure(rng)
    lo, hi = mu.quantile.value_range
    scale = 1.0 + max(abs(lo), abs(hi))
    for _ in range(4):
        u = float(rng.uniform(1e-9, 1.0 - 1e-9))
        x = float(rng.uniform(lo - 1.0, hi + 1.0))
        # one-sided bounds for the upper quantile, up to evaluation rounding
        # (interpolating through a strictly rising segment costs a few ulps)
        q_u = quantile_eval(mu, u)
        # q_u is rounded to a double, and on a steep CDF one ulp of q_u is
        # worth more level than 1e-13: the bound holds at q_u's precision
        assert cdf_eval(mu, np.nextafter(q_u, np.inf)) >= u - 1e-13
        fx = cdf_eval(mu, x)
        if 0.0 < fx < 1.0:
            # fx is rounded to a double too, and on a steep quantile half an
            # ulp of level is worth more than 1e-13: the bound holds one ulp up
            up = np.nextafter(fx, 1.0)
            assert quantile_eval(mu, up if up < 1.0 else fx) >= x - 1e-13 * scale
        # the two-sided adjunction, checked away from degenerate margins
        if abs(q_u - x) > 1e-9 * scale and abs(u - fx) > 1e-9:
            assert (q_u <= x) == (u <= fx)


# ----------------------------------------------------------------------
# barycenter and affine pushforward


def test_barycenter_is_the_atom_average():
    mu = from_atoms([(-2.0, 0.25), (1.0, 0.5), (4.0, 0.25)])
    assert barycenter(mu) == pytest.approx(-0.5 + 0.5 + 1.0, abs=1e-14)


def test_pushforward_transforms_the_barycenter():
    rng = np.random.default_rng(2)
    mu = sampling.random_real_measure(rng)
    b = barycenter(mu)
    assert barycenter(pushforward_affine(mu, 1, 3.0)) == pytest.approx(b + 3.0, abs=1e-11)
    assert barycenter(pushforward_affine(mu, -1, 0.0)) == pytest.approx(-b, abs=1e-11)


def test_pushforward_reflection_is_an_involution():
    rng = np.random.default_rng(4)
    mu = sampling.random_real_measure(rng)
    back = pushforward_affine(pushforward_affine(mu, -1, 1.0), -1, 1.0)
    assert wasserstein_distance(mu, back, 1.0) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0), st.booleans())
def test_reflection_keeps_its_bits_where_no_cell_collapses(seed, offset, discrete):
    rng = np.random.default_rng(seed)
    mu = (sampling.random_discrete_measure if discrete else sampling.random_real_measure)(rng)
    q = mu.quantile
    # the reflection as it was built before collapsed cells were dropped
    nb = 1.0 - q.breaks[::-1]
    nb[0], nb[-1] = 0.0, 1.0
    want = Measure(mu.domain, PLF(nb, offset - q.yr[::-1], offset - q.yl[::-1]))
    assert pushforward_affine(mu, -1, offset) == want


# ----------------------------------------------------------------------
# the flip map (CDF/quantile exchange on the unit interval)


def test_flip_splits_a_dirac_into_a_two_point_measure():
    # flipping delta_t puts mass t at 0 and mass 1-t at 1
    out = flip(dirac(0.3, Domain.UNIT_INTERVAL))
    assert out.atoms() == [(0.0, 0.3), (1.0, 0.7)]


def test_flip_requires_the_unit_interval():
    with pytest.raises(DomainMismatch):
        flip(dirac(0.3, Domain.REAL_LINE))


def _dyadic_unit_measure(rng: np.random.Generator) -> Measure:
    """``random_unit_measure`` on the 2**-20 grid: its breaks and values
    rounded to multiples of 2**-20 (rounding is monotone), and the cells
    that close up dropped, so that identities which only shuffle or
    reflect the arrays hold bit for bit."""
    q = sampling.random_unit_measure(rng).quantile
    b, yl, yr = (np.round(a * 2.0**20) / 2.0**20 for a in (q.breaks, q.yl, q.yr))
    keep = b[1:] > b[:-1]
    return Measure(Domain.UNIT_INTERVAL, PLF(np.append(b[:-1][keep], 1.0), yl[keep], yr[keep]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flip_is_a_bitwise_involution_on_dyadic_measures(seed):
    mu = _dyadic_unit_measure(np.random.default_rng(seed))
    assert flip(flip(mu)) == mu


def test_flip_preserves_w1():
    rng = np.random.default_rng(8)
    for _ in range(10):
        mu = sampling.random_unit_measure(rng)
        nu = sampling.random_unit_measure(rng)
        before = wasserstein_distance(mu, nu, 1.0)
        after = wasserstein_distance(flip(mu), flip(nu), 1.0)
        assert after == pytest.approx(before, abs=1e-11)


# ----------------------------------------------------------------------
# the two-point chart (x, sigma, p)


def test_two_point_chart_frozen_example():
    # 1/4 at -3, 3/4 at 1: weights give p = ln(3)/2, then
    # sigma = 4 / (e^p + e^{-p}) = sqrt(3) and x = -3 + sigma * e^p = 0
    tp = param_from_two_point(DiscreteMeasure(np.array([-3.0, 1.0]), np.array([0.25, 0.75])))
    assert tp.x == pytest.approx(0.0, abs=1e-14)
    assert tp.sigma == pytest.approx(math.sqrt(3.0), abs=1e-14)
    assert tp.p == pytest.approx(0.5 * math.log(3.0), abs=1e-14)


def test_two_point_chart_round_trips():
    rng = np.random.default_rng(12)
    for _ in range(20):
        tp = TwoPointParam(float(rng.normal(0, 5)), float(rng.uniform(0.1, 5.0)), float(rng.normal(0, 2)))
        back = param_from_two_point(two_point_from_param(tp))
        scale = 1.0 + abs(tp.x) + tp.sigma
        assert back.x == pytest.approx(tp.x, abs=1e-12 * scale)
        assert back.sigma == pytest.approx(tp.sigma, abs=1e-12 * scale)
        assert back.p == pytest.approx(tp.p, abs=1e-12)


def test_two_point_chart_needs_exactly_two_atoms():
    three = DiscreteMeasure(np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
    with pytest.raises(TooManyAtoms):
        param_from_two_point(three)


def test_balanced_param_is_the_symmetric_pair():
    mu = two_point_from_param(TwoPointParam(0.0, 1.0, 0.0))
    assert mu.positions.tolist() == [-1.0, 1.0]
    assert mu.weights.tolist() == [0.5, 0.5]


# ----------------------------------------------------------------------
# Dirac distances and CDF recovery


def test_dist_to_dirac_frozen_value():
    mu = from_atoms([(0.0, 0.5), (1.0, 0.5)], domain=Domain.UNIT_INTERVAL)
    assert dist_to_dirac(mu, 0.5) == 0.5


def test_dist_to_dirac_matches_the_metric():
    rng = np.random.default_rng(21)
    for _ in range(10):
        mu = sampling.random_unit_measure(rng)
        t = float(rng.uniform(0.0, 1.0))
        want = wasserstein_distance(mu, dirac(t, Domain.UNIT_INTERVAL), 1.0)
        assert dist_to_dirac(mu, t) == want


def test_dirac_distances_read_mass_just_above_the_dirac():
    # the quantile gap has nothing to cancel: a measure next to the Dirac
    # is at its exact distance, never at 0
    unit = Domain.UNIT_INTERVAL
    assert slice_of(dirac(1e-20, unit)) == 1e-20
    assert slice_of(dirac(1e-10, unit)) == 1e-10
    assert dist_to_dirac(dirac(0.3 + 1e-12, unit), 0.3) == (0.3 + 1e-12) - 0.3


@st.composite
def unit_measures_and_points(draw) -> tuple[Measure, float]:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mu = sampling.random_unit_measure(rng)
    else:
        mu = sampling.random_discrete_measure(rng, Domain.UNIT_INTERVAL)
    t = draw(st.one_of(st.floats(0.0, 1.0), st.integers(0, 2**10).map(lambda k: k / 2**10)))
    return mu, t


@settings(max_examples=300, deadline=None)
@given(unit_measures_and_points())
def test_dirac_distances_are_the_metric_bit_for_bit(case):
    mu, t = case
    want = wasserstein_distance(mu, dirac(t, Domain.UNIT_INTERVAL), 1.0)
    assert dist_to_dirac(mu, t).hex() == want.hex()
    assert slice_of(mu).hex() == barycenter(mu).hex()


def test_dist_to_dirac_gates():
    mu = from_atoms([(0.5, 1.0)], domain=Domain.UNIT_INTERVAL)
    with pytest.raises(PositionOutOfRange):
        dist_to_dirac(mu, 1.5)
    with pytest.raises(DomainMismatch):
        dist_to_dirac(dirac(0.5, Domain.REAL_LINE), 0.5)


def test_cdf_recovery_is_exact_on_dyadic_data():
    # two atoms at dyadic positions; probing at a dyadic continuity point
    # with a dyadic step makes every float operation exact
    mu = from_atoms([(0.25, 0.5), (0.75, 0.5)], domain=Domain.UNIT_INTERVAL)
    h = 2.0**-10
    assert cdf_from_dirac_distances(mu, 0.5, h) == 0.5
    assert cdf_from_dirac_distances(mu, 0.875, h) == 1.0
    assert cdf_from_dirac_distances(mu, 0.125, h) == 0.0


def test_cdf_recovery_step_gates():
    mu = from_atoms([(0.25, 0.5), (0.75, 0.5)], domain=Domain.UNIT_INTERVAL)
    with pytest.raises(StepOutOfRange):
        cdf_from_dirac_distances(mu, 0.5, 0.0)
    with pytest.raises(StepOutOfRange):
        cdf_from_dirac_distances(mu, 0.9999999, 1e-3)
    with pytest.raises(StepOutOfRange):
        cdf_from_dirac_distances(mu, 0.5, float("nan"))


# ----------------------------------------------------------------------
# JSON round trips


def test_discrete_json_round_trip():
    for domain in (Domain.REAL_LINE, Domain.UNIT_INTERVAL):
        mu = from_atoms([(0.25, 0.5), (0.75, 0.5)], domain=domain)
        data = measure_to_json(mu)
        assert data["type"] == "discrete"
        assert measure_from_json(data) == mu


def test_continuous_json_round_trip():
    # the wire format carries (intercept, slope) per segment, so the right
    # endpoint of a cell is reconstructed as a + b*w: exact on breaks and
    # intercepts, ulp-accurate on the function itself
    rng = np.random.default_rng(31)
    mu = sampling.random_real_measure(rng)
    back = measure_from_json(measure_to_json(mu))
    assert back.domain is mu.domain
    qa, qb = mu.quantile, back.quantile
    assert np.array_equal(qa.breaks, qb.breaks)
    assert np.array_equal(qa.yl, qb.yl)
    span = float(np.max(np.abs(qa.yr))) + 1.0
    assert np.max(np.abs(qa.yr - qb.yr)) <= 4e-16 * span
    assert wasserstein_distance(mu, back, 1.0) <= 1e-14 * span


def test_json_rejects_unknown_payloads():
    with pytest.raises((KeyError, ValueError, TypeError)):
        measure_from_json({"type": "mystery"})
    with pytest.raises((KeyError, ValueError, TypeError)):
        measure_from_json({"domain": "real"})


def test_from_quantile_accepts_known_arrays():
    mu = from_quantile(Domain.UNIT_INTERVAL, [0.0, 1.0], [0.0], [1.0])
    assert mu == uniform01()
    assert mu.quantile.value_range == (0.0, 1.0)
