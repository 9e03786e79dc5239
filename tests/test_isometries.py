"""Isometry catalogue: scope tables, pushforward actions, the exotic flow,
the split embedding, descriptor JSON and its registry, the README's
descriptor examples, and the empirical verifier."""

from __future__ import annotations

import json
import math
import re
import typing
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wasserline import (
    BarycentricReflection,
    Composition,
    DiscreteMeasure,
    Domain,
    Exotic,
    Flip,
    InvalidIntervalIsometry,
    Measure,
    PLF,
    QOutOfRange,
    ScopeMismatch,
    SplitEmbedding,
    Translation,
    Trivial,
    TwoPointParam,
    apply,
    barycenter,
    exotic_apply_discrete,
    exotic_apply_grid,
    from_atoms,
    h_q_eval,
    h_q_inverse,
    isometry_from_json,
    quantile_eval,
    sampling,
    two_point_from_param,
    verify_isometry,
    wasserstein_distance,
)
from wasserline.isometries import Q_LIMIT, IsometryDescriptor
from conftest import dirac, uniform01

_EPS = np.finfo(float).eps


@st.composite
def small_discrete(draw) -> DiscreteMeasure:
    """1 to 12 atoms on the real line, at least 1e-3 apart."""
    n = draw(st.integers(1, 12))
    start = draw(st.floats(-10.0, 10.0))
    steps = draw(st.lists(st.floats(1e-3, 5.0), min_size=n - 1, max_size=n - 1))
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return DiscreteMeasure(start + np.concatenate([[0.0], np.cumsum(steps)]), raw / raw.sum())


# ----------------------------------------------------------------------
# scope bookkeeping


def test_admissible_domain_table():
    both = {Domain.REAL_LINE, Domain.UNIT_INTERVAL}
    assert set(Trivial(1, 0.0).domains) == both
    assert set(Trivial(-1, 1.0).domains) == both  # maps [0,1] onto itself
    assert set(Trivial(1, 0.5).domains) == {Domain.REAL_LINE}
    assert set(Flip().domains) == {Domain.UNIT_INTERVAL}
    assert set(Translation(dirac(1.0)).domains) == {Domain.REAL_LINE}
    assert set(BarycentricReflection().domains) == {Domain.REAL_LINE}
    assert set(Exotic(0.5).domains) == {Domain.REAL_LINE}
    assert set(SplitEmbedding.default().domains) == {Domain.REAL_LINE}


def test_composition_scope_chains_right_to_left():
    # flip after translation: translation forces the real line but flip
    # needs the unit interval, so nothing can pass through
    impossible = Composition([Flip(), Translation(dirac(0.0))])
    assert set(impossible.domains) == set()
    with pytest.raises(ScopeMismatch):
        verify_isometry(impossible, 1.0, trials=3)
    fine = Composition([Flip(), Flip()])
    assert Domain.UNIT_INTERVAL in fine.domains


def test_natural_orders_table():
    assert Trivial(1, 0.0).orders is None
    assert Translation(dirac(0.0)).orders is None
    assert Flip().orders == frozenset({1.0})
    assert BarycentricReflection().orders == frozenset({2.0})
    assert Exotic(1.0).orders == frozenset({2.0})
    assert SplitEmbedding.default().orders == frozenset({1.0})
    assert Composition([Flip(), Flip()]).orders == frozenset({1.0})


def test_describe_is_informative():
    for iso in (Trivial(1, 0.0), Flip(), Translation(dirac(0.5)), BarycentricReflection(), Exotic(0.3)):
        assert isinstance(iso.describe(), str) and iso.describe()


# ----------------------------------------------------------------------
# pushforward actions


def test_trivial_shift_of_a_unit_interval_measure_is_rejected():
    # only the identity and x -> 1 - x map [0, 1] onto itself
    with pytest.raises(InvalidIntervalIsometry):
        apply(Trivial(1, 0.5), uniform01())


def test_trivial_reflection_moves_a_dirac():
    out = apply(Trivial(-1, 1.0), dirac(0.3, Domain.UNIT_INTERVAL))
    assert out.atoms() == [(0.7, 1.0)]


def test_flip_requires_unit_domain_through_apply():
    with pytest.raises(ScopeMismatch):
        apply(Flip(), dirac(0.3, Domain.REAL_LINE))


def test_translation_by_a_dirac_is_a_shift():
    rng = np.random.default_rng(41)
    mu = sampling.random_real_measure(rng)
    from wasserline import pushforward_affine

    shifted = apply(Translation(dirac(2.5)), mu)
    assert wasserstein_distance(shifted, pushforward_affine(mu, 1, 2.5), 1.0) <= 1e-12


def test_translation_by_uniform_smooths_a_dirac():
    # adding the uniform quantile to a flat quantile gives the uniform back
    out = apply(Translation(uniform01(Domain.REAL_LINE)), dirac(0.0))
    assert out == uniform01(Domain.REAL_LINE)


def test_barycentric_reflection_fixes_the_barycenter():
    rng = np.random.default_rng(43)
    mu = sampling.random_discrete_measure(rng)
    out = apply(BarycentricReflection(), mu)
    scale = 1.0 + abs(barycenter(mu))
    assert barycenter(out) == pytest.approx(barycenter(mu), abs=1e-11 * scale)
    # reflecting twice restores every atom; the W1 cost of the residual
    # representation noise is linear in the ulp-level weight perturbations
    back = apply(BarycentricReflection(), out)
    lo, hi = mu.quantile.value_range
    assert wasserstein_distance(mu, back, 1.0) <= 1e-12 * (1.0 + hi - lo)
    for (x, w), (y, v) in zip(mu.atoms(), back.atoms()):
        assert y == pytest.approx(x, abs=1e-12 * (1.0 + abs(x)))
        assert v == pytest.approx(w, abs=1e-13)


def test_barycentric_reflection_fixes_symmetric_measures():
    sym = from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    assert apply(BarycentricReflection(), sym) == sym


@pytest.mark.parametrize(
    "reflection, domain",
    [
        (Trivial(-1, 3.0), Domain.REAL_LINE),
        (BarycentricReflection(), Domain.REAL_LINE),
        (Trivial(-1, 1.0), Domain.UNIT_INTERVAL),
    ],
    ids=["trivial", "barycentric", "unit"],
)
def test_reflections_drop_a_level_cell_they_collapse(reflection, domain):
    # the bottom cell is narrower than half an ulp of 1; reflected, it
    # rounds to zero width and used to raise NotMonotone
    mu = from_atoms([(0.2, 1e-20), (0.7, 1.0 - 1e-20)], domain=domain)
    offset = 2.0 * barycenter(mu) if isinstance(reflection, BarycentricReflection) else reflection.offset
    assert apply(reflection, mu).atoms() == [(offset - 0.7, 1.0)]


@pytest.mark.parametrize(
    "iso, x",
    [(Translation(dirac(1e308)), 1e308), (Trivial(1, 1e308), 1e308), (Trivial(-1, 1e308), -1e308),
     (SplitEmbedding.default(), 1e308)],
    ids=["translation", "shift", "reflection", "split"],
)
def test_maps_that_overflow_raise_unchecked(iso, x, unchecked_constructors):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        apply(iso, dirac(x))


# ----------------------------------------------------------------------
# the exotic flow


def test_exotic_frozen_example():
    # Phi^{ln 2} of the balanced pair (1/2 at -1, 1/2 at 1):
    # the chart shear moves (0, 1, 0) to (0, 1, ln 2), whose atoms are
    # 1/5 at -2 and 4/5 at 1/2
    base = two_point_from_param(TwoPointParam(0.0, 1.0, 0.0))
    moved = exotic_apply_discrete(base, math.log(2.0))
    assert moved.positions.tolist() == [-2.0, 0.5]
    assert moved.weights.tolist() == pytest.approx([0.2, 0.8], abs=1e-15)
    chart = two_point_from_param(TwoPointParam(0.0, 1.0, math.log(2.0)))
    assert chart.positions == pytest.approx(moved.positions, abs=1e-14)
    assert chart.weights == pytest.approx(moved.weights, abs=1e-14)


def test_exotic_at_zero_is_the_identity_for_any_measure():
    cont = sampling.random_real_measure(np.random.default_rng(47))
    assert apply(Exotic(0.0), cont) == cont


def test_exotic_scope_gates():
    with pytest.raises(QOutOfRange):
        Exotic(31.0)
    with pytest.raises(ScopeMismatch):
        apply(Exotic(0.5), dirac(0.3, Domain.UNIT_INTERVAL))
    cont = sampling.random_real_measure(np.random.default_rng(48))
    with pytest.raises(ScopeMismatch):
        apply(Exotic(0.5), cont)


def test_exotic_flow_law():
    rng = np.random.default_rng(51)
    for _ in range(5):
        mu = sampling.random_discrete_measure(rng, max_atoms=8)
        q1, q2 = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        once = apply(Exotic(q1 + q2), mu)
        twice = apply(Exotic(q2), apply(Exotic(q1), mu))
        assert wasserstein_distance(once, twice, 1.0) <= 1e-10


def test_exotic_preserves_w2_but_not_w1():
    mu = two_point_from_param(TwoPointParam(0.0, 1.0, 0.0)).to_measure()
    nu = dirac(0.0)
    before2 = wasserstein_distance(mu, nu, 2.0)
    before1 = wasserstein_distance(mu, nu, 1.0)
    am, an = apply(Exotic(0.7), mu), apply(Exotic(0.7), nu)
    assert wasserstein_distance(am, an, 2.0) == pytest.approx(before2, abs=1e-12)
    # the W1 defect for this pair is exactly 1 - sech(0.7)
    defect = abs(wasserstein_distance(am, an, 1.0) - before1)
    assert defect == pytest.approx(1.0 - 1.0 / math.cosh(0.7), abs=1e-12)
    assert defect > 1e-3


def test_h_q_maps_are_mutually_inverse():
    from wasserline import LevelOutOfRange

    xs = np.linspace(0.03125, 0.96875, 31)
    for q in (-1.5, -0.2, 0.4, 2.0):
        back = h_q_inverse(h_q_eval(xs, q), q)
        assert back == pytest.approx(xs, abs=1e-14)
    for bad in (0.0, 1.0, float("nan")):  # the automorphism is only defined strictly inside
        with pytest.raises(LevelOutOfRange):
            h_q_eval(bad, 1.0)


def test_grid_operator_matches_the_discrete_closed_form():
    rng = np.random.default_rng(53)
    mu = sampling.random_discrete_measure(rng, max_atoms=6)
    q = 0.9
    moved = apply(Exotic(q), mu).quantile
    pairs = exotic_apply_grid(mu, q, 512)
    for level, value in pairs:
        assert value == pytest.approx(moved.eval(level), abs=1e-11)
    for bad in (1, 2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            exotic_apply_grid(mu, q, bad)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-1e6, 1e6), q=st.floats(-Q_LIMIT, Q_LIMIT))
@example(x=0.3, q=0.7)
@example(x=0.3, q=1e-12)
@example(x=0.3, q=-1e-12)
@example(x=0.3, q=Q_LIMIT)
@example(x=-1e6, q=-Q_LIMIT)
@example(x=-0.0, q=-1.3)
def test_exotic_fixes_every_dirac_bit_for_bit(x, q):
    # Phi^q keeps the mean and the variance, so delta_x maps to delta_x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(y, w)] = apply(Exotic(q), dirac(x)).atoms()
    assert y == x and w == 1.0  # equal nonzero floats have equal bits; -0.0 + 0.0 is 0.0


def _mp_exotic_positions(mu: DiscreteMeasure, q: float):
    """(1 - e^q) m + e^q v_k + (e^q - e^{-q}) (S_{k-1} - v_k c_{k-1}) at 50
    digits on the float atoms, and the mean m."""
    with mpmath.workdps(50):
        eq, emq = mpmath.exp(q), mpmath.exp(-q)
        v = [mpmath.mpf(float(x)) for x in mu.positions]
        w = [mpmath.mpf(float(x)) for x in mu.weights]
        m = mpmath.fsum(a * b for a, b in zip(v, w))
        out, s, c = [], mpmath.mpf(0), mpmath.mpf(0)
        for a, b in zip(v, w):
            out.append((1 - eq) * m + eq * a + (eq - emq) * (s - a * c))
            s, c = s + a * b, c + b
        return out, m


@settings(max_examples=200, deadline=None)
@given(
    mu=small_discrete(),
    q=st.one_of(st.floats(-2.0, 2.0), st.floats(-1e-6, 1e-6), st.sampled_from([1e-12, -1e-12, 5e-324])),
)
@example(mu=two_point_from_param(TwoPointParam(0.0, 1.0, 0.0)), q=1e-12)
@example(mu=DiscreteMeasure(np.array([-3.0, 1e-3, 7.0]), np.array([0.25, 0.5, 0.25])), q=-1e-9)
def test_exotic_closed_form_against_50_digits(mu, q):
    got = exotic_apply_discrete(mu, q).positions
    want, m = _mp_exotic_positions(mu, q)
    assert len(got) == len(want)
    scale = float(np.max(np.abs(mu.positions))) + abs(float(m))
    for g, x in zip(got, want):
        assert abs(mpmath.mpf(float(g)) - x) <= 16 * _EPS * scale


@settings(max_examples=200, deadline=None)
@given(mu=small_discrete(), q=st.floats(-2.0, 2.0), t=st.floats(-30.0, 30.0))
def test_exotic_keeps_the_distance_to_every_dirac_at_p2(mu, q, t):
    # d_2(mu, delta_t)^2 is the variance plus (mean - t)^2, and Phi^q keeps
    # both: the Dirac profile is why p = 2 is exceptional on the line
    mu = mu.to_measure()
    before = wasserstein_distance(mu, dirac(t), 2.0)
    after = wasserstein_distance(apply(Exotic(q), mu), dirac(t), 2.0)
    scale = max(float(np.max(np.abs(mu.quantile.yl))), abs(t))
    assert abs(after - before) <= 64 * _EPS * scale


@pytest.mark.parametrize("q", [19.0, -19.0, 25.0, -25.0, Q_LIMIT, -Q_LIMIT])
def test_exotic_at_the_edge_of_its_range_returns_or_raises_q_out_of_range(q):
    rng = np.random.default_rng(59)
    measures = [
        from_atoms([(0.0, 0.5), (1.0, 0.5)]),
        from_atoms([(-3.0, 0.9), (2.0, 0.1)]),
        from_atoms([(0.0, 0.2), (1.0, 0.3), (5.0, 0.5)]),
        dirac(0.3),
        *(sampling.random_discrete_measure(rng, max_atoms=12) for _ in range(4)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in measures:
            try:
                out = apply(Exotic(q), mu)
            except QOutOfRange as exc:
                assert "underflows to 0" in str(exc)
            else:
                assert out.is_discrete and np.isfinite(out.quantile.yl).all()


def test_exotic_names_the_atom_mass_that_underflows():
    # h_30(1/2) rounds to 1, so the upper atom's image mass, about e^-60, is 0
    pair = from_atoms([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(QOutOfRange, match=r"mass 0\.5 at 1\.0 underflows to 0"):
        apply(Exotic(-Q_LIMIT), pair)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the end level 1 is pinned, not divided by 0
        assert len(apply(Exotic(19.0), pair).atoms()) == 2


# ----------------------------------------------------------------------
# the split embedding


def test_split_embedding_profile_gates():
    with pytest.raises(ValueError):
        SplitEmbedding(PLF(np.array([0.0, 1.0]), np.array([1.0 / 3.0]), np.array([2.0 / 3.0])))
    with pytest.raises(ValueError):
        SplitEmbedding(PLF(np.array([-1.0, 1.0]), np.array([0.0]), np.array([0.5])))


def test_split_embedding_preserves_w1():
    emb = SplitEmbedding.default()
    assert wasserstein_distance(apply(emb, dirac(-2.0)), apply(emb, dirac(3.0)), 1.0) == pytest.approx(
        5.0, abs=1e-13
    )
    rng = np.random.default_rng(59)
    for _ in range(8):
        mu = sampling.random_real_measure(rng)
        nu = sampling.random_discrete_measure(rng, max_atoms=6)
        d = wasserstein_distance(mu, nu, 1.0)
        dd = wasserstein_distance(apply(emb, mu), apply(emb, nu), 1.0)
        assert dd == pytest.approx(d, abs=1e-11 * (1.0 + d))


def test_split_embedding_images_share_the_middle_band():
    emb = SplitEmbedding.default()
    rng = np.random.default_rng(61)
    a = apply(emb, sampling.random_real_measure(rng)).quantile
    b = apply(emb, sampling.random_discrete_measure(rng)).quantile
    third = 1.0 / 3.0
    assert a.restrict(third, 2 * third).equals(b.restrict(third, 2 * third))


@pytest.mark.parametrize(
    "atoms",
    [
        [(-1.0, 1e-17), (1.0, 1.0 - 1e-17)],  # x -> (x + 2)/3 merges levels 0 and 1e-17
        [(1.0, 1.0 - 1e-16), (2.0, 1e-16)],  # ... and levels 1 - 2**-53 and 1
        [(-2.0, 1.0 - 1e-16), (-1.0, 1e-16)],  # x -> x/3 merges levels 1 - 2**-53 and 1
    ],
)
def test_split_embedding_drops_level_cells_it_collapses(atoms):
    # a level cell narrower than an ulp of its image band used to make
    # the image's breaks non-increasing and raise NotMonotone
    emb = SplitEmbedding.default()
    mu = from_atoms(atoms)
    image = apply(emb, mu)
    assert np.all(np.diff(image.quantile.breaks) > 0.0)
    for x in (-3.0, 0.0, 2.5):
        d = wasserstein_distance(mu, dirac(x), 1.0)
        assert wasserstein_distance(image, apply(emb, dirac(x)), 1.0) == pytest.approx(d, abs=1e-12)


def test_split_embedding_needs_the_real_line():
    with pytest.raises(ScopeMismatch):
        apply(SplitEmbedding.default(), dirac(0.5, Domain.UNIT_INTERVAL))


# ----------------------------------------------------------------------
# descriptor JSON


def test_descriptor_json_round_trips():
    isos = [
        Trivial(1, 0.0),
        Trivial(-1, 1.0),
        Flip(),
        Translation(from_atoms([(0.5, 1.0)])),
        BarycentricReflection(),
        Exotic(0.7),
        Composition((Flip(), Composition((Flip(), Flip())))),
    ]
    for iso in isos:
        assert isometry_from_json(iso.to_json()) == iso


def test_trivial_orientation_must_be_plus_or_minus_one():
    with pytest.raises(ValueError):
        Trivial(-1.5, 1.0)  # used to be truncated to -1
    iso = Trivial(1.0, 0)
    assert type(iso.orientation) is int and type(iso.offset) is float
    assert iso.describe() == "trivial(+1,0)"
    assert type(Exotic(1).q) is float


def _one_of_each() -> list:
    ramp = PLF(np.array([-1.0, 0.0, 1.0]), np.array([1.0 / 3.0, 0.4]), np.array([0.4, 0.6]))
    return [
        Trivial(-1, 1.0),
        Flip(),
        Translation(from_atoms([(-1.0, 0.5), (2.0, 0.5)])),
        BarycentricReflection(),
        Exotic(0.7),
        SplitEmbedding.default(),
        SplitEmbedding(ramp),
        Composition((SplitEmbedding(ramp), Composition((Exotic(0.1), Trivial(1, 2.0))))),
    ]


def test_registry_kinds_are_unique_and_cover_every_descriptor():
    members = typing.get_args(IsometryDescriptor)
    kinds = [cls.kind for cls in members]
    assert len(set(kinds)) == len(kinds)
    assert {type(iso) for iso in _one_of_each()} == set(members)


def test_every_descriptor_round_trips_through_json_text():
    for iso in _one_of_each():
        data = iso.to_json()
        back = isometry_from_json(json.loads(json.dumps(data)))
        assert type(back) is type(iso)
        assert back.to_json() == data


def test_every_descriptor_answers_the_entry_points():
    for iso in _one_of_each():
        assert iso.describe()
        assert iso.domains
        assert iso.orders is None or isinstance(iso.orders, frozenset)


def test_split_embedding_through_the_catalogue():
    emb = SplitEmbedding.default()
    mu = sampling.random_real_measure(np.random.default_rng(67))
    assert apply(emb, mu) == emb.apply(mu)
    assert verify_isometry(emb, 1.0, trials=40).passed
    assert set(Composition([emb, Translation(dirac(0.0))]).domains) == {Domain.REAL_LINE}
    with pytest.raises(ScopeMismatch):
        apply(emb, dirac(0.5, Domain.UNIT_INTERVAL))
    bad = {"kind": "split_embedding", "profile": {"breaks": [-1.0, 1.0], "yl": [0.0], "yr": [0.5]}}
    with pytest.raises(ValueError):
        isometry_from_json(bad)


def test_readme_descriptor_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    fence = r"```(\w*)\n(.*?)```"
    blocks = [body for lang, body in re.findall(fence, text, flags=re.S) if lang == "json"]
    examples = [line for block in blocks for line in block.splitlines() if '"kind"' in line]
    prose = re.sub(fence, "", text, flags=re.S)
    examples += [span for span in re.findall(r"`([^`]+)`", prose) if '"kind"' in span]
    kinds = {isometry_from_json(json.loads(example)).kind for example in examples}
    assert kinds == {cls.kind for cls in typing.get_args(IsometryDescriptor)}


def test_descriptor_json_rejects_unknown_kind():
    with pytest.raises((KeyError, ValueError)):
        isometry_from_json({"kind": "mystery"})


# ----------------------------------------------------------------------
# the empirical verifier


def test_verifier_passes_the_genuine_isometries():
    assert verify_isometry(Flip(), 1.0, trials=40).passed
    assert verify_isometry(Translation(uniform01(Domain.REAL_LINE)), 2.0, trials=40).passed
    assert verify_isometry(BarycentricReflection(), 2.0, trials=40).passed
    assert verify_isometry(Exotic(0.7), 2.0, trials=40).passed
    assert verify_isometry(Composition([Flip(), Flip()]), 1.0, trials=20).passed


@pytest.mark.parametrize("trials", [0, -2, 2.5, float("nan"), float("inf")])
def test_verifier_rejects_a_trial_count_that_checks_nothing(trials):
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        verify_isometry(Flip(), 1.0, trials=trials)


def test_verifier_reports_honest_failure_out_of_order_scope():
    report = verify_isometry(Exotic(0.7), 1.0, trials=40)
    assert not report.passed
    assert report.max_violation > 1e-3
    assert report.summary_line().startswith("FAIL")
