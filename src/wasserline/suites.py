"""Claim-verification suites behind ``wasserline verify``.

Each suite checks one headline claim on seeded random inputs and
yields per-trial rows under the id it is registered with in ``SUITES``;
identical seed and trial count give a byte-identical report.  Suite ids:

    distance-oracle        closed form vs monotone-coupling oracle
    slice-diameter         extremal pairs and the 2t(1-t) cap
    klein-relations        flip / reflection group relations
    ladder-bound           distance to level-n grid measures
    midpoint-geometry      area identities, bisecting pair, diameter probe
    dirac-characterization adjacency certificates at every distance
    exotic-flow            parameter shift, W2 isometry, flow law, W1 break
    embedding-gallery      translations and the split embedding
    cdf-recovery           CDF from Dirac distances
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import interval, midpoints
from .errors import NotBisectable
from .isometries import Exotic, Translation, apply as apply_isometry
from .isometries import SplitEmbedding, exotic_apply_discrete, exotic_apply_grid
from .measures import (
    DiscreteMeasure,
    Domain,
    Measure,
    TwoPointParam,
    cdf_eval,
    cdf_from_dirac_distances,
    flip,
    from_atoms,
    pushforward_affine,
    quantile_eval,
    two_point_from_param,
)
from .metric import transport_lp_oracle, wasserstein_distance
from .plf import PLF
from .reports import ReportRow, VerificationReport, _check_trials, bound_row, exact_row, row, summarize
from .sampling import (
    dyadic_discrete_measure,
    random_adjacent_pair,
    random_discrete_measure,
    random_measure_in_slice,
    random_real_measure,
    random_unit_measure,
    rng_for,
)


# ----------------------------------------------------------------------
# 1. distance oracle


def suite_distance_oracle(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    for t in range(trials):
        rng = rng_for(seed, t)
        mu = random_discrete_measure(rng)
        nu = random_discrete_measure(rng)
        dmu = DiscreteMeasure.from_measure(mu)
        dnu = DiscreteMeasure.from_measure(nu)
        for p in (1.0, 1.5, 2.0, 3.0):
            closed = wasserstein_distance(mu, nu, p)
            oracle = transport_lp_oracle(dmu, dnu, p)
            yield row(cid, t, f"d_W{p:g}", oracle, closed, 1e-10)


# ----------------------------------------------------------------------
# 2. slice geometry


def suite_slice_diameter(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    for k, t in enumerate((0.1, 0.25, 0.5, 0.9)):
        cap = 2.0 * t * (1.0 - t)
        lo, hi = interval.slice_extremal_pair(t)
        attained = wasserstein_distance(lo, hi, 1.0)
        yield row(cid, k, f"extremal@t={t:g}", cap, attained, 1e-12)
        for j in range(trials):
            rng = rng_for(seed, 1000 * (k + 1) + j)
            a = random_measure_in_slice(rng, t)
            b = random_measure_in_slice(rng, t)
            d = wasserstein_distance(a, b, 1.0)
            yield bound_row(cid, j, f"pair<=cap@t={t:g}", cap, d, 1e-12)


# ----------------------------------------------------------------------
# 3. Klein-group relations


def _reflect_unit(mu: Measure) -> Measure:
    return pushforward_affine(mu, -1, 1.0)


def suite_klein_relations(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    for t in range(trials):
        rng = rng_for(seed, t)
        mu = random_unit_measure(rng)
        nu = random_unit_measure(rng)
        yield exact_row(cid, t, "flip.flip=id", flip(flip(mu)) == mu)
        yield exact_row(cid, t, "reflect.reflect=id", _reflect_unit(_reflect_unit(mu)) == mu)
        yield exact_row(cid, t, "flip.reflect=reflect.flip", flip(_reflect_unit(mu)) == _reflect_unit(flip(mu)))
        d = wasserstein_distance(mu, nu, 1.0)
        yield row(cid, t, "flip-preserves-d1", d, wasserstein_distance(flip(mu), flip(nu), 1.0), 1e-10)
        yield row(
            cid, t, "reflect-preserves-d1", d, wasserstein_distance(_reflect_unit(mu), _reflect_unit(nu), 1.0), 1e-10
        )


# ----------------------------------------------------------------------
# 4. ladder bound


def _t_star_bisection(alpha: float, p: float) -> float:
    """Sign bisection on d/dt [(1-alpha) t^p + alpha (1-t)^p]."""

    def slope(t: float) -> float:
        return (1.0 - alpha) * t ** (p - 1.0) - alpha * (1.0 - t) ** (p - 1.0)

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def suite_ladder_bound(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    orders = (1.5, 2.0, 3.0)
    for t in range(trials):
        rng = rng_for(seed, t)
        mu = random_unit_measure(rng)
        for n in range(4):
            for p in orders:
                _, d = interval.nearest_in_mn(mu, n, p)
                bound = interval.ladder_bound(n, p)
                yield bound_row(cid, t, f"dist<=bound@n={n},p={p:g}", bound, d, 1e-9)
    k = 0
    for n in range(4):
        for q in interval.qn_elements(n):
            for p in orders:
                _, d = interval.nearest_in_mn(q, n, p)
                yield row(cid, k, f"qn-attains@n={n},p={p:g}", interval.ladder_bound(n, p), d, 1e-9)
                k += 1
    for j in range(max(1, trials // 5)):
        rng = rng_for(seed, 50_000 + j)
        alpha = float(rng.uniform(0.01, 0.99))
        p = float(rng.uniform(1.1, 4.0))
        yield row(
            cid, j, "t-star-closed-vs-bisection",
            _t_star_bisection(alpha, p), interval.t_star(alpha, p), 1e-8,
        )


# ----------------------------------------------------------------------
# 5. midpoint geometry


def _match_pair(pair, targets, tol: float) -> bool:
    (x, y), (u, v) = pair, targets
    direct = max(wasserstein_distance(x, u, 1.0), wasserstein_distance(y, v, 1.0))
    crossed = max(wasserstein_distance(x, v, 1.0), wasserstein_distance(y, u, 1.0))
    return min(direct, crossed) <= tol


def suite_midpoint_geometry(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    for t in range(trials):
        rng = rng_for(seed, t)
        mu = random_discrete_measure(rng, max_atoms=10) if t % 3 else random_real_measure(rng)
        nu = random_discrete_measure(rng, max_atoms=10) if t % 2 else random_real_measure(rng)
        if mu == nu:
            continue
        geo = midpoints.midpoint_geometry(mu, nu)
        a1, a2, a3, a4 = geo.alphas
        yield row(cid, t, "alpha1=alpha3", a1, a3, 1e-10)
        yield row(cid, t, "alpha2=alpha4", a2, a4, 1e-10)
        yield row(cid, t, "alpha1+alpha2=D/2", 0.5 * geo.D, a1 + a2, 1e-10)
        try:
            xi_v, xi_h = midpoints.bisecting_pair(geo)
        except NotBisectable:
            continue
        for name, xi in (("xi_v", xi_v), ("xi_h", xi_h)):
            yield bound_row(cid, t, f"{name}-is-midpoint", 0.0, midpoints._midpoint_gap(xi, mu, nu, geo.D), 1e-10)
        gap = wasserstein_distance(xi_v, xi_h, 1.0)
        yield bound_row(cid, t, "d(xi_v,xi_h)>=D/2", 0.5 * geo.D, gap, 1e-10, side="lower")
        yield bound_row(cid, t, "d(xi_v,xi_h)<=D", geo.D, gap, 1e-10)
    n_adj = max(5, trials // 10)
    for j in range(n_adj):
        rng = rng_for(seed, 90_000 + j)
        mu, nu = random_adjacent_pair(rng)
        geo = midpoints.midpoint_geometry(mu, nu)
        witness = midpoints.is_adjacent(mu, nu)
        yield exact_row(cid, j, "adjacent-witness", witness is not None)
        yield row(cid, j, "adjacent-alpha2=D/4", 0.25 * geo.D, geo.alphas[1], 1e-10)
        xi_v, xi_h = midpoints.bisecting_pair(geo)
        probe = midpoints.midpoint_diameter_probe(geo, trials=50, seed=seed + j)
        yield row(cid, j, "probe-plateau=D/2", 0.5 * geo.D, probe.lower_bound_found, 1e-9)
        yield exact_row(cid, j, "probe-argmax-is-bisecting-pair", _match_pair(probe.best_pair, (xi_v, xi_h), 1e-9))


# ----------------------------------------------------------------------
# 6. Dirac characterization


def suite_dirac_characterization(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    for t in range(trials):
        rng = rng_for(seed, t)
        eta = from_atoms([(float(rng.normal(0.0, 10.0)), 1.0)])
        for n in range(1, 9):
            cert = midpoints.dirac_certificate(eta, float(n))
            if cert is None:
                yield exact_row(cid, t, f"dirac-cert-exists@n={n}", False)
                continue
            mu, nu = cert
            yield exact_row(cid, t, f"cert-adjacent@n={n}", midpoints.is_adjacent(mu, nu) is not None)
            geo = midpoints.midpoint_geometry(mu, nu)
            yield row(cid, t, f"cert-distance@n={n}", float(n), geo.D, 1e-9)
            xi_v, xi_h = midpoints.bisecting_pair(geo)
            near = min(wasserstein_distance(eta, xi_v, 1.0), wasserstein_distance(eta, xi_h, 1.0))
            yield bound_row(cid, t, f"eta-is-bisecting@n={n}", 0.0, near, 1e-9)
    for j in range(trials):
        rng = rng_for(seed, 10_000 + j)
        eta = random_discrete_measure(rng, max_atoms=8)
        while len(eta.atoms()) < 2:
            eta = random_discrete_measure(rng, max_atoms=8)
        pos = [x for x, _ in eta.atoms()]
        big = 2.0 * float(pos[-1] - pos[0]) + 1.0
        yield exact_row(cid, j, "non-dirac-no-large-cert", midpoints.dirac_certificate(eta, big) is None)


# ----------------------------------------------------------------------
# 7. exotic flow


def _atom_deviation(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    if len(a.positions) != len(b.positions):
        return float("inf")
    return float(
        max(np.max(np.abs(a.positions - b.positions)), np.max(np.abs(a.weights - b.weights)))
    )


def suite_exotic_flow(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    k = 0
    for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for sigma in (0.1, 0.5, 1.0, 2.0, 5.0):
            for p in (-2.0, -1.0, 0.0, 1.0, 2.0):
                for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
                    start = two_point_from_param(TwoPointParam(x, sigma, p))
                    moved = exotic_apply_discrete(start, q)
                    want = two_point_from_param(TwoPointParam(x, sigma, p + q))
                    yield bound_row(cid, k, "two-point-shift", 0.0, _atom_deviation(moved, want), 1e-12)
                    k += 1
    for t in range(trials):
        rng = rng_for(seed, t)
        q = float(rng.uniform(-2.0, 2.0))
        mu = random_discrete_measure(rng, max_atoms=12)
        nu = random_discrete_measure(rng, max_atoms=12)
        d2 = wasserstein_distance(mu, nu, 2.0)
        moved = wasserstein_distance(apply_isometry(Exotic(q), mu), apply_isometry(Exotic(q), nu), 2.0)
        yield row(cid, t, "w2-isometry", d2, moved, 1e-9)
    for t in range(max(1, trials // 2)):
        rng = rng_for(seed, 20_000 + t)
        q1 = float(rng.uniform(-1.5, 1.5))
        q2 = float(rng.uniform(-1.5, 1.5))
        mu = random_discrete_measure(rng, max_atoms=12)
        two_steps = apply_isometry(Exotic(q1), apply_isometry(Exotic(q2), mu))
        one_step = apply_isometry(Exotic(q1 + q2), mu)
        yield bound_row(cid, t, "flow-law", 0.0, wasserstein_distance(two_steps, one_step, 1.0), 1e-10)
    for t in range(10):
        rng = rng_for(seed, 30_000 + t)
        q = float(rng.uniform(-2.0, 2.0))
        mu = random_discrete_measure(rng, max_atoms=12)
        moved = apply_isometry(Exotic(q), mu)
        pairs = exotic_apply_grid(mu, q, 1000)
        levels = np.array([s for s, _ in pairs])
        oracle = np.array([val for _, val in pairs])
        direct = quantile_eval(moved, levels)
        yield bound_row(cid, t, "closed-form-vs-grid", 0.0, float(np.max(np.abs(direct - oracle))), 1e-12)
    q = 0.7
    witness_mu = two_point_from_param(TwoPointParam(0.0, 1.0, 0.0)).to_measure()
    witness_nu = from_atoms([(0.0, 1.0)])
    best = abs(
        wasserstein_distance(apply_isometry(Exotic(q), witness_mu), apply_isometry(Exotic(q), witness_nu), 1.0)
        - wasserstein_distance(witness_mu, witness_nu, 1.0)
    )
    for t in range(60):
        rng = rng_for(seed, 40_000 + t)
        mu = random_discrete_measure(rng, max_atoms=6)
        nu = random_discrete_measure(rng, max_atoms=6)
        cand = abs(
            wasserstein_distance(apply_isometry(Exotic(q), mu), apply_isometry(Exotic(q), nu), 1.0)
            - wasserstein_distance(mu, nu, 1.0)
        )
        best = max(best, cand)
    yield bound_row(cid, 0, "w1-not-preserved@q=0.7", 1e-3, best, 0.0, side="lower")


# ----------------------------------------------------------------------
# 8. embedding gallery


def suite_embedding_gallery(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    uniform01 = Measure(Domain.REAL_LINE, PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0])))
    pm_one = from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    t_smooth = Translation(uniform01)
    t_jump = Translation(pm_one)
    emb = SplitEmbedding.default()
    for t in range(trials):
        rng = rng_for(seed, t)
        mu = random_real_measure(rng) if t % 3 else random_discrete_measure(rng, max_atoms=10)
        nu = random_real_measure(rng) if t % 2 else random_discrete_measure(rng, max_atoms=10)
        for p in (1.0, 2.0, 3.0):
            d = wasserstein_distance(mu, nu, p)
            yield row(
                cid, t, f"uniform-translation-d{p:g}", d,
                wasserstein_distance(apply_isometry(t_smooth, mu), apply_isometry(t_smooth, nu), p), 1e-10
            )
            yield row(
                cid, t, f"two-point-translation-d{p:g}", d,
                wasserstein_distance(apply_isometry(t_jump, mu), apply_isometry(t_jump, nu), p), 1e-10
            )
        s_mu = apply_isometry(emb, mu)
        s_nu = apply_isometry(emb, nu)
        yield row(
            cid, t, "split-embedding-d1", wasserstein_distance(mu, nu, 1.0),
            wasserstein_distance(s_mu, s_nu, 1.0), 1e-10
        )
        smooth_q = apply_isometry(t_smooth, mu).quantile
        node_scale = max(1.0, float(np.max(np.abs(smooth_q.yr))), float(np.max(np.abs(smooth_q.yl))))
        rise_minus_run = float(np.min((smooth_q.yr - smooth_q.yl) - np.diff(smooth_q.breaks)))
        yield bound_row(cid, t, "uniform-translation-slopes>=1", 0.0, rise_minus_run, 1e-13 * node_scale, side="lower")
        jump_q = apply_isometry(t_jump, mu).quantile
        at_half = np.flatnonzero(jump_q.breaks == 0.5)
        if len(at_half) == 1 and 0 < at_half[0] < len(jump_q.breaks) - 1:
            j = int(at_half[0])
            jump = float(jump_q.yl[j] - jump_q.yr[j - 1])
            scale = max(1.0, abs(float(jump_q.yl[j])), abs(float(jump_q.yr[j - 1])))
            yield bound_row(cid, t, "two-point-translation-jump@1/2>=2", 2.0, jump, 1e-13 * scale, side="lower")
        else:
            yield exact_row(cid, t, "two-point-translation-jump@1/2>=2", False)
        mid_mu = s_mu.quantile.restrict(1.0 / 3.0, 2.0 / 3.0)
        mid_nu = s_nu.quantile.restrict(1.0 / 3.0, 2.0 / 3.0)
        yield exact_row(cid, t, "split-middle-band-equal", mid_mu.equals(mid_nu))
        low = s_mu.quantile.restrict(0.0, 1.0 / 3.0)
        high = s_mu.quantile.restrict(2.0 / 3.0, 1.0)
        outside = float(np.max(low.yr)) <= -1.0 and float(np.min(high.yl)) >= 1.0
        yield exact_row(cid, t, "split-branches-avoid-(-1,1)", outside)


# ----------------------------------------------------------------------
# 9. CDF recovery


def suite_cdf_recovery(cid: str, trials: int, seed: int) -> Iterator[ReportRow]:
    h = 1e-6
    for t in range(trials):
        rng = rng_for(seed, t)
        mu = random_unit_measure(rng)
        point = None
        for _ in range(200):
            cand = float(rng.uniform(0.0, 1.0 - 2.0 * h))
            if cdf_eval(mu, cand + h) - cdf_eval(mu, cand) <= 0.5e-6:
                point = cand
                break
        if point is None:
            yield exact_row(cid, t, "finite-difference@1e-6", False)
            continue
        yield row(
            cid, t, "finite-difference@1e-6",
            float(cdf_eval(mu, point)), cdf_from_dirac_distances(mu, point, h), 1e-6,
        )
    for j in range(trials):
        rng = rng_for(seed, 5_000 + j)
        mu = dyadic_discrete_measure(rng)
        t_dyadic = float(rng.integers(0, 4096)) / 4096.0
        yield row(
            cid, j, "exact-below-gap",
            float(cdf_eval(mu, t_dyadic)), cdf_from_dirac_distances(mu, t_dyadic, 2.0**-20), 1e-12,
        )


# ----------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class SuiteSpec:
    runner: Callable[[str, int, int], Iterator[ReportRow]]
    default_trials: int


SUITES: dict[str, SuiteSpec] = {
    "distance-oracle": SuiteSpec(suite_distance_oracle, 500),
    "slice-diameter": SuiteSpec(suite_slice_diameter, 2000),
    "klein-relations": SuiteSpec(suite_klein_relations, 200),
    "ladder-bound": SuiteSpec(suite_ladder_bound, 500),
    "midpoint-geometry": SuiteSpec(suite_midpoint_geometry, 500),
    "dirac-characterization": SuiteSpec(suite_dirac_characterization, 50),
    "exotic-flow": SuiteSpec(suite_exotic_flow, 500),
    "embedding-gallery": SuiteSpec(suite_embedding_gallery, 300),
    "cdf-recovery": SuiteSpec(suite_cdf_recovery, 100),
}


def run_suite(suite_id: str, trials: int | None = None, seed: int = 0) -> tuple[VerificationReport, list[ReportRow]]:
    suite = SUITES[suite_id]
    n = suite.default_trials if trials is None else _check_trials(trials)
    rows = list(suite.runner(suite_id, n, int(seed)))
    return summarize(suite_id, rows, trials=n), rows
