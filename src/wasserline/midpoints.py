"""Midpoint geometry of W_1 on the line.

For mu != nu the set between the two CDF graphs has area D = d_1(mu,
nu).  A vertical line x = v and a horizontal line y = h each split that
area in half; the quadrant areas alpha_1..alpha_4 (counterclockwise
from lower left) satisfy alpha_1 = alpha_3 >= alpha_2 = alpha_4 and
alpha_1 + alpha_2 = D/2.

When alpha_2 > 0 the two glue constructions

    vertical:    F = F_mu left of v, F_nu from v on
    horizontal:  Q = Q_nu below level h, Q_mu from h on

(after labeling mu, nu so that F_mu(v) < h < F_nu(v-)) are midpoints at
mutual distance alpha_1 + alpha_3 in [D/2, D].  The midpoint set of an
adjacent pair has diameter exactly D/2, attained only by these two.

``midpoint_geometry`` is the one analysis of a pair (D, v, h, the
alphas, the orientation, and Q_mu, Q_nu crossed on one grid);
``bisecting_pair`` and ``midpoint_diameter_probe`` read that record
instead of recomputing it.  One gap function, max(|d_1(mu, xi) - D/2|,
|d_1(xi, nu) - D/2|), serves ``is_midpoint``, the probe's candidate
filter and the midpoint rows of the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EqualEndpoints, InvalidInput, NotBisectable, NotMonotone, ScopeMismatch
from .measures import Domain, Measure, _common_domain
from .metric import geodesic_point, wasserstein_distance
from .plf import PLF, _envelope, _nodes, _with_crossings, _without_empty_cells, abs_pow_cells
from .plf import common_grid, on_common_grid, plf_splice


@dataclass(frozen=True)
class MidpointGeometry:
    """Area decomposition of the band between two CDFs.

    ``swapped`` records whether the labeling had to be exchanged to get
    the orientation F_mu(v) < h < F_nu(v-) used by the constructions;
    ``pair`` is (mu, nu) as given to ``midpoint_geometry`` and ``crossed``
    their quantiles on one grid that holds every crossing.
    """

    D: float
    v: float
    h: float
    alphas: tuple[float, float, float, float]
    swapped: bool
    pair: tuple[Measure, Measure] = field(compare=False, repr=False)
    crossed: tuple[PLF, PLF] = field(compare=False, repr=False)


@dataclass(frozen=True)
class AdjacencyWitness:
    """The unique interval on which two adjacent measures differ."""

    a: float
    b: float


@dataclass(frozen=True)
class ProbeResult:
    lower_bound_found: float
    theoretical: tuple[float, float]
    best_pair: tuple[Measure, Measure]
    trials: int


# ----------------------------------------------------------------------
# CDFs as PLFs on a padded window


def _cdf_pair(mu: Measure, nu: Measure) -> tuple[PLF, PLF]:
    a = min(mu.quantile.value_range[0], nu.quantile.value_range[0]) - 1.0
    b = max(mu.quantile.value_range[1], nu.quantile.value_range[1]) + 1.0
    return mu.quantile.padded_inverse(a, b), nu.quantile.padded_inverse(a, b)


# ----------------------------------------------------------------------
# area medians


def _half_area_point(F: PLF, G: PLF) -> float:
    """Infimum point x with integral of |F - G| up to x reaching half of
    the total, for a pair from ``_with_crossings``: the partial integral
    inside one cell is a trapezoid of |affine| and the infimum is found
    by float bisection down to adjacent doubles.
    """
    grid = F.breaks
    dl = F.yl - G.yl
    dr = F.yr - G.yr
    w = np.diff(grid)
    cells = abs_pow_cells(w, dl, dr, 1.0)
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    target = 0.5 * cum[-1]
    i = int(np.searchsorted(cum, target, side="left"))
    if i == 0:
        return float(grid[0])
    a, b = float(grid[i - 1]), float(grid[i])
    base = float(cum[i - 1])
    da, db = float(dl[i - 1]), float(dr[i - 1])
    width = b - a

    def reached(x: float) -> bool:
        dx = da + (db - da) * ((x - a) / width)
        part = (x - a) * (abs(da) + abs(dx)) * 0.5
        return base + part >= target

    if reached(a):
        return a
    lo, hi = a, b
    while True:
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            return hi
        if reached(m):
            hi = m
        else:
            lo = m


# ----------------------------------------------------------------------
# the geometry record


def midpoint_geometry(mu: Measure, nu: Measure) -> MidpointGeometry:
    if mu == nu:
        raise EqualEndpoints("midpoint geometry needs two distinct measures")
    D = wasserstein_distance(mu, nu, 1.0)  # gates the domains
    if D == 0.0:
        raise EqualEndpoints("measures coincide")
    fm, fn = _cdf_pair(mu, nu)
    v = _half_area_point(*_with_crossings(fm, fn))
    crossed = _with_crossings(mu.quantile, nu.quantile)
    h = _half_area_point(*crossed)
    q_lo, q_hi = _envelope(*crossed, np.minimum), _envelope(*crossed, np.maximum)
    lo_v = q_lo.minimum(v)
    hi_v = q_hi.minimum(v)
    lo_cap = q_lo.maximum(v)
    hi_cap = q_hi.maximum(v)
    a1 = hi_v.integral(0.0, h) - lo_v.integral(0.0, h)
    a2 = hi_cap.integral(0.0, h) - lo_cap.integral(0.0, h)
    a3 = hi_cap.integral(h, 1.0) - lo_cap.integral(h, 1.0)
    a4 = hi_v.integral(h, 1.0) - lo_v.integral(h, 1.0)

    margin_keep = min(h - fm.eval(v), fn.left_limit(v) - h)
    margin_swap = min(h - fn.eval(v), fm.left_limit(v) - h)
    swapped = margin_swap > margin_keep
    return MidpointGeometry(D, v, h, (a1, a2, a3, a4), swapped, (mu, nu), crossed)


# ----------------------------------------------------------------------
# bisecting measures


def _glue_vertical(a: Measure, b: Measure, v: float, h: float) -> Measure:
    low = a.quantile.minimum(v)
    high = b.quantile.maximum(v)
    return Measure(a.domain, plf_splice(low, high, h))


def _glue_horizontal(a: Measure, b: Measure, v: float, h: float) -> Measure:
    return Measure(a.domain, plf_splice(b.quantile, a.quantile, h))


def bisecting_pair(geo: MidpointGeometry) -> tuple[Measure, Measure]:
    """The bisecting midpoints (xi_v, xi_h) of ``geo.pair``, labeled as
    ``geo.swapped`` says: the CDF of xi_v follows mu left of v and nu
    from v on; the quantile of xi_h follows nu below level h and mu above.
    """
    if geo.alphas[1] <= 1e-12 * max(1.0, geo.D):
        raise NotBisectable(
            "alpha_2 vanishes; the extremal midpoints are the plain glue "
            "measures and no bisecting pair is defined"
        )
    mu, nu = geo.pair[::-1] if geo.swapped else geo.pair
    return _glue_vertical(mu, nu, geo.v, geo.h), _glue_horizontal(mu, nu, geo.v, geo.h)


def _midpoint_gap(xi: Measure, mu: Measure, nu: Measure, D: float) -> float:
    """How far xi is from a midpoint of mu and nu, for D = d_1(mu, nu)."""
    half = 0.5 * D
    return max(abs(wasserstein_distance(mu, xi, 1.0) - half), abs(wasserstein_distance(xi, nu, 1.0) - half))


def is_midpoint(xi: Measure, mu: Measure, nu: Measure, tol: float = 1e-9) -> bool:
    _common_domain(xi, mu, nu)
    return _midpoint_gap(xi, mu, nu, wasserstein_distance(mu, nu, 1.0)) <= tol


# ----------------------------------------------------------------------
# adjacency


def is_adjacent(mu: Measure, nu: Measure) -> AdjacencyWitness | None:
    """Exact test: the CDFs must differ exactly on one interval [a, b)
    on which both are constant.  All comparisons are bitwise; no
    tolerance is involved.
    """
    _common_domain(mu, nu)
    if mu == nu:
        return None
    fm, fn = _cdf_pair(mu, nu)
    F, G = on_common_grid(fm, fn)
    differs = (F.yl != G.yl) | (F.yr != G.yr)
    idx = np.flatnonzero(differs)
    if len(idx) == 0:
        return None
    first, last = int(idx[0]), int(idx[-1])
    if last - first + 1 != len(idx):
        return None  # the difference set is not one interval
    for H in (F, G):
        block_l = H.yl[first : last + 1]
        block_r = H.yr[first : last + 1]
        if np.any(block_l != block_l[0]) or np.any(block_r != block_l[0]):
            return None  # not constant across the band
    return AdjacencyWitness(float(F.breaks[first]), float(F.breaks[last + 1]))


# ----------------------------------------------------------------------
# midpoint-set diameter probe


def _probe_grid(geo: MidpointGeometry, candidates: list[Measure]) -> tuple[np.ndarray, list[PLF]]:
    """Breaks of mu, nu, their crossings, the candidates, h and cell midpoints; the quantiles on it."""
    quantiles = [m.quantile for m in geo.pair] + [c.quantile for c in candidates]
    grid = common_grid(points=[geo.crossed[0].breaks] + [q.breaks for q in quantiles[2:]] + [np.array([geo.h])])[0]
    grid, *ks = common_grid(*quantiles, points=[grid, 0.5 * (grid[:-1] + grid[1:])])
    return grid, [q.on_grid(grid, k) for q, k in zip(quantiles, ks)]


def midpoint_diameter_probe(geo: MidpointGeometry, trials: int = 2000, seed: int = 0) -> ProbeResult:
    """Lower-bound the diameter of the midpoint set of ``geo.pair`` by
    sampling it.

    Midpoints are exactly the measures whose quantile lies between the
    pointwise envelopes of Q_mu and Q_nu and whose distance to mu is
    D/2.  Random monotone envelope sections are blended affinely toward
    mu or nu to land on D/2 exactly (the blend is affine in both
    distances because no sign change can occur inside the envelope).
    The deterministic candidates include the geodesic midpoint and the
    glue constructions, so for adjacent pairs the known extremal pair is
    always in the pool.
    """
    (mu, nu), D, v, h = geo.pair, geo.D, geo.v, geo.h
    deterministic: list[Measure] = [geodesic_point(mu, nu, 0.5)]
    for a, b in ((mu, nu), (nu, mu)):
        for builder in (_glue_vertical, _glue_horizontal):
            try:
                cand = builder(a, b, v, h)
            except NotMonotone:
                continue
            if _midpoint_gap(cand, mu, nu, D) <= 1e-9:
                deterministic.append(cand)

    grid, (qm, qn, *cands) = _probe_grid(geo, deterministic)
    w = np.diff(grid)
    m_nodes, n_nodes = _nodes(qm.yl, qm.yr), _nodes(qn.yl, qn.yr)
    e_lo = np.minimum(m_nodes, n_nodes)
    e_hi = np.maximum(m_nodes, n_nodes)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed) % 2**63, 0x6D6964]))
    u = rng.random((int(trials), len(e_lo)))
    nodes = e_lo + u * (e_hi - e_lo)
    np.maximum.accumulate(nodes, axis=1, out=nodes)
    det_rows = [_nodes(c.yl, c.yr) for c in cands]
    nodes = np.vstack([nodes] + det_rows)

    dist_mu = abs_pow_cells(w, nodes[:, 0::2] - m_nodes[0::2], nodes[:, 1::2] - m_nodes[1::2], 1.0).sum(axis=1)
    target = 0.5 * D
    toward_nu = dist_mu < target
    anchor = np.where(toward_nu[:, None], n_nodes[None, :], m_nodes[None, :])
    anchor_d = np.where(toward_nu, D, 0.0)
    denom = anchor_d - dist_mu
    theta = np.where(denom == 0.0, 0.0, (target - dist_mu) / np.where(denom == 0.0, 1.0, denom))
    nodes = nodes + theta[:, None] * (anchor - nodes)

    n = nodes.shape[0]
    L = np.ascontiguousarray(nodes[:, 0::2])
    R = np.ascontiguousarray(nodes[:, 1::2])
    best = -1.0
    bi = bj = 0
    chunk = max(1, int(2_000_000 // max(1, n * L.shape[1])))
    for i0 in range(0, n, chunk):
        i1 = min(n, i0 + chunk)
        dl = L[i0:i1, None, :] - L[None, :, :]
        dr = R[i0:i1, None, :] - R[None, :, :]
        dmat = abs_pow_cells(w, dl, dr, 1.0).sum(axis=2)
        k = int(np.argmax(dmat))
        ci, cj = divmod(k, n)
        if dmat[ci, cj] > best:
            best = float(dmat[ci, cj])
            bi, bj = i0 + ci, cj
    pair = (
        Measure(mu.domain, PLF(grid, L[bi], R[bi])),
        Measure(mu.domain, PLF(grid, L[bj], R[bj])),
    )
    return ProbeResult(best, (0.5 * D, D), pair, int(trials))


# ----------------------------------------------------------------------
# the Dirac certificate


def dirac_certificate(eta: Measure, n: float) -> tuple[Measure, Measure] | None:
    """An adjacent pair at distance n with eta as one of its bisecting
    measures, or None when no such pair exists.

    Diracs admit one for every n (push the mass n/2 to each side).  A
    non-Dirac eta can only serve as a glue of pairs that redistribute
    one of its atoms (vertical type: an atom of weight W with clear gaps
    g on both sides caps n at 2 W min(g)) or one of its support gaps
    (horizontal type: a gap of length B - A between atoms of weights
    w_A, w_B caps n at 2 (B - A) min(w_A, w_B)), so certificates die out
    beyond roughly twice the support diameter.

    The certificates live on the real line, where a shifted atom may
    leave [0, 1]; a unit-interval eta raises ScopeMismatch.
    """
    if eta.domain is not Domain.REAL_LINE:
        raise ScopeMismatch("Dirac certificates live on the real line")
    n = float(n)
    if not np.isfinite(n) or n <= 0.0:
        raise InvalidInput("the certificate distance must be positive")
    q = eta.quantile
    yl, yr, breaks = q.yl, q.yr, q.breaks
    m = q.num_segments
    # vertical type: move one whole atom symmetrically
    for k in range(m):
        if yl[k] != yr[k]:
            continue
        value = float(yl[k])
        weight = float(breaks[k + 1] - breaks[k])
        l_gap = math.inf if k == 0 else value - float(yr[k - 1])
        r_gap = math.inf if k == m - 1 else float(yl[k + 1]) - value
        gap = min(l_gap, r_gap)
        if gap <= 0.0:
            continue
        if 2.0 * weight * gap >= n:
            s = min(n / (2.0 * weight), gap)
            # a shift by a whole gap can round past the neighbouring atom
            down = value - s if k == 0 else max(value - s, float(yr[k - 1]))
            up = value + s if k == m - 1 else min(value + s, float(yl[k + 1]))
            lo = Measure(Domain.REAL_LINE, PLF(breaks, _patched(yl, k, down), _patched(yr, k, down)))
            hi = Measure(Domain.REAL_LINE, PLF(breaks, _patched(yl, k, up), _patched(yr, k, up)))
            return lo, hi
    # horizontal type: shift the level of one support gap
    for k in range(m - 1):
        A, B = float(yr[k]), float(yl[k + 1])
        if A == B:
            continue
        w_a = float(breaks[k + 1] - breaks[k]) if yl[k] == yr[k] else 0.0
        w_b = float(breaks[k + 2] - breaks[k + 1]) if yl[k + 1] == yr[k + 1] else 0.0
        cap = min(w_a, w_b)
        if cap <= 0.0:
            continue
        if 2.0 * (B - A) * cap >= n:
            d = min(n / (2.0 * (B - A)), cap)
            c = float(breaks[k + 1])
            return (
                Measure(Domain.REAL_LINE, _with_junction_level(q, k, c - d)),
                Measure(Domain.REAL_LINE, _with_junction_level(q, k, c + d)),
            )
    return None


def _patched(arr: np.ndarray, k: int, value: float) -> np.ndarray:
    out = arr.copy()
    out[k] = value
    return out


def _with_junction_level(q: PLF, k: int, level: float) -> PLF:
    # a shift by a whole cell's width can round past the neighbouring break
    level = min(max(level, q.breaks[k]), q.breaks[k + 2])
    return _without_empty_cells(_patched(q.breaks, k + 1, level), q.yl, q.yr)
