"""Verbatim copies of the loop- and tuple-based kernels the array code
replaced, of the four padded generalized inverses that
``PLF.padded_inverse`` replaced, of the searched common grid that the
merge-indexed one replaced, and of the ``np.union1d`` grids of ``refine``,
``plf_combine``, ``_with_crossings`` and the midpoint probe that the
multi-way merge replaced, kept as differential oracles.  The last section
keeps the bodies that the one-home helpers of ``wasserline.plf`` replaced:
the M_n projection by bisection with its own power cells, the geodesic
range with its own node layout, the junction shift with its own
empty-cell drop and the midpoint geometry with its own envelopes (which
now also records its pair and the crossed quantiles of that pair).  After it come the bisecting measures and the
opening of the diameter probe from before ``midpoints.bisecting_pair`` and
the probe read one ``MidpointGeometry``: each analysed its pair again.

The array versions in ``wasserline.plf`` and ``wasserline.measures`` must
reproduce these bit for bit (W1 cells excepted, which are now computed
without cancellation, and the M_n projection, whose Newton steps must
come at least as close as the bisection); ``test_array_kernels.py``
compares the two.  The
bodies below are the old method bodies with ``self`` turned into an
argument and nothing else changed, except that the union1d grids call
``searched_on_grid`` (the old ``PLF.on_grid`` without ``k``) and each
other.
"""

from __future__ import annotations

import numpy as np

from wasserline import PLF, concat_plfs, const_plf
from wasserline.plf import _repair_monotone, _with_crossings, _without_empty_cells, on_common_grid
from wasserline.errors import (
    DomainMismatch,
    EqualEndpoints,
    InvalidP,
    NonPositiveWeight,
    NotBisectable,
    PositionOutOfRange,
    ScopeMismatch,
    WeightSumOutOfTolerance,
)
from wasserline.measures import WEIGHT_TOL, Domain, Measure
from wasserline.metric import MonotoneRange, check_order, geodesic_point, wasserstein_distance
from wasserline.interval import _check_level_index, _require_unit, mn_element
from wasserline.midpoints import MidpointGeometry, _cdf_pair, _glue_horizontal, _glue_vertical, is_midpoint
from wasserline.midpoints import _half_area_point as _crossed_half_area_point


# ----------------------------------------------------------------------
# plf.py


def _interp(self: PLF, k: np.ndarray, y: np.ndarray) -> np.ndarray:
    w = self.breaks[k + 1] - self.breaks[k]
    v = self.yl[k] + (self.yr[k] - self.yl[k]) * ((y - self.breaks[k]) / w)
    # rounding may poke past a segment endpoint; pin it back
    return np.minimum(np.maximum(v, self.yl[k]), self.yr[k])


def on_grid(self: PLF, grid: np.ndarray) -> PLF:
    if len(grid) == len(self.breaks) and np.array_equal(grid, self.breaks):
        return self
    left = grid[:-1]
    right = grid[1:]
    k = self._segment_index(left, "right")
    nyl = _interp(self, k, left)
    nyr = _interp(self, k, right)
    nyl = np.where(left == self.breaks[k], self.yl[k], nyl)
    nyr = np.where(right == self.breaks[k + 1], self.yr[k], nyr)
    return PLF(grid, nyl, nyr)


def inverse(self: PLF) -> PLF:
    if self.yl[0] == self.yr[-1]:
        raise ValueError("a constant function has a degenerate inverse")
    v_lo: list[float] = []
    v_hi: list[float] = []
    lv: list[float] = []
    rv: list[float] = []
    for k in range(self.num_segments):
        if self.yl[k] != self.yr[k]:
            v_lo.append(float(self.yl[k]))
            v_hi.append(float(self.yr[k]))
            lv.append(float(self.breaks[k]))
            rv.append(float(self.breaks[k + 1]))
        if k + 1 < self.num_segments and self.yr[k] < self.yl[k + 1]:
            v_lo.append(float(self.yr[k]))
            v_hi.append(float(self.yl[k + 1]))
            lv.append(float(self.breaks[k + 1]))
            rv.append(float(self.breaks[k + 1]))
    vb = v_lo + [v_hi[-1]]
    if any(a != b for a, b in zip(v_hi[:-1], v_lo[1:])):
        raise AssertionError("inverse pieces failed to tile the range")
    return PLF(np.array(vb), np.array(lv), np.array(rv))


def _signed_pow_primitive(u: np.ndarray, p: float) -> np.ndarray:
    return np.sign(u) * np.abs(u) ** (p + 1.0) / (p + 1.0)


def abs_pow_cells(w, a, b, p: float) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = b - a
    steep = np.abs(d) > 1e-9 * np.maximum(np.abs(a), np.abs(b))
    safe = np.where(steep, d, 1.0)
    divided = (_signed_pow_primitive(b, p) - _signed_pow_primitive(a, p)) / safe
    flat = np.abs((a + b) * 0.5) ** p
    return w * np.where(steep, divided, flat)


# the searched common grid: a union of the break arrays, then one binary
# search per grid node and function


def segment_index(self: PLF, y: np.ndarray, side: str) -> np.ndarray:
    k = np.searchsorted(self.breaks, y, side=side) - 1
    return np.clip(k, 0, self.num_segments - 1)


def searched_on_grid(self: PLF, grid: np.ndarray) -> PLF:
    if len(grid) == len(self.breaks) and np.array_equal(grid, self.breaks):
        return self
    left = grid[:-1]
    k = segment_index(self, left, "right")
    b, lo, hi = self.breaks[k], self.yl[k], self.yr[k]
    nyl = np.where(left == b, lo, hi)
    nyr = hi
    # cells whose left node is inserted inside a rising segment; the
    # cell before ends on the same node, inside the same segment
    i = np.flatnonzero((lo[1:] != hi[1:]) & (left[1:] != b[1:])) + 1
    nyl[i] = nyr[i - 1] = self._interp(k[i], left[i])
    return PLF(grid, nyl, nyr)


def union_common_grid(f: PLF, g: PLF) -> np.ndarray:
    if f.breaks[0] != g.breaks[0] or f.breaks[-1] != g.breaks[-1]:
        raise ValueError("functions live on different domains")
    if len(f.breaks) == len(g.breaks) and np.array_equal(f.breaks, g.breaks):
        return f.breaks
    return np.union1d(f.breaks, g.breaks)


def union_on_common_grid(f: PLF, g: PLF) -> tuple[PLF, PLF]:
    grid = union_common_grid(f, g)
    return searched_on_grid(f, grid), searched_on_grid(g, grid)


# ----------------------------------------------------------------------
# the union1d grids of the binary operations


def refine(self: PLF, points) -> PLF:
    pts = np.asarray(points, dtype=np.float64).ravel()
    if pts.size == 0:
        return self
    if np.any(pts < self.breaks[0]) or np.any(pts > self.breaks[-1]):
        raise ValueError("refinement point outside the domain")
    return searched_on_grid(self, np.union1d(self.breaks, pts))


def with_crossings(f: PLF, g: PLF) -> tuple[PLF, PLF]:
    F, G = on_common_grid(f, g)
    dl = F.yl - G.yl
    dr = F.yr - G.yr
    hit = (dl * dr) < 0.0
    if np.any(hit):
        a = F.breaks[:-1][hit]
        w = np.diff(F.breaks)[hit]
        tau = a + w * (dl[hit] / (dl[hit] - dr[hit]))
        grid = np.union1d(F.breaks, tau)
        F, G = searched_on_grid(f, grid), searched_on_grid(g, grid)
    return F, G


def plf_combine(fns: list[PLF], coeffs, shift: float = 0.0) -> PLF:
    if len(fns) != len(np.atleast_1d(coeffs)) or not fns:
        raise ValueError("need one coefficient per function")
    grid = fns[0].breaks
    for h in fns[1:]:
        if h.breaks[0] != grid[0] or h.breaks[-1] != grid[-1]:
            raise ValueError("functions live on different domains")
        grid = np.union1d(grid, h.breaks)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    yl = np.full(len(grid) - 1, shift)
    yr = np.full(len(grid) - 1, shift)
    for c, h in zip(coeffs, fns):
        hh = searched_on_grid(h, grid)
        yl = yl + c * hh.yl
        yr = yr + c * hh.yr
    if np.any(coeffs < 0.0):
        yl, yr = _repair_monotone(yl, yr)
    return PLF(grid, yl, yr)


def probe_grid(mu: Measure, nu: Measure, deterministic: list[Measure], h: float) -> tuple[np.ndarray, list[PLF]]:
    """The grid lines of the old ``midpoints.midpoint_diameter_probe``."""
    qm, qn = with_crossings(mu.quantile, nu.quantile)
    grid = qm.breaks
    for cand in deterministic:
        grid = np.union1d(grid, cand.quantile.breaks)
    grid = np.union1d(grid, [h])
    grid = np.union1d(grid, 0.5 * (grid[:-1] + grid[1:]))
    qm = searched_on_grid(mu.quantile, grid)
    qn = searched_on_grid(nu.quantile, grid)
    return grid, [qm, qn] + [searched_on_grid(c.quantile, grid) for c in deterministic]


# ----------------------------------------------------------------------
# midpoints.py


def l1_cells(w: np.ndarray, dl: np.ndarray, dr: np.ndarray) -> np.ndarray:
    s = np.abs(dl) + np.abs(dr)
    cross = (dl * dr) < 0.0
    denom = np.where(cross, s, 1.0)
    straight = 0.5 * w * s
    bent = w * (dl * dl + dr * dr) / (2.0 * denom)
    return np.where(cross, bent, straight)


# ----------------------------------------------------------------------
# measures.py


def discrete_arrays(positions, weights) -> tuple[np.ndarray, np.ndarray]:
    """The old ``DiscreteMeasure.__post_init__``: sorted, merged, normalized."""
    pos = np.asarray(positions, dtype=np.float64).ravel()
    w = np.asarray(weights, dtype=np.float64).ravel()
    if len(pos) != len(w) or len(pos) == 0:
        raise ValueError("need matching nonempty position/weight arrays")
    if not np.all(np.isfinite(pos)):
        raise PositionOutOfRange("non-finite atom position")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise NonPositiveWeight("atom weights must be positive")
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_TOL:
        raise WeightSumOutOfTolerance(f"weights sum to {total!r}")
    order = np.argsort(pos, kind="stable")
    pos, w = pos[order], w[order]
    # merge duplicates (exact position ties)
    uniq, inverse = np.unique(pos, return_inverse=True)
    if len(uniq) != len(pos):
        w = np.bincount(inverse, weights=w)
        pos = uniq
    w = w / total
    return np.ascontiguousarray(pos), np.ascontiguousarray(w)


def from_atoms(atoms, domain: Domain = Domain.REAL_LINE) -> Measure:
    pairs = list(atoms)
    if not pairs:
        raise NonPositiveWeight("a measure needs at least one atom")
    pos, w = discrete_arrays([p for p, _ in pairs], [w for _, w in pairs])
    if domain is Domain.UNIT_INTERVAL and (pos[0] < 0.0 or pos[-1] > 1.0):
        raise PositionOutOfRange("atom outside the unit interval")
    cum = np.cumsum(w)
    cum[-1] = 1.0
    breaks = np.concatenate([[0.0], cum])
    # drop cells whose width underflowed to zero (weight below one ulp of
    # the running total); the lost mass is far under the weight tolerance
    keep = np.diff(breaks) > 0.0
    if not keep.all():
        pos = pos[keep]
        breaks = np.concatenate([[0.0], cum[keep]])
    return Measure(domain, PLF(breaks, pos, pos))


def atoms_measure(pos: np.ndarray, w: np.ndarray, domain: Domain) -> Measure:
    """The old ``measures._atoms_measure``, through the validating
    constructors; it raised ``NotMonotone`` when the running total passed
    one before the last atom."""
    if domain is Domain.UNIT_INTERVAL and (pos[0] < 0.0 or pos[-1] > 1.0):
        raise PositionOutOfRange("atom outside the unit interval")
    cum = np.cumsum(w)
    cum[-1] = 1.0
    # cells whose width underflowed to zero (weight below one ulp of the
    # running total) are dropped; the lost mass is far under the weight
    # tolerance
    return Measure(domain, _without_empty_cells(np.concatenate([[0.0], cum]), pos, pos))


def from_measure(mu: Measure) -> tuple[np.ndarray, np.ndarray]:
    atoms = mu.atoms()
    return discrete_arrays([a for a, _ in atoms], [m for _, m in atoms])


# ----------------------------------------------------------------------
# padded generalized inverses (measures.py, midpoints.py, isometries.py)


def flip(mu: Measure) -> Measure:
    if mu.domain is not Domain.UNIT_INTERVAL:
        raise DomainMismatch("flip is defined on unit-interval measures")
    q = mu.quantile
    v0, v1 = q.value_range
    pieces: list[PLF] = []
    if v0 == v1:  # Dirac at t: flip is the extremal two-point measure
        t = v0
        if t > 0.0:
            pieces.append(const_plf(0.0, t, 0.0))
        if t < 1.0:
            pieces.append(const_plf(t, 1.0, 1.0))
        return Measure(Domain.UNIT_INTERVAL, concat_plfs(pieces))
    if v0 > 0.0:
        pieces.append(const_plf(0.0, v0, 0.0))
    pieces.append(q.inverse())
    if v1 < 1.0:
        pieces.append(const_plf(v1, 1.0, 1.0))
    return Measure(Domain.UNIT_INTERVAL, concat_plfs(pieces))


def unit_cdf_plf(mu: Measure) -> PLF:
    """The old ``measures._unit_cdf_plf``."""
    q = mu.quantile
    v0, v1 = q.value_range
    if v0 == v1:  # Dirac
        t = v0
        if t <= 0.0:
            return const_plf(0.0, 1.0, 1.0)
        if t >= 1.0:
            return const_plf(0.0, 1.0, 0.0)
        return concat_plfs([const_plf(0.0, t, 0.0), const_plf(t, 1.0, 1.0)])
    pieces: list[PLF] = []
    if v0 > 0.0:
        pieces.append(const_plf(0.0, v0, 0.0))
    pieces.append(q.inverse())
    if v1 < 1.0:
        pieces.append(const_plf(v1, 1.0, 1.0))
    return concat_plfs(pieces)


def cdf_plf(mu: Measure, lo: float, hi: float) -> PLF:
    """The old ``midpoints._cdf_plf``."""
    q = mu.quantile
    v0, v1 = q.value_range
    if not (lo < v0 and v1 < hi):
        raise ValueError("window must strictly contain the support")
    if v0 == v1:  # Dirac
        return concat_plfs([const_plf(lo, v0, 0.0), const_plf(v0, hi, 1.0)])
    pieces = [const_plf(lo, v0, 0.0), q.inverse(), const_plf(v1, hi, 1.0)]
    return concat_plfs(pieces)


def cdf_pair(mu: Measure, nu: Measure) -> tuple[PLF, PLF]:
    a = min(mu.quantile.value_range[0], nu.quantile.value_range[0]) - 1.0
    b = max(mu.quantile.value_range[1], nu.quantile.value_range[1]) + 1.0
    return cdf_plf(mu, a, b), cdf_plf(nu, a, b)


_THIRD = 1.0 / 3.0
_TWO_THIRDS = 2.0 / 3.0


def split_embedding_apply(emb, mu: Measure) -> Measure:
    if mu.domain is not Domain.REAL_LINE:
        raise ScopeMismatch("the split embedding acts on real-line measures")
    q = mu.quantile
    low = q.minimum(0.0)
    lowb = low.breaks / 3.0
    lowb = lowb.copy()
    lowb[0] = 0.0
    lowb[-1] = _THIRD
    low_piece = PLF(lowb, 3.0 * low.yl - 1.0, 3.0 * low.yr - 1.0)
    high = q.maximum(0.0)
    highb = (high.breaks + 2.0) / 3.0
    highb = highb.copy()
    highb[0] = _TWO_THIRDS
    highb[-1] = 1.0
    high_piece = PLF(highb, 3.0 * high.yl + 1.0, 3.0 * high.yr + 1.0)
    middle = middle_band(emb)
    return Measure(Domain.REAL_LINE, concat_plfs([low_piece, middle, high_piece]))


def middle_band(emb) -> PLF:
    """The old ``isometries._middle_band``."""
    pr = emb.profile
    lo, hi = pr.value_range
    if lo == hi:  # constant profile: the band splits at its single value
        pieces = []
        if lo > _THIRD:
            pieces.append(const_plf(_THIRD, lo, -1.0))
        if lo < _TWO_THIRDS:
            pieces.append(const_plf(lo, _TWO_THIRDS, 1.0))
        return concat_plfs(pieces)
    pieces = []
    if lo > _THIRD:
        pieces.append(const_plf(_THIRD, lo, -1.0))
    pieces.append(pr.inverse())
    if hi < _TWO_THIRDS:
        pieces.append(const_plf(hi, _TWO_THIRDS, 1.0))
    return concat_plfs(pieces)


# ----------------------------------------------------------------------
# the one-home helpers (interval.py, metric.py, midpoints.py)


def nearest_in_mn(mu: Measure, n: int, p: float) -> tuple[Measure, float]:
    _require_unit(mu)
    p = check_order(p)
    if p <= 1.0:
        raise InvalidP("uniqueness of the projection needs p > 1")
    n = _check_level_index(n)
    blocks = 2**n
    edges = np.arange(blocks + 1) / float(blocks)
    q = mu.quantile.refine(edges)
    w = np.diff(q.breaks)
    # map each refined cell to its block
    cell_block = np.searchsorted(edges, q.breaks[:-1], side="right") - 1
    cell_block = np.clip(cell_block, 0, blocks - 1)
    first = np.searchsorted(cell_block, np.arange(blocks), side="left")
    last = np.searchsorted(cell_block, np.arange(blocks), side="right") - 1
    lo = q.yl[first].astype(np.float64).copy()
    hi = q.yr[last].astype(np.float64).copy()

    def derivative(a_blocks: np.ndarray) -> np.ndarray:
        a = a_blocks[cell_block]
        A = q.yl - a
        B = q.yr - a
        d = B - A
        steep = np.abs(d) > 1e-9 * np.maximum(np.abs(A), np.abs(B))
        safe = np.where(steep, d, 1.0)
        prim = lambda u: np.abs(u) ** p / p
        divided = (prim(B) - prim(A)) / safe
        mid = (A + B) * 0.5
        flat = np.sign(mid) * np.abs(mid) ** (p - 1.0)
        per_cell = -w * np.where(steep, divided, flat)
        return np.bincount(cell_block, weights=per_cell, minlength=blocks)

    for _ in range(120):
        a = (lo + hi) * 0.5
        g = derivative(a)
        below = g < 0.0
        lo = np.where(below, a, lo)
        hi = np.where(below, hi, a)
        if np.all(hi - lo <= 1e-14):
            break
    a = (lo + hi) * 0.5
    a = np.maximum.accumulate(np.clip(a, 0.0, 1.0))
    best = mn_element(a)
    return best, wasserstein_distance(mu, best, p)


def monotone_range(mu: Measure, nu: Measure) -> MonotoneRange:
    if mu.domain is not nu.domain:
        raise DomainMismatch("geodesics need a common domain")
    f, g = on_common_grid(mu.quantile, nu.quantile)
    # slopes and jumps both must stay nonnegative along the blend
    a = np.concatenate([f.yr - f.yl, f.yl[1:] - f.yr[:-1]])
    b = np.concatenate([g.yr - g.yl, g.yl[1:] - g.yr[:-1]])
    grow = b > a
    shrink = b < a
    lo = None
    hi = None
    if np.any(grow):
        lo = float(np.max(-a[grow] / (b[grow] - a[grow])))
    if np.any(shrink):
        hi = float(np.min(a[shrink] / (a[shrink] - b[shrink])))
    return MonotoneRange(lo, hi)


def with_junction_level(q: PLF, k: int, level: float) -> PLF:
    breaks = q.breaks.copy()
    yl = q.yl.copy()
    yr = q.yr.copy()
    breaks[k + 1] = level
    drop = []
    if breaks[k + 1] == breaks[k]:
        drop.append(k)
    if breaks[k + 1] == breaks[k + 2]:
        drop.append(k + 1)
    if drop:
        yl = np.delete(yl, drop)
        yr = np.delete(yr, drop)
        breaks = np.delete(breaks, [d + 1 for d in drop])
    return PLF(breaks, yl, yr)


def _require_pair(mu: Measure, nu: Measure) -> None:
    if mu.domain is not nu.domain:
        raise DomainMismatch("midpoint geometry needs one common domain")
    if mu == nu:
        raise EqualEndpoints("midpoint geometry needs two distinct measures")


def _half_area_point(f: PLF, g: PLF) -> float:
    """The old ``midpoints._half_area_point``, which crossed its pair itself."""
    return _crossed_half_area_point(*_with_crossings(f, g))


def midpoint_geometry(mu: Measure, nu: Measure) -> MidpointGeometry:
    _require_pair(mu, nu)
    D = wasserstein_distance(mu, nu, 1.0)
    if D == 0.0:
        raise EqualEndpoints("measures coincide")
    fm, fn = _cdf_pair(mu, nu)
    v = _half_area_point(fm, fn)
    h = _half_area_point(mu.quantile, nu.quantile)

    qm, qn = _with_crossings(mu.quantile, nu.quantile)
    q_lo = PLF._trusted(qm.breaks, np.minimum(qm.yl, qn.yl), np.minimum(qm.yr, qn.yr))
    q_hi = PLF._trusted(qm.breaks, np.maximum(qm.yl, qn.yl), np.maximum(qm.yr, qn.yr))
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
    return MidpointGeometry(D, v, h, (a1, a2, a3, a4), swapped, (mu, nu), (qm, qn))


# ----------------------------------------------------------------------
# the midpoint constructions that each analysed their pair again


def _pair_distance(mu: Measure, nu: Measure) -> float:
    """d_1 of two distinct measures on one domain."""
    if mu.domain is not nu.domain:
        raise DomainMismatch("midpoint geometry needs one common domain")
    if mu == nu:
        raise EqualEndpoints("midpoint geometry needs two distinct measures")
    D = wasserstein_distance(mu, nu, 1.0)
    if D == 0.0:
        raise EqualEndpoints("measures coincide")
    return D


def _oriented(mu: Measure, nu: Measure, geo: MidpointGeometry) -> tuple[Measure, Measure]:
    return (nu, mu) if geo.swapped else (mu, nu)


def _check_bisectable(geo: MidpointGeometry) -> None:
    if geo.alphas[1] <= 1e-12 * max(1.0, geo.D):
        raise NotBisectable(
            "alpha_2 vanishes; the extremal midpoints are the plain glue "
            "measures and no bisecting pair is defined"
        )


def bisecting_vertical(mu: Measure, nu: Measure) -> Measure:
    """The midpoint whose CDF follows mu left of v and nu from v on."""
    geo = midpoint_geometry(mu, nu)
    _check_bisectable(geo)
    return _glue_vertical(*_oriented(mu, nu, geo), geo.v, geo.h)


def bisecting_horizontal(mu: Measure, nu: Measure) -> Measure:
    """The midpoint whose quantile follows nu below level h and mu above."""
    geo = midpoint_geometry(mu, nu)
    _check_bisectable(geo)
    return _glue_horizontal(*_oriented(mu, nu, geo), geo.v, geo.h)


def probe_preamble(mu: Measure, nu: Measure) -> tuple[float, float, float, list[Measure]]:
    """The opening of the old ``midpoints.midpoint_diameter_probe``: D, v, h
    and the deterministic candidates it handed to ``_probe_grid``."""
    D = _pair_distance(mu, nu)
    h = _half_area_point(mu.quantile, nu.quantile)
    v = _half_area_point(*_cdf_pair(mu, nu))

    deterministic: list[Measure] = [geodesic_point(mu, nu, 0.5)]
    for a, b in ((mu, nu), (nu, mu)):
        for builder in (_glue_vertical, _glue_horizontal):
            try:
                cand = builder(a, b, v, h)
            except Exception:
                continue
            if is_midpoint(cand, mu, nu, tol=1e-9):
                deterministic.append(cand)
    return D, v, h, deterministic
