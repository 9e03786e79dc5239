"""Extremal geometry of W_p([0, 1]).

The space fibers into slices S_t = {mu : d_1(d_0, mu) = t}; within a
slice the distance to the Dirac endpoint of the fiber is fixed, and the
two-point measures (1-t) d_0 + t d_1 are the unique points at maximal
distance 2t(1-t) from the Dirac d_t of the same slice.

M_n is the set of uniform n-th dyadic empirical measures: equal weights
1/2^n on 2^n sorted positions.  Every measure lies within (1/2)^{1+n/p}
of M_n, with equality exactly on the 2^n extremal elements Q_n whose
atoms sit at 0 and 1 only.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AlphaOutOfRange,
    InvalidInput,
    InvalidP,
    PositionOutOfRange,
    UnsortedPositions,
    WeightError,
)
from .measures import Domain, Measure, _common_domain, _require_unit, dist_to_dirac, from_atoms
from .metric import check_order
from .plf import PLF, _as_floats, _power_cells, abs_pow_gap, plf_combine

_MAX_LADDER = 20  # 2^20 atoms is already far beyond any sane use
_EPS = float(np.finfo(float).eps)


def _check_level_index(n: int) -> int:
    if not (n >= 0 and n % 1 == 0):  # NaN and inf fail too
        raise InvalidInput("the ladder index n must be a nonnegative integer")
    if n > _MAX_LADDER:
        raise InvalidInput(f"ladder index {n} is too large")
    return int(n)


def slice_of(mu: Measure) -> float:
    """The slice coordinate t = d_1(d_0, mu), the integral of the quantile
    gap to 0; on [0, 1] that is the barycenter, bit for bit."""
    return dist_to_dirac(mu, 0.0)


def slice_extremal_pair(t: float) -> tuple[Measure, Measure]:
    """The diameter-realizing pair of the slice S_t.

    Returns ((1-t) d_0 + t d_1, d_t); their distance 2t(1-t) is the
    diameter of S_t for W_1, attained only by this pair.
    """
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise PositionOutOfRange("slices are indexed by t in [0, 1]")
    if t == 0.0 or t == 1.0:
        endpoint = from_atoms([(t, 1.0)], domain=Domain.UNIT_INTERVAL)
        return endpoint, endpoint
    two_point = from_atoms([(0.0, 1.0 - t), (1.0, t)], domain=Domain.UNIT_INTERVAL)
    dirac = from_atoms([(t, 1.0)], domain=Domain.UNIT_INTERVAL)
    return two_point, dirac


def qn_elements(n: int) -> list[Measure]:
    """The 2^n measures at exact ladder distance from M_n.

    Element k is ((2k-1)/2^{n+1}) d_0 + (1 - (2k-1)/2^{n+1}) d_1 for
    k = 1..2^n; all its mass sits on the endpoints.
    """
    n = _check_level_index(n)
    if n > 12:
        raise InvalidInput("refusing to materialize more than 4096 elements")
    denom = float(2 ** (n + 1))
    out = []
    for k in range(1, 2**n + 1):
        w0 = (2 * k - 1) / denom
        out.append(from_atoms([(0.0, w0), (1.0, 1.0 - w0)], domain=Domain.UNIT_INTERVAL))
    return out


def mn_element(positions) -> Measure:
    """Equal-weight measure on sorted positions in [0, 1]."""
    pos = _as_floats(positions, "positions").ravel()
    if pos.size == 0:
        raise InvalidInput("need at least one position")
    if np.any(np.diff(pos) < 0.0):
        raise UnsortedPositions("positions must be sorted nondecreasingly")
    if not np.all((pos >= 0.0) & (pos <= 1.0)):  # NaN fails too
        raise PositionOutOfRange("positions must lie in [0, 1]")
    return _equal_weight_element(pos)


def _equal_weight_element(a: np.ndarray) -> Measure:
    """``mn_element(a)`` without its checks, for positions sorted in
    [0, 1]: one atom per run of equal positions at the run's first one,
    on the breaks k/len(a)."""
    starts = np.flatnonzero(np.concatenate([[True], a[1:] != a[:-1]]))
    pos = a[starts]
    breaks = np.append(starts, len(a)) / float(len(a))
    return Measure._trusted(Domain.UNIT_INTERVAL, PLF._trusted(breaks, pos, pos))


def ladder_bound(n: int, p: float) -> float:
    """The sharp bound d_p(mu, M_n) <= (1/2)^{1 + n/p}."""
    p = check_order(p)
    n = _check_level_index(n)
    return 0.5 ** (1.0 + n / p)


def nearest_in_mn(mu: Measure, n: int, p: float) -> tuple[Measure, float]:
    """Best approximation of mu in M_n for d_p, p > 1.

    The k-th atom only sees the quantile block [(k-1)/2^n, k/2^n), and
    the block cost a -> integral |Q - a|^p is strictly convex, so each
    position solves a scalar equation.  At p = 2 the solution is the
    block mean, in closed form.  Elsewhere each block starts at its mean
    and takes Newton steps on the derivative g(a) = -integral of
    sign(Q-a)|Q-a|^(p-1), with curvature (p-1) integral |Q-a|^(p-2),
    both per cell from ``_power_cells``.  The block's value range brackets
    the root and shrinks by the sign of g; its midpoint replaces a step
    that is not finite, leaves it or fails to halve the step before last.
    For p < 2 the curvature is infinite on a flat cell at the iterate, and
    near an atom g has the cusp |Q-a|^(p-1), on which plain Newton steps
    cycle.  A block stops at a step below a few ulps of its position
    taken with finite curvature, at g = 0, or when its bracket holds no
    float between its ends; it then keeps whichever end has the lower
    block cost.  All blocks run in lockstep.
    """
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
    lo = q.yl[first]
    hi = q.yr[last]

    def block_sums(per_cell: np.ndarray) -> np.ndarray:
        return np.bincount(cell_block, weights=per_cell, minlength=blocks)

    def block_cost(at: np.ndarray) -> np.ndarray:  # integral of |Q - at|^p per block
        return block_sums(_power_cells(w, q.yl - at[cell_block], q.yr - at[cell_block], p, False))

    a = np.clip(blocks * block_sums(q._cell_areas()), lo, hi)
    done = np.full(blocks, p == 2.0) | (lo == hi)
    moved = before = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(120):
            if done.all():
                break
            at = a[cell_block]
            u, v = q.yl - at, q.yr - at
            g = -block_sums(_power_cells(w, u, v, p - 1.0, True))
            h = (p - 1.0) * block_sums(_power_cells(w, u, v, p - 2.0, False))
            lo = np.where(g < 0.0, a, lo)
            hi = np.where(g > 0.0, a, hi)
            dx = g / h
            newton = a - dx
            mid = (lo + hi) * 0.5
            # a step below a few ulps of a is the last one, kept inside the
            # bracket that a just set an end of, unless it is zero only
            # because the curvature is infinite (a sits on an atom, where g
            # need not vanish); otherwise the midpoint replaces a step that
            # is not finite, leaves the bracket or fails to halve the step
            # before last
            small = np.isfinite(h) & (np.abs(dx) <= 4.0 * _EPS * np.abs(a))
            take = small | ((lo < newton) & (newton < hi) & (np.abs(dx) <= 0.5 * before))
            step = np.where(take, np.clip(newton, lo, hi), mid)
            before, moved = moved, np.abs(step - a)
            stay = done | (g == 0.0)
            a = np.where(stay, a, step)
            # a bracket of neighbouring floats has nothing left to bisect;
            # its block keeps the cheaper end
            empty = ~stay & ((mid <= lo) | (mid >= hi))
            if empty.any():
                a = np.where(empty & (block_cost(hi) < block_cost(lo)), hi, np.where(empty, lo, a))
            done = stay | small | empty
    a = np.maximum.accumulate(np.clip(a, 0.0, 1.0))
    # the element is constant on each block, so the refined quantile's
    # breaks are a common grid of the two
    at = a[cell_block]
    return _equal_weight_element(a), abs_pow_gap(q, PLF._trusted(q.breaks, at, at), p) ** (1.0 / p)


def t_star(alpha: float, p: float) -> float:
    """Unique minimizer of t -> (1-alpha) t^p + alpha (1-t)^p on [0, 1]:

        t* = alpha^{1/(p-1)} / (alpha^{1/(p-1)} + (1-alpha)^{1/(p-1)}).

    This is the position of the one-atom best d_p approximation of the
    two-point measure (1-alpha) d_0 + alpha d_1.
    """
    p = check_order(p)
    if p <= 1.0:
        raise InvalidP("the minimizer is only unique for p > 1")
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange("alpha must lie strictly inside (0, 1)")
    r = 1.0 / (p - 1.0)
    a = alpha**r
    b = (1.0 - alpha) ** r
    return a / (a + b)


def convex_hull_combination(items) -> Measure:
    """Quantile-convex combination sum_i w_i Q_i as a measure.

    Weights must be nonnegative with total within 1e-9 of one; zero
    weights are dropped, the rest renormalized.
    """
    pairs = [(mu, float(w)) for mu, w in items]
    if not pairs:
        raise WeightError("empty combination")
    if not all(w >= 0.0 for _, w in pairs):  # NaN fails too
        raise WeightError("combination weights must be nonnegative")
    total = sum(w for _, w in pairs)
    if abs(total - 1.0) > 1e-9:
        raise WeightError(f"combination weights sum to {total!r}")
    pairs = [(mu, w) for mu, w in pairs if w > 0.0]  # not empty: the total is near 1
    domain = _common_domain(*(mu for mu, _ in pairs))
    q = plf_combine([mu.quantile for mu, _ in pairs], [w / total for _, w in pairs])
    return Measure(domain, q)
