"""Wasserstein distances and geodesics on the line.

On R (and on [0, 1]) the optimal coupling for every order p >= 1 is the
monotone one, so

    d_p(mu, nu)^p = integral_0^1 |Q_mu - Q_nu|^p dy

and the integrand is piecewise affine on the common level grid.  Each
cell integrates in closed form through the signed power primitive, so
no quadrature is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidP, NotMonotone
from .measures import DiscreteMeasure, Measure, _common_domain
from .plf import PLF, _blend, _nodes, abs_pow_gap, on_common_grid


def check_order(p) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise InvalidP(f"need a finite order p >= 1, got {p!r}")
    return p


def wasserstein_distance(mu: Measure, nu: Measure, p=2.0) -> float:
    """d_p(mu, nu); zero exactly when the canonical representations agree."""
    _common_domain(mu, nu)
    p = check_order(p)
    if mu == nu:
        return 0.0
    total = abs_pow_gap(mu.quantile, nu.quantile, p)
    if p == 1.0:
        return total
    return float(total ** (1.0 / p))


def transport_lp_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, p=2.0) -> float:
    """Independent check: northwest-corner coupling of sorted atoms.

    The monotone plan it produces is the optimal one for |x - y|^p on
    the line, but the computation shares no code with the quantile
    integral above, which is the point.
    """
    p = check_order(p)
    xs, ws = mu.positions, mu.weights.copy()
    ys, wt = nu.positions, nu.weights.copy()
    i = j = 0
    cost = 0.0
    while i < len(xs) and j < len(ys):
        m = min(ws[i], wt[j])
        cost += m * abs(xs[i] - ys[j]) ** p
        ws[i] -= m
        wt[j] -= m
        if ws[i] <= 0.0:
            i += 1
        if wt[j] <= 0.0:
            j += 1
    if p == 1.0:
        return cost
    return float(cost ** (1.0 / p))


# ----------------------------------------------------------------------
# geodesics


@dataclass(frozen=True)
class MonotoneRange:
    """Parameter interval on which (1-s) Q_mu + s Q_nu stays monotone.

    Always contains [0, 1]; ``None`` bounds mean unbounded on that side.
    """

    lo: float | None
    hi: float | None

    def contains(self, s: float) -> bool:
        lo = -np.inf if self.lo is None else self.lo
        hi = np.inf if self.hi is None else self.hi
        return lo <= s <= hi  # NaN is in no range


def monotone_range(mu: Measure, nu: Measure) -> MonotoneRange:
    _common_domain(mu, nu)
    return _monotone_range(*on_common_grid(mu.quantile, nu.quantile))


def _monotone_range(f: PLF, g: PLF) -> MonotoneRange:
    """``monotone_range`` of two quantiles on one grid."""
    # slopes and jumps, the steps between level-ordered nodes, both must
    # stay nonnegative along the blend
    a = np.diff(_nodes(f.yl, f.yr))
    b = np.diff(_nodes(g.yl, g.yr))
    grow = b > a
    shrink = b < a
    lo = None
    hi = None
    if np.any(grow):
        lo = float(np.max(-a[grow] / (b[grow] - a[grow])))
    if np.any(shrink):
        hi = float(np.min(a[shrink] / (a[shrink] - b[shrink])))
    return MonotoneRange(lo, hi)


def geodesic_point(mu: Measure, nu: Measure, s: float) -> Measure:
    """Displacement interpolation gamma(s) with quantile (1-s)Q_mu + sQ_nu.

    For s in [0, 1] this is the metric geodesic for every p > 1 (and a
    geodesic among many for p = 1); outside [0, 1] it extends exactly as
    long as the blend stays monotone.

    The monotone range always holds [0, 1], in floats too: every step a
    of f and b of g is >= 0, so -a/(b-a) <= 0 and, as fl(a-b) <= a,
    a/(a-b) >= 1.  Only s outside [0, 1] (or NaN) scans for it.
    """
    s = float(s)
    _common_domain(mu, nu)
    f, g = on_common_grid(mu.quantile, nu.quantile)
    if not 0.0 <= s <= 1.0 and not _monotone_range(f, g).contains(s):
        raise NotMonotone(f"s={s!r} leaves the monotone parameter range")
    return Measure(mu.domain, _blend(f.breaks, [f, g], [1.0 - s, s]))
