"""Reference checks for every result the workloads time.

They run outside the timed region.  The distance references share no
code with the library's cell calculus (``abs_pow_cells``): discrete
pairs go through the northwest-corner coupling or a NumPy merge of
cumulative weights, and mixed pairs through per-cell Simpson sums split
at sign changes, which is exact for |affine|^p at p in {1, 2, 3}.
Identities (geodesic scaling, isometry invariance) use the library's
own distance, which the distance checks cover separately.
"""

from __future__ import annotations

import numpy as np

# a result passes when |got - want| <= REL * |want| + ABS * scale, where
# scale is the largest magnitude among the inputs' support points (>= 1);
# a distance perturbed by a relative 1e-8 fails whenever want > 1e-4 * scale
REL = 1e-9
ABS = 1e-12
# JSON round trips are lossy by rounding; bound the damage in d_1
JSON_D1 = 1e-13


def close(got: float, want: float, scale: float = 1.0) -> bool:
    return bool(abs(got - want) <= REL * abs(want) + ABS * max(1.0, scale))


# ----------------------------------------------------------------------
# quantile arrays straight from the generated inputs


def quantile_arrays(raw: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(breaks, yl, yr) of a generated measure, without the library."""
    if raw["kind"] == "cells":
        return raw["breaks"], raw["yl"], raw["yr"]
    order = np.argsort(raw["pos"], kind="stable")
    pos = raw["pos"][order]
    w = raw["w"][order]
    cum = np.cumsum(w) / np.sum(w)
    cum[-1] = 1.0
    breaks = np.concatenate([[0.0], cum])
    keep = np.diff(breaks) > 0.0
    return np.concatenate([[0.0], cum[keep]]), pos[keep], pos[keep]


def scale_of(*raws: dict) -> float:
    out = 1.0
    for raw in raws:
        for key in ("pos", "yl", "yr"):
            if key in raw and len(raw[key]):
                out = max(out, float(np.max(np.abs(raw[key]))))
    return out


def _on_grid(breaks, yl, yr, grid):
    """Values at each grid cell's left end and left limits at its right end."""
    k = np.clip(np.searchsorted(breaks, grid[:-1], side="right") - 1, 0, len(yl) - 1)
    w = breaks[k + 1] - breaks[k]
    slope = (yr[k] - yl[k]) / w
    left = np.where(grid[:-1] == breaks[k], yl[k], yl[k] + slope * (grid[:-1] - breaks[k]))
    right = np.where(grid[1:] == breaks[k + 1], yr[k], yl[k] + slope * (grid[1:] - breaks[k]))
    return left, right


def simpson_distance(f, g, p: float) -> float:
    """d_p between two quantiles given as (breaks, yl, yr), p in {1, 2, 3}.

    On the common grid the gap is affine per cell; cells where it changes
    sign are split at the root, and Simpson's rule is exact on each piece
    because |gap|^p is a polynomial of degree p <= 3 there.
    """
    if p not in (1.0, 2.0, 3.0):
        raise ValueError("Simpson is exact only for p in {1, 2, 3}")
    grid = np.union1d(f[0], g[0])
    fl, fr = _on_grid(*f, grid)
    gl, gr = _on_grid(*g, grid)
    a, b = fl - gl, fr - gr
    w = np.diff(grid)
    cross = a * b < 0.0
    tau = np.where(cross, a / np.where(cross, a - b, 1.0), 1.0)

    def simpson(width, lo, hi):
        mid = 0.5 * (lo + hi)
        return width / 6.0 * (np.abs(lo) ** p + 4.0 * np.abs(mid) ** p + np.abs(hi) ** p)

    whole = simpson(w, a, b)
    split = simpson(w * tau, a, 0.0) + simpson(w * (1.0 - tau), 0.0, b)
    total = float(np.sum(np.where(cross, split, whole)))
    return total ** (1.0 / p)


def merge_distance(x, wx, y, wy, p: float) -> float:
    """d_p between two discrete measures from sorted atoms, in NumPy.

    The monotone coupling pairs the atom owning each cell of the merged
    cumulative-weight grid; cost is the cell width times |x_i - y_j|^p.
    """
    cx = np.cumsum(wx) / np.sum(wx)
    cy = np.cumsum(wy) / np.sum(wy)
    cx[-1] = cy[-1] = 1.0
    grid = np.union1d(cx, cy)
    widths = np.diff(np.concatenate([[0.0], grid]))
    i = np.minimum(np.searchsorted(cx, grid, side="left"), len(x) - 1)
    j = np.minimum(np.searchsorted(cy, grid, side="left"), len(y) - 1)
    total = float(np.sum(widths * np.abs(x[i] - y[j]) ** p))
    return total if p == 1.0 else total ** (1.0 / p)


def discrete_cdf(pos, w, points) -> np.ndarray:
    """F(x) = mass at or below x, by searchsorted over the sorted atoms."""
    order = np.argsort(pos, kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(w[order]) / np.sum(w)])
    cum[-1] = 1.0
    return cum[np.searchsorted(pos[order], points, side="right")]


def expected_atoms(pos, w) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct positions and the normalized cumulative weights,
    merged at exact ties, of a list of atoms."""
    upos, inv = np.unique(np.asarray(pos, dtype=np.float64), return_inverse=True)
    uw = np.bincount(inv, weights=np.asarray(w, dtype=np.float64))
    return upos, np.cumsum(uw) / np.sum(uw)


def atoms_match(mu, expected, exact_weights: bool = False) -> bool:
    """The built measure carries exactly the expected positions, and level
    breaks at the expected cumulative weights (bit for bit when
    ``exact_weights``, else within 1e-12)."""
    upos, cum = expected
    q = mu.quantile
    if not np.array_equal(q.yl, q.yr) or not np.array_equal(q.yl, upos):
        return False
    if q.breaks[0] != 0.0 or q.breaks[-1] != 1.0:
        return False
    if exact_weights:
        return bool(np.array_equal(q.breaks[1:-1], cum[:-1]))
    return bool(np.max(np.abs(q.breaks[1:] - cum)) <= 1e-12)
