"""The array kernels of ``wasserline.plf`` and ``wasserline.measures``:
invariants of the live code, and differential oracles where the seed-0
suite digests cannot reach.

Invariants: every node that ``on_grid``, ``refine``, ``restrict``,
``plf_combine``, ``_with_crossings`` and the midpoint probe grid put on a
merged grid is the input's own ``eval`` (cell start) or ``left_limit``
(cell end) there, bit for bit; the merged grid is the union of the break
and point arrays, a zero keeping its first sign; each crossing node
splits a merged cell where f - g changes sign, one node per cell; the
CDF of an atom measure is the running total of its weights, capped at
one, at every atom; the split embedding keeps the profile's band and W1
distances; a Dirac certificate is an adjacent pair with eta as a
midpoint.  The conftest fixture validates every ``PLF._trusted`` result.

Oracles, kept verbatim in ``reference_kernels``: the searched common grid
(the ``k`` of ``common_grid``, large merged pairs, the sorted/direct
search), the tuple-path constructors and the loop inverse on large arrays
and signed-zero ties, and the power cells at p not in {1, 2} and the M_n
projection by bisection, which stay until those kernels change on
purpose.  Differentials with no old body: the windowed distance against
one pass, and step functions (one array for ``yl`` and ``yr``) against
the same values held as two arrays (the grid and the distances, the
inverse, ``eval``, ``canonical``, ``concat_plfs``, the value maps and
blends, ``cdf_eval`` and ``flip``), beside a source scan that lists
every function that branches on a step function.  SHA-256 pins hold
multi-window distances and a 10^5-atom flip and CDF.  W1 and p = 2 cells
are checked against mpmath at 50 digits, zero, signed-zero, crossing and
2-D broadcast cells included, and the projection against a 50-digit
minimizer.  A strict xfail test holds a known defect: a W1 cell crossing
zero whose product ab underflows reads as a trapezoid, twice its value
when a = -b.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import reference_kernels as ref
import wasserline
from wasserline import (
    PLF,
    DiscreteMeasure,
    Domain,
    Measure,
    SplitEmbedding,
    Translation,
    WasserlineError,
    abs_pow_cells,
    apply,
    abs_pow_gap,
    cdf_eval,
    concat_plfs,
    const_plf,
    convex_hull_combination,
    dirac_certificate,
    flip,
    from_atoms,
    midpoint_geometry,
    mn_element,
    monotone_range,
    nearest_in_mn,
    plf_combine,
    pushforward_affine,
    qn_elements,
    sampling,
    wasserstein_distance,
)
from wasserline.errors import EqualEndpoints
from wasserline.metric import geodesic_point
from wasserline.midpoints import _probe_grid, is_adjacent
from wasserline.plf import (
    _GAP_BLOCK,
    _SORTED_SEARCH_MIN,
    _merged_windows,
    _nodes,
    _power_cells,
    _repair_monotone,
    _with_crossings,
    common_grid,
    on_common_grid,
)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    return np.array_equal(np.ascontiguousarray(x).view(np.uint64), np.ascontiguousarray(y).view(np.uint64))


def same_plf(f: PLF, g: PLF) -> bool:
    return same_bits(f.breaks, g.breaks) and same_bits(f.yl, g.yl) and same_bits(f.yr, g.yr)


def same_measure(mu: Measure, nu: Measure) -> bool:
    return mu.domain is nu.domain and same_plf(mu.quantile, nu.quantile)


# ----------------------------------------------------------------------
# strategies

_STEPS = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 0.5, 1.0, 2.0**-30]),
    st.floats(1e-12, 2.0, allow_subnormal=False),
)


@st.composite
def plfs(draw, max_segments: int = 8, breaks: np.ndarray | None = None) -> PLF:
    """Monotone PLFs on [0, 1] with flats, jumps and signed zeros, on
    drawn breaks or on the given ones."""
    if breaks is None:
        m = draw(st.integers(1, max_segments))
        inner = draw(
            st.lists(
                st.one_of(st.sampled_from([0.125, 0.25, 0.5, 0.75]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                min_size=m - 1, max_size=m - 1, unique=True,
            )
        )
        breaks = np.array([0.0] + sorted(inner) + [1.0])
    m = len(breaks) - 1
    start = draw(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.75, -3.0]))
    steps = draw(st.lists(_STEPS, min_size=2 * m - 1, max_size=2 * m - 1))
    nodes = start + np.concatenate([[0.0], np.cumsum(steps)])
    signs = draw(st.lists(st.booleans(), min_size=2 * m, max_size=2 * m))
    nodes = np.where(nodes == 0.0, np.where(signs, -0.0, 0.0), nodes)
    return PLF(breaks, nodes[0::2], nodes[1::2])


_POSITIONS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.5, 0.25]),
    st.floats(-10.0, 10.0, allow_subnormal=False),
)


@st.composite
def atom_arrays(draw) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled, sorted or tied positions with weights summing to ~1."""
    pos = draw(st.lists(_POSITIONS, min_size=1, max_size=40))
    if draw(st.booleans()):
        pos = sorted(pos)  # stable, so the order of 0.0 and -0.0 survives
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=len(pos), max_size=len(pos))))
    return np.array(pos), raw / raw.sum()


def _domain_for(pos: np.ndarray) -> Domain:
    return Domain.UNIT_INTERVAL if np.all((pos >= 0.0) & (pos <= 1.0)) else Domain.REAL_LINE


# ----------------------------------------------------------------------
# plf kernels


def _on_its_values(F: PLF, f: PLF) -> bool:
    """Every node of ``F`` is ``f``'s own value at its level: each cell
    starts on ``f.eval`` and ends on ``f.left_limit``, bit for bit."""
    return same_bits(F.yl, f.eval(F.breaks[:-1])) and same_bits(F.yr, f.left_limit(F.breaks[1:]))


def test_on_grid_of_its_own_breaks_is_itself():
    """A merged grid as long as a function's breaks is those breaks."""
    f = PLF([0.0, 0.25, 1.0], [0.0, 1.0], [0.5, 2.0])
    g = PLF([0.0, 1.0], [0.0], [1.0])
    grid, kf, kg = common_grid(f, g)
    assert f.on_grid(grid, kf) is f
    assert _on_its_values(g.on_grid(grid, kg), g)
    assert f.on_grid(f.breaks, None) is f


@st.composite
def plf_pairs(draw) -> tuple[PLF, PLF]:
    """Two PLFs on [0, 1]: free breaks (often sharing the dyadic interior
    ones), one break array a subset of the other, or the same breaks."""
    f = draw(plfs())
    kind = draw(st.sampled_from(["free", "subset", "same"]))
    if kind == "free":
        g = draw(plfs())
    else:
        keep = np.ones(len(f.breaks), dtype=bool)
        if kind == "subset":
            keep[1:-1] = draw(st.lists(st.booleans(), min_size=len(f.breaks) - 2, max_size=len(f.breaks) - 2))
        g = draw(plfs(breaks=f.breaks[keep]))
    return (g, f) if draw(st.booleans()) else (f, g)


def _searched_indices(f: PLF, grid: np.ndarray) -> np.ndarray:
    return np.clip(np.searchsorted(f.breaks, grid[:-1], "right") - 1, 0, f.num_segments - 1)


@settings(max_examples=300, deadline=None)
@given(plf_pairs())
def test_merged_grid_matches_the_searched_one(pair):
    f, g = pair
    grid, kf, kg = common_grid(f, g)
    assert same_bits(grid, ref.union_common_grid(f, g))
    if np.array_equal(f.breaks, g.breaks):
        assert kf is None and kg is None
    else:
        assert same_bits(kf, _searched_indices(f, grid)) and same_bits(kg, _searched_indices(g, grid))
    for got, want in zip(on_common_grid(f, g), ref.union_on_common_grid(f, g)):
        assert same_plf(got, want)


# ----------------------------------------------------------------------
# the one merge of refine, plf_combine, _with_crossings and the probe grid


def is_merged_grid(got: np.ndarray, *merged: np.ndarray) -> bool:
    """``got`` is the sorted union of the ``merged`` arrays, and a zero
    node carries the sign of the first zero in them: the merge keeps the
    first copy in argument order."""
    both = np.concatenate(merged)
    zeros = both[both == 0.0]
    z = got == 0.0
    if zeros.size and np.any(np.signbit(got[z]) != np.signbit(zeros[0])):
        return False
    want = np.unique(both)
    return same_bits(np.where(z, 0.0, got), np.where(want == 0.0, 0.0, want))


def _maybe_negative_zero_bottom(draw, f: PLF) -> PLF:
    if draw(st.booleans()):
        return PLF(np.concatenate([[-0.0], f.breaks[1:]]), f.yl, f.yr)
    return f


_POINTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.125, 0.25, 0.5, 0.75]), st.floats(0.0, 1.0))


def _outcome(fn, *args):
    """The result, or the type of the library error it raised."""
    try:
        return fn(*args)
    except WasserlineError as e:
        return type(e)


def _blend_of_values(grid: np.ndarray, fns: list[PLF], coeffs) -> PLF:
    """The nodes of sum_i coeffs[i] * fns[i] on ``grid``, from each
    function's own values there, repaired like a signed blend."""
    yl = yr = np.zeros(len(grid) - 1)
    for c, h in zip(coeffs, fns):
        yl = yl + c * h.eval(grid[:-1])
        yr = yr + c * h.left_limit(grid[1:])
    if any(c < 0.0 for c in coeffs):
        yl, yr = _repair_monotone(yl, yr)
    return PLF(grid, yl, yr)


@settings(max_examples=100, deadline=None)
@given(plf_pairs(), st.data())
def test_combine_matches_the_union_grid(pair, data):
    """The blend of one to three functions on shared, subset or free
    breaks, some from -0.0, is their own values on the union grid;
    signed coefficients either blend to a monotone result or raise in
    both."""
    fns = [*pair, data.draw(plfs())][: data.draw(st.integers(1, 3))]
    fns = [_maybe_negative_zero_bottom(data.draw, h) for h in fns]
    coeffs = data.draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]), st.floats(-2.0, 2.0)),
                                min_size=len(fns), max_size=len(fns)))
    got = _outcome(plf_combine, fns, coeffs)
    grid, *ks = common_grid(*fns)
    assert is_merged_grid(grid, *[h.breaks for h in fns])
    want = _outcome(_blend_of_values, grid, fns, coeffs)
    if isinstance(want, type):
        assert got is want
    else:
        assert same_plf(got, want)
    if all(np.array_equal(h.breaks, fns[0].breaks) for h in fns):
        assert grid is fns[0].breaks and ks == [None] * len(fns)
    else:
        assert all(same_bits(k, _searched_indices(h, grid)) for h, k in zip(fns, ks))


@settings(max_examples=100, deadline=None)
@given(plfs(), st.data())
def test_refine_matches_the_union_grid(f, data):
    """A refinement at drawn points, and a restriction to their span, are
    the function's own values on the union of its breaks and the points."""
    # unsorted points with duplicates, shared breaks and both zeros
    f = _maybe_negative_zero_bottom(data.draw, f)
    pts = np.array(data.draw(st.lists(st.one_of(_POINTS, st.sampled_from(f.breaks.tolist())), max_size=12)), dtype=np.float64)
    r = f.refine(pts)
    assert is_merged_grid(r.breaks, f.breaks, pts) and _on_its_values(r, f)
    if pts.size:
        grid, k = common_grid(f, points=[pts])
        assert same_bits(k, _searched_indices(f, grid))
        lo, hi = np.sort(pts)[[0, -1]]
        if (lo, hi) == f.support:
            assert f.restrict(lo, hi) is f
        elif lo < hi:
            part = f.restrict(lo, hi)
            inner = f.breaks[(f.breaks >= lo) & (f.breaks <= hi)]
            assert is_merged_grid(part.breaks, inner, [lo, hi]) and _on_its_values(part, f)


_EPS = Fraction(np.finfo(float).eps)

# an interior crossing within the last ulp below B: its computed node
# rounded to the ulp above B, into the next cell [B, 2]
_A, _B = 0.6413227333249986, 1.7345771514092145
_ULP_PAST_ITS_CELL = (
    PLF([0.0, _A, _B, 2.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]),
    PLF([0.0, _A, _B, 2.0], [-2.0, -0.7071424524823451, 1.0], [-2.0, 2.348903156715345e-18, 1.0]),
)


@st.composite
def crossing_pairs(draw) -> tuple[PLF, PLF]:
    """``plf_pairs``, or f against a level at, or an ulp off, one of f's
    nodes: crossings on or next to a cell edge, where tau may round onto
    a break."""
    f, g = draw(plf_pairs())
    if draw(st.booleans()):
        c = draw(st.sampled_from(np.concatenate([f.yl, f.yr]).tolist()))
        g = const_plf(0.0, 1.0, draw(st.sampled_from([c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf)])))
    return f, g


@settings(max_examples=100, deadline=None)
@given(crossing_pairs())
@example(_ULP_PAST_ITS_CELL)
def test_every_crossing_node_splits_its_own_crossed_cell(pair):
    f, g = pair
    F, G = _with_crossings(f, g)
    assert same_bits(F.breaks, G.breaks) and _on_its_values(F, f) and _on_its_values(G, g)
    # each added node lies strictly inside a merged cell where f - g
    # changes sign, and no such cell holds two
    M, N = on_common_grid(f, g)
    assert np.isin(M.breaks, F.breaks).all()
    added = F.breaks[~np.isin(F.breaks, M.breaks)]
    cell = np.searchsorted(M.breaks, added) - 1
    assert np.all(M.breaks[cell] < added) and np.all(added < M.breaks[cell + 1])
    dl, dr = M.yl - N.yl, M.yr - N.yr
    assert np.all(dl[cell] * dr[cell] < 0.0) and len(np.unique(cell)) == len(cell)
    # the node is the cell's crossing, to rounding, and only a crossing
    # within rounding of an end of its cell may go without one
    for i in np.flatnonzero(dl * dr < 0.0):
        a, b = Fraction(M.breaks[i]), Fraction(M.breaks[i + 1])
        t = a + (b - a) * Fraction(dl[i]) / (Fraction(dl[i]) - Fraction(dr[i]))
        tol = 4 * _EPS * (b - a) + 2 * Fraction(np.spacing(max(abs(M.breaks[i]), abs(M.breaks[i + 1]))))
        node = added[cell == i]
        if len(node):
            assert abs(Fraction(node[0]) - t) <= tol
        else:
            assert min(t - a, b - t) <= tol
    # the envelopes take the pointwise extreme of the two functions' values
    for env, extreme in ((f.minimum(g), np.minimum), (f.maximum(g), np.maximum)):
        assert same_bits(env.breaks, F.breaks)
        assert same_bits(env.yl, extreme(f.eval(F.breaks[:-1]), g.eval(F.breaks[:-1])))
        assert same_bits(env.yr, extreme(f.left_limit(F.breaks[1:]), g.left_limit(F.breaks[1:])))


def _searched_gaps(f: PLF, g: PLF) -> list[float]:
    """Gaps and distances at p in {1, 1.5, 2, 3}."""
    mu, nu = Measure(Domain.REAL_LINE, f), Measure(Domain.REAL_LINE, g)
    out = []
    for p in (1.0, 1.5, 2.0, 3.0):
        out += [abs_pow_gap(f, g, p), wasserstein_distance(mu, nu, p)]
    return out


def _assert_gaps_match_the_searched_grid(f: PLF, g: PLF) -> None:
    got = _searched_gaps(f, g)
    with mock.patch("wasserline.plf.on_common_grid", ref.union_on_common_grid):
        want = _searched_gaps(f, g)
    assert all(same_bits(x, y) for x, y in zip(got, want))


def _large_merged_pairs() -> list[tuple[PLF, PLF]]:
    """2^16-atom quantiles merged with a 3·2^14-atom one, one on every
    fourth break, and ramps, flats and jumps."""
    rng = np.random.default_rng(20200204)
    n = 2**16
    pos = rng.normal(size=n)
    pos[:50] = -0.0  # one tied atom at -0.0
    a = DiscreteMeasure(pos, np.full(n, 1.0 / n)).to_measure().quantile
    # dyadic weights four times as large: from 52/n on, every fourth break of a
    c = DiscreteMeasure(rng.normal(size=n // 4), np.full(n // 4, 4.0 / n)).to_measure().quantile
    m = 3 * n // 4
    b = DiscreteMeasure(rng.normal(1.0, 2.0, size=m), rng.dirichlet(np.ones(m))).to_measure().quantile
    # ramps, flats and jumps on a's breaks
    k = 2 * a.num_segments
    nodes = np.cumsum(np.where(rng.random(k) < 0.3, 0.0, rng.random(k))) - float(n) / 2
    ramp = PLF(a.breaks, nodes[0::2], nodes[1::2])
    return [(a, b), (b, a), (a, c), (c, a), (ramp, b), (c, ramp)]


def test_large_merged_pairs_match_the_searched_grid():
    for f, g in _large_merged_pairs():
        for got, want in zip(on_common_grid(f, g), ref.union_on_common_grid(f, g)):
            assert same_plf(got, want)
        _assert_gaps_match_the_searched_grid(f, g)


# SHA-256 of wasserstein_distance(x, y, p).hex() over _large_merged_pairs(),
# each pair in both argument orders at p in {1, 1.5, 2, 3}; like the other
# pins, p not in {1, 2} depends on the NumPy build's power kernel
LARGE_MERGED_SHA256 = "a65dadd60ff7b6c1733fd68506d7de34c8c74a64e59176f53b20004776153f4b"


def test_large_merged_distances_are_bit_stable():
    """The multi-window distances, pinned apart from ``on_common_grid``,
    which the one-pass references above share with the library."""
    h = hashlib.sha256()
    for f, g in _large_merged_pairs():
        mu, nu = Measure(Domain.REAL_LINE, f), Measure(Domain.REAL_LINE, g)
        for p in (1.0, 1.5, 2.0, 3.0):
            for x, y in ((mu, nu), (nu, mu)):
                h.update(wasserstein_distance(x, y, p).hex().encode())
    assert h.hexdigest() == LARGE_MERGED_SHA256


# SHA-256 of flip(u)'s breaks, yl and yr and of cdf_eval(u, points), for a
# 10^5-atom Dirichlet-weighted unit measure built from tuples, as the
# large-empirical benchmark builds it
LARGE_FLIP_CDF_SHA256 = "3f8ed1ba87430c9254b4aa0761857be630f65506d69fdfc93cf7fe0daaf32a26"


def test_large_flip_and_cdf_are_bit_stable():
    """An inverse of 10^5 cells, pinned: the seed-0 suites invert none so large."""
    rng = np.random.default_rng(20200227)
    pos = np.unique(rng.uniform(0.0, 1.0, 10**5))
    u = from_atoms(zip(pos, rng.dirichlet(np.ones(len(pos)))), Domain.UNIT_INTERVAL)
    points = rng.uniform(-0.05, 1.05, 10**5)
    f = flip(u).quantile
    h = hashlib.sha256()
    for a in (f.breaks, f.yl, f.yr, cdf_eval(u, points)):
        h.update(a.tobytes())
    assert h.hexdigest() == LARGE_FLIP_CDF_SHA256


def _gap_in_one_pass(f: PLF, g: PLF, p: float) -> float:
    F, G = on_common_grid(f, g)
    return float(np.sum(abs_pow_cells(np.diff(F.breaks), F.yl - G.yl, F.yr - G.yr, p)))


def _pair_with_cells(rng: np.random.Generator, n: int) -> tuple[PLF, PLF]:
    """A ramp with flats and jumps on n-1 cells of [0, 1], and a function
    with one break off the ramp's that crosses it: n merged cells."""
    inner = np.unique(rng.random(n - 2) * 0.5 + 0.25)
    assert len(inner) == n - 2
    nodes = np.cumsum(np.where(rng.random(2 * n - 2) < 0.3, 0.0, rng.random(2 * n - 2))) - float(n) / 2
    f = PLF(np.concatenate([[0.0], inner, [1.0]]), nodes[0::2], nodes[1::2])
    g = PLF([0.0, 0.125, 1.0], [-float(n), 0.0], [0.0, float(n)])
    return f, g


def _ramp(rng: np.random.Generator, breaks: np.ndarray) -> PLF:
    """Random ramps, flats and jumps on ``breaks``."""
    k = 2 * (len(breaks) - 1)
    nodes = np.cumsum(np.where(rng.random(k) < 0.3, 0.0, rng.random(k))) - float(k) / 4
    return PLF(breaks, nodes[0::2], nodes[1::2])


def _steps(rng: np.random.Generator, breaks: np.ndarray) -> PLF:
    """A step function on ``breaks``: one value array for both ends."""
    v = np.cumsum(rng.random(len(breaks) - 1))
    return PLF._trusted(breaks, v, v)


def _window_edge_pairs(rng: np.random.Generator) -> list[tuple[PLF, PLF]]:
    """Pairs whose merge spans several windows, built around the window
    edges (every ``_GAP_BLOCK``-th break of the function with more)."""
    m = _GAP_BLOCK
    # dyadic lead on [0, 1] with edges at 1/4, 1/2 and 3/4; the other
    # holds each edge, the lead's breaks on both sides of it and a break
    # off the lead (the last pair's edges are not the other's breaks)
    lead = np.arange(4 * m + 1) / (4 * m)
    ties = np.array([j * m + d for j in (1, 2, 3) for d in (-1, 0, 1)])
    tied = np.sort(np.concatenate([[0.0, 0.5 + 2.0**-20, 1.0], lead[ties]]))
    # on [-1, 1] the middle edge is 0.0, and the other holds -0.0 there: the
    # node keeps f's copy in either argument order
    signed = np.arange(2 * m + 1) / m - 1.0
    zero = np.array([-1.0, -(2.0**-15), -0.0, 2.0**-15, 1.0])
    # a rising segment of the other spans every edge, so each edge node of
    # the other is interpolated
    spanning = np.array([0.0, 0.125, 1.0])
    return [
        (_ramp(rng, lead), _ramp(rng, tied)),
        (_steps(rng, lead), _ramp(rng, tied)),
        (_steps(rng, lead), _steps(rng, tied)),
        (_ramp(rng, signed), _ramp(rng, zero)),
        (_ramp(rng, lead), PLF(spanning, [-1.0, 0.0], [0.0, 1.0])),
    ]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_blocked_gap_matches_the_one_pass_sum(p):
    """``abs_pow_gap`` merges, regrids and computes the cells one window of
    ``_GAP_BLOCK`` lead breaks at a time (a shared grid in blocks of
    ``_GAP_BLOCK`` cells), and gives the bits of one pass over the whole
    merged grid: at window edges that are or are not the other function's
    breaks, with ties and a signed zero on an edge, with an edge inside
    the other's rising segment, with leads of one cell short of, equal to
    and one past a window, and on merges of several windows with a partial
    last one, in both argument orders."""
    rng = np.random.default_rng(7)
    m = _GAP_BLOCK
    sized = [_pair_with_cells(rng, n) for n in (m - 1, m, m + 1, m + 2)]
    assert [max(f.num_segments, g.num_segments) for f, g in sized[1:]] == [m - 1, m, m + 1]
    pairs = _large_merged_pairs() + sized + _window_edge_pairs(rng)
    cells = [on_common_grid(f, g)[0].num_segments for f, g in pairs]
    assert cells[6:9] == [m - 1, m, m + 1]
    assert any(n > 4 * m and n % m for n in cells)
    for f, g in pairs:
        for x, y in ((f, g), (g, f)):
            assert same_bits(abs_pow_gap(x, y, p), _gap_in_one_pass(x, y, p))


def test_merged_windows_are_slices_of_the_whole_grid():
    """Each window's grid and values are the bits of the one-shot merge
    and regrid over its cells, and the windows tile the merged grid."""
    rng = np.random.default_rng(11)
    pairs = [_pair_with_cells(rng, n) for n in (_GAP_BLOCK + 2, 3 * _GAP_BLOCK)] + _window_edge_pairs(rng)
    for f, g in pairs:
        for x, y in ((f, g), (g, f)):
            F, G = on_common_grid(x, y)
            e, windows = 0, 0
            for grid, fl, fr, gl, gr in _merged_windows(x, y):
                n = len(fl)
                assert same_bits(grid[:-1], F.breaks[e : e + n]) and grid[-1] == F.breaks[e + n]
                for got, want in ((fl, F.yl), (fr, F.yr), (gl, G.yl), (gr, G.yr)):
                    assert same_bits(got, want[e : e + n])
                e, windows = e + n, windows + 1
            assert e == F.num_segments and windows > 1


# ----------------------------------------------------------------------
# step functions: one value array for yl and yr


def _separate(mu: Measure) -> Measure:
    """``mu`` with ``yl`` and ``yr`` as two arrays, which takes the general
    path of the grid and the kernel.  The validating ``PLF`` keeps one
    array given as both sides, so ``yr`` goes in as a copy."""
    q = mu.quantile
    nu = Measure(mu.domain, PLF(q.breaks, q.yl, q.yr.copy()))
    assert nu.quantile.yl is not nu.quantile.yr
    return nu


def _gaps_and_kernel_ends(mu: Measure, nu: Measure) -> tuple[list[float], list[bool]]:
    """Distances at p in {1, 1.5, 2, 3}, and for each kernel call whether
    it took one array for both ends of its cells."""
    shared = []

    def spy(w, a, b, p):
        shared.append(b is a)
        return abs_pow_cells(w, a, b, p)

    with mock.patch("wasserline.plf.abs_pow_cells", spy):
        dists = [wasserstein_distance(mu, nu, p) for p in (1.0, 1.5, 2.0, 3.0)]
    return dists, shared


def _equal_weights(pos: np.ndarray) -> Measure:
    return DiscreteMeasure(pos, np.full(len(pos), 1.0 / len(pos))).to_measure()


@st.composite
def step_pairs(draw) -> tuple[Measure, Measure, bool]:
    """Pairs of measures on the line and whether both are discrete:
    atoms at +-0.0, pairs on one grid, grids longer than ``_GAP_BLOCK``,
    and a discrete measure against a continuous one."""
    kind = draw(st.sampled_from(["atoms", "shared_grid", "large", "mixed"]))
    if kind == "atoms":
        (p, w), (q, v) = draw(atom_arrays()), draw(atom_arrays())
        return DiscreteMeasure(p, w).to_measure(), DiscreteMeasure(q, v).to_measure(), True
    if kind == "shared_grid":
        n = draw(st.integers(1, 12))
        x, y = (np.array(draw(st.lists(_POSITIONS, min_size=n, max_size=n, unique=True))) for _ in range(2))
        return _equal_weights(x), _equal_weights(y), True
    if kind == "large":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(_GAP_BLOCK // 2 + 1, 2 * _GAP_BLOCK))
        a = rng.normal(size=n)
        a[: n // 4] = np.where(rng.random(n // 4) < 0.5, -0.0, 0.0)  # one atom at a zero
        mu = _equal_weights(a)
        if draw(st.booleans()):
            return mu, _equal_weights(rng.normal(0.5, 2.0, size=n)), True
        return mu, DiscreteMeasure(rng.normal(size=n), rng.dirichlet(np.ones(n))).to_measure(), True
    p, w = draw(atom_arrays())
    mixed = [DiscreteMeasure(p, w).to_measure(), Measure(Domain.REAL_LINE, draw(plfs()))]
    if draw(st.booleans()):
        mixed.reverse()
    return *mixed, False


@settings(max_examples=200, deadline=None)
@given(step_pairs())
def test_step_pairs_match_the_general_path(pair):
    """Two step functions regrid to one shared value array each and take
    the kernel's flat formula alone; the same measures with separate
    ``yl`` and ``yr`` take the general path, with the same bits."""
    mu, nu, steps = pair
    F, G = on_common_grid(mu.quantile, nu.quantile)
    sF, sG = on_common_grid(_separate(mu).quantile, _separate(nu).quantile)
    assert same_plf(F, sF) and same_plf(G, sG)
    assert (F.yl is F.yr and G.yl is G.yr) == steps
    got, shared = _gaps_and_kernel_ends(mu, nu)
    want, separate = _gaps_and_kernel_ends(_separate(mu), _separate(nu))
    assert all(same_bits(x, y) for x, y in zip(got, want))
    assert shared == [steps] * len(shared) and not any(separate)
    if F.num_segments > _GAP_BLOCK:
        assert len(shared) > 4


def test_discrete_measures_keep_one_value_array_on_the_common_grid():
    mu = from_atoms([(-0.0, 0.25), (1.0, 0.5), (3.0, 0.25)])
    nu = DiscreteMeasure(np.array([2.0, 0.5]), np.array([0.3, 0.7])).to_measure()
    F, G = on_common_grid(mu.quantile, nu.quantile)
    assert F.num_segments == 4
    assert F.yl is F.yr and G.yl is G.yr


def _step_maps(mu: Measure, nu: Measure) -> dict:
    """The value maps and nonnegative blends of two measures on the line."""
    return {
        "map_values": lambda: Measure(mu.domain, mu.quantile.map_values(2.5, -1.0)),
        "translation": lambda: apply(Translation(nu), mu),
        "hull": lambda: convex_hull_combination([(mu, 0.25), (nu, 0.75)]),
        "geodesic": lambda: geodesic_point(mu, nu, 0.3),
        "reflection": lambda: pushforward_affine(mu, -1, 2.0),
    }


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_value_maps_and_blends_of_step_functions_keep_their_bits(seed):
    rng = np.random.default_rng(seed)
    mu, nu = sampling.random_discrete_measure(rng), sampling.random_discrete_measure(rng)
    shared, separate = _step_maps(mu, nu), _step_maps(_separate(mu), _separate(nu))
    for name in shared:
        assert same_measure(shared[name](), separate[name]())


@pytest.mark.parametrize("shared", [False, True])
def test_a_merged_run_of_signed_zeros_keeps_both_ends(shared):
    # the flats at -0.0 and 0.0 merge (they compare equal), and the merged
    # cell keeps -0.0 on the left and 0.0 on the right, as two arrays
    v = np.array([-0.0, 0.0])
    q = PLF._trusted(np.array([0.0, 0.5, 1.0]), v, v) if shared else PLF([0, 0.5, 1], [-0.0, 0.0], [-0.0, 0.0])
    got = Measure(Domain.REAL_LINE, q).quantile
    assert got.yl is not got.yr
    assert same_bits(got.yl, np.array([-0.0])) and same_bits(got.yr, np.array([0.0]))


@st.composite
def step_plfs(draw) -> tuple[PLF, PLF]:
    """A step function on [0, 1] with runs of equal values, zeros of both
    signs and constants, as one array for both sides and as two."""
    f = draw(plfs())
    return PLF(f.breaks, f.yl, f.yl), PLF(f.breaks, f.yl, f.yl.copy())


@settings(max_examples=200, deadline=None)
@given(step_plfs())
def test_step_inverse_matches_the_interleaved_one(pair):
    step, two = pair
    assert step.yl is step.yr and two.yl is not two.yr
    got, want = _outcome(PLF.inverse, step), _outcome(PLF.inverse, two)
    if isinstance(got, type):  # a constant, on both paths
        assert want is got
    else:
        assert same_plf(got, want) and got.yl is got.yr and want.yl is not want.yr


@settings(max_examples=200, deadline=None)
@given(step_plfs(), st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.0, 0.25, 3.0]))
def test_step_padded_inverse_matches_the_general_one(pair, below, above):
    step, two = pair
    v0, v1 = step.value_range
    lo, hi = v0 - below, v1 + above
    if lo == hi:  # a constant needs a pad
        hi = v1 + 1.0
    got, want = step.padded_inverse(lo, hi), two.padded_inverse(lo, hi)
    assert same_plf(got, want)
    # a constant's window is its two pads, step functions either way
    assert got.yl is got.yr and (want.yl is not want.yr) == (v0 < v1)


@settings(max_examples=200, deadline=None)
@given(step_plfs(), st.lists(st.floats(0.0, 1.0), max_size=6))
def test_step_eval_matches_the_interpolated_one(pair, drawn):
    step, two = pair
    b = step.breaks
    # every break, the top one included, and the middle of every cell,
    # some of them inside flats at -0.0 or 0.0
    points = np.concatenate([b, 0.5 * (b[:-1] + b[1:]), drawn])
    assert same_bits(step.eval(points), two.eval(points))
    for t in points:
        assert same_bits(step.eval(float(t)), two.eval(float(t)))


@settings(max_examples=200, deadline=None)
@given(step_plfs())
def test_step_canonical_matches_the_general_one(pair):
    step, two = pair
    # no equal neighbours: nothing merges, and self comes back, as does
    # Measure(...); a merged run keeps both ends, as two arrays
    # (test_a_merged_run_of_signed_zeros_keeps_both_ends)
    distinct = bool((step.yl[1:] != step.yl[:-1]).all())
    want = two.canonical()
    for got in (step.canonical(), Measure(Domain.REAL_LINE, step).quantile):
        assert same_plf(got, want) and (got is step) == distinct == (got.yl is got.yr)


@settings(max_examples=200, deadline=None)
@given(step_plfs(), st.data())
def test_concatenated_step_functions_keep_one_array(pair, data):
    step, _ = pair
    m = step.num_segments
    cuts = sorted(set(data.draw(st.lists(st.integers(1, m), max_size=3))) | {0, m})
    shared = [data.draw(st.booleans()) for _ in cuts[1:]]
    pieces, separate = [], []
    for (i, j), one in zip(zip(cuts, cuts[1:]), shared):
        v = step.yl[i:j]
        pieces.append(PLF(step.breaks[i : j + 1], v, v if one else v.copy()))
        separate.append(PLF(step.breaks[i : j + 1], v, v.copy()))
    got = concat_plfs(pieces)
    assert same_plf(got, concat_plfs(separate)) and same_plf(got, step)
    assert (got.yl is got.yr) == all(shared)


# every function that branches on a step function: an ``is`` or ``is not``
# between ``yl`` and ``yr`` (names or attributes), or between the
# kernel's ``a`` and ``b``; each read has its case in the differentials
_STEP_SITES = {
    "plf.PLF.__post_init__", "plf.PLF._trusted", "plf.PLF.eval", "plf.PLF.on_grid", "plf.PLF.inverse",
    "plf.PLF.canonical", "plf.concat_plfs", "plf._without_empty_cells", "plf._power_cells",
    "plf.abs_pow_cells", "plf._on_window", "plf.abs_pow_gap", "measures.Measure.is_discrete",
}


def _step_sites(tree: ast.AST, scope: str) -> set[str]:
    """The functions under ``tree``, named from ``scope``, that branch on a step function."""
    sites = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            sites |= _step_sites(node, f"{scope}.{node.name}")
            continue
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            names = {getattr(x, "id", None) or getattr(x, "attr", None) for x in (node.left, *node.comparators)}
            if names in ({"yl", "yr"}, {"a", "b"}):
                sites.add(scope)
        sites |= _step_sites(node, scope)
    return sites


def test_every_step_function_branch_is_a_listed_site():
    src = Path(wasserline.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= _step_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == _STEP_SITES


@st.composite
def discrete_unit_measures(draw) -> Measure:
    """Discrete measures on [0, 1], Diracs and atoms at -0.0, 0 and 1 among them."""
    pos = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25]), st.floats(0.0, 1.0)),
                        min_size=1, max_size=20))
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=len(pos), max_size=len(pos))))
    return DiscreteMeasure(np.array(pos), raw / raw.sum()).to_measure(Domain.UNIT_INTERVAL)


@settings(max_examples=200, deadline=None)
@given(discrete_unit_measures(), st.lists(st.floats(-0.5, 1.5), max_size=6))
def test_flip_and_cdf_of_a_discrete_measure_match_the_general_path(mu, drawn):
    nu = _separate(mu)
    f, g = flip(mu), flip(nu)
    assert same_measure(f, g)
    # a Dirac's flip is its two pads, step functions either way
    assert f.quantile.yl is f.quantile.yr
    assert (g.quantile.yl is not g.quantile.yr) == (mu.quantile.num_segments > 1)
    # a flipped discrete measure is discrete: its own flip and distances
    # take the step path too
    assert same_measure(flip(f), flip(_separate(f)))
    a = mu.quantile.yl
    points = np.concatenate([a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf), [-0.0, 0.0, 1.0], drawn])
    assert same_bits(cdf_eval(mu, points), cdf_eval(nu, points))


def test_flip_of_a_mixed_measure_keeps_two_arrays():
    rng = np.random.default_rng(20200227)
    for _ in range(20):
        mu = sampling.random_unit_measure(rng)
        if not mu.is_discrete:
            q = flip(mu).quantile
            assert q.yl is not q.yr


def _three_array_equality(f: PLF, g: PLF) -> bool:
    """``PLF.equals`` as three full-array compares."""
    return bool(
        len(f.breaks) == len(g.breaks)
        and (f.breaks == g.breaks).all()
        and (f.yl == g.yl).all()
        and (f.yr == g.yr).all()
    )


def _middle_flattened(f: PLF) -> PLF:
    """``f`` with its middle value node set to the one before: the same
    length and, unless it has one segment, the same end values."""
    nodes = _nodes(f.yl, f.yr)
    nodes[len(nodes) // 2] = nodes[len(nodes) // 2 - 1]
    return PLF(f.breaks, nodes[0::2], nodes[1::2])


_EQUALS_VARIANTS = {
    "itself": lambda f: f,
    "separate": lambda f: PLF(f.breaks, f.yl, f.yr),
    "positive_zeros": lambda f: f.map_values(1.0, 0.0),  # -0.0 + 0.0 is 0.0
    "shifted": lambda f: f.map_values(1.0, 0.5),
    "refined": lambda f: f.refine([0.3]),
    "middle_flattened": _middle_flattened,
}


def test_equals_keeps_the_three_array_truth_table():
    """Values compare as numbers (0.0 == -0.0); a pair on the same
    positions with other weights has equal ``yl`` and other breaks."""
    pos = np.array([-0.0, 0.5, 2.0, 3.0])
    discrete = DiscreteMeasure(pos, np.full(4, 0.25)).to_measure().quantile
    reweighted = DiscreteMeasure(pos, np.array([0.5, 0.25, 0.125, 0.125])).to_measure().quantile
    cont = PLF([0.0, 0.25, 0.5, 1.0], [-0.0, 0.0, 0.5], [0.0, 0.5, 1.0])
    for f in (discrete, cont, PLF([0.0, 1.0], [-0.0], [1.0])):
        for g in [variant(f) for variant in _EQUALS_VARIANTS.values()] + [reweighted]:
            assert f.equals(g) == g.equals(f) == _three_array_equality(f, g)
        mu = Measure(Domain.REAL_LINE, f)
        assert mu.is_discrete == bool((f.yl == f.yr).all())


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_an_overflowing_gap_reads_inf_on_both_paths(p):
    # at p = 2 the general path's polynomial forms inf - inf for the rise
    mu, nu = from_atoms([(1e308, 1.0)]), from_atoms([(-1e308, 1.0)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert wasserstein_distance(mu, nu, p) == np.inf
        assert wasserstein_distance(_separate(mu), _separate(nu), p) == np.inf


def _many_segments(rng: np.random.Generator) -> PLF:
    """A PLF on [0, 1] with more breaks than the sorted-search floor,
    flats, jumps and signed zeros."""
    inner = np.concatenate([[0.125, 0.25, 0.5, 0.75], rng.random(_SORTED_SEARCH_MIN + int(rng.integers(0, 300)))])
    breaks = np.unique(np.concatenate([[0.0, 1.0], inner]))
    steps = np.where(rng.random(2 * (len(breaks) - 1)) < 0.3, 0.0, rng.random(2 * (len(breaks) - 1)))
    steps[:4] = 0.0
    nodes = np.cumsum(steps)
    nodes[:2] = -0.0
    return PLF(breaks, nodes[0::2], nodes[1::2])


def _search_keys(rng: np.random.Generator, f: PLF) -> np.ndarray:
    """More keys than the sorted-search floor, unsorted, with duplicates,
    exact breaks, signed zeros, values outside the domain, +-inf and NaN."""
    n = 2 * (_SORTED_SEARCH_MIN + int(rng.integers(0, 300)))
    keys = rng.uniform(-0.1, 1.1, n)
    keys[rng.choice(n, n // 4, replace=False)] = rng.choice(f.breaks, n // 4)
    keys[rng.choice(n, n // 8, replace=False)] = keys[rng.choice(n, n // 8)]
    special = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan])
    keys[rng.choice(n, 24, replace=False)] = rng.choice(special, 24)
    return keys


@settings(max_examples=60, deadline=None)
@given(plfs(), st.integers(0, 2**32 - 1))
def test_sorted_key_search_matches_the_direct_one(few, seed):
    # few breaks search directly, many search in sorted order
    rng = np.random.default_rng(seed)
    for f in (few, _many_segments(rng)):
        keys = _search_keys(rng, f)
        # the reads reject NaN (and eval, left_limit and prefix_integrals
        # points outside the domain); the raw search takes every key
        x = np.where((keys >= 0.0) & (keys <= 1.0), keys, 0.5)
        y = np.where(np.isnan(keys), 0.5, keys)
        mu = Measure(Domain.REAL_LINE, f)

        def reads():
            return [
                f._segment_index(keys, "right"),
                f._segment_index(keys, "left"),
                f.eval(x),
                f.eval(x.reshape(2, -1)[:, ::-1]),
                f.left_limit(x),
                f.prefix_integrals(x),
                cdf_eval(mu, y),
                cdf_eval(mu, np.sort(y)),
            ]

        got = reads()
        with mock.patch.object(PLF, "_segment_index", ref.segment_index):
            want = reads()
        assert all(same_bits(a, b) for a, b in zip(got, want))


_CELL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e6, 1e6, allow_subnormal=False),
)


@st.composite
def cells(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Widths and endpoint values: generic, crossing, equal and near-parallel."""
    n = draw(st.integers(1, 12))
    w = np.array(draw(st.lists(st.floats(1e-6, 2.0), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(_CELL_VALUES, min_size=n, max_size=n)))
    kind = draw(st.lists(st.sampled_from(["free", "equal", "near", "negated"]), min_size=n, max_size=n))
    eps = np.array(draw(st.lists(st.floats(1e-12, 1e-6), min_size=n, max_size=n)))
    free = np.array(draw(st.lists(_CELL_VALUES, min_size=n, max_size=n)))
    kind = np.array(kind)
    b = np.select([kind == "equal", kind == "near", kind == "negated"], [a, a * (1.0 + eps), -a], free)
    return w, a, b


@pytest.mark.parametrize("p", [1.5, 3.0])
@settings(max_examples=150, deadline=None)
@given(c=cells())
def test_abs_pow_cells_match_both_branches(p, c):
    w, a, b = c
    assert same_bits(abs_pow_cells(w, a, b, p), ref.abs_pow_cells(w, a, b, p))
    # 2-D broadcasting, as the stacked midpoint probe uses it
    a2 = np.stack([a, b, -a])
    b2 = b[None, :]
    assert same_bits(abs_pow_cells(w, a2, b2, p), ref.abs_pow_cells(w, a2, b2, p))
    # 0-d inputs give the one-cell array's value; the old code sent them
    # through NumPy's scalar power, which can differ from the array power
    # in the last ulp
    assert same_bits(abs_pow_cells(w[0], a[0], b[0], p), ref.abs_pow_cells(w[:1], a[:1], b[:1], p)[0])


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
@settings(max_examples=100, deadline=None)
@given(c=cells())
@example(c=(np.array([1.0, 0.5, 2.0, 0.25]), np.array([0.0, -0.0, -0.0, 0.0]), np.array([-0.0, 0.0, -0.0, 1.0])))
def test_one_kind_power_cells_match_the_masked_path(p, c):
    """Cells all steep or all flat take whole arrays; one cell of the
    other kind appended forces the masked path, whose other cells must
    have the same bits.  0-d and broadcast operands keep the masked path,
    since NumPy's scalar power can differ from the array power in the
    last ulp."""
    w, a, b = c
    steep = np.abs(b - a) > 1e-9 * np.maximum(np.abs(a), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat cell at zero: inf for r < 0, nan signed
        for kind, (oa, ob) in ((steep, (0.5, 0.5)), (~steep, (1.0, 2.0))):
            if not kind.any():
                continue
            wk, ak, bk = w[kind], a[kind], b[kind]
            for signed in (False, True):
                for r in (p, p - 1.0, p - 2.0):
                    got = _power_cells(wk, ak, bk, r, signed)
                    mixed = _power_cells(np.append(wk, 1.0), np.append(ak, oa), np.append(bk, ob), r, signed)
                    assert same_bits(got, mixed[:-1])
                    w0, a0, b0 = np.asarray(wk[0]), np.asarray(ak[0]), np.asarray(bk[0])
                    assert same_bits(_power_cells(w0, a0, b0, r, signed), got[0])
                    assert same_bits(_power_cells(w0, a0, np.repeat(b0, 3), r, signed), np.repeat(got[:1], 3))
                    assert same_bits(_power_cells(wk, ak[None, :], np.stack([bk, bk]), r, signed), np.stack([got, got]))


def _mp_p2_cells_ok(got, w, a, b) -> bool:
    """Each cell within 4 ulps relative of the 50-digit w*(a^2+ab+b^2)/3;
    where the squares underflow, within 4 units of the least subnormal."""
    got, w, a, b = np.broadcast_arrays(got, w, a, b)
    with mpmath.workdps(50):
        for g, *x in zip(got.ravel(), w.ravel(), a.ravel(), b.ravel()):
            w_, a_, b_ = map(mpmath.mpf, map(float, x))
            want = w_ * (a_ * a_ + a_ * b_ + b_ * b_) / 3
            if abs(mpmath.mpf(float(g)) - want) > 4 * np.finfo(float).eps * want + 4 * mpmath.mpf(2) ** -1074:
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(c=cells())
def test_p2_cells_against_mpmath(c):
    # the polynomial m^2 + d^2/12 cannot cancel: near-parallel and crossing
    # cells are as accurate as the rest
    w, a, b = c
    assert _mp_p2_cells_ok(abs_pow_cells(w, a, b, 2.0), w, a, b)
    # 2-D broadcasting, as the stacked midpoint probe uses it
    a2 = np.stack([a, b, -a])
    b2 = b[None, :]
    assert _mp_p2_cells_ok(abs_pow_cells(w, a2, b2, 2.0), w, a2, b2)
    assert _mp_p2_cells_ok(abs_pow_cells(w[0], a[0], b[0], 2.0), w[0], a[0], b[0])


def _mp_l1_cell(w: float, a: float, b: float):
    """50-digit quadrature of |a + (b - a) t| * w over [0, 1], split at the root."""
    with mpmath.workdps(50):
        a, b, w = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(w)
        f = lambda t: abs(a + (b - a) * t) * w  # noqa: E731
        if a * b < 0:
            root = a / (a - b)
            return mpmath.quad(f, [0, root, 1])
        return mpmath.quad(f, [0, 1])


def _ulps_rel(got: float, want) -> float:
    if want == 0:
        return 0.0 if got == 0.0 else float("inf")
    return float(abs((mpmath.mpf(got) - want) / want)) / np.finfo(float).eps


def _mp_l1_cells_ok(got, w, a, b) -> bool:
    """Each cell within 4 ulps relative of the 50-digit integral of |l|:
    w(|a|+|b|)/2 where a and b share a sign, w(a^2+b^2)/(2(|a|+|b|))
    where l crosses zero.  A product below the normal range rounds to a
    multiple of the least subnormal u: the cell by up to 4u, and a
    crossing cell, whose numerator w(a^2+b^2) takes three such roundings
    before the division by 2(|a|+|b|), and whose sign test reads an ab
    under u/2 as zero, by up to (1+w)u/(|a|+|b|) more."""
    u = mpmath.mpf(2) ** -1074
    got, w, a, b = np.broadcast_arrays(got, w, a, b)
    with mpmath.workdps(50):
        for g, *x in zip(got.ravel(), w.ravel(), a.ravel(), b.ravel()):
            w_, a_, b_ = map(mpmath.mpf, map(float, x))
            s = abs(a_) + abs(b_)
            if a_ * b_ < 0:
                want = w_ * (a_ * a_ + b_ * b_) / (2 * s)
                tol = 4 * np.finfo(float).eps * want + 4 * u + (1 + w_) * u / s
            else:
                want = w_ * s / 2
                tol = 4 * np.finfo(float).eps * want + 4 * u
            if not abs(mpmath.mpf(float(g)) - want) <= tol:  # NaN fails too
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    w=st.floats(1e-3, 2.0),
    a=st.floats(1e-6, 1e6).flatmap(lambda m: st.sampled_from([m, -m])),
    rel=st.one_of(st.floats(1e-10, 1e-6), st.floats(-1e-6, -1e-10), st.floats(-3.0, 3.0)),
    c=cells(),
)
@example(w=1.0, a=1.0, rel=-2.0, c=(np.array([1.0, 0.5, 2.0, 0.25]), np.array([0.0, -0.0, -0.0, 1.0]), np.array([-0.0, 0.0, 1.0, -1.0])))
def test_w1_cells_against_mpmath(w, a, rel, c):
    # rel near 0 is the near-parallel case that used to cancel; rel below
    # -1 crosses zero
    b = a * (1.0 + rel)
    got = float(abs_pow_cells(np.array([w]), np.array([a]), np.array([b]), 1.0)[0])
    assert _ulps_rel(got, _mp_l1_cell(w, a, b)) <= 4.0
    # zero, signed-zero, equal, negated and crossing cells, and the 2-D
    # broadcast of the stacked midpoint probe
    w, a, b = c
    assert _mp_l1_cells_ok(abs_pow_cells(w, a, b, 1.0), w, a, b)
    a2 = np.stack([a, b, -a])[:, None, :]
    b2 = np.stack([b, a])[None, :, :]
    assert _mp_l1_cells_ok(abs_pow_cells(w, a2, b2, 1.0), w, a2, b2)


@pytest.mark.xfail(strict=True, reason="ab underflows to -0.0, so the cell reads as a trapezoid (FOUND line on abs_pow_cells in CHANGES.md)")
def test_w1_cell_crossing_below_the_square_root_of_the_normal_range():
    a = 6.59439833e-212
    got = float(abs_pow_cells(np.array([1.0]), np.array([a]), np.array([-a]), 1.0)[0])
    assert _ulps_rel(got, _mp_l1_cell(1.0, a, -a)) <= 4.0


def _near_parallel_pair() -> tuple[Measure, Measure, float]:
    """uniform[0, 1] and uniform[10, c]: the gap 10 + (c - 11) y never
    changes sign, and the divided difference of the power primitive lost
    digits on it."""
    c = 11.0 + 1.2e-8
    mu = Measure(Domain.REAL_LINE, PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0])))
    nu = Measure(Domain.REAL_LINE, PLF(np.array([0.0, 1.0]), np.array([10.0]), np.array([c])))
    return mu, nu, c


def test_near_parallel_w1_distance_against_mpmath():
    mu, nu, c = _near_parallel_pair()
    with mpmath.workdps(50):
        want = 10 + (mpmath.mpf(c) - 11) / 2
    assert _ulps_rel(wasserstein_distance(mu, nu, 1.0), want) <= 4.0


def test_near_parallel_w2_distance_against_mpmath():
    # the old kernel was off by a relative 2.4e-9 here
    mu, nu, c = _near_parallel_pair()
    with mpmath.workdps(50):
        s = mpmath.mpf(c) - 11
        want = mpmath.sqrt(100 + 10 * s + s * s / 3)
    assert _ulps_rel(wasserstein_distance(mu, nu, 2.0), want) <= 4.0


# ----------------------------------------------------------------------
# discrete constructors


def _check_constructors(pos: np.ndarray, w: np.ndarray) -> None:
    d = DiscreteMeasure(pos, w)
    want_pos, want_w = ref.discrete_arrays(pos, w)
    assert same_bits(d.positions, want_pos) and same_bits(d.weights, want_w)
    for domain in {Domain.REAL_LINE, _domain_for(pos)}:
        atoms = list(zip(pos.tolist(), w.tolist()))
        want = ref.from_atoms(atoms, domain=domain)
        assert same_measure(d.to_measure(domain), want)
        mu = from_atoms(atoms, domain=domain)
        assert same_measure(mu, want)
        back = DiscreteMeasure.from_measure(mu)
        back_pos, back_w = ref.from_measure(mu)
        assert same_bits(back.positions, back_pos) and same_bits(back.weights, back_w)


def _atoms_with_tiny_weights(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Distinct positions in [0, 1]; weights j/m that sum to one, then
    weights near or below one ulp of one.  The running total passes one
    before the last atom on a few percent of these."""
    m = int(rng.integers(2, 201))
    cuts = rng.choice(np.arange(1, m), size=int(rng.integers(0, min(5, m - 1) + 1)), replace=False)
    big = np.diff([0, *sorted(cuts), m]) / m
    tiny = 10.0 ** rng.uniform(np.where(rng.random(4) < 0.5, -17.0, -300.0), np.log10(4e-16))
    w = np.concatenate([big, tiny[: rng.integers(1, 5)]])
    if rng.random() < 0.5:
        w = rng.permutation(w)
    return np.arange(len(w)) / len(w), w


def test_the_cdf_at_each_atom_is_the_running_total_up_to_one():
    # cells that a tiny weight leaves empty, or that come after the running
    # total reached one, are dropped: the quantile keeps the other atoms,
    # and the CDF still reads the running total, capped at one, at every
    # atom
    rng = np.random.default_rng(20200202)
    cases = [(np.arange(4) / 4.0, np.array([0.27142857142857146, 0.7285714285714286, 1.2e-16, 1e-300]))]
    for arrays in cases + [_atoms_with_tiny_weights(rng) for _ in range(300)]:
        d = DiscreteMeasure(*arrays)
        total = np.cumsum(d.weights)
        total[-1] = 1.0
        for domain in (Domain.REAL_LINE, Domain.UNIT_INTERVAL):
            for mu in (from_atoms(zip(*arrays), domain=domain), d.to_measure(domain)):
                q = mu.quantile
                assert same_bits(q.yl, q.yr) and np.isin(q.yl, d.positions).all()
                assert same_bits(cdf_eval(mu, d.positions), np.minimum(total, 1.0))


def test_signed_zero_ties_keep_the_first_in_input_order():
    w = np.full(4, 0.25)
    for pos in ([-0.0, 1.0, 0.0, 0.0], [0.0, -0.0, -0.0, 2.0], [1.0, 0.0, -0.0, 0.0]):
        pos = np.array(pos)
        d = DiscreteMeasure(pos, w)
        first_zero = pos[pos == 0.0][0]
        assert np.signbit(d.positions[d.positions == 0.0][0]) == np.signbit(first_zero)
        _check_constructors(pos, w)


def test_large_measures_match_the_tuple_path():
    rng = np.random.default_rng(20200203)
    n = 2**16
    pos = rng.normal(size=n)
    pos[rng.choice(n, 2000, replace=False)] = pos[rng.choice(n, 2000)]  # ties
    pos[rng.choice(n, 50, replace=False)] = 0.0
    pos[rng.choice(n, 50, replace=False)] = -0.0
    w = rng.random(n)
    w /= w.sum()
    _check_constructors(pos, w)
    unit = np.round(rng.random(n), 3)  # heavy ties inside [0, 1]
    _check_constructors(unit, np.full(n, 1.0 / n))
    # a large continuous quantile with flats and jumps, inverted and regridded
    nodes = np.cumsum(np.where(rng.random(2 * n) < 0.3, 0.0, rng.random(2 * n)))
    f = PLF(np.linspace(0.0, 1.0, n + 1), nodes[0::2], nodes[1::2])
    assert same_plf(f.inverse(), ref.inverse(f))
    grid = np.union1d(f.breaks, rng.random(n // 2))
    assert same_plf(f.on_grid(grid, ref.segment_index(f, grid[:-1], "right")), ref.on_grid(f, grid))
    mu = from_atoms(list(zip(pos.tolist(), w.tolist())), domain=Domain.REAL_LINE)
    assert same_plf(mu.quantile.inverse(), ref.inverse(mu.quantile))


# ----------------------------------------------------------------------
# the padded generalized inverse


_DIRAC_SPOTS = st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5]), st.floats(0.0, 1.0))


@st.composite
def unit_measures(draw) -> Measure:
    """Diracs (at 0, at 1 and inside), mixed and discrete measures on [0, 1]."""
    kind = draw(st.sampled_from(["dirac", "mixed", "discrete", "clipped"]))
    if kind == "dirac":
        return from_atoms([(draw(_DIRAC_SPOTS), 1.0)], domain=Domain.UNIT_INTERVAL)
    if kind == "clipped":  # flats at 0 and 1, signed zeros
        f = draw(plfs())
        return Measure(Domain.UNIT_INTERVAL, PLF(f.breaks, np.clip(f.yl, 0.0, 1.0), np.clip(f.yr, 0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "mixed":
        return sampling.random_unit_measure(rng)
    return sampling.random_discrete_measure(rng, Domain.UNIT_INTERVAL)


def _profile(rng: np.random.Generator) -> PLF:
    """A constant or rising embedding profile on [-1, 1] with values in [1/3, 2/3]."""
    m = int(rng.integers(1, 6))
    breaks = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, m - 1)), [1.0]])
    # the band's ends and middle, or inside it
    band = np.where(rng.random(2 * m) < 0.3, rng.choice([1.0 / 3.0, 0.5, 2.0 / 3.0], 2 * m), rng.uniform(1.0 / 3.0, 2.0 / 3.0, 2 * m))
    nodes = np.full(2 * m, band[0]) if rng.random() < 0.5 else np.sort(band)
    return PLF(breaks, nodes[0::2], nodes[1::2])


def test_split_embedding_is_a_w1_isometry_around_the_profile_band():
    """The image's quantile is 3 min(Q, 0) - 1 on [0, 1/3], the profile's
    band on [1/3, 2/3] and 3 max(Q, 0) + 1 on [2/3, 1]; the embedding
    keeps W1 distances."""
    rng = np.random.default_rng(20200205)
    # x -> (x + 2)/3 merges levels 0 and 1e-17: the image drops that cell
    cases = [(SplitEmbedding.default().profile, from_atoms([(-1.0, 1e-17), (1.0, 1.0 - 1e-17)]))]
    draws = (sampling.random_real_measure, sampling.random_discrete_measure)
    cases += [(_profile(rng), draws[int(rng.integers(0, 2))](rng)) for _ in range(200)]
    third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
    origin = from_atoms([(0.0, 1.0)])
    for profile, mu in cases:
        emb = SplitEmbedding(profile)
        nu = emb.apply(mu)
        image = nu.quantile
        assert same_plf(image.restrict(third, two_thirds), profile.padded_inverse(third, two_thirds))
        q = mu.quantile
        low, high = image.breaks[:-1] < third, image.breaks[1:] > two_thirds
        for side, part in ((low, 3.0 * q.minimum(0.0).yl - 1.0), (high, 3.0 * q.maximum(0.0).yl + 1.0)):
            assert np.isin(image.yl[side], part).all()
        d = wasserstein_distance(mu, origin, 1.0)
        assert wasserstein_distance(nu, emb.apply(origin), 1.0) == pytest.approx(d, abs=1e-12 * (1.0 + d))


@settings(max_examples=100, deadline=None)
@given(plfs())
def test_padded_inverse_window_must_contain_the_value_range(f):
    v0, v1 = f.value_range
    bad = [(np.nextafter(v0, np.inf), v1 + 1.0), (v0 - 1.0, np.nextafter(v1, -np.inf)), (v1 + 1.0, v0 - 1.0)]
    if v0 == v1:
        bad.append((v0, v1))
    else:  # the tight window pads nothing
        assert same_plf(f.padded_inverse(v0, v1), f.inverse())
    for lo, hi in bad:
        with pytest.raises(ValueError):
            f.padded_inverse(lo, hi)


# ----------------------------------------------------------------------
# the probe grid of the midpoint diameter


@settings(max_examples=50, deadline=None)
@given(unit_measures(), unit_measures(), st.data())
def test_probe_grid_matches_the_union_grid(mu, nu, data):
    deterministic = [geodesic_point(mu, nu, 0.5)] + data.draw(st.lists(unit_measures(), max_size=2))
    h = data.draw(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.sampled_from(mu.quantile.breaks.tolist()), st.floats(0.0, 1.0)))
    try:
        geo = dataclasses.replace(midpoint_geometry(mu, nu), h=h)
    except EqualEndpoints:
        reject()
    grid, fns = _probe_grid(geo, deterministic)
    # the crossed pair's breaks, the candidates' breaks and h, then the
    # midpoints of those lines; a zero line keeps mu's sign
    lines = np.unique(np.concatenate([geo.crossed[0].breaks, [h]] + [c.quantile.breaks for c in deterministic]))
    assert is_merged_grid(grid, mu.quantile.breaks, lines, 0.5 * (lines[:-1] + lines[1:]))
    sources = [mu, nu] + deterministic
    assert len(fns) == len(sources)
    assert all(same_bits(F.breaks, grid) and _on_its_values(F, m.quantile) for F, m in zip(fns, sources))


# ----------------------------------------------------------------------
# the one-home helpers: power cells, node layout, envelopes, empty cells


def _mp_blocks(mu: Measure, n: int) -> list[list[tuple]]:
    """Per dyadic block, its cells (width, Q at the left end, Q at the right
    end) as 50-digit numbers, cut from the exact quantile."""
    q, k = mu.quantile, 2**n
    blocks = []
    with mpmath.workdps(50):
        for j in range(k):
            t0, t1 = mpmath.mpf(j) / k, mpmath.mpf(j + 1) / k
            cells = []
            for cell in zip(q.breaks[:-1], q.breaks[1:], q.yl, q.yr):
                b0, b1, yl, yr = map(mpmath.mpf, cell)
                s0, s1 = max(b0, t0), min(b1, t1)
                if s0 < s1:
                    at = lambda t: yl + (yr - yl) * (t - b0) / (b1 - b0)  # noqa: E731
                    cells.append((s1 - s0, at(s0), at(s1)))
            blocks.append(cells)
    return blocks


def _mp_power(cells, a, e, signed: bool):
    """Sum over the cells of the integral of |Q - a|^e, or of
    sign(Q - a)|Q - a|^e when ``signed``, through the power primitive."""
    total = mpmath.mpf(0)
    for w, u0, u1 in cells:
        u0, u1 = u0 - a, u1 - a
        if u0 == u1:
            total += w * (mpmath.sign(u0) if signed else 1) * abs(u0) ** e
        else:
            prim = lambda u: (1 if signed else mpmath.sign(u)) * abs(u) ** (e + 1) / (e + 1)  # noqa: E731
            total += w * (prim(u1) - prim(u0)) / (u1 - u0)
    return total


def _mp_cost(mu: Measure, n: int, p: float, positions=None):
    """d_p(mu, M_n) at 50 digits: each block's convex cost minimized by
    bisection on its derivative to 1e-30; with ``positions``, the distance
    to the element with those block positions instead."""
    with mpmath.workdps(50):
        P, total = mpmath.mpf(p), mpmath.mpf(0)
        for j, cells in enumerate(_mp_blocks(mu, n)):
            if positions is None:
                lo, hi = min(c[1] for c in cells), max(c[2] for c in cells)
                while hi - lo > mpmath.mpf(10) ** -30:
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if _mp_power(cells, mid, P - 1, True) > 0 else (lo, mid)
                a = (lo + hi) / 2
            else:
                a = mpmath.mpf(float(positions[j]))
            total += _mp_power(cells, a, P, False)
        return total ** (1 / P)


def _block_positions(best: Measure, n: int) -> np.ndarray:
    return best.quantile.eval((np.arange(2**n) + 0.5) / 2**n)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 4.0])
@settings(max_examples=30, deadline=None)
@given(unit_measures(), st.integers(0, 3))
def test_projection_matches_the_bisection_oracle(p, mu, n):
    # the element is no farther from mu than the bisection's; where the
    # library's distances of the two disagree by more than 1e-13, the
    # distances are taken at 50 digits (on near-parallel cells the power
    # cells cancel, in the derivative and in the distance alike)
    (got, d_got), (want, d_want) = nearest_in_mn(mu, n, p), ref.nearest_in_mn(mu, n, p)
    if d_got - d_want > 1e-13 * d_want:
        mp_got = _mp_cost(mu, n, p, _block_positions(got, n))
        assert mp_got <= _mp_cost(mu, n, p, _block_positions(want, n)) * (1 + 1e-13)
    positions = got.quantile.yl
    assert np.all(positions[1:] > positions[:-1])
    counts = (np.diff(got.quantile.breaks) * 2**n).astype(int)  # exact: dyadic breaks
    assert same_measure(got, mn_element(np.repeat(positions, counts)))


@st.composite
def projection_cases(draw) -> tuple[Measure, int, float]:
    kind = draw(st.sampled_from(["mixed", "discrete", "dirac", "qn"]))
    n = draw(st.integers(0, 3))
    p = draw(st.one_of(st.sampled_from([1.1, 1.5, 2.0, 3.0, 4.0]), st.floats(1.1, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "mixed":  # flats (atoms), ramps and jumps
        mu = sampling.random_unit_measure(rng)
    elif kind == "discrete":
        mu = sampling.random_discrete_measure(rng, Domain.UNIT_INTERVAL)
    elif kind == "dirac":
        mu = from_atoms([(draw(_DIRAC_SPOTS), 1.0)], domain=Domain.UNIT_INTERVAL)
    else:
        mu = draw(st.sampled_from(qn_elements(draw(st.integers(0, 3)))))
    return mu, n, p


@settings(max_examples=40, deadline=None)
@given(projection_cases())
@example((sampling.random_unit_measure(np.random.default_rng(1)), 2, 1.1))
# the block mean is the atom at 0.5, where the curvature is infinite and
# g is not zero: a zero Newton step there is no convergence
@example((from_atoms([(0.25, 0.5), (0.5, 0.25), (1.0, 0.25)], domain=Domain.UNIT_INTERVAL), 0, 1.5))
def test_projection_against_a_50_digit_minimizer(case):
    # the element's own 50-digit distance is within 1e-14 of the minimum;
    # the returned d comes from the library's power cells, which still
    # cancel on near-parallel cells at p != 1 (2.4e-14 seen at p = 1.1)
    mu, n, p = case
    best, d = nearest_in_mn(mu, n, p)
    want = _mp_cost(mu, n, p)
    at = _mp_cost(mu, n, p, _block_positions(best, n))
    assert at - want <= 1e-14 * want
    assert abs(d - at) <= 1e-12 * at
    assert wasserstein_distance(mu, best, p) == pytest.approx(d, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, 5).map(lambda k: 2**k), st.integers(1, 40)).flatmap(lambda m: st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(-0.5, 1.5)), min_size=m, max_size=m)))
def test_mn_element_is_the_equal_weight_atom_measure(raw):
    # sorted into [0, 1] as the projection does: runs of equal positions,
    # zeros of both signs among them; the breaks are k/m rounded once, so
    # at m = 2^n they are the atoms' cumulative weights bit for bit and
    # elsewhere within rounding of them
    a = np.maximum.accumulate(np.clip(np.array(raw), 0.0, 1.0))
    got = mn_element(a).quantile
    want = from_atoms(zip(a, np.full(len(a), 1.0 / len(a))), domain=Domain.UNIT_INTERVAL).quantile
    assert np.array_equal(got.yl, want.yl) and np.array_equal(got.yr, want.yr)
    assert np.all(np.signbit(got.yl) == np.signbit(want.yl))
    starts = np.flatnonzero(np.concatenate([[True], a[1:] != a[:-1]]))
    assert np.array_equal(got.breaks, np.append(starts, len(a)) / len(a))
    if len(a) & (len(a) - 1) == 0:
        assert np.array_equal(got.breaks, want.breaks)
    else:
        assert np.max(np.abs(got.breaks - want.breaks)) <= 4e-15


def test_a_last_newton_step_stays_in_the_bracket():
    # the block holds two floats 4 ulps apart; a last step of a few ulps
    # from the block mean could leave it
    x0, x1 = 0.3749999999999999, 0.3750000000000001
    mu = from_atoms([(x0, 0.8587178795777924), (x1, 0.14128212042220767)], domain=Domain.UNIT_INTERVAL)
    best, d = nearest_in_mn(mu, 0, 1.5)
    assert x0 <= best.quantile.yl[0] <= x1
    assert d <= ref.nearest_in_mn(mu, 0, 1.5)[1]


def test_an_empty_bracket_keeps_its_cheaper_end():
    # the block's values span two ulps around 0.625; its bracket ran out of
    # floats with the last midpoint at the costlier end (d was 1.06e-16)
    atoms = [(0.6249999999999999, 0.150), (0.625, 0.828), (0.6250000000000001, 0.022)]
    mu = from_atoms(atoms, domain=Domain.UNIT_INTERVAL)
    best, d = nearest_in_mn(mu, 0, 2.03)
    costs = {x: _mp_cost(mu, 0, 2.03, [x]) for x, _ in atoms}
    assert best.quantile.yl[0] == min(costs, key=costs.get) == 0.625
    # d itself comes from the p = 2.03 power cells, a few ulps off
    assert abs(d - costs[0.625]) <= 1e-14 * costs[0.625]


def test_projection_raises_no_runtime_warning_on_atoms():
    # at p < 2 the curvature is infinite on a flat cell at the iterate
    mu = from_atoms([(0.0, 0.25), (0.25, 0.25), (0.5, 0.25), (1.0, 0.25)], domain=Domain.UNIT_INTERVAL)
    nu = Measure(Domain.UNIT_INTERVAL, PLF(np.array([0.0, 0.25, 0.75, 1.0]), np.array([0.25, 0.25, 0.75]), np.array([0.25, 0.75, 0.75])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for m in (mu, nu):
            for n in range(4):
                nearest_in_mn(m, n, 1.5)


def test_geodesic_range_is_where_every_step_of_the_blend_stays_nonnegative():
    """Each bound is a blend parameter s where every slope and jump of
    (1 - s) Q_mu + s Q_nu is nonnegative and one is zero, to rounding;
    a side is open when no step grows, or shrinks, along the blend."""
    rng = np.random.default_rng(20200206)
    draws = (sampling.random_real_measure, sampling.random_discrete_measure, sampling.random_unit_measure,
             lambda rng: sampling.random_discrete_measure(rng, Domain.UNIT_INTERVAL))
    for _ in range(300):
        i, j = rng.integers(0, len(draws), size=2)
        _check_monotone_range(draws[i](rng), draws[j](rng))


def _check_monotone_range(*pair: Measure) -> None:
    r = _outcome(monotone_range, *pair)
    if isinstance(r, type):
        assert pair[0].domain is not pair[1].domain
        return
    F, G = on_common_grid(pair[0].quantile, pair[1].quantile)
    a, b = np.diff(_nodes(F.yl, F.yr)), np.diff(_nodes(G.yl, G.yr))
    assert (r.lo is None) == (not np.any(b > a)) and (r.hi is None) == (not np.any(b < a))
    for s in (r.lo, r.hi):
        if s is not None:
            step = a + s * (b - a)
            tol = 4 * np.finfo(float).eps * (np.abs(a) + np.abs(s * (b - a)))
            assert np.all(step >= -tol) and np.any(np.abs(step) <= tol)


def _gap_eta(t: list[float], A: float, B: float) -> tuple[Measure, float]:
    """A quantile that rises into an atom at A on [t0, t1), jumps to an atom
    at B on [t1, t2) and rises on, so that only the horizontal certificate
    applies, and the largest distance it certifies: the shift d reaches
    the lighter atom's weight and the new junction level lands on a
    neighbouring break (on both when the weights are equal)."""
    breaks = np.array([0.0, *t, 1.0])
    eta = Measure(Domain.REAL_LINE, PLF(breaks, np.array([A - 1.0, A, B, B]), np.array([A, A, B, B + 1.0])))
    return eta, 2.0 * (B - A) * min(float(breaks[2] - breaks[1]), float(breaks[3] - breaks[2]))


def _gap_etas(rng: np.random.Generator) -> list[tuple[Measure, float]]:
    """``_gap_eta`` on fixed and drawn levels, atoms and gaps, at its
    largest distance, one ulp below it and half of it."""
    fixed = [[0.25, 0.5, 0.75], [0.125, 0.5, 0.875], [0.25, 0.375, 0.5]]
    t = fixed[int(rng.integers(0, 3))] if rng.random() < 0.3 else sorted(rng.uniform(0.01, 0.99, 3))
    A = float(rng.choice([-1.0, 0.0, 0.5])) if rng.random() < 0.3 else rng.uniform(-2.0, 2.0)
    gap = float(rng.choice([0.25, 1.0])) if rng.random() < 0.3 else rng.uniform(1e-3, 3.0)
    eta, n = _gap_eta(t, A, A + gap)
    return [(eta, n), (eta, np.nextafter(n, 0.0)), (eta, 0.5 * n)]


# an atom one ulp of its level wide
_ONE_ULP_ATOM = _gap_eta([0.01, 0.010000000000000002, 0.5], -1.0, -0.75)


def test_dirac_certificate_is_an_adjacent_pair_with_eta_as_a_midpoint():
    # a shift by a whole cell can round one ulp past the neighbouring
    # break (c - fl(c - t) < t); the shift is pinned to it and the empty
    # cell dropped, so both ends are valid measures
    rng = np.random.default_rng(20200207)
    cases = [_gap_eta([0.1, 0.5, 0.95], 0.0, 1.0)]  # 0.5 - fl(0.5 - 0.1) < 0.1
    cases.append(_ONE_ULP_ATOM)  # at its largest distance
    for _ in range(100):
        cases += _gap_etas(rng)
    for case in cases:
        _check_certificate(*case)


def test_dirac_certificate_of_a_sub_ulp_level_shift():
    # half the largest distance shifts the junction level by under half
    # an ulp
    eta, n = _ONE_ULP_ATOM
    _check_certificate(eta, 0.5 * n)


@pytest.mark.parametrize("x, n", [(3.0, 1e-17), (1e10, 1e-10)])
def test_dirac_certificate_of_a_sub_ulp_atom_shift(x, n):
    # the atom moves one ulp each way: the nearest pair the floats allow
    lo, hi = dirac_certificate(from_atoms([(x, 1.0)]), n)
    down, up = np.nextafter(x, -np.inf), np.nextafter(x, np.inf)
    assert same_measure(lo, from_atoms([(down, 1.0)])) and same_measure(hi, from_atoms([(up, 1.0)]))
    assert is_adjacent(lo, hi) is not None and wasserstein_distance(lo, hi, 1.0) == up - down


def _check_certificate(eta: Measure, n: float) -> None:
    lo, hi = dirac_certificate(eta, n)
    assert is_adjacent(lo, hi) is not None
    assert wasserstein_distance(lo, hi, 1.0) == pytest.approx(n, abs=1e-12)
    for end in (lo, hi):
        assert wasserstein_distance(eta, end, 1.0) == pytest.approx(0.5 * n, abs=1e-12)
