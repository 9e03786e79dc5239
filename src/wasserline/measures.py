"""Probability measures on the line or the unit interval.

A measure is stored through its quantile function, a monotone
piecewise-linear :class:`~wasserline.plf.PLF` on level space [0, 1].
Flat quantile pieces are atoms (the flat's width is the mass), jumps are
gaps in the support, and rising pieces carry absolutely continuous mass
with density 1/slope.

The representation is canonicalized on construction (adjacent collinear
pieces merged), so two Measure objects are equal exactly when their
arrays are equal value for value (0.0 == -0.0) and their domains agree.

Input is validated once, at the public constructors: ``Measure(...)``
checks and canonicalizes its quantile, and ``DiscreteMeasure(...)`` checks,
sorts and merges its atoms.  Library results that are canonical and
inside their domain by construction take ``Measure._trusted`` instead:
``from_atoms`` and ``DiscreteMeasure.to_measure`` (sorted distinct atoms
after ``DiscreteMeasure``'s checks give flat cells with jumps between
them, on cumulative weights clamped at one, with the unit-interval check
made first) and the M_n elements of ``interval``; their quantiles are
step functions, with one array for ``yl`` and ``yr`` (see ``plf``).
Maps whose rounding can make two segments collinear (value maps,
blends, reflections) keep ``Measure(...)``'s ``canonical``, on a
``PLF`` that is not validated again; ``flip`` builds ``Measure(...)``
on ``padded_inverse``, whose pads ``const_plf`` validates.  Of a
discrete measure, ``padded_inverse`` is a step function (the inverse's
closed form between constant pads, in one array), on which
``canonical`` returns after one compare, so the flipped measure is
discrete and its own distances, flips and CDFs take the step path.
``cdf_eval`` evaluates the quantile's inverse; of a discrete measure
that is the same closed form, evaluated by a gather.
``DiscreteMeasure.from_measure`` reads a discrete measure's atoms as they
are, sorted and distinct, and only normalizes their masses.

The distance to a Dirac, ``dist_to_dirac`` (behind
``cdf_from_dirac_distances`` and ``interval.slice_of``), is the quantile
gap to a constant through ``plf.abs_pow_gap``, the one home of every
d_p, so it has the bits of ``wasserstein_distance(mu, d_t, 1)``.

``DiscreteMeasure`` sorts only what its atoms need, since an argsort of
10^6 positions costs several times a plain sort of them.  Positions
that are strictly increasing already (JSON round trips, the two-point
chart, the exotic flow, sorted samples) skip the sort and the tie check.
Equal weights, as in an empirical sample, are the same in any order, so
only the positions are sorted.  Other unsorted input pays for the
argsort that carries its weights along, and a tie for the stable one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatch,
    InvalidInput,
    InvalidIntervalIsometry,
    LevelOutOfRange,
    NonPositiveWeight,
    PositionOutOfRange,
    StepOutOfRange,
    TooManyAtoms,
    WeightSumOutOfTolerance,
    _malformed,
)
from .plf import PLF, _as_floats, _without_empty_cells, abs_pow_gap, const_plf

WEIGHT_TOL = 1e-9
# slack for values that should sit in [0, 1] but picked up rounding noise
_UNIT_SLACK = 1e-12
# the (orientation, offset) of each x -> orientation * x + offset onto [0, 1]
_UNIT_AFFINE = ((1, 0.0), (-1, 1.0))


class Domain(enum.Enum):
    REAL_LINE = "real"
    UNIT_INTERVAL = "unit"


@dataclass(frozen=True, eq=False)
class Measure:
    """A probability measure given by its quantile function."""

    domain: Domain
    quantile: PLF

    def __post_init__(self) -> None:
        q = self.quantile
        if q.breaks[0] != 0.0 or q.breaks[-1] != 1.0:
            raise LevelOutOfRange("quantile breakpoints must span [0, 1]")
        q = q.canonical()
        if self.domain is Domain.UNIT_INTERVAL:
            lo, hi = q.value_range
            if lo < -_UNIT_SLACK or hi > 1.0 + _UNIT_SLACK:
                raise PositionOutOfRange(
                    f"values [{lo}, {hi}] leave the unit interval"
                )
            if lo < 0.0 or hi > 1.0:
                # clipped flats at an end may now be equal neighbours
                q = PLF._trusted(q.breaks, np.clip(q.yl, 0.0, 1.0), np.clip(q.yr, 0.0, 1.0)).canonical()
        object.__setattr__(self, "quantile", q)

    @classmethod
    def _trusted(cls, domain: Domain, quantile: PLF) -> "Measure":
        """A quantile canonical and inside ``domain`` by construction; no checks."""
        self = object.__new__(cls)
        self.__dict__.update(domain=domain, quantile=quantile)
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self.domain is other.domain and self.quantile.equals(other.quantile)

    @property
    def segments(self) -> list[tuple[float, float]]:
        """Per-segment (value at the left level, slope) pairs."""
        q = self.quantile
        w = np.diff(q.breaks)
        b = (q.yr - q.yl) / w
        return [(float(a), float(s)) for a, s in zip(q.yl, b)]

    @property
    def is_discrete(self) -> bool:
        q = self.quantile
        return q.yl is q.yr or bool((q.yl == q.yr).all())

    def atoms(self) -> list[tuple[float, float]]:
        if not self.is_discrete:
            raise InvalidInput("measure has a continuous part")
        q = self.quantile
        w = np.diff(q.breaks)
        return [(float(x), float(m)) for x, m in zip(q.yl, w)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_discrete:
            body = " + ".join(f"{m:.6g}*d[{x:.6g}]" for x, m in self.atoms())
        else:
            body = f"pl_quantile with {self.quantile.num_segments} segments"
        return f"Measure({self.domain.value}: {body})"


def _common_domain(mu: Measure, *others: Measure) -> Domain:
    """The domain of ``mu``, which every one of ``others`` must share."""
    for nu in others:
        if nu.domain is not mu.domain:
            raise DomainMismatch("the measures live on different domains")
    return mu.domain


def _require_unit(mu: Measure) -> None:
    if mu.domain is not Domain.UNIT_INTERVAL:
        raise DomainMismatch("this operation takes unit-interval measures only")


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Sorted atoms with merged positions and normalized weights.

    Exactly tied positions merge into one atom: its position is the first
    of the tied ones in input order (which decides between 0.0 and -0.0),
    and its weight the sum of theirs, added in input order.

    The sort runs only where it can move something.  Strictly increasing
    positions are already in order and are copied as given.  When every
    weight is equal, a permutation cannot change the weights, so the
    positions are sorted alone; other weights follow the positions through
    an argsort.  A tie sends any input to the stable sort that the rule
    above needs.  Every way gives the bits of that stable sort and merge.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pos = _as_floats(self.positions, "atom positions").ravel()
        w = _as_floats(self.weights, "atom weights").ravel()
        if len(pos) != len(w) or len(pos) == 0:
            raise InvalidInput("need matching nonempty position/weight arrays")
        if not np.isfinite(pos).all():
            raise PositionOutOfRange("non-finite atom position")
        lightest, heaviest = w.min(), w.max()
        if not (lightest > 0.0 and heaviest < np.inf):  # a NaN minimum fails too
            raise NonPositiveWeight("atom weights must be positive")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise WeightSumOutOfTolerance(f"weights sum to {total!r}")
        # with NumPy's vectorized sort an argsort costs about five plain
        # sorts, and the stable one that the tie rule needs about four
        # unstable ones (see the docstring for the ways through)
        if (pos[1:] > pos[:-1]).all():
            pos = pos.copy()  # asarray may have returned the caller's array
        else:
            order = None if lightest == heaviest else np.argsort(pos)
            ranked = np.sort(pos) if order is None else pos[order]
            fresh = ranked[1:] != ranked[:-1]
            if fresh.all():
                pos = ranked
                if order is not None:
                    w = w[order]
            else:
                order = np.argsort(pos, kind="stable")
                first = np.concatenate([[True], fresh])
                pos = pos[order][first]
                w = np.bincount(np.cumsum(first) - 1, weights=w[order])
        w = w / total
        for name, a in (("positions", pos), ("weights", w)):
            a = np.ascontiguousarray(a)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return np.array_equal(self.positions, other.positions) and np.array_equal(
            self.weights, other.weights
        )

    def to_measure(self, domain: Domain = Domain.REAL_LINE) -> Measure:
        # the atoms are sorted, merged and normalized already, as from_atoms
        # uses them: dividing by their sum again can leave the running total
        # an ulp short of one before a weight far below an ulp, and that
        # atom would then get the whole ulp as its mass
        return _atoms_measure(self.positions, self.weights, domain)

    @classmethod
    def from_measure(cls, mu: Measure) -> "DiscreteMeasure":
        """The atoms of a discrete measure: canonical flats are sorted and
        distinct already, so only the cell widths are normalized."""
        if not mu.is_discrete:
            raise InvalidInput("measure has a continuous part")
        q = mu.quantile
        w = np.diff(q.breaks)
        w /= float(w.sum())
        d = object.__new__(cls)
        d.__dict__.update(positions=np.ascontiguousarray(q.yl), weights=w)
        for a in d.__dict__.values():
            a.setflags(write=False)
        return d


# ----------------------------------------------------------------------
# constructors


def from_quantile(domain: Domain, breaks, yl, yr) -> Measure:
    return Measure(domain, PLF(np.asarray(breaks), np.asarray(yl), np.asarray(yr)))


def from_segments(domain: Domain, breaks, segments) -> Measure:
    """Build from (value, slope) segment pairs on the given level breaks."""
    breaks = np.asarray(breaks, dtype=np.float64)
    seg = np.asarray(segments, dtype=np.float64)
    if seg.ndim != 2 or seg.shape[1] != 2 or seg.shape[0] != len(breaks) - 1:
        raise InvalidInput("need one (value, slope) pair per level cell")
    a, b = seg[:, 0], seg[:, 1]
    w = np.diff(breaks)
    yl = a
    yr = a + b * w
    # a continuous seam computed through the slope may overshoot the next
    # anchor by rounding; snap it back, anything larger is a real error
    nxt = np.concatenate([yl[1:], [np.inf]])
    over = yr - nxt
    yr = np.where((over > 0.0) & (over <= 1e-12 * np.maximum(1.0, np.abs(yr))), nxt, yr)
    return Measure(domain, PLF(breaks, yl, yr))


def from_atoms(atoms, domain: Domain = Domain.REAL_LINE) -> Measure:
    """Finite discrete measure from (position, weight) pairs.

    Atoms are sorted, exact duplicate positions merged, weights
    normalized (their sum must be within 1e-9 of one).
    """
    try:
        pairs = list(atoms)
        pos, w = [p for p, _ in pairs], [w for _, w in pairs]
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"atoms must be (position, weight) pairs: {exc}") from exc
    if not pairs:
        raise NonPositiveWeight("a measure needs at least one atom")
    d = DiscreteMeasure(pos, w)
    return _atoms_measure(d.positions, d.weights, domain)


def _atoms_measure(pos: np.ndarray, w: np.ndarray, domain: Domain) -> Measure:
    """Measure from sorted distinct finite positions and positive weights
    summing to ~1: flat cells at increasing values are canonical, and the
    breaks below are strictly increasing once the empty cells are dropped."""
    if domain is Domain.UNIT_INTERVAL and (pos[0] < 0.0 or pos[-1] > 1.0):
        raise PositionOutOfRange("atom outside the unit interval")
    breaks = np.empty(len(w) + 1)
    breaks[0] = 0.0
    np.cumsum(w, out=breaks[1:])
    breaks[-1] = 1.0
    # a running total can pass one before the last atom; cells whose width
    # is then zero, or underflowed to zero (weight below one ulp of the
    # running total), are dropped, and the lost mass is far under the
    # weight tolerance
    np.minimum(breaks, 1.0, out=breaks)
    return Measure._trusted(domain, _without_empty_cells(breaks, pos, pos))


# ----------------------------------------------------------------------
# pointwise queries


def quantile_eval(mu: Measure, y):
    """Right-continuous quantile at interior levels 0 < y < 1."""
    arr = _as_floats(y, "quantile levels")
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails too
        raise LevelOutOfRange("quantile levels must lie strictly inside (0, 1)")
    return mu.quantile.eval(y)


def cdf_eval(mu: Measure, x):
    """F(x) = mu((-inf, x]); vectorized."""
    arr = _as_floats(x, "evaluation points")
    if np.any(np.isnan(arr)):
        raise InvalidInput("evaluation point is NaN")
    lo, hi = mu.quantile.value_range
    out = np.zeros(arr.shape)
    out = np.where(arr >= hi, 1.0, out)
    inside = (arr >= lo) & (arr < hi)
    if np.any(inside):
        inv = mu.quantile.inverse()
        out = np.where(inside, inv.eval(np.where(inside, arr, lo)), out)
    return out if arr.ndim else float(out)


def barycenter(mu: Measure) -> float:
    """Mean of the measure: the integral of its quantile function."""
    return mu.quantile.integral()


# ----------------------------------------------------------------------
# elementary pushforwards


def pushforward_affine(mu: Measure, orientation: int, offset: float) -> Measure:
    """Image of mu under x -> orientation * x + offset.

    On the unit interval only the identity (+1, 0) and the reflection
    (-1, 1) stay inside; anything else is rejected.
    """
    if orientation not in (1, -1):
        raise InvalidInput("orientation must be +1 or -1")
    offset = float(offset)
    if mu.domain is Domain.UNIT_INTERVAL and (orientation, offset) not in _UNIT_AFFINE:
        raise InvalidIntervalIsometry("only the identity and x -> 1 - x map [0, 1] onto itself")
    q = mu.quantile
    if orientation == 1:
        if offset == 0.0:
            return mu
        return Measure(mu.domain, q.map_values(1.0, offset))
    # reflection reverses level space: Q'(y) = offset - Q((1-y)-); a level
    # cell narrower than an ulp of one can round to zero width and is dropped
    nb = 1.0 - q.breaks[::-1]
    nb[0] = 0.0
    nb[-1] = 1.0
    return Measure(mu.domain, _without_empty_cells(nb, offset - q.yr[::-1], offset - q.yl[::-1]))


def flip(mu: Measure) -> Measure:
    """Exchange mass and position on [0, 1]: the image has CDF equal to
    mu's quantile function.  An involution, and it maps each Dirac d_t to
    t*d_0 + (1-t)*d_1.
    """
    _require_unit(mu)
    return Measure(Domain.UNIT_INTERVAL, mu.quantile.padded_inverse(0.0, 1.0))


# ----------------------------------------------------------------------
# the two-point chart


@dataclass(frozen=True)
class TwoPointParam:
    """Chart (x, sigma, p) for measures with at most two atoms.

    The measure is w- * d[x - sigma*e^p] + w+ * d[x + sigma*e^-p] with
    w- = e^-p / (e^p + e^-p); sigma = 0 collapses to the Dirac d_x and
    pins p = 0.
    """

    x: float
    sigma: float
    p: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.x) or not np.isfinite(self.sigma) or not np.isfinite(self.p):
            raise InvalidInput("chart coordinates must be finite")
        if self.sigma < 0.0:
            raise InvalidInput("sigma is a scale and must be nonnegative")
        if self.sigma == 0.0 and self.p != 0.0:
            raise InvalidInput("the Dirac fiber fixes p = 0")


def two_point_from_param(tp: TwoPointParam) -> DiscreteMeasure:
    if tp.sigma == 0.0:
        return DiscreteMeasure([tp.x], [1.0])
    ep = float(np.exp(tp.p))
    em = float(np.exp(-tp.p))
    z = ep + em
    return DiscreteMeasure(
        [tp.x - tp.sigma * ep, tp.x + tp.sigma * em],
        [em / z, ep / z],
    )


def param_from_two_point(mu: DiscreteMeasure) -> TwoPointParam:
    n = len(mu.positions)
    if n > 2:
        raise TooManyAtoms(f"two-point chart got {n} atoms")
    if n == 1:
        return TwoPointParam(float(mu.positions[0]), 0.0, 0.0)
    (x1, x2), (w1, w2) = mu.positions, mu.weights
    p = 0.5 * float(np.log(w2 / w1))
    sigma = float(x2 - x1) / float(np.exp(p) + np.exp(-p))
    x = float(x1) + sigma * float(np.exp(p))
    return TwoPointParam(x, sigma, p)


# ----------------------------------------------------------------------
# Dirac distances on the unit interval


def dist_to_dirac(mu: Measure, t: float) -> float:
    """W1 distance from mu to the Dirac at t, both on [0, 1].

    The integral of |Q - t| over the levels, through ``abs_pow_gap`` as
    every d_p is: each cell is a trapezoid of the quantile gap, or the
    crossing formula where Q passes t, so nothing cancels when the mass
    sits just above or below t.
    """
    _require_unit(mu)
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise PositionOutOfRange("the Dirac location must lie in [0, 1]")
    return abs_pow_gap(mu.quantile, const_plf(0.0, 1.0, t), 1.0)


def cdf_from_dirac_distances(mu: Measure, t: float, h: float) -> float:
    """Recover F(t) from two Dirac distances:

        F(t) ~ (g + 1) / 2,  g = (d(t + h) - d(t)) / h.

    Each d is ``dist_to_dirac``, a quantile gap.  Exact whenever no mass
    sits in (t, t + h]; otherwise accurate to the mass of that sliver.
    """
    _require_unit(mu)
    t = float(t)
    h = float(h)
    if not (0.0 <= t < 1.0):
        raise PositionOutOfRange("the base point must lie in [0, 1)")
    if not (h > 0.0 and t + h <= 1.0):  # NaN fails too
        raise StepOutOfRange("need h > 0 with t + h <= 1")
    g = (dist_to_dirac(mu, t + h) - dist_to_dirac(mu, t)) / h
    return (g + 1.0) / 2.0


# ----------------------------------------------------------------------
# serialization


def measure_to_json(mu: Measure) -> dict:
    if mu.is_discrete:
        return {
            "domain": mu.domain.value,
            "type": "discrete",
            "atoms": [[x, m] for x, m in mu.atoms()],
        }
    return {
        "domain": mu.domain.value,
        "type": "pl_quantile",
        "breaks": [float(b) for b in mu.quantile.breaks],
        "segments": [[a, b] for a, b in mu.segments],
    }


def measure_from_json(data: dict) -> Measure:
    with _malformed("measure object"):
        domain = Domain(data["domain"])
        kind = data["type"]
        if kind == "discrete":
            return from_atoms([(float(p), float(w)) for p, w in data["atoms"]], domain=domain)
        if kind == "pl_quantile":
            return from_segments(domain, data["breaks"], data["segments"])
        raise InvalidInput(f"unknown measure type {kind!r}")
