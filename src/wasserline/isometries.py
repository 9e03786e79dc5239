"""The isometry and embedding catalogue.

Each descriptor is a small frozen dataclass that owns its behaviour:
its JSON ``kind``, the input ``domains`` it accepts (it maps each of
them into itself), the ``orders`` at which it is a genuine isometry,
and ``apply``, ``describe``, ``to_json`` and ``from_json``; callers
read them off the descriptor.  Two functions sit beside them:
``apply``, which a composition applies its items through, and
``isometry_from_json``, the one dispatch over ``_KINDS`` (JSON kind to
class).  ``verify_isometry`` measures how well a descriptor preserves
distances at an order p.

Scope is two-sided.  Domain scope is enforced by ``apply`` (a flip of a
real-line measure has no meaning and raises ScopeMismatch).  Order
scope is deliberately *not* enforced: every descriptor has the orders
at which it is a genuine isometry (``orders``), but the verifier will
happily run Phi^q at p = 1 and report the honest failure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInput, LevelOutOfRange, NonPositiveWeight, QOutOfRange, ScopeMismatch, _malformed
from .measures import (
    _UNIT_AFFINE,
    DiscreteMeasure,
    Domain,
    Measure,
    barycenter,
    flip,
    measure_from_json,
    measure_to_json,
    pushforward_affine,
)
from .metric import check_order, wasserstein_distance
from .plf import PLF, _without_empty_cells, concat_plfs, plf_combine
from .reports import VerificationReport, _check_trials, row, summarize
from .sampling import random_discrete_measure, rng_for

Q_LIMIT = 30.0

_REAL = frozenset({Domain.REAL_LINE})
_UNIT = frozenset({Domain.UNIT_INTERVAL})
_P1 = frozenset({1.0})
_P2 = frozenset({2.0})
_THIRD = 1.0 / 3.0
_TWO_THIRDS = 2.0 / 3.0


def _check_q(q: float) -> float:
    q = float(q)
    if not np.isfinite(q) or abs(q) > Q_LIMIT:
        raise QOutOfRange(f"|q| <= {Q_LIMIT} required, got {q!r}")
    return q


# ----------------------------------------------------------------------
# descriptors


class _Descriptor:
    """Defaults: a real-line map, isometric at every order p >= 1,
    described by its kind, with its dataclass fields as JSON.
    ``orders`` is a frozenset of orders, or None for every p >= 1; it
    is informational and nothing gates on it."""

    kind = ""
    domains = _REAL
    orders = None

    def _in_scope(self, mu: Measure) -> Measure:
        if mu.domain not in self.domains:
            where = mu.domain.name.lower().replace("_", "-")
            raise ScopeMismatch(f"{self.kind} does not act on {where} measures")
        return mu

    def describe(self) -> str:
        return self.kind

    def to_json(self) -> dict:
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_json(cls, data: dict):
        return cls(*(data[f.name] for f in fields(cls)))


@dataclass(frozen=True)
class Trivial(_Descriptor):
    """x -> orientation * x + offset."""

    kind = "trivial"

    orientation: int
    offset: float

    def __post_init__(self) -> None:
        if self.orientation not in (1, -1):
            raise InvalidInput("orientation must be +1 or -1")
        object.__setattr__(self, "orientation", int(self.orientation))
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def domains(self) -> frozenset:
        return _REAL | _UNIT if (self.orientation, self.offset) in _UNIT_AFFINE else _REAL

    def apply(self, mu: Measure) -> Measure:
        return pushforward_affine(mu, self.orientation, self.offset)

    def describe(self) -> str:
        return f"trivial({self.orientation:+d},{self.offset:g})"


@dataclass(frozen=True)
class Flip(_Descriptor):
    """Mass/position exchange on [0, 1]; an isometry for p = 1 only."""

    kind = "flip"
    domains = _UNIT
    orders = _P1

    def apply(self, mu: Measure) -> Measure:
        return flip(self._in_scope(mu))


@dataclass(frozen=True)
class Translation(_Descriptor):
    """Quantile translation mu -> mu *translated by* nu: Q = Q_mu + Q_nu.

    An isometry of W_p(R) onto its image for every p; for a Dirac nu it
    is the ordinary shift.
    """

    kind = "translation"

    nu: Measure

    def __post_init__(self) -> None:
        if self.nu.domain is not Domain.REAL_LINE:
            raise ScopeMismatch("translation directions live on the real line")

    def apply(self, mu: Measure) -> Measure:
        q = plf_combine([self._in_scope(mu).quantile, self.nu.quantile], [1.0, 1.0])
        return Measure(Domain.REAL_LINE, q)

    def to_json(self) -> dict:
        return {"kind": self.kind, "nu": measure_to_json(self.nu)}

    @classmethod
    def from_json(cls, data: dict) -> "Translation":
        return cls(measure_from_json(data["nu"]))


@dataclass(frozen=True)
class BarycentricReflection(_Descriptor):
    """Reflect each measure through its own barycenter; fixes W_2(R)."""

    kind = "barycentric_reflection"
    orders = _P2

    def apply(self, mu: Measure) -> Measure:
        return pushforward_affine(self._in_scope(mu), -1, 2.0 * barycenter(mu))


@dataclass(frozen=True)
class Exotic(_Descriptor):
    """The flow Phi^q on W_2(R): shear in the two-point chart coordinates
    (x, sigma, p) -> (x, sigma, p + q), extended to finite discrete
    measures by its closed form.  Not a rigid motion of the line."""

    kind = "exotic"
    orders = _P2

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _check_q(self.q))

    def apply(self, mu: Measure) -> Measure:
        self._in_scope(mu)
        if self.q == 0.0:
            return mu
        if not mu.is_discrete:
            raise ScopeMismatch(
                "the exotic flow is implemented on finite discrete measures; "
                "use exotic_apply_grid for quantile profiles of general ones"
            )
        return exotic_apply_discrete(DiscreteMeasure.from_measure(mu), self.q).to_measure(Domain.REAL_LINE)

    def describe(self) -> str:
        return f"exotic({self.q:g})"


@dataclass(frozen=True, eq=False)
class SplitEmbedding(_Descriptor):
    """Isometric embedding of W_1(R) into itself that splits the support.

    The image CDF places the negative part of mu, compressed by 1/3,
    left of -1; the positive part right of +1; and an arbitrary fixed
    monotone profile E with values in [1/3, 2/3] on the middle band
    [-1, 1).  The middle band is the same for every mu, and the outer
    bands reproduce W_1 distances exactly because

        |min(u,0) - min(v,0)| + |max(u,0) - max(v,0)| = |u - v|.
    """

    kind = "split_embedding"
    orders = _P1

    profile: PLF

    def __post_init__(self) -> None:
        pr = self.profile
        if pr.breaks[0] != -1.0 or pr.breaks[-1] != 1.0:
            raise InvalidInput("the profile must live on [-1, 1]")
        lo, hi = pr.value_range
        if lo < _THIRD or hi > _TWO_THIRDS:
            raise InvalidInput("profile values must stay within [1/3, 2/3]")

    @classmethod
    def default(cls) -> "SplitEmbedding":
        return cls(PLF(np.array([-1.0, 1.0]), np.array([_THIRD]), np.array([_TWO_THIRDS])))

    def apply(self, mu: Measure) -> Measure:
        q = self._in_scope(mu).quantile
        # a level cell narrower than an ulp of its image band rounds to zero
        # width under x -> x/3 or x -> (x + 2)/3 and is dropped
        low = q.minimum(0.0)
        lowb = low.breaks / 3.0
        lowb[0] = 0.0
        lowb[-1] = _THIRD
        low_piece = _without_empty_cells(lowb, 3.0 * low.yl - 1.0, 3.0 * low.yr - 1.0)
        high = q.maximum(0.0)
        highb = (high.breaks + 2.0) / 3.0
        highb[0] = _TWO_THIRDS
        highb[-1] = 1.0
        high_piece = _without_empty_cells(highb, 3.0 * high.yl + 1.0, 3.0 * high.yr + 1.0)
        middle = self.profile.padded_inverse(_THIRD, _TWO_THIRDS)
        return Measure(Domain.REAL_LINE, concat_plfs([low_piece, middle, high_piece]))

    def to_json(self) -> dict:
        pr = self.profile
        return {
            "kind": self.kind,
            "profile": {"breaks": pr.breaks.tolist(), "yl": pr.yl.tolist(), "yr": pr.yr.tolist()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "SplitEmbedding":
        pr = data["profile"]
        return cls(PLF(pr["breaks"], pr["yl"], pr["yr"]))


@dataclass(frozen=True)
class Composition(_Descriptor):
    """Apply ``items`` right to left, like function composition."""

    kind = "compose"

    items: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise InvalidInput("empty composition")

    @property
    def domains(self) -> frozenset:
        # every item maps each of its domains into itself
        return frozenset.intersection(*(item.domains for item in self.items))

    @property
    def orders(self):
        known = [item.orders for item in self.items if item.orders is not None]
        return frozenset.intersection(*known) if known else None

    def apply(self, mu: Measure) -> Measure:
        for item in reversed(self.items):
            mu = apply(item, mu)
        return mu

    def describe(self) -> str:
        return "compose(" + ",".join(item.describe() for item in self.items) + ")"

    def to_json(self) -> dict:
        return {"kind": self.kind, "items": [item.to_json() for item in self.items]}

    @classmethod
    def from_json(cls, data: dict) -> "Composition":
        return cls(tuple(isometry_from_json(item) for item in data["items"]))


IsometryDescriptor = (
    Trivial | Flip | Translation | BarycentricReflection | Exotic | SplitEmbedding | Composition
)

_KINDS = {cls.kind: cls for cls in IsometryDescriptor.__args__}


# ----------------------------------------------------------------------
# entry points


def apply(iso, mu: Measure) -> Measure:
    return iso.apply(mu)


def isometry_from_json(data: dict):
    with _malformed("isometry object"):
        kind = data["kind"]
        if kind not in _KINDS:
            raise InvalidInput(f"unknown isometry kind {kind!r}")
        return _KINDS[kind].from_json(data)


# ----------------------------------------------------------------------
# the exotic flow


def h_q_eval(x, q: float):
    """The interval automorphism h_q(x) = x e^{2q} / (1 + (e^{2q}-1) x)."""
    q = _check_q(q)
    arr = np.asarray(x, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails too
        raise LevelOutOfRange("h_q acts on the open interval (0, 1)")
    out = _h(arr, q)
    return out if arr.ndim else float(out)


def h_q_inverse(y, q: float):
    """h_q^{-1} = h_{-q}; the group law h_a . h_b = h_{a+b} makes this
    the only inverse."""
    return h_q_eval(y, -float(q))


def _h(x: np.ndarray, q: float) -> np.ndarray:
    # expm1 keeps small q stable; levels >= 1 are pinned to 1 and only the others
    # divide, since at 1 the denominator 1 + expm1(-2q) rounds to 0 for q >= 19
    out = np.where(x < 1.0, x, 1.0)
    np.divide(x * np.exp(2.0 * q), 1.0 + np.expm1(2.0 * q) * x, out=out, where=out < 1.0)
    return np.minimum(out, 1.0, out=out)


def _exotic_value(v, level, pre, m: float, q: float):
    # Phi^q's image of quantile value v at a level with prefix integral pre, mean m;
    # for a Dirac v - m and pre - level * v are exactly 0, so the atom stays put
    return v + np.expm1(q) * (v - m) + 2.0 * np.sinh(q) * (pre - level * v)


def exotic_apply_discrete(mu: DiscreteMeasure, q: float) -> DiscreteMeasure:
    """Closed form of Phi^q on a finite discrete measure.

    With atoms v_k, weights w_k, cumulative c_k (c_0 = 0), running sums
    S_k = sum_{j<=k} v_j w_j and barycenter m:

        v'_k = v_k + (e^q - 1)(v_k - m) + (e^q - e^{-q}) (S_{k-1} - v_k c_{k-1})
        c'_k = h_{-q}(c_k)

    so a Dirac stays where it is, bit for bit.  The new positions are strictly
    increasing (consecutive gaps scale by e^q (1 - c) + e^{-q} c > 0), and on a
    two-atom measure this is exactly the chart shear (x, sigma, p) -> (x, sigma,
    p + q).  An image mass that rounds to 0 raises QOutOfRange.
    """
    q = _check_q(q)
    if q == 0.0:
        return mu
    v = mu.positions
    w = mu.weights
    c = np.concatenate([[0.0], np.cumsum(w[:-1]), [1.0]])
    s = np.concatenate([[0.0], np.cumsum(v * w)])
    w2 = np.diff(_h(c, -q))
    try:
        return DiscreteMeasure(_exotic_value(v, c[:-1], s[:-1], float(np.sum(v * w)), q), w2)
    except NonPositiveWeight:  # an image mass rounded to 0
        k = int(np.argmin(w2 > 0.0))
        raise QOutOfRange(f"at q = {q!r} the mass {float(w[k])!r} at {float(v[k])!r} underflows to 0") from None


def exotic_apply_grid(mu: Measure, q: float, grid_size: int) -> list[tuple[float, float]]:
    """Quantile profile of Phi^q(mu) sampled at cell midpoints.

    Works for any measure, discrete or not: the image quantile at level
    x is a closed form in Q_mu and its prefix integral at h_q(x), the body
    ``exotic_apply_discrete`` shares (on a cell, S_{k-1} - v_k c_{k-1}).
    """
    q = _check_q(q)
    if mu.domain is not Domain.REAL_LINE:
        raise ScopeMismatch("the exotic flow acts on real-line measures")
    if not (grid_size >= 2 and grid_size % 1 == 0):  # NaN and inf fail too
        raise InvalidInput("grid_size must be an integer >= 2")
    grid_size = int(grid_size)
    x = (np.arange(grid_size) + 0.5) / grid_size
    s = _h(x, q)
    f = mu.quantile
    vals = _exotic_value(f.eval(s), s, f.prefix_integrals(s), f.integral(), q)
    return list(zip(x.tolist(), vals.tolist()))


# ----------------------------------------------------------------------
# verification


def verify_isometry(iso, p: float, trials: int = 200, seed: int = 0) -> VerificationReport:
    """Empirical distance preservation of ``apply(iso, .)`` at order p.

    Samples pairs of random discrete measures from an admissible input
    domain and compares d_p before and after, one row per trial with
    tolerance 1e-9.  The order is taken as given: running a p = 2
    isometry at p = 1 is allowed and will fail honestly.  Only an
    unsatisfiable domain scope or a trial count below 1 raises.
    """
    p = check_order(p)
    trials = _check_trials(trials)
    doms = iso.domains
    if not doms:
        raise ScopeMismatch("no input domain can pass through this composition")
    dom = Domain.REAL_LINE if Domain.REAL_LINE in doms else Domain.UNIT_INTERVAL
    claim_id = f"isometry:{iso.describe()}@p={p:g}"
    rows = []
    for trial in range(trials):
        rng = rng_for(seed, trial)
        mu = random_discrete_measure(rng, dom)
        nu = random_discrete_measure(rng, dom)
        before = wasserstein_distance(mu, nu, p)
        after = wasserstein_distance(apply(iso, mu), apply(iso, nu), p)
        rows.append(row(claim_id, trial, f"d{p:g}", before, after, 1e-9))
    return summarize(claim_id, rows, trials)
