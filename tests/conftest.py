"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's own cell calculus:
distances are cross-checked against adaptive quadrature of quantile
gaps and against a full linear program over all couplings, so a bug in
the closed form cannot hide behind itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from wasserline import DiscreteMeasure, Domain, Measure, PLF, from_atoms


def _same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert not got.flags.writeable
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _same_plf(got: PLF, want: PLF) -> None:
    for name in ("breaks", "yl", "yr"):
        _same_bits(getattr(got, name), getattr(want, name))


# the constructors that skip validation, as the library defines them
_UNCHECKED = {
    (PLF, "_trusted"): vars(PLF)["_trusted"],
    (Measure, "_trusted"): vars(Measure)["_trusted"],
    (DiscreteMeasure, "from_measure"): vars(DiscreteMeasure)["from_measure"],
}


@pytest.fixture(autouse=True, scope="session")
def validate_trusted_constructions():
    """Every ``PLF._trusted`` and ``Measure._trusted`` construction, and
    every ``DiscreteMeasure.from_measure``, also runs the validating
    constructor, and must store the same bits, read-only: the tests check
    each site that skips validation in production."""
    trusted_plf = PLF._trusted.__func__
    trusted_measure = Measure._trusted.__func__
    from_measure = DiscreteMeasure.from_measure.__func__

    def checked_plf(cls, breaks, yl, yr):
        valid = PLF(breaks, yl, yr)
        f = trusted_plf(cls, breaks, yl, yr)
        _same_plf(f, valid)
        return f

    def checked_measure(cls, domain, q):
        valid = Measure(domain, q)
        mu = trusted_measure(cls, domain, q)
        assert mu.domain is valid.domain
        _same_plf(mu.quantile, valid.quantile)
        return mu

    def checked_from_measure(cls, mu):
        d = from_measure(cls, mu)
        q = mu.quantile
        valid = cls(q.yl, np.diff(q.breaks))
        _same_bits(d.positions, valid.positions)
        _same_bits(d.weights, valid.weights)
        return d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PLF, "_trusted", classmethod(checked_plf))
        mp.setattr(Measure, "_trusted", classmethod(checked_measure))
        mp.setattr(DiscreteMeasure, "from_measure", classmethod(checked_from_measure))
        yield


@pytest.fixture
def unchecked_constructors(monkeypatch):
    """The trusted constructors as production runs them, without the
    validating twin above, for tests that count validations."""
    for (cls, name), method in _UNCHECKED.items():
        monkeypatch.setattr(cls, name, method)


def dirac(x: float, domain: Domain = Domain.REAL_LINE) -> Measure:
    return from_atoms([(x, 1.0)], domain=domain)


def uniform01(domain: Domain = Domain.UNIT_INTERVAL) -> Measure:
    return Measure(domain, PLF(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0])))


def quad_quantile_gap(mu: Measure, nu: Measure, p: float) -> float:
    """Adaptive quadrature of |Q_mu - Q_nu|^p over (0,1), then the p-th root."""
    from scipy.integrate import quad

    pts = np.union1d(mu.quantile.breaks, nu.quantile.breaks)
    inner = [float(t) for t in pts if 0.0 < t < 1.0]
    val, _ = quad(
        lambda y: abs(float(mu.quantile.eval(y)) - float(nu.quantile.eval(y))) ** p,
        0.0,
        1.0,
        points=inner,
        limit=400,
    )
    return float(val) ** (1.0 / p)


def linprog_transport(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Optimal transport cost by a full LP over every coupling (HiGHS).

    Unlike the monotone-coupling shortcut this searches the whole
    polytope, so it is a genuinely independent check of optimality.
    """
    from scipy.optimize import linprog

    xs, wa = mu.positions, mu.weights
    ys, wb = nu.positions, nu.weights
    n, m = len(xs), len(ys)
    cost = (np.abs(xs[:, None] - ys[None, :]) ** p).ravel()
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([wa, wb])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun) ** (1.0 / p)
