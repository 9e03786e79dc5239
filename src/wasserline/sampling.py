"""Deterministic random generators used by verification suites.

Every trial derives its generator from SeedSequence([seed, trial]), so
suites are reproducible run to run and independent of trial order.
"""

from __future__ import annotations

import numpy as np

from .measures import Domain, Measure, from_atoms
from .plf import PLF


def rng_for(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2**63, int(trial)]))


def random_discrete_measure(
    rng: np.random.Generator, domain: Domain = Domain.REAL_LINE, max_atoms: int = 20
) -> Measure:
    """Up to ``max_atoms`` atoms; positions 10*N(0,1) on the line or
    uniform on [0, 1], weights Dirichlet(1, ..., 1)."""
    n = int(rng.integers(1, max_atoms + 1))
    if domain is Domain.REAL_LINE:
        pos = np.sort(10.0 * rng.standard_normal(n))
    else:
        pos = np.sort(rng.uniform(0.0, 1.0, n))
    w = rng.dirichlet(np.ones(n))
    return from_atoms(zip(pos, w), domain=domain)


def random_unit_measure(rng: np.random.Generator) -> Measure:
    """Mixed-type measure on [0, 1] of up to 6 cells: flats, rising
    pieces and jumps."""
    m = int(rng.integers(1, 7))
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, m - 1)), [1.0]])
    nodes = np.sort(rng.uniform(0.0, 1.0, 2 * m))
    keep = np.diff(breaks) > 0.0
    breaks = np.concatenate([breaks[:1], breaks[1:][keep]])
    m = len(breaks) - 1
    nodes = nodes[: 2 * m]
    yl = nodes[0::2].copy()
    yr = nodes[1::2].copy()
    # force a few exact flats and continuous seams for structural variety
    flat = rng.random(m) < 0.4
    yr[flat] = yl[flat]
    glue = rng.random(m - 1) < 0.5 if m > 1 else np.zeros(0, dtype=bool)
    yl[1:][glue] = yr[:-1][glue]
    # sorted draws with the zero-width cells dropped: strictly increasing
    # breaks and nondecreasing nodes; flats and glue only lower a node
    # onto the one before it
    return Measure(Domain.UNIT_INTERVAL, PLF._trusted(breaks, yl, yr))


def random_real_measure(rng: np.random.Generator) -> Measure:
    """Mixed-type measure on the line, support roughly within [-30, 30]."""
    unit = random_unit_measure(rng)
    scale = float(rng.uniform(0.5, 20.0))
    shift = float(rng.normal(0.0, 10.0))
    q = unit.quantile.map_values(scale, shift)
    return Measure(Domain.REAL_LINE, q)


def random_adjacent_pair(rng: np.random.Generator) -> tuple[Measure, Measure]:
    """A pair differing on exactly one flat stretch of both CDFs.

    Both quantiles are built from one shared value array and one shared
    break array that differ in a single entry (the level at which the
    mass switches from position a to position b), so outside [a, b) the
    two CDFs agree bit for bit and inside both are exactly constant.
    """
    spots = np.sort(rng.normal(0.0, 5.0, 2))
    a, b = float(spots[0]), float(spots[1] + 1e-3)
    e_a = float(rng.uniform(0.05, 0.45))
    e_b = float(rng.uniform(e_a + 0.1, 0.95))
    alpha = float(rng.uniform(e_a + 1e-3, e_b - 1e-3))
    beta = float(rng.uniform(alpha, e_b - 1e-4))
    if beta <= alpha:
        beta = 0.5 * (alpha + e_b)
    left_n = int(rng.integers(1, 4))
    right_n = int(rng.integers(1, 4))
    left_pos = np.sort(a - 1.0 - rng.uniform(0.0, 5.0, left_n))
    right_pos = np.sort(b + 1.0 + rng.uniform(0.0, 5.0, right_n))
    left_levels = np.sort(rng.uniform(0.0, e_a, left_n - 1))
    right_levels = np.sort(rng.uniform(e_b, 1.0, right_n - 1))
    values = np.concatenate([left_pos, [a, b], right_pos])

    def quantile(band_level: float) -> PLF:
        breaks = np.concatenate(
            [[0.0], left_levels, [e_a, band_level, e_b], right_levels, [1.0]]
        )
        return PLF(breaks, values, values)

    return (
        Measure(Domain.REAL_LINE, quantile(alpha)),
        Measure(Domain.REAL_LINE, quantile(beta)),
    )


def random_measure_in_slice(rng: np.random.Generator, t: float) -> Measure:
    """Uniform-ish sample of the slice {mu on [0,1] : d(d_0, mu) = t}.

    Blend a random measure nu with the extremal pair of its own slice
    coordinate so the blend lands exactly on level t:

        Q = a Q_nu + b Q_d0 + c Q_d1,   a t' + c = t,  a + b + c = 1,

    where Q_d0 = 0 and Q_d1 = 1, so Q = a Q_nu + c.
    """
    t = float(t)
    if t in (0.0, 1.0):
        return from_atoms([(t, 1.0)], domain=Domain.UNIT_INTERVAL)
    nu = random_unit_measure(rng)
    tp = nu.quantile.integral()
    caps = [1.0]
    if tp > 0.0:
        caps.append(t / tp)
    if tp < 1.0:
        caps.append((1.0 - t) / (1.0 - tp))
    a = float(rng.uniform(0.0, min(caps)))
    c = t - a * tp
    return Measure(Domain.UNIT_INTERVAL, nu.quantile.map_values(a, c))


def dyadic_discrete_measure(rng: np.random.Generator) -> Measure:
    """Up to 12 atoms on [0, 1] at multiples of 2**-6, with weights k/2**10.

    Weights come from an integer composition of 2**10, so they sum to
    one exactly and every cumulative sum is an exact dyadic.
    """
    n = int(rng.integers(1, 13))
    ticks = rng.choice(65, size=n, replace=False)
    pos = np.sort(ticks) / 64.0
    total = 1024
    if n == 1:
        masses = np.array([total])
    else:
        cuts = np.sort(rng.choice(np.arange(1, total), size=n - 1, replace=False))
        masses = np.diff(np.concatenate([[0], cuts, [total]]))
    w = masses / float(total)
    return from_atoms(zip(pos, w), domain=Domain.UNIT_INTERVAL)
