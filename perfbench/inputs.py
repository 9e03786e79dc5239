"""Seeded inputs for the three workloads.

Every generator takes ``--seed`` and nothing else, returns plain NumPy
arrays and Python lists (never wasserline objects), and draws from its
own ``numpy.random.Generator``.  The same seed gives byte-identical
inputs (``input_digest`` hashes a canonical byte encoding of them).
The workloads build measures from these inputs through the public
constructors, so the program only ever sees the generated data.
"""

from __future__ import annotations

import hashlib

import numpy as np

# small-pairs
SMALL_PAIRS = 1200
SMALL_MAX_ATOMS = 20
SMALL_MAX_CELLS = 6

# large-empirical: 2**20 equal weights of exactly 2**-20 sum to one in any
# order, so the tuple path and the array path give bit-identical level
# breaks and the shared-grid pair really shares its grid
LARGE_N = 2**20
LARGE_M = 3 * 2**18
LARGE_UNIT = 100_000
LARGE_CDF_POINTS = 100_000

# verify-suites: acceptance trial counts divided by SUITE_SCALE
ACCEPTANCE_TRIALS = {
    "distance-oracle": 500,
    "slice-diameter": 2000,
    "klein-relations": 200,
    "ladder-bound": 500,
    "midpoint-geometry": 500,
    "dirac-characterization": 50,
    "exotic-flow": 500,
    "embedding-gallery": 300,
    "cdf-recovery": 100,
}
SUITE_SCALE = 10
SUITE_SEEDS = 32
GENERATE_SPECS = 32
# one size per generate constructor, so each kind's median is of like calls
QN_LEVEL = 4
MN_LEVEL = 6


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2**63, stream]))


# ----------------------------------------------------------------------
# small measures


def _atoms(rng: np.random.Generator, unit: bool) -> dict:
    n = int(rng.integers(1, SMALL_MAX_ATOMS + 1))
    pos = rng.uniform(0.0, 1.0, n) if unit else 10.0 * rng.standard_normal(n)
    return {"kind": "atoms", "unit": unit, "pos": pos, "w": rng.dirichlet(np.ones(n))}


def _cells(rng: np.random.Generator, unit: bool) -> dict:
    """Mixed-type quantile: flats (atoms), ramps (density) and jumps (gaps)."""
    m = int(rng.integers(1, SMALL_MAX_CELLS + 1))
    inner = np.unique(rng.uniform(0.0, 1.0, m - 1))
    inner = inner[(inner > 0.0) & (inner < 1.0)]
    breaks = np.concatenate([[0.0], inner, [1.0]])
    m = len(breaks) - 1
    nodes = np.sort(rng.uniform(0.0, 1.0, 2 * m))
    yl, yr = nodes[0::2].copy(), nodes[1::2].copy()
    flat = rng.random(m) < 0.4
    yr[flat] = yl[flat]
    glue = rng.random(m - 1) < 0.5
    yl[1:][glue] = yr[:-1][glue]
    if not unit:
        scale = float(rng.uniform(0.5, 20.0))
        shift = float(rng.normal(0.0, 10.0))
        yl, yr = shift + scale * yl, shift + scale * yr
    return {"kind": "cells", "unit": unit, "breaks": breaks, "yl": yl, "yr": yr}


def small_inputs(seed: int) -> dict:
    """Pairs of small measures sharing a domain, plus the build parameters.

    A quarter of the pairs are two discrete measures on the line, a
    quarter mix a discrete and a mixed-type measure on the line, a
    quarter are two mixed-type measures on the line, and a quarter live
    on the unit interval (discrete or mixed-type members).
    """
    rng = _rng(seed, 1)
    pairs = []
    for i in range(SMALL_PAIRS):
        cls = i % 4
        if cls == 0:
            a, b = _atoms(rng, False), _atoms(rng, False)
        elif cls == 1:
            a, b = _atoms(rng, False), _cells(rng, False)
        elif cls == 2:
            a, b = _cells(rng, False), _cells(rng, False)
        else:
            a = _atoms(rng, True) if rng.random() < 0.5 else _cells(rng, True)
            b = _atoms(rng, True) if rng.random() < 0.5 else _cells(rng, True)
        pairs.append({
            "a": a,
            "b": b,
            "s": float(rng.uniform(0.05, 0.95)),
            "q": float(rng.uniform(-2.0, 2.0)),
            "shift": _cells(rng, False),
        })
    return {"pairs": pairs}


# ----------------------------------------------------------------------
# large empirical measures


def _distinct_normal(rng: np.random.Generator, n: int, loc: float, scale: float) -> np.ndarray:
    """n distinct positions, shuffled (exact ties would merge atoms)."""
    pos = np.unique(loc + scale * rng.standard_normal(n))
    while len(pos) < n:
        pos = np.unique(np.concatenate([pos, loc + scale * rng.standard_normal(n - len(pos))]))
    return rng.permutation(pos)


def large_inputs(seed: int) -> dict:
    rng = _rng(seed, 2)
    a_pos = _distinct_normal(rng, LARGE_N, 0.0, 1.0)
    b_pos = _distinct_normal(rng, LARGE_N, float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.5, 3.0)))
    c_pos = _distinct_normal(rng, LARGE_M, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 1.5)))
    c_w = rng.dirichlet(np.ones(LARGE_M))
    u_pos = np.unique(rng.uniform(0.0, 1.0, LARGE_UNIT))
    u_w = rng.dirichlet(np.ones(len(u_pos)))
    w_eq = np.full(LARGE_N, 2.0**-20)
    return {
        "a_pos": a_pos,
        "a_tuples": list(zip(a_pos.tolist(), w_eq.tolist())),
        "b_pos": b_pos,
        "w_eq": w_eq,
        "c_pos": c_pos,
        "c_w": c_w,
        "u_pos": u_pos,
        "u_w": u_w,
        "u_tuples": list(zip(u_pos.tolist(), u_w.tolist())),
        "cdf_points": rng.uniform(-0.05, 1.05, LARGE_CDF_POINTS),
    }


# ----------------------------------------------------------------------
# verification suites and the generate constructors


def suite_inputs(seed: int) -> dict:
    """Seeds for successive suite passes, the trial counts, and the
    generate-constructor parameters (ladder level, M_n positions, slice
    levels, two-point charts)."""
    rng = _rng(seed, 3)
    seeds = rng.integers(0, 2**31, SUITE_SEEDS).tolist()
    builds = []
    for i in range(GENERATE_SPECS):
        kind = ("qn", "mn", "slice", "two-point")[i % 4]
        if kind == "qn":
            builds.append({"kind": kind, "n": QN_LEVEL})
        elif kind == "mn":
            builds.append({"kind": kind, "pos": np.sort(rng.uniform(0.0, 1.0, 2**MN_LEVEL))})
        elif kind == "slice":
            builds.append({"kind": kind, "t": float(rng.uniform(0.01, 0.99))})
        else:
            builds.append({
                "kind": kind,
                "x": float(rng.normal(0.0, 2.0)),
                "sigma": float(rng.uniform(0.1, 5.0)),
                "p": float(rng.uniform(-2.0, 2.0)),
            })
    return {"trials": suite_trials(), "seeds": seeds, "builds": builds}


def suite_trials() -> dict[str, int]:
    return {sid: max(1, n // SUITE_SCALE) for sid, n in ACCEPTANCE_TRIALS.items()}


GENERATORS = {
    "small-pairs": small_inputs,
    "large-empirical": large_inputs,
    "verify-suites": suite_inputs,
}


def input_sizes(workload: str) -> dict:
    if workload == "small-pairs":
        return {"pairs": SMALL_PAIRS, "max_atoms": SMALL_MAX_ATOMS, "max_cells": SMALL_MAX_CELLS}
    if workload == "large-empirical":
        return {
            "shared_grid_atoms": LARGE_N,
            "merged_grid_atoms": [LARGE_M, LARGE_N],
            "unit_atoms": LARGE_UNIT,
            "cdf_points": LARGE_CDF_POINTS,
        }
    return {
        "suite_trials": suite_trials(),
        "qn_level": QN_LEVEL,
        "mn_atoms": 2**MN_LEVEL,
    }


def input_digest(data) -> bytes:
    """SHA-256 over a canonical byte encoding of generated inputs."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, list) and x and isinstance(x[0], tuple):
            feed(np.asarray(x, dtype=np.float64))  # atoms as (position, weight)
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for v in x:
                feed(v)
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + repr(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(data)
    return h.digest()
