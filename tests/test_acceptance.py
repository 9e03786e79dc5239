"""End-to-end acceptance run: each numbered criterion below executes its
full verification suite at the advertised trial count and seed, prints
one PASS/FAIL line, and fails the build if any row violates its pinned
tolerance.  The trial count is the registry's ``default_trials``.

Criterion -> suite map:
  1 distance-oracle        closed form vs the monotone-coupling LP oracle
  2 slice-diameter         extremal slice pairs attain 2t(1-t); random pairs never exceed it
  3 klein-relations        flip/reflection group relations, exact on representations
  4 ladder-bound           distance to the equi-weighted grid family and its extremal elements
  5 midpoint-geometry      quadrant identities, bisecting measures, adjacent-pair diameter probe
  6 dirac-characterization adjacency certificates at every distance for Diracs only
  7 exotic-flow            chart shear, W2 isometry, flow law, grid oracle, W1 breakage witness
  8 embedding-gallery      translations and the split embedding preserve distances; range facts
  9 cdf-recovery           CDF recovered from Dirac distances by finite differences

Each criterion also pins the SHA-256 of what ``wasserline verify <suite>
--seed 0`` writes, the CSV rows and the summary line: the behaviour
contract of a refactor, which must not move a single byte.  A change that
moves rows on purpose re-pins the suites it moves, and its CHANGES.md
entry names the changed rows and why they changed.  Rows at p not in
{1, 2} that are not dyadic go through NumPy's SIMD power kernel, so
another CPU family or NumPy build may need pins of its own; p = 1 and
p = 2 cells use only +, -, *, / and abs.
"""

from __future__ import annotations

import hashlib

from wasserline import SUITES, rows_to_csv, run_suite

SEED = 0

VERIFY_SHA256 = {
    "distance-oracle": "7b5c4ad5b9d241d978299d23122b8fccf825284ff10cbf2b0f7d37dfa888071d",
    "slice-diameter": "4fac5ce102671daa375dca0480422f6d4677a80627d578e17cf149dfea40f11c",
    "klein-relations": "a4ca4b0c6711e1c685673bf821d5e974e6f840fe9033b3f7c05835498cd4e22c",
    "ladder-bound": "ba58daf1cd5645b4ed0d3e742158cf402869f6e0d9a0f3474c0274e9acb25c64",
    "midpoint-geometry": "cf67f9b7138d286de162b297cf994af50b2f9ca953b961b6b38104fbf58aa8a8",
    "dirac-characterization": "36152fa7cb512776d7c505a4fc5a7fe8d51b7fbb93b97ecc77c0a4ef91ecfe42",
    "exotic-flow": "796296532e2ee991743759bfdf245410a0dc4f21de06002a450150d47987dd87",
    "embedding-gallery": "14f01874d0b141f5812e08cab5f0186c2cac92e4eceeea906986a3dc16a19f9c",
    "cdf-recovery": "f967880b322d2e31e3d0e820ebdce3cf5e00561d91df0115fce33e69c622314d",
}


def _check(criterion: int, suite_id: str) -> None:
    trials = SUITES[suite_id].default_trials
    report, rows = run_suite(suite_id, trials=trials, seed=SEED)
    print(f"criterion {criterion}: {report.summary_line()}")
    assert report.passed, report.summary_line()
    assert report.trials == trials
    stdout = rows_to_csv(rows) + report.summary_line() + "\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_SHA256[suite_id]


def test_every_suite_has_a_pin():
    assert set(VERIFY_SHA256) == set(SUITES)


def test_criterion_1_distance_oracle():
    _check(1, "distance-oracle")


def test_criterion_2_slice_diameter():
    _check(2, "slice-diameter")


def test_criterion_3_klein_relations():
    _check(3, "klein-relations")


def test_criterion_4_ladder_bound():
    _check(4, "ladder-bound")


def test_criterion_5_midpoint_geometry():
    _check(5, "midpoint-geometry")


def test_criterion_6_dirac_characterization():
    _check(6, "dirac-characterization")


def test_criterion_7_exotic_flow():
    _check(7, "exotic-flow")


def test_criterion_8_embedding_gallery():
    _check(8, "embedding-gallery")


def test_criterion_9_cdf_recovery():
    _check(9, "cdf-recovery")
