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
"""

from __future__ import annotations

from wasserline import SUITES, run_suite

SEED = 0


def _check(criterion: int, suite_id: str) -> None:
    trials = SUITES[suite_id].default_trials
    report, _ = run_suite(suite_id, trials=trials, seed=SEED)
    print(f"criterion {criterion}: {report.summary_line()}")
    assert report.passed, report.summary_line()
    assert report.trials == trials


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
