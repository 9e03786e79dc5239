"""Package-level contracts: the version, the public names, byte-stable
5-trial suite output, the distances a suite computes, bit-stable
small-pair distances, one trial count per suite in the registry, the
benchmark inputs and the README, and suite seeds that once failed their
own tolerance.  The suites' full seed-0 output is pinned in
``test_acceptance``."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path
from unittest import mock

import pytest

import wasserline
from wasserline import metric, midpoints, suites
from wasserline.cli import main
from wasserline.reports import rows_to_csv
from wasserline.suites import SUITES, run_suite

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(wasserline.__file__).resolve().parent

# Every name ``from wasserline import *`` gives; submodules are not among them.
# A change that adds or removes a public name edits this list on purpose.
PUBLIC_NAMES = [
    "AdjacencyWitness", "AlphaOutOfRange", "BarycentricReflection", "Composition",
    "DiscreteMeasure", "Domain", "DomainMismatch", "EqualEndpoints", "Exotic", "Flip",
    "InvalidInput", "InvalidIntervalIsometry", "InvalidP", "LevelOutOfRange", "Measure", "MidpointGeometry",
    "MonotoneRange", "NonPositiveWeight", "NotBisectable", "NotMonotone", "PLF",
    "PositionOutOfRange", "ProbeResult", "QOutOfRange", "ReportRow", "SUITES", "ScopeMismatch",
    "SplitEmbedding", "StepOutOfRange", "TooManyAtoms", "Translation", "Trivial",
    "TwoPointParam", "UnsortedPositions", "VerificationReport", "WasserlineError",
    "WeightError", "WeightSumOutOfTolerance", "abs_pow_cells", "abs_pow_gap", "apply",
    "barycenter", "bisecting_pair", "cdf_eval", "cdf_from_dirac_distances", "check_order",
    "concat_plfs", "const_plf", "convex_hull_combination", "dirac_certificate", "dist_to_dirac",
    "exotic_apply_discrete", "exotic_apply_grid", "flip", "from_atoms", "from_quantile",
    "from_segments", "geodesic_point", "h_q_eval", "h_q_inverse", "is_adjacent", "is_midpoint",
    "isometry_from_json", "ladder_bound", "measure_from_json", "measure_to_json",
    "midpoint_diameter_probe", "midpoint_geometry", "mn_element", "monotone_range",
    "nearest_in_mn", "param_from_two_point", "plf_combine", "plf_splice", "pushforward_affine",
    "qn_elements", "quantile_eval", "rows_to_csv", "run_suite", "slice_extremal_pair",
    "slice_of", "t_star", "transport_lp_oracle", "two_point_from_param",
    "verify_isometry", "wasserstein_distance",
]

# SHA-256 of rows_to_csv(run_suite(id, trials=5, seed=0)); see
# test_suite_csv_digest.
SUITE_CSV_SHA256 = {
    "distance-oracle": "d0aca2dc7e061022d16ba3e5355cd655e9a2d4a3a4bf2b012cfd8c318775875e",
    "slice-diameter": "835bfaed55d031a8259823c3ad8b26eb4c988434de1b52527ebceeb2f7516320",
    "klein-relations": "6c750573b2926ffb12f9b085efb9b61ab4d11c04e5214f1a2570d1c98941c4a6",
    "ladder-bound": "55740b93bb7173b8ba824c6b923dcdf70637ba7f76cb1d544faa9f037c110b70",
    "midpoint-geometry": "cf272a6249f9245155fddac6f5f87454a46a6641c31de9b4593b8e634da8f569",
    "dirac-characterization": "d34f5352ae90065897fe3433233b994eb44737792be36093b31c1283e72d8a52",
    "exotic-flow": "1fae80eec4a3b32db16cbe462b654831222b9da777ddd0aadf5c27e7a4a6f456",
    "embedding-gallery": "50a8b78e83390c9db57d8db1145ecc4057d3f776e86c99aa36b37fec8c76008f",
    "cdf-recovery": "1366416ef9b8d715b80acb09e97776bcc8ecae548e05346d745d54dfed4032e4",
}


def test_version_matches_pyproject():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert wasserline.__version__ == tomllib.load(fh)["project"]["version"]


def test_public_names_are_pinned():
    assert sorted(wasserline.__all__) == PUBLIC_NAMES


def test_each_public_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES:
        obj = getattr(wasserline, name)
        module = sys.modules[f"wasserline.{wasserline._MODULE_OF[name]}"]
        assert obj is vars(module)[name], name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    assert wasserline.run_suite is wasserline.suites.run_suite


def test_dir_lists_the_public_names():
    listed = dir(wasserline)
    assert "__all__" in listed and "__version__" in listed
    assert set(PUBLIC_NAMES) <= set(listed)


def test_star_import_gives_the_public_names():
    namespace: dict = {}
    exec("from wasserline import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


def test_submodules_resolve_and_unknown_names_raise():
    from wasserline import suites as by_from

    assert by_from is wasserline.suites is sys.modules["wasserline.suites"]
    assert wasserline.sampling is sys.modules["wasserline.sampling"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wasserline.no_such_name
    assert not hasattr(wasserline, "cdf")


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this package; its stdout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('wasserline'))))"


def test_importing_the_package_loads_only_the_errors():
    assert json.loads(_fresh(f"import wasserline; {_LOADED}")) == ["wasserline", "wasserline.errors"]


def test_a_cold_dist_loads_only_the_modules_it_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, x in ((a, 0.0), (b, 1.0)):
        path.write_text(json.dumps(wasserline.measure_to_json(wasserline.from_atoms([(x, 1.0)]))))
    out = _fresh(f"from wasserline.cli import main; main(['dist', {str(a)!r}, {str(b)!r}]); {_LOADED}")
    distance, loaded = out.splitlines()
    assert distance == "1.00000000000000"
    assert json.loads(loaded) == [
        "wasserline", "wasserline.cli", "wasserline.errors", "wasserline.measures", "wasserline.metric",
        "wasserline.plf",
    ]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # no import cycle hides behind the lazy exports: any module can come
    # first, and every public name resolves after it
    name = "wasserline" if module == "__init__" else f"wasserline.{module}"
    _fresh(f"import {name}, wasserline; [getattr(wasserline, n) for n in wasserline.__all__]")


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_suite_csv_digest(suite_id):
    """Every suite's CSV stays byte-identical at seed 0 and 5 trials.

    Each trial draws from ``rng_for(seed, trial)``, so these rows are
    also rows of the full seed-0 run that ``test_acceptance`` pins; this
    cheaper digest names the suite that moved when a change is tried at
    a few trials.  A suite missing from the table fails here.  The same
    rules as the acceptance pins hold: a change that moves rows on
    purpose re-pins them and names them in CHANGES.md, and rows at p not
    in {1, 2} that are not dyadic depend on NumPy's SIMD power kernel.
    """
    _, rows = run_suite(suite_id, trials=5, seed=0)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == SUITE_CSV_SHA256[suite_id]


def test_dirac_suite_takes_each_certificate_distance_from_its_geometry():
    # per trial and n: the two bisecting measures' distances to eta; the
    # cert-distance row reads geo.D instead of a third distance
    with mock.patch.object(suites, "wasserstein_distance", wraps=suites.wasserstein_distance) as dist:
        run_suite("dirac-characterization", trials=5, seed=0)
    assert dist.call_count == 5 * 8 * 2


def test_midpoint_probe_takes_its_distance_and_crossings_from_the_geometry():
    # the probe's glue filter reads geo.D and its grid reads geo.crossed:
    # 15 distances and 5 crossings fewer than when it recomputed both
    with mock.patch.object(metric, "abs_pow_gap", wraps=metric.abs_pow_gap) as gap, \
            mock.patch.object(midpoints, "_with_crossings", wraps=midpoints._with_crossings) as cross:
        run_suite("midpoint-geometry", trials=5, seed=0)
    assert (gap.call_count, cross.call_count) == (82, 20)


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# SHA-256 of wasserstein_distance(x, y, p).hex() over perfbench's
# small_inputs(1): every pair in both argument orders at each of the orders
# p the small-pairs workload reads it at; see
# test_small_pair_distances_are_bit_stable.
SMALL_PAIRS_SHA256 = "7ea196afc17a0e6b8789471a866f331cd3c9a13764fe07ad1c17c08e6127c81b"


def _small_measure(raw: dict) -> wasserline.Measure:
    domain = wasserline.Domain.UNIT_INTERVAL if raw["unit"] else wasserline.Domain.REAL_LINE
    if raw["kind"] == "atoms":
        return wasserline.from_atoms(list(zip(raw["pos"].tolist(), raw["w"].tolist())), domain=domain)
    return wasserline.from_quantile(domain, raw["breaks"], raw["yl"], raw["yr"])


def test_small_pair_distances_are_bit_stable():
    """The small-pairs workload's distances, mixed pairs at p = 3 and
    discrete pairs at p = 1.5 included, which the suites reach only
    indirectly; like the acceptance pins, p not in {1, 2} depends on the
    NumPy build's power kernel."""
    h = hashlib.sha256()
    for pair in _perfbench_inputs().small_inputs(1)["pairs"]:
        a, b = _small_measure(pair["a"]), _small_measure(pair["b"])
        discrete = pair["a"]["kind"] == pair["b"]["kind"] == "atoms"
        for p in (1.0, 1.5, 2.0, 3.0) if discrete else (1.0, 2.0, 3.0):
            for x, y in ((a, b), (b, a)):
                h.update(wasserline.wasserstein_distance(x, y, p).hex().encode())
    assert h.hexdigest() == SMALL_PAIRS_SHA256


def test_the_three_trial_tables_agree():
    # the registry, the benchmark's acceptance counts and the README
    # criteria table each list every suite with its acceptance trials
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = {sid: int(n) for sid, n in re.findall(r"^\| \d+ \| `([a-z-]+)` \| (\d+) \|", readme, re.M)}
    registry = {sid: spec.default_trials for sid, spec in SUITES.items()}
    assert registry == _perfbench_inputs().ACCEPTANCE_TRIALS == table


# Both seeds failed while W1 cells went through the divided difference of
# the signed power primitive, which cancels on near-parallel cells.
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "embedding-gallery", "--trials", "30", "--seed", "2060253207"],
        ["verify", "midpoint-geometry", "--trials", "50", "--seed", "306455037"],
    ],
)
def test_suite_seed_that_cancelled_in_w1_cells_passes(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.rstrip().splitlines()[-1].startswith("PASS ")
