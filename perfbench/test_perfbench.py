"""Self-tests for the benchmark: oracles, seeding, tracing and the
result line's contract with BENCHMARK.json.

    python3 -m pytest perfbench -q

The contract tests run every workload briefly, traced and untraced, so
this file takes a few minutes; it is not part of the library's tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import wasserline as wl  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PERTURB = 1.0 + 1e-8


# ----------------------------------------------------------------------
# oracles


def test_small_pair_oracles_reject_a_relative_1e8_perturbation(monkeypatch):
    exact = wl.wasserstein_distance
    wk = workloads.SmallPairs(3)
    steps = 40
    clean = workloads.Ledger()
    for i in range(steps):
        wk.step(clean, i)
    assert clean.failed == 0

    monkeypatch.setattr(wl, "wasserstein_distance", lambda mu, nu, p=2.0: exact(mu, nu, p) * PERTURB)
    bent = workloads.Ledger()
    for i in range(steps):
        wk.step(bent, i)
    # every distance read, on discrete and on mixed pairs, is rejected
    assert bent.failed_kinds["distance"] == steps
    assert {wk.pairs[i].discrete for i in range(steps)} == {True, False}


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_simpson_oracle_rejects_a_relative_1e8_perturbation(p):
    wk = workloads.SmallPairs(4)
    for pr in wk.pairs[:40]:
        if pr.discrete:
            continue
        d = wl.wasserstein_distance(pr.a, pr.b, p)
        want = pr.ref(p)
        assert oracles.close(d, want, pr.scale)
        if want > 1e-3 * pr.scale:
            assert not oracles.close(d * PERTURB, want, pr.scale)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_merge_oracle_rejects_a_relative_1e8_perturbation(p):
    rng = np.random.default_rng(5)
    x = np.sort(rng.standard_normal(10_000))
    y = np.sort(1.0 + 2.0 * rng.standard_normal(7_000))
    wx = rng.dirichlet(np.ones(len(x)))
    wy = np.full(len(y), 1.0 / len(y))
    want = oracles.merge_distance(x, wx, y, wy, p)
    d = wl.wasserstein_distance(wl.DiscreteMeasure(x, wx).to_measure(), wl.DiscreteMeasure(y, wy).to_measure(), p)
    scale = float(max(np.max(np.abs(x)), np.max(np.abs(y))))
    assert oracles.close(d, want, scale)
    assert not oracles.close(d * PERTURB, want, scale)


def test_cdf_oracle_matches_the_library_and_rejects_a_perturbation():
    rng = np.random.default_rng(6)
    pos = np.unique(rng.uniform(0.0, 1.0, 500))
    w = rng.dirichlet(np.ones(len(pos)))
    mu = wl.from_atoms(zip(pos.tolist(), w.tolist()), domain=wl.Domain.UNIT_INTERVAL)
    points = np.concatenate([rng.uniform(-0.1, 1.1, 200), pos[:50]])
    want = oracles.discrete_cdf(pos, w, points)
    got = wl.cdf_eval(mu, points)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got * PERTURB - want)) > 1e-12


# ----------------------------------------------------------------------
# seeding


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    gen = inputs.GENERATORS[name]
    first = inputs.input_digest(gen(11))
    assert inputs.input_digest(gen(11)) == first
    assert inputs.input_digest(gen(12)) != first


# ----------------------------------------------------------------------
# tracing


def test_tracer_sees_calls_made_through_from_imports_and_uninstalls():
    mu = wl.from_atoms([(0.0, 0.5), (1.0, 0.5)])
    nu = wl.from_atoms([(0.25, 0.25), (2.0, 0.75)])
    original = wl.metric.on_common_grid
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wl.metric.on_common_grid is not original
        wl.wasserstein_distance(mu, nu, 2.0)
        wl.apply(wl.Flip(), wl.from_atoms([(0.5, 1.0)], domain=wl.Domain.UNIT_INTERVAL))
    finally:
        tracer.uninstall()
    assert wl.metric.on_common_grid is original
    table = tracer.table()
    # metric.py binds abs_pow_gap and on_common_grid with ``from .plf import``
    for name in ("metric.wasserstein_distance", "plf.abs_pow_gap", "plf.on_common_grid",
                 "plf.PLF.on_grid", "plf.abs_pow_cells", "isometries.apply.Flip", "measures.flip"):
        assert table[f"{name}.calls"] >= 1, name
    assert table["plf.abs_pow_cells.cells"] == 3
    # self time excludes children: the outer call cannot own all the time
    spans = np.frombuffer(tracer.span_end) - np.frombuffer(tracer.span_start)
    assert table["metric.wasserstein_distance.self_s"] < spans[0]


# ----------------------------------------------------------------------
# the result line


def _result(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("traced", [0, 1])
def test_printed_metric_names_match_benchmark_json(workload, traced):
    proc = _result(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(traced)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = BENCH["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in registered]
    for m in registered:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-pairs", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
