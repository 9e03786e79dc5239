"""The status ``tools/bench_record.py`` gives each workload and end-to-end
metric of a BENCH file, and the rejects it lists."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]  # IQR 2
NOISY = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]  # IQR 52.5


def status(parent: list[float], change: list[float], lower: bool = True, bound: float = 0.25) -> str:
    wins = sum((y < x) if lower else (y > x) for x, y in zip(parent, change))
    return bench_record._status(bench_record._spread(parent), bench_record._spread(change), wins, bound, lower)


@pytest.mark.parametrize(
    "parent, change, lower, want",
    [
        (STEADY, [1.3 * x for x in STEADY], True, "worse"),
        (STEADY, [0.7 * x for x in STEADY], False, "worse"),
        (STEADY, [0.8 * x for x in STEADY], True, "better"),
        (STEADY, [x - 0.5 for x in STEADY], True, "within_bound"),  # 10/10 pairs, gap below the IQR
        (NOISY, NOISY[::-1], True, "unresolved"),
        (NOISY, [55.0] * 10, True, "within_bound"),  # every run beats every parent run, gap below the IQR
        (NOISY, [20.0] * 10, True, "better"),
        (STEADY[:9], [0.8 * x for x in STEADY[:9]], True, "within_bound"),  # fewer than ten pairs
    ],
)
def test_status_rules(parent, change, lower, want):
    assert status(parent, change, lower) == want


def _record(workload: str, seed: int, fail_ratio: float, metrics: dict) -> dict:
    stamp = {"workload": workload, "seed": seed, "trace": 0, "seconds": 20.0, "commit": "c", "source_sha1": "s",
             "machine": "x86_64", "nproc": 2, "cpus_usable": 2, "platform": "p", "python": "3", "numpy": "2"}
    return {"stamp": stamp, "headline": {"fail_ratio": [fail_ratio]}, "metrics": metrics, "kinds": {}}


def test_rejects_name_worse_metrics_and_a_larger_fail_ratio():
    names = ("setup_s", "peak_rss_mb", "read_ms", "build_ms", "cli_cold_ms")
    # a: read_ms 30% worse; b: fails 1% of operations; c: unchanged
    sides = {"a": (0.0, {"read_ms": 1.3}), "b": (0.01, {}), "c": (0.0, {})}
    parent, change = {}, {}
    for seed, x in enumerate(STEADY):
        for workload, (fails, scale) in sides.items():
            parent[(workload, seed, 0)] = _record(workload, seed, 0.0, dict.fromkeys(names, x))
            moved = {name: scale.get(name, 1.0) * x for name in names}
            change[(workload, seed, 0)] = _record(workload, seed, fails, moved)
    doc = bench_record.build(10, parent, change, "")
    assert doc["rejects"] == ["a/read_ms", "b/fail_ratio"]
    assert doc["workloads"]["a"]["metrics"]["read_ms"]["status"] == "worse"


def test_spans_one_side_recorded_are_listed_with_that_side_only():
    def traced(per_layer: dict) -> dict:
        rec = _record("w", 7, 0.0, {})
        rec["stamp"]["trace"] = 1
        return {**rec, "steps": 3, "per_layer": per_layer}

    parent = {("w", 7, 1): traced({"plf.PLF.calls": 10, "gone.calls": 4})}
    change = {("w", 7, 1): traced({"plf.PLF.calls": 8, "new.calls": 2, "new.self_s": 0.5})}
    entry = bench_record.build(11, parent, change, "")["workloads"]["w"]
    assert entry["per_layer"] == {"plf.PLF.calls": {"parent": 10, "change": 8}}
    assert entry["per_layer_one_side"] == {
        "gone.calls": {"parent": 4},
        "new.calls": {"change": 2},
        "new.self_s": {"change": 0.5},
    }


def test_per_step_totals_divide_each_run_by_its_own_steps():
    def traced(seed: int, steps: int, per_layer: dict) -> dict:
        rec = _record("w", seed, 0.0, {})
        rec["stamp"]["trace"] = 1
        return {**rec, "steps": steps, "per_layer": per_layer}

    # the change ran twice the steps: the same totals are half the work per step
    same = {"plf.PLF.calls": 40, "plf.PLF.self_s": 2.0, "plf.PLF.per_distance": 4.0, "cli.import_s": 0.1}
    parent = {("w", s, 1): traced(s, 4, same) for s in (1, 2, 3)}
    change = {("w", s, 1): traced(s, 8 if s < 3 else 4, same) for s in (1, 2, 3)}
    entry = bench_record.build(17, parent, change, "")["workloads"]["w"]
    assert entry["per_layer"]["plf.PLF.calls"] == {"parent": 40, "change": 40}
    assert entry["per_layer_per_step"] == {
        "plf.PLF.calls": {"parent": 10.0, "change": 5.0},
        "plf.PLF.self_s": {"parent": 0.5, "change": 0.25},
    }


def test_kinds_table_compares_each_kinds_typical_call():
    names = ("setup_s", "peak_rss_mb", "read_ms", "build_ms", "cli_cold_ms")

    def timed(seed: int, kinds: dict) -> dict:
        rec = _record("w", seed, 0.0, dict.fromkeys(names, 1.0))
        return {**rec, "kinds": {kind: {"n": 5, "calls": 1, "typical_s": s} for kind, s in kinds.items()}}

    # build.flip halves in two of three pairs; read.d is timed on the parent only
    parent = {("w", s, 0): timed(s, {"build.flip": 4e-3, "read.d": 1e-3}) for s in (1, 2, 3)}
    change = {("w", s, 0): timed(s, {"build.flip": 2e-3 if s < 3 else 5e-3}) for s in (1, 2, 3)}
    kinds = bench_record.build(19, parent, change, "")["workloads"]["w"]["kinds"]
    flip = {"parent_s": 4e-3, "change_s": 2e-3, "relative_change": -0.5, "change_better_pairs": 2, "pairs": 3}
    assert kinds == {"build.flip": flip}
