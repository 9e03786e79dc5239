"""``tools/suite_digests.py`` on one benchmark seed at one trial."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import re
from pathlib import Path
from unittest import mock

import wasserline as wl

_SPEC = importlib.util.spec_from_file_location(
    "suite_digests", Path(__file__).resolve().parents[1] / "tools" / "suite_digests.py"
)
suite_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(suite_digests)

ARGS = ["--input-seed", "1100", "--seeds", "1", "--trials", "1"]


def test_one_digest_per_suite_over_its_csv_and_summary(capsys):
    assert suite_digests.main(ARGS) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    suites = list(suite_digests.inputs.suite_trials())
    assert [name for name, _ in lines] == suites + ["all"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in lines)
    seed = suite_digests.inputs.suite_inputs(1100)["seeds"][0]
    report, rows = wl.run_suite(suites[0], 1, seed)
    assert lines[0][1] == hashlib.sha256((wl.rows_to_csv(rows) + report.summary_line()).encode()).hexdigest()


def test_a_failed_report_is_named(capsys):
    run_suite = wl.run_suite

    def failing(sid, trials, seed):
        report, rows = run_suite(sid, trials, seed)
        return (dataclasses.replace(report, passed=False) if sid == "ladder-bound" else report), rows

    with mock.patch.object(suite_digests.wl, "run_suite", failing):
        assert suite_digests.main(ARGS) == 1
    seed = suite_digests.inputs.suite_inputs(1100)["seeds"][0]
    assert capsys.readouterr().out.splitlines()[-1] == f"FAILED ladder-bound seed {seed}"
