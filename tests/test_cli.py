"""Command-line surface: output formats, exit-code contract, suite
reports, and generator payloads."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from wasserline import (
    Domain,
    SplitEmbedding,
    VerificationReport,
    apply,
    from_atoms,
    isometry_from_json,
    measure_from_json,
    measure_to_json,
    run_suite,
    wasserstein_distance,
)
from wasserline.cli import main
from wasserline.reports import row, summarize
from conftest import dirac


def write_measure(tmp_path, name, mu):
    path = tmp_path / name
    path.write_text(json.dumps(measure_to_json(mu)))
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ----------------------------------------------------------------------
# dist


def test_dist_prints_fifteen_significant_digits(tmp_path, capsys):
    a = write_measure(tmp_path, "a.json", dirac(0.0))
    b = write_measure(tmp_path, "b.json", dirac(1.0))
    assert main(["dist", a, b, "--p", "1"]) == 0
    assert capsys.readouterr().out == "1.00000000000000\n"


def test_dist_mix_to_dirac(tmp_path, capsys):
    a = write_measure(tmp_path, "a.json", from_atoms([(0.0, 0.5), (1.0, 0.5)]))
    b = write_measure(tmp_path, "b.json", dirac(0.5))
    assert main(["dist", a, b, "--p", "2"]) == 0
    assert capsys.readouterr().out == "0.500000000000000\n"


def test_dist_defaults_to_order_two(tmp_path, capsys):
    a = write_measure(tmp_path, "a.json", dirac(0.0))
    b = write_measure(tmp_path, "b.json", dirac(2.0))
    assert main(["dist", a, b]) == 0
    assert capsys.readouterr().out == "2.00000000000000\n"


def test_dist_malformed_json_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    b = write_measure(tmp_path, "b.json", dirac(1.0))
    assert main(["dist", str(bad), b]) == 2
    assert "error:" in capsys.readouterr().err


def test_dist_missing_file_is_a_parse_error(tmp_path, capsys):
    b = write_measure(tmp_path, "b.json", dirac(1.0))
    assert main(["dist", str(tmp_path / "nope.json"), b]) == 2


def test_dist_bad_order_is_a_validation_error(tmp_path, capsys):
    a = write_measure(tmp_path, "a.json", dirac(0.0))
    b = write_measure(tmp_path, "b.json", dirac(1.0))
    assert main(["dist", a, b, "--p", "0.5"]) == 2


def test_dist_mixed_domains_is_a_domain_error(tmp_path, capsys):
    a = write_measure(tmp_path, "a.json", dirac(0.5, Domain.REAL_LINE))
    b = write_measure(tmp_path, "b.json", dirac(0.5, Domain.UNIT_INTERVAL))
    assert main(["dist", a, b]) == 3


# bad input of each kind: the command line, with BAD for a file holding the
# bytes given, MU for a valid measure file and NOPE for a path that does
# not exist, and what stderr names
MALFORMED = [
    ("not-utf8", ["dist", "BAD", "MU"], b"\xff\xfe{}", "BAD"),
    ("not-json", ["dist", "BAD", "MU"], b"{bad", "BAD"),
    ("missing-file", ["dist", "NOPE", "MU"], None, "NOPE"),
    ("no-atoms", ["dist", "BAD", "MU"], b'{"domain": "real", "type": "discrete"}',
     "malformed measure object: 'atoms'"),
    ("huge-position", ["dist", "BAD", "MU"], b'{"domain": "real", "type": "discrete", "atoms": [[1' + b"0" * 400
     + b', 1]]}', "malformed measure object"),
    ("exotic-null-q", ["apply", "BAD", "MU"], b'{"kind": "exotic", "q": null}', "malformed isometry object"),
    ("trivial-no-orientation", ["apply", "BAD", "MU"], b'{"kind": "trivial"}',
     "malformed isometry object: 'orientation'"),
    ("out-in-missing-dir", ["verify", "distance-oracle", "--trials", "2", "--out", "NOPE/x.csv"], None, "NOPE"),
]


@pytest.mark.parametrize("argv, payload, named", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_input_is_exit_two_and_named(tmp_path, capsys, argv, payload, named):
    paths = {"MU": write_measure(tmp_path, "mu.json", dirac(0.0)), "NOPE": str(tmp_path / "nope")}
    if payload is not None:
        paths["BAD"] = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_bytes(payload)
    for key, path in paths.items():
        argv = [arg.replace(key, path) for arg in argv]
        named = named.replace(key, path)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and named in out.err


def test_a_library_bug_is_not_bad_input(tmp_path, monkeypatch):
    # only library errors and file errors map to exit codes; a TypeError
    # from inside the library is a bug and keeps its traceback
    def broken(*args):
        raise TypeError("a bug")

    monkeypatch.setattr("wasserline.cli.wasserstein_distance", broken)
    a = write_measure(tmp_path, "a.json", dirac(0.0))
    with pytest.raises(TypeError, match="a bug"):
        main(["dist", a, a])


# ----------------------------------------------------------------------
# apply


def test_apply_flip_splits_a_dirac(tmp_path, capsys):
    iso = write_json(tmp_path, "iso.json", {"kind": "flip"})
    mu = write_measure(tmp_path, "mu.json", dirac(0.3, Domain.UNIT_INTERVAL))
    assert main(["apply", iso, mu]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"type": "discrete", "domain": "unit", "atoms": [[0.0, 0.3], [1.0, 0.7]]}


def test_apply_out_of_scope_is_exit_three(tmp_path, capsys):
    iso = write_json(tmp_path, "iso.json", {"kind": "exotic", "q": 0.5})
    mu = write_measure(tmp_path, "mu.json", dirac(0.3, Domain.UNIT_INTERVAL))
    assert main(["apply", iso, mu]) == 3
    assert "error:" in capsys.readouterr().err


def test_apply_unknown_descriptor_is_exit_two(tmp_path, capsys):
    iso = write_json(tmp_path, "iso.json", {"kind": "mystery"})
    mu = write_measure(tmp_path, "mu.json", dirac(0.3, Domain.UNIT_INTERVAL))
    assert main(["apply", iso, mu]) == 2


def test_apply_output_round_trips_as_a_measure(tmp_path, capsys):
    iso = write_json(
        tmp_path,
        "iso.json",
        {"kind": "translation", "nu": measure_to_json(dirac(2.0))},
    )
    mu = write_measure(tmp_path, "mu.json", from_atoms([(0.0, 0.5), (1.0, 0.5)]))
    assert main(["apply", iso, mu]) == 0
    out = measure_from_json(json.loads(capsys.readouterr().out))
    assert out.atoms() == [(2.0, 0.5), (3.0, 0.5)]


def test_apply_non_integral_orientation_is_exit_two(tmp_path, capsys):
    # -1.5 used to be truncated to -1, which printed the reflection
    iso = write_json(tmp_path, "iso.json", {"kind": "trivial", "orientation": -1.5, "offset": 1})
    mu = write_measure(tmp_path, "mu.json", dirac(0.25, Domain.UNIT_INTERVAL))
    assert main(["apply", iso, mu]) == 2
    assert capsys.readouterr().out == ""


_SPLIT = {"kind": "split_embedding", "profile": {"breaks": [-1.0, 1.0], "yl": [0.4], "yr": [0.6]}}


def test_apply_split_embedding_prints_a_measure(tmp_path, capsys):
    iso = write_json(tmp_path, "iso.json", _SPLIT)
    pair = from_atoms([(-3.0, 0.5), (2.0, 0.5)])
    mu = write_measure(tmp_path, "mu.json", pair)
    assert main(["apply", iso, mu]) == 0
    out = measure_from_json(json.loads(capsys.readouterr().out))
    want = apply(isometry_from_json(_SPLIT), pair)
    assert out.domain is Domain.REAL_LINE
    assert wasserstein_distance(out, want, 1.0) <= 1e-12


def test_apply_split_embedding_with_a_collapsing_level_cell_exits_zero(tmp_path, capsys):
    # the atom at -1 has a level cell that x -> (x + 2)/3 rounds to zero width
    iso = write_json(tmp_path, "iso.json", SplitEmbedding.default().to_json())
    pair = from_atoms([(-1.0, 1e-17), (1.0, 1.0 - 1e-17)])
    mu = write_measure(tmp_path, "mu.json", pair)
    assert main(["apply", iso, mu]) == 0
    out = measure_from_json(json.loads(capsys.readouterr().out))
    want = apply(SplitEmbedding.default(), pair)
    assert wasserstein_distance(out, want, 1.0) <= 1e-12


def test_apply_split_embedding_to_a_unit_measure_is_exit_three(tmp_path, capsys):
    iso = write_json(tmp_path, "iso.json", _SPLIT)
    mu = write_measure(tmp_path, "mu.json", dirac(0.25, Domain.UNIT_INTERVAL))
    assert main(["apply", iso, mu]) == 3


def test_apply_shift_of_a_unit_measure_is_exit_three(tmp_path, capsys):
    # x -> x + 1/2 takes [0, 1] off itself
    iso = write_json(tmp_path, "iso.json", {"kind": "trivial", "orientation": 1, "offset": 0.5})
    mu = write_measure(tmp_path, "mu.json", dirac(0.25, Domain.UNIT_INTERVAL))
    assert main(["apply", iso, mu]) == 3
    assert "map [0, 1] onto itself" in capsys.readouterr().err


# ----------------------------------------------------------------------
# verify


def test_verify_writes_a_deterministic_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["verify", "cdf-recovery", "--trials", "4", "--out", str(out_a)]) == 0
    first = capsys.readouterr()
    assert main(["verify", "cdf-recovery", "--trials", "4", "--out", str(out_b)]) == 0
    second = capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert first.out == second.out
    assert first.out.startswith("PASS cdf-recovery:")
    header = out_a.read_text().splitlines()[0]
    assert header == "claim_id,trial,quantity,expected,measured,abs_err,passed"


def test_verify_streams_csv_without_out_file(capsys):
    assert main(["verify", "klein-relations", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("claim_id,trial,quantity,expected,measured,abs_err,passed")
    assert "PASS klein-relations:" in out


def test_verify_csv_reads_seven_fields_per_row(tmp_path):
    # ladder-bound quantities such as dist<=bound@n=0,p=1.5 hold a comma
    out = tmp_path / "ladder.csv"
    assert main(["verify", "ladder-bound", "--trials", "1", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1 and {len(r) for r in rows} == {7}
    assert any("," in r[2] for r in rows[1:])


def test_verify_seed_changes_the_rows(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["verify", "distance-oracle", "--trials", "3", "--seed", "1", "--out", str(out_a)])
    main(["verify", "distance-oracle", "--trials", "3", "--seed", "2", "--out", str(out_b)])
    assert out_a.read_text() != out_b.read_text()


def test_verify_unknown_suite_is_exit_four(capsys):
    assert main(["verify", "no-such-suite"]) == 4
    err = capsys.readouterr().err
    assert "unknown suite" in err and "distance-oracle" in err
    assert main(["verify", "exotic-two-point"]) == 4  # no aliases
    known = capsys.readouterr().err.strip().split("; known: ")[1].split(", ")
    assert known == [
        "distance-oracle", "slice-diameter", "klein-relations", "ladder-bound", "midpoint-geometry",
        "dirac-characterization", "exotic-flow", "embedding-gallery", "cdf-recovery",
    ]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_without_a_trial_is_exit_two(trials, capsys):
    # a report over no trial would read PASS without checking a row
    assert main(["verify", "distance-oracle", "--trials", trials]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "trials must be an integer >= 1" in out.err


@pytest.mark.parametrize("trials", [0, -5, 1.5, float("nan")])
def test_run_suite_rejects_a_trial_count_that_checks_nothing(trials):
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        run_suite("exotic-flow", trials, 0)


def test_verify_failed_suite_is_exit_one(monkeypatch, capsys):
    import wasserline.suites

    failing = VerificationReport(
        claim_id="distance-oracle", trials=1, max_violation=1.0, tolerance=1.0,
        passed=False, details=(),
    )
    monkeypatch.setattr(wasserline.suites, "run_suite", lambda *a, **k: (failing, []))
    assert main(["verify", "distance-oracle"]) == 1
    assert "FAIL distance-oracle:" in capsys.readouterr().out


def test_report_details_are_the_worst_rows_failing_first():
    rows = [row("c", t, f"q{t}", 0.0, 1e-12 * t, 1e-10) for t in range(60)]
    bad = row("c", 17, "dist@p=2", 1.0, 1.5, 1e-10)
    rows.insert(40, bad)
    report = summarize("c", rows, len(rows))
    assert not report.passed
    assert report.details[0] is bad
    assert [r.trial for r in report.details[1:]] == list(range(59, 10, -1))


# ----------------------------------------------------------------------
# generate


def test_generate_qn_level_one(capsys):
    assert main(["generate", "qn", "--n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    measures = [measure_from_json(item) for item in payload]
    assert [m.atoms() for m in measures] == [
        [(0.0, 0.25), (1.0, 0.75)],
        [(0.0, 0.75), (1.0, 0.25)],
    ]


def test_generate_two_point_is_a_single_element_array(capsys):
    assert main(["generate", "two-point", "--x", "0", "--sigma", "1", "--p", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    mu = measure_from_json(payload[0])
    assert mu.atoms() == [(-1.0, 0.5), (1.0, 0.5)]


def test_generate_slice_extremal_pair(capsys):
    assert main(["generate", "slice-extremal", "--t", "0.25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    a, b = (measure_from_json(item) for item in payload)
    assert wasserstein_distance(a, b, 1.0) == pytest.approx(0.375, abs=1e-14)


def test_generate_mn_random_is_seeded(capsys):
    assert main(["generate", "mn-random", "--n", "2", "--count", "2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "mn-random", "--n", "2", "--count", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert len(payload) == 2
    for item in payload:
        atoms = measure_from_json(item).atoms()
        assert sum(w for _, w in atoms) == pytest.approx(1.0, abs=1e-12)


def test_generate_mn_random_output_is_pinned(capsys):
    assert main(["generate", "mn-random", "--n", "2", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        '[{"atoms": [[0.08564916714362436, 0.25], [0.2368105065960997, 0.25], '
        '[0.5821620360643678, 0.25], [0.8012744652063969, 0.25]], "domain": "unit", "type": "discrete"}]\n'
    )


@pytest.mark.parametrize(
    "n, message",
    [("21", "ladder index 21 is too large"), ("-1", "the ladder index n must be a nonnegative integer")],
)
def test_generate_mn_random_checks_n_before_drawing(monkeypatch, capsys, n, message):
    import wasserline.sampling

    def no_draw(*args):
        raise AssertionError("drew positions for a rejected n")

    monkeypatch.setattr(wasserline.sampling, "rng_for", no_draw)
    assert main(["generate", "mn-random", "--n", n]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_generate_without_a_measure_is_exit_two(count, capsys):
    # a count below one used to print one measure
    assert main(["generate", "mn-random", "--n", "2", "--count", count]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: --count must be >= 1, got {count}\n"


def test_generate_missing_parameter_is_exit_two(capsys):
    assert main(["generate", "qn"]) == 2
    assert "--n is required" in capsys.readouterr().err


def test_generate_unknown_kind_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["generate", "mystery"])


# ----------------------------------------------------------------------
# module entry point


def test_module_invocation_end_to_end(tmp_path):
    a = write_measure(tmp_path, "a.json", dirac(0.0))
    b = write_measure(tmp_path, "b.json", dirac(1.0))
    proc = subprocess.run(
        [sys.executable, "-m", "wasserline.cli", "dist", a, b, "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.00000000000000\n"
