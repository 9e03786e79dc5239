"""Command-line surface.

Subcommands:

    dist A.json B.json --p 2      closed-form distance, 15 significant digits
    apply ISO.json MU.json        apply an isometry descriptor, print the image
    verify SUITE [--trials N] [--seed S] [--out report.csv]
    generate KIND [params]        emit a JSON array of measures

Exit codes are a stable contract: 0 success, 1 suite ran but failed,
2 bad input, 3 scope or domain mismatch, 4 unknown suite (see ``errors``).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import DomainMismatch, InvalidInput, ScopeMismatch, WasserlineError, _malformed
from .measures import TwoPointParam, measure_from_json, measure_to_json, two_point_from_param
from .metric import wasserstein_distance

# ``dist`` needs only the modules above; each other command imports the
# rest of what it runs, so a cold ``dist`` loads about half the package.


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh, _malformed(f"JSON file {path!r}"):
        return json.load(fh)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wasserline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance between two measure files")
    p_dist.add_argument("file_a")
    p_dist.add_argument("file_b")
    p_dist.add_argument("--p", type=float, default=2.0)

    p_apply = sub.add_parser("apply", help="apply an isometry descriptor")
    p_apply.add_argument("iso_file")
    p_apply.add_argument("measure_file")

    p_verify = sub.add_parser("verify", help="run a claim-verification suite")
    p_verify.add_argument("suite_id")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)

    p_gen = sub.add_parser("generate", help="emit a JSON array of measures")
    p_gen.add_argument("kind", choices=["qn", "mn-random", "slice-extremal", "two-point"])
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--t", type=float, default=None)
    p_gen.add_argument("--x", type=float, default=None)
    p_gen.add_argument("--sigma", type=float, default=None)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_dist(args) -> int:
    a = measure_from_json(_load_json(args.file_a))
    b = measure_from_json(_load_json(args.file_b))
    d = wasserstein_distance(a, b, args.p)
    print(f"{d:#.15g}")
    return 0


def _cmd_apply(args) -> int:
    from .isometries import apply as apply_isometry, isometry_from_json

    iso = isometry_from_json(_load_json(args.iso_file))
    mu = measure_from_json(_load_json(args.measure_file))
    out = apply_isometry(iso, mu)
    print(json.dumps(measure_to_json(out), sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    from .reports import rows_to_csv
    from .suites import SUITES, run_suite

    if args.suite_id not in SUITES:
        print(f"unknown suite: {args.suite_id!r}; known: {', '.join(SUITES)}", file=sys.stderr)
        return 4
    report, rows = run_suite(args.suite_id, trials=args.trials, seed=args.seed)
    csv_text = rows_to_csv(rows)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    print(report.summary_line())
    return 0 if report.passed else 1


def _cmd_generate(args) -> int:
    from .interval import _check_level_index, mn_element, qn_elements, slice_extremal_pair
    from .sampling import rng_for

    def need(name):
        value = getattr(args, name)
        if value is None:
            raise InvalidInput(f"--{name} is required for kind {args.kind!r}")
        return value

    if args.kind == "qn":
        measures = qn_elements(int(need("n")))
    elif args.kind == "mn-random":
        n = _check_level_index(need("n"))  # before 2**n positions are drawn
        if args.count < 1:
            raise InvalidInput(f"--count must be >= 1, got {args.count}")
        measures = [
            mn_element(np.sort(rng_for(int(args.seed), i).uniform(0.0, 1.0, 2**n)))
            for i in range(args.count)
        ]
    elif args.kind == "slice-extremal":
        measures = list(slice_extremal_pair(float(need("t"))))
    else:  # two-point
        param = TwoPointParam(float(need("x")), float(need("sigma")), float(need("p")))
        measures = [two_point_from_param(param).to_measure()]
    print(json.dumps([measure_to_json(m) for m in measures], sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "dist": _cmd_dist,
        "apply": _cmd_apply,
        "verify": _cmd_verify,
        "generate": _cmd_generate,
    }[args.command]
    try:
        return handler(args)
    except (WasserlineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (ScopeMismatch, DomainMismatch)) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
