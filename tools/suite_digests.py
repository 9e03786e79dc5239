"""Digest every suite's output over the seeds the verify-suites benchmark draws.

    python3 tools/suite_digests.py --input-seed 1100 --seeds 16

``perfbench/inputs.suite_inputs(input_seed)`` draws the suite seeds and
the trial counts of the ``verify-suites`` workload.  For the first
``--seeds`` of those seeds, every suite runs at its workload trial count
(or at ``--trials`` for all), and one SHA-256 per suite is taken over
``rows_to_csv(rows) + report.summary_line()`` of each seed in turn.  The
output is one ``<suite> <digest>`` line per suite, an ``all <digest>``
line over those, and one ``FAILED <suite> seed <seed>`` line per report
that did not pass; the exit status is 1 if any report failed.  Two trees
give the same lines exactly when every suite writes the same bytes.
The library is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import wasserline as wl  # noqa: E402

_SPEC = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inputs)


def digests(input_seed: int, seeds: int, trials: int | None = None) -> tuple[dict[str, str], list[tuple[str, int]]]:
    """Per suite the SHA-256 over its outputs at the first ``seeds``
    suite seeds, and the (suite, seed) pairs whose report failed."""
    d = inputs.suite_inputs(input_seed)
    out, failed = {}, []
    for sid, n in d["trials"].items():
        h = hashlib.sha256()
        for seed in d["seeds"][:seeds]:
            report, rows = wl.run_suite(sid, n if trials is None else trials, seed)
            h.update((wl.rows_to_csv(rows) + report.summary_line()).encode())
            if not report.passed:
                failed.append((sid, seed))
        out[sid] = h.hexdigest()
    return out, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--input-seed", type=int, required=True, help="the perfbench --seed of verify-suites")
    ap.add_argument("--seeds", type=int, default=16, help="how many of its suite seeds to run")
    ap.add_argument("--trials", type=int, default=None, help="one trial count for every suite")
    args = ap.parse_args(argv)
    out, failed = digests(args.input_seed, args.seeds, args.trials)
    for sid, digest in out.items():
        print(sid, digest)
    print("all", hashlib.sha256("".join(out.values()).encode()).hexdigest())
    for sid, seed in failed:
        print("FAILED", sid, "seed", seed)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
