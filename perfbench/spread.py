"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload small-pairs --seeds 1-10 --seconds 20 [--out FILE]

For every metric in the result line this prints the median of the runs
and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, which
is how run-to-run spread is compared with a metric's bound in
BENCHMARK.json.  With ``--out`` the summary, with every run's values and
the first run's stamp, is written as JSON; ``baseline/`` holds such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a range 1-10 or a list 3,5,8")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name),
        }
        spread = summary[name]["spread"]
        bound = summary[name]["bound"]
        flag = "" if bound is None or spread is None else (
            "  ok" if spread < bound / 3 else "  WIDE" if spread > bound else "  >bound/3")
        print(f"{name:<24} median={med:<14.6g} spread={spread if spread is None else round(spread, 4)}"
              f" bound={bound}{flag}")

    if args.out:
        record_path = ROOT / ".bench_out" / f"{args.workload}-seed{runs[0]['seed']}-trace{args.trace}.json"
        stamp = json.loads(record_path.read_text(encoding="utf-8"))["stamp"]
        Path(args.out).write_text(json.dumps({
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "stamp": stamp,
            "all_correct": all(r["correct"] for r in runs),
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
