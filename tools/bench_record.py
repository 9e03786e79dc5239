"""Turn paired perfbench run records into one BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N --parent ../parent/.bench_out --change .bench_out \
        --note "2-core shared x86-64 host, pairs alternate which side runs first"

``--parent`` and ``--change`` are ``.bench_out`` directories (or record
files) written by ``perfbench/run.py``.  Records pair up by workload and
seed; a seed run on one side only is left out.  Per workload and
end-to-end metric the file holds each side's median, quartiles and IQR
(``statistics.quantiles(values, n=4)``, as ``perfbench/spread.py``
computes them), the relative change of the median, in how many pairs
the change was the better side, and a status read from those runs:

    worse         the change's median is worse than the parent's by more
                  than the metric's bound (relative to the parent's median)
    unresolved    the parent's IQR exceeds bound x its median, and not every
                  change run beats every parent run
    better        of at least ten pairs the change wins 9 in 10, and its
                  median beats the parent's by more than the parent's IQR
    within_bound  any other case

The first rule that holds gives the status.  Each timed record also
times every read and build kind (its ``kinds[*].typical_s``); an ungated
``kinds`` table per workload holds, for each kind that every timed run
recorded, each side's median of those seconds, the relative change and
in how many pairs the change was faster.  The top-level ``rejects``
list names, as ``workload/metric``, each metric whose status is
``worse`` and, as ``workload/fail_ratio``, each workload whose change
fails a larger share of operations than its parent: the two conditions
that refuse a change.  Traced records (``--trace 1``) add each side's
per-layer medians (every counter the trace table holds, as totals over
that run's steps) under ``per_layer``; a counter that not every traced
run recorded, such as a span that appears or disappears with the change,
is listed under ``per_layer_one_side`` with the median of each side's
runs that recorded it.  A traced run repeats as many steps as its timed
phase completed, so those totals cover different work on the two sides;
``per_layer_per_step`` divides each run's totals (counts, self times and
other sums) by that run's own ``steps`` before taking the median per
side.  Ratios (unit ``ratio`` in ``BENCHMARK.json``) and the cold-CLI
``cli.*`` times are not totals over the steps and are left out of it.
The commits, source digests, seeds, ``run_seconds`` and the host come
from the records' stamps.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _records(paths: list[str]) -> dict[tuple[str, int, int], dict]:
    out = {}
    for p in map(Path, paths):
        for f in sorted(p.glob("*-trace[01].json")) if p.is_dir() else [p]:
            rec = json.loads(f.read_text(encoding="utf-8"))
            s = rec["stamp"]
            out[(s["workload"], s["seed"], s["trace"])] = rec
    return out


def _spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def _status(parent: dict, change: dict, wins: int, bound: float, lower: bool) -> str:
    """worse, unresolved, better or within_bound, from two ``_spread``s and
    the number of pairs the change won."""
    s = 1.0 if lower else -1.0  # s * value grows as the metric gets worse
    gap = s * (parent["median"] - change["median"])  # > 0: the change is better
    if -gap > bound * parent["median"]:
        return "worse"
    every = max(s * y for y in change["runs"]) < min(s * x for x in parent["runs"])
    if parent["iqr"] > bound * parent["median"] and not every:
        return "unresolved"
    pairs = len(parent["runs"])
    if pairs >= 10 and wins >= 0.9 * pairs and gap > parent["iqr"]:
        return "better"
    return "within_bound"


def _one(recs: list[dict], key: str) -> list:
    return sorted({r["stamp"][key] for r in recs}, key=str)


def build(pr: int, parent: dict, change: dict, note: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {m["name"]: m for m in bench["end_to_end"]}
    ratios = {m["name"] for m in bench["per_layer"] if m["unit"] == "ratio"}
    pairs = sorted(k for k in parent if k in change)
    if not pairs:
        raise SystemExit("no workload and seed was run on both sides")
    both = [parent[k] for k in pairs] + [change[k] for k in pairs]
    stamp = both[0]["stamp"]
    doc = {
        "pr": pr,
        "run_seconds": _one(both, "seconds"),
        "parent": {"commits": _one([parent[k] for k in pairs], "commit"),
                   "source_sha1": _one([parent[k] for k in pairs], "source_sha1")},
        "change": {"commits": _one([change[k] for k in pairs], "commit"),
                   "source_sha1": _one([change[k] for k in pairs], "source_sha1")},
        "host": {**{k: stamp[k] for k in ("machine", "nproc", "cpus_usable", "platform", "python", "numpy")},
                 "note": note},
        "rejects": [],
        "workloads": {},
    }
    for workload in sorted({k[0] for k in pairs}):
        entry = doc["workloads"].setdefault(workload, {})
        timed = [k for k in pairs if k[0] == workload and k[2] == 0]
        if timed:
            entry["seeds"] = [k[1] for k in timed]
            entry["fail_ratio"] = {side: max(recs[k]["headline"]["fail_ratio"][0] for k in timed)
                                   for side, recs in (("parent", parent), ("change", change))}
            entry["metrics"] = {}
            for name, spec in gated.items():
                a = [parent[k]["metrics"][name] for k in timed]
                b = [change[k]["metrics"][name] for k in timed]
                lower = spec["better"] == "lower"
                pa, pb = _spread(a), _spread(b)
                wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
                entry["metrics"][name] = {
                    "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                    "parent": pa, "change": pb,
                    "relative_change": pb["median"] / pa["median"] - 1.0,
                    "change_better_pairs": wins,
                    "pairs": len(timed),
                    "status": _status(pa, pb, wins, spec["bound"], lower),
                }
            timed_recs = [recs[k] for recs in (parent, change) for k in timed]
            entry["kinds"] = {}
            for kind in sorted(set.intersection(*(set(r["kinds"]) for r in timed_recs))):
                a = [parent[k]["kinds"][kind]["typical_s"] for k in timed]
                b = [change[k]["kinds"][kind]["typical_s"] for k in timed]
                pa, pb = statistics.median(a), statistics.median(b)
                entry["kinds"][kind] = {
                    "parent_s": pa, "change_s": pb, "relative_change": pb / pa - 1.0,
                    "change_better_pairs": sum(y < x for x, y in zip(a, b)), "pairs": len(timed),
                }
        traced = [k for k in pairs if k[0] == workload and k[2] == 1]
        if traced:
            # totals over each run's own steps; a faster side runs more
            sides = (("parent", parent), ("change", change))
            entry["traced_seeds"] = [k[1] for k in traced]
            entry["traced_steps"] = {side: [recs[k]["steps"] for k in traced] for side, recs in sides}
            held = [set(recs[k]["per_layer"]) for _, recs in sides for k in traced]
            names = set.intersection(*held)
            entry["per_layer"] = {
                name: {side: statistics.median(recs[k]["per_layer"][name] for k in traced) for side, recs in sides}
                for name in sorted(names)
            }
            entry["per_layer_per_step"] = {
                name: {side: statistics.median(recs[k]["per_layer"][name] / recs[k]["steps"] for k in traced)
                       for side, recs in sides}
                for name in sorted(names)
                if name not in ratios and not name.startswith("cli.")
            }
            # a span that appears or disappears: the median over the runs
            # that recorded it, per side that did
            entry["per_layer_one_side"] = {
                name: {side: statistics.median(vals) for side, recs in sides
                       if (vals := [recs[k]["per_layer"][name] for k in traced if name in recs[k]["per_layer"]])}
                for name in sorted(set.union(*held) - names)
            }
        doc["rejects"] += [f"{workload}/{name}" for name, m in entry.get("metrics", {}).items()
                           if m["status"] == "worse"]
        fails = entry.get("fail_ratio")
        if fails and fails["change"] > fails["parent"]:
            doc["rejects"].append(f"{workload}/fail_ratio")
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", nargs="+", required=True, help=".bench_out directories or record files")
    ap.add_argument("--change", nargs="+", required=True, help=".bench_out directories or record files")
    ap.add_argument("--note", default="", help="free text on the host and how the pairs ran")
    ap.add_argument("--out", default=None, help="default: BENCH_<pr>.json at the repository root")
    args = ap.parse_args(argv)
    doc = build(args.pr, _records(args.parent), _records(args.change), args.note)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
