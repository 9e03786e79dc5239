"""Run one wasserline benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-pairs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  One
client in one process issues each call when the previous one returns
(closed loop).  A run:

1. With ``--trace 0``: set-up (import of wasserline plus seeded input
   generation) runs in SETUP_REPEATS fresh processes; ``setup_s`` is
   their median.
2. Set-up in this process, then the workload's steps for ``--seconds``
   seconds; between steps, each of the workload's CLI commands runs
   CLI_REPEATS times, each in a fresh process, one at a time.  With
   ``--trace 1`` the same steps then run again with every public
   callable wrapped (see tracing.py); the per-layer metrics come from
   that phase, and the tracing overhead is its in-call time against the
   first phase's.

Durations are taken at reference speed (speed.py).  Every result is
checked outside the timed region (oracles.py).  The last line of stdout
is one JSON object: correct, attempted, failed and the metrics
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  The lines
before it are a human-readable report; the full record, stamped with
versions, seed and input sizes, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` and the spans to
``.bench_out/<workload>-seed<seed>-spans.npz``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("small-pairs", "large-empirical", "verify-suites")
SETUP_REPEATS = 7
CLI_REPEATS = 10
SUBPROCESS_TIMEOUT = 120

# name -> unit; every workload reports every one of these
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "read_ms": "ms",
    "build_ms": "ms",
    "cli_cold_ms": "ms",
}

# traced callables reached on every workload; the rest (interval,
# midpoints, sampling, reports, suites, per-kind apply, ...) are reached on
# some workloads only and appear in the record's full per-layer table
_PER_LAYER_CALLS = (
    "plf.PLF",
    "plf.PLF.on_grid",
    "plf.PLF.canonical",
    "plf.PLF.inverse",
    "plf.abs_pow_cells",
    "plf.abs_pow_gap",
    "plf.common_grid",
    "plf.on_common_grid",
    "plf.concat_plfs",
    "measures.Measure",
    "measures.from_atoms",
    "measures.DiscreteMeasure",
    "measures.DiscreteMeasure.to_measure",
    "measures.flip",
    "metric.wasserstein_distance",
)
PER_LAYER = {
    **{f"{name}.{c}": u for name in _PER_LAYER_CALLS for c, u in (("calls", "count"), ("self_s", "s"))},
    "plf.PLF.per_distance": "ratio",
    "plf.PLF.on_grid.nodes": "count",
    "plf.PLF.on_grid.identity_ratio": "ratio",
    "plf.abs_pow_cells.cells": "count",
    "plf.PLF.inverse.segments": "count",
    "measures.from_atoms.atoms": "count",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up in this process, print its duration as JSON and exit")
    return ap.parse_args(argv)


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=SUBPROCESS_TIMEOUT)


def _setup_probe(args) -> dict:
    proc = _run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "0", "--setup-only"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class _ColdCli:
    """The workload's CLI commands, each CLI_REPEATS times in a fresh
    process, one at a time.  The runs are spread through the timed loop,
    so that a slow stretch on the host meets only some of them."""

    def __init__(self, commands, led, trace: bool) -> None:
        self.tasks = [(k, argv, want) for _ in range(CLI_REPEATS) for k, (argv, want) in enumerate(commands)]
        self.done = 0
        self.times: dict[int, list[float]] = {}
        self.inner: list[dict] = []
        self._led = led
        self._trace = trace

    def due(self, progress: float) -> bool:
        """Whether the next run is due once ``progress`` (0..1) of the loop ran."""
        return self.done < len(self.tasks) and progress >= (self.done + 0.5) / len(self.tasks)

    def run_next(self) -> None:
        import speed

        k, argv, want = self.tasks[self.done]
        self.done += 1
        timing = OUT / f"cli-probe-{k}.json"
        if self._trace:
            cmd = [sys.executable, str(HERE / "cli_probe.py"), str(timing), *argv]
        else:
            cmd = [sys.executable, "-m", "wasserline.cli", *argv]
        self._led.attempted += 1
        before = speed.reference()
        start = time.perf_counter()
        proc = _run(cmd)
        wall = time.perf_counter() - start
        # the host's speed bracketed: a cold start lasts a few tenths of a second
        wall *= speed.REF_S / (0.5 * (before + speed.reference()))
        ok = proc.returncode == 0 and proc.stdout == want
        self._led.check(f"cli {argv[0]}", lambda: ok)
        if ok:
            self.times.setdefault(k, []).append(wall)
            if self._trace:
                self.inner.append(json.loads(timing.read_text(encoding="utf-8")))


def _loop(wk, led, seconds: float | None = None, steps: int | None = None, cli: _ColdCli | None = None) -> int:
    """Run steps 0, 1, ... until the steps have taken ``seconds`` (and at
    least ``wk.min_steps`` ran, and every cold CLI run was made between
    steps) or exactly ``steps`` ran."""
    start = time.perf_counter()
    outside = 0.0
    i = 0
    while True:
        led.step_times.append(0.0)
        wk.step(led, i)
        i += 1
        if steps is not None:
            if i >= steps:
                return i
            continue
        busy = time.perf_counter() - start - outside
        while cli is not None and cli.due(busy / seconds):
            t = time.perf_counter()
            cli.run_next()
            outside += time.perf_counter() - t
        if i >= wk.min_steps and busy >= seconds and (cli is None or cli.done == len(cli.tasks)):
            return i


# ----------------------------------------------------------------------
# statistics


def _typical(by_call: dict) -> float:
    """Mean over distinct calls of each call's median repeat.

    The median drops a call's repeats that a passing burst on the host
    slowed; the mean over calls weights the workload's mix as generated.
    """
    return statistics.fmean(statistics.median(times) for times in by_call.values())


def _role_ms(led, role: str) -> float:
    """Geometric mean over the role's kinds of each kind's ``_typical``,
    so that every kind counts alike whatever its cost."""
    kinds = [_typical(c) for (r, _), c in led.samples.items() if r == role]
    return 1e3 * math.exp(statistics.fmean(math.log(v) for v in kinds))


def _tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    return pct, float(statistics.quantiles(samples, n=100, method="inclusive")[pct - 1])


def _pooled(led, role: str, kinds) -> list[float]:
    return [x for k in kinds for times in led.samples.get((role, k), {}).values() for x in times]


def _kinds(led) -> dict:
    out = {}
    for (role, kind), by_call in sorted(led.samples.items()):
        s = _pooled(led, role, [kind])
        tail = _tail(s)
        out[f"{role}.{kind}"] = {
            "n": len(s),
            "calls": len(by_call),
            "typical_s": _typical(by_call),
            "median_s": statistics.median(s),
            "tail_pct": tail[0] if tail else None,
            "tail_s": tail[1] if tail else None,
        }
    return out


def _headline(workload: str, led, cli: dict) -> dict:
    """The workload's headline numbers under their long names: rates and
    percentiles over every sample, medians over every repeat."""
    m = {}
    cold_ms = 1e3 * statistics.median(x for t in cli.values() for x in t)
    kinds = {kind for role, kind in led.samples}
    if workload == "small-pairs":
        reads = _pooled(led, "read", ["distance"])
        builds = _pooled(led, "build", kinds)
        m["small.dist_per_s"] = (len(reads) / sum(reads), "1/s")
        m["small.dist_p50_us"] = (1e6 * statistics.median(reads), "us")
        m["small.dist_p99_us"] = (1e6 * statistics.quantiles(reads, n=100)[98], "us")
        m["small.build_per_s"] = (len(builds) / sum(builds), "1/s")
        m["small.build_p99_us"] = (1e6 * statistics.quantiles(builds, n=100)[98], "us")
        m["cli.dist_cold_ms"] = (cold_ms, "ms")
    elif workload == "large-empirical":
        shared = [k for k in kinds if k.startswith("distance.shared")]
        merged = [k for k in kinds if k.startswith("distance.merged")]
        m["large.build_s"] = (statistics.median(_pooled(led, "build", ["from_atoms", "to_measure"])), "s")
        m["large.dist_shared_grid_s"] = (statistics.median(_pooled(led, "read", shared)), "s")
        m["large.dist_merged_grid_s"] = (statistics.median(_pooled(led, "read", merged)), "s")
        m["large.cdf_s"] = (statistics.median(_pooled(led, "read", ["cdf_eval"])), "s")
        m["large.flip_s"] = (statistics.median(_pooled(led, "build", ["apply.Flip"])), "s")
        m["cli.dist_cold_ms"] = (cold_ms, "ms")
    else:
        m["suites.rows_per_s"] = (sum(led.rows_by_kind.values()) / sum(_pooled(led, "read", kinds)), "1/s")
        m["cli.verify_cold_ms"] = (cold_ms, "ms")
    return m


# ----------------------------------------------------------------------
# provenance and output


def _stamp(args, wl, np, inputs) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=SUBPROCESS_TIMEOUT)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha1()
    for path in sorted((SRC / "wasserline").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha1": digest.hexdigest(),
        "wasserline": wl.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "input_sizes": inputs.input_sizes(args.workload),
    }


def _report(record: dict, path: Path, failures: list[str], notes: dict) -> None:
    print(f"== {record['stamp']['workload']} seed={record['stamp']['seed']} steps={record['steps']}"
          f" (record: {path.relative_to(ROOT)})")
    for name, (value, unit) in record["headline"].items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print("== per kind, at reference speed: typical = mean over distinct calls of the median"
          " repeat; tail = highest percentile with >= 10 samples above it")
    for kind, k in record["kinds"].items():
        tail = f"p{k['tail_pct']}={k['tail_s'] * 1e3:.4g} ms" if k["tail_pct"] else "tail n/a"
        print(f"  {kind:<36} n={k['n']:<6} calls={k['calls']:<5} typical={k['typical_s'] * 1e3:.4g} ms"
              f"  median={k['median_s'] * 1e3:.4g} ms  {tail}")
    if "per_layer" in record:
        print("== per-layer (traced phase; self_s in raw seconds)")
        for name, value in sorted(record["per_layer"].items()):
            print(f"  {name:<56} {value:.6g}")
    for what, count in notes.items():
        print(f"  note: {what} x{count}")
    for what in failures:
        print(f"FAILED: {what}", file=sys.stderr)


def _per_layer(args, tracer, led, traced_led, steps: int, cli_inner: list[dict]) -> dict:
    table = tracer.table()
    # both phases ran the same steps: pair them, so that a slow stretch on
    # the host or a cold first step does not decide the overhead's sign
    pairs = [(u, t) for u, t in zip(led.step_times, traced_led.step_times) if u > 0.0]
    table["trace.overhead_s"] = steps * statistics.median(t - u for u, t in pairs)
    table["trace.overhead_ratio"] = statistics.median(t / u for u, t in pairs) - 1.0
    if args.workload == "verify-suites":
        for (role, kind), by_call in traced_led.samples.items():
            if role == "read":
                table[f"suites.{kind}.wall_s"] = sum(sum(t) for t in by_call.values())
                table[f"suites.{kind}.rows"] = traced_led.rows_by_kind[kind]
    for key in ("import_s", "main_s"):
        if cli_inner:
            table[f"cli.{key}"] = statistics.median(t[key] for t in cli_inner)
    return table


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "wasserline" / "__init__.py").is_file():
        print(f"error: no wasserline sources at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        raw = time.perf_counter() - _START
        import speed

        r = speed.reference()
        print(json.dumps({"setup_s": raw * speed.REF_S / r, "raw_s": raw, "reference_s": r}))
        return 0

    OUT.mkdir(exist_ok=True)
    probes = [] if args.trace else [_setup_probe(args) for _ in range(SETUP_REPEATS)]

    own_start = time.perf_counter()
    import numpy as np
    import wasserline as wl

    import inputs
    import tracing
    import workloads

    if Path(wl.__file__).resolve().parent != (SRC / "wasserline").resolve():
        print(f"error: imported wasserline from {wl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wk = workloads.WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - own_start

    led = workloads.Ledger()
    cold = _ColdCli(wk.cli_commands(OUT), led, bool(args.trace))
    steps = _loop(wk, led, seconds=args.seconds, cli=cold)
    cli, cli_inner = cold.times, cold.inner
    ledgers = [led]
    table = None
    if args.trace:
        tracer = tracing.Tracer()
        ledgers.append(workloads.Ledger(tracer))
        tracer.install()
        try:
            _loop(wk, ledgers[1], steps=steps)
        finally:
            tracer.uninstall()
        table = _per_layer(args, tracer, led, ledgers[1], steps, cli_inner)
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.npz")

    attempted = sum(x.attempted for x in ledgers)
    failed = sum(x.failed for x in ledgers)
    failures = [f for x in ledgers for f in x.failures]
    setup_s = statistics.median(p["setup_s"] for p in probes) if probes else float("nan")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "stamp": _stamp(args, wl, np, inputs),
        "steps": steps,
        "own_setup_raw_s": own_setup,
        "setup_probes": probes,
        "cli_cold_s": cli,
        "speed_samples_s": {"n": len(led.speed.samples), "median": statistics.median(led.speed.samples),
                            "min": min(led.speed.samples), "max": max(led.speed.samples)},
        "failed_kinds": led.failed_kinds,
        "notes": led.notes,
        "kinds": _kinds(led),
        "headline": {
            **({"setup_s": (setup_s, "s")} if probes else {}),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "fail_ratio": (failed / attempted, "ratio"),
            **(_headline(args.workload, led, cli) if cli else {}),
        },
    }

    if table is None:
        units = END_TO_END
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "read_ms": _role_ms(led, "read"),
            "build_ms": _role_ms(led, "build"),
            "cli_cold_ms": 1e3 * _typical(cli) if cli else float("nan"),
        }
    else:
        units = PER_LAYER
        record["per_layer"] = table
        missing = [name for name in PER_LAYER if name not in table]
        if missing:
            print(f"error: per-layer metrics not observed: {', '.join(missing)}", file=sys.stderr)
            attempted += 1
            failed += 1
        metrics = {name: table.get(name, float("nan")) for name in PER_LAYER}
    record["metrics"] = metrics

    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    _report(record, path, failures, led.notes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
