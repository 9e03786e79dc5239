"""The three workloads: one client, one process, closed loop.

Each workload builds its measures from the seeded inputs, then runs
numbered steps; step i does the same calls on the same inputs every
time, so a traced phase can repeat exactly the work of an untraced one.
Every public-API call is timed on its own and tagged with a role:
``read`` for calls that return a number or a report, ``build`` for
calls that return measures.  Its result is then checked against
``oracles`` outside the timed region.

Library functions are looked up on the package at call time (``wl.x``),
never bound at import, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import time

import numpy as np
import wasserline as wl

import inputs
import oracles
import speed

REAL = wl.Domain.REAL_LINE
UNIT = wl.Domain.UNIT_INTERVAL


class Ledger:
    """Timings per (role, kind, call) and the attempted/failed operation
    counts.  A call key names one distinct call (same function, same
    inputs); steps revisit each call many times.  Timings are taken at
    reference speed (see speed.py)."""

    def __init__(self, tracer=None) -> None:
        self.speed = speed.Speed()
        self.samples: dict[tuple[str, str], dict[object, list[float]]] = {}
        self.attempted = 0
        self.failed_kinds: dict[str, int] = {}
        self.failures: list[str] = []
        self.rows_by_kind: dict[str, int] = {}
        # in-call time of each step, for pairing a traced with an untraced run
        self.step_times: list[float] = []
        self.notes: dict[str, int] = {}
        self.tracer = tracer

    def timed(self, role: str, kind: str, key, fn, *args):
        """Run one operation; returns (ok, result)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        factor = self.speed.factor()
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an unexpected raise fails the operation
            self._fail(kind, f"raised {exc!r}")
            return False, None
        elapsed = (time.perf_counter() - start) * factor
        self.samples.setdefault((role, kind), {}).setdefault(key, []).append(elapsed)
        if self.step_times:
            self.step_times[-1] += elapsed
        return True, out

    def check(self, kind: str, predicate, reproduce: str = "") -> None:
        """Apply an oracle to the last operation, with tracing paused;
        ``reproduce`` is appended to a failure's message."""
        if self.tracer is not None:
            self.tracer.paused = True
        why = "oracle rejected the result"
        try:
            ok = bool(predicate())
        except Exception as exc:  # a result the oracle cannot read is wrong
            ok = False
            why = f"oracle raised {exc!r}"
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if not ok:
            self._fail(kind, f"{why} {reproduce}".rstrip())

    def note(self, what: str) -> None:
        """Count an observation that is not a failure."""
        self.notes[what] = self.notes.get(what, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failed_kinds.values())

    def _fail(self, kind: str, why: str) -> None:
        self.failed_kinds[kind] = self.failed_kinds.get(kind, 0) + 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {why}")


def _measure(raw: dict):
    domain = UNIT if raw["unit"] else REAL
    if raw["kind"] == "atoms":
        return wl.from_atoms(list(zip(raw["pos"].tolist(), raw["w"].tolist())), domain=domain)
    return wl.from_quantile(domain, raw["breaks"], raw["yl"], raw["yr"])


def _write_json(path, mu) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(wl.measure_to_json(mu), fh)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return wl.measure_from_json(json.load(fh))


# ----------------------------------------------------------------------
# small-pairs


class _Pair:
    def __init__(self, index: int, raw: dict) -> None:
        self.index = index
        self.raw_a, self.raw_b = raw["a"], raw["b"]
        self.a, self.b = _measure(raw["a"]), _measure(raw["b"])
        self.unit = raw["a"]["unit"]
        self.discrete = raw["a"]["kind"] == raw["b"]["kind"] == "atoms"
        self.s, self.q = raw["s"], raw["q"]
        self.shift = None if self.unit else wl.Translation(_measure(raw["shift"]))
        self.scale = oracles.scale_of(raw["a"], raw["b"])
        self.orders = (1.0, 1.5, 2.0, 3.0) if self.discrete else (1.0, 2.0, 3.0)
        self._refs: dict[float, float] = {}

    def ref(self, p: float) -> float:
        """d_p(a, b) from the independent oracle, computed once."""
        if p not in self._refs:
            if self.discrete:
                self._refs[p] = wl.transport_lp_oracle(
                    wl.DiscreteMeasure(self.raw_a["pos"], self.raw_a["w"]),
                    wl.DiscreteMeasure(self.raw_b["pos"], self.raw_b["w"]),
                    p,
                )
            else:
                self._refs[p] = oracles.simpson_distance(
                    oracles.quantile_arrays(self.raw_a), oracles.quantile_arrays(self.raw_b), p
                )
        return self._refs[p]


BUILD_KINDS = ("geodesic", "hull", "translation", "exotic", "flip", "from_atoms", "json")
# pairs per build kind: small enough that each build call recurs often in a run
BUILD_POOL = 150


class SmallPairs:
    """Step i: one distance on pair i, then one build of kind i mod 7."""

    min_steps = len(BUILD_KINDS)

    def __init__(self, seed: int) -> None:
        self.pairs = [_Pair(k, raw) for k, raw in enumerate(inputs.small_inputs(seed)["pairs"])]
        fits = {
            "geodesic": lambda pr: True,
            "hull": lambda pr: True,
            "translation": lambda pr: not pr.unit,
            "exotic": lambda pr: not pr.unit and pr.discrete,
            "flip": lambda pr: pr.unit,
            "from_atoms": lambda pr: pr.raw_a["kind"] == "atoms",
            "json": lambda pr: True,
        }
        self.fit = {k: [pr for pr in self.pairs if fits[k](pr)][:BUILD_POOL] for k in BUILD_KINDS}

    def step(self, led: Ledger, i: int) -> None:
        pr = self.pairs[i % len(self.pairs)]
        p = pr.orders[(pr.index // 4) % len(pr.orders)]
        ok, d = led.timed("read", "distance", pr.index, wl.wasserstein_distance, pr.a, pr.b, p)
        if ok:
            led.check("distance", lambda: oracles.close(d, pr.ref(p), pr.scale))
        kind = BUILD_KINDS[i % len(BUILD_KINDS)]
        pool = self.fit[kind]
        getattr(self, "_" + kind)(led, pool[(i // len(BUILD_KINDS)) % len(pool)])

    # each build is checked by an identity the library must satisfy exactly
    # up to rounding, against the oracle's distance between the inputs

    def _geodesic(self, led, pr):
        ok, g = led.timed("build", "geodesic_point", pr.index, wl.geodesic_point, pr.a, pr.b, pr.s)
        if ok:
            led.check("geodesic_point", lambda: oracles.close(
                wl.wasserstein_distance(pr.a, g, 2.0), pr.s * pr.ref(2.0), pr.scale))

    def _hull(self, led, pr):
        items = [(pr.a, 1.0 - pr.s), (pr.b, pr.s)]
        ok, h = led.timed("build", "convex_hull_combination", pr.index, wl.convex_hull_combination, items)
        if ok:
            led.check("convex_hull_combination", lambda: oracles.close(
                wl.wasserstein_distance(pr.a, h, 2.0), pr.s * pr.ref(2.0), pr.scale))

    def _translation(self, led, pr):
        ok, t = led.timed("build", "apply.Translation", pr.index, wl.apply, pr.shift, pr.a)
        if ok:
            led.check("apply.Translation", lambda: oracles.close(
                wl.wasserstein_distance(t, wl.apply(pr.shift, pr.b), 2.0), pr.ref(2.0), pr.scale))

    def _exotic(self, led, pr):
        iso = wl.Exotic(pr.q)
        ok, e = led.timed("build", "apply.Exotic", pr.index, wl.apply, iso, pr.a)
        if ok:
            led.check("apply.Exotic", lambda: oracles.close(
                wl.wasserstein_distance(e, wl.apply(iso, pr.b), 2.0), pr.ref(2.0), pr.scale))

    def _flip(self, led, pr):
        ok, f = led.timed("build", "apply.Flip", pr.index, wl.apply, wl.Flip(), pr.a)
        if ok:
            led.check("apply.Flip", lambda: oracles.close(
                wl.wasserstein_distance(f, wl.apply(wl.Flip(), pr.b), 1.0), pr.ref(1.0), pr.scale))

    def _from_atoms(self, led, pr):
        raw = pr.raw_a
        atoms = list(zip(raw["pos"].tolist(), raw["w"].tolist()))
        domain = UNIT if pr.unit else REAL
        ok, m = led.timed("build", "from_atoms", pr.index, wl.from_atoms, atoms, domain)
        if ok:
            led.check("from_atoms", lambda: oracles.atoms_match(
                m, oracles.expected_atoms(raw["pos"], raw["w"])))

    def _json(self, led, pr):
        ok, r = led.timed("build", "json_round_trip", pr.index,
                          lambda mu: wl.measure_from_json(wl.measure_to_json(mu)), pr.a)
        if not ok:
            return
        # Both encodings lose rounding bits today: pl_quantile rebuilds yr as
        # a + b*w, and discrete re-normalizes and re-sums the weights, so the
        # level breaks can move by an ulp.  Bit equality is counted, and the
        # loss is bounded in d_1.
        if pr.raw_a["kind"] == "atoms" and not r == pr.a:
            led.note("json_round_trip.discrete_not_bit_equal")
        led.check("json_round_trip", lambda: (
            r.domain is pr.a.domain
            and wl.wasserstein_distance(r, pr.a, 1.0) <= oracles.JSON_D1 * pr.scale))

    def cli_commands(self, work) -> list[tuple[list[str], str]]:
        """Cold ``dist`` runs on two pairs; the expected stdout is the
        in-process distance between the same files."""
        out = []
        for k, pr in enumerate(self.pairs[:2]):
            a, b = work / f"small-{k}-a.json", work / f"small-{k}-b.json"
            _write_json(a, pr.a)
            _write_json(b, pr.b)
            d = wl.wasserstein_distance(_load_json(a), _load_json(b), 2.0)
            out.append((["dist", str(a), str(b), "--p", "2"], f"{d:#.15g}\n"))
        return out


# ----------------------------------------------------------------------
# large-empirical


class LargeEmpirical:
    """Step i: build the 2**20-atom measures through both public paths,
    then distances on a shared-grid and a merged-grid pair at p in {1, 2},
    a CDF at 10**5 points and a flip of a 10**5-atom measure."""

    min_steps = 1

    def __init__(self, seed: int) -> None:
        self.d = inputs.large_inputs(seed)
        self.uniform = wl.from_quantile(UNIT, [0.0, 1.0], [0.0], [1.0])
        self._refs: dict = {}

    def _ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _expected(self, name: str):
        pos, w = {"a": ("a_pos", "w_eq"), "b": ("b_pos", "w_eq"), "c": ("c_pos", "c_w"), "u": ("u_pos", "u_w")}[name]
        return self._ref(("atoms", name), lambda: oracles.expected_atoms(self.d[pos], self.d[w]))

    def step(self, led: Ledger, i: int) -> None:
        d = self.d
        built = {}
        for name, kind, exact, make in (
            ("a", "from_atoms", True, lambda: wl.from_atoms(d["a_tuples"])),
            ("b", "to_measure", True, lambda: wl.DiscreteMeasure(d["b_pos"], d["w_eq"]).to_measure()),
            ("c", "to_measure.dirichlet", False,
             lambda: wl.DiscreteMeasure(d["c_pos"], d["c_w"]).to_measure()),
            ("u", "from_atoms.unit", False, lambda: wl.from_atoms(d["u_tuples"], UNIT)),
        ):
            ok, mu = led.timed("build", kind, 0, make)
            if not ok:
                return
            led.check(kind, lambda: oracles.atoms_match(mu, self._expected(name), exact))
            built[name] = mu
        a, b, c, u = built["a"], built["b"], built["c"], built["u"]
        if not np.array_equal(a.quantile.breaks, b.quantile.breaks):
            led.note("shared-grid pair has different level breaks")

        ok, f = led.timed("build", "apply.Flip", 0, wl.apply, wl.Flip(), u)
        if ok:
            want = self._ref("flip", lambda: oracles.simpson_distance(
                oracles.quantile_arrays({"kind": "atoms", "pos": d["u_pos"], "w": d["u_w"]}),
                (np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0])), 1.0))
            led.check("apply.Flip", lambda: oracles.close(
                wl.wasserstein_distance(f, wl.apply(wl.Flip(), self.uniform), 1.0), want))

        # the cheaper reads repeat within a step, so that every read kind
        # gets a comparable share of the run's time and enough samples
        for grid, x, y, xn, yn, repeat in (("shared_grid", a, b, "a", "b", 3), ("merged_grid", c, a, "c", "a", 1)):
            for p in (1.0, 2.0):
                kind = f"distance.{grid}.p{p:g}"
                for _ in range(repeat):
                    ok, dist = led.timed("read", kind, 0, wl.wasserstein_distance, x, y, p)
                    if ok:
                        want = self._ref(kind, lambda: self._merge(xn, yn, p))
                        scale = max(abs(v) for n in (xn, yn) for v in self._expected(n)[0][[0, -1]])
                        led.check(kind, lambda: oracles.close(dist, want, scale))

        for _ in range(2):
            ok, cdf = led.timed("read", "cdf_eval", 0, wl.cdf_eval, u, d["cdf_points"])
            if ok:
                pos, cum = self._expected("u")
                want = self._ref("cdf", lambda: oracles.discrete_cdf(
                    pos, np.diff(cum, prepend=0.0), d["cdf_points"]))
                led.check("cdf_eval", lambda: float(np.max(np.abs(cdf - want))) <= 1e-12)

    def _merge(self, xn: str, yn: str, p: float) -> float:
        (x, cx), (y, cy) = self._expected(xn), self._expected(yn)
        return oracles.merge_distance(x, np.diff(cx, prepend=0.0), y, np.diff(cy, prepend=0.0), p)

    def cli_commands(self, work) -> list[tuple[list[str], str]]:
        u = wl.from_atoms(self.d["u_tuples"], UNIT)
        a, b = work / "large-u.json", work / "large-uniform.json"
        _write_json(a, u)
        _write_json(b, self.uniform)
        out = []
        for p in ("1", "2"):
            d = wl.wasserstein_distance(_load_json(a), _load_json(b), float(p))
            out.append((["dist", str(a), str(b), "--p", p], f"{d:#.15g}\n"))
        return out


# ----------------------------------------------------------------------
# verify-suites


BUILDS_PER_SUITE = 32


class VerifySuites:
    """Step i: all nine suites once at the i-th seed, each suite followed
    by builds through the generators behind ``wasserline generate``.
    Suite cost depends on the random measures a seed draws, so each pass
    takes a new seed and the run averages over them."""

    min_steps = 1

    def __init__(self, seed: int) -> None:
        self.d = inputs.suite_inputs(seed)

    def step(self, led: Ledger, i: int) -> None:
        builds = self.d["builds"]
        seeds = self.d["seeds"]
        for k, (sid, trials) in enumerate(self.d["trials"].items()):
            seed = seeds[i % len(seeds)]
            ok, out = led.timed("read", sid, i % len(seeds), wl.run_suite, sid, trials, seed)
            if ok:
                report, rows = out
                led.rows_by_kind[sid] = led.rows_by_kind.get(sid, 0) + len(rows)
                led.check(sid, lambda: report.passed and len(rows) > 0,
                          f"(wasserline verify {sid} --trials {trials} --seed {seed})")
            for j in range(BUILDS_PER_SUITE):
                b = ((i * len(self.d["trials"]) + k) * BUILDS_PER_SUITE + j) % len(builds)
                getattr(self, "_" + builds[b]["kind"].replace("-", "_"))(led, b, builds[b])

    def _qn(self, led, key, spec):
        n = spec["n"]
        ok, elems = led.timed("build", "qn_elements", key, wl.qn_elements, n)
        if ok:
            denom = float(2 ** (n + 1))
            led.check("qn_elements", lambda: len(elems) == 2**n and all(
                mu.atoms() == [(0.0, (2 * k - 1) / denom), (1.0, 1.0 - (2 * k - 1) / denom)]
                for k, mu in enumerate(elems, start=1)))

    def _mn(self, led, key, spec):
        pos = spec["pos"]
        ok, mu = led.timed("build", "mn_element", key, wl.mn_element, pos)
        if ok:
            led.check("mn_element", lambda: oracles.atoms_match(
                mu, oracles.expected_atoms(pos, np.ones(len(pos)))))

    def _slice(self, led, key, spec):
        t = spec["t"]
        ok, pair = led.timed("build", "slice_extremal_pair", key, wl.slice_extremal_pair, t)
        if ok:
            def good():
                (x0, m0), (x1, m1) = pair[0].atoms()
                return (x0, x1) == (0.0, 1.0) and abs(m0 - (1.0 - t)) <= 1e-15 \
                    and abs(m1 - t) <= 1e-15 and pair[1].atoms() == [(t, 1.0)]
            led.check("slice_extremal_pair", good)

    def _two_point(self, led, key, spec):
        x, sigma, p = spec["x"], spec["sigma"], spec["p"]
        ok, mu = led.timed("build", "two_point", key, lambda: wl.two_point_from_param(
            wl.TwoPointParam(x, sigma, p)).to_measure())
        if ok:
            ep, em = np.exp(p), np.exp(-p)
            want = [(x - sigma * ep, em / (ep + em)), (x + sigma * em, ep / (ep + em))]
            led.check("two_point", lambda: all(
                oracles.close(g, w, 1.0) for got, exp in zip(mu.atoms(), want) for g, w in zip(got, exp)
            ) and len(mu.atoms()) == 2)

    def cli_commands(self, work) -> list[tuple[list[str], str]]:
        out = []
        for seed in self.d["seeds"][:2]:
            report, rows = wl.run_suite("distance-oracle", 20, seed)
            want = wl.rows_to_csv(rows) + report.summary_line() + "\n"
            out.append((["verify", "distance-oracle", "--trials", "20", "--seed", str(seed)], want))
        return out


WORKLOADS = {
    "small-pairs": SmallPairs,
    "large-empirical": LargeEmpirical,
    "verify-suites": VerifySuites,
}
