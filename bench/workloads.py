"""The three benchmark workloads.

Each workload draws its inputs from the seed, one fixed-size round at a
time, so every run attempts whole rounds of the same operations.  ``run``
times one operation through the public API of nitsche_lab; ``check``
compares every result with the oracles in ``oracles.py`` after the timed
part is over.  Functions are looked up on their modules at call time, so
the wrappers of ``tracing.instrument`` see every call.

Check outcomes: an operation *fails* when the program reports a failure (an
exception, a failed sub-check, a sharp-constant margin below the grid
tolerance, an exit code that breaks the CLI contract); it is *wrong* when it
returns an answer that disagrees with an oracle, which makes the whole run
incorrect.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as O

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    inputs: dict
    seconds: float = 0.0
    output: object = None
    error: str | None = None
    parts: dict = field(default_factory=dict)  # sub-timings within the operation


@dataclass
class Verdicts:
    failed: list = field(default_factory=list)   # (op, reason)
    wrong: list = field(default_factory=list)    # (op, reason)
    notes: dict = field(default_factory=dict)

    def fail(self, op, reason):
        self.failed.append((op, reason))

    def expect(self, ok, op, reason):
        if not ok:
            self.wrong.append((op, reason))


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _bound(nl, sign, kappa):
    return nl.CurvatureBound.zero() if sign == "zero" else nl.CurvatureBound(sign, kappa)


# Negative curvature with kappa rho2 above about 2.4 trips the Laplacian
# sub-check of verify_end_to_end on some draws (its tolerance is absolute
# while the stencil error grows like sinh(2 kappa rho)).  Seeded draws stay
# below kappa rho2 = 1.92, where the worst of 600 draws used a fifth of the
# tolerance; Sweep.FIXED_FAULT keeps the fault visible on fixed inputs.
NEGATIVE_KAPPA_RHO2 = 2.0


def _draw_annulus(rng, sign):
    """kappa ~ U(0.6, 1.4); radii as report.random_solved_cases draws them.

    rho2 ~ U(0.35, 0.96) x scale and rho1 ~ U(0.3, 0.85) x rho2, where the
    scale is the cap pi/(2 kappa) for positive curvature, 2.2 for zero, and
    min(2.2, 2.0/kappa) for negative curvature (see NEGATIVE_KAPPA_RHO2).
    """
    kappa = None if sign == "zero" else float(rng.uniform(0.6, 1.4))
    if sign == "positive":
        scale = O.cap(sign, kappa)
    elif sign == "negative":
        scale = min(2.2, NEGATIVE_KAPPA_RHO2 / kappa)
    else:
        scale = 2.2
    rho2 = float(rng.uniform(0.35, 0.96)) * scale
    rho1 = float(rng.uniform(0.3, 0.85)) * rho2
    return kappa, rho1, rho2


def _subchecks_ok(subchecks: dict) -> dict:
    """Each sub-check block's own pass flag."""
    return {name: (blk["ok"] if "ok" in blk else blk["identity_ok"] and blk["chain_ok"])
            for name, blk in subchecks.items()}


def _check_bound_report(v: Verdicts, op, rep: dict, sign, kappa, rho1, rho2, mod,
                        n: int, solved: bool):
    """Shared checks of a BoundReport (as a dict) against the closed forms."""
    want = O.bound_sides(sign, kappa, rho1, rho2, mod)
    v.expect(_close(rep["mod"], mod, 1e-13), op, f"mod {rep['mod']!r} != {mod!r}")
    for key in ("lhs", "rhs", "rhs_sharp"):
        v.expect(_close(rep[key], want[key], 1e-12), op,
                 f"{key} {rep[key]!r} != oracle {want[key]!r}")
    passed_sub = True
    if solved:
        eps = O.eps_grid(mod, n, n)
        oks = _subchecks_ok(rep["subchecks"])
        bad = [name for name, ok in oks.items() if not ok]
        if bad:
            v.fail(op, f"sub-checks failed: {bad}")
        if want["margin_sharp"] < -eps:
            v.fail(op, f"sharp margin {want['margin_sharp']:.3e} below -eps_grid {-eps:.3e}")
        passed_sub = not bad
        floor = rep["subchecks"]["angular_energy"]["floor"]
        v.expect(_close(floor, 2 * math.pi * mod, 1e-12), op, "angular energy floor != 2 pi Mod")
    expected = "pass" if want["margin"] >= -rep["tolerance"] and passed_sub else "fail"
    v.expect(rep["verdict"] == expected, op,
             f"verdict {rep['verdict']} but oracle margin {want['margin']:.3e} says {expected}")
    return expected


class Workload:
    name = ""
    # the named metrics reported as primary_s_p50 and secondary_s_p50
    primary = ""
    secondary = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, k: int):
        return np.random.default_rng([self.seed, k])

    def round_inputs(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, op: Op, tracer=None) -> None:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> Verdicts:
        raise NotImplementedError

    def named_metrics(self, ops: list[Op]) -> dict:
        """Per-operation medians under the names the README uses."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_of(ops, kind, key=None):
    vals = [(op.parts[key] if key else op.seconds) for op in ops
            if op.kind == kind and op.error is None]
    return float(np.median(vals)) if vals else math.nan


# --------------------------------------------------------------------------
class Sweep(Workload):
    """Solved cases: critical_modulus(tol=1e-6, n=1024), then verify at 128^2.

    A round is three seeded cases per curvature sign, the first of them
    placed exactly at the critical modulus (the near-critical stratum), and
    one fixed case that fails on this code: at kappa = 1.4, rho 0.7 to 2.07,
    near-critical, the Laplacian sub-check reads about -4 times its
    tolerance on a correct solution.
    """

    name = "sweep"
    primary = "case_s_p50"
    secondary = "verify_s_p50"
    N = 128
    PER_SIGN = 3
    FIXED_FAULT = {"sign": "negative", "kappa": 1.4, "rho1": 0.7, "rho2": 2.07,
                   "beta": 1.0, "near_critical": True}

    def round_inputs(self, k):
        rng = self.rng(k)
        ops = []
        for sign in O.SIGNS:
            for j in range(self.PER_SIGN):
                kappa, rho1, rho2 = _draw_annulus(rng, sign)
                beta = 1.0 if j == 0 else float(rng.uniform(0.35, 0.98))
                ops.append(Op("case", {"sign": sign, "kappa": kappa, "rho1": rho1,
                                       "rho2": rho2, "beta": beta, "near_critical": j == 0}))
        return ops + [Op("fixed_fault", dict(self.FIXED_FAULT))]

    def warm_up(self):
        import nitsche_lab as nl

        m = nl.constant_curvature_metric(nl.CurvatureBound.zero())
        t = nl.critical_modulus(m, 0.5, 1.0, tol=1e-3, n_steps=64)
        nl.verify_end_to_end(m, 1.0, math.exp(0.5 * t), 0.5, 1.0, n_r=32, n_theta=32)

    def run(self, op, tracer=None):
        import nitsche_lab as nl

        x = op.inputs
        m = nl.constant_curvature_metric(_bound(nl, x["sign"], x["kappa"]))
        t0 = time.perf_counter()
        t_max = nl.critical_modulus(m, x["rho1"], x["rho2"], tol=1e-6, n_steps=1024)
        t1 = time.perf_counter()
        rep = nl.verify_end_to_end(m, 1.0, math.exp(x["beta"] * t_max), x["rho1"], x["rho2"],
                                   n_r=self.N, n_theta=self.N)
        t2 = time.perf_counter()
        op.seconds = t2 - t0
        op.output = {"critical_modulus": t_max, "report": rep.to_dict()}
        op.parts = {"critical_modulus": t1 - t0, "verify": t2 - t1}

    def check(self, ops):
        v = Verdicts()
        violations = {s: 0 for s in O.SIGNS}
        for op in ops:
            if op.error:
                v.fail(op, op.error)
                continue
            x, t_max, rep = op.inputs, op.output["critical_modulus"], op.output["report"]
            want = O.critical_modulus_mp(x["sign"], x["kappa"], x["rho1"], x["rho2"])
            v.expect(abs(t_max - want) <= 1e-6, op,
                     f"critical_modulus {t_max!r} vs first-integral quadrature {want!r}")
            mod = math.log(math.exp(x["beta"] * t_max) / 1.0)
            verdict = _check_bound_report(v, op, rep, x["sign"], x["kappa"], x["rho1"],
                                          x["rho2"], mod, self.N, solved=True)
            if verdict == "fail" and all(_subchecks_ok(rep["subchecks"]).values()):
                violations[x["sign"]] += 1
        v.notes["reported_constant_violations"] = violations
        v.notes["cases"] = sum(op.kind == "case" for op in ops)
        return v

    def named_metrics(self, ops):
        return {"case_s_p50": median_of(ops, "case"),
                "critical_modulus_s_p50": median_of(ops, "case", "critical_modulus"),
                "verify_s_p50": median_of(ops, "case", "verify")}


# --------------------------------------------------------------------------
class Capacity(Workload):
    """corollary_check at the criterion-8 resolution, and capacity moduli at 256.

    A round: two corollary checks on each of four catalog surfaces (n = 64),
    then modulus_capacity at n = 256 on a circular annulus, on a geodesic
    level-set mask, and on both after MaskedPolarDomain.inverted().
    """

    name = "capacity"
    primary = "corollary_s_p50"
    secondary = "capacity_256_s"
    SURFACES = ("enneper", "enneper2", "enneper_scaled", "enneper_rotated")
    N_COROLLARY = 64
    N_CAPACITY = 256

    def _radii(self, rng, surface):
        hi = 0.95 * float(O.surface_distance(surface, 1.0))
        rho1 = float(rng.uniform(0.15, 0.75 * hi))
        return rho1, rho1 + float(rng.uniform(0.15, 0.97)) * (hi - rho1)

    def round_inputs(self, k):
        rng = self.rng(k)
        ops = []
        for surface in self.SURFACES:
            for _ in range(2):
                rho1, rho2 = self._radii(rng, surface)
                ops.append(Op("corollary", {"surface": surface, "rho1": rho1, "rho2": rho2}))
        r1 = float(rng.uniform(0.2, 0.8))
        r2 = r1 * math.exp(float(rng.uniform(0.4, 1.6)))
        surface = self.SURFACES[int(rng.integers(len(self.SURFACES)))]
        rho1, rho2 = self._radii(rng, surface)
        circular = Op("capacity_256", {"domain": "circular", "r1": r1, "r2": r2,
                                       "inverted": False})
        geodesic = Op("capacity_256", {"domain": "geodesic", "surface": surface,
                                       "rho1": rho1, "rho2": rho2, "inverted": False})
        ops += [circular, geodesic]
        ops += [Op("capacity_256", {**op.inputs, "inverted": True, "partner": op})
                for op in (circular, geodesic)]
        return ops

    def warm_up(self):
        import nitsche_lab as nl

        nl.corollary_check(nl.catalog_surface("enneper"), 0.3, 0.9, n=32)
        nl.modulus_capacity(nl.Circular(0.5, 1.0), 32)

    def run(self, op, tracer=None):
        import nitsche_lab as nl

        x = op.inputs
        if op.kind == "corollary":
            t0 = time.perf_counter()
            rep = nl.corollary_check(nl.catalog_surface(x["surface"]), x["rho1"], x["rho2"],
                                     n=self.N_COROLLARY)
            op.seconds = time.perf_counter() - t0
            op.output = rep.to_dict()
            return
        n = self.N_CAPACITY
        t0 = time.perf_counter()
        if x["domain"] == "circular":
            domain = nl.Circular(x["r1"], x["r2"])
            if x["inverted"]:
                domain = nl.masked_from_circular(x["r1"], x["r2"], n).inverted()
        else:
            metric = nl.surface_metric(nl.catalog_surface(x["surface"]))
            domain = nl.masked_geodesic_annulus(metric, x["rho1"], x["rho2"], n)
            if x["inverted"]:
                domain = domain.inverted()
        value = nl.modulus_capacity(domain, n)
        op.seconds = time.perf_counter() - t0
        op.output = {"modulus": value}
        if x["domain"] == "geodesic" and not x["inverted"]:
            op.output["t"] = domain.t.copy()
            op.output["rows"] = (int(np.nonzero((domain.roles == 1).all(axis=1))[0][0]),
                                 int(np.nonzero((domain.roles == 2).all(axis=1))[0][0]))

    def check(self, ops):
        v = Verdicts()
        for op in ops:
            if op.error:
                v.fail(op, op.error)
                continue
            x, out = op.inputs, op.output
            if op.kind == "corollary":
                s1 = O.surface_chart_radius(x["surface"], x["rho1"])
                s2 = O.surface_chart_radius(x["surface"], x["rho2"])
                got1, got2 = out["provenance"]["chart_radii"]
                v.expect(_close(got1, s1, 1e-9) and _close(got2, s2, 1e-9), op,
                         f"chart radii {(got1, got2)} vs inverse distance {(s1, s2)}")
                mod = math.log(s2 / s1)
                rhs = 0.5 * mod * mod + 1.0
                v.expect(_close(out["mod"], mod, 1e-8), op, f"mod {out['mod']} vs {mod}")
                v.expect(_close(out["rhs"], rhs, 1e-8), op, f"rhs {out['rhs']} vs {rhs}")
                v.expect(out["lhs"] == x["rho2"] / x["rho1"], op, "lhs != rho2/rho1")
                v.expect((out["verdict"] == "pass") == (x["rho2"] / x["rho1"] - rhs > 0), op,
                         "corollary verdict disagrees with the closed form")
                cell = mod / (self.N_COROLLARY - 8)
                cap = out["provenance"]["capacity_modulus"]
                v.expect(abs(cap - mod) <= cell, op,
                         f"capacity {cap} vs log ratio {mod}: beyond one cell {cell:.2e}")
                if out["verdict"] != "pass":
                    v.fail(op, "corollary reported as failing")
                continue
            partner = x.get("partner")
            if partner is not None and partner.error is None:
                a, b = partner.output["modulus"], out["modulus"]
                v.expect(_close(a, b, 1e-8), op, f"inverted domain modulus {b} vs {a}")
            if x["domain"] == "circular":
                want = math.log(x["r2"] / x["r1"])
                v.expect(_close(out["modulus"], want, 1e-8), op,
                         f"circular capacity {out['modulus']} vs log(r2/r1) {want}")
            elif not x["inverted"]:
                s1 = O.surface_chart_radius(x["surface"], x["rho1"])
                s2 = O.surface_chart_radius(x["surface"], x["rho2"])
                t = out["t"]
                dist = O.surface_distance(x["surface"], np.exp(t))
                rows = (int(np.argmin(np.abs(dist - x["rho1"]))),
                        int(np.argmin(np.abs(dist - x["rho2"]))))
                v.expect(rows == out["rows"], op, f"level rows {out['rows']} vs {rows}")
                snapped = t[rows[1]] - t[rows[0]]
                v.expect(_close(out["modulus"], snapped, 1e-8), op,
                         f"mask capacity {out['modulus']} vs snapped log ratio {snapped}")
                mod = math.log(s2 / s1)
                cell = mod / (self.N_CAPACITY - 8)
                v.expect(abs(out["modulus"] - mod) <= cell, op,
                         f"mask capacity {out['modulus']} vs log ratio {mod}")
        return v

    def named_metrics(self, ops):
        return {"corollary_s_p50": median_of(ops, "corollary"),
                "capacity_256_s": median_of(ops, "capacity_256")}


# --------------------------------------------------------------------------
CLI_ENTRY = "import sys; from nitsche_lab.cli import main; sys.exit(main())"
SPAN_TAG = "BENCH_SPANS "


def _metric_arg(sign, kappa):
    spec = {"kind": "constant", "sign": sign}
    if kappa is not None:
        spec["kappa"] = kappa
    return json.dumps(spec)


class Cli(Workload):
    """Fresh ``nitsche-lab`` processes, started one at a time.

    A round: verify and solve-radial (default 4096 steps) twice each, then
    check-bound and compare, on seeded inputs; then the two fixed inputs the
    CLI mishandles on this code, which count as failed operations until
    fixed: ``check-bound --mod inf`` exits 2 instead of 4, and
    ``solve-radial`` on the unit sphere with rho2 = 3.0, past the cap pi/2,
    exits 0 instead of 4.
    """

    name = "cli"
    primary = "cli_verify_s"
    secondary = "cli_solve_radial_s"
    LIGHT = ("check_bound", "compare")
    FAULTS = {
        "fault_mod_inf": ["check-bound", "--sign", "negative", "--kappa", "1.0",
                          "--rho1", "1.0", "--rho2", "2.0", "--mod", "inf"],
        "fault_past_cap": ["solve-radial", "--metric", _metric_arg("positive", 1.0),
                           "--rho1", "0.5", "--rho2", "3.0", "--mod", "0.5", "--steps", "512"],
    }

    def round_inputs(self, k):
        rng = self.rng(k)
        ops = [self._solved(rng, "verify"), self._solved(rng, "solve_radial"),
               self._solved(rng, "verify"), self._solved(rng, "solve_radial"),
               self._check_bound(rng), self._compare(rng)]
        for kind, argv in self.FAULTS.items():
            ops.append(Op(kind, {"argv": argv}))
        return ops

    @staticmethod
    def _solved(rng, kind):
        """verify or solve-radial on a model metric at a modulus below the critical one."""
        sign = O.SIGNS[int(rng.integers(3))]
        kappa, rho1, rho2 = _draw_annulus(rng, sign)
        mod = float(rng.uniform(0.35, 0.98)) * O.critical_modulus_fast(sign, kappa, rho1, rho2)
        metric = ["--metric", _metric_arg(sign, kappa), "--rho1", repr(rho1), "--rho2", repr(rho2)]
        argv = (["verify", "--r1", "1.0", "--r2", repr(math.exp(mod))] if kind == "verify"
                else ["solve-radial", "--mod", repr(mod)]) + metric
        return Op(kind, {"sign": sign, "kappa": kappa, "rho1": rho1, "rho2": rho2,
                         "mod": mod, "argv": argv})

    @staticmethod
    def _check_bound(rng):
        sign = O.SIGNS[int(rng.integers(3))]
        kappa, rho1, rho2 = _draw_annulus(rng, sign)
        mod = float(rng.uniform(0.2, 1.5))
        argv = ["check-bound", "--sign", sign, "--rho1", repr(rho1), "--rho2", repr(rho2),
                "--mod", repr(mod)] + ([] if kappa is None else ["--kappa", repr(kappa)])
        return Op("check_bound", {"sign": sign, "kappa": kappa, "rho1": rho1,
                                  "rho2": rho2, "mod": mod, "argv": argv})

    @staticmethod
    def _compare(rng):
        """A model metric against a model bound it satisfies strictly (same sign)."""
        sign = O.SIGNS[int(rng.integers(3))]
        k_against = None if sign == "zero" else float(rng.uniform(0.6, 1.0))
        ratio = float(rng.uniform(1.1, 1.5))
        k_metric = (None if sign == "zero" else
                    k_against * ratio if sign == "negative" else k_against / ratio)
        rho_max = (float(rng.uniform(0.3, 0.9)) * O.cap(sign, k_against) if sign == "positive"
                   else float(rng.uniform(0.5, 2.0)))
        against = f"constant:{sign}" + ("" if k_against is None else f":{k_against!r}")
        return Op("compare", {"sign": sign, "k_metric": k_metric, "k_against": k_against,
                              "rho_max": rho_max, "argv": [
                                  "compare", "--metric", _metric_arg(sign, k_metric),
                                  "--against", against, "--rho-max", repr(rho_max)]})

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env

    def _launch(self, argv, traced: bool):
        head = [sys.executable, str(BENCH / "cli_child.py")] if traced else \
               [sys.executable, "-c", CLI_ENTRY]
        return subprocess.run(head + argv, env=self._env(), capture_output=True, text=True,
                              timeout=120, cwd=ROOT)

    def warm_up(self):
        self._launch(["check-bound", "--sign", "zero", "--rho1", "1.0", "--rho2", "2.0",
                      "--mod", "1.0"], traced=False)

    def run(self, op, tracer=None):
        t0 = time.perf_counter()
        if tracer is None:
            proc = self._launch(op.inputs["argv"], traced=False)
            op.seconds = time.perf_counter() - t0
        else:
            index = len(tracer.spans)
            with tracer.span("cli.process"):
                proc = self._launch(op.inputs["argv"], traced=True)
            op.seconds = time.perf_counter() - t0
            lines = proc.stderr.splitlines()
            if lines and lines[-1].startswith(SPAN_TAG):
                tracer.adopt(json.loads(lines[-1][len(SPAN_TAG):]), index)
        op.output = {"code": proc.returncode, "stdout": proc.stdout}

    def check(self, ops):
        v = Verdicts()
        for op in ops:
            if op.error:
                v.fail(op, op.error)
                continue
            code, x = op.output["code"], op.inputs
            if op.kind in self.FAULTS:
                if code != 4:
                    v.fail(op, f"{op.kind}: exit {code}, want 4 (invalid input)")
                continue
            if code not in (0, 2):
                v.fail(op, f"{op.kind}: exit {code}")
                continue
            payload = json.loads(op.output["stdout"])
            if op.kind == "verify":
                verdict = _check_bound_report(v, op, payload, x["sign"], x["kappa"],
                                              x["rho1"], x["rho2"], x["mod"], 128, solved=True)
                v.expect(code == (0 if verdict == "pass" else 2), op,
                         f"verify exit {code} for verdict {verdict}")
            elif op.kind == "check_bound":
                verdict = _check_bound_report(v, op, payload, x["sign"], x["kappa"],
                                              x["rho1"], x["rho2"], x["mod"], 0, solved=False)
                v.expect(code == (0 if verdict == "pass" else 2), op,
                         f"check-bound exit {code} for verdict {verdict}")
            elif op.kind == "solve_radial":
                v0 = O.inner_slope(x["sign"], x["kappa"], x["rho1"], x["rho2"], x["mod"])
                v.expect(code == 0 and payload["status"] == "ok", op, f"solve-radial exit {code}")
                v.expect(abs(payload["slope0"] - v0) <= 1e-7 * max(1.0, v0), op,
                         f"slope0 {payload['slope0']!r} vs first-integral slope {v0!r}")
                v.expect(abs(payload["rho2"] - x["rho2"]) <= 1e-8, op, "outer radius missed")
                v.expect(payload["rho1"] == x["rho1"] and payload["monotone"], op,
                         "inner radius or monotonicity")
                v.expect(_close(payload["mod"], x["mod"], 1e-12), op, "modulus")
            elif op.kind == "compare":
                self._check_compare(v, op, payload, code)
        return v

    def _check_compare(self, v, op, payload, code):
        x, n = op.inputs, 200
        rho = x["rho_max"] * np.arange(1, n + 1) / (n + 1)
        sign = x["sign"]
        G, Gp = O.G(sign, x["k_metric"], rho), O.G_prime(sign, x["k_metric"], rho)
        Gh, Ghp = O.G(sign, x["k_against"], rho), O.G_prime(sign, x["k_against"], rho)
        oss = float(np.min(np.concatenate([2 * Gp / G - 2 * Ghp / Gh, G**2 - Gh**2])))
        hess = float(np.min(Gp / G - Ghp / Gh))  # h_c of the bound is Ghat'/Ghat
        for key, want in (("osserman", oss), ("hessian", hess)):
            got = payload[key]
            v.expect(got["status"] == "ok" and got["passed"], op, f"{key} not passed: {got}")
            v.expect(abs(got["min_margin"] - want) <= 1e-9 * (1 + abs(want)), op,
                     f"{key} min margin {got['min_margin']!r} vs closed form {want!r}")
        v.expect(code == 0, op, f"compare exit {code}")

    def named_metrics(self, ops):
        light = [op.seconds for op in ops if op.kind in self.LIGHT]
        return {"cli_verify_s": median_of(ops, "verify"),
                "cli_solve_radial_s": median_of(ops, "solve_radial"),
                "cli_light_s": float(np.median(light)) if light else math.nan}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Sweep, Capacity, Cli)}
