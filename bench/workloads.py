"""The benchmark's four workloads.

Each workload is built from a seed and the imported ``bicausal`` package. Its
constructor is the set-up (input generation and a small warm-up), ``run``
is one timed pass through the public API or CLI, and ``evaluate`` checks a
pass's outputs at the acceptance suite's tolerances, outside the timed
region. All four are closed-loop with a single caller in one thread.

Why each workload exists (which layer it stresses):

* ``mc_large_n``: few cells with N up to 1e5, so O(n) raw sampling in
  ``sem`` dominates. A direct sufficient-statistic sampler shows here.
* ``mc_many_cells``: thousands of small cells, where per-cell evidence in
  ``exact`` and harness overhead in ``experiments`` dominate.
* ``oracle_crosscheck``: the quadrature and Laplace oracles in ``approx``,
  whose generic route spends its time in ``estimation.loglik`` and in
  ``priors.prior_logpdf`` called through this module's own callback.
* ``cli_roundtrip``: the command-line user's path: CSV writing and parsing
  in ``cli`` and the ``rates`` curves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SYM_ALPHA, SYM_BETA = 3.0, 0.5


@dataclass
class Outcome:
    """What one pass did and whether its outputs are right."""

    ops: int = 0
    failed: int = 0
    cells: int = 0
    rows: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    digest: str = ""

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return self.ops, self.cells, self.rows, len(self.checks)


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _check_posteriors(out: Outcome, records, label: str) -> None:
    p = np.array([r.p for r in records], dtype=np.float64).reshape(-1, 3)
    ok = bool(np.all(np.isfinite(p))) and bool(np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12))
    out.check(f"{label}.posteriors_finite_sum_to_1", ok, f"{len(records)} records")


class McLargeN:
    """figure2 (S3, observational), figure5 (S3, eta=0.5, y=1.5) and
    figure6 (S1 plateau) configurations, N from 1e2 to 1e5."""

    def __init__(self, bc, seed: int, outdir: Path):
        self.xp = bc.experiments
        self.bundle = outdir / "bundle"
        self.bundle.mkdir(parents=True, exist_ok=True)
        sym = bc.bge_symmetric_hyper(SYM_ALPHA, SYM_BETA)
        s3, s1 = bc.Structure.S3, bc.Structure.S1
        big = (100, 1000, 10000, 100000)
        self.fig2 = bc.ExperimentConfig(s3, bc.Params(0.0, 1.0, 1.0), sym, sample_sizes=big, trials=200, base_seed=seed)
        self.fig5 = bc.ExperimentConfig(
            s3, bc.Params(0.0, 1.0, 1.0), sym, y=1.5, eta=0.5, sample_sizes=big, trials=200, base_seed=seed
        )
        self.fig6 = bc.ExperimentConfig(
            s1, bc.Params(1.0, 1.0, 1.0), sym,
            sample_sizes=(100, 316, 1000, 3162, 10000, 31623, 100000), trials=20, base_seed=seed,
        )
        tiny = bc.ExperimentConfig(s3, bc.Params(0.0, 1.0, 1.0), sym, y=1.5, eta=0.5, sample_sizes=(10, 20), trials=1)
        self.xp.run_concentration(tiny)

    def run(self):
        xp, b = self.xp, self.bundle
        r2 = xp.run_concentration(self.fig2)
        xp.write_concentration_csv(b / "concentration_figure2.csv", self.fig2, r2)
        r5 = xp.run_concentration(self.fig5)
        xp.write_concentration_csv(b / "concentration_figure5.csv", self.fig5, r5)
        r6 = xp.run_odds_plateau(self.fig6)
        xp.write_plateau_csv(b / "plateau_figure6.csv", self.fig6, r6)
        return r2, r5, r6

    def evaluate(self, res) -> Outcome:
        r2, r5, r6 = res
        out = Outcome()
        for label, r in (("figure2", r2), ("figure5", r5), ("figure6", r6)):
            out.cells += len(r.records)
            out.ops += len(r.records) + r.skipped
            out.failed += r.skipped
            _check_posteriors(out, r.records, label)
        limit = self.xp.plateau_theory_ratio(self.fig6)
        largest = self.fig6.sample_sizes[-1]
        tail = [r.ratio_12 for r in r6.records if r.total == largest]
        mean = sum(tail) / len(tail)
        out.check("figure6.plateau_within_10pct", abs(mean - limit) / limit < 0.10, f"{mean!r} vs {limit!r}")
        medians = []
        for n in self.fig2.sample_sizes:
            if n >= 1000:
                vals = [math.sqrt(n) * (1.0 - r.p[2]) for r in r2.records if r.total == n]
                medians.append(float(np.median(vals)))
        spread = max(medians) / min(medians)
        out.check("figure2.sqrt_n_medians_within_3x", spread < 3.0, f"spread {spread:.3f}")
        out.digest = _digest_files(self.bundle.glob("*.csv"))
        return out


class McManyCells:
    """figure4 (3 etas x 700 cells), the criterion-8 protocol (5 configs x 500
    cells) and the chi-squared(1) diagnostic at N=5000 in both regimes."""

    def __init__(self, bc, seed: int, outdir: Path):
        self.xp = bc.experiments
        self.bundle = outdir / "bundle"
        self.bundle.mkdir(parents=True, exist_ok=True)
        sym = bc.bge_symmetric_hyper(SYM_ALPHA, SYM_BETA)
        S = bc.Structure
        unit = bc.Params(1.0, 1.0, 1.0)
        indep = bc.Params(0.0, 1.0, 1.0)
        self.fig4 = [
            bc.ExperimentConfig(S.S1, unit, sym, y=1.5, eta=eta, sample_sizes=(50, 100, 200, 400, 800, 1600, 3200),
                                trials=100, base_seed=seed)
            for eta in (0.1, 0.5, 0.9)
        ]
        self.crit8 = [
            bc.ExperimentConfig(tm, unit, sym, y=2.0, eta=eta, sample_sizes=(200, 400, 800, 1600, 3200),
                                trials=100, base_seed=seed)
            for tm, etas in ((S.S1, (0.1, 0.5)), (S.S2, (0.3, 0.5, 0.7)))
            for eta in etas
        ]
        # The KS gate is a test at level 0.01, so on arbitrary seeds it would
        # fail about one run in fifty with a correct program; these cells use
        # criterion 7's own seeds (11 and 13) instead of the workload seed.
        self.chi2 = [
            ("figure3", bc.ExperimentConfig(S.S3, indep, sym, sample_sizes=(5000,), trials=500, base_seed=11)),
            ("mixed", bc.ExperimentConfig(S.S3, indep, sym, y=1.5, eta=0.5, sample_sizes=(5000,), trials=500,
                                          base_seed=13)),
        ]
        tiny = bc.ExperimentConfig(S.S3, indep, sym, y=1.5, eta=0.5, sample_sizes=(10, 20), trials=2)
        self.xp.run_concentration(tiny)
        self.xp.run_chi2_diagnostic(tiny)

    def run(self):
        xp, b = self.xp, self.bundle
        fig4, slope_rows = [], []
        for cfg in self.fig4:
            r = xp.run_concentration(cfg)
            xp.write_concentration_csv(b / f"concentration_eta{cfg.eta:g}.csv", cfg, r)
            sizes = [s for s in cfg.sample_sizes if s >= 200]
            fit = xp.fit_slope(np.array(sizes, float), np.array([r.mean_log_inv_odds(s) for s in sizes]))
            slope_rows.append((cfg.eta, fit.slope, xp.theory_exponent(cfg)))
            fig4.append(r)
        xp.write_slopes_csv(b / "slopes.csv", slope_rows, ["# fit over sizes >= 200"])
        crit8 = []
        for cfg in self.crit8:
            r = xp.run_concentration(cfg)
            crit8.append((r, xp.fitted_exponent(cfg, r).slope, xp.theory_exponent(cfg)))
        chi2 = []
        for tag, cfg in self.chi2:
            r, ks, p = xp.run_chi2_diagnostic(cfg)
            xp.write_chi2_csv(b / f"chi2_{tag}.csv", cfg, r, ks, p)
            chi2.append((r, p))
        return fig4, slope_rows, crit8, chi2

    def evaluate(self, res) -> Outcome:
        fig4, slope_rows, crit8, chi2 = res
        out = Outcome()
        results = fig4 + [r for r, _, _ in crit8] + [r for r, _ in chi2]
        for r in results:
            out.cells += len(r.records)
            out.ops += len(r.records) + r.skipped
            out.failed += r.skipped
        _check_posteriors(out, [rec for r in results for rec in r.records], "all")
        for cfg, (_, slope, theory) in zip(self.crit8, crit8):
            rel = abs(slope + theory) / theory
            out.check(f"crit8.{cfg.true_model.value}.eta{cfg.eta:g}.slope_within_10pct", rel < 0.10, f"rel {rel:.4f}")
        exps = [-slope for _, slope, _ in slope_rows]
        out.check("figure4.exponents_decrease_in_eta", exps[0] > exps[1] > exps[2], repr(exps))
        for (tag, _), (_, p) in zip(self.chi2, chi2):
            out.check(f"chi2.{tag}.ks_p_above_0.01", p > 0.01, f"p {p:.4f}")
        out.digest = _digest_files(self.bundle.glob("*.csv"))
        return out


def _s1_draw(rng, theta, n, m, y):
    """Raw S1 samples from the SEM's own equations (the program is not used)."""
    z = rng.standard_normal((n, 2))
    obs = np.empty((n, 2))
    obs[:, 1] = math.sqrt(theta[2]) * z[:, 1]
    obs[:, 0] = theta[0] * obs[:, 1] + math.sqrt(theta[1]) * z[:, 0]
    if m == 0:
        return obs, None
    interv = np.empty((m, 2))
    interv[:, 0] = theta[0] * y + math.sqrt(theta[1]) * rng.standard_normal(m)
    interv[:, 1] = y
    return obs, interv


class OracleCrosscheck:
    """Conjugate quadrature on criterion 3's datasets and hyperparameters,
    Laplace and Hessian diagnostics at n in {100, 400, 1600}, and one generic
    tensor-quadrature call for S1 on a (6, 3) dataset."""

    # 32 datasets per (hyperparameters, shape) keep the 576 conjugate calls
    # about as long as the single generic call.
    DATASETS = 32

    def __init__(self, bc, seed: int, outdir: Path):
        self.bc = bc
        self.sym = bc.bge_symmetric_hyper(SYM_ALPHA, SYM_BETA)
        self.hypers = [
            self.sym,
            bc.BgeHyper(4.0, 2.5, 2.5, 3.0, 3.0, 3.0, 0.5, 1.0),
            bc.BgeHyper(2.0, 1.5, 1.8, 2.2, 1.2, 2.8, 0.8, 0.6),
        ]
        rng = np.random.default_rng((seed, 3))
        self.conjugate = []
        for h in self.hypers:
            for n, m in ((5, 0), (4, 3)):
                for _ in range(self.DATASETS):
                    w = float(rng.uniform(-2.0, 2.0))
                    if abs(w) < 0.05:
                        w = 0.3
                    theta = (w, float(rng.uniform(0.25, 4.0)), float(rng.uniform(0.25, 4.0)))
                    y = float(rng.uniform(-2.0, 2.0))
                    self.conjugate.append((h, *_s1_draw(rng, theta, n, m, y)))
        self.laplace_obs, _ = _s1_draw(np.random.default_rng((seed, 11)), (1.0, 1.0, 1.0), 1600, 0, 0.0)
        self.generic = _s1_draw(np.random.default_rng((seed, 14)), (1.0, 1.0, 1.0), 6, 3, 1.5)
        st = bc.suffstats(*self.generic)
        for s in bc.Structure:
            bc.quadrature_log_marginal(st, s, self.sym)
        bc.quadrature_log_marginal_generic(st, bc.Structure.S1, self._prior_s1, nodes=4, w_nodes=4)
        st = bc.suffstats(self.laplace_obs[:100])
        mle = bc.mle_mixed(st).theta1
        bc.laplace_log_marginal(st, bc.Structure.S1, self._prior_s1, mle)
        bc.hessian_diagnostics(st, bc.Structure.S1, mle)

    def _prior_s1(self, theta):
        return self.bc.prior_logpdf(theta, self.bc.Structure.S1, self.sym)

    def run(self):
        bc = self.bc
        errors = 0
        conj = []
        for h, obs, interv in self.conjugate:
            st = bc.suffstats(obs, interv)
            for s in bc.Structure:
                try:
                    conj.append((bc.quadrature_log_marginal(st, s, h), bc.log_marginal_mixed(st, s, h)))
                except bc.BicausalError:
                    errors += 1
                    conj.append((math.nan, math.nan))
        lap = []
        for n in (100, 400, 1600):
            st = bc.suffstats(self.laplace_obs[:n])
            try:
                mle = bc.mle_mixed(st).theta1
                value = bc.laplace_log_marginal(st, bc.Structure.S1, self._prior_s1, mle)
                report = bc.hessian_diagnostics(st, bc.Structure.S1, mle)
                lap.append((n, value, bc.log_marginal_mixed(st, bc.Structure.S1, self.sym), report.negative_definite))
            except bc.BicausalError:
                errors += 1
                lap.append((n, math.nan, math.nan, False))
        st = bc.suffstats(*self.generic)
        try:
            generic = (
                bc.quadrature_log_marginal_generic(st, bc.Structure.S1, self._prior_s1),
                bc.log_marginal_mixed(st, bc.Structure.S1, self.sym),
            )
        except bc.BicausalError:
            errors += 1
            generic = (math.nan, math.nan)
        return conj, lap, generic, errors

    def evaluate(self, res) -> Outcome:
        conj, lap, generic, errors = res
        out = Outcome(ops=len(conj) + 2 * len(lap) + 1, failed=errors)
        rel = max(abs(math.expm1(q - e)) for q, e in conj)
        out.check("conjugate.rel_err_below_1e-4", rel < 1e-4, f"max rel {rel:.3e} over {len(conj)} calls")
        gap = abs(generic[0] - generic[1])
        out.check("generic.abs_err_below_1e-3", gap < 1e-3, f"{gap:.3e}")
        gaps = {n: abs(v - e) for n, v, e, _ in lap}
        out.check("laplace.gap_decreases", gaps[100] > gaps[400] > gaps[1600], repr(gaps))
        out.check(
            "laplace.n_gap_within_3x",
            all(n * gaps[n] < 3.0 * 100 * gaps[100] for n in (400, 1600)),
            repr({n: n * g for n, g in gaps.items()}),
        )
        out.check("hessian.negative_definite_at_mle", all(nd for *_, nd in lap))
        values = [v for pair in conj for v in pair] + [v for _, a, b, _ in lap for v in (a, b)] + list(generic)
        out.digest = hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()
        return out


class CliRoundtrip:
    """simulate (n=1e5, m=5e4), posterior exact and laplace --crosscheck on
    that file, rates on a 1e5-point grid, and the figure1 preset."""

    N, M, GRID = 100_000, 50_000, 100_000

    def __init__(self, bc, seed: int, outdir: Path):
        import bicausal.cli

        self.bc, self.main = bc, bicausal.cli
        # outdir is relative to the checkout, so the reports that name the
        # dataset path read the same in every checkout.
        work = self.work = outdir / "work"
        work.mkdir(parents=True, exist_ok=True)
        data = str(work / "data.csv")
        model = ["--w", "1.0", "--tau1-sq", "1.0", "--tau2-sq", "1.0"]
        self.commands = [
            ["simulate", "--structure", "S1", *model, "--y", "1.5", "--n", str(self.N), "--m", str(self.M),
             "--seed", str(seed), "--out", data],
            ["posterior", data, "--method", "exact", "--out", str(work / "exact.txt")],
            ["posterior", data, "--method", "laplace", "--crosscheck", "--out", str(work / "laplace.txt")],
            ["rates", "--w", "1.0", "--tau1-sq", "1.0", "--tau2-sq", "4.0", "--y", "0.1",
             "--grid-points", str(self.GRID), "--out", str(work / "rates.csv")],
            ["experiment", "--preset", "figure1", "--seed", str(seed), "--out", str(work / "figure1")],
        ]
        self._call(["rates", *model, "--y", "0.5", "--grid-points", "10", "--out", str(work / "warm.csv")])

    def _call(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return self.main.main(argv)
            except Exception:
                traceback.print_exc()
                return -1

    def run(self):
        return [self._call(argv) for argv in self.commands]

    @staticmethod
    def _data_lines(path: Path) -> list[str]:
        lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l and not l.startswith("#")]
        return lines[1:]

    def evaluate(self, codes) -> Outcome:
        bc, work = self.bc, self.work
        out = Outcome(ops=len(codes), failed=sum(c != 0 for c in codes))
        out.check("commands_exit_0", all(c == 0 for c in codes), repr(codes))
        if codes[0] != 0:
            return out
        rows = [l.split(",") for l in self._data_lines(work / "data.csv")]
        obs = np.array([(float(a), float(b)) for r, a, b in rows if r == "obs"]).reshape(-1, 2)
        interv = np.array([(float(a), float(b)) for r, a, b in rows if r == "int"]).reshape(-1, 2)
        out.check("simulate.row_count", (len(obs), len(interv)) == (self.N, self.M), f"{len(obs)}+{len(interv)}")
        post = bc.posterior(bc.suffstats(obs, interv), bc.bge_symmetric_hyper(SYM_ALPHA, SYM_BETA)).p
        report = {}
        if codes[1] == 0:
            line = next(l for l in (work / "exact.txt").read_text().splitlines() if l.startswith("posterior:"))
            report = {k.strip(): float(v) for k, v in (part.split("=") for part in line[len("posterior:"):].split(","))}
        got = [report.get(f"p({s})", math.nan) for s in ("S1", "S2", "S3")]
        err = max(abs(a - b) for a, b in zip(got, post))
        out.check("posterior_exact.matches_api_1e-12", err <= 1e-12, f"max abs diff {err:.3e}")
        rate_rows = len(self._data_lines(work / "rates.csv")) if codes[3] == 0 else -1
        out.check("rates.row_count", rate_rows == self.GRID, str(rate_rows))
        preset = sorted((work / "figure1").glob("*.csv"))
        written = len(rows) + rate_rows + sum(len(self._data_lines(p)) for p in preset)
        parsed = 2 * len(rows)
        out.rows = written + parsed
        outputs = [work / n for n in ("data.csv", "exact.txt", "laplace.txt", "rates.csv")] + preset
        out.digest = _digest_files([p for p in outputs if p.exists()])
        return out


WORKLOADS = {
    "mc_large_n": McLargeN,
    "mc_many_cells": McManyCells,
    "oracle_crosscheck": OracleCrosscheck,
    "cli_roundtrip": CliRoundtrip,
}
