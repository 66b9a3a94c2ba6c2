"""Monte Carlo harness: determinism, slope fitting, distribution helpers,
CSV serialization."""

import math
import re
import struct
from dataclasses import astuple, fields

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hs

import bicausal.exact
import bicausal.experiments
from bicausal import (
    ArgumentOutOfDomain,
    ConfigError,
    ExperimentConfig,
    InterventionSpec,
    InvalidParameter,
    NumericalDegeneracy,
    Params,
    RateId,
    Structure,
    SuffStats,
    TrialRecord,
    augmented_odds_statistic,
    bge_symmetric_hyper,
    chi2_1_cdf,
    fit_slope,
    fitted_exponent,
    gain_transform,
    ks_test_chi2_1,
    mixing_helps_s1,
    optimal_eta,
    plateau_theory_ratio,
    posterior,
    run_chi2_diagnostic,
    run_concentration,
    run_odds_plateau,
    sample_curve,
    sample_interv,
    sample_obs,
    sample_suffstats,
    theory_exponent,
)
from bicausal.cli import main as cli_main
from bicausal.experiments import (
    PRESETS,
    _draw_size,
    log_inv_odds_quantiles,
    run_bundle,
    write_chi2_csv,
    write_concentration_csv,
    write_plateau_csv,
    write_rates_csv,
    write_slopes_csv,
)


def small_config(**kw):
    base = dict(
        true_model=Structure.S1,
        theta_star=Params(1.0, 1.0, 1.0),
        hyper=None,
        y=1.5,
        eta=0.5,
        sample_sizes=(50, 100, 200, 400),
        trials=5,
        base_seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


SUMS = ("s1x", "s2x", "s12x", "s1y", "s2y", "s12y")
INDEPENDENT = {"true_model": Structure.S3, "theta_star": Params(0.0, 1.0, 1.0)}
BLOCK = bicausal.experiments._BLOCK


class _Replay(np.random.Generator):
    """A generator that returns the given variates in turn, whatever the
    distribution asked for."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = iter(values)

    def standard_gamma(self, shape, size=None):
        return np.full(size, next(self.values))

    def standard_normal(self, size=None):
        return np.full(size, next(self.values))


def reference_statistics(cfg, size_index):
    """Every trial's statistics at one size, drawn one cell at a time: each
    block's generator rebuilt, each variate drawn for the block's trials by
    one scalar call per trial in trial order (the order in which numpy fills
    a vector draw), and each trial's variates put through
    ``sample_suffstats``."""
    n, m = cfg.split(cfg.sample_sizes[size_index])
    iv = InterventionSpec(cfg.y) if m else None
    # one draw's variates in the order it takes them, a gamma by its shape
    # and a standard normal as None: a^2/2, b, c^2/2, then the interventional
    # block's sum and its chi2/2
    shapes = ([0.5 * n, None, 0.5 * (n - 1)] if n else []) + ([None, 0.5 * (m - 1)] if m else [])
    stats = []
    for block in range(-(-cfg.trials // BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.base_seed, spawn_key=(size_index, block)))
        columns = [
            [rng.standard_normal() if k is None else rng.standard_gamma(k) for _ in range(BLOCK)] for k in shapes
        ]
        stats += [
            sample_suffstats(cfg.true_model, cfg.theta_star, n, m, iv, seed=_Replay(row)) for row in zip(*columns)
        ]
    return stats[: cfg.trials]


def reference_records(cfg, chi2=False):
    """The harness's records computed one cell at a time, in (trial, N) order,
    with the skipped-cell count."""
    sizes = [len(cfg.sample_sizes) - 1] if chi2 else range(len(cfg.sample_sizes))
    by_size = {idx: reference_statistics(cfg, idx) for idx in sizes}
    records, skipped = [], 0
    for trial in range(cfg.trials):
        for idx in sizes:
            st = by_size[idx][trial]
            try:
                post = posterior(st, cfg.hyper)
            except NumericalDegeneracy:
                skipped += 1
                continue
            stats = {}
            if chi2:
                stats = {
                    f"stat_{s.value.lower()}": augmented_odds_statistic(st, post, s, cfg.theta_star, cfg.hyper)
                    for s in (Structure.S1, Structure.S2)
                }
            with np.errstate(over="ignore"):
                ratio_12 = float(np.exp(post.log_odds(Structure.S1, Structure.S2)))
            records.append(
                TrialRecord(
                    trial, cfg.sample_sizes[idx], st.n, st.m, tuple(post.p.tolist()),
                    post.log_inverse_odds(cfg.true_model), ratio_12, **stats,
                )
            )
    return records, skipped


class TestConfig:
    def test_sizes_must_increase(self, symmetric_hyper):
        with pytest.raises(InvalidParameter):
            small_config(hyper=symmetric_hyper, sample_sizes=(100, 100))

    def test_split_rounding(self, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper, eta=0.1)
        assert cfg.split(200) == (20, 180)
        cfg = small_config(hyper=symmetric_hyper, eta=0.5)
        assert cfg.split(101) == (51, 50)  # halves round up
        cfg = small_config(hyper=symmetric_hyper, eta=None)
        assert cfg.split(100) == (100, 0)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("trials", 2.5, "trials must be a finite integer"),
            ("base_seed", 1.5, "base_seed must be a finite integer"),
            ("sample_sizes", (10, math.inf), "sample size must be a finite integer, got inf"),
            ("sample_sizes", (10.7, 20.2), "sample size must be a finite integer, got 10.7"),
            ("y", math.inf, "y must be a finite number"),
            ("y", math.nan, "y must be a finite number"),
            ("eta", "0.5", "eta must lie in"),
            ("true_model", "S4", "true_model must be S1, S2 or S3"),
        ],
        ids=["trials", "base_seed", "infinite_size", "fractional_sizes", "infinite_y", "nan_y", "text_eta", "model"],
    )
    def test_malformed_fields_rejected(self, symmetric_hyper, field, value, match):
        with pytest.raises(InvalidParameter, match=match):
            small_config(hyper=symmetric_hyper, **{field: value})

    def test_model_name_becomes_structure(self, symmetric_hyper):
        named = small_config(hyper=symmetric_hyper, true_model="S1")
        assert named.true_model is Structure.S1
        assert run_concentration(named).records == run_concentration(small_config(hyper=symmetric_hyper)).records

    def test_integral_floats_become_ints(self, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper, sample_sizes=(10.0, np.int64(20)), trials=3.0, base_seed=np.float64(4))
        assert cfg.sample_sizes == (10, 20) and cfg.trials == 3 and cfg.base_seed == 4
        assert all(type(v) is int for v in (*cfg.sample_sizes, cfg.trials, cfg.base_seed))


class TestDeterminism:
    def test_repeated_runs_identical(self, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper)
        a = run_concentration(cfg)
        b = run_concentration(cfg)
        assert a.records == b.records

    def test_seed_changes_results(self, symmetric_hyper):
        a = run_concentration(small_config(hyper=symmetric_hyper))
        b = run_concentration(small_config(hyper=symmetric_hyper, base_seed=4))
        assert a.records != b.records

    def test_record_ordering(self, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper)
        res = run_concentration(cfg)
        keys = [(r.trial, r.total) for r in res.records]
        assert keys == sorted(keys)

    def test_evidence_computed_once_per_cell(self, symmetric_hyper, monkeypatch):
        # one evidence call per (structure, size), each scoring every trial
        calls = []
        original = bicausal.exact.log_marginal_mixed

        def counting(st, s, h):
            calls.append((s, np.shape(st.s1x)))
            return original(st, s, h)

        monkeypatch.setattr(bicausal.exact, "log_marginal_mixed", counting)
        cfg = small_config(hyper=symmetric_hyper)
        res = run_concentration(cfg)
        assert len(res.records) == cfg.trials * len(cfg.sample_sizes)
        assert calls == [(s, (cfg.trials,)) for _ in cfg.sample_sizes for s in Structure]

        calls.clear()
        chi2_cfg = small_config(hyper=symmetric_hyper, **INDEPENDENT)
        res, _, _ = run_chi2_diagnostic(chi2_cfg)
        assert len(res.records) == chi2_cfg.trials
        assert calls == [(s, (chi2_cfg.trials,)) for s in Structure]

    def test_no_skips_at_defaults(self, symmetric_hyper):
        res = run_concentration(small_config(hyper=symmetric_hyper, trials=20))
        assert res.skipped == 0

    def test_cell_seeds_do_not_collide(self, symmetric_hyper):
        # base_seed + trial * 10**6 + size_index gave these two cells one seed
        a = _draw_size(small_config(hyper=symmetric_hyper, base_seed=10**6, trials=1), 0)
        b = _draw_size(small_config(hyper=symmetric_hyper, base_seed=0, trials=2), 0)
        assert [getattr(a, k)[0] for k in SUMS] != [getattr(b, k)[1] for k in SUMS]

    @pytest.mark.parametrize("model", [{}, {"eta": None}, INDEPENDENT], ids=["mixed", "obs", "independent"])
    def test_stacked_draws_equal_sample_suffstats(self, symmetric_hyper, model):
        # two blocks, the second one cut short
        cfg = small_config(hyper=symmetric_hyper, trials=BLOCK + 3, **model)
        for idx in range(len(cfg.sample_sizes)):
            batch = _draw_size(cfg, idx)
            for trial, one in enumerate(reference_statistics(cfg, idx)):
                assert (batch.n, batch.m, batch.y) == (one.n, one.m, one.y)
                stacked = np.array([getattr(batch, k)[trial] for k in SUMS])
                assert stacked.tobytes() == np.array([getattr(one, k) for k in SUMS]).tobytes()

    @pytest.mark.parametrize(
        "model",
        [{}, {"eta": None, "true_model": Structure.S2, "theta_star": Params(-0.7, 2.0, 0.5)}, INDEPENDENT],
        ids=["s1_mixed", "s2_obs", "s3_mixed"],
    )
    def test_records_equal_the_per_cell_loop(self, symmetric_hyper, model):
        cfg = small_config(hyper=symmetric_hyper, sample_sizes=(2, 10, 400, 5000, 10**6), trials=8, **model)
        res = run_concentration(cfg)
        assert (res.records, res.skipped) == reference_records(cfg)
        if cfg.true_model is Structure.S3:
            res, _, _ = run_chi2_diagnostic(cfg)
            assert (res.records, res.skipped) == reference_records(cfg, chi2=True)

    def test_records_do_not_depend_on_trial_count(self, symmetric_hyper):
        three = run_concentration(small_config(hyper=symmetric_hyper, trials=3)).records
        five = run_concentration(small_config(hyper=symmetric_hyper, trials=5)).records
        assert len(three) == 3 * 4 and five[: len(three)] == three

    @settings(max_examples=25, deadline=None)
    @given(
        model=hs.sampled_from([{}, {"eta": None}, INDEPENDENT]),
        eta=hs.floats(0.05, 0.95),
        base_seed=hs.integers(0, 2**64 - 1),
    )
    def test_trial_rows_do_not_depend_on_trial_count_across_blocks(self, symmetric_hyper, model, eta, base_seed):
        # trial t's row is bitwise the same whether t sits in the last,
        # cut-short block or in a whole one
        counts = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)
        runs = [
            run_concentration(
                small_config(hyper=symmetric_hyper, sample_sizes=(20, 300), trials=t, base_seed=base_seed,
                             **{"eta": eta, **model})
            )
            for t in counts
        ]
        longest = runs[-1]
        for t, res in zip(counts, runs):
            keep = longest.trial < t
            for f in fields(TrialRecord):
                assert getattr(res, f.name).tobytes() == getattr(longest, f.name)[keep].tobytes()
            assert res.skipped == 2 * t - keep.sum()

    def test_trial_average_sums_in_trial_order(self, symmetric_hyper):
        res = run_concentration(small_config(hyper=symmetric_hyper, trials=2 * BLOCK + 3))
        for total in np.unique(res.total).tolist():
            values = [r.log_inv_odds for r in res.records if r.total == total]
            acc = 0.0
            for v in values:
                acc += v
            assert res.mean_log_inv_odds(total) == acc / len(values)

    def test_negative_base_seed_rejected(self, symmetric_hyper):
        with pytest.raises(InvalidParameter, match="base_seed"):
            small_config(hyper=symmetric_hyper, base_seed=-1)

    @pytest.mark.parametrize(
        "run, model, cell",
        [
            (run_concentration, {}, (0, 3)),
            (lambda cfg: run_chi2_diagnostic(cfg)[0], INDEPENDENT, (3, 3)),
        ],
        ids=["concentration", "chi2"],
    )
    def test_numerical_degeneracy_skips_the_cell(self, symmetric_hyper, monkeypatch, run, model, cell):
        # the fourth record's cell, (trial, size_index), gets statistics that
        # pass validation (Cauchy-Schwarz holds within its rounding slack) but
        # whose augmented determinants are negative, so its evidence is NaN
        cfg = small_config(hyper=symmetric_hyper, **model)
        want = run(cfg).records
        original = bicausal.experiments._draw_size
        trial, size_index = cell

        def corrupting(cfg, idx):
            st = original(cfg, idx)
            if idx != size_index:
                return st
            sums = [getattr(st, k).copy() for k in SUMS]
            sums[0][trial] = sums[1][trial] = 1e20
            sums[2][trial] = 1e20 * (1.0 + 4e-10)
            return SuffStats(*sums, st.n, st.m, st.y)

        monkeypatch.setattr(bicausal.experiments, "_draw_size", corrupting)
        res = run(cfg)
        assert res.skipped == 1
        assert res.records == want[:3] + want[4:]


class TestFitSlope:
    def test_exact_linear_input(self):
        x = np.array([200.0, 400.0, 800.0, 1600.0])
        y = -0.3 * x + 2.0
        fit = fit_slope(x, y)
        assert fit.slope == pytest.approx(-0.3, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_r_squared_in_unit_interval(self):
        rng = np.random.default_rng(0)
        x = np.arange(10.0)
        y = rng.normal(size=10)
        assert 0.0 <= fit_slope(x, y).r_squared <= 1.0

    def test_needs_four_points(self):
        with pytest.raises(InvalidParameter):
            fit_slope([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestSlopeVsTheory:
    def test_true_s2_slope_shrinks_at_eta_extremes(self, symmetric_hyper):
        # both data regimes are needed to identify the reverse structure, so
        # the fitted exponent collapses near pure-interventional and
        # pure-observational mixtures
        slopes = {}
        for eta in (0.1, 0.5, 0.9):
            cfg = ExperimentConfig(
                true_model=Structure.S2,
                theta_star=Params(1.0, 1.0, 1.0),
                hyper=symmetric_hyper,
                y=2.0,
                eta=eta,
                sample_sizes=(200, 400, 800, 1600),
                trials=25,
                base_seed=31,
            )
            res = run_concentration(cfg)
            slopes[eta] = fitted_exponent(cfg, res).slope
        assert abs(slopes[0.1]) < 0.5 * abs(slopes[0.5])
        assert abs(slopes[0.9]) < 0.75 * abs(slopes[0.5])

    def test_true_s1_exponent_recovered(self, symmetric_hyper):
        cfg = ExperimentConfig(
            true_model=Structure.S1,
            theta_star=Params(1.0, 1.0, 1.0),
            hyper=symmetric_hyper,
            y=2.0,
            eta=0.5,
            sample_sizes=(200, 400, 800, 1600),
            trials=30,
            base_seed=17,
        )
        res = run_concentration(cfg)
        fit = fitted_exponent(cfg, res)
        assert abs(fit.slope + theory_exponent(cfg)) / theory_exponent(cfg) < 0.1

    def test_min_size_restricts_fit(self, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper, sample_sizes=(50, 100, 200, 400, 800, 1600))
        res = run_concentration(cfg)
        sizes = [200, 400, 800, 1600]
        want = fit_slope(sizes, [res.mean_log_inv_odds(s) for s in sizes])
        assert fitted_exponent(cfg, res, min_size=200) == want
        with pytest.raises(InvalidParameter):
            fitted_exponent(cfg, res, min_size=800)


class TestPlateau:
    def test_mixed_config_rejected(self, symmetric_hyper):
        with pytest.raises(InvalidParameter):
            run_odds_plateau(small_config(hyper=symmetric_hyper))

    def test_symmetric_ratio_is_exactly_one(self, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper, eta=None, sample_sizes=(100, 1000), trials=5)
        res = run_odds_plateau(cfg)
        assert all(r.ratio_12 == 1.0 for r in res.records)
        assert plateau_theory_ratio(cfg) == pytest.approx(1.0, abs=1e-12)

    def test_native_s2_parameters_accepted(self, symmetric_hyper):
        cfg = small_config(
            hyper=symmetric_hyper,
            true_model=Structure.S2,
            theta_star=Params(0.5, 2.0, 0.5),
            eta=None,
            sample_sizes=(100,),
            trials=2,
        )
        assert plateau_theory_ratio(cfg) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_limit_is_refused_before_any_draw(self, monkeypatch):
        # the limit depends on the generating law alone, so its overflow is
        # refused before the trials are drawn
        draws = []
        original = bicausal.experiments._draw_size
        monkeypatch.setattr(bicausal.experiments, "_draw_size", lambda *a: draws.append(a) or original(*a))
        cfg = small_config(
            hyper=bge_symmetric_hyper(3.0, 2.0), theta_star=Params(1e5, 1e-8, 1.0), eta=None,
            sample_sizes=(100, 1000), trials=3,
        )
        with pytest.raises(ArgumentOutOfDomain, match=r"^plateau ratio exp\(1\.87\d+e\+18\) overflows at "):
            run_odds_plateau(cfg)
        assert draws == []


class TestChi2Helpers:
    def test_cdf_matches_scipy(self):
        xs = np.linspace(0.0, 12.0, 200)
        mine = np.array([chi2_1_cdf(float(v)) for v in xs])
        ref = scipy.stats.chi2.cdf(xs, df=1)
        np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_ks_against_scipy(self):
        rng = np.random.default_rng(5)
        samples = rng.chisquare(1, size=400)
        d, p = ks_test_chi2_1(samples)
        ref = scipy.stats.kstest(samples, lambda v: scipy.stats.chi2.cdf(v, df=1))
        assert d == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=0.02)

    def test_diagnostic_requires_s3(self, symmetric_hyper):
        with pytest.raises(InvalidParameter):
            run_chi2_diagnostic(small_config(hyper=symmetric_hyper))

    def test_diagnostic_statistics_finite(self, symmetric_hyper):
        cfg = ExperimentConfig(
            true_model=Structure.S3,
            theta_star=Params(0.0, 1.0, 1.0),
            hyper=symmetric_hyper,
            sample_sizes=(500,),
            trials=40,
            base_seed=2,
        )
        res, ks, p = run_chi2_diagnostic(cfg)
        assert all(math.isfinite(r.stat_s1) and math.isfinite(r.stat_s2) for r in res.records)
        assert 0.0 <= ks <= 1.0 and 0.0 <= p <= 1.0


def _read_table(path):
    """A written table as (header lines, column row, rows of fields); checks
    that the file is UTF-8 ``\\n``-terminated lines with every ``#`` line first."""
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    lines = raw.decode("utf-8").split("\n")[:-1]
    k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert not any(line.startswith("#") for line in lines[k:])
    return lines[:k], lines[k], [line.split(",") for line in lines[k + 1 :]]


def _assert_fields(fields, values):
    """Each field reads back as its source value: integers and strings
    exactly, floats bit for bit (NaN as NaN)."""
    assert len(fields) == len(values)
    for text, v in zip(fields, values):
        if isinstance(v, (int, str)):
            assert text == str(v)
        else:
            got = float(text)
            assert (math.isnan(got) and math.isnan(v)) or struct.pack("<d", got) == struct.pack("<d", v), (text, v)


def _header_items(header):
    """The ``# key = value`` header lines as a dict."""
    return dict(line[2:].split(" = ", 1) for line in header if " = " in line)


def _assert_config_header(items, cfg, skipped):
    """The configuration lines every harness table starts with."""
    th, (*alphas, beta, lam) = cfg.theta_star, astuple(cfg.hyper)
    assert items["true_model"] == cfg.true_model.value
    _assert_fields([items[k] for k in ("w", "tau1_sq", "tau2_sq", "y")], [th.w, th.tau1_sq, th.tau2_sq, cfg.y])
    if cfg.eta is None:
        assert items["eta"] == ""
    else:
        _assert_fields([items["eta"]], [cfg.eta])
    _assert_fields(items["sample_sizes"].split(","), list(cfg.sample_sizes))
    _assert_fields([items["trials"], items["base_seed"], items["skipped"]], [cfg.trials, cfg.base_seed, skipped])
    _assert_fields(items["alpha"].split(","), alphas)
    _assert_fields([items["beta"], items["lambda"]], [beta, lam])


class TestCsv:
    """Every table kind parses back to its source values, bit for bit, under
    its column row and ``#`` header lines."""

    def test_serialization_roundtrip(self, tmp_path, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper, trials=3)
        res = run_concentration(cfg)
        path = tmp_path / "concentration.csv"
        write_concentration_csv(path, cfg, res)
        header, columns, rows = _read_table(path)
        assert columns == "trial,N,n,m,p_s1,p_s2,p_s3,log_inv_odds"
        assert len(rows) == len(res.records)
        for fields, r in zip(rows, res.records):
            _assert_fields(fields, [r.trial, r.total, r.n, r.m, *r.p, r.log_inv_odds])
        _assert_config_header(_header_items(header), cfg, res.skipped)
        bands = [line for line in header if line.startswith("# log_inv_odds_quantiles")]
        assert len(bands) == len(cfg.sample_sizes)
        for line, total in zip(bands, cfg.sample_sizes):
            label, quantiles = line.split(": ")
            assert label == f"# log_inv_odds_quantiles N={total}"
            assert [q.split("=")[0] for q in quantiles.split(" ")] == ["q10", "q50", "q90"]
            _assert_fields([q.split("=")[1] for q in quantiles.split(" ")], log_inv_odds_quantiles(res, total))

    def test_plateau_and_chi2_writers(self, tmp_path, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper, eta=None, sample_sizes=(100, 1000), trials=3)
        res = run_odds_plateau(cfg)
        write_plateau_csv(tmp_path / "plateau.csv", cfg, res)
        header, columns, rows = _read_table(tmp_path / "plateau.csv")
        assert columns == "trial,n,ratio_12,theory_limit"
        assert len(rows) == len(res.records) == 6
        limit = plateau_theory_ratio(cfg)
        for fields, r in zip(rows, res.records):
            _assert_fields(fields, [r.trial, r.n, r.ratio_12, limit])
        _assert_config_header(_header_items(header), cfg, res.skipped)

        cfg3 = ExperimentConfig(
            true_model=Structure.S3,
            theta_star=Params(0.0, 1.0, 1.0),
            hyper=symmetric_hyper,
            sample_sizes=(200,),
            trials=5,
            base_seed=1,
        )
        res3, ks, p = run_chi2_diagnostic(cfg3)
        write_chi2_csv(tmp_path / "chi2.csv", cfg3, res3, ks, p)
        header, columns, rows = _read_table(tmp_path / "chi2.csv")
        assert columns == "trial,stat_s1,stat_s2"
        assert len(rows) == len(res3.records) == 5
        for fields, r in zip(rows, res3.records):
            _assert_fields(fields, [r.trial, r.stat_s1, r.stat_s2])
        items = _header_items(header)
        _assert_config_header(items, cfg3, res3.skipped)
        _assert_fields([items["ks_statistic"], items["ks_pvalue"]], [ks, p])

    def test_slopes_writer(self, tmp_path):
        rows = [(0.1 + 0.2, -0.53479018471042095, 0.53505978256618525), (0.5, -1e-300, 0.0), (0.9, -0.0, 3.5)]
        path = tmp_path / "slopes.csv"
        write_slopes_csv(path, rows, ["# fit over sizes >= 200", "# base_seed = 7"])
        header, columns, table = _read_table(path)
        assert header == ["# fit over sizes >= 200", "# base_seed = 7"]
        assert columns == "eta,fitted_slope,theory_exponent,rel_err"
        assert len(table) == len(rows)
        for fields, (eta, slope, theory) in zip(table, rows):
            rel = abs(slope + theory) / abs(theory) if theory != 0.0 else math.nan
            _assert_fields(fields, [eta, slope, theory, rel])
        assert table[1][3] == "nan"

    def test_rates_writer_matches_curves(self, tmp_path):
        theta, y = Params(1.0, 1.0, 4.0), 0.1
        path = tmp_path / "rates.csv"
        helps, (eta12, v12), (eta21, v21) = write_rates_csv(path, theta, y, 51, ["# preset"])
        header, columns, rows = _read_table(path)
        assert header[0] == "# preset"
        assert columns == "eta,d12,d21,d13,d23,d12_gain,d21_gain"
        curves = [sample_curve(r, theta, y, num=51) for r in (RateId.D12, RateId.D21, RateId.D13, RateId.D23)]
        gains = [gain_transform(c) for c in curves[:2]]
        assert len(rows) == 51
        for i, fields in enumerate(rows):
            _assert_fields(fields, [curves[0].eta[i]] + [c.values[i] for c in curves + gains])
        assert helps is mixing_helps_s1(theta, y)
        assert (eta12, v12) == optimal_eta(RateId.D12, theta, y)
        assert (eta21, v21) == optimal_eta(RateId.D21, theta, y)
        assert header[1] == f"# mixing_helps_s1 = {helps}"
        for line, name, optimum in zip(header[2:], ("d12", "d21"), ((eta12, v12), (eta21, v21))):
            match = re.fullmatch(rf"# optimal_eta_{name} = (\S+) \(value (\S+)\)", line)
            _assert_fields(match.groups(), optimum)
        assert len(header) == 4

    @pytest.mark.parametrize("m", [0, 4])
    def test_simulate_table(self, tmp_path, m):
        theta = Params(0.7, 1.2, 0.5)
        path = tmp_path / "sub" / "data.csv"
        argv = ["simulate", "--structure", "S1", "--w", "0.7", "--tau1-sq", "1.2", "--tau2-sq", "0.5",
                "--y", "1.5", "--n", "6", "--m", str(m), "--seed", "11", "--out", str(path)]
        assert cli_main(argv) == 0
        header, columns, rows = _read_table(path)
        assert header == [
            "# model.structure = S1", "# model.tau1_sq = 1.2", "# model.tau2_sq = 0.5", "# model.w = 0.7",
            "# model.y = 1.5", f"# simulate.m = {m}", "# simulate.n = 6", "# simulate.seed = 11",
        ]
        assert columns == "regime,x1,x2"
        rng = np.random.default_rng(11)
        expected = [("obs", *v) for v in sample_obs(Structure.S1, theta, 6, rng).tolist()]
        if m:
            expected += [("int", *v) for v in sample_interv(Structure.S1, theta, InterventionSpec(1.5), m, rng).tolist()]
        assert len(rows) == len(expected) == 6 + m
        for fields, values in zip(rows, expected):
            _assert_fields(fields, list(values))

    @pytest.mark.parametrize("formats", ["sgg", "ddddgggg", "dgg", "gggg"])
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8195])
    def test_table_bytes_match_per_row_format(self, tmp_path, formats, n):
        # rows are formatted a block at a time; the bytes must be those of
        # one ``%`` per row, across block edges and a partial last block
        rng = np.random.default_rng(n)
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1 + 0.2]
        columns = []
        for f in formats:
            if f == "s":
                columns.append(rng.choice(["obs", "int"], n).tolist())
            elif f == "d":
                columns.append(rng.integers(-(10**12), 10**12, n).tolist())
            else:
                col = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
                col[: len(specials)] = specials[:n]
                columns.append(col.tolist())
        rows = list(zip(*columns))
        header = ["# a = 1", "# b = x"]
        path = tmp_path / "t.csv"
        bicausal.experiments._write_table(path, header, "cols", formats, columns)
        fmt = ",".join(bicausal.experiments._FORMATS[f] for f in formats) + "\n"
        want = "# a = 1\n# b = x\ncols\n" + "".join(fmt % row for row in rows)
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("n", [0, 1, 4097])
    def test_table_takes_list_and_array_columns(self, tmp_path, n):
        # a column is a list or a 1-d array (a strided view too); the bytes
        # are those of the same values passed as lists
        data = np.random.default_rng(n).standard_normal((n, 2))
        cols = (np.arange(n), ["obs"] * n, data[:, 0], data[:, 1].tolist(), np.full(n, 0.1))
        as_lists = [c if isinstance(c, list) else c.tolist() for c in cols]
        paths = tmp_path / "mixed.csv", tmp_path / "lists.csv"
        for path, columns in zip(paths, (cols, as_lists)):
            bicausal.experiments._write_table(path, ["# k = v"], "i,s,a,b,c", "dsggg", columns)
        want = "# k = v\ni,s,a,b,c\n" + "".join("%d,%s,%.17g,%.17g,%.17g\n" % row for row in zip(*as_lists))
        assert paths[0].read_bytes() == paths[1].read_bytes() == want.encode()

    @pytest.mark.parametrize("make", ["directory", "parent_is_file"])
    def test_unwritable_table_path_is_config_error(self, tmp_path, make):
        path = tmp_path / "t.csv"
        if make == "directory":
            path.mkdir()
        else:
            (tmp_path / "f").write_text("x")
            path = tmp_path / "f" / "t.csv"
        with pytest.raises(ConfigError, match=re.escape(str(path.parent if make == "parent_is_file" else path))):
            bicausal.experiments._write_table(path, [], "a", "d", ([1],))


@pytest.mark.parametrize("preset", ["figure2", "figure5", "figure6"])
def test_large_n_preset_bundle(tmp_path, symmetric_hyper, preset):
    kind, spec = PRESETS[preset]
    run_bundle(kind, spec, 7, symmetric_hyper, tmp_path)
    files = sorted(tmp_path.iterdir())
    names = {"figure2": "concentration_obs.csv", "figure5": "concentration_eta0.5.csv", "figure6": "plateau.csv"}
    assert [p.name for p in files] == [names[preset]]
    lines = files[0].read_text().splitlines()
    assert "# skipped = 0" in lines
    rows = [l.split(",") for l in lines if not l.startswith("#")]
    table = np.array([[float(v) for v in r] for r in rows[1:]])
    assert table.shape[0] == spec["trials"] * len(spec["sample_sizes"])
    assert np.all(np.isfinite(table))
    if kind == "concentration":
        assert rows[0][4:7] == ["p_s1", "p_s2", "p_s3"]
        np.testing.assert_allclose(table[:, 4:7].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
