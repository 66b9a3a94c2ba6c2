"""Monte Carlo harness: determinism, slope fitting, distribution helpers,
CSV serialization."""

import math

import numpy as np
import pytest
import scipy.stats

import bicausal.exact
from bicausal import (
    ExperimentConfig,
    InvalidParameter,
    NumericalDegeneracy,
    Params,
    RateId,
    Structure,
    chi2_1_cdf,
    fit_slope,
    fitted_exponent,
    gain_transform,
    ks_test_chi2_1,
    plateau_theory_ratio,
    run_chi2_diagnostic,
    run_concentration,
    run_odds_plateau,
    sample_curve,
    theory_exponent,
)
from bicausal.experiments import (
    PRESETS,
    _simulate_cell,
    run_bundle,
    write_chi2_csv,
    write_concentration_csv,
    write_plateau_csv,
    write_rates_csv,
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
        calls = []
        original = bicausal.exact.log_marginal_mixed

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(bicausal.exact, "log_marginal_mixed", counting)
        cfg = small_config(hyper=symmetric_hyper)
        res = run_concentration(cfg)
        cells = cfg.trials * len(cfg.sample_sizes)
        assert len(res.records) == cells
        assert len(calls) == 3 * cells

        calls.clear()
        chi2_cfg = small_config(hyper=symmetric_hyper, true_model=Structure.S3, theta_star=Params(0.0, 1.0, 1.0))
        res, _, _ = run_chi2_diagnostic(chi2_cfg)
        assert len(res.records) == chi2_cfg.trials
        assert len(calls) == 3 * chi2_cfg.trials

    def test_no_skips_at_defaults(self, symmetric_hyper):
        res = run_concentration(small_config(hyper=symmetric_hyper, trials=20))
        assert res.skipped == 0

    def test_cell_seeds_do_not_collide(self, symmetric_hyper):
        # base_seed + trial * 10**6 + size_index gave these two cells one seed
        a = _simulate_cell(small_config(hyper=symmetric_hyper, base_seed=10**6), 0, 0)
        b = _simulate_cell(small_config(hyper=symmetric_hyper, base_seed=0), 1, 0)
        assert a != b

    def test_records_do_not_depend_on_trial_count(self, symmetric_hyper):
        three = run_concentration(small_config(hyper=symmetric_hyper, trials=3)).records
        five = run_concentration(small_config(hyper=symmetric_hyper, trials=5)).records
        assert len(three) == 3 * 4 and five[: len(three)] == three

    def test_negative_base_seed_rejected(self, symmetric_hyper):
        with pytest.raises(InvalidParameter, match="base_seed"):
            small_config(hyper=symmetric_hyper, base_seed=-1)

    @pytest.mark.parametrize(
        "run, model",
        [
            (run_concentration, {}),
            (
                lambda cfg: run_chi2_diagnostic(cfg)[0],
                {"true_model": Structure.S3, "theta_star": Params(0.0, 1.0, 1.0)},
            ),
        ],
        ids=["concentration", "chi2"],
    )
    def test_numerical_degeneracy_skips_the_cell(self, symmetric_hyper, monkeypatch, run, model):
        cfg = small_config(hyper=symmetric_hyper, **model)
        want = run(cfg).records
        calls = []
        original = bicausal.exact.log_marginal_mixed

        def failing_in_fourth_cell(*args):
            # three evidence calls per cell: call 10 is the fourth cell's first
            calls.append(args)
            if len(calls) == 10:
                raise NumericalDegeneracy("corrupted statistics")
            return original(*args)

        monkeypatch.setattr(bicausal.exact, "log_marginal_mixed", failing_in_fourth_cell)
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


class TestCsv:
    def test_serialization_roundtrip(self, tmp_path, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper, trials=3)
        res = run_concentration(cfg)
        path = tmp_path / "concentration.csv"
        write_concentration_csv(path, cfg, res)
        text = path.read_text()
        assert text.startswith("#")
        header_rows = [l for l in text.splitlines() if l.startswith("#")]
        assert any("base_seed" in l for l in header_rows)
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert rows[0] == "trial,N,n,m,p_s1,p_s2,p_s3,log_inv_odds"
        assert len(rows) - 1 == len(res.records)
        first = rows[1].split(",")
        assert float(first[4]) == res.records[0].p[0]  # 17 digits reproduce exactly

    def test_plateau_and_chi2_writers(self, tmp_path, symmetric_hyper):
        cfg = small_config(hyper=symmetric_hyper, eta=None, sample_sizes=(100,), trials=3)
        res = run_odds_plateau(cfg)
        write_plateau_csv(tmp_path / "plateau.csv", cfg, res)
        assert "ratio_12,theory_limit" in (tmp_path / "plateau.csv").read_text()

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
        assert "stat_s1,stat_s2" in (tmp_path / "chi2.csv").read_text()

    def test_rates_writer_matches_curves(self, tmp_path):
        theta, y = Params(1.0, 1.0, 4.0), 0.1
        path = tmp_path / "rates.csv"
        write_rates_csv(path, theta, y, 51, ["# preset"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# preset"
        rows = [l for l in lines if not l.startswith("#")]
        assert rows[0] == "eta,d12,d21,d13,d23,d12_gain,d21_gain"
        table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        curves = [sample_curve(r, theta, y, num=51) for r in (RateId.D12, RateId.D21, RateId.D13, RateId.D23)]
        np.testing.assert_array_equal(table[:, 0], curves[0].eta)
        for col, curve in enumerate(curves, start=1):
            np.testing.assert_array_equal(table[:, col], curve.values)
        np.testing.assert_array_equal(table[:, 5], gain_transform(curves[0]).values)
        np.testing.assert_array_equal(table[:, 6], gain_transform(curves[1]).values)


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
