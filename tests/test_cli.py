"""End-to-end CLI behavior: dataset round trips, posterior reports, rate
curves, experiment bundles, config precedence, and error categories."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import bicausal as bc
from bicausal import cli
from bicausal.cli import main, parse_config, read_dataset
from bicausal.errors import DataFormatError
from bicausal.sem import Params
from bicausal import mixing_helps_s1


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_row_counts_and_do_value(self, tmp_path):
        out = tmp_path / "data.csv"
        code = run_cli(
            "simulate", "--structure", "S1", "--w", "1.0", "--tau1-sq", "1.0",
            "--tau2-sq", "1.0", "--y", "2.0", "--n", "3", "--m", "2",
            "--seed", "5", "--out", out,
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "regime,x1,x2"
        assert len(rows) - 1 == 5
        int_rows = [r for r in rows[1:] if r.startswith("int,")]
        assert len(int_rows) == 2
        assert all(float(r.split(",")[2]) == 2.0 for r in int_rows)

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--structure", "S2", "--w", "0.7", "--tau1-sq", "1.2",
            "--tau2-sq", "0.8", "--n", "25", "--seed", "9",
        ]
        run_cli(*args, "--out", a)
        run_cli(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_output_digest_pinned(self, tmp_path):
        # 8,000 rows span two write blocks; the digest is that of the same
        # rows formatted one ``%`` call per row
        out = tmp_path / "d.csv"
        run_cli(
            "simulate", "--structure", "S1", "--w", "1.0", "--tau1-sq", "1.0", "--tau2-sq", "1.0",
            "--y", "1.5", "--n", "5000", "--m", "3000", "--seed", "7", "--out", out,
        )
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "509dab9ff815d7f4ad08511a1695d470bbca001ff9bdc93518567f02c854782e"

    @pytest.mark.parametrize("extra, rows", [([], 0), (["--m", "3", "--y", "1.5"], 3)],
                             ids=["empty", "interventional only"])
    def test_no_observational_rows(self, tmp_path, capsys, extra, rows):
        # zero-row blocks write the header and column row; the header-only
        # file reads back as the empty dataset
        paths = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in paths:
            assert run_cli(
                "simulate", "--structure", "S1", "--w", "1.0", "--tau1-sq", "1.0", "--tau2-sq", "1.0",
                "--n", "0", *extra, "--seed", "3", "--out", out,
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        lines = [l for l in paths[0].read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "regime,x1,x2" and len(lines) == 1 + rows
        assert all(l.startswith("int,") and l.endswith(",1.5") for l in lines[1:])
        capsys.readouterr()
        assert run_cli("posterior", paths[0]) == 0
        out, err = capsys.readouterr()
        assert err == "" and f"(n=0, m={rows})" in out
        if not rows:
            assert "p(S1)=0.33333333333333331, p(S2)=0.33333333333333331, p(S3)=0.33333333333333331" in out

    def test_header_records_config(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli(
            "simulate", "--structure", "S3", "--w", "0.0", "--tau1-sq", "1.0",
            "--tau2-sq", "1.0", "--n", "2", "--seed", "1", "--out", out,
        )
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("model.structure = S3" in l for l in header)
        assert any("simulate.seed = 1" in l for l in header)

    @pytest.mark.parametrize("extra", [["--y", "1.5"], []], ids=["with y", "without y"])
    def test_negative_m_is_refused_before_writing(self, tmp_path, capsys, extra):
        # sample_interv, which refuses a negative m, runs only where m > 0
        out = tmp_path / "f.csv"
        argv = ["simulate", "--structure", "S1", *MODEL, "--n", "2", "--m", "-3", *extra, "--out", out]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error category=invalid-parameter: m must be >= 0, got -3\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("counts, message", [
        (["--n", str(10**30)], f"argument-out-of-domain: n = {10**30} samples are more than an array can hold"),
        (["--n", "2", "--m", str(10**30)],
         f"argument-out-of-domain: m = {10**30} samples are more than an array can hold"),
        (["--n", str(10**400)], "invalid-parameter: n is beyond the range of a float"),
    ], ids=["n-1e30", "m-1e30", "n-401-digits"])
    def test_counts_past_an_array_are_refused_before_writing(self, tmp_path, capsys, counts, message):
        # numpy describes no (1e30, 2) array, and no float holds 10**400
        out = tmp_path / "f.csv"
        assert run_cli("simulate", "--structure", "S1", *MODEL, *counts, "--y", "1.5", "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error category={message}\n"
        assert captured.out == "" and not out.exists()


class TestPosterior:
    def _simulate(self, tmp_path, n=5, m=0, seed=3):
        out = tmp_path / "data.csv"
        argv = [
            "simulate", "--structure", "S1", "--w", "1.0", "--tau1-sq", "1.0",
            "--tau2-sq", "1.0", "--n", str(n), "--seed", str(seed), "--out", out,
        ]
        if m:
            argv += ["--m", str(m), "--y", "1.5"]
        run_cli(*argv)
        return out

    def test_empty_dataset_uniform(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("regime,x1,x2\n")
        assert run_cli("posterior", data) == 0
        out = capsys.readouterr().out
        assert "p(S1)=0.33333333333333331" in out

    @pytest.mark.parametrize("n, m", [(5, 0), (300, 100)])
    def test_exact_vs_quadrature_agree(self, tmp_path, capsys, n, m):
        data = self._simulate(tmp_path, n=n, m=m)
        assert run_cli("posterior", data, "--method", "exact") == 0
        exact_out = capsys.readouterr().out
        assert run_cli("posterior", data, "--method", "quadrature") == 0
        quad_out = capsys.readouterr().out

        def marginals(text):
            return [
                float(l.split("=")[1]) for l in text.splitlines() if l.startswith("log_marginal")
            ]

        exact, quad = marginals(exact_out), marginals(quad_out)
        assert len(exact) == len(quad) == 3
        for a, b in zip(exact, quad):
            assert abs(math.expm1(b - a)) < 1e-4

    def test_exact_probabilities_match_library(self, tmp_path, capsys):
        data = self._simulate(tmp_path, n=40, m=15, seed=4)
        run_cli("posterior", data, "--method", "exact")
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("posterior:"))
        got = [float(part.split("=")[1]) for part in line[len("posterior:"):].split(",")]
        obs, interv = read_dataset(str(data))
        want = bc.posterior(bc.suffstats(obs, interv), bc.bge_symmetric_hyper(3.0, 0.5)).p
        assert got == want.tolist()

    def test_laplace_reports_occam_gap(self, tmp_path, capsys):
        data = self._simulate(tmp_path, n=60, seed=8)
        run_cli("posterior", data, "--method", "laplace")
        out = capsys.readouterr().out
        assert "occam penalty gap" in out
        assert f"{0.5 * math.log(60):.5f}"[:6] in out
        assert "delta vs exact" in out

    def test_report_written_to_file(self, tmp_path):
        data = self._simulate(tmp_path, n=8, m=4)
        report = tmp_path / "report.txt"
        run_cli("posterior", data, "--out", report)
        assert "posterior:" in report.read_text()

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_token_is_data_format_error(self, tmp_path, capsys, token):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"regime,x1,x2\nobs,1.0,2.0\nobs,{token},1.0\n")
        assert run_cli("posterior", bad) == 3
        err = capsys.readouterr().err
        assert "bad.csv:3" in err and "category=data-format" in err

    def test_overflowing_sample_is_invalid_parameter(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("regime,x1,x2\nobs,1e200,1.0\nobs,1.0,2.0\nobs,0.5,0.1\n")
        assert run_cli("posterior", big) == 1
        assert "category=invalid-parameter" in capsys.readouterr().err

    def test_overflowing_moment_product_is_invalid_parameter(self, tmp_path, capsys):
        # every sum is finite, but s1x * s2x and s12x * s12x overflow
        big = tmp_path / "big.csv"
        big.write_text("regime,x1,x2\nobs,1e100,1e100\nobs,1.0,2.0\nobs,0.5,0.1\n")
        assert run_cli("posterior", big) == 1
        err = capsys.readouterr().err
        assert "category=invalid-parameter" in err and "Traceback" not in err

    def test_parse_error_carries_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("regime,x1,x2\nobs,1.0\n")
        code = run_cli("posterior", bad)
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.csv:2" in err and "category=data-format" in err

    def test_invalid_utf8_is_data_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"regime,x1,x2\nobs,1.0,2.0\nobs,\xff,1.0\n")
        assert run_cli("posterior", bad) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "category=data-format" in err and "Traceback" not in err


    def test_two_intervention_values_are_data_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("regime,x1,x2\nint,1.0,1.5\nint,2.0,2.5\n")
        assert run_cli("posterior", bad) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "category=data-format" in err and "Traceback" not in err
        assert "1.5" in err and "2.5" in err

    def test_heavy_tailed_quadrature_is_non_converged(self, tmp_path, capsys):
        # S1's node-2 prior is IG(0.05) with no node-2 data; the conjugate
        # oracle reported an S1 evidence 5% low with exit 0
        data = tmp_path / "int.csv"
        data.write_text("regime,x1,x2\nint,1.0,1.5\nint,2.0,1.5\nint,0.3,1.5\n")
        assert run_cli("posterior", data, "--method", "quadrature", "--bge-alpha", "0.55") == 1
        err = capsys.readouterr().err
        assert "category=non-converged-quadrature" in err and "Traceback" not in err

    def test_concentrated_prior_quadrature_matches_exact(self, tmp_path, capsys):
        # shapes and beta of 1e4 put each variance's mass in a window of
        # width about 0.01 around the mode; the quadrature oracle exited 1
        # as non-converged when its windows were centred at the MLE
        data = tmp_path / "conc.csv"
        data.write_text("regime,x1,x2\nobs,1.0,0.5\nobs,-1.0,0.25\nobs,0.5,-1.0\n")
        argv = ("--method", "quadrature", "--bge-alpha", "1e4", "--bge-beta", "1e4", "--crosscheck")
        assert run_cli("posterior", data, *argv) == 0
        out = capsys.readouterr().out
        assert "log_marginal[S3] = -7.29498" in out
        deltas = out.split("delta vs exact closed form: ")[1].split(",")
        assert all(abs(float(d.split(":")[1])) < 1e-9 for d in deltas)

    def test_huge_variance_quadrature_is_quiet(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        rows = ["3e152,0.001", "-2e152,0.002", "1e152,-0.001", "4e152,0.0005", "-3e152,-0.002", "2e152,0.001"]
        data.write_text("regime,x1,x2\n" + "".join(f"obs,{r}\n" for r in rows))
        assert run_cli("posterior", data, "--method", "quadrature") == 0
        assert capsys.readouterr().err == ""

    def test_overflowing_evidence_is_numerical_degeneracy(self, tmp_path, capsys):
        # node 2's yy + 2*beta overflows: the posterior read p(S1)=nan with
        # exit 0 and two RuntimeWarnings
        data = tmp_path / "overflow.csv"
        data.write_text("regime,x1,x2\nobs,1e-100,7e153\nobs,2e-100,-7e153\nobs,0.5e-100,7e153\n")
        cfg = tmp_path / "huge-beta.cfg"
        cfg.write_text("[prior]\n" + "".join(f"alpha{i} = 3\n" for i in range(1, 7)) + "beta = 1.7e308\nlambda = 1\n")
        assert run_cli("posterior", data, "--config", cfg) == 1
        captured = capsys.readouterr()
        assert "category=numerical-degeneracy" in captured.err and "Traceback" not in captured.err
        assert "nan" not in captured.out

    def test_laplace_with_an_underflowing_variance_is_numerical_degeneracy(self, tmp_path, capsys):
        # tau2_sq of about 1e-256 squares to 0 in the Hessian: the report was
        # a raw ZeroDivisionError traceback; the exact method scores the file
        data = tmp_path / "tiny-x2.csv"
        data.write_text(
            "regime,x1,x2\nobs,100.0,1e-128\nobs,-50.0,-2e-128\nobs,80.0,0.5e-128\n"
            "int,3.0,0.5\nint,-4.0,0.5\nint,2.5,0.5\n"
        )
        assert run_cli("posterior", data, "--method", "laplace") == 1
        err = capsys.readouterr().err
        assert "category=numerical-degeneracy: Hessian under S1 undefined: tau2_sq = " in err
        assert "Traceback" not in err
        assert run_cli("posterior", data) == 0

    def test_vanishing_moment_ratio_is_quiet(self, tmp_path, capsys):
        # U/V rounds to 0 under S2; log1p(-1) in the discarded branch warned
        data = tmp_path / "tiny-x1.csv"
        data.write_text("regime,x1,x2\nobs,1e-4,1.0\nobs,-2e-4,0.5\nobs,1e-4,-1.0\n")
        assert run_cli("posterior", data, "--bge-beta", "1e10") == 0
        assert capsys.readouterr().err == ""

    def test_collinear_data_reports_mle_unavailable(self, tmp_path, capsys):
        data = tmp_path / "line.csv"
        data.write_text("regime,x1,x2\nobs,1,2\nobs,2,4\nobs,3,6\n")
        assert run_cli("posterior", data) == 0
        out = capsys.readouterr().out
        assert "mle: unavailable (" in out and "collect non-collinear samples" in out
        assert "mle[" not in out


class TestRates:
    def test_collapsed_case_column(self, tmp_path):
        out = tmp_path / "rates.csv"
        run_cli(
            "rates", "--w", "1.0", "--tau1-sq", "1.0", "--tau2-sq", "1.0",
            "--y", "1.0", "--grid-points", "101", "--out", out,
        )
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0].split(",")[0] == "eta"
        for row in rows[1:]:
            vals = [float(v) for v in row.split(",")]
            eta, v12 = vals[0], vals[1]
            assert v12 == pytest.approx(0.5 * (1 - eta) * math.log(2.0), abs=1e-12)

    def test_d21_vanishes_at_extremes(self, tmp_path):
        out = tmp_path / "rates.csv"
        run_cli(
            "rates", "--w", "1.0", "--tau1-sq", "1.0", "--tau2-sq", "1.0",
            "--y", "1.5", "--grid-points", "201", "--out", out,
        )
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        first = [float(v) for v in rows[1].split(",")]
        last = [float(v) for v in rows[-1].split(",")]
        assert abs(first[2]) < 1e-6 and abs(last[2]) < 1e-6

    def test_nonpositive_grid_points_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        for points in ("0", "-1"):
            code = run_cli(
                "rates", "--w", "1.0", "--tau1-sq", "1.0", "--tau2-sq", "1.0",
                "--y", "1.0", "--grid-points", points, "--out", out,
            )
            assert code == 2
            assert "category=config" in capsys.readouterr().err
        assert not out.exists()

    def test_mixing_flag_matches_inequality(self, tmp_path, capsys):
        for w, t1, t2, y in ((1.0, 1.0, 4.0, 0.1), (1.0, 1.0, 1.0, 2.0)):
            out = tmp_path / "r.csv"
            run_cli(
                "rates", "--w", w, "--tau1-sq", t1, "--tau2-sq", t2, "--y", y,
                "--grid-points", "11", "--out", out,
            )
            stdout = capsys.readouterr().out
            want = mixing_helps_s1(Params(w, t1, t2), y)
            assert f"mixing_helps_s1: {want}" in stdout


class TestExperimentCommand:
    def test_preset_figure3_small_override_runs(self, tmp_path, capsys):
        # full preset is exercised in the acceptance suite; here use a config
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nstructure = S3\nw = 0\ntau1_sq = 1\ntau2_sq = 1\n"
            "[experiment]\nkind = chi2\nsample_sizes = 400\ntrials = 30\nseed = 2\n"
            f"out = {tmp_path / 'bundle'}\n"
        )
        assert run_cli("experiment", "--config", cfg) == 0
        assert (tmp_path / "bundle" / "chi2.csv").exists()
        assert "KS distance" in capsys.readouterr().out

    def test_cli_seed_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nstructure = S1\nw = 1\ntau1_sq = 1\ntau2_sq = 1\ny = 1.5\neta = 0.5\n"
            "[experiment]\nkind = concentration\nsample_sizes = 50,100,200,400\ntrials = 2\n"
            "seed = 2\n"
        )
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        run_cli("experiment", "--config", cfg, "--out", out1, "--seed", "7")
        run_cli("experiment", "--config", cfg, "--out", out2, "--seed", "7")
        f1 = out1 / "concentration_eta0.5.csv"
        f2 = out2 / "concentration_eta0.5.csv"
        assert f1.read_bytes() == f2.read_bytes()
        out3 = tmp_path / "b3"
        run_cli("experiment", "--config", cfg, "--out", out3)  # config seed = 2
        assert (out3 / "concentration_eta0.5.csv").read_bytes() != f1.read_bytes()

    def test_figure7_is_figure1(self, tmp_path):
        for preset in ("figure1", "figure7"):
            assert run_cli("experiment", "--preset", preset, "--out", tmp_path / preset) == 0
        names = sorted(p.name for p in (tmp_path / "figure1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "figure7").iterdir()) and names
        for name in names:
            assert (tmp_path / "figure1" / name).read_bytes() == (tmp_path / "figure7" / name).read_bytes()

    def test_unknown_preset_is_config_error(self, capsys):
        assert run_cli("experiment", "--preset", "figure99") == 2
        assert "category=config" in capsys.readouterr().err

    def test_config_restating_preset_matches_preset(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nstructure = S1\nw = 1\ntau1_sq = 1\ntau2_sq = 1\ny = 1.5\neta = 0.5\n"
            "[experiment]\nkind = concentration\nsample_sizes = 50,100,200,400,800,1600,3200\n"
            "trials = 100\n"
        )
        name = "concentration_eta0.5.csv"
        assert run_cli("experiment", "--config", cfg, "--seed", "7", "--out", tmp_path / "c") == 0
        assert run_cli("experiment", "--preset", "figure4", "--seed", "7", "--out", tmp_path / "p") == 0
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    def test_non_integer_sample_sizes_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nstructure = S1\nw = 1\ntau1_sq = 1\ntau2_sq = 1\n"
            "[experiment]\nkind = concentration\nsample_sizes = 100,1e3\n"
        )
        assert run_cli("experiment", "--config", cfg, "--out", tmp_path / "b") == 2
        assert "sample_sizes" in capsys.readouterr().err

    def test_config_rates_kind_is_config_error(self, tmp_path, capsys):
        # the rates kind takes its parameter sets from a preset only
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nstructure = S1\nw = 1\ntau1_sq = 1\ntau2_sq = 1\n"
            "[experiment]\nkind = rates\nsample_sizes = 100\n"
        )
        assert run_cli("experiment", "--config", cfg, "--out", tmp_path / "b") == 2
        assert "category=config" in capsys.readouterr().err


class TestSettingsAreLive:
    """Every flag a command takes changes what it does; the flags a command
    would ignore are not declared, so they exit 2 like any unknown flag."""

    DEAD = [
        ("simulate", "--bge-alpha", "3"),
        ("simulate", "--bge-beta", "0.5"),
        ("posterior", "--seed", "5"),
        ("rates", "--seed", "5"),
        ("rates", "--bge-alpha", "3"),
        ("rates", "--bge-beta", "0.5"),
    ]

    @pytest.mark.parametrize("command, flag, value", DEAD, ids=[f"{c} {f}" for c, f, _ in DEAD])
    def test_dead_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out.csv"
        data = tmp_path / "data.csv"
        data.write_text("regime,x1,x2\nobs,1.0,2.0\nobs,2.0,1.0\n")
        argv = {
            "simulate": ["--structure", "S1", *MODEL, "--n", "3"],
            "posterior": [data],
            "rates": [*MODEL, "--y", "0.1", "--grid-points", "5"],
        }[command]
        with pytest.raises(SystemExit) as info:
            run_cli(command, *argv, flag, value, "--out", out)
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_option_slots(self):
        # flags and positionals, not -h
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        slots = {name: sum(a.dest != "help" for a in q._actions) for name, q in sub.choices.items()}
        assert slots == {"simulate": 10, "posterior": 7, "rates": 7, "experiment": 6}

    @staticmethod
    def _config(tmp_path, model, experiment):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[model]\n{model}[experiment]\n{experiment}")
        return cfg

    def test_chi2_eta_runs_the_mixed_diagnostic(self, tmp_path):
        cfg = self._config(
            tmp_path, "structure = S3\nw = 0\ntau1_sq = 1\ntau2_sq = 1\ny = 1.5\neta = 0.5\n",
            "kind = chi2\nsample_sizes = 400\ntrials = 30\n",
        )
        out = tmp_path / "b"
        assert run_cli("experiment", "--config", cfg, "--seed", "0", "--out", out) == 0
        text = (out / "chi2.csv").read_text()
        assert "# eta = 0.5\n" in text
        lines = text.splitlines()
        rows = np.array([l.split(",") for l in lines[lines.index("trial,stat_s1,stat_s2") + 1:]], dtype=float)
        want_cfg = bc.ExperimentConfig(
            bc.Structure.S3, Params(0.0, 1.0, 1.0), bc.bge_symmetric_hyper(3.0, 0.5),
            y=1.5, eta=0.5, sample_sizes=(400,), trials=30, base_seed=0,
        )
        result, ks, pvalue = bc.run_chi2_diagnostic(want_cfg)
        assert rows[:, 1].tolist() == result.stat_s1.tolist()
        assert rows[:, 2].tolist() == result.stat_s2.tolist()
        assert f"# ks_statistic = {ks!r}\n" in text and result.m.tolist() == [200] * 30

    def test_plateau_eta_is_invalid_parameter(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path, "structure = S1\nw = 1\ntau1_sq = 1\ntau2_sq = 1\ny = 1.5\neta = 0.5\n",
            "kind = plateau\nsample_sizes = 100,200\ntrials = 2\n",
        )
        assert run_cli("experiment", "--config", cfg, "--out", tmp_path / "b") == 1
        err = capsys.readouterr().err
        assert "category=invalid-parameter: plateau experiment is observational-only" in err
        assert not (tmp_path / "b" / "plateau.csv").exists()

    @pytest.mark.parametrize("command", ["posterior", "experiment"])
    def test_shape_with_overflowing_lgamma_is_invalid_parameter(self, tmp_path, capsys, command):
        # lgamma overflows above about 2.55e305; the traceback was a raw
        # OverflowError with no category
        data = tmp_path / "tiny-x1.csv"
        data.write_text("regime,x1,x2\nobs,1e-4,1.0\nobs,-2e-4,0.5\nobs,1e-4,-1.0\n")
        argv = [data] if command == "posterior" else ["--preset", "figure3", "--out", tmp_path / "b"]
        assert run_cli(command, *argv, "--bge-alpha", "1e308") == 1
        err = capsys.readouterr().err
        assert "category=invalid-parameter: hyperparameter alpha1" in err and "Traceback" not in err


class TestHyperPrecedence:
    """Which prior an experiment runs under, read from its bundle header."""

    EXPLICIT = "[prior]\nalpha1 = 4\nalpha2 = 2.5\nalpha3 = 2.5\nalpha4 = 3\nalpha5 = 3\nalpha6 = 3\nbeta = 0.5\nlambda = 1\n"

    def _alpha_header(self, tmp_path, prior, *flags):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[model]\nstructure = S1\nw = 1\ntau1_sq = 1\ntau2_sq = 1\n" + prior
            + "[experiment]\nkind = concentration\nsample_sizes = 50,100\ntrials = 1\n"
        )
        out = tmp_path / "b"
        assert run_cli("experiment", "--config", cfg, "--out", out, *flags) == 0
        lines = (out / "concentration_obs.csv").read_text().splitlines()
        return next(l for l in lines if l.startswith("# alpha = "))

    @staticmethod
    def _expected(h):
        alphas = (h.alpha1, h.alpha2, h.alpha3, h.alpha4, h.alpha5, h.alpha6)
        return "# alpha = " + ",".join("%.17g" % a for a in alphas)

    def test_explicit_list(self, tmp_path):
        got = self._alpha_header(tmp_path, self.EXPLICIT)
        assert got == self._expected(bc.BgeHyper(4, 2.5, 2.5, 3, 3, 3, 0.5, 1))

    @pytest.mark.parametrize(
        "extra, flags, named",
        [
            ("bge_alpha = 5\n", (), "[prior] bge_alpha"),
            ("", ("--bge-beta", "7"), "--bge-beta"),
            ("bge_alpha = 5\n", ("--bge-alpha", "4"), "[prior] bge_alpha, --bge-alpha"),
        ],
        ids=["config-bge-alpha", "bge-beta-flag", "bge-alpha-flag"],
    )
    @pytest.mark.parametrize("command", ["posterior", "experiment"])
    def test_explicit_list_beside_a_symmetric_setting_exits_2(self, tmp_path, capsys, command, extra, flags, named):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.EXPLICIT + extra)
        data, out = tmp_path / "d.csv", tmp_path / "b"
        data.write_text("regime,x1,x2\nobs,1.0,0.5\nobs,-1.0,0.25\nobs,0.5,-1.0\n")
        argv = ("posterior", data) if command == "posterior" else ("experiment", "--preset", "figure1", "--out", out)
        assert run_cli(*argv, "--config", cfg, *flags) == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            f"error category=config: the explicit [prior] alpha1..lambda prior cannot be given with {named}"
        )
        assert not out.exists()

    def test_default_symmetric_prior(self, tmp_path):
        got = self._alpha_header(tmp_path, "")
        assert got == self._expected(bc.bge_symmetric_hyper(3.0, 0.5))


class TestConfigParsing:
    def test_sections_and_comments(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("# top comment\n[model]\nw = 1.5  # inline\n\n[prior]\nbge_alpha = 3\n")
        sections = parse_config(str(cfg))
        assert sections["model"]["w"] == "1.5"
        assert sections["prior"]["bge_alpha"] == "3"

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\nnonsense line\n")
        code = run_cli("rates", "--config", cfg)
        assert code == 2
        assert "c.ini:2" in capsys.readouterr().err

    def test_invalid_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(b"[model]\nw = 1.0 # \xff\n")
        assert run_cli("rates", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "category=config" in err

    def test_read_dataset_roundtrip(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("# header\nregime,x1,x2\nobs,1.0,2.0\nint,0.5,1.5\n")
        obs, interv = read_dataset(str(data))
        np.testing.assert_array_equal(obs, [[1.0, 2.0]])
        np.testing.assert_array_equal(interv, [[0.5, 1.5]])


class TestConfigKeys:
    """Every config key is read by some command, and any other is refused."""

    MODEL_SECTION = "[model]\nstructure = S1\nw = 1\ntau1_sq = 1\ntau2_sq = 1\n"

    def test_preset_with_generative_keys_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # the preset's bundle was written with its own trials and no eta
        cfg = tmp_path / "c.ini"
        cfg.write_text("[model]\neta = 0.5\nstructure = S2\n[experiment]\ntrials = 3\nsample_sizes = 50,100\n")
        out = tmp_path / "b"
        assert run_cli("experiment", "--preset", "figure6", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            "error category=config: preset figure6 fixes its model and design; the config sets "
            "[model] structure, [model] eta, [experiment] sample_sizes, [experiment] trials"
        )
        assert not out.exists()

    def test_misspelt_key_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # the run used the default 100 trials
        cfg = tmp_path / "c.ini"
        cfg.write_text(self.MODEL_SECTION + "[experiment]\nkind = concentration\nsample_sizes = 50,100\ntrails = 3\n")
        out = tmp_path / "b"
        assert run_cli("experiment", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"category=config: {cfg}:9: unknown key 'trails' in [experiment] (expected one of " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, line, where",
        [("w = 1\n", 1, "before any [section] header"), ("[model]\n[plot]\nw = 1\n", 3, "in [plot]")],
    )
    def test_key_outside_the_known_sections_is_refused(self, tmp_path, capsys, text, line, where):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        assert run_cli("rates", "--config", cfg) == 2
        assert f"{cfg}:{line}: unknown key 'w' {where} (sections: model, prior," in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["beta", "lambda"])
    def test_explicit_prior_key_without_the_shapes_is_refused(self, tmp_path, capsys, key):
        # the symmetric prior ran and the key was dropped
        data, cfg = tmp_path / "d.csv", tmp_path / "c.ini"
        data.write_text("regime,x1,x2\nobs,1.0,0.5\nobs,-1.0,0.25\n")
        cfg.write_text(f"[prior]\n{key} = 50\n")
        assert run_cli("posterior", data, "--config", cfg) == 2
        assert "category=config: missing required setting [prior] alpha1" in capsys.readouterr().err

    def test_every_key_is_read_by_some_command(self, tmp_path, monkeypatch):
        read = set()
        get = cli.Resolver.get

        def recording(self, section, key, *args, **kwargs):
            read.add((section, key))
            return get(self, section, key, *args, **kwargs)

        monkeypatch.setattr(cli.Resolver, "get", recording)
        data, cfg = tmp_path / "d.csv", tmp_path / "c.ini"
        run_cli("simulate", "--structure", "S1", *MODEL, "--y", "1.5", "--n", "3", "--m", "2", "--out", data)
        run_cli("posterior", data)
        cfg.write_text(TestHyperPrecedence.EXPLICIT)
        run_cli("posterior", data, "--config", cfg)
        run_cli("rates", *MODEL, "--y", "0.1", "--grid-points", "5", "--out", tmp_path / "r.csv")
        cfg.write_text(self.MODEL_SECTION + "[experiment]\nkind = concentration\nsample_sizes = 50,100\ntrials = 1\n")
        run_cli("experiment", "--config", cfg, "--out", tmp_path / "b")
        assert read == {(section, key) for section, keys in cli._CONFIG_KEYS.items() for key in keys}


MODEL = ["--w", "1.0", "--tau1-sq", "1.0", "--tau2-sq", "1.0"]


_S1 = "structure = S1\nw = 1\ntau1_sq = 1\ntau2_sq = 1\n"
_DESIGN = "sample_sizes = 100,1000\ntrials = 3\n"


class TestRefusedExperimentWritesNothing:
    """An experiment refused for its kind or its configuration exits with its
    category before a file is written, so its ``--out`` is never made."""

    @pytest.mark.parametrize(
        "model, experiment, flags, code, message",
        [
            (_S1, _DESIGN + "kind = survey\n", [], 2, "category=config: unknown experiment kind 'survey'"),
            (_S1 + "eta = 0.5\n", _DESIGN + "kind = plateau\n", [], 1,
             "category=invalid-parameter: plateau experiment is observational-only"),
            ("structure = S3\nw = 0\ntau1_sq = 1\ntau2_sq = 1\n", _DESIGN + "kind = plateau\n", [], 1,
             "category=invalid-parameter: plateau defined for connected true models"),
            (_S1, _DESIGN + "kind = chi2\n", [], 1,
             "category=invalid-parameter: chi-squared diagnostic requires true model S3"),
            (_S1, "sample_sizes = 100,1000\ntrials = 0\nkind = concentration\n", [], 1,
             "category=invalid-parameter: trials must be >= 1, got 0"),
            (_S1, "sample_sizes = 20,10\ntrials = 3\nkind = concentration\n", [], 1,
             "category=invalid-parameter: sample_sizes must be a strictly increasing nonempty list"),
            # the plateau's limit overflows: refused before any draw
            ("structure = S1\nw = 1e5\ntau1_sq = 1e-8\ntau2_sq = 1\n", _DESIGN + "kind = plateau\n",
             ["--bge-beta", "2"], 1,
             "category=argument-out-of-domain: plateau ratio exp(1.8749999998124997e+18) overflows at "
             "Params(w=100000.0, tau1_sq=1e-08, tau2_sq=1.0)"),
            # the slope fit needs four sizes: refused before the first file
            (_S1 + "y = 1\neta = 0.5\n", _DESIGN + "kind = concentration\n", [], 1,
             "category=invalid-parameter: slope fit needs at least 4 distinct x values"),
        ],
        ids=["unknown-kind", "plateau-eta", "plateau-s3", "chi2-s1", "no-trials", "decreasing-sizes",
             "plateau-overflow", "short-fit"],
    )
    def test_exits_with_its_category_and_makes_no_out(self, tmp_path, capsys, model, experiment, flags, code, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[model]\n{model}[experiment]\n{experiment}")
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", cfg, *flags, "--out", out) == code
        assert capsys.readouterr().err == f"error {message}\n"
        assert not out.exists()


class TestOutputPaths:
    """An output path that cannot be written is a config error naming it."""

    def test_simulate_out_is_directory(self, tmp_path, capsys):
        argv = ["simulate", "--structure", "S1", *MODEL, "--n", "3", "--out", tmp_path]
        self._assert_config_error(capsys, run_cli(*argv), tmp_path)

    def test_rates_out_is_directory(self, tmp_path, capsys):
        argv = ["rates", *MODEL, "--y", "1.0", "--grid-points", "5", "--out", tmp_path]
        self._assert_config_error(capsys, run_cli(*argv), tmp_path)

    def test_posterior_out_is_directory(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("regime,x1,x2\nobs,1.0,2.0\n")
        self._assert_config_error(capsys, run_cli("posterior", data, "--out", tmp_path), tmp_path)

    def test_experiment_out_is_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("x")
        self._assert_config_error(capsys, run_cli("experiment", "--preset", "figure1", "--out", out), out)
        assert out.read_text() == "x"

    @staticmethod
    def _assert_config_error(capsys, code, path):
        err = capsys.readouterr().err
        assert code == 2
        assert "category=config" in err and str(path) in err and "Traceback" not in err


def _line_reader(path):
    """The dataset reader as a plain line loop: the reference that
    ``read_dataset``'s chunked, column-at-a-time parse must match."""
    obs_rows, int_rows = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0].lower() == "regime":
            saw_header = True
            continue
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 'regime,x1,x2', got {raw!r}")
        regime = parts[0].lower()
        try:
            x1, x2 = float(parts[1]), float(parts[2])
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-numeric sample {raw!r}") from None
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise DataFormatError(f"{path}:{lineno}: non-finite sample {raw!r}")
        if regime == "obs":
            obs_rows.append((x1, x2))
        elif regime in ("int", "interv"):
            int_rows.append((x1, x2))
        else:
            raise DataFormatError(f"{path}:{lineno}: unknown regime {parts[0]!r}")
    if not saw_header and not obs_rows and not int_rows:
        raise DataFormatError(f"{path}: no data rows found")
    obs = np.array(obs_rows, dtype=np.float64).reshape(-1, 2)
    interv = np.array(int_rows, dtype=np.float64).reshape(-1, 2) if int_rows else None
    return obs, interv


_pad = hs.sampled_from(["", "", " ", "  ", "\t"])
_regime = hs.sampled_from(["obs", "int", "interv", "OBS", "Int", "INTERV", "Obs"])
_number = hs.one_of(
    hs.floats(allow_nan=False, allow_infinity=False).map(repr),
    hs.floats(-1e3, 1e3).map(lambda v: "%.17g" % v),
    hs.integers(-(10**6), 10**6).map(str),
    hs.sampled_from(["-0", "+3", "1e-400", ".5", "5.", "1_0", "1E5"]),
)
_bad_number = hs.sampled_from(["Infinity", "-inf", "nan", "NaN", "1e400", "-1e400", "abc", "", "0x1", "1 2", "2 # note"])
_bad_regime = hs.sampled_from(["bogus", "", "o bs", "observational", "rubbish", "regime2", "Regimes"])


@hs.composite
def _data_line(draw):
    return f"{draw(_pad)}{draw(_regime)}{draw(_pad)},{draw(_pad)}{draw(_number)},{draw(_number)}{draw(_pad)}"


@hs.composite
def _odd_line(draw):
    pad = draw(_pad)
    kind = draw(hs.sampled_from(["comment", "blank", "header", "fields", "number", "regime", "note"]))
    if kind == "comment":
        return f"{pad}# {draw(hs.sampled_from(['note', 'obs,1,2', 'regime,x1,x2', '']))}"
    if kind == "blank":
        return pad
    if kind == "header":
        return f"{pad}{draw(hs.sampled_from(['regime', 'Regime ', 'REGIME']))},x1,x2{draw(hs.sampled_from(['', ',x3']))}"
    if kind == "fields":
        return ",".join([draw(_regime)] + draw(hs.lists(_number, max_size=4).filter(lambda v: len(v) != 2)))
    if kind == "number":
        good, bad = draw(_number), draw(_bad_number)
        return f"{draw(_regime)},{bad},{good}" if draw(hs.booleans()) else f"{draw(_regime)},{good},{bad}"
    if kind == "regime":
        return f"{pad}{draw(_bad_regime)},1,2"
    return "obs,1,2 # note"


@hs.composite
def _dataset_text(draw):
    lines = draw(hs.lists(hs.one_of(_data_line(), _data_line(), _data_line(), _odd_line()), max_size=30))
    ends = draw(hs.lists(hs.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0c"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(hs.booleans()) else text.rstrip("\r\n")


def _outcome(reader, path):
    try:
        obs, interv = reader(path)
    except DataFormatError as exc:
        return str(exc)
    return (obs.dtype, obs.shape, obs.tobytes()), None if interv is None else (interv.dtype, interv.shape, interv.tobytes())


class TestReaderDifferential:
    """The chunked reader returns bitwise the line reader's arrays, or
    raises its error message with the same line number, at any chunk size."""

    CHUNKS = (1, 2, 3, cli._CHUNK_LINES)

    def _assert_same(self, path):
        want = _outcome(_line_reader, path)
        default = cli._CHUNK_LINES
        try:
            for chunk in self.CHUNKS:
                cli._CHUNK_LINES = chunk
                assert _outcome(read_dataset, path) == want, chunk
        finally:
            cli._CHUNK_LINES = default

    @settings(max_examples=300, deadline=None)
    @given(text=_dataset_text())
    def test_matches_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_text(text, encoding="utf-8", newline="")
        self._assert_same(str(path))

    @pytest.mark.parametrize(
        "text, want",
        [
            ("", "no data rows found"),
            ("\n  \n# only a comment\n", "no data rows found"),
            ("obs,1,2 # note\n", "non-numeric sample"),
            # the two lines' fields add up to two rows' worth
            ("obs,1\n2,obs,3,4\n", "d.csv:1: expected"),
            ("regime,x1,x2\nobs,1,2\n" * 3 + "obs,1\n", "d.csv:7: expected"),
        ],
    )
    def test_rejections(self, tmp_path, text, want):
        path = tmp_path / "d.csv"
        path.write_text(text)
        self._assert_same(str(path))
        with pytest.raises(DataFormatError, match=want):
            read_dataset(str(path))

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# c\nregime,x1,x2\n")
        self._assert_same(str(path))
        obs, interv = read_dataset(str(path))
        assert obs.shape == (0, 2) and interv is None
