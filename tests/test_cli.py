"""End-to-end CLI behavior: dataset round trips, posterior reports, rate
curves, experiment bundles, config precedence, and error categories."""

import math

import numpy as np
import pytest

import bicausal as bc
from bicausal.cli import main, parse_config, read_dataset
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

    def test_header_records_config(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli(
            "simulate", "--structure", "S3", "--w", "0.0", "--tau1-sq", "1.0",
            "--tau2-sq", "1.0", "--n", "2", "--seed", "1", "--out", out,
        )
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("model.structure = S3" in l for l in header)
        assert any("simulate.seed = 1" in l for l in header)


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

    def test_exact_vs_quadrature_agree(self, tmp_path, capsys):
        data = self._simulate(tmp_path, n=5)
        run_cli("posterior", data, "--method", "exact")
        exact_out = capsys.readouterr().out
        run_cli("posterior", data, "--method", "quadrature")
        quad_out = capsys.readouterr().out

        def marginals(text):
            return [
                float(l.split("=")[1]) for l in text.splitlines() if l.startswith("log_marginal")
            ]

        for a, b in zip(marginals(exact_out), marginals(quad_out)):
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

    def test_parse_error_carries_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("regime,x1,x2\nobs,1.0\n")
        code = run_cli("posterior", bad)
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.csv:2" in err and "category=data-format" in err


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

    def test_read_dataset_roundtrip(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("# header\nregime,x1,x2\nobs,1.0,2.0\nint,0.5,1.5\n")
        obs, interv = read_dataset(str(data))
        np.testing.assert_array_equal(obs, [[1.0, 2.0]])
        np.testing.assert_array_equal(interv, [[0.5, 1.5]])
