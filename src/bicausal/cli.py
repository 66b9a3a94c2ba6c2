"""Command-line interface: simulate, posterior, rates, experiment.

Configuration is a flat ``key = value`` text file with ``[section]`` headers
(sections: model, prior, simulate, rates, experiment). CLI flags override
config-file values. Every output file carries its resolved configuration in
``#``-prefixed header lines, and every command is deterministic given
(config, seed).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments as xp
from .approx import laplace_log_marginal, quadrature_log_marginal
from .errors import BicausalError, ConfigError, DataFormatError, DegenerateData
from .estimation import mle_mixed, suffstats
from .exact import StructurePosterior, log_marginal_mixed
from .experiments import _fmt
from .priors import BgeHyper, bge_symmetric_hyper, prior_logpdf
from .rates import RateId, mixing_helps_s1, optimal_eta
from .sem import InterventionSpec, Params, Structure, sample_interv, sample_obs

_METHODS = ("exact", "laplace", "quadrature")


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def parse_config(path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = "global"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        sections.setdefault(current, {})[key.strip().lower()] = value.strip()
    return sections


class Resolver:
    """Merge CLI args over config sections and track the resolved values."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = sections
        self.resolved: dict[str, str] = {}

    def get(self, section: str, key: str, override=None, default=None, required=False):
        if override is not None:
            value = override
        elif key in self.sections.get(section, {}):
            value = self.sections[section][key]
        else:
            value = default
        if value is None and required:
            raise ConfigError(f"missing required setting [{section}] {key}")
        if value is not None:
            self.resolved[f"{section}.{key}"] = str(value)
        return value

    def get_float(self, section, key, override=None, default=None, required=False):
        v = self.get(section, key, override, default, required)
        if v is None:
            return None
        try:
            return float(v)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key}: expected a number, got {v!r}") from exc

    def get_int(self, section, key, override=None, default=None, required=False):
        v = self.get(section, key, override, default, required)
        if v is None:
            return None
        try:
            return int(v)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key}: expected an integer, got {v!r}") from exc

    def header_lines(self) -> list[str]:
        # output locations are not part of the generative configuration
        return [
            f"# {k} = {v}"
            for k, v in sorted(self.resolved.items())
            if not k.endswith(".out")
        ]


def _structure(name: str) -> Structure:
    try:
        return Structure(name.upper())
    except ValueError:
        raise ConfigError(f"unknown structure {name!r}; expected S1, S2, or S3") from None


def _theta(res: Resolver, args) -> Params:
    return Params(
        w=res.get_float("model", "w", getattr(args, "w", None), required=True),
        tau1_sq=res.get_float("model", "tau1_sq", getattr(args, "tau1_sq", None), required=True),
        tau2_sq=res.get_float("model", "tau2_sq", getattr(args, "tau2_sq", None), required=True),
    )


def _hyper(res: Resolver, args) -> BgeHyper:
    sec = res.sections.get("prior", {})
    explicit = [k for k in sec if k.startswith("alpha")]
    if getattr(args, "bge_alpha", None) is not None or ("bge_alpha" in sec and not explicit):
        alpha = res.get_float("prior", "bge_alpha", getattr(args, "bge_alpha", None), default=3.0)
        beta = res.get_float("prior", "bge_beta", getattr(args, "bge_beta", None), default=0.5)
        return bge_symmetric_hyper(alpha, beta)
    if explicit:
        return BgeHyper(
            alpha1=res.get_float("prior", "alpha1", required=True),
            alpha2=res.get_float("prior", "alpha2", required=True),
            alpha3=res.get_float("prior", "alpha3", required=True),
            alpha4=res.get_float("prior", "alpha4", required=True),
            alpha5=res.get_float("prior", "alpha5", required=True),
            alpha6=res.get_float("prior", "alpha6", required=True),
            beta=res.get_float("prior", "beta", required=True),
            lam=res.get_float("prior", "lambda", required=True),
        )
    alpha = res.get_float("prior", "bge_alpha", getattr(args, "bge_alpha", None), default=3.0)
    beta = res.get_float("prior", "bge_beta", getattr(args, "bge_beta", None), default=0.5)
    return bge_symmetric_hyper(alpha, beta)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    res = Resolver(parse_config(args.config) if args.config else {})
    s = _structure(res.get("model", "structure", args.structure, required=True))
    theta = _theta(res, args)
    n = res.get_int("simulate", "n", args.n, default=0)
    m = res.get_int("simulate", "m", args.m, default=0)
    seed = res.get_int("simulate", "seed", args.seed, default=0)
    out = res.get("simulate", "out", args.out, required=True)
    y = res.get_float("model", "y", args.y, default=None)
    if m > 0 and y is None:
        raise ConfigError("interventional samples requested but no intervention value y")

    rng = np.random.default_rng(seed)
    obs = sample_obs(s, theta, n, rng)
    lines = res.header_lines()
    lines.append("regime,x1,x2")
    for row in obs:
        lines.append(f"obs,{_fmt(row[0])},{_fmt(row[1])}")
    if m > 0:
        interv = sample_interv(s, theta, InterventionSpec(y), m, rng)
        for row in interv:
            lines.append(f"int,{_fmt(row[0])},{_fmt(row[1])}")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {n} observational + {m} interventional samples to {out}")
    return 0


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------


def read_dataset(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    obs_rows: list[tuple[float, float]] = []
    int_rows: list[tuple[float, float]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
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


def cmd_posterior(args) -> int:
    res = Resolver(parse_config(args.config) if args.config else {})
    h = _hyper(res, args)
    method = res.get("posterior", "method", args.method, default="exact")
    if method not in _METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {_METHODS}")
    obs, interv = read_dataset(args.dataset)
    st = suffstats(obs, interv)

    lines: list[str] = [f"dataset: {args.dataset} (n={st.n}, m={st.m})", f"method: {method}"]
    logm_exact = [log_marginal_mixed(st, s, h) for s in Structure]
    if method == "exact":
        logm = logm_exact
    elif method == "quadrature":
        logm = [quadrature_log_marginal(st, s, h) for s in Structure]
    else:
        triple = mle_mixed(st)
        logm = [
            laplace_log_marginal(st, s, lambda th, s=s: prior_logpdf(th, s, h), triple.for_structure(s))
            for s in Structure
        ]
        occam = 0.5 * math.log(st.total)
        lines.append(
            f"occam penalty gap (3-parameter vs 2-parameter structure): {_fmt(occam)}"
        )

    p = StructurePosterior.from_logp(logm).p
    for i, s in enumerate(Structure):
        lines.append(f"log_marginal[{s.value}] = {_fmt(logm[i])}")
    lines.append("posterior: " + ", ".join(f"p({s.value})={_fmt(p[i])}" for i, s in enumerate(Structure)))
    if st.n >= 2:
        try:
            triple = mle_mixed(st)
        except DegenerateData as exc:
            lines.append(f"mle: unavailable ({exc}); collect non-collinear samples")
        else:
            for s in Structure:
                t = triple.for_structure(s)
                lines.append(
                    f"mle[{s.value}] = (w={_fmt(t.w)}, tau1_sq={_fmt(t.tau1_sq)}, tau2_sq={_fmt(t.tau2_sq)})"
                )
    if method != "exact" or args.crosscheck:
        deltas = ", ".join(
            f"{s.value}:{_fmt(logm[i] - logm_exact[i])}" for i, s in enumerate(Structure)
        )
        lines.append(f"delta vs exact closed form: {deltas}")

    report = "\n".join(lines)
    print(report)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def cmd_rates(args) -> int:
    res = Resolver(parse_config(args.config) if args.config else {})
    theta = _theta(res, args)
    y = res.get_float("model", "y", args.y, required=True)
    points = res.get_int("rates", "grid_points", args.grid_points, default=999)
    if points < 1:
        raise ConfigError(f"[rates] grid_points must be >= 1, got {points}")
    out = res.get("rates", "out", args.out, default="rates.csv")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    xp.write_rates_csv(out, theta, y, points, res.header_lines())
    helps = mixing_helps_s1(theta, y)
    eta12, v12 = optimal_eta(RateId.D12, theta, y)
    eta21, v21 = optimal_eta(RateId.D21, theta, y)
    print(f"wrote {out}")
    print(f"mixing_helps_s1: {helps}")
    print(f"optimal eta (true S1 exponent): {_fmt(eta12)} -> {_fmt(v12)}")
    print(f"optimal eta (true S2 exponent): {_fmt(eta21)} -> {_fmt(v21)}")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

_SYMMETRIC = ("bge", 3.0, 0.5)

#: Preset definitions. Generating parameters the source figures leave
#: unstated are artifact defaults and are flagged in the output headers.
PRESETS: dict[str, dict] = {
    "figure1": {
        "kind": "rates",
        "sets": [
            ("a", Params(1.0, 1.0, 4.0), 0.1),
            ("b", Params(1.0, 1.0, 1.0), 2.0),
        ],
    },
    "figure2": {
        "kind": "concentration",
        "true_model": Structure.S3,
        "theta": Params(0.0, 1.0, 1.0),
        "sizes": (100, 1000, 10000, 100000),
        "trials": 200,
    },
    "figure3": {
        "kind": "chi2",
        "true_model": Structure.S3,
        "theta": Params(0.0, 1.0, 1.0),
        "sizes": (5000,),
        "trials": 500,
    },
    "figure4": {
        "kind": "concentration",
        "true_model": Structure.S1,
        "theta": Params(1.0, 1.0, 1.0),
        "y": 1.5,
        "etas": (0.1, 0.5, 0.9),
        "sizes": (50, 100, 200, 400, 800, 1600, 3200),
        "trials": 100,
        "fit_min_size": 200,
    },
    "figure5": {
        "kind": "concentration",
        "true_model": Structure.S3,
        "theta": Params(0.0, 1.0, 1.0),
        "y": 1.5,
        "etas": (0.5,),
        "sizes": (100, 1000, 10000, 100000),
        "trials": 200,
    },
    "figure6": {
        "kind": "plateau",
        "true_model": Structure.S1,
        "theta": Params(1.0, 1.0, 1.0),
        "sizes": (100, 316, 1000, 3162, 10000, 31623, 100000),
        "trials": 20,
    },
}
#: The source's figure 7 revisits figure 1's two parameter sets.
PRESETS["figure7"] = PRESETS["figure1"]


def _preset_config(preset: dict, eta, seed: int, hyper: BgeHyper) -> xp.ExperimentConfig:
    return xp.ExperimentConfig(
        true_model=preset["true_model"],
        theta_star=preset["theta"],
        hyper=hyper,
        y=preset.get("y", 0.0),
        eta=eta,
        sample_sizes=preset["sizes"],
        trials=preset["trials"],
        base_seed=seed,
    )


def _run_experiment_bundle(kind: str, preset: dict, seed: int, outdir: Path, hyper: BgeHyper) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    if kind == "rates":
        for tag, theta, y in preset["sets"]:
            xp.write_rates_csv(
                outdir / f"rates_{tag}.csv",
                theta,
                y,
                999,
                [f"# preset parameter set {tag} (artifact defaults; source unstated)"],
            )
            print(f"wrote rates_{tag}.csv")
        return
    if kind == "chi2":
        cfg = _preset_config(preset, None, seed, hyper)
        result, ks, pvalue = xp.run_chi2_diagnostic(cfg)
        xp.write_chi2_csv(outdir / "chi2.csv", cfg, result, ks, pvalue)
        print(f"chi2.csv: KS distance {_fmt(ks)}, p-value {_fmt(pvalue)} over {len(result.records)} trials")
        return
    if kind == "plateau":
        cfg = _preset_config(preset, None, seed, hyper)
        result = xp.run_odds_plateau(cfg)
        xp.write_plateau_csv(outdir / "plateau.csv", cfg, result)
        limit = xp.plateau_theory_ratio(cfg)
        largest = cfg.sample_sizes[-1]
        tail = [r.ratio_12 for r in result.records if r.total == largest]
        mean_tail = sum(tail) / len(tail)
        print(
            f"plateau.csv: mean ratio at n={largest} is {_fmt(mean_tail)}, "
            f"theory limit {_fmt(limit)}"
        )
        return
    if kind == "concentration":
        etas = preset.get("etas", (None,))
        slope_rows = []
        for eta in etas:
            cfg = _preset_config(preset, eta, seed, hyper)
            result = xp.run_concentration(cfg)
            tag = "obs" if eta is None else f"eta{eta:g}"
            xp.write_concentration_csv(outdir / f"concentration_{tag}.csv", cfg, result)
            print(f"wrote concentration_{tag}.csv ({len(result.records)} records)")
            if eta is not None and cfg.true_model is not Structure.S3:
                fit = xp.fitted_exponent(cfg, result, min_size=preset.get("fit_min_size", 0))
                theory = xp.theory_exponent(cfg)
                slope_rows.append((eta, fit.slope, theory))
                print(
                    f"  eta={eta:g}: fitted slope {_fmt(fit.slope)} vs theory {_fmt(-theory)} "
                    f"(r2 {fit.r_squared:.4f})"
                )
        if slope_rows:
            xp.write_slopes_csv(
                outdir / "slopes.csv",
                slope_rows,
                [f"# fit over sizes >= {preset.get('fit_min_size', 0)}", f"# base_seed = {seed}"],
            )
            print("wrote slopes.csv")
        return
    raise ConfigError(f"unknown experiment kind {kind!r}")


def cmd_experiment(args) -> int:
    res = Resolver(parse_config(args.config) if args.config else {})
    seed = res.get_int("experiment", "seed", args.seed, default=0)
    outdir = Path(res.get("experiment", "out", args.out, default="experiment_out"))
    hyper = _hyper(res, args)
    preset_name = res.get("experiment", "preset", args.preset, default=None)
    if preset_name:
        preset = PRESETS.get(preset_name.lower())
        if preset is None:
            raise ConfigError(
                f"unknown preset {preset_name!r}; expected figure1..figure7"
            )
        _run_experiment_bundle(preset["kind"], preset, seed, outdir, hyper)
        return 0

    kind = res.get("experiment", "kind", None, required=True)
    sizes = res.get("experiment", "sample_sizes", None, required=True)
    preset = {
        "true_model": _structure(res.get("model", "structure", None, required=True)),
        "theta": Params(
            res.get_float("model", "w", required=True),
            res.get_float("model", "tau1_sq", required=True),
            res.get_float("model", "tau2_sq", required=True),
        ),
        "y": res.get_float("model", "y", default=0.0),
        "sizes": tuple(int(v) for v in sizes.split(",")),
        "trials": res.get_int("experiment", "trials", default=100),
        "fit_min_size": res.get_int("experiment", "fit_min_size", default=0),
    }
    eta = res.get_float("model", "eta", default=None)
    if eta is not None:
        preset["etas"] = (eta,)
    _run_experiment_bundle(kind, preset, seed, outdir, hyper)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bicausal", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q):
        q.add_argument("--config", help="flat key = value config file")
        q.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        q.add_argument("--bge-alpha", dest="bge_alpha", type=float, help="symmetric prior shape")
        q.add_argument("--bge-beta", dest="bge_beta", type=float, help="symmetric prior rate")

    q = sub.add_parser("simulate", help="draw a dataset and write it as CSV")
    add_common(q)
    q.add_argument("--structure", help="S1, S2, or S3")
    q.add_argument("--w", type=float)
    q.add_argument("--tau1-sq", dest="tau1_sq", type=float)
    q.add_argument("--tau2-sq", dest="tau2_sq", type=float)
    q.add_argument("--y", type=float, help="intervention value for the interventional block")
    q.add_argument("--n", type=int, help="observational sample count")
    q.add_argument("--m", type=int, help="interventional sample count")
    q.add_argument("--out", help="output CSV path")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("posterior", help="structure posterior of a dataset file")
    add_common(q)
    q.add_argument("dataset", help="CSV produced by `bicausal simulate`")
    q.add_argument("--method", choices=_METHODS, help="evidence computation route")
    q.add_argument("--crosscheck", action="store_true", help="always report deltas vs exact")
    q.add_argument("--out", help="also write the report to this file")
    q.set_defaults(func=cmd_posterior)

    q = sub.add_parser("rates", help="concentration exponent curves as CSV")
    add_common(q)
    q.add_argument("--w", type=float)
    q.add_argument("--tau1-sq", dest="tau1_sq", type=float)
    q.add_argument("--tau2-sq", dest="tau2_sq", type=float)
    q.add_argument("--y", type=float)
    q.add_argument("--grid-points", dest="grid_points", type=int)
    q.add_argument("--out", help="output CSV path")
    q.set_defaults(func=cmd_rates)

    q = sub.add_parser("experiment", help="run a Monte Carlo experiment bundle")
    add_common(q)
    q.add_argument("--preset", help="figure1..figure7")
    q.add_argument("--out", help="output directory")
    q.set_defaults(func=cmd_experiment)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BicausalError as exc:
        print(f"error category={exc.category}: {exc}", file=sys.stderr)
        return {"config": 2, "data-format": 3, "degenerate-data": 4}.get(exc.category, 1)


if __name__ == "__main__":
    sys.exit(main())
