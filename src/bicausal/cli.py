"""Command-line interface: simulate, posterior, rates, experiment.

Configuration is a flat ``key = value`` text file with ``[section]`` headers
(sections: model, prior, simulate, posterior, rates, experiment; the keys
each may hold are ``_CONFIG_KEYS``). CLI flags override config-file values.
Every output file carries its resolved configuration in ``#``-prefixed
header lines, and every command is deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from . import experiments as xp
from .approx import laplace_log_marginal, quadrature_log_marginal
from .errors import BicausalError, ConfigError, DataFormatError, DegenerateData, InvalidParameter
from .estimation import mle_mixed, suffstats
from .exact import StructurePosterior, log_marginal_mixed
from .experiments import _fmt
from .priors import BgeHyper, bge_symmetric_hyper, prior_logpdf
from .rates import _CURVE_POINTS
from .sem import InterventionSpec, Params, Structure, sample_interv, sample_obs

_METHODS = ("exact", "laplace", "quadrature")


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


#: The keys each config section may hold: the union of what the four
#: commands read, so that one file serves every command.
_CONFIG_KEYS = {
    "model": ("structure", "w", "tau1_sq", "tau2_sq", "y", "eta"),
    "prior": ("bge_alpha", "bge_beta", "alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6", "beta", "lambda"),
    "simulate": ("n", "m", "seed", "out"),
    "posterior": ("method",),
    "rates": ("grid_points", "out"),
    "experiment": ("preset", "kind", "sample_sizes", "trials", "fit_min_size", "seed", "out"),
}
#: The settings a preset fixes, which a config may not give beside it.
_PRESET_FIXES = {"model": _CONFIG_KEYS["model"], "experiment": ("kind", "sample_sizes", "trials", "fit_min_size")}


def parse_config(path: str) -> dict[str, dict[str, str]]:
    """The file's ``{section: {key: value}}``. A line that is not a
    ``[section]`` header or ``key = value``, or a key outside
    ``_CONFIG_KEYS``, raises :class:`ConfigError` at ``path:line``."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
        key = key.strip().lower()
        allowed = _CONFIG_KEYS.get(current, ())
        if key not in allowed:
            where = "before any [section] header" if current is None else f"in [{current}]"
            hint = f"expected one of {', '.join(allowed)}" if allowed else f"sections: {', '.join(_CONFIG_KEYS)}"
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} {where} ({hint})")
        sections.setdefault(current, {})[key] = value.strip()
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

    def get_as(self, kind: type, section, key, override=None, default=None, required=False):
        """``get`` converted by ``kind`` (``float`` or ``int``)."""
        v = self.get(section, key, override, default, required)
        if v is None:
            return None
        try:
            return kind(v)
        except (TypeError, ValueError) as exc:
            expected = "a number" if kind is float else "an integer"
            raise ConfigError(f"[{section}] {key}: expected {expected}, got {v!r}") from exc

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
        *(
            res.get_as(float, "model", key, getattr(args, key, None), required=True)
            for key in ("w", "tau1_sq", "tau2_sq")
        )
    )


def _hyper(res: Resolver, args) -> BgeHyper:
    """The explicit ``alpha1..6, beta, lambda`` prior when the config gives
    any of those keys (each is then required), otherwise the symmetric one;
    naming both, by key or by flag, raises :class:`ConfigError`."""
    keys = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "alpha6", "beta", "lambda")
    prior = res.sections.get("prior", {})
    if not prior.keys().isdisjoint(keys):
        mixed = [f"[prior] {k}" for k in ("bge_alpha", "bge_beta") if k in prior]
        mixed += [flag for flag, v in (("--bge-alpha", args.bge_alpha), ("--bge-beta", args.bge_beta)) if v is not None]
        if mixed:
            raise ConfigError(f"the explicit [prior] alpha1..lambda prior cannot be given with {', '.join(mixed)}")
        return BgeHyper(*(res.get_as(float, "prior", k, required=True) for k in keys))
    alpha = res.get_as(float, "prior", "bge_alpha", args.bge_alpha, default=3.0)
    beta = res.get_as(float, "prior", "bge_beta", args.bge_beta, default=0.5)
    return bge_symmetric_hyper(alpha, beta)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    res = Resolver(parse_config(args.config) if args.config else {})
    s = _structure(res.get("model", "structure", args.structure, required=True))
    theta = _theta(res, args)
    n = res.get_as(int, "simulate", "n", args.n, default=0)
    m = res.get_as(int, "simulate", "m", args.m, default=0)
    seed = res.get_as(int, "simulate", "seed", args.seed, default=0)
    out = res.get("simulate", "out", args.out, required=True)
    y = res.get_as(float, "model", "y", args.y, default=None)
    if m < 0:  # sample_interv, which checks m, runs only where m > 0
        raise InvalidParameter(f"m must be >= 0, got {m}")
    if m > 0 and y is None:
        raise ConfigError("interventional samples requested but no intervention value y")

    rng = np.random.default_rng(seed)
    data = sample_obs(s, theta, n, rng)
    if m > 0:
        data = np.concatenate([data, sample_interv(s, theta, InterventionSpec(y), m, rng)])
    regime = ["obs"] * n + ["int"] * m
    xp._write_table(out, res.header_lines(), "regime,x1,x2", "sgg", (regime, data[:, 0], data[:, 1]))
    print(f"wrote {n} observational + {m} interventional samples to {out}")
    return 0


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------


#: Lines the dataset reader converts at a time. Small chunks keep the
#: reader's peak memory near the size of its result.
_CHUNK_LINES = 8192
#: Whether each regime spelling (after ``strip().lower()``) is observational.
_REGIMES = {"obs": True, "int": False, "interv": False}


def _chunks(path: str):
    """The dataset's lines, ``_CHUNK_LINES`` at a time."""
    try:
        with open(path, encoding="utf-8") as fh:
            # splitlines on a run of whole lines splits it as on the whole text
            while lines := "".join(islice(fh, _CHUNK_LINES)).splitlines():
                yield lines
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc


def _parse_chunk(lines: list[str]) -> tuple[np.ndarray, np.ndarray, bool] | str:
    """``(obs, interv, saw_header)`` of a chunk whose every line is well
    formed, converted a column at a time; otherwise the message template of
    the first rule, in the order field count, numbers, finiteness, regime,
    that some line fails, so that a one-line chunk names its own fault."""
    rows = [s for s in map(str.strip, lines) if s and s[0] != "#"]
    # no regime starts with r, so only such a row is tested as a header
    data = [s for s in rows if s[0] not in "rR" or s.split(",", 1)[0].rstrip().lower() != "regime"]
    saw_header = len(data) < len(rows)
    if not data:
        return np.empty((0, 2)), np.empty((0, 2)), saw_header
    if set(map(str.count, data, repeat(","))) != {2}:
        return "expected 'regime,x1,x2', got {raw!r}"
    tokens = ",".join(data).split(",")
    values = np.empty((len(data), 2))
    try:
        # numpy converts each str token with float(), as a line-at-a-time
        # parser would, so a chunk of any size gives the same bits
        values[:, 0] = tokens[1::3]
        values[:, 1] = tokens[2::3]
    except ValueError:
        return "non-numeric sample {raw!r}"
    if not np.isfinite(values).all():
        return "non-finite sample {raw!r}"
    regimes = tokens[0::3]
    kinds = {r: _REGIMES.get(r.strip().lower()) for r in set(regimes)}
    if None in kinds.values():
        return "unknown regime {regime!r}"
    is_obs = np.fromiter(map(kinds.__getitem__, regimes), dtype=bool, count=len(regimes))
    return values[is_obs], values[~is_obs], saw_header


def read_dataset(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Observational rows as an ``(n, 2)`` array and interventional rows as
    an ``(m, 2)`` array (None when there are none) from a dataset CSV.

    Blank lines, ``#`` lines and ``regime`` header rows are skipped; every
    other line is ``regime,x1,x2``, with a regime of ``obs``, ``int`` or
    ``interv`` in any case and two finite floats. A malformed line raises a
    :class:`DataFormatError` naming ``path:line``, as does a file that is
    unreadable, not UTF-8, or has neither a row nor a header. The file is
    parsed ``_CHUNK_LINES`` lines at a time, a column at a time; a chunk
    that fails is parsed again a line at a time to locate the error.
    """
    obs_parts, int_parts = [np.empty((0, 2))], [np.empty((0, 2))]
    saw_header = False
    lineno = 1
    for lines in _chunks(path):
        parsed = _parse_chunk(lines)
        if isinstance(parsed, str):
            for lineno, raw in enumerate(lines, start=lineno):
                fault = _parse_chunk([raw])
                if isinstance(fault, str):
                    regime = raw.split(",", 1)[0].strip()
                    raise DataFormatError(f"{path}:{lineno}: " + fault.format(raw=raw, regime=regime))
        obs, interv, header = parsed
        obs_parts.append(obs)
        int_parts.append(interv)
        saw_header |= header
        lineno += len(lines)
    obs, interv = np.concatenate(obs_parts), np.concatenate(int_parts)
    if not saw_header and not obs.size and not interv.size:
        raise DataFormatError(f"{path}: no data rows found")
    return obs, (interv if interv.size else None)


def cmd_posterior(args) -> int:
    res = Resolver(parse_config(args.config) if args.config else {})
    h = _hyper(res, args)
    method = res.get("posterior", "method", args.method, default="exact")
    if method not in _METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {_METHODS}")
    obs, interv = read_dataset(args.dataset)
    if interv is not None:
        other = np.flatnonzero(interv[:, 1] != interv[0, 1])
        if other.size:
            raise DataFormatError(
                f"{args.dataset}: interventional rows must share one intervention value x2, "
                f"got {float(interv[0, 1])!r} and {float(interv[other[0], 1])!r}"
            )
    st = suffstats(obs, interv)

    lines: list[str] = [f"dataset: {args.dataset} (n={st.n}, m={st.m})", f"method: {method}"]
    logm_exact = [log_marginal_mixed(st, s, h) for s in Structure]
    triple = None
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
            triple = triple or mle_mixed(st)
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
        with xp._open_output(args.out) as fh:
            fh.write(report + "\n")
    return 0


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def cmd_rates(args) -> int:
    res = Resolver(parse_config(args.config) if args.config else {})
    theta = _theta(res, args)
    y = res.get_as(float, "model", "y", args.y, required=True)
    points = res.get_as(int, "rates", "grid_points", args.grid_points, default=_CURVE_POINTS)
    if points < 1:
        raise ConfigError(f"[rates] grid_points must be >= 1, got {points}")
    out = res.get("rates", "out", args.out, default="rates.csv")
    helps, (eta12, v12), (eta21, v21) = xp.write_rates_csv(out, theta, y, points, res.header_lines())
    print(f"wrote {out}")
    print(f"mixing_helps_s1: {helps}")
    print(f"optimal eta (true S1 exponent): {_fmt(eta12)} -> {_fmt(v12)}")
    print(f"optimal eta (true S2 exponent): {_fmt(eta21)} -> {_fmt(v21)}")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def cmd_experiment(args) -> int:
    res = Resolver(parse_config(args.config) if args.config else {})
    seed = res.get_as(int, "experiment", "seed", args.seed, default=0)
    outdir = Path(res.get("experiment", "out", args.out, default="experiment_out"))
    hyper = _hyper(res, args)
    preset_name = res.get("experiment", "preset", args.preset, default=None)
    if preset_name:
        if preset_name.lower() not in xp.PRESETS:
            raise ConfigError(f"unknown preset {preset_name!r}; expected figure1..figure7")
        fixed = [f"[{sec}] {k}" for sec, keys in _PRESET_FIXES.items() for k in keys if k in res.sections.get(sec, {})]
        if fixed:
            raise ConfigError(f"preset {preset_name} fixes its model and design; the config sets {', '.join(fixed)}")
        kind, spec = xp.PRESETS[preset_name.lower()]
    else:
        kind = res.get("experiment", "kind", None, required=True)
        if kind == "rates":
            raise ConfigError("experiment kind 'rates' runs from a preset only; use the rates command")
        sizes = res.get("experiment", "sample_sizes", None, required=True)
        try:
            sizes = tuple(int(v) for v in sizes.split(","))
        except ValueError:
            raise ConfigError(f"[experiment] sample_sizes: expected integers, got {sizes!r}") from None
        spec = {
            "true_model": _structure(res.get("model", "structure", None, required=True)),
            "theta_star": _theta(res, args),
            "y": res.get_as(float, "model", "y", default=0.0),
            "sample_sizes": sizes,
            "trials": res.get_as(int, "experiment", "trials", default=100),
            "fit_min_size": res.get_as(int, "experiment", "fit_min_size", default=0),
        }
        eta = res.get_as(float, "model", "eta", default=None)
        if eta is not None:
            spec["etas"] = (eta,)
    for line in xp.run_bundle(kind, spec, seed, hyper, outdir):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bicausal", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q, seed=False, prior=False):
        q.add_argument("--config", help="flat key = value config file")
        if seed:
            q.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        if prior:
            q.add_argument("--bge-alpha", dest="bge_alpha", type=float, help="symmetric prior shape")
            q.add_argument("--bge-beta", dest="bge_beta", type=float, help="symmetric prior rate")

    def add_model(q):
        q.add_argument("--w", type=float)
        q.add_argument("--tau1-sq", dest="tau1_sq", type=float)
        q.add_argument("--tau2-sq", dest="tau2_sq", type=float)
        q.add_argument("--y", type=float, help="intervention value")

    q = sub.add_parser("simulate", help="draw a dataset and write it as CSV")
    add_common(q, seed=True)
    q.add_argument("--structure", help="S1, S2, or S3")
    add_model(q)
    q.add_argument("--n", type=int, help="observational sample count")
    q.add_argument("--m", type=int, help="interventional sample count")
    q.add_argument("--out", help="output CSV path")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("posterior", help="structure posterior of a dataset file")
    add_common(q, prior=True)
    q.add_argument("dataset", help="CSV produced by `bicausal simulate`")
    q.add_argument("--method", choices=_METHODS, help="evidence computation route")
    q.add_argument("--crosscheck", action="store_true", help="always report deltas vs exact")
    q.add_argument("--out", help="also write the report to this file")
    q.set_defaults(func=cmd_posterior)

    q = sub.add_parser("rates", help="concentration exponent curves as CSV")
    add_common(q)
    add_model(q)
    q.add_argument("--grid-points", dest="grid_points", type=int)
    q.add_argument("--out", help="output CSV path")
    q.set_defaults(func=cmd_rates)

    q = sub.add_parser("experiment", help="run a Monte Carlo experiment bundle")
    add_common(q, seed=True, prior=True)
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
